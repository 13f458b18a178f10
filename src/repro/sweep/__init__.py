"""The batch windtunnel: headless parametric sweeps over scenario manifests.

The interactive system serves one environment to live clients; this
package turns the same fused engine and frame pipeline into a
*throughput* surface (ROADMAP, "headless parametric sweep lane"):

* :mod:`~repro.sweep.manifest` — the YAML/JSON scenario manifest:
  dataset/rake/encoding/fault axes expanded into a validated
  cartesian grid of :class:`Scenario` runs, every bad entry a typed
  :class:`ScenarioError` naming its key.
* :mod:`~repro.sweep.runner` — the headless session driver (pipeline
  stages, no socket) and the bounded parallel :class:`SweepRunner`.
* :mod:`~repro.sweep.results` — the content-addressed results store
  (runs keyed by scenario parameter hash, plus optional keyframes).
* :mod:`~repro.sweep.report` — the comparison reporter that diffs two
  stores under :class:`repro.perf.SweepTolerances` and fails the lane
  on regression.

``repro sweep run`` / ``repro sweep report`` are the CLI surface;
docs/sweeps.md is the spec.
"""

from repro.sweep.manifest import (
    FaultProfile,
    RakeSpec,
    Scenario,
    ScenarioError,
    SweepManifest,
    load_manifest,
)
from repro.sweep.report import SweepReport, compare_stores, render_report
from repro.sweep.results import ResultsStore
from repro.sweep.runner import SweepOutcome, SweepRunner, run_scenario

__all__ = [
    "FaultProfile",
    "RakeSpec",
    "Scenario",
    "ScenarioError",
    "SweepManifest",
    "load_manifest",
    "ResultsStore",
    "SweepOutcome",
    "SweepRunner",
    "run_scenario",
    "SweepReport",
    "compare_stores",
    "render_report",
]
