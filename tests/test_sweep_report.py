"""Golden-master test for the sweep comparison report.

The pair of results stores under ``tests/data/sweep_golden/{a,b}`` is
checked in, and ``report.txt`` next to them pins the exact bytes
``render_report(compare_stores(a, b), verbose=True)`` must produce.
Store ``b`` deliberately carries one past-tolerance metric regression
and one ok->error status break, so the pair also pins the nonzero-exit
contract of ``repro sweep report`` (the CI sweep-smoke job runs the
same pair).

Regenerating after an *intentional* report-format or store-schema
change::

    WT_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_sweep_report.py

then review the diff of tests/data/sweep_golden/ like any other code
change.  The generator below is fully deterministic (fixed metrics, no
wall clock), so regeneration is reproducible on any machine.
"""

import io
import os
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.perf import MetricTolerance, SweepTolerances
from repro.sweep import (
    ResultsStore,
    SweepManifest,
    compare_stores,
    render_report,
)

GOLDEN = Path(__file__).parent / "data" / "sweep_golden"
REGEN = bool(os.environ.get("WT_REGEN_GOLDEN"))

#: The golden manifest: 4 scenarios, ids content-addressed as always.
_MANIFEST = {
    "name": "golden",
    "base": {"shape": [8, 8, 5], "timesteps": 2, "frames": 2,
             "seeds_per_rake": 2, "streamline_steps": 6,
             "streakline_length": 4},
    "axes": {"encoding": ["v1", "q16"], "decimate": [1, 2]},
}


def _metrics(i: int) -> dict:
    """Deterministic per-scenario metrics (no clocks, no randomness)."""
    return {
        "frames": 2,
        "frame_seconds_p50": 0.004 + i * 0.001,
        "frame_seconds_p95": 0.006 + i * 0.001,
        "bytes_per_frame": 1000.0 + 100.0 * i,
        "encodes_per_publication": 2.0,
        "points_total": 144,
        "faults_injected": 0,
    }


def build_golden_stores(root: Path) -> None:
    """Write the deterministic store pair the golden report reads."""
    manifest = SweepManifest.from_dict(_MANIFEST)
    scenarios = sorted(manifest.expand(), key=lambda s: s.scenario_id)
    header = {
        "manifest": manifest.to_dict(),
        "manifest_digest": manifest.digest,
        "n_scenarios": len(scenarios),
    }
    for store_name in ("a", "b"):
        store = ResultsStore(root / store_name)
        store.initialize(header)
        for i, scenario in enumerate(scenarios):
            record = {
                "scenario_id": scenario.scenario_id,
                "label": scenario.label(),
                "scenario": scenario.params(),
                "status": "ok",
                "metrics": _metrics(i),
            }
            if store_name == "b":
                if i == 1:  # one past-tolerance byte regression
                    record["metrics"]["bytes_per_frame"] *= 1.05
                if i == 2:  # one ok -> error status break
                    record = {
                        "scenario_id": scenario.scenario_id,
                        "label": scenario.label(),
                        "scenario": scenario.params(),
                        "status": "error",
                        "error": {"type": "RuntimeError",
                                  "message": "synthetic break"},
                    }
            store.write_run(record)
        store.finalize(
            {"scenarios": len(scenarios),
             "ok": len(scenarios) - (1 if store_name == "b" else 0),
             "rejected": 0,
             "errors": 1 if store_name == "b" else 0,
             "wall_seconds": 0.0,
             "workers": 2}
        )


@pytest.fixture(scope="module", autouse=True)
def regen_if_requested():
    if REGEN:
        build_golden_stores(GOLDEN)
        report = compare_stores(GOLDEN / "a", GOLDEN / "b")
        (GOLDEN / "report.txt").write_text(
            render_report(report, verbose=True), encoding="utf-8"
        )
    yield


def test_golden_report_bytes_are_stable():
    report = compare_stores(GOLDEN / "a", GOLDEN / "b")
    rendered = render_report(report, verbose=True)
    expected = (GOLDEN / "report.txt").read_text(encoding="utf-8")
    assert rendered == expected


def test_golden_pair_fails_the_lane():
    report = compare_stores(GOLDEN / "a", GOLDEN / "b")
    assert report.regressions == 1
    assert report.status_breaks == 1
    assert report.failed


def test_identical_stores_pass():
    report = compare_stores(GOLDEN / "a", GOLDEN / "a")
    assert not report.failed
    assert "PASS: 0 metric regression(s)" in render_report(report)


def test_cli_report_exit_codes_and_bytes():
    out = io.StringIO()
    code = cli_main(
        ["sweep", "report", str(GOLDEN / "a"), str(GOLDEN / "b"),
         "--verbose"],
        out=out,
    )
    assert code == 1
    assert out.getvalue() == (GOLDEN / "report.txt").read_text(
        encoding="utf-8"
    )
    assert cli_main(
        ["sweep", "report", str(GOLDEN / "a"), str(GOLDEN / "a")],
        out=io.StringIO(),
    ) == 0


def test_cli_tolerance_override_waives_the_regression():
    # The byte regression is +5%; a 10% override forgives it, but the
    # status break still fails the comparison.
    out = io.StringIO()
    code = cli_main(
        ["sweep", "report", str(GOLDEN / "a"), str(GOLDEN / "b"),
         "--tolerance", "bytes_per_frame=0.10"],
        out=out,
    )
    assert code == 1
    assert "REGRESSED" not in out.getvalue()
    assert "status: ok -> error" in out.getvalue()


def test_cli_bad_tolerance_spec_is_a_named_error():
    out = io.StringIO()
    assert cli_main(
        ["sweep", "report", str(GOLDEN / "a"), str(GOLDEN / "b"),
         "--tolerance", "nonsense"],
        out=out,
    ) == 2
    assert "tolerance" in out.getvalue()


def test_disjoint_stores_compare_but_list_strays(tmp_path):
    build_golden_stores(tmp_path)
    extra = ResultsStore(tmp_path / "b")
    runs = extra.runs()
    # Remove one scenario from b: it shows under "only in baseline".
    sid = sorted(runs)[0]
    (tmp_path / "b" / "runs" / f"{sid}.json").unlink()
    report = compare_stores(tmp_path / "a", tmp_path / "b")
    assert report.only_old == [sid]
    assert f"- {sid}" in render_report(report)


def test_tolerance_floor_suppresses_noise_below_band():
    tol = MetricTolerance(0.5, "higher", floor=0.05)
    assert not tol.judge(0.003, 0.03)["regressed"]  # both inside band
    assert tol.judge(0.04, 0.08)["regressed"]  # new side left the band


def test_tolerances_override_unknown_metric_raises():
    table = SweepTolerances({"m": MetricTolerance(0.1)})
    with pytest.raises(KeyError):
        table.override("ghost", 0.5)
