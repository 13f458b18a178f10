"""Visualization tools: streaklines, particle paths, streamlines, rakes.

Section 2.1 of the paper defines the three tools, all computed by
"selecting a set of initial positions and integrating the vector field";
they differ only in the order in which integrations and timestep
increments are interleaved:

* **streamline** — integrate the *instantaneous* field at one timestep,
  never incrementing time;
* **particle path** — integrate while incrementing the timestep with each
  integration;
* **streakline** — release one particle per seed at every timestep and
  move each through the fields from its release to the current
  timestep: a pure function of the seeds, the timestep and the filament
  length, like the other two.

All integration happens in grid coordinates with second-order Runge-Kutta
(section 5.3), and results are converted to physical coordinates by
trilinear lookup.  Seed points come in lines called **rakes**, grabbed at
the center or either end (section 2.1).

The integration core is one kernel, the paper's production choice
(section 5.3): RK2 vectorized across streamlines, shared by streamlines
and particle paths.  The other arrangements section 5.3 compares it with
(scalar, strip-mined, process-parallel) are benchmark code beside the
Table 3 bench, not library options.
"""

from repro.tracers.integrate import (
    IntegratorWorkspace,
    advance_rk2,
    integrate_paths,
    integrate_steady,
)
from repro.tracers.rake import GrabPoint, Rake
from repro.tracers.streakline import compute_streaklines
from repro.tracers.result import TracerResult
from repro.tracers.isosurface import (
    IsosurfaceResult,
    extract_isosurface,
    velocity_magnitude,
)

__all__ = [
    "IntegratorWorkspace",
    "advance_rk2",
    "integrate_steady",
    "integrate_paths",
    "Rake",
    "GrabPoint",
    "compute_streaklines",
    "TracerResult",
    "IsosurfaceResult",
    "extract_isosurface",
    "velocity_magnitude",
]
