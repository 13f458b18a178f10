"""Particle paths: trajectories of single fluid elements through time.

"A particle path is formally defined as the locus of points occupied over
time by a given single, infinitesimal fluid element" — the "time exposure
photograph" of a particle injected into the flow (section 2.1).  Unlike
streamlines, each integration step advances the timestep, so the tool
consumes a *window* of timesteps; the size of that window (what fits in
memory) bounds the path length (section 5.2).
"""

from __future__ import annotations

import numpy as np

from repro.flow.dataset import UnsteadyDataset
from repro.tracers.integrate import IntegratorWorkspace, integrate_paths
from repro.tracers.result import TracerResult

__all__ = ["compute_particle_paths"]


def window_steps(n_steps: int, max_window: int | None) -> int:
    """``n_steps`` clamped to a window of ``max_window`` timesteps."""
    if max_window is None:
        return n_steps
    if max_window < 1:
        raise ValueError("max_window must be at least 1 timestep")
    return min(n_steps, max_window - 1)


def compute_particle_paths(
    dataset: UnsteadyDataset,
    timestep: int,
    seeds: np.ndarray,
    n_steps: int = 100,
    *,
    time_scale: float = 1.0,
    max_window: int | None = None,
    workspace: IntegratorWorkspace | None = None,
) -> TracerResult:
    """Compute particle paths seeded at ``timestep``.

    Parameters
    ----------
    seeds
        Seed positions in grid coordinates, shape ``(S, 3)``.
    n_steps
        Desired path length in timesteps.  The actual length is clamped to
        the available timesteps past ``timestep`` and to ``max_window``.
    time_scale
        Physical-time stretch: 1.0 advances one dataset timestep per
        integration step (dt = dataset.dt).
    max_window
        Maximum number of timesteps the computation may touch — the
        in-memory timestep window of section 5.2 ("the number of timesteps
        that can fit in physical memory places a limit on the length of
        the particle paths").  ``None`` means limited only by the dataset.
    workspace
        Optional :class:`~repro.tracers.integrate.IntegratorWorkspace`:
        the integration runs on preallocated scratch (zero per-step
        allocations) and the result's ``grid_paths`` come from the
        workspace's rotating buffer pool — see that class for the reuse
        contract.
    """
    paths, lengths = integrate_paths(
        dataset.grid_velocity,
        np.asarray(seeds, dtype=np.float64),
        timestep,
        window_steps(n_steps, max_window),
        dataset.n_timesteps,
        dataset.dt * time_scale,
        workspace=workspace,
    )
    return TracerResult(paths, lengths, dataset.grid)
