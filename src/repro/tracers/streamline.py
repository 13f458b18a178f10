"""Streamlines: integral curves of the instantaneous field.

"A streamline is formally defined as the integral curve of the
instantaneous velocity vector field that passes through a given point in
space at a given time" (section 2.1).  The whole path must be recomputed
every frame — inside the 1/8-second budget — because the researcher
explores by dragging the rake and watching the curves respond.
"""

from __future__ import annotations

import numpy as np

from repro.flow.dataset import UnsteadyDataset
from repro.tracers.integrate import integrate_steady
from repro.tracers.result import TracerResult

__all__ = ["compute_streamlines"]


def compute_streamlines(
    dataset: UnsteadyDataset,
    timestep: int,
    seeds: np.ndarray,
    n_steps: int = 200,
    dt: float = 0.05,
    *,
    bidirectional: bool = False,
) -> TracerResult:
    """Compute streamlines from grid-coordinate ``seeds`` at one timestep.

    Parameters
    ----------
    seeds
        Seed positions in *grid coordinates*, shape ``(S, 3)`` (rake seeds
        are converted by the caller via
        :class:`~repro.grid.search.GridLocator`, once per interaction —
        never per step, per section 2.1).
    n_steps, dt
        Integration steps per path and step size in grid-coordinate time.
        The paper's benchmark scenario is 100 streamlines of 200 points
        each (section 5.3).
    bidirectional
        Also integrate upstream (negative dt) and join the halves, so the
        curve extends both ways from the rake.
    """
    gv = dataset.grid_velocity(timestep)
    fwd_paths, fwd_len = integrate_steady(gv, seeds, n_steps, dt)
    if not bidirectional:
        return TracerResult(fwd_paths, fwd_len, dataset.grid)

    bwd_paths, bwd_len = integrate_steady(gv, seeds, n_steps, -dt)
    s = seeds.shape[0]
    total = fwd_paths.shape[1] + bwd_paths.shape[1] - 1
    joined = np.empty((s, total, 3), dtype=np.float64)
    lengths = np.empty(s, dtype=np.intp)
    for i in range(s):
        nb, nf = int(bwd_len[i]), int(fwd_len[i])
        # Upstream half reversed (oldest first), seed shared once.
        merged = np.concatenate(
            [bwd_paths[i, 1:nb][::-1], fwd_paths[i, :nf]], axis=0
        )
        joined[i, : len(merged)] = merged
        joined[i, len(merged) :] = merged[-1] if len(merged) else seeds[i]
        lengths[i] = len(merged)
    return TracerResult(joined, lengths, dataset.grid)
