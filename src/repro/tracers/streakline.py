"""Streaklines: loci of particles released from a fixed seed over time.

"A streakline is formally defined as the locus of infinitesimal fluid
elements that have previously passed through a given fixed point in space
... analogous to smoke or collections of bubbles" (section 2.1).  That
locus is a pure function of the seeds, the timestep, the filament length
and ``dt``: the particle of age *a* at timestep *t* was released at the
seeds at *t − a* and moved by one RK2 step in each field from *t − a + 1*
to *t*.  Like the other two tools it is therefore a function, not a
stateful tracer — and a frame reached by play, scrub or reverse step is
the same frame.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.flow.dataset import UnsteadyDataset
from repro.grid.interpolation import in_domain_mask
from repro.tracers.integrate import advance_rk2
from repro.tracers.result import TracerResult

__all__ = ["compute_streaklines"]


def _advance(
    previous: TracerResult | None, gv: np.ndarray, seeds: np.ndarray,
    dt: float, keep: int, grid,
) -> TracerResult:
    """One timestep on: every visible particle of ``previous`` moves one
    RK2 step in ``gv`` and a fresh particle is released at each seed;
    the ``keep`` youngest are kept.

    A filament ends at its first dead particle, and everything older
    stays hidden for good (death is permanent, ageing keeps order), so
    only the visible run is carried: ``previous`` *is* the population.
    """
    dims = gv.shape[:3]
    s = seeds.shape[0]
    n = 0 if previous is None else min(previous.grid_paths.shape[1], keep - 1)
    width = n + 1
    positions = np.empty((s, width, 3), dtype=np.float64)
    alive = np.zeros((s, width), dtype=bool)
    positions[:, 0] = seeds
    alive[:, 0] = in_domain_mask(seeds, dims)
    if n:
        live = np.arange(n) < previous.lengths[:, None]
        moved = advance_rk2(gv, previous.grid_paths[:, :n][live], dt)
        positions[:, 1:][live] = moved
        alive[:, 1:][live] = in_domain_mask(moved, dims)
    # Length = leading run of live particles from the newest end; the
    # vertices past it freeze at the last live one.
    dead = ~alive
    lengths = np.where(dead.any(axis=1), dead.argmax(axis=1), width).astype(np.intp)
    last = np.minimum(np.arange(width), np.maximum(lengths, 1)[:, None] - 1)
    return TracerResult(positions[np.arange(s)[:, None], last], lengths, grid)


def compute_streaklines(
    dataset: UnsteadyDataset,
    timestep: int,
    seeds: np.ndarray,
    length: int = 64,
    *,
    field_at: Callable[[int], np.ndarray] | None = None,
    previous: TracerResult | None = None,
) -> TracerResult:
    """Compute the streaklines from grid-coordinate ``seeds`` at ``timestep``.

    Returns a :class:`TracerResult` whose path ``s`` runs from the newest
    particle (at the seed) back through older ones, one per timestep from
    ``max(0, timestep - length + 1, dataset.oldest_timestep)`` on —
    history does not cross the clock's wrap, nor reach before what a
    live source still holds — truncated at the first particle that left
    the domain.

    Parameters
    ----------
    seeds
        Seed positions in grid coordinates, shape ``(S, 3)``: the rake's
        *current* seeds release every particle of the filament.
    length
        Particles per seed at most (filament length in timesteps).
    field_at
        Maps a timestep to its grid-coordinate field; the dataset's
        ``grid_velocity`` by default (the engine passes its loader's).
    previous
        The streakline from the same seeds and ``length`` at
        ``timestep - 1``: the result is the same, from one field read
        instead of a window's.
    """
    seeds = np.asarray(seeds, dtype=np.float64)
    if seeds.ndim != 2 or seeds.shape[1] != 3:
        raise ValueError(f"seeds must have shape (S, 3), got {seeds.shape}")
    if length < 1:
        raise ValueError("streakline length must be at least 1")
    field_at = dataset.grid_velocity if field_at is None else field_at
    start = max(0, timestep - length + 1, dataset.oldest_timestep)
    result = previous
    for t in range(start, timestep + 1) if previous is None else (timestep,):
        result = _advance(
            result, field_at(t), seeds, dataset.dt, t - start + 1, dataset.grid
        )
    return result
