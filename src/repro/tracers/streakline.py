"""Streaklines: loci of particles released from a fixed seed over time.

"A streakline is formally defined as the locus of infinitesimal fluid
elements that have previously passed through a given fixed point in space
... analogous to smoke or collections of bubbles" (section 2.1).  Each
frame, every live particle is moved by one RK2 step in the *current*
timestep's field, and fresh particles are injected at the seed points.
Unlike the other tools the streakline is stateful — its particle
population persists across frames — so it is a class rather than a
function.
"""

from __future__ import annotations

import numpy as np

from repro.flow.dataset import UnsteadyDataset
from repro.grid.interpolation import in_domain_mask
from repro.tracers.integrate import advance_rk2
from repro.tracers.result import TracerResult

__all__ = ["StreaklineTracer"]


class StreaklineTracer:
    """Persistent particle population forming streaklines.

    Particle history is stored age-major: ``history[0]`` holds the newest
    particles (one per seed, just injected), ``history[age]`` the particles
    injected ``age`` frames ago.  Connecting a seed's column through
    increasing age renders the smoke filament; the buffer length is the
    particle budget per seed.

    Parameters
    ----------
    max_length
        Maximum particles retained per seed (filament length in frames).
    """

    def __init__(self, max_length: int = 100) -> None:
        if max_length < 1:
            raise ValueError("max_length must be positive")
        self.max_length = int(max_length)
        self._history: np.ndarray | None = None  # (L, S, 3) grid coords
        self._alive: np.ndarray | None = None  # (L, S) bool
        self.filled = 0

    @property
    def n_seeds(self) -> int:
        return 0 if self._history is None else self._history.shape[1]

    @property
    def n_particles(self) -> int:
        """Live particle count (the paper's particle budget currency)."""
        if self._alive is None or self.filled == 0:
            return 0
        return int(self._alive[: self.filled].sum())

    def reset(self) -> None:
        """Drop all particles (e.g. when the rake's seed count changes)."""
        self._history = None
        self._alive = None
        self.filled = 0

    def advance(
        self, gv: np.ndarray, seeds: np.ndarray, dt: float, substeps: int = 1
    ) -> None:
        """Advance one frame: move all particles, inject new ones.

        ``gv`` is the current timestep's grid-coordinate field, read once
        by the caller (the engine, through its loader), and ``dt`` the
        frame's time increment (the dataset's ``dt`` in real-time play).
        ``seeds`` are grid-coordinate seed positions ``(S, 3)``.  If the
        seed count differs from the existing population's, the population
        is reset (the user rebuilt the rake).  Seed *positions* may change
        freely — a moving rake emits from wherever it currently is.

        ``substeps`` splits the frame's time increment into that many RK2
        steps — the accuracy knob when dataset timesteps are coarse
        relative to the flow's turnover time (each substep still uses the
        current timestep's field, per the paper's streakline definition).
        """
        seeds = np.asarray(seeds, dtype=np.float64)
        if seeds.ndim != 2 or seeds.shape[1] != 3:
            raise ValueError(f"seeds must have shape (S, 3), got {seeds.shape}")
        s = seeds.shape[0]
        if self._history is None or self._history.shape[1] != s:
            self._history = np.zeros((self.max_length, s, 3), dtype=np.float64)
            self._alive = np.zeros((self.max_length, s), dtype=bool)
            self.filled = 0
        if substeps < 1:
            raise ValueError("substeps must be at least 1")
        dims = gv.shape[:3]
        sub_dt = dt / substeps

        # 1. Move every live particle through the frame's time increment.
        if self.filled:
            hist = self._history[: self.filled].reshape(-1, 3)
            alive = self._alive[: self.filled].reshape(-1)
            for _ in range(substeps):
                if not alive.any():
                    break
                sel = np.nonzero(alive)[0]
                new = advance_rk2(gv, hist[sel], sub_dt)
                inside = in_domain_mask(new, dims)
                hist[sel[inside]] = new[inside]
                alive[sel[~inside]] = False

        # 2. Age the population and inject fresh particles at the seeds.
        self._history = np.roll(self._history, 1, axis=0)
        self._alive = np.roll(self._alive, 1, axis=0)
        self._history[0] = seeds
        self._alive[0] = in_domain_mask(seeds, dims)
        self.filled = min(self.filled + 1, self.max_length)

    def result(self, grid=None, dataset: UnsteadyDataset | None = None) -> TracerResult:
        """Package the current population as per-seed filaments.

        Returns a :class:`TracerResult` whose path ``s`` runs from the
        newest particle (at the seed) back through its predecessors; the
        filament is truncated at the first dead particle, since everything
        older has convected out of the domain.
        """
        if grid is None:
            if dataset is None:
                raise ValueError("provide grid or dataset")
            grid = dataset.grid
        if self._history is None or self.filled == 0:
            return TracerResult(
                np.zeros((0, 1, 3)), np.zeros(0, dtype=np.intp), grid
            )
        s = self._history.shape[1]
        paths = np.transpose(self._history[: self.filled], (1, 0, 2)).copy()
        alive = np.transpose(self._alive[: self.filled], (1, 0))  # (S, filled)
        # Length = leading run of live particles from the newest end.
        dead = ~alive
        lengths = np.where(
            dead.any(axis=1), dead.argmax(axis=1), self.filled
        ).astype(np.intp)
        # Freeze vertices beyond the valid run at the last valid position.
        for i in range(s):
            li = lengths[i]
            if 0 < li < self.filled:
                paths[i, li:] = paths[i, li - 1]
        return TracerResult(paths, lengths, grid)
