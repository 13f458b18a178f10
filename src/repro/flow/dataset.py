"""Unsteady-dataset containers.

A dataset is a static curvilinear grid plus a sequence of per-timestep
velocity arrays — the paper's representation of a time-accurate solution
(section 1.1).  Two residency models, matching section 5.1:

* :class:`MemoryDataset` — "having the entire data set resident in memory
  is the easiest method of managing the data"; the stand-alone windtunnel's
  only option (≤ ~250 MB) and the Convex's preferred one (≤ 1 GB).
* :class:`DiskDataset` — memory-mapped on disk, loaded one timestep at a
  time; the mode that motivates the disk-bandwidth analysis of Table 2 and
  the prefetching server pipeline of figure 8.

Both expose ``grid_velocity(t)``: velocities converted once per timestep to
grid coordinates (the conversion described in section 2.1) and kept in a
bounded LRU cache — the in-memory timestep window that, per section 5.2,
limits how long a particle path can be computed in real time.
"""

from __future__ import annotations

import json
import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.grid.curvilinear import CurvilinearGrid
from repro.grid.jacobian import physical_to_grid_velocity

__all__ = ["UnsteadyDataset", "MemoryDataset", "DiskDataset"]

_META_NAME = "meta.json"
_GRID_NAME = "grid.npy"
_VELOCITY_NAME = "velocity.npy"


class UnsteadyDataset(ABC):
    """Abstract unsteady flow dataset: grid + T velocity timesteps."""

    def __init__(
        self,
        grid: CurvilinearGrid,
        n_timesteps: int,
        dt: float,
        cache_timesteps: int = 16,
        *,
        timestep_nbytes: int,
    ) -> None:
        if n_timesteps < 1:
            raise ValueError("dataset needs at least one timestep")
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if cache_timesteps < 1:
            raise ValueError("cache must hold at least one timestep")
        self.grid = grid
        self.n_timesteps = int(n_timesteps)
        self.dt = float(dt)
        self.cache_timesteps = int(cache_timesteps)
        #: Bytes of one velocity timestep as stored (Table 2 accounting):
        #: shape x stored dtype, recorded by the subclass without a read.
        self.timestep_nbytes = int(timestep_nbytes)
        self._gv_cache: OrderedDict[int, np.ndarray] = OrderedDict()
        # The cache is shared by the frame pipeline's producer thread, the
        # loader's prefetch worker, and the dlib service thread (isosurface
        # requests) — guard the OrderedDict against concurrent mutation.
        self._gv_lock = threading.Lock()

    # -- subclass interface -------------------------------------------------

    @abstractmethod
    def velocity(self, t: int) -> np.ndarray:
        """Physical velocity array ``(ni, nj, nk, 3)`` for timestep ``t``."""

    # -- shared machinery -----------------------------------------------------

    def _check_timestep(self, t: int) -> int:
        t = int(t)
        if not (0 <= t < self.n_timesteps):
            raise IndexError(
                f"timestep {t} out of range [0, {self.n_timesteps})"
            )
        return t

    def grid_velocity(self, t: int) -> np.ndarray:
        """Velocity for timestep ``t`` in *grid* coordinates (LRU cached).

        This is the windtunnel's hot input: the integrator consumes grid-
        coordinate velocities so no physical-space search is needed per
        step (section 2.1).
        """
        t = self._check_timestep(t)
        with self._gv_lock:
            cached = self._gv_cache.get(t)
            if cached is not None:
                self._gv_cache.move_to_end(t)
                return cached
        gv = physical_to_grid_velocity(self.grid, self.velocity(t))
        gv.setflags(write=False)
        with self._gv_lock:
            self._gv_cache[t] = gv
            while len(self._gv_cache) > self.cache_timesteps:
                self._gv_cache.popitem(last=False)
        return gv

    @property
    def oldest_timestep(self) -> int:
        """The oldest timestep still readable: 0, unless a live source
        has retired its early history."""
        return 0

    @property
    def cached_timesteps(self) -> list[int]:
        """Timesteps currently resident in the grid-velocity cache."""
        with self._gv_lock:
            return list(self._gv_cache.keys())

    @property
    def total_nbytes(self) -> int:
        return self.timestep_nbytes * self.n_timesteps

    def times(self) -> np.ndarray:
        """Physical time of every timestep."""
        return np.arange(self.n_timesteps) * self.dt

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write the dataset to ``path`` (a directory) in our on-disk layout.

        Layout: ``grid.npy`` (float64 node positions), ``velocity.npy``
        (one ``(T, ni, nj, nk, 3)`` array, normally float32), ``meta.json``.
        ``velocity.npy`` is written with :func:`numpy.lib.format` so
        :class:`DiskDataset` can memory-map it.
        """
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        np.save(path / _GRID_NAME, self.grid.xyz)
        first = np.asarray(self.velocity(0))
        out = np.lib.format.open_memmap(
            path / _VELOCITY_NAME,
            mode="w+",
            dtype=first.dtype,
            shape=(self.n_timesteps,) + first.shape,
        )
        out[0] = first
        for t in range(1, self.n_timesteps):
            out[t] = self.velocity(t)
        out.flush()
        del out
        (path / _META_NAME).write_text(
            json.dumps({"n_timesteps": self.n_timesteps, "dt": self.dt})
        )
        return path


class MemoryDataset(UnsteadyDataset):
    """Dataset fully resident in memory.

    ``velocities`` has shape ``(T, ni, nj, nk, 3)``; float32 matches the
    paper's 12-bytes-per-node budget, but any float dtype is accepted.
    """

    def __init__(
        self,
        grid: CurvilinearGrid,
        velocities: np.ndarray,
        dt: float = 1.0,
        cache_timesteps: int = 16,
    ) -> None:
        velocities = np.asarray(velocities)
        if velocities.ndim != 5 or velocities.shape[1:] != grid.shape + (3,):
            raise ValueError(
                f"velocities must have shape (T, ni, nj, nk, 3) matching the "
                f"grid {grid.shape}; got {velocities.shape}"
            )
        # [:1], not [0]: an empty array must reach the base class's check.
        super().__init__(
            grid, velocities.shape[0], dt, cache_timesteps,
            timestep_nbytes=velocities[:1].nbytes,
        )
        self.velocities = velocities

    def velocity(self, t: int) -> np.ndarray:
        return self.velocities[self._check_timestep(t)]


class DiskDataset(UnsteadyDataset):
    """Dataset resident on disk, one timestep loaded at a time.

    Velocity data is memory-mapped; :meth:`velocity` materializes exactly
    one timestep (a real disk read on a cold page cache).  This is the
    substrate under the Table 2 disk-bandwidth experiments — the
    :mod:`repro.diskio` layer wraps these reads in a bandwidth model
    calibrated to the Convex's measured 30-50 MB/s.
    """

    def __init__(self, path: str | Path, cache_timesteps: int = 16) -> None:
        path = Path(path)
        meta = json.loads((path / _META_NAME).read_text())
        grid = CurvilinearGrid(np.load(path / _GRID_NAME))
        self._mmap = np.load(path / _VELOCITY_NAME, mmap_mode="r")
        if self._mmap.shape[0] != meta["n_timesteps"]:
            raise ValueError(
                f"metadata says {meta['n_timesteps']} timesteps but "
                f"velocity file has {self._mmap.shape[0]}"
            )
        if self._mmap.shape[1:] != grid.shape + (3,):
            raise ValueError("velocity file does not match the grid shape")
        super().__init__(
            grid, meta["n_timesteps"], meta["dt"], cache_timesteps,
            timestep_nbytes=self._mmap[:1].nbytes,
        )
        self.path = path

    def velocity(self, t: int) -> np.ndarray:
        # np.array forces the actual read; returning the mmap slice would
        # defer I/O into the integrator and wreck the timing model.
        return np.array(self._mmap[self._check_timestep(t)])
