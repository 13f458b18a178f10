"""Unsteady-dataset containers.

A dataset is a static curvilinear grid plus a sequence of per-timestep
velocity arrays — the paper's representation of a time-accurate solution
(section 1.1).  Two residency models, matching section 5.1:

* :class:`MemoryDataset` — "having the entire data set resident in memory
  is the easiest method of managing the data"; the stand-alone windtunnel's
  only option (≤ ~250 MB) and the Convex's preferred one (≤ 1 GB).
* :class:`DiskDataset` — resident on disk, read one timestep at a time
  with one positional read; the mode that motivates the disk-bandwidth
  analysis of Table 2 and the prefetching server pipeline of figure 8.

Both expose ``grid_velocity(t)``: velocities converted to grid
coordinates (the conversion described in section 2.1).  A conversion is
shared while anything holds it and freed when nothing does; the dataset
keeps no timestep of its own.  What stays resident is the tier stack's
to decide (:mod:`repro.diskio.cache`): its tier 1 is the in-memory
timestep window that, per section 5.2, limits how long a particle path
can be computed in real time.
"""

from __future__ import annotations

import json
import threading
import weakref
from abc import ABC, abstractmethod
from pathlib import Path

import numpy as np

from repro.grid.curvilinear import CurvilinearGrid
from repro.grid.jacobian import physical_to_grid_velocity

__all__ = ["UnsteadyDataset", "MemoryDataset", "DiskDataset", "TruncatedDatasetError"]

_META_NAME = "meta.json"
_GRID_NAME = "grid.npy"
_VELOCITY_NAME = "velocity.npy"
_NPY_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


class TruncatedDatasetError(ValueError):
    """A timestep read came back short: ``velocity.npy`` ends before the
    timestep its header promises."""


def _memory_owner(gv: np.ndarray) -> np.ndarray:
    """The array that owns ``gv``'s memory, in ``gv``'s layout.

    NumPy points every view's ``base`` straight at the owner, so a weak
    reference to a view dies while a tier still holds the memory through
    another view; the decode memo must reference the owner.
    """
    base = gv.base
    if base is None:
        return gv
    if (
        isinstance(base, np.ndarray)
        and base.dtype == gv.dtype
        and base.size == gv.size
        and base.flags.c_contiguous
        and gv.flags.c_contiguous
    ):
        return base
    return gv.copy()


class UnsteadyDataset(ABC):
    """Abstract unsteady flow dataset: grid + T velocity timesteps."""

    def __init__(
        self,
        grid: CurvilinearGrid,
        n_timesteps: int,
        dt: float,
        *,
        timestep_nbytes: int,
    ) -> None:
        if n_timesteps < 1:
            raise ValueError("dataset needs at least one timestep")
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.grid = grid
        self.n_timesteps = int(n_timesteps)
        self.dt = float(dt)
        #: Bytes of one velocity timestep as stored (Table 2 accounting):
        #: shape x stored dtype, recorded by the subclass without a read.
        self.timestep_nbytes = int(timestep_nbytes)
        # Timestep -> the array owning its decoded memory, held weakly:
        # an entry lives exactly as long as some tier, engine or caller
        # holds a view of it.  The frame pipeline's producer thread, the
        # loader's prefetch worker and the dlib service thread all decode.
        self._decoded: weakref.WeakValueDictionary[int, np.ndarray] = (
            weakref.WeakValueDictionary()
        )
        self._decoded_lock = threading.Lock()

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
        """Velocity for timestep ``t`` in *grid* coordinates (read-only).

        This is the windtunnel's hot input: the integrator consumes grid-
        coordinate velocities so no physical-space search is needed per
        step (section 2.1).  While anything holds a timestep's result, a
        second call shares its memory and decodes nothing; once nothing
        does, the memory is freed and the next call decodes again.
        """
        t = self._check_timestep(t)
        with self._decoded_lock:
            owner = self._decoded.get(t)
        if owner is None:
            owner = _memory_owner(
                physical_to_grid_velocity(self.grid, self.velocity(t))
            )
            owner.flags.writeable = False
            with self._decoded_lock:
                owner = self._decoded.setdefault(t, owner)
        return owner.reshape(self.grid.shape + (3,))

    @property
    def oldest_timestep(self) -> int:
        """The oldest timestep still readable: 0, unless a live source
        has retired its early history."""
        return 0

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
        ``velocity.npy`` is written with :func:`numpy.lib.format`, so
        :class:`DiskDataset` finds timestep ``t`` at a fixed offset.
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
    ) -> None:
        velocities = np.asarray(velocities)
        if velocities.ndim != 5 or velocities.shape[1:] != grid.shape + (3,):
            raise ValueError(
                f"velocities must have shape (T, ni, nj, nk, 3) matching the "
                f"grid {grid.shape}; got {velocities.shape}"
            )
        # [:1], not [0]: an empty array must reach the base class's check.
        super().__init__(
            grid, velocities.shape[0], dt,
            timestep_nbytes=velocities[:1].nbytes,
        )
        self.velocities = velocities

    def velocity(self, t: int) -> np.ndarray:
        return self.velocities[self._check_timestep(t)]


class DiskDataset(UnsteadyDataset):
    """Dataset resident on disk, one timestep read at a time.

    The ``velocity.npy`` header is parsed once (shape, dtype, data
    offset); :meth:`velocity` reads timestep ``t`` with one positional
    read into a fresh array (a real disk read on a cold page cache) and
    keeps no mapping, so a timestep read once is not left resident.  This
    is the substrate under the Table 2 disk-bandwidth experiments — the
    :mod:`repro.diskio` layer wraps these reads in a bandwidth model
    calibrated to the Convex's measured 30-50 MB/s.
    """

    def __init__(self, path: str | Path) -> None:
        path = Path(path)
        meta = json.loads((path / _META_NAME).read_text())
        grid = CurvilinearGrid(np.load(path / _GRID_NAME))
        self._velocity_path = path / _VELOCITY_NAME
        with open(self._velocity_path, "rb") as f:
            version = np.lib.format.read_magic(f)
            if version not in _NPY_HEADER_READERS:
                raise ValueError(f"unsupported .npy format version {version}")
            shape, fortran_order, dtype = _NPY_HEADER_READERS[version](f)
            self._data_offset = f.tell()
        if fortran_order or dtype.hasobject:
            raise ValueError("velocity file must be a C-ordered numeric array")
        if shape[0] != meta["n_timesteps"]:
            raise ValueError(
                f"metadata says {meta['n_timesteps']} timesteps but "
                f"velocity file has {shape[0]}"
            )
        if shape[1:] != grid.shape + (3,):
            raise ValueError("velocity file does not match the grid shape")
        self._dtype = dtype
        super().__init__(
            grid, meta["n_timesteps"], meta["dt"],
            timestep_nbytes=grid.n_points * 3 * dtype.itemsize,
        )
        self.path = path

    def velocity(self, t: int) -> np.ndarray:
        # A real read into a fresh array: a lazy view would defer I/O
        # into the integrator and wreck the timing model.
        t = self._check_timestep(t)
        out = np.empty(self.grid.shape + (3,), dtype=self._dtype)
        offset = self._data_offset + t * self.timestep_nbytes
        with open(self._velocity_path, "rb") as f:
            f.seek(offset)
            n = f.readinto(memoryview(out).cast("B"))
        if n != out.nbytes:
            raise TruncatedDatasetError(
                f"{self._velocity_path.name} holds {n} of timestep {t}'s "
                f"{out.nbytes} bytes at offset {offset}"
            )
        return out
