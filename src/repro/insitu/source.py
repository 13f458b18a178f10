"""The live dataset: an unsteady dataset that grows as the solver runs.

:class:`LiveFlowSource` subclasses :class:`~repro.flow.dataset.
UnsteadyDataset`, so every existing consumer — the compute engine and
the tiered cache's :class:`~repro.diskio.cache.DatasetSource` — works
unchanged.  The differences from a replay dataset:

* ``n_timesteps`` *grows*: each :meth:`append` extends the sequence by
  one, and the live :class:`~repro.core.timectrl.TimeControl` follows
  that frontier instead of a wall-anchored schedule.
* ``velocity(t)`` reads the producer's bounded
  :class:`~repro.insitu.ring.TimestepRing`; a timestep that has retired
  from the ring raises ``IndexError`` with a message saying so, and
  ``oldest_timestep`` names the oldest one of the ring's window.
* In a live server the producer is a child process
  (:mod:`repro.insitu.process`): the server's source only admits each
  reported timestep (:meth:`~LiveFlowSource.admit`), whose data sits in
  the tier-2 segment the child appends to.
"""

from __future__ import annotations

import numpy as np

from repro.flow.dataset import UnsteadyDataset
from repro.grid.curvilinear import CurvilinearGrid
from repro.insitu.ring import TimestepRing

__all__ = ["LiveFlowSource", "extrude_slice"]


def extrude_slice(u: np.ndarray, v: np.ndarray, nk: int = 4) -> np.ndarray:
    """Extrude a 2-D solver slice into the ``(ni, nj, nk, 3)`` form.

    Identical to what :func:`~repro.flow.solver.solver_dataset` does per
    timestep: ``nk`` identical planes with ``w = 0``, float32 — the
    windtunnel's standard velocity layout.
    """
    nx, ny = u.shape
    out = np.empty((nx, ny, int(nk), 3), dtype=np.float32)
    out[..., 0] = u[..., None]
    out[..., 1] = v[..., None]
    out[..., 2] = 0.0
    return out


class LiveFlowSource(UnsteadyDataset):
    """Unsteady dataset backed by a live producer ring.

    Parameters
    ----------
    grid
        The (static) curvilinear grid the solver slice extrudes onto.
    initial
        Timestep 0's velocity array ``(ni, nj, nk, 3)`` — the solver's
        initial condition, present from construction so every
        ``n_timesteps >= 1`` invariant of the dataset machinery holds.
    dt
        Physical seconds between *published* timesteps (solver ``dt``
        times the producer's ``steps_per_timestep``).
    ring_capacity
        Recent timesteps retained (older ones retire).
    """

    def __init__(
        self,
        grid: CurvilinearGrid,
        initial: np.ndarray,
        dt: float,
        *,
        ring_capacity: int = 32,
    ) -> None:
        initial = np.asarray(initial)
        if initial.shape != grid.shape + (3,):
            raise ValueError(
                f"initial timestep must have shape {grid.shape + (3,)}, "
                f"got {initial.shape}"
            )
        super().__init__(grid, 1, dt, timestep_nbytes=initial.nbytes)
        self.ring = TimestepRing(ring_capacity)
        self.ring.append(0, initial)

    # -- the dataset interface ------------------------------------------------

    def velocity(self, t: int) -> np.ndarray:
        return self.ring.get(self._check_timestep(t))

    # -- the producer interface -----------------------------------------------

    def append(self, t: int, arr: np.ndarray) -> np.ndarray:
        """Install freshly produced timestep ``t`` (= ``latest + 1``).

        Extends ``n_timesteps`` so bounds checks downstream (the engine,
        ``_check_timestep``) admit the new frontier.  Returns the stored
        read-only view.
        """
        view = self.ring.append(t, arr)
        self.admit(t)
        return view

    def admit(self, t: int) -> None:
        """Extend ``n_timesteps`` to timestep ``t`` without its data.

        The server's side of a solver child: the child appends to its own
        ring and to the tier-2 segment, which holds the window
        :attr:`oldest_timestep` names, so reads of ``t`` are served by
        the tiers and never reach this ring.
        """
        self.n_timesteps = max(self.n_timesteps, int(t) + 1)

    @property
    def latest(self) -> int:
        """Newest timestep produced in this process."""
        return self.ring.latest

    @property
    def oldest_timestep(self) -> int:
        """The oldest timestep of the ring's window behind the frontier."""
        return max(0, self.n_timesteps - self.ring.capacity)
