"""The live dataset: an unsteady dataset that grows as the solver runs.

:class:`LiveFlowSource` subclasses :class:`~repro.flow.dataset.
UnsteadyDataset`, so every existing consumer — the compute engine and
the tiered cache's :class:`~repro.diskio.cache.DatasetSource` — works
unchanged.  The differences from a replay dataset:

* ``n_timesteps`` *grows*: the producer admits each timestep it has
  written to its cache (:meth:`~LiveFlowSource.admit`), and the live
  :class:`~repro.core.timectrl.TimeControl` follows that frontier
  instead of a wall-anchored schedule.
* The source holds the data of timestep 0 alone (the solver's initial
  condition); the window of ``ring_capacity`` timesteps behind the
  frontier, whose oldest :attr:`~LiveFlowSource.oldest_timestep` names,
  lives in the cache tiers the producer appends to — in a live server,
  the tier-2 segment its solver child (:mod:`repro.insitu.process`)
  writes.  ``velocity(t)`` of any other timestep raises ``IndexError``
  naming that window, and saying so when ``t`` has retired from it.
"""

from __future__ import annotations

import numpy as np

from repro.flow.dataset import UnsteadyDataset
from repro.grid.curvilinear import CurvilinearGrid

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
    """Unsteady dataset whose timesteps a live producer appends to its cache.

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
        Recent timesteps readable behind the frontier (older ones retire).
    """

    def __init__(
        self,
        grid: CurvilinearGrid,
        initial: np.ndarray,
        dt: float,
        *,
        ring_capacity: int = 32,
    ) -> None:
        if ring_capacity < 2:
            raise ValueError("ring_capacity must be >= 2")
        initial = np.asarray(initial).view()
        if initial.shape != grid.shape + (3,):
            raise ValueError(
                f"initial timestep must have shape {grid.shape + (3,)}, "
                f"got {initial.shape}"
            )
        super().__init__(grid, 1, dt, timestep_nbytes=initial.nbytes)
        self.ring_capacity = int(ring_capacity)
        initial.flags.writeable = False
        self._initial = initial

    def velocity(self, t: int) -> np.ndarray:
        """Timestep 0 while the window holds it; any other read raises
        ``IndexError`` naming the window, whose data the tiers hold."""
        t = int(t)
        oldest, latest = self.oldest_timestep, self.n_timesteps - 1
        if t == 0 and oldest == 0:
            return self._initial
        window = f"the live window is [{oldest}, {latest}]"
        if 0 <= t < oldest:
            raise IndexError(
                f"timestep {t} has retired ({window}); the in situ "
                "windtunnel keeps only recent history"
            )
        if not 0 <= t <= latest:
            raise IndexError(f"timestep {t} has not been produced ({window})")
        raise IndexError(
            f"timestep {t} is not held by the live source ({window}): the "
            "cache tiers the producer appends to hold its data"
        )

    def admit(self, t: int) -> None:
        """Extend ``n_timesteps`` to timestep ``t``, whose data the
        producer has written to its cache, so bounds checks downstream
        (the engine, the live clock) admit the new frontier."""
        self.n_timesteps = max(self.n_timesteps, int(t) + 1)

    @property
    def oldest_timestep(self) -> int:
        """The oldest timestep of the window behind the frontier."""
        return max(0, self.n_timesteps - self.ring_capacity)
