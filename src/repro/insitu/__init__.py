"""In situ solver coupling with computational steering.

The source paper replays *precomputed* timesteps; Gupta et al.'s in situ
VR framework (PAPERS.md) couples the visualization loop to a *running*
simulation that users steer interactively.  This package is that
coupling for the reproduction's own 2-D Navier-Stokes solver
(:mod:`repro.flow.solver`):

* :class:`~repro.insitu.source.LiveFlowSource` — an
  :class:`~repro.flow.dataset.UnsteadyDataset` whose timestep sequence
  *grows* as the solver produces (unbounded t); it holds timestep 0 and
  the frontier, and the cache tiers hold the bounded window of recent
  timesteps behind it.
* :class:`~repro.insitu.steering.SteeringController` — ``wt.steer``
  validation, FCFS steering-conflict leases (modeled on the rake grab
  locks), and monotonically increasing steering *epochs* stamped into
  every :class:`~repro.core.framestore.PublishedFrame`.
* :class:`~repro.insitu.producer.SolverProducer` — steps the solver,
  extrudes and decodes each new timestep straight into the cache, and
  advances the published frontier; or, in the server, adopts a solver
  child's reports and publishes the timesteps the child appended.
* :class:`~repro.insitu.process.SolverProcess` — the solver child: one
  process per live server that free-runs a producer into a tier-2
  shared-memory segment and reports each timestep boundary over a pipe,
  steering coming down the same pipe; its exit is counted
  (``insitu.solver_exits``) and the session outlives it.
* :class:`~repro.insitu.server.InsituWindtunnelServer` — a
  :class:`~repro.core.server.WindtunnelServer` whose dataset is the live
  source: clients keep the whole ``wt.*`` protocol and gain ``wt.steer``.

See docs/steering.md for the architecture and wire semantics.
"""

from repro.insitu.source import LiveFlowSource, extrude_slice
from repro.insitu.steering import (
    STEERING_RANGES,
    SteeringConflictError,
    SteeringController,
)
from repro.insitu.producer import SolverProducer
from repro.insitu.process import SolverExitedError, SolverProcess
from repro.insitu.server import InsituWindtunnelServer

__all__ = [
    "LiveFlowSource",
    "extrude_slice",
    "STEERING_RANGES",
    "SteeringConflictError",
    "SteeringController",
    "SolverProducer",
    "SolverExitedError",
    "SolverProcess",
    "InsituWindtunnelServer",
]
