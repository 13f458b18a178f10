"""The solver child: the live tunnel's simulation in its own process.

A live server's solver does not share the server's interpreter: one
child process per :class:`~repro.insitu.server.InsituWindtunnelServer`
steps the solver, extrudes each timestep and decodes it to grid
velocities, and appends the result to the tier-2
:class:`~repro.diskio.shmcache.SharedTimestepCache` segment the server
created.  The rate of the simulation is then decoupled from the
visualization's, as in Gupta et al.'s in situ framework (PAPERS.md),
and the GIL the pipeline and the clients need is the server's alone.

One duplex pipe joins the two (docs/steering.md):

* **down** — ``("steer", epoch, changes)`` for each change set the
  server's :class:`~repro.insitu.steering.SteeringController` accepted,
  in epoch order, a ``wt.restore``'s journaled entries included;
  ``("ack", t)`` once the server has published ``t``; ``("stop",)``.
* **up** — after every timestep boundary that produced a timestep or
  applied steering, a :meth:`~repro.insitu.producer.SolverProducer.report`
  plus the ``applied`` log entries and the child's ``pid``.

**Flow control.**  The child produces timestep ``t`` only while
``t - LAG`` or later is acknowledged.  The segment holds
``ring_capacity + LAG`` slots and evicts its oldest timestep
(:meth:`~repro.diskio.shmcache.SharedTimestepCache.append`), so the
window behind the server's frontier — what
:attr:`~repro.insitu.source.LiveFlowSource.oldest_timestep` promises
readers — is always in tier 2, however far the server falls behind.

A child that dies (a crash, a SIGKILL) closes its end of the pipe: the
server counts ``insitu.solver_exits``, its frontier stays frozen and its
sessions keep being served.
"""

from __future__ import annotations

import functools
import logging
import os
import threading
import time

from repro.diskio.shmcache import SharedTimestepCache
from repro.flow.solver import NavierStokes2D, SolverConfig, tapered_cylinder_mask
from repro.grid.curvilinear import cartesian_grid
from repro.insitu.producer import SolverProducer
from repro.insitu.source import LiveFlowSource, extrude_slice
from repro.insitu.steering import SteeringController
from repro.util.processes import mp_context

__all__ = ["LAG", "SolverExitedError", "SolverProcess", "build_tunnel", "run_solver"]

log = logging.getLogger(__name__)

#: Timesteps the child may run past the server's last acknowledgement.
LAG = 4


class SolverExitedError(RuntimeError):
    """The live solver's process has exited: the flow can no longer be steered."""


def tunnel_body_mask(config: SolverConfig, taper: float, angle: float):
    """The tapered cylinder the ``taper`` / ``angle`` steering reshapes,
    in the classic placement scaled to ``config``'s box."""
    return tapered_cylinder_mask(
        config,
        center=(0.25 * config.lx, 0.5 * config.ly),
        radius=0.25,
        taper=taper,
        angle_degrees=angle,
        span=0.375 * config.ly,
    )


def build_tunnel(
    config: SolverConfig,
    *,
    steps_per_timestep: int,
    ring_capacity: int,
    nk: int,
    height: float,
) -> tuple[NavierStokes2D, LiveFlowSource]:
    """A fresh solver on the straight body and the live source it feeds."""
    solver = NavierStokes2D(config, obstacle=tunnel_body_mask(config, 0.0, 0.0))
    grid = cartesian_grid(
        (config.nx, config.ny, int(nk)),
        lo=(0.5 * config.dx, 0.5 * config.dy, 0.0),
        hi=(config.lx - 0.5 * config.dx, config.ly - 0.5 * config.dy, float(height)),
    )
    source = LiveFlowSource(
        grid,
        extrude_slice(solver.u, solver.v, int(nk)),
        dt=config.dt * int(steps_per_timestep),
        ring_capacity=ring_capacity,
    )
    return solver, source


def run_solver(spec: dict, conn) -> None:
    """Child-process entrypoint: free-run the solver into the segment.

    ``spec`` is picklable: ``tunnel`` (the :func:`build_tunnel`
    arguments), ``handoff`` (the server producer's
    :meth:`~repro.insitu.producer.SolverProducer.handoff`), the
    ``segment`` name and ``slot_shape``, and ``period_seconds``.
    """
    segment = SharedTimestepCache(spec["segment"], spec["slot_shape"], create="never")
    try:
        tunnel = spec["tunnel"]
        solver, source = build_tunnel(**tunnel)
        producer = SolverProducer(
            solver,
            source,
            steering=SteeringController(),
            cache=segment,
            steps_per_timestep=tunnel["steps_per_timestep"],
            obstacle_factory=functools.partial(tunnel_body_mask, tunnel["config"]),
        )
        producer.resume(spec["handoff"])
        _free_run(producer, conn, float(spec["period_seconds"]))
    except (EOFError, OSError):
        pass  # the server went away
    finally:
        segment.close()


def _free_run(producer: SolverProducer, conn, period: float) -> None:
    steering = producer.steering
    acked = producer.available
    reported = 0  # applied-log entries already sent up
    steered = False  # a steer arrived since the last timestep

    def receive(timeout: float | None) -> bool:
        """Take every waiting message, waiting up to ``timeout`` for the
        first; ``False`` once the server says stop."""
        nonlocal acked, steered
        while conn.poll(timeout):
            kind, *args = conn.recv()
            if kind == "stop":
                return False
            if kind == "ack":
                acked = max(acked, args[0])
            else:  # "steer"
                steering.enqueue(*args)
                steered = True
            timeout = 0
        return True

    def report() -> None:
        nonlocal reported
        applied = steering.applied_log[reported:]
        reported += len(applied)
        conn.send({**producer.report(), "applied": applied, "pid": os.getpid()})

    report()
    while receive(0):
        if producer.available - acked >= LAG:
            if not receive(None):  # until the server catches up
                return
            continue
        start = time.perf_counter()
        steered = False
        t = producer.produce_timestep()
        if t is not None or len(steering.applied_log) > reported:
            report()
        if t is None:  # paused: sleep until the next message
            if not receive(None):
                return
            continue
        # The throttle: acks do not end the wait, a steer does (it
        # applies at the next boundary, which need not wait out the
        # period).
        deadline = start + period
        while not steered and (wait := deadline - time.perf_counter()) > 0:
            if not receive(wait):
                return


class SolverProcess:
    """The server's handle on its solver child.

    Starts the child at construction — call it before the server starts
    any thread when the start method is ``fork`` — and a report thread
    that hands each batch of reports to ``on_reports`` (which returns the
    frontier to acknowledge) and, when the child's pipe closes, calls
    ``on_exit()`` for an exit :meth:`stop` did not ask for.  A batch
    ``on_reports`` raises on kills the child: that exit is counted too.
    """

    def __init__(self, spec: dict, on_reports, on_exit) -> None:
        ctx = mp_context()
        self._conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=run_solver, args=(spec, child), name="wt-insitu-solver",
            daemon=True,
        )
        self.process.start()
        child.close()
        self.pid: int | None = None  # as the child reports it
        self.exited = False  # the child's pipe has closed
        self._on_reports = on_reports
        self._on_exit = on_exit
        self._send_lock = threading.Lock()
        self._stopping = False
        self._thread = threading.Thread(
            target=self._read_reports, name="wt-insitu-reports", daemon=True
        )
        self._thread.start()

    def send(self, message: tuple) -> None:
        """Send one message down (raises :class:`SolverExitedError` once
        the child has gone)."""
        with self._send_lock:
            try:
                self._conn.send(message)
            except (OSError, ValueError) as exc:
                raise SolverExitedError("the solver process has exited") from exc

    def _read_reports(self) -> None:
        batch: list[dict] = []
        try:
            try:
                while True:
                    batch.append(self._conn.recv())
                    if not self._conn.poll():
                        self.pid = batch[-1]["pid"]
                        frontier, batch = self._on_reports(batch), []
                        self.send(("ack", frontier))
            except (EOFError, OSError, SolverExitedError):
                if batch:  # sent before the child went
                    self._on_reports(batch)
        except Exception:
            # A report this server cannot adopt would leave the child
            # waiting for an ack that never comes and the frontier frozen
            # unseen: end the child, and count it as an exit like any other.
            log.exception("adopting the solver's reports failed")
            self.process.kill()
        self.exited = True
        if not self._stopping:
            self._on_exit()

    def stop(self, timeout: float = 5.0) -> None:
        """Ask the child to stop; SIGKILL it at the deadline."""
        self._stopping = True
        try:
            self.send(("stop",))
        except SolverExitedError:
            pass
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout)
        self._thread.join(timeout)
        self._conn.close()
