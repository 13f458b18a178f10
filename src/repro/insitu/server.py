"""The live windtunnel server: solver in, frames out, steering shared.

:class:`InsituWindtunnelServer` is a :class:`~repro.core.server.
WindtunnelServer` whose dataset is a :class:`~repro.insitu.source.
LiveFlowSource` fed by a solver child process
(:class:`~repro.insitu.process.SolverProcess`) through a tier-2
shared-memory segment, which the pipeline's loads read as a gateway
worker's read the gateway's: nothing copies a reported timestep up into
tier 1 ahead of them.  Everything the replay server has — the
demand-gated pipeline, the frame store, paced delivery, v2 deltas,
sessions, metrics — is inherited unchanged; this subclass wires the
live pieces together:

* the shared clock runs in **live mode**, following the producer's
  published frontier instead of a wall-anchored replay schedule;
* the pipeline stamps each frame's **steering epoch**
  (``PublishedFrame.steer_epoch``) from the producer's records;
* ``wt.steer`` / ``wt.steer_release`` expose the
  :class:`~repro.insitu.steering.SteeringController` (FCFS lease,
  validated parameters, epoch assignment), whose change sets go down to
  the child;
* ``wt.state`` gains a ``"steering"`` section via the environment's
  state-provider hook;
* ``insitu.frames_behind_sim`` tracks how far the visualization trails
  the simulation, updated on every publication;
* ``wt.restore`` replays journaled steering entries through
  :meth:`_restore_steering`, so crash recovery restores the steered
  regime (docs/steering.md).
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time

from repro.core.server import WindtunnelServer
from repro.diskio.cache import TieredTimestepCache
from repro.diskio.loader import TimestepLoader
from repro.diskio.shmcache import SharedTimestepCache
from repro.flow.solver import SolverConfig
from repro.insitu.process import (
    LAG,
    SolverExitedError,
    SolverProcess,
    build_tunnel,
    tunnel_body_mask,
)
from repro.insitu.producer import SolverProducer
from repro.insitu.steering import SteeringController
from repro.obs import MetricsRegistry

__all__ = ["InsituWindtunnelServer"]

_SEGMENT_SEQ = itertools.count()


class InsituWindtunnelServer(WindtunnelServer):
    """A windtunnel server coupled to a running solver.

    Parameters (beyond :class:`WindtunnelServer`'s, which pass through)
    ----------
    solver_config
        The :class:`~repro.flow.solver.SolverConfig` to simulate.
    steps_per_timestep
        Solver steps folded into one published timestep.
    ring_capacity
        Recent timesteps readable behind the frontier: the tier-2
        segment holds them (docs/steering.md), tier 1 what was read last.
    nk, height
        Extrusion depth of the 2-D slice (matches ``solver_dataset``).
    sim_period_seconds
        Solver throttle: minimum wall seconds per published timestep
        (0 = free-run).
    steering_hold_seconds
        FCFS steering-lease term (rake-grab semantics).

    Until :meth:`start`, ``producer`` steps its solver in this process
    only when called (``producer.advance``); :meth:`start` hands its
    regime to a solver child, after which the producer steps nothing and
    adopts the child's reports.
    """

    def __init__(
        self,
        *,
        solver_config: SolverConfig | None = None,
        steps_per_timestep: int = 5,
        ring_capacity: int = 32,
        nk: int = 4,
        height: float = 1.0,
        sim_period_seconds: float = 0.0,
        steering_hold_seconds: float = 2.0,
        time_fn=time.monotonic,
        **server_kwargs,
    ) -> None:
        config = solver_config if solver_config is not None else SolverConfig()
        self.solver_config = config
        self._tunnel = {
            "config": config,
            "steps_per_timestep": int(steps_per_timestep),
            "ring_capacity": int(ring_capacity),
            "nk": int(nk),
            "height": float(height),
        }
        self._sim_period = float(sim_period_seconds)
        solver, source = build_tunnel(**self._tunnel)
        # Tier 2 is where the solver child appends, and it holds the whole
        # window readers may ask for (docs/steering.md); tier 1 keeps the
        # loader's double buffer of what was read last.
        registry = MetricsRegistry()
        segment = SharedTimestepCache(
            f"wt-live-{os.getpid()}-{next(_SEGMENT_SEQ)}",
            source.grid.shape + (3,),
            slots=int(ring_capacity) + LAG,
            create="always",
            registry=registry,
            track=False,  # unlinked once the child attaches: see _adopt
        )
        cache = TieredTimestepCache(source, l2=segment, registry=registry)
        # No background prefetch: live timesteps are pushed into the tiers
        # by the producer; a speculative read of an unproduced timestep
        # would raise inside the prefetch worker.
        loader = TimestepLoader(source, prefetch=False, cache=cache)
        super().__init__(source, loader=loader, time_fn=time_fn, **server_kwargs)

        self.steering = SteeringController(
            hold_seconds=steering_hold_seconds, time_fn=time_fn
        )
        self.producer = SolverProducer(
            solver,
            source,
            steering=self.steering,
            cache=cache,
            steps_per_timestep=steps_per_timestep,
            obstacle_factory=functools.partial(tunnel_body_mask, config),
            pipeline=self.pipeline,
            registry=self.registry,
        )
        self.producer.prime()
        self.solver_process: SolverProcess | None = None
        self._steer_lock = threading.Lock()
        self._solver_exits = self.registry.counter("insitu.solver_exits")
        self.env.clock.bind_live(lambda: self.producer.available)
        self.pipeline.epoch_fn = self.producer.epoch_for
        self._frames_behind = self.registry.gauge("insitu.frames_behind_sim")
        self.store.subscribe(self._note_frames_behind)
        self.env.add_state_provider("steering", self._steering_state)
        self.dlib.register("wt.steer", self._rpc_steer)
        self.dlib.register("wt.steer_release", self._rpc_steer_release)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "InsituWindtunnelServer":
        """Start the solver child, then the server's threads.

        The child comes first, so a ``fork`` copies none of this server's
        threads.  A start that fails part way stops whatever it had
        started — no child, thread or segment outlives it — and re-raises.
        """
        if self.solver_process is not None:
            raise RuntimeError("server already started")
        try:
            self.solver_process = SolverProcess(
                {
                    "tunnel": self._tunnel,
                    "handoff": self.producer.handoff(),
                    "segment": self.engine.loader.cache.l2.name,
                    "slot_shape": self.engine.loader.cache.l2.slot_shape,
                    "period_seconds": self._sim_period,
                },
                self._adopt,
                self._solver_exits.inc,
            )
            super().start()
            self._forward_steering()
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        # The child first: once it stops appending, the pipeline drains
        # normally and the base teardown (which closes and unlinks the
        # segment with the loader) proceeds as for a replay server.
        if self.solver_process is not None:
            self.solver_process.stop()
        super().stop()

    def _adopt(self, reports: list[dict]) -> int:
        # The child attached the segment before its first report, and
        # nothing else will: its name goes now, so no crash of either
        # process can leave it behind (and no resource tracker needs to
        # start for it).
        segment = self.engine.loader.cache.l2
        if segment.owner:
            segment.unlink()
        return self.producer.adopt(reports)

    # -- steering RPCs ---------------------------------------------------------

    def _forward_steering(self) -> None:
        """Send every pending change set down to the child, in epoch order."""
        with self._steer_lock:
            for epoch, changes in self.steering.drain():
                self.solver_process.send(("steer", epoch, changes))

    def _rpc_steer(self, ctx, client_id: int, changes: dict) -> dict:
        """Steer the running simulation (docs/steering.md).

        Validates, takes/refreshes the FCFS steering lease, assigns the
        change set its epoch, and sends it to the solver child, which
        applies it at its next timestep boundary.  Raises
        :class:`~repro.insitu.steering.SteeringConflictError` when
        another user holds the lease, ``ValueError`` on a bad parameter
        — both before anything reaches the solver — and
        :class:`~repro.insitu.process.SolverExitedError` once the
        child has exited.
        """
        cid = int(client_id)
        self.sessions.touch(cid)
        if cid not in self.env.users:
            raise KeyError(f"no such client {cid}")
        if self.solver_process is not None and self.solver_process.exited:
            raise SolverExitedError(
                "the solver process has exited; the frontier is frozen at "
                f"timestep {self.producer.available}"
            )
        result = self.steering.request(cid, dict(changes))
        if self.solver_process is not None:
            self._forward_steering()
        result["state"] = self.producer.snapshot()
        return result

    def _rpc_steer_release(self, ctx, client_id: int) -> dict:
        """Release the steering lease early (the 'let go' of a rake grab)."""
        cid = int(client_id)
        self.sessions.touch(cid)
        return {"released": self.steering.release(cid)}

    # -- state / metrics wiring ------------------------------------------------

    def _steering_state(self) -> dict:
        snap = self.steering.snapshot()
        snap.update(self.producer.snapshot())
        return snap

    def _note_frames_behind(self, frame) -> None:
        # FrameStore listener (encoder thread): how many published
        # timesteps the visualization trails the simulation by.
        self._frames_behind.set(
            max(0, self.producer.available - frame.timestep)
        )

    # -- crash recovery --------------------------------------------------------

    def _restore_steering(self, entries: list) -> None:
        """Re-apply a journaled steering history (epoch order).

        Restores the steered *regime* — the solver parameters and body
        geometry the journal recorded — on a freshly spawned worker:
        in the solver child once it runs, else in ``producer``, whose
        regime the child starts from.  The flow trajectory itself
        restarts from the initial condition (the dead worker's velocity
        field died with it); deterministic trajectory replay from the
        same log is exercised separately via
        :meth:`SolverProducer.replay_steering`.
        """
        ordered = sorted(entries, key=lambda e: int(e.get("epoch", 0)))
        if self.solver_process is None:
            for entry in ordered:
                self.producer.apply_changes(dict(entry.get("changes", {})))
            self.steering.mark_restored(ordered)
            return
        # The child applies them at its next boundary and logs them as it
        # does any steer, so its frames carry their epochs from there on.
        for entry in ordered:
            self.steering.enqueue(
                int(entry.get("epoch", 0)), dict(entry.get("changes", {}))
            )
        self._forward_steering()
