"""The remote system: a dlib server running the shared windtunnel.

Figure 8's left process: receive user commands off the network, update
the virtual environment, and serve the shared visualization.  Commands
still funnel through the dlib server's serial service loop, so conflicts
resolve first-come-first-served with no further machinery (section 5.1)
— but the visualization itself is no longer computed on that loop.  A
:class:`~repro.core.pipeline.FramePipeline` produces frames (load ->
locate -> integrate -> encode) on its own threads and publishes them,
immutable and pre-encoded, into a :class:`~repro.core.framestore.FrameStore`;
one compute and one encode serve N clients, and the steady-state frame
period approaches the slowest *stage* rather than the sum of all of them
(figure 8's concurrency, measured by ``benchmarks/test_fig8_live_pipeline``).

Getting frames to readers — ``wt.frame`` calls that park until a fresh
publication (a push subscriber's paced ones among them), subscriptions
and the one reply composer — is :class:`~repro.core.delivery.Delivery`'s (docs/network.md).
This module keeps construction, procedure registration, the session,
edit and introspection RPCs, and reaches delivery through its frame,
subscribe, restore, drop and stats calls.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.delivery import Delivery
from repro.core.engine import ComputeEngine, ToolSettings
from repro.core.environment import Environment
from repro.core.framestore import FrameStore
from repro.core.pipeline import FramePipeline
from repro.core.session import SessionTable
from repro.diskio.loader import TimestepLoader
from repro.dlib.server import DlibServer
from repro.flow.dataset import UnsteadyDataset
from repro.obs import MetricsRegistry
from repro.tracers.rake import Rake

__all__ = ["WindtunnelServer"]

_TIME_OPS = ("pause", "resume", "speed", "scrub", "step", "reverse")
#: The longest streamline ``wt.set_tool_settings`` accepts (50x the
#: default): a frame's buffers grow with it, and one absurd value must
#: not leave the producer failing every frame for every session.
MAX_STREAMLINE_STEPS = 10_000


class WindtunnelServer:
    """The windtunnel's remote half.

    Parameters
    ----------
    dataset
        The unsteady flow to serve.
    loader
        The :class:`~repro.diskio.loader.TimestepLoader` every field read
        goes through — pass one for disk-resident datasets with prefetch
        (figure 8) or a shared tier 2; when omitted the engine builds a
        tier-1-only one without prefetch.
    time_fn
        Wall clock (injectable for deterministic tests).
    stage_cost
        Optional modeled per-stage extra seconds (synthetic workloads).
    frame_wait
        Ceiling on how long a ``wt.frame`` call blocks for a fresh frame
        before erroring.
    lease_seconds
        Session lease term: a client silent this long (measured on
        ``time_fn``) is reaped — its seat vacated, its rake locks
        released — but can resume via ``wt.rejoin`` with its token.
    lease_retain_seconds
        How long a reaped lease stays resumable before it is evicted
        outright (default: 10x the lease term) — the bound on what a
        churn of ghost clients can cost in memory.
    reap_interval
        How often the reaper sweep runs on the dlib service thread.
    allow_chaos
        Register the ``wt.chaos_hang`` fault-injection procedure (test
        harnesses only — it deliberately stalls the service loop so
        supervisors can be shown to detect hung workers).
    registry
        The :class:`~repro.obs.registry.MetricsRegistry` every subsystem
        (dlib server, pipeline, frame store) records into; a
        fresh one is created when omitted.  Exposed over ``wt.metrics``.
    """

    def __init__(
        self,
        dataset: UnsteadyDataset,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        settings: ToolSettings | None = None,
        time_speed: float = 10.0,
        loader: TimestepLoader | None = None,
        time_fn=time.monotonic,
        stage_cost: dict | None = None,
        frame_wait: float = 10.0,
        lease_seconds: float = 30.0,
        lease_retain_seconds: float | None = None,
        reap_interval: float = 1.0,
        allow_chaos: bool = False,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.dataset = dataset
        self.env = Environment(dataset.n_timesteps, time_speed=time_speed)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.engine = ComputeEngine(
            dataset, settings, loader=loader, registry=self.registry
        )
        self._time_fn = time_fn
        self.store = FrameStore(registry=self.registry)
        self.pipeline = FramePipeline(
            self.engine,
            self.env,
            self.store,
            time_fn=time_fn,
            stage_cost=stage_cost,
            registry=self.registry,
        )
        self._compute_hist = self.registry.histogram("pipeline.compute_seconds")
        self._points_computed = self.registry.counter("engine.points_computed")
        self.sessions = SessionTable(
            lease_seconds, retain_seconds=lease_retain_seconds, time_fn=time_fn
        )
        self.reaped_rake_locks = 0
        self.allow_chaos = bool(allow_chaos)
        self._frame_budget = 0.125  # section 1.2's 1/8 s interaction budget
        self.dlib = DlibServer(host, port, registry=self.registry)
        self.dlib.add_tick(self._reap_tick, interval=reap_interval)
        self.delivery = Delivery(
            self.dlib,
            self.pipeline,
            time_fn=time_fn,
            frame_wait=frame_wait,
            registry=self.registry,
        )
        self._register_procedures()

    @property
    def frames_served(self) -> int:
        """``wt.frame`` responses sent (cache hits included)."""
        return self.registry.counter("wt.frames_served").value

    @property
    def frames_computed(self) -> int:
        """Frames actually produced (one per distinct version/timestep)."""
        return self.pipeline.frames_produced

    # -- lifecycle --------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return self.dlib.address

    def start(self) -> "WindtunnelServer":
        self.dlib.start()
        self.pipeline.start()
        return self

    def stop(self) -> None:
        # Stop the pipeline first: the waiter tick sees ``pipeline.alive``
        # go false and fails every parked ``wt.frame`` ("shutting down")
        # while the loop still runs, so no caller waits out ``frame_wait``.
        self.pipeline.stop()
        self.dlib.stop()
        self.engine.loader.close()

    def __enter__(self) -> "WindtunnelServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- procedure registration ---------------------------------------------------

    def _register_procedures(self) -> None:
        reg = self.dlib.register
        reg("wt.join", self._rpc_join)
        reg("wt.rejoin", self._rpc_rejoin)
        reg("wt.heartbeat", self._rpc_heartbeat)
        reg("wt.leave", self._rpc_leave)
        reg("wt.update", self._rpc_update)
        reg("wt.add_rake", self._rpc_add_rake)
        reg("wt.remove_rake", self._rpc_remove_rake)
        reg("wt.time", self._rpc_time)
        reg("wt.frame", self._rpc_frame)
        reg("wt.subscribe", self._rpc_subscribe)
        reg("wt.snapshot", self._rpc_snapshot)
        reg("wt.stats", self._rpc_stats)
        reg("wt.pipeline_stats", self._rpc_pipeline_stats)
        reg("wt.metrics", self._rpc_metrics)
        reg("wt.set_tool_settings", self._rpc_set_tool_settings)
        # Gateway support (docs/operations.md): seat a session under a
        # caller-chosen identity, rebuild a journaled environment after a
        # respawn, and answer cheap supervisor health probes.
        reg("wt.adopt", self._rpc_adopt)
        reg("wt.restore", self._rpc_restore)
        reg("wt.health", self._rpc_health)
        if self.allow_chaos:
            reg("wt.chaos_hang", self._rpc_chaos_hang)

    # -- procedures (ctx is the dlib ServerContext; unused by design: all ----
    # -- windtunnel state lives in the Environment) ---------------------------

    def _join_info(self, client_id: int) -> dict:
        lo, hi = self.dataset.grid.bounding_box()
        return {
            "client_id": client_id,
            "n_timesteps": self.dataset.n_timesteps,
            "dt": self.dataset.dt,
            "grid_shape": list(self.dataset.grid.shape),
            "bounds_lo": lo.astype(np.float32),
            "bounds_hi": hi.astype(np.float32),
            "lease_seconds": self.sessions.lease_seconds,
        }

    def _rpc_join(self, ctx, name: str = "") -> dict:
        user = self.env.add_user(name)
        lease = self.sessions.open(user.client_id, name)
        self.delivery.restore(user.client_id, {})
        info = self._join_info(user.client_id)
        info["token"] = lease.token
        return info

    def _rpc_rejoin(self, ctx, client_id: int, token: str) -> dict:
        """Resume a disconnected (possibly reaped) session by token.

        The client keeps its old ``client_id``; if the reaper vacated the
        seat, the user is restored — the rakes themselves never left the
        shared environment, so they are intact; its subscription, which
        the reaper dropped with the seat, starts over at the defaults.
        """
        client_id = int(client_id)
        lease = self.sessions.resume(client_id, token)
        restored = client_id not in self.env.users
        if restored:
            self.env.restore_user(client_id, lease.name)
            self.delivery.restore(client_id, {})
        info = self._join_info(client_id)
        info["token"] = lease.token
        info["restored"] = restored
        return info

    def _rpc_adopt(self, ctx, client_id: int, name: str = "", token: str = "") -> dict:
        """Seat a session under a caller-chosen identity (gateway path).

        The gateway mints globally unique client ids and resume tokens so
        a session's identity survives the worker that happens to host it;
        the worker simply honors them.  Adopting an occupied seat raises
        (the gateway never reuses ids).
        """
        cid = int(client_id)
        if self.sessions.get(cid) is not None or cid in self.env.users:
            raise ValueError(f"client {cid} is already seated")
        lease = self.sessions.open(cid, name, token=token or None)
        self.env.restore_user(cid, name)
        self.delivery.restore(cid, {})
        info = self._join_info(cid)
        info["token"] = lease.token
        return info

    def _rpc_restore(self, ctx, state: dict) -> dict:
        """Rebuild a journaled environment on a freshly spawned worker.

        Crash recovery (docs/operations.md): the gateway's supervisor
        replays the session journal — seats, resume tokens, rake layout
        under the *original* rake ids, shared clock state, tool settings,
        and subscriptions (the defaults where none was journaled) — so
        clients resuming through ``wt.rejoin`` find the environment they
        left.  Grab locks are deliberately not restored: a grab in flight
        at the crash is released, exactly as if the holder had let go,
        and the user re-grabs.

        Idempotent per entity: already-present sessions and rakes are
        skipped, so a retried restore cannot duplicate state.
        """
        restored_sessions = restored_rakes = 0
        for entry in state.get("sessions", []):
            cid = int(entry["client_id"])
            if self.sessions.get(cid) is None:
                self.sessions.open(
                    cid, entry.get("name", ""), token=entry.get("token") or None
                )
            if cid not in self.env.users:
                self.env.restore_user(cid, entry.get("name", ""))
                restored_sessions += 1
            self.delivery.restore(cid, entry.get("subscription") or {})
        for rid, rake_dict in (state.get("rakes") or {}).items():
            rid = int(rid)
            if rid not in self.env.rakes:
                self.env.add_rake(Rake.from_dict(rake_dict), rake_id=rid)
                restored_rakes += 1
        settings = state.get("tool_settings")
        if settings:
            self._apply_tool_settings(dict(settings))
        clock = state.get("clock")
        if clock:
            self.env.clock.restore(dict(clock), self._time_fn())
        steering = state.get("steering")
        if steering:
            self._restore_steering(list(steering))
        self.env.bump()
        return {"sessions": restored_sessions, "rakes": restored_rakes}

    def _restore_steering(self, entries: list) -> None:
        """Replay journaled steering entries on a respawned worker.

        A no-op here: the base server replays *precomputed* datasets,
        which have no steering state.  The in situ server
        (:class:`~repro.insitu.server.InsituWindtunnelServer`) overrides
        this to re-apply the journaled ``wt.steer`` history in epoch
        order, restoring the steered regime after a crash
        (docs/steering.md).
        """

    def _rpc_health(self, ctx) -> dict:
        """One cheap liveness + saturation probe (the supervisor's pulse).

        Must stay light: it runs on the service loop at the supervisor's
        heartbeat interval, and a health check that can block behind
        frame production would turn saturation into a false crash verdict
        (the one lock taken, the compute histogram's, is held for a
        sample's bookkeeping).  ``saturation`` is the median frame-compute
        cost over the histogram's recent window — the last 512 frames, so
        onset and recovery both show within minutes, not hours — divided
        by the 1/8 s interaction budget, clipped to [0, 1].
        """
        return {
            "sessions": self.sessions.active,
            "users": len(self.env.users),
            "rakes": len(self.env.rakes),
            "clients_connected": ctx.clients_connected,
            "frames_served": self.frames_served,
            "publish_seq": self.store.seq,
            "pipeline_alive": self.pipeline.alive,
            "compute_mean_seconds": self._compute_hist.stats.mean,
            "saturation": max(
                0.0,
                min(1.0, self._compute_hist.quantile(0.5) / self._frame_budget),
            ),
        }

    def _rpc_chaos_hang(self, ctx, seconds: float) -> dict:
        """Fault injector: stall the service loop (``allow_chaos`` only).

        Models a worker that is alive but wedged — the exact failure a
        liveness deadline (as opposed to a process-exit check) exists to
        catch.  The stall is capped so a typo cannot park a worker
        forever.
        """
        seconds = min(max(float(seconds), 0.0), 60.0)
        time.sleep(seconds)
        return {"hung_seconds": seconds}

    def _rpc_heartbeat(self, ctx, client_id: int) -> dict:
        """Explicit liveness signal (normally piggybacked on any call)."""
        self.sessions.touch(int(client_id))
        if self.sessions.get(int(client_id)) is None:
            raise KeyError(f"no session for client {client_id}")
        return {"lease_seconds": self.sessions.lease_seconds}

    def _rpc_leave(self, ctx, client_id: int) -> None:
        # Idempotent: the seat may already be gone (reaped, or a retried
        # leave) and a parting client must not be punished for that.
        cid = int(client_id)
        self.sessions.close(cid)
        self.delivery.drop(cid)
        if cid in self.env.users:
            self.env.remove_user(cid)

    def _reap_tick(self, ctx) -> None:
        """Reaper sweep (runs on the dlib service thread).

        Holds the environment's context lock across the lock-table scan
        and the removal: the tick is serialized against *procedures* but
        not against the pipeline's producer thread or tests driving the
        environment directly, so touching ``env.locks`` unlocked races
        them (a concurrent grab/release mutates the dict mid-iteration).
        """
        for lease in self.sessions.sweep():
            cid = lease.client_id
            self.delivery.drop(cid)
            with self.env.lock:
                if cid in self.env.users:
                    self.reaped_rake_locks += sum(
                        1 for owner in self.env.locks.values() if owner == cid
                    )
                    self.env.remove_user(cid)

    def _rpc_update(self, ctx, client_id: int, head, hand, gesture: str) -> dict:
        """Apply one input sample; reports what the hand holds.

        The update that lets go of a rake also carries ``released``:
        the rake's id and final geometry, which is what the gateway
        journals so crash recovery restores the rake where the drag
        left it (docs/operations.md).
        """
        cid = int(client_id)
        self.sessions.touch(cid)
        before = self.env.users.get(cid)
        held = None if before is None else before.holding
        self.env.update_user(cid, head, hand, gesture)
        user = self.env.users[cid]
        reply = {
            "holding": None if user.holding is None else list(
                (user.holding[0], user.holding[1].value)
            )
        }
        if held is not None and user.holding is None:
            rake_id = held[0]
            reply["released"] = {
                "rake_id": rake_id,
                "rake": self.env.rakes[rake_id].to_dict(),
            }
        return reply

    def _rpc_add_rake(self, ctx, client_id: int, rake: dict) -> int:
        self.sessions.touch(int(client_id))
        if int(client_id) not in self.env.users:
            raise KeyError(f"no such client {client_id}")
        return self.env.add_rake(Rake.from_dict(rake))

    def _rpc_remove_rake(self, ctx, client_id: int, rake_id: int) -> None:
        self.sessions.touch(int(client_id))
        owner = self.env.rake_owner(int(rake_id))
        if owner is not None and owner != int(client_id):
            raise PermissionError(
                f"rake {rake_id} is held by client {owner}"
            )
        self.env.remove_rake(int(rake_id))

    def _rpc_time(self, ctx, client_id: int, op: str, value: float = 0.0) -> dict:
        """Shared time control: any user can drive the clock."""
        self.sessions.touch(int(client_id))
        if op not in _TIME_OPS:
            raise ValueError(f"unknown time op {op!r}; expected one of {_TIME_OPS}")
        wall = self._time_fn()
        clock = self.env.clock
        if op == "pause":
            clock.pause(wall)
        elif op == "resume":
            clock.resume(wall)
        elif op == "speed":
            clock.set_speed(value, wall)
        elif op == "scrub":
            clock.scrub(value, wall)
        elif op == "step":
            clock.step(value, wall)
        elif op == "reverse":
            clock.reverse(wall)
        self.env.bump()  # invalidates the published frame, wakes the producer
        return clock.snapshot(wall)

    def _rpc_snapshot(self, ctx, client_id: int = 0) -> dict:
        self.sessions.touch(int(client_id))
        return self.env.snapshot(self._time_fn())

    def _rpc_frame(self, ctx, client_id: int = 0, ack: int = 0):
        """Serve the shared visualization; doubles as the heartbeat.
        ``ack`` is the last seq the client integrated."""
        self.sessions.touch(int(client_id))
        return self.delivery.frame(int(client_id), int(ack))

    def _rpc_subscribe(self, ctx, client_id: int, options: dict | None = None) -> dict:
        """Negotiate one client's delivery terms: idempotent,
        last-write-wins (the options: docs/network.md)."""
        self.sessions.touch(int(client_id))
        return self.delivery.subscribe(int(client_id), dict(options or {}))


    def _rpc_pipeline_stats(self, ctx, client_id: int = 0) -> dict:
        """Stage-resolved pipeline statistics (see docs/protocol.md)."""
        self.sessions.touch(int(client_id))
        return self.pipeline.stats()

    def _rpc_metrics(self, ctx, client_id: int = 0, trace_limit: int = 8) -> dict:
        """Process-wide observability snapshot (see docs/observability.md).

        Returns the full metrics registry (every subsystem records into
        the same one) plus the most recent server-side span trees — the
        only place a response's own socket-write span is visible.
        """
        self.sessions.touch(int(client_id))
        return {
            "registry": self.registry.snapshot(),
            "traces": self.dlib.traces.to_wire(int(trace_limit)),
            "traces_total": self.dlib.traces.total,
        }

    def _rpc_set_tool_settings(self, ctx, client_id: int, settings: dict) -> dict:
        """Adjust tracer parameters at runtime (section 7: 'development of
        greater user control over the virtual environment').

        Accepts any subset of the :class:`~repro.core.engine.ToolSettings`
        fields; returns the full effective settings.  Like all environment
        mutations, the change is shared by every user.
        """
        self.sessions.touch(int(client_id))
        if int(client_id) not in self.env.users:
            raise KeyError(f"no such client {client_id}")
        return self._apply_tool_settings(settings)

    def _apply_tool_settings(self, settings: dict) -> dict:
        """Validate and apply shared tracer settings; returns the full
        effective set (also the shape journaled for crash recovery)."""
        allowed = {
            "streamline_steps": int,
            "streamline_dt": float,
            "particle_path_steps": int,
            "streakline_length": int,
        }
        s = self.engine.settings
        # Validate the whole change set before applying any of it: a
        # rejected call leaves the settings (and the version) untouched.
        checked = {}
        for key, value in settings.items():
            if key not in allowed:
                raise ValueError(
                    f"unknown tool setting {key!r}; allowed: {sorted(allowed)}"
                )
            if not math.isfinite(float(value)):  # NaN passes ``<= 0``
                raise ValueError(f"{key} must be finite")
            value = allowed[key](value)
            if value <= 0:
                raise ValueError(f"{key} must be positive")
            if key == "streamline_steps" and value > MAX_STREAMLINE_STEPS:
                raise ValueError(
                    f"streamline_steps must be at most {MAX_STREAMLINE_STEPS}"
                )
            checked[key] = value
        for key, value in checked.items():
            setattr(s, key, value)
        self.env.bump()  # invalidate the published frame, wake the producer
        return {
            "streamline_steps": s.streamline_steps,
            "streamline_dt": s.streamline_dt,
            "particle_path_steps": s.particle_path_steps,
            "streakline_length": s.streakline_length,
        }

    def _rpc_stats(self, ctx) -> dict:
        return {
            "frames_served": self.frames_served,
            "frames_computed": self.frames_computed,
            "frames_published": self.store.published_total,
            "publish_seq": self.store.seq,
            "compute_mean_seconds": self._compute_hist.stats.mean,
            "points_computed": self._points_computed.value,
            "n_rakes": len(self.env.rakes),
            "n_users": len(self.env.users),
            "active_sessions": self.sessions.active,
            "reaped_sessions": self.sessions.reaped_total,
            "resumed_sessions": self.sessions.resumed_total,
            "evicted_sessions": self.sessions.evicted_total,
            "released_rake_locks": self.reaped_rake_locks,
            "disconnects": ctx.disconnects,
            "protocol_errors": ctx.protocol_errors,
            **self.delivery.stats(),
        }
