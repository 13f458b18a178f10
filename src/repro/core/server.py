"""The remote system: a dlib server running the shared windtunnel.

Figure 8's left process: receive user commands off the network, update
the virtual environment, and serve the shared visualization.  Commands
still funnel through the dlib server's serial service loop, so conflicts
resolve first-come-first-served with no further machinery (section 5.1)
— but the visualization itself is no longer computed on that loop.  A
:class:`~repro.core.pipeline.FramePipeline` produces frames (load ->
locate -> integrate -> encode) on its own threads and publishes them,
immutable and pre-encoded, into a :class:`~repro.core.framestore.FrameStore`;
``wt.frame`` is a cheap read of the latest publication plus a per-client
environment snapshot.  One compute and one encode serve N clients, and
the steady-state frame period approaches the slowest *stage* rather than
the sum of all of them (figure 8's concurrency, measured by
``benchmarks/test_fig8_live_pipeline``).

Since the event-loop refactor, a ``wt.frame`` that needs a *fresh* frame
no longer blocks the service thread either: the handler parks the call
as a dlib continuation (:meth:`~repro.dlib.server.DlibServer.defer`) and
the pipeline's publication callback — marshalled onto the loop via
``call_soon`` — resolves every parked waiter whose acceptance window the
new frame satisfies.  The same callback drives **push-mode delivery**:
clients that subscribed with ``push=True`` receive each publication as a
server-initiated PUSH message, with the per-publication environment
snapshot encoded once and spliced into every client's frame.  Slow
subscribers shed frames at the dlib send-queue high-water mark instead of
slowing the loop (docs/network.md).

Every reply — cache hit, resolved continuation, PUSH — is built by one
composer from the reader's :class:`Subscription`; a client that never
called ``wt.subscribe`` holds :data:`DEFAULT_SUBSCRIPTION`.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import ComputeEngine, ToolSettings
from repro.core.environment import Environment
from repro.core.framestore import ENCODINGS, FrameStore, PublishedFrame
from repro.core.pipeline import STAGES, FramePipeline
from repro.core.session import SessionTable
from repro.diskio.loader import TimestepLoader
from repro.dlib.protocol import PreEncoded
from repro.dlib.server import Deferred, DlibServer
from repro.flow.dataset import UnsteadyDataset
from repro.obs import MetricsRegistry, Trace, current_trace
from repro.tracers.rake import Rake

__all__ = ["DEFAULT_SUBSCRIPTION", "Subscription", "WindtunnelServer"]

_TIME_OPS = ("pause", "resume", "speed", "scrub", "step", "reverse")
#: The longest streamline ``wt.set_tool_settings`` accepts (50x the
#: default): a frame's buffers grow with it, and one absurd value must
#: not leave the producer failing every frame for every session.
MAX_STREAMLINE_STEPS = 10_000


@dataclass
class Subscription:
    """One reader's delivery terms, plus the live state that serves them.

    The six option fields are what ``wt.subscribe`` negotiates
    (docs/network.md), what the gateway journals (:meth:`to_wire`) and
    what ``wt.restore`` feeds back (:meth:`from_wire`).  They are never
    assigned after construction — re-negotiating replaces the record —
    and they alone decide equality.  The live part: ``conn`` (the
    connection push delivery is bound to — by ``wt.subscribe`` only, a
    restored record has no socket to its client yet) and ``push_seq``
    (that connection's delta base).
    """

    encoding: str
    decimate: int
    deltas: bool
    push: bool
    rakes: frozenset | None
    kinds: frozenset | None
    conn: object = field(default=None, compare=False)
    push_seq: int = field(default=0, compare=False)

    @classmethod
    def from_wire(cls, options: dict) -> "Subscription":
        """Validate a ``wt.subscribe`` option dict (other keys ignored)."""
        encoding = str(options.get("encoding", "v1"))
        if encoding not in ENCODINGS:
            raise ValueError(
                f"unknown encoding {encoding!r}; expected one of {ENCODINGS}"
            )
        decimate = int(options.get("decimate", 1))
        if decimate < 1:
            raise ValueError("decimate must be >= 1")
        rakes, kinds = options.get("rakes"), options.get("kinds")
        for key, value in (("rakes", rakes), ("kinds", kinds)):
            # A bare string would iterate into its characters.
            if value is not None and not isinstance(value, (list, tuple)):
                raise ValueError(f"{key} must be a list (or absent)")
        return cls(
            encoding=encoding,
            decimate=decimate,
            deltas=bool(options.get("deltas", True)),
            push=bool(options.get("push", False)),
            rakes=None if rakes is None else frozenset(str(r) for r in rakes),
            kinds=None if kinds is None else frozenset(str(k) for k in kinds),
        )

    def to_wire(self) -> dict:
        """The options as plain JSON-safe data; ``from_wire`` inverts it."""
        return {
            "encoding": self.encoding,
            "deltas": self.deltas,
            "decimate": self.decimate,
            "push": self.push,
            "rakes": None if self.rakes is None else sorted(self.rakes),
            "kinds": None if self.kinds is None else sorted(self.kinds),
        }

    def wants(self, rid: str, kind: str) -> bool:
        """Whether the interest filters admit rake ``rid`` of ``kind``."""
        return (self.rakes is None or rid in self.rakes) and (
            self.kinds is None or kind in self.kinds
        )


#: What a client that never called ``wt.subscribe`` holds: full-precision
#: keyframes of every rake, on request.  One shared record, never mutated,
#: and the only one whose replies carry no ``"v2"`` envelope — they stay
#: byte-identical to the pre-subscription protocol.
DEFAULT_SUBSCRIPTION = Subscription(
    encoding="v1", decimate=1, deltas=False, push=False, rakes=None, kinds=None,
)


@dataclass
class _FrameCall:
    """One ``wt.frame`` call (dlib-loop owned); the last four fields
    are set when it parks on the producer."""

    client_id: int
    ack: int
    trace: Trace | None
    deferred: Deferred | None = None
    seq0: int = 0  # newest publication when the call arrived
    deadline: float = 0.0  # ``time.monotonic()`` past which the wait fails
    wait_start: float = 0.0  # trace-relative moment the wait began


class WindtunnelServer:
    """The windtunnel's remote half.

    Parameters
    ----------
    dataset
        The unsteady flow to serve.
    loader
        Optional :class:`~repro.diskio.loader.TimestepLoader` for
        disk-resident datasets with prefetch (figure 8).
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
        self._frame_wait = float(frame_wait)
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
        self._frames_served = self.registry.counter("wt.frames_served")
        self._frame_cache_hits = self.registry.counter("wt.frame_cache_hits")
        # Negotiated delivery terms (docs/network.md), by client; everyone
        # else holds DEFAULT_SUBSCRIPTION.  Owned by the dlib service
        # thread — its serial dispatch is the synchronization.
        self._subs: dict[int, Subscription] = {}
        self._net_bytes_hist = self.registry.histogram("net.bytes_per_frame")
        self._net_delta_ratio = self.registry.gauge("net.delta_ratio")
        self._net_keyframes = self.registry.counter("net.keyframes")
        self._net_delta_frames = self.registry.counter("net.delta_frames")
        # Push-mode fan-out (docs/network.md, "Push-mode delivery").
        self._net_push_frames = self.registry.counter("net.push_frames")
        self._net_push_latency = self.registry.histogram(
            "net.push_latency_seconds"
        )
        self._net_publications = self.registry.counter("net.publications_fanned_out")
        self._iso_cache_key: tuple | None = None
        self._iso_cache: dict | None = None
        self.sessions = SessionTable(
            lease_seconds, retain_seconds=lease_retain_seconds, time_fn=time_fn
        )
        self.reaped_rake_locks = 0
        self.allow_chaos = bool(allow_chaos)
        self._frame_budget = 0.125  # section 1.2's 1/8 s interaction budget
        self.dlib = DlibServer(host, port, registry=self.registry)
        self.dlib.add_tick(self._reap_tick, interval=reap_interval)
        # Parked ``wt.frame`` continuations, owned by the dlib loop: the
        # publication callback resolves them, the sweep tick expires them.
        self._frame_waiters: list[_FrameCall] = []
        self.dlib.add_tick(lambda ctx: self._sweep_waiters(), interval=0.05)
        self.store.subscribe(self._publication)
        self._register_procedures()

    @property
    def frames_served(self) -> int:
        """``wt.frame`` responses sent (cache hits included)."""
        return self._frames_served.value

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
        if self.engine.loader is not None:
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
        reg("wt.isosurface", self._rpc_isosurface)
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
        info = self._join_info(user.client_id)
        info["token"] = lease.token
        return info

    def _rpc_rejoin(self, ctx, client_id: int, token: str) -> dict:
        """Resume a disconnected (possibly reaped) session by token.

        The client keeps its old ``client_id``; if the reaper vacated the
        seat, the user is restored — the rakes themselves never left the
        shared environment, so they are intact.
        """
        client_id = int(client_id)
        lease = self.sessions.resume(client_id, token)
        restored = client_id not in self.env.users
        if restored:
            self.env.restore_user(client_id, lease.name)
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
        info = self._join_info(cid)
        info["token"] = lease.token
        return info

    def _rpc_restore(self, ctx, state: dict) -> dict:
        """Rebuild a journaled environment on a freshly spawned worker.

        Crash recovery (docs/operations.md): the gateway's supervisor
        replays the session journal — seats, resume tokens, rake layout
        under the *original* rake ids, shared clock state, tool settings,
        and v2 subscriptions — so clients resuming through ``wt.rejoin``
        find the environment they left.  Grab locks are deliberately not
        restored: a grab in flight at the crash is released, exactly as
        if the holder had let go, and the user re-grabs.

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
            options = entry.get("subscription")
            if options:
                self._negotiate(cid, dict(options))
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
        self._drop_subscriber(cid)
        if cid in self.env.users:
            self.env.remove_user(cid)

    def _negotiate(self, cid: int, options: dict) -> Subscription:
        """Install ``options`` as ``cid``'s subscription (``wt.subscribe``
        and ``wt.restore`` replay).  Last-write-wins: the prior record
        and its resources go — once the new options have validated."""
        sub = Subscription.from_wire(options)
        self._drop_subscriber(cid)
        self._subs[cid] = sub
        return sub

    def _drop_subscriber(self, cid: int) -> None:
        """Return ``cid`` to the default subscription, freeing the rest.

        The negotiated record and its push binding die with the client
        — on clean leave and on lease expiry alike — so a churn of
        short-lived clients costs nothing once they are gone.
        """
        sub = self._subs.pop(cid, None)
        if sub is not None:
            self._unbind_push(sub)

    def _unbind_push(self, sub: Subscription) -> None:
        """Stop pushing to ``sub``; gives back the demand its binding held."""
        if sub.conn is not None:
            sub.conn = None
            self.pipeline.remove_demand()

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
            self._drop_subscriber(cid)
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
        """Serve the shared visualization from the frame store.

        ``ack`` is what a negotiated client adds (defaulted, so an
        un-negotiated one keeps calling with one argument): the last
        publication seq this client integrated.

        Calling this doubles as the session heartbeat (wt.heartbeat
        piggybacks on the frame cycle every client runs anyway).  The
        heavy lifting happened on the pipeline's threads; here we splice
        the frame's pre-encoded path fragment next to a fresh per-client
        environment snapshot — the only part of the response that is
        actually per-request.

        A request the store cannot satisfy yet does not block: the call
        parks as a dlib continuation (holding pipeline *demand*, which
        authorizes production) and the publication callback
        resolves it when a frame at least as new as everything published
        at arrival time lands; a mid-wait environment change simply
        extends the wait until the producer catches up.  The sweep tick
        expires calls whose ``frame_wait`` deadline lapsed.

        A traced call gets production spans grafted under ``frame_wait``:
        the stages ran on the pipeline threads, so their measured
        durations are re-plotted back-to-back inside the wait — a slow
        frame names the stage that made it slow.
        """
        call = _FrameCall(int(client_id), int(ack), current_trace())
        self.sessions.touch(call.client_id)
        latest = self.store.latest()
        if latest is not None and latest.key == (
            self.env.version,
            self.env.clock.timestep_index(self._time_fn()),
        ):
            self.pipeline.note_cache_hit()
            return self._pull_reply(call, latest, True)
        call.deferred = self.dlib.defer()
        call.seq0 = latest.seq if latest is not None else 0
        call.deadline = time.monotonic() + self._frame_wait
        if call.trace is not None:
            call.wait_start = call.trace.now()
        self.pipeline.add_demand()
        self._frame_waiters.append(call)
        return call.deferred

    def _pull_reply(
        self, call: _FrameCall, frame: PublishedFrame, cached: bool
    ) -> dict:
        """Answer one ``wt.frame`` call with ``frame``.

        Runs on the dlib service thread — synchronously for cache hits,
        from the publication callback for resolved continuations (the
        production stages are grafted inside the traced wait).
        """
        trace = call.trace
        if trace is not None and not cached:
            wait_span = trace.mark(
                "frame_wait", trace.now() - call.wait_start, start=call.wait_start
            )
            offset = call.wait_start
            for stage in STAGES:
                seconds = float(frame.stage_seconds.get(stage, 0.0))
                wait_span.add_child(stage, offset, seconds)
                offset += seconds
        with trace.span("snapshot") if trace else nullcontext():
            env = self.env.snapshot(self._time_fn())
        self._frames_served.inc()
        if cached:
            self._frame_cache_hits.inc()
        sub = self._subs.get(call.client_id, DEFAULT_SUBSCRIPTION)
        return self._compose_reply(frame, cached, env, sub, call.ack)

    # -- publication fan-in/fan-out (dlib loop) -----------------------------

    def _publication(self, frame: PublishedFrame) -> None:
        """FrameStore listener: runs on the pipeline's encoder thread.

        Marshals onto the dlib event loop — all waiter and subscription
        state is loop-owned, so no further locking is needed there.
        """
        self.dlib.call_soon(lambda: self._on_publish(frame))

    def _on_publish(self, frame: PublishedFrame) -> None:
        """A frame was published: wake parked calls, fan out pushes."""
        self._sweep_waiters(frame)
        self._fan_out(frame)

    def _sweep_waiters(self, frame: PublishedFrame | None = None) -> None:
        """Settle parked ``wt.frame`` calls (dlib loop).

        Runs per publication — resolving every call ``frame`` satisfies —
        and, with no frame, on the expiry tick.  A call leaves the list,
        and gives back its pipeline demand, in exactly one place.
        """
        if not self._frame_waiters:
            return
        version = self.env.version
        timestep = self.env.clock.timestep_index(self._time_fn())
        now = time.monotonic()
        alive = self.pipeline.alive
        keep = []
        for call in self._frame_waiters:
            deferred = call.deferred
            if deferred.done:
                pass  # connection died while parked
            elif frame is not None and (
                frame.key == (version, timestep)
                # Or production moved past the request: newer than
                # anything published when it arrived, at most one
                # production period behind the clock.
                or (frame.seq > call.seq0 and frame.version >= version)
            ):
                try:
                    reply = self._pull_reply(call, frame, False)
                except Exception as exc:  # noqa: BLE001 - cross the wire
                    deferred.fail(exc)
                else:
                    deferred.resolve(reply)
            elif not alive:
                deferred.fail(RuntimeError("windtunnel server is shutting down"))
            elif now > call.deadline:
                deferred.fail(RuntimeError("timed out waiting for a frame"))
            else:
                keep.append(call)
                continue
            self.pipeline.remove_demand()
        self._frame_waiters = keep

    def _fan_out(self, frame: PublishedFrame) -> None:
        """Push ``frame`` to every push-mode subscriber (dlib loop).

        The environment snapshot is taken and encoded exactly once per
        publication and spliced into every client's push; the per-rake
        path variants are deduplicated by the frame's
        :class:`~repro.core.framestore.RakeEntry` objects, so the encode
        count per publication is at most the number of *distinct
        variants*, not the number of clients.  A subscriber whose send
        queue is above the high-water mark is shed *before* its payload
        is built.
        """
        pushers = [sub for sub in self._subs.values() if sub.conn is not None]
        if not pushers:
            return
        self._net_publications.inc()
        t0 = time.perf_counter()
        env_wire = None
        for sub in pushers:
            if not self.dlib.is_connected(sub.conn):
                self._unbind_push(sub)
                continue
            if self.dlib.push_backlogged(sub.conn):
                continue  # shed: the delta base must not advance either
            if env_wire is None:
                env_wire = PreEncoded.wrap(self.env.snapshot(self._time_fn()))
            reply = self._compose_reply(frame, False, env_wire, sub, sub.push_seq)
            if self.dlib.push(sub.conn, reply, shed=False):
                # TCP ordering: a queued frame either arrives or the
                # connection dies, so the delta base may advance without
                # waiting for an ack.
                sub.push_seq = frame.seq
                self._net_push_frames.inc()
        self._net_push_latency.observe(time.perf_counter() - t0)

    def _compose_reply(
        self,
        frame: PublishedFrame,
        cached: bool,
        env: dict,
        sub: Subscription,
        ack: int,
    ) -> dict:
        """Build the frame reply ``sub`` is owed for ``frame`` — the one
        composer behind cache hits, resolved continuations and PUSH.

        See docs/network.md.  ``ack`` is the last publication seq the
        reader integrated; a delta ships only the interesting rakes whose
        digests changed since then.  An ack outside the store's digest
        history — the client fell behind, or a response was lost — falls
        back to a keyframe, which is the resync.  The ``"v2"`` envelope
        is attached iff the subscription was negotiated: wire
        compatibility (an un-negotiated client predates the key), not a
        second path.
        """
        rids = [
            rid
            for rid, entry in frame.entries.items()
            if sub.wants(rid, entry.kind)
        ]
        mode, base, removed = "keyframe", 0, []
        send = rids
        if sub.deltas and ack > 0:
            base_digests = self.store.digests_at(ack)
            if base_digests is not None:
                mode, base = "delta", ack
                send = [
                    rid
                    for rid in rids
                    if base_digests.get(rid) != frame.entries[rid].digest
                ]
                removed = [
                    rid for rid in base_digests if rid not in frame.entries
                ]
        fragment = frame.compose(
            send, encoding=sub.encoding, decimate=sub.decimate
        )
        (self._net_delta_frames if mode == "delta" else self._net_keyframes).inc()
        total = self._net_delta_frames.value + self._net_keyframes.value
        self._net_delta_ratio.set(self._net_delta_frames.value / total)
        self._net_bytes_hist.observe(float(fragment.nbytes))
        reply = {
            "timestep": frame.timestep,
            "steer_epoch": frame.steer_epoch,
            "paths": fragment,
            "compute_seconds": frame.compute_seconds,
            "env": env,
            "cached": cached,
        }
        if sub is not DEFAULT_SUBSCRIPTION:
            reply["v2"] = {
                "seq": frame.seq,
                "mode": mode,
                "base": base,
                "encoding": sub.encoding,
                "decimate": sub.decimate,
                "removed": removed,
            }
        return reply

    def _rpc_subscribe(self, ctx, client_id: int, options: dict | None = None) -> dict:
        """Negotiate v2 frame delivery for one client (docs/network.md).

        Idempotent, last-write-wins.  ``options``:

        * ``enabled`` (default true) — false tears the subscription down,
          returning the client to the default subscription;
        * ``encoding`` — ``"v1"`` (float32), ``"f16"``, or ``"q16"``;
        * ``deltas`` (default true) — per-rake delta frames against the
          client's acked seq;
        * ``decimate`` (default 1) — keep every n-th path point;
        * ``rakes`` / ``kinds`` — interest filters (lists; absent = all);
        * ``push`` (default false) — push-mode delivery: the server sends
          every publication as a PUSH message on *this* connection
          (docs/network.md, "Push-mode delivery").  Pull-mode
          ``wt.frame`` keeps working alongside.
        """
        cid = int(client_id)
        self.sessions.touch(cid)
        options = dict(options or {})
        if not options.get("enabled", True):
            self._drop_subscriber(cid)
            return {"enabled": False, "seq": self.store.seq}
        sub = self._negotiate(cid, options)
        conn = self.dlib.current_connection() if sub.push else None
        if conn is not None:
            # Push subscribers never poll, so the binding itself holds
            # the demand that keeps the producer following the clock
            # (given back in ``_unbind_push``).
            sub.conn = conn
            self.pipeline.add_demand()
        return {
            "enabled": True,
            "seq": self.store.seq,
            **sub.to_wire(),
            "push": sub.conn is not None,  # armed, not merely asked for
        }

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

    def _rpc_isosurface(self, ctx, client_id: int, level_fraction: float = 0.75) -> dict:
        """Extract a |v| isosurface at the current timestep.

        ``level_fraction`` picks the contour level as a percentile of the
        node speeds.  The paper ruled this tool out for 1992 hardware
        (section 1.2); modern vectorized extraction fits the budget (see
        the ablation benchmark), so the reproduction offers it as the
        natural extension.  Cached per (version, timestep, level) like the
        tracer frame.
        """
        from repro.tracers.isosurface import extract_isosurface, velocity_magnitude

        self.sessions.touch(int(client_id))
        if not (0.0 < float(level_fraction) < 1.0):
            raise ValueError("level_fraction must be in (0, 1)")
        wall = self._time_fn()
        timestep = self.env.clock.timestep_index(wall)
        key = (self.env.version, timestep, round(float(level_fraction), 6))
        if key != self._iso_cache_key or self._iso_cache is None:
            mag = velocity_magnitude(self.dataset, timestep)
            level = float(np.percentile(mag, 100.0 * float(level_fraction)))
            start = time.perf_counter()
            res = extract_isosurface(mag, level, self.dataset.grid.xyz)
            elapsed = time.perf_counter() - start
            self._iso_cache = {
                "timestep": timestep,
                "level": level,
                "triangles": res.vertices.astype(np.float32),
                "n_triangles": res.n_triangles,
                "compute_seconds": elapsed,
            }
            self._iso_cache_key = key
        return dict(self._iso_cache)

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
            "v2_subscriptions": len(self._subs),
            "push_subscriptions": sum(
                1 for sub in self._subs.values() if sub.conn is not None
            ),
            "push_frames": self._net_push_frames.value,
            "frame_waiters": len(self._frame_waiters),
        }
