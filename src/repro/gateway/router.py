"""The session gateway: a stable ``wt.*`` front-end over the worker pool.

Clients speak the ordinary windtunnel protocol to one address; the
gateway seats each new session on a worker (admission control), relays
every session-scoped call to that worker, and journals the durable
slice of what it sees pass through.  When a worker dies mid-call the
caller gets a ``SessionExpiredError`` — deliberately the *same* error a
reaped lease produces — so the client's existing resume machinery
(``wt.rejoin`` with its token, driven by
:meth:`~repro.core.client.WindtunnelClient._call`) handles worker
failure with zero new client code.

The relay never blocks the gateway's dlib service loop.  Each worker
incarnation has one non-blocking backend connection on the loop's own
selector (:meth:`~repro.dlib.server.DlibServer.dial`); a relayed call
goes out on it the moment it is dispatched, so calls reach a worker in
gateway arrival order and the paper's first-come-first-served rule
holds exactly as at a bare server.  The client's reply is parked as a
:class:`~repro.dlib.server.Deferred`.  When the worker answers, the
procedure's journal hook (:attr:`SessionGateway._hooks`) runs on the
loop and the reply is resolved; a procedure with no hook — ``wt.frame``
among them — answers with the worker's encoded bytes, never decoded.
One session's call parked on a slow worker holds up nobody else.

``wt.rejoin`` parks the same way until the supervisor has restored the
session's worker, then relays; an unrecovered pool answers with a typed
``RETRY_AFTER`` at ``recovery_wait`` instead of hanging.  A loop tick
enforces ``route_timeout`` on every call but ``wt.frame``, which the
worker bounds itself: a pulled one by its ``frame_wait``, a push
session's paced one by the life of its seat.  So a push session gets
its paced frames through the relay like any other reply.
"""

from __future__ import annotations

import itertools
import math
import os
import secrets
import time

from repro.core.delivery import Subscription
from repro.diskio.shmcache import SharedTimestepCache
from repro.dlib.protocol import (
    DlibProtocolError,
    DlibTimeoutError,
    MessageKind,
    PreEncoded,
    RetryAfterError,
    decode_value,
    encode_message,
    split_message,
)
from repro.dlib.server import Deferred, DlibServer
from repro.gateway.admission import AdmissionController, ShedLevel
from repro.gateway.journal import SessionJournal
from repro.gateway.supervisor import WorkerSupervisor
from repro.gateway.worker import (
    default_worker_spec,
    spec_dataset_key,
    spec_slot_shape,
)
from repro.obs.registry import MetricsRegistry

#: Disambiguates segment names when one process hosts several gateways.
_SEGMENT_SEQ = itertools.count(1)
#: Decoded timesteps the gateway's shared segment holds.
_SEGMENT_SLOTS = 8
#: Seconds between the relay's deadline checks (``route_timeout``,
#: ``recovery_wait``).
_TICK_SECONDS = 0.05

__all__ = ["ForwardedError", "SessionGateway"]


class ForwardedError(Exception):
    """Re-raise a worker-side error under its *original* wire type.

    The dlib server encodes an error's type from ``wire_type`` when
    present (see ``DlibServer._dispatch``), so a worker's
    ``SessionExpiredError`` crosses the gateway intact and the client's
    rejoin logic fires exactly as it would against a bare worker.
    """

    def __init__(self, wire_type: str, message: str, data: dict | None = None):
        super().__init__(message)
        self.wire_type = wire_type
        self.wire_data = data if isinstance(data, dict) and data else None


#: Session-scoped ``wt.*`` procedures relayed as they come: the first
#: argument is the client id, which names the worker.
_RELAYED = (
    "wt.heartbeat",
    "wt.snapshot",
    "wt.pipeline_stats",
    "wt.steer_release",
    "wt.update",
    "wt.add_rake",
    "wt.remove_rake",
    "wt.time",
    "wt.steer",
    "wt.set_tool_settings",
    "wt.subscribe",
)


class _Call:
    """One relayed call: its client's parked reply and what to do with it.

    ``session`` picks the error a transport loss answers with
    (``SessionExpiredError`` for a seated client, ``RETRY_AFTER`` before
    it has a seat); a ``quiet`` call answers any failure as if the
    worker had replied ``None``.
    """

    __slots__ = ("deferred", "procedure", "args", "session", "quiet",
                 "deadline", "trace", "sent")

    def __init__(self, deferred: Deferred, procedure: str, args: tuple,
                 session: bool, quiet: bool) -> None:
        self.deferred = deferred
        self.procedure = procedure
        self.args = args
        self.session = session
        self.quiet = quiet
        self.deadline = 0.0
        self.trace = deferred.trace
        self.sent = 0.0 if self.trace is None else self.trace.now()


class _Link:
    """The loop's backend connection to one worker incarnation.

    ``pending`` maps request id to :class:`_Call` in send order, which
    is also deadline order among the calls that have one.
    """

    __slots__ = ("worker", "generation", "backend", "pending", "request_ids")

    def __init__(self, worker: str, generation: int) -> None:
        self.worker = worker
        self.generation = generation
        self.backend = None
        self.pending: dict[int, _Call] = {}
        self.request_ids = itertools.count(1)


class SessionGateway:
    """Front-end + supervised pool, presented as one windtunnel server.

    Parameters
    ----------
    spec
        Worker spec: any subset of :data:`~repro.gateway.worker.DEFAULT_SPEC`
        (an unknown key raises ``ValueError``).
    n_workers
        Pool size.
    max_sessions_per_worker, max_sessions_total
        Admission budgets.
    reject_saturation, throttle_saturation, min_frame_interval
        The load-shedding ladder (see :mod:`repro.gateway.admission`).
    heartbeat_interval, liveness_deadline, probe_failures_to_kill
        Supervisor health cadence (see :mod:`repro.gateway.supervisor`).
    recovery_wait
        Longest a ``wt.rejoin`` stays parked for its worker to be
        restored before answering ``RETRY_AFTER``.
    route_timeout
        Per-relayed-call deadline against a worker; ``wt.frame`` has
        none (the worker bounds it).
    journal_path
        Optional journal checkpoint file (survives gateway restarts).
    """

    def __init__(
        self,
        spec: dict | None = None,
        n_workers: int = 2,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions_per_worker: int = 8,
        max_sessions_total: int | None = None,
        reject_saturation: float = 0.85,
        throttle_saturation: float = 0.95,
        min_frame_interval: float = 0.1,
        retry_after: float = 1.0,
        heartbeat_interval: float = 0.5,
        liveness_deadline: float = 2.0,
        probe_failures_to_kill: int = 2,
        recovery_wait: float = 10.0,
        route_timeout: float = 10.0,
        ready_timeout: float = 30.0,
        journal_path: str | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.journal = SessionJournal(journal_path)
        self.recovery_wait = float(recovery_wait)
        self.route_timeout = float(route_timeout)
        self.retry_after = float(retry_after)
        self.admission = AdmissionController(
            max_sessions_per_worker=max_sessions_per_worker,
            max_sessions_total=max_sessions_total,
            reject_saturation=reject_saturation,
            throttle_saturation=throttle_saturation,
            min_frame_interval=min_frame_interval,
            retry_after=retry_after,
            registry=self.registry,
        )
        # The gateway owns the tier-2 shared segment (docs/caching.md):
        # workers only ever *attach*, so a SIGKILLed worker can neither
        # leak nor take down the segment — crash recovery respawns into
        # the same warm cache.  Created in start(), unlinked in stop().
        self.timestep_cache = None
        self.supervisor = WorkerSupervisor(
            default_worker_spec(**(spec or {})),
            n_workers,
            self.journal,
            heartbeat_interval=heartbeat_interval,
            liveness_deadline=liveness_deadline,
            probe_failures_to_kill=probe_failures_to_kill,
            ready_timeout=ready_timeout,
            on_health=self._on_health,
            registry=self.registry,
        )
        self.dlib = DlibServer(host, port, registry=self.registry)
        self._next_cid = itertools.count(1)
        self._links: dict[str, _Link] = {}
        # Parked wt.rejoin calls: (deadline, worker, args, deferred).
        self._rejoining: list[tuple[float, str, tuple, Deferred]] = []
        self._admitted = self.registry.counter("gateway.sessions_admitted")
        self._active = self.registry.gauge("gateway.sessions_active")
        self._rejoins = self.registry.counter("gateway.rejoins")
        self._forward_failures = self.registry.counter("gateway.forward_failures")
        #: Post-reply hooks: procedure -> ``hook(worker, args, result)``,
        #: run on the loop before the client's reply is resolved; returns
        #: the value the client gets.  A procedure without one answers
        #: the worker's encoded bytes as they came.
        self._hooks = {
            "wt.adopt": self._journal_join,
            "wt.rejoin": self._note_rejoin,
            "wt.leave": self._journal_leave,
            "wt.subscribe": self._journal_subscribe,
            "wt.update": self._journal_release,
            "wt.add_rake": self._journal_add_rake,
            "wt.remove_rake": self._journal_remove_rake,
            "wt.time": self._journal_clock,
            "wt.steer": self._journal_steering,
            "wt.set_tool_settings": self._journal_tool_settings,
        }
        self._register_procedures()
        self.dlib.add_tick(self._tick, _TICK_SECONDS)

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return self.dlib.address

    def start(self) -> "SessionGateway":
        """Create the tier-2 segment, spawn the pool, then listen.

        A start that fails part way stops whatever it had started — no
        worker outlives it and no segment stays linked — and re-raises.
        """
        try:
            self._create_timestep_cache()
            self.supervisor.start()
            self.dlib.start()
        except BaseException:
            self.stop()
            raise
        return self

    def _create_timestep_cache(self) -> None:
        """Carve the shared segment every worker attaches (the spec the
        supervisor spawns and respawns from carries its name)."""
        spec = self.supervisor.spec
        key = spec_dataset_key(spec)
        try:
            self.timestep_cache = SharedTimestepCache(
                f"wt-tsc-{key}-g{os.getpid()}-{next(_SEGMENT_SEQ)}",
                spec_slot_shape(spec),
                slots=_SEGMENT_SLOTS,
                dataset_id=key,
                create="always",
            )
        except (OSError, ValueError):
            # A platform without working shared memory: each worker
            # runs on a private tier 1.
            return
        spec["timestep_cache"] = self.timestep_cache.name

    def stop(self) -> None:
        # The loop's shutdown answers every parked call and closes every
        # backend link.
        self.dlib.stop()
        self._links.clear()
        self._rejoining.clear()
        self.supervisor.stop()
        if self.timestep_cache is not None:
            self.timestep_cache.close()  # owner: unlinks the segment
            self.timestep_cache = None

    def __enter__(self) -> "SessionGateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- the relay ----------------------------------------------------------

    def _on_health(self, healths: dict[str, dict]) -> None:
        """Supervisor thread, after each sweep: feed admission, and let
        the loop relay any ``wt.rejoin`` whose worker is back."""
        self.admission.update(
            {n: float(h.get("saturation", 0.0)) for n, h in healths.items()}
        )
        self.dlib.call_soon(self._wake_rejoins)

    def _link(self, worker: str) -> _Link:
        """The backend link to ``worker``'s *current* incarnation.

        Keyed by the supervisor's generation counter: a respawn bumps
        the generation, so the next call dials the new process and the
        old link is torn down (its pending calls fail as a loss).
        Raises ``ConnectionError`` when there is nothing to dial.
        """
        generation = self.supervisor.generation_of(worker)
        link = self._links.get(worker)
        if link is not None:
            if link.generation == generation:
                return link
            link.backend.abort(ConnectionError(f"worker {worker} was respawned"))
        address = self.supervisor.address_of(worker)
        if address is None:
            raise ConnectionError(f"worker {worker} has no live incarnation")
        link = _Link(worker, generation)
        link.backend = self.dlib.dial(
            address,
            lambda frame: self._on_reply(link, frame),
            lambda exc: self._on_lost(link, exc),
        )
        self._links[worker] = link
        return link

    def _relay(
        self,
        worker: str,
        procedure: str,
        args: tuple,
        *,
        session: bool = True,
        quiet: bool = False,
        deferred: Deferred | None = None,
    ) -> Deferred:
        """Send one call to ``worker``; its reply comes back parked.

        Service thread only.  Without ``deferred`` this must run inside
        a handler, which returns the result.  Never blocks and never
        raises: a failure reaches the client through the deferred.
        """
        if deferred is None:
            deferred = self.dlib.defer()
        call = _Call(deferred, procedure, args, session, quiet)
        try:
            link = self._link(worker)
        except (ConnectionError, OSError):
            if self._lose(worker, call):
                self.supervisor.mark_suspect(worker)
            return deferred
        request_id = next(link.request_ids) & 0xFFFFFFFF
        call.deadline = (
            math.inf if procedure == "wt.frame"
            else time.monotonic() + self.route_timeout
        )
        link.pending[request_id] = call
        link.backend.send(encode_message(
            MessageKind.CALL, request_id,
            {"proc": procedure, "args": list(args), "kwargs": {}},
        ))
        return deferred

    def _on_reply(self, link: _Link, frame: bytes) -> None:
        """One worker message arrived on ``link`` (service thread).

        Malformed data raises with the call still pending, so the link's
        teardown answers it like every other call on the link.
        """
        kind, request_id, _trace_id, body = split_message(frame)
        if kind is not MessageKind.RESULT and kind is not MessageKind.ERROR:
            raise DlibProtocolError(f"worker {link.worker} sent a {kind.name}")
        call = link.pending.get(request_id)
        if call is None:
            return  # a reply to a call the link no longer holds
        if kind is MessageKind.RESULT and call.procedure not in self._hooks:
            result = PreEncoded(body)
        else:
            result = decode_value(body)
        del link.pending[request_id]
        if kind is MessageKind.RESULT:
            self._answer(link.worker, call, result)
            return
        error = result if isinstance(result, dict) else {}
        self._refuse(link.worker, call, ForwardedError(
            str(error.get("type", "Exception")),
            str(error.get("message", "")),
            error.get("data"),
        ))

    def _answer(self, worker: str, call: _Call, result) -> None:
        """Run ``call``'s hook on ``result`` and resolve its client's reply."""
        hook = self._hooks.get(call.procedure)
        if hook is not None:
            try:
                result = hook(worker, call.args, result)
            except Exception as exc:  # noqa: BLE001 - faults must cross the wire
                call.deferred.fail(exc)
                return
        trace = call.trace
        if trace is not None:
            trace.mark("forward", trace.now() - call.sent, start=call.sent)
        call.deferred.resolve(result)

    def _refuse(self, worker: str, call: _Call, exc: BaseException) -> None:
        if call.quiet:
            self._answer(worker, call, None)
        else:
            call.deferred.fail(exc)

    def _lose(self, worker: str, call: _Call) -> bool:
        """Answer one call its worker will never answer; returns whether
        a client was still waiting for it.

        A seated client gets ``SessionExpiredError`` — the signal that
        routes it into its rejoin path while the supervisor restores the
        worker; a pre-session call gets a plain ``RETRY_AFTER``.
        """
        if call.deferred.done:
            return False  # the client left, or the loop is shutting down
        self._forward_failures.inc()
        if call.session:
            exc = ForwardedError(
                "SessionExpiredError",
                f"worker {worker} lost mid-call; rejoin to resume",
            )
        else:
            exc = RetryAfterError(
                f"worker {worker} unavailable; retry",
                retry_after=self.retry_after,
                reason="worker_down",
            )
        self._refuse(worker, call, exc)
        return True

    def _on_lost(self, link: _Link, exc: BaseException) -> None:
        """``link``'s transport is gone: fail every call still on it."""
        if self._links.get(link.worker) is link:
            del self._links[link.worker]
        calls = list(link.pending.values())
        link.pending.clear()
        lost = [self._lose(link.worker, call) for call in calls]
        if any(lost) and link.generation == self.supervisor.generation_of(link.worker):
            # Routing noticed before the sweep did; a link to an older
            # incarnation says nothing about the current one.
            self.supervisor.mark_suspect(link.worker)

    def _wake_rejoins(self) -> None:
        """Relay each parked ``wt.rejoin`` whose worker is ready again;
        answer ``RETRY_AFTER`` to those past ``recovery_wait``."""
        if not self._rejoining:
            return
        now = time.monotonic()
        waiting = []
        for entry in self._rejoining:
            deadline, worker, args, deferred = entry
            if deferred.done:
                continue
            if self.supervisor.is_ready(worker):
                self._relay(worker, "wt.rejoin", args, deferred=deferred)
            elif now >= deadline:
                deferred.fail(RetryAfterError(
                    f"worker {worker} is still recovering; retry",
                    retry_after=self.retry_after,
                    reason="recovering",
                ))
            else:
                waiting.append(entry)
        self._rejoining = waiting

    def _tick(self, ctx) -> None:
        self._wake_rejoins()
        now = time.monotonic()
        for link in list(self._links.values()):
            oldest = next(
                (c for c in link.pending.values() if c.deadline < math.inf), None
            )
            if oldest is not None and now >= oldest.deadline:
                # A worker that sits on a call past route_timeout is
                # treated as lost, exactly like a reset connection.
                link.backend.abort(DlibTimeoutError(
                    f"worker {link.worker} did not answer "
                    f"{oldest.procedure} within {self.route_timeout} s"
                ))

    def _worker_for(self, client_id: int) -> str:
        worker = self.journal.worker_of(int(client_id))
        if worker is None:
            raise KeyError(f"no session for client {client_id}")
        return worker

    # -- post-reply hooks -----------------------------------------------------

    def _journal_join(self, worker: str, args: tuple, info: dict) -> dict:
        cid, name, token = args
        self.journal.record_join(worker, cid, name, token)
        self._admitted.inc()
        self._active.set(self.journal.total_sessions)
        info["worker"] = worker
        return info

    def _note_rejoin(self, worker: str, args: tuple, info: dict) -> dict:
        self._rejoins.inc()
        info["worker"] = worker
        return info

    def _journal_leave(self, worker: str | None, args: tuple, _result) -> None:
        """Whatever the worker said — it may be down, or may already have
        forgotten the seat — the journal drop is what ends the session."""
        self.journal.record_leave(args[0])
        self.admission.note_leave(args[0])
        self._active.set(self.journal.total_sessions)

    def _journal_subscribe(self, worker: str, args: tuple, result: dict) -> dict:
        self.journal.record_subscribe(args[0], Subscription.from_wire(result).to_wire())
        return result

    def _journal_release(self, worker: str, args: tuple, result: dict) -> dict:
        """The update that releases a grab replies ``released`` with the
        rake's final geometry, which overwrites the journaled one — so
        recovery restores a dragged rake where the hand left it, not
        where it was added."""
        released = result.get("released")
        if released:
            self.journal.record_add_rake(
                args[0], int(released["rake_id"]), dict(released["rake"])
            )
        return result

    def _journal_add_rake(self, worker: str, args: tuple, rake_id: int) -> int:
        self.journal.record_add_rake(args[0], int(rake_id), dict(args[1]))
        return rake_id

    def _journal_remove_rake(self, worker: str, args: tuple, result):
        self.journal.record_remove_rake(int(args[1]))
        return result

    def _journal_clock(self, worker: str, args: tuple, snapshot: dict) -> dict:
        self.journal.record_clock(worker, snapshot)
        return snapshot

    def _journal_steering(self, worker: str, args: tuple, result: dict) -> dict:
        """Only accepted steers land in the journal (a conflict or a bad
        parameter comes back as an error, which skips the hook), so
        replaying the log on a respawned worker reconstructs exactly the
        regime users steered the tunnel into (docs/steering.md)."""
        self.journal.record_steering(
            worker,
            {"epoch": result.get("epoch", 0), "changes": result.get("changes", {})},
        )
        return result

    def _journal_tool_settings(self, worker: str, args: tuple, effective: dict) -> dict:
        self.journal.record_tool_settings(worker, effective)
        return effective

    # -- procedures ---------------------------------------------------------

    def _register_procedures(self) -> None:
        reg = self.dlib.register
        reg("wt.join", self._rpc_join)
        reg("wt.rejoin", self._rpc_rejoin)
        reg("wt.leave", self._rpc_leave)
        reg("wt.frame", self._rpc_frame)
        reg("wt.stats", self._rpc_stats)
        reg("wt.metrics", self._rpc_metrics)
        for name in _RELAYED:
            reg(name, self._make_relay(name))

    def _make_relay(self, procedure: str):
        def relay(ctx, client_id, *args):
            cid = int(client_id)
            return self._relay(self._worker_for(cid), procedure, (cid, *args))

        return relay

    def _rpc_join(self, ctx, name: str = "") -> Deferred:
        """Seat a new session on the least-loaded ready worker.

        Placement counts the seats whose ``wt.adopt`` is still in
        flight, so joins that overlap are placed as if they had been
        served one after the other.
        """
        names = set(self.supervisor.worker_names)
        load = {w: n for w, n in self.journal.load().items() if w in names}
        for worker, link in self._links.items():
            adopting = sum(c.procedure == "wt.adopt" for c in link.pending.values())
            load[worker] = load.get(worker, 0) + adopting
        worker = self.admission.place(load, self.supervisor.ready_workers())
        cid = next(self._next_cid)
        token = secrets.token_hex(16)
        # Transport failure here is pre-session: the client holds no
        # token yet, so refuse with RETRY_AFTER rather than feigning an
        # expired session it could never resume.
        return self._relay(worker, "wt.adopt", (cid, name, token), session=False)

    def _rpc_rejoin(self, ctx, client_id: int, token: str) -> Deferred:
        cid = int(client_id)
        worker = self._worker_for(cid)
        entry = self.journal.session(cid)
        if entry is None or entry["token"] != token:
            # Same terminal verdict a worker gives a bad token.
            raise ForwardedError(
                "SessionExpiredError", f"no resumable session for client {cid}"
            )
        deferred = self.dlib.defer()
        if self.supervisor.is_ready(worker):
            return self._relay(worker, "wt.rejoin", (cid, token), deferred=deferred)
        self._rejoining.append(
            (time.monotonic() + self.recovery_wait, worker, (cid, token), deferred)
        )
        return deferred

    def _rpc_leave(self, ctx, client_id: int):
        cid = int(client_id)
        worker = self.journal.worker_of(cid)
        if worker is None:
            return self._journal_leave(None, (cid,), None)
        return self._relay(worker, "wt.leave", (cid,), quiet=True)

    def _rpc_frame(self, ctx, client_id: int = 0, ack: int = 0) -> Deferred:
        cid = int(client_id)
        worker = self._worker_for(cid)
        if self.admission.level >= ShedLevel.THROTTLE:
            # A push session's paced calls skip the frame throttle: its
            # credit and the worker's publications already bound them.
            entry = self.journal.session(cid) or {}
            if not (entry.get("subscription") or {}).get("push"):
                self.admission.admit_frame(cid)
        return self._relay(worker, "wt.frame", (cid, ack))

    def _rpc_stats(self, ctx, client_id: int = 0) -> dict:
        """Gateway-level view: pool health, placement, shedding state."""
        return {
            "gateway": True,
            "workers": self.supervisor.healths(),
            "ready_workers": self.supervisor.ready_workers(),
            "shed_level": int(self.admission.level),
            "load": self.journal.load(),
            "total_sessions": self.journal.total_sessions,
            "sessions_admitted": self._admitted.value,
            "sessions_recovered": self.registry.counter(
                "gateway.sessions_recovered"
            ).value,
            "workers_respawned": self.registry.counter(
                "gateway.workers_respawned"
            ).value,
            "rejoins": self._rejoins.value,
            "forward_failures": self._forward_failures.value,
        }

    def _rpc_metrics(self, ctx, client_id: int = 0, trace_limit: int = 8) -> dict:
        """The gateway's own registry (``gateway.*``, ``dlib.*``)."""
        return {
            "registry": self.registry.snapshot(),
            "traces": self.dlib.traces.to_wire(int(trace_limit)),
            "traces_total": self.dlib.traces.total,
        }
