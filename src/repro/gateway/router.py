"""The session gateway: a stable ``wt.*`` front-end over the worker pool.

Clients speak the ordinary windtunnel protocol to one address; the
gateway seats each new session on a worker (admission control), forwards
every session-scoped call to that worker, and journals the durable
slice of what it sees pass through.  When a worker dies mid-call the
caller gets a ``SessionExpiredError`` — deliberately the *same* error a
reaped lease produces — so the client's existing resume machinery
(``wt.rejoin`` with its token, driven by
:meth:`~repro.core.client.WindtunnelClient._call`) handles worker
failure with zero new client code.  ``wt.rejoin`` at the gateway blocks
(bounded by ``recovery_wait``) until the supervisor has restored the
session's worker, then forwards; an unrecovered pool answers with a
typed ``RETRY_AFTER`` instead of hanging.

The gateway's own dlib service loop is serial, like a worker's: routing
decisions and journal updates need no further locking.  The price is
that one slow forwarded call delays other clients — which is why worker
specs routed through a gateway keep ``frame_wait`` short and why the
admission ladder throttles frames before workers saturate.
"""

from __future__ import annotations

import itertools
import os
import secrets

from repro.core.delivery import Subscription
from repro.diskio.shmcache import SharedTimestepCache
from repro.dlib.client import RETRYABLE_ERRORS, DlibClient, DlibRemoteError
from repro.dlib.protocol import RetryAfterError
from repro.dlib.server import DlibServer
from repro.gateway.admission import AdmissionController
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


#: ``wt.*`` procedures forwarded verbatim (no journal side effects):
#: name -> needs an established session (worker loss => rejoin).
_PLAIN_FORWARDS = {
    "wt.heartbeat": True,
    "wt.snapshot": True,
    "wt.pipeline_stats": True,
    "wt.isosurface": True,
    "wt.steer_release": True,
}


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
        Longest a ``wt.rejoin`` blocks for its worker to be restored
        before answering ``RETRY_AFTER``.
    route_timeout
        Per-forwarded-call deadline against a worker; must exceed the
        worker spec's ``frame_wait``.
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
        start_method: str | None = None,
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
            start_method=start_method,
            on_health=self._on_health,
            registry=self.registry,
        )
        self.dlib = DlibServer(host, port, registry=self.registry)
        self._next_cid = itertools.count(1)
        self._backends: dict[str, tuple[int, DlibClient]] = {}
        self._admitted = self.registry.counter("gateway.sessions_admitted")
        self._active = self.registry.gauge("gateway.sessions_active")
        self._rejoins = self.registry.counter("gateway.rejoins")
        self._forward_failures = self.registry.counter("gateway.forward_failures")
        self._register_procedures()

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
        self.dlib.stop()
        for _, client in self._backends.values():
            try:
                client.close()
            except OSError:
                pass
        self._backends.clear()
        self.supervisor.stop()
        if self.timestep_cache is not None:
            self.timestep_cache.close()  # owner: unlinks the segment
            self.timestep_cache = None

    def __enter__(self) -> "SessionGateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- plumbing -----------------------------------------------------------

    def _on_health(self, healths: dict[str, dict]) -> None:
        self.admission.update(
            {n: float(h.get("saturation", 0.0)) for n, h in healths.items()}
        )

    def _backend(self, worker: str) -> DlibClient:
        """The routing client for ``worker``'s *current* incarnation.

        Keyed by the supervisor's generation counter: a respawn bumps the
        generation, so the next forward transparently dials the new
        process instead of a dead port.
        """
        generation = self.supervisor.generation_of(worker)
        cached = self._backends.get(worker)
        if cached is not None and cached[0] == generation:
            return cached[1]
        if cached is not None:
            try:
                cached[1].close()
            except OSError:
                pass
        address = self.supervisor.address_of(worker)
        if address is None:
            raise ConnectionError(f"worker {worker} has no live incarnation")
        client = DlibClient(
            address[0], address[1],
            timeout=self.route_timeout, call_timeout=self.route_timeout,
        )
        self._backends[worker] = (generation, client)
        return client

    def _forward(self, worker: str, procedure: str, *args, session: bool = True):
        """Route one call to a worker, translating failure faithfully.

        Worker-side exceptions re-raise under their original wire type
        (:class:`ForwardedError`).  Transport failure on a session call
        becomes ``SessionExpiredError`` — the signal that routes the
        client into its rejoin path while the supervisor restores the
        worker; on a non-session call it is a plain ``RETRY_AFTER``.
        """
        try:
            return self._backend(worker).call(procedure, *args)
        except DlibRemoteError as exc:
            message = str(exc)
            prefix = f"{exc.remote_type}: "
            if message.startswith(prefix):
                message = message[len(prefix):]
            raise ForwardedError(exc.remote_type, message, exc.data) from exc
        except RETRYABLE_ERRORS as exc:
            self._forward_failures.inc()
            self.supervisor.mark_suspect(worker)
            cached = self._backends.pop(worker, None)
            if cached is not None:
                try:
                    cached[1].close()
                except OSError:
                    pass
            if session:
                raise ForwardedError(
                    "SessionExpiredError",
                    f"worker {worker} lost mid-call; rejoin to resume",
                ) from exc
            raise RetryAfterError(
                f"worker {worker} unavailable; retry",
                retry_after=self.retry_after,
                reason="worker_down",
            ) from exc

    def _worker_for(self, client_id: int) -> str:
        worker = self.journal.worker_of(int(client_id))
        if worker is None:
            raise KeyError(f"no session for client {client_id}")
        return worker

    # -- procedures ---------------------------------------------------------

    def _register_procedures(self) -> None:
        reg = self.dlib.register
        reg("wt.join", self._rpc_join)
        reg("wt.rejoin", self._rpc_rejoin)
        reg("wt.leave", self._rpc_leave)
        reg("wt.frame", self._rpc_frame)
        reg("wt.subscribe", self._rpc_subscribe)
        reg("wt.update", self._rpc_update)
        reg("wt.add_rake", self._rpc_add_rake)
        reg("wt.remove_rake", self._rpc_remove_rake)
        reg("wt.time", self._rpc_time)
        reg("wt.steer", self._rpc_steer)
        reg("wt.set_tool_settings", self._rpc_set_tool_settings)
        reg("wt.stats", self._rpc_stats)
        reg("wt.metrics", self._rpc_metrics)
        for name in _PLAIN_FORWARDS:
            reg(name, self._make_plain_forward(name))

    def _make_plain_forward(self, procedure: str):
        session = _PLAIN_FORWARDS[procedure]

        def forward(ctx, client_id, *args):
            worker = self._worker_for(client_id)
            return self._forward(
                worker, procedure, int(client_id), *args, session=session
            )

        return forward

    def _rpc_join(self, ctx, name: str = "") -> dict:
        names = set(self.supervisor.worker_names)
        worker = self.admission.place(
            {w: n for w, n in self.journal.load().items() if w in names},
            self.supervisor.ready_workers(),
        )
        cid = next(self._next_cid)
        token = secrets.token_hex(16)
        # Transport failure here is pre-session: the client holds no
        # token yet, so refuse with RETRY_AFTER rather than feigning an
        # expired session it could never resume.
        info = self._forward(worker, "wt.adopt", cid, name, token, session=False)
        self.journal.record_join(worker, cid, name, token)
        self._admitted.inc()
        self._active.set(self.journal.total_sessions)
        info["worker"] = worker
        return info

    def _rpc_rejoin(self, ctx, client_id: int, token: str) -> dict:
        cid = int(client_id)
        worker = self._worker_for(cid)
        entry = self.journal.session(cid)
        if entry is None or entry["token"] != token:
            # Same terminal verdict a worker gives a bad token.
            raise ForwardedError(
                "SessionExpiredError", f"no resumable session for client {cid}"
            )
        if not self.supervisor.await_ready(worker, self.recovery_wait):
            raise RetryAfterError(
                f"worker {worker} is still recovering; retry",
                retry_after=self.retry_after,
                reason="recovering",
            )
        info = self._forward(worker, "wt.rejoin", cid, token)
        self._rejoins.inc()
        info["worker"] = worker
        return info

    def _rpc_leave(self, ctx, client_id: int) -> None:
        cid = int(client_id)
        worker = self.journal.worker_of(cid)
        if worker is not None:
            try:
                self._forward(worker, "wt.leave", cid)
            except ForwardedError:
                # The worker is down or already forgot the seat; the
                # journal drop below is what actually ends the session.
                pass
        self.journal.record_leave(cid)
        self.admission.note_leave(cid)
        self._active.set(self.journal.total_sessions)

    def _rpc_frame(self, ctx, client_id: int = 0, ack: int = 0) -> dict:
        cid = int(client_id)
        worker = self._worker_for(cid)
        self.admission.admit_frame(cid)
        return self._forward(worker, "wt.frame", cid, ack)

    def _rpc_subscribe(self, ctx, client_id: int, options: dict | None = None) -> dict:
        """Forward ``wt.subscribe`` (pull only) and journal the terms.

        ``push`` is forced off: the worker would bind push delivery to
        *this* gateway's routing connection, which relays no PUSH, and
        produce frames for nobody.  The reply says ``"push": False``, so
        the client pulls (docs/operations.md).
        """
        cid = int(client_id)
        worker = self._worker_for(cid)
        result = self._forward(
            worker, "wt.subscribe", cid, {**(options or {}), "push": False}
        )
        self.journal.record_subscribe(cid, Subscription.from_wire(result).to_wire())
        return result

    def _rpc_update(self, ctx, client_id: int, head, hand, gesture: str) -> dict:
        """Forward ``wt.update``; journal a rake where its drag let go.

        The update that releases a grab replies ``released`` with the
        rake's final geometry, which overwrites the journaled one — so
        recovery restores a dragged rake where the hand left it, not
        where it was added.
        """
        cid = int(client_id)
        worker = self._worker_for(cid)
        result = self._forward(worker, "wt.update", cid, head, hand, gesture)
        released = result.get("released")
        if released:
            self.journal.record_add_rake(
                cid, int(released["rake_id"]), dict(released["rake"])
            )
        return result

    def _rpc_add_rake(self, ctx, client_id: int, rake: dict) -> int:
        cid = int(client_id)
        worker = self._worker_for(cid)
        rake_id = self._forward(worker, "wt.add_rake", cid, rake)
        self.journal.record_add_rake(cid, int(rake_id), dict(rake))
        return rake_id

    def _rpc_remove_rake(self, ctx, client_id: int, rake_id: int) -> None:
        cid = int(client_id)
        worker = self._worker_for(cid)
        result = self._forward(worker, "wt.remove_rake", cid, rake_id)
        self.journal.record_remove_rake(int(rake_id))
        return result

    def _rpc_time(self, ctx, client_id: int, op: str, value: float = 0.0) -> dict:
        cid = int(client_id)
        worker = self._worker_for(cid)
        snapshot = self._forward(worker, "wt.time", cid, op, value)
        self.journal.record_clock(worker, snapshot)
        return snapshot

    def _rpc_steer(self, ctx, client_id: int, changes: dict) -> dict:
        """Forward ``wt.steer`` and journal the accepted change set.

        Only accepted steers land in the journal (a conflict or a bad
        parameter raises before we get here), so replaying the log on a
        respawned worker reconstructs exactly the regime users steered
        the tunnel into (docs/steering.md).
        """
        cid = int(client_id)
        worker = self._worker_for(cid)
        result = self._forward(worker, "wt.steer", cid, changes)
        self.journal.record_steering(
            worker,
            {"epoch": result.get("epoch", 0), "changes": result.get("changes", {})},
        )
        return result

    def _rpc_set_tool_settings(self, ctx, client_id: int, settings: dict) -> dict:
        cid = int(client_id)
        worker = self._worker_for(cid)
        effective = self._forward(worker, "wt.set_tool_settings", cid, settings)
        self.journal.record_tool_settings(worker, effective)
        return effective

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
