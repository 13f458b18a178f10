"""The worker supervisor: spawn, watch, kill, respawn, restore.

Failure model (docs/operations.md):

* **Crash** — the process exits (segfault, OOM kill, SIGKILL).  Detected
  by ``Process.is_alive()`` on the next sweep.
* **Hang** — the process lives but its service loop is wedged (deadlock,
  runaway compute, ``wt.chaos_hang`` in tests), or a frame-pipeline
  thread died and it can never publish again.  Detected by the
  ``wt.health`` probe missing its liveness deadline, or answering
  ``pipeline_alive: False``, ``probe_failures_to_kill`` sweeps in a row;
  the remedy is SIGKILL, which converts the hang into a crash.
* **Saturation** — the worker answers but reports frame compute near or
  past the interaction budget.  Not a supervisor problem: the health
  payload is handed to the admission ladder, which sheds load.

Recovery is always the same path: respawn the slot, replay the
journal's slice over ``wt.restore``, mark the slot ready.  Sessions,
resume tokens, rakes (original ids), clock, tool settings, and v2
subscriptions come back; in-flight grabs do not (released by design).
The slot's *name* is its identity — ``w2`` is still ``w2`` after three
respawns, only its generation counter and port change.
"""

from __future__ import annotations

import threading
import time

from repro.dlib.client import RETRYABLE_ERRORS, DlibClient
from repro.gateway.journal import SessionJournal
from repro.gateway.worker import WorkerHandle
from repro.obs.registry import MetricsRegistry

__all__ = ["WorkerSupervisor"]


class _Slot:
    """One pool position: a name, its current incarnation, its health."""

    __slots__ = (
        "name", "handle", "generation", "ready", "health",
        "probe_failures", "client",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.handle: WorkerHandle | None = None
        self.generation = 0
        self.ready = threading.Event()
        self.health: dict = {}
        self.probe_failures = 0
        self.client: DlibClient | None = None


class WorkerSupervisor:
    """Owns the worker pool's lifecycle.

    Parameters
    ----------
    spec
        Worker spec dict (see :mod:`repro.gateway.worker`), shared by
        every slot.
    n_workers
        Pool size; slots are named ``w0`` .. ``w{n-1}``.
    journal
        The :class:`~repro.gateway.journal.SessionJournal` to replay
        into respawned workers.
    heartbeat_interval
        Seconds between health sweeps.
    liveness_deadline
        Per-probe ``wt.health`` deadline; a probe past it counts as a
        miss.
    probe_failures_to_kill
        Consecutive misses before a live-but-silent worker is declared
        hung and killed.  Two by default: one slow answer is weather, a
        second in a row is a wedge.
    on_health
        Optional callback ``fn({worker: health_dict})`` after each sweep
        — the gateway feeds this to its admission ladder.
    registry
        Gateway metrics registry (``gateway.*`` recovery metrics).
    """

    def __init__(
        self,
        spec: dict,
        n_workers: int,
        journal: SessionJournal,
        *,
        heartbeat_interval: float = 0.5,
        liveness_deadline: float = 2.0,
        probe_failures_to_kill: int = 2,
        ready_timeout: float = 30.0,
        on_health=None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.spec = dict(spec)
        self.journal = journal
        self.heartbeat_interval = float(heartbeat_interval)
        self.liveness_deadline = float(liveness_deadline)
        self.probe_failures_to_kill = max(1, int(probe_failures_to_kill))
        self.ready_timeout = float(ready_timeout)
        self.on_health = on_health
        self.registry = registry if registry is not None else MetricsRegistry()
        self._respawns = self.registry.counter("gateway.workers_respawned")
        self._hangs = self.registry.counter("gateway.workers_hung")
        self._recovered = self.registry.counter("gateway.sessions_recovered")
        self._recovery_hist = self.registry.histogram("gateway.recovery_seconds")
        self._slots = {f"w{i}": _Slot(f"w{i}") for i in range(n_workers)}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "WorkerSupervisor":
        for slot in self._slots.values():
            self._spawn_into(slot, restore=False)
        self._thread = threading.Thread(
            target=self._run, name="wt-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        for slot in self._slots.values():
            if slot.client is not None:
                try:
                    slot.client.close()
                except OSError:
                    pass
                slot.client = None
            if slot.handle is not None:
                slot.handle.stop()
                slot.handle = None
            slot.ready.clear()

    # -- pool queries (router thread) ---------------------------------------

    @property
    def worker_names(self) -> list[str]:
        return sorted(self._slots)

    def address_of(self, name: str) -> tuple[str, int] | None:
        handle = self._slots[name].handle
        return None if handle is None else handle.address

    def generation_of(self, name: str) -> int:
        return self._slots[name].generation

    def handle_of(self, name: str) -> WorkerHandle | None:
        return self._slots[name].handle

    def ready_workers(self) -> list[str]:
        return [n for n in self.worker_names if self.is_ready(n)]

    def is_ready(self, name: str) -> bool:
        return self._slots[name].ready.is_set()

    def healths(self) -> dict[str, dict]:
        return {n: dict(s.health) for n, s in self._slots.items()}

    def saturations(self) -> dict[str, float]:
        return {
            n: float(s.health.get("saturation", 0.0))
            for n, s in self._slots.items()
        }

    def mark_suspect(self, name: str) -> None:
        """Routing noticed a dead endpoint before the sweep did.

        Clears the slot's ready flag so admission stops placing sessions
        there; the next sweep (at most one heartbeat away) runs the full
        crash/hang verdict and respawn.
        """
        self._slots[name].ready.clear()

    # -- the sweep (supervisor thread) --------------------------------------

    def _run(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                self.sweep()
            except Exception:  # noqa: BLE001 - the watchdog must not die
                pass

    def sweep(self) -> None:
        """One health pass over every slot (public for deterministic tests)."""
        for slot in self._slots.values():
            if self._stop.is_set():
                return
            if slot.handle is None or not slot.handle.alive:
                self._respawn(slot, cause="crash")
                continue
            try:
                health = self._probe(slot)
            except RETRYABLE_ERRORS:
                health = None
            if health is None or not health.get("pipeline_alive", True):
                slot.probe_failures += 1
                if slot.probe_failures >= self.probe_failures_to_kill:
                    # Alive but repeatedly past the liveness deadline (or
                    # without a pipeline): hung.  SIGKILL makes it a crash.
                    self._hangs.inc()
                    slot.handle.kill()
                    self._respawn(slot, cause="hang")
                continue
            slot.probe_failures = 0
            slot.health = health
            self.registry.gauge(f"gateway.worker.{slot.name}.saturation").set(
                float(health.get("saturation", 0.0))
            )
        if self.on_health is not None:
            self.on_health(self.healths())

    def _probe(self, slot: _Slot) -> dict:
        if slot.client is None:
            host, port = slot.handle.address
            slot.client = DlibClient(
                host, port, timeout=self.liveness_deadline,
                call_timeout=self.liveness_deadline,
            )
        return slot.client.call("wt.health")

    # -- respawn + restore ---------------------------------------------------

    def _spawn_into(self, slot: _Slot, *, restore: bool) -> None:
        slot.ready.clear()
        if slot.client is not None:
            try:
                slot.client.close()
            except OSError:
                pass
            slot.client = None
        slot.probe_failures = 0
        slot.handle = WorkerHandle.spawn(
            slot.name, self.spec, ready_timeout=self.ready_timeout
        )
        if restore:
            state = self.journal.recovery_state(slot.name)
            if state["sessions"] or state["rakes"] or state["clock"] or (
                state["tool_settings"]
            ):
                host, port = slot.handle.address
                with DlibClient(
                    host, port,
                    timeout=self.ready_timeout,
                    call_timeout=self.ready_timeout,
                ) as c:
                    c.call("wt.restore", state)
                self._recovered.inc(len(state["sessions"]))
        slot.generation += 1
        slot.ready.set()

    def _respawn(self, slot: _Slot, *, cause: str) -> None:
        t0 = time.monotonic()
        old = slot.handle
        slot.ready.clear()
        if old is not None:
            # The old incarnation may be a killed hang or a true corpse;
            # either way reap it so it cannot linger as a zombie.
            old.kill()
            old.process.join(timeout=5.0)
            try:
                old.conn.close()
            except OSError:
                pass
        self._spawn_into(slot, restore=True)
        self._respawns.inc()
        self.registry.counter(f"gateway.worker.{slot.name}.respawns.{cause}").inc()
        self._recovery_hist.observe(time.monotonic() - t0)
