"""Admission control and the load-shedding ladder.

The gateway's contract under overload is *fast, typed refusal* — a
client is told to come back in N seconds (``RetryAfterError``, wire type
``RetryAfterError`` with machine-readable ``data.retry_after``), never
left hanging on an accept queue while the pool drowns.  Two independent
mechanisms:

**Structural capacity** — a per-worker session budget and an optional
global cap.  Placement picks the least-loaded worker with budget left;
when every worker is full the join is refused outright.

**The shedding ladder** — driven by worker *saturation* (mean frame
compute over the 1/8 s interaction budget, reported by ``wt.health``
and fed in by the supervisor's sweep):

== ========== =====================================================
L  name       behavior
== ========== =====================================================
0  SERVE      everything admitted
1  REJECT     new sessions refused; existing sessions full service
2  THROTTLE   + ``wt.frame`` limited to one per ``min_frame_interval``
              per client (excess refused with the residual wait); a
              push session's paced calls are not throttled
== ========== =====================================================

The ladder protects *existing* sessions first: refusing a newcomer is
cheap, degrading everyone is last resort.  Hysteresis (:data:`CLEAR_MARGIN`)
keeps the level from flapping when saturation rides a threshold.
"""

from __future__ import annotations

import threading
from enum import IntEnum

from repro.dlib.protocol import RetryAfterError
from repro.obs.registry import MetricsRegistry

__all__ = ["AdmissionController", "ShedLevel"]

#: Hysteresis: a ladder level clears only once saturation drops this far
#: below its threshold.
CLEAR_MARGIN = 0.1


class ShedLevel(IntEnum):
    """The load-shedding ladder, least to most drastic."""

    SERVE = 0
    REJECT_NEW = 1
    THROTTLE = 2


class AdmissionController:
    """Session placement, capacity refusal, and frame throttling.

    Parameters
    ----------
    max_sessions_per_worker
        Hard per-worker seat budget.
    max_sessions_total
        Optional global cap across the pool (``None`` = sum of budgets).
    reject_saturation, throttle_saturation
        Pool saturation (max over workers, in [0, 1]) at which the
        ladder escalates to REJECT_NEW and THROTTLE.
    min_frame_interval
        Per-client floor on ``wt.frame`` spacing while throttling.
    retry_after
        Suggested client backoff shipped in refusals.
    registry
        Gateway metrics registry (``gateway.admission.*``).
    """

    def __init__(
        self,
        *,
        max_sessions_per_worker: int = 8,
        max_sessions_total: int | None = None,
        reject_saturation: float = 0.85,
        throttle_saturation: float = 0.95,
        min_frame_interval: float = 0.1,
        retry_after: float = 1.0,
        registry: MetricsRegistry | None = None,
        time_fn=None,
    ) -> None:
        if max_sessions_per_worker < 1:
            raise ValueError("max_sessions_per_worker must be at least 1")
        if not 0.0 < reject_saturation <= throttle_saturation <= 1.0:
            raise ValueError(
                "need 0 < reject_saturation <= throttle_saturation <= 1"
            )
        self.max_sessions_per_worker = int(max_sessions_per_worker)
        self.max_sessions_total = (
            None if max_sessions_total is None else int(max_sessions_total)
        )
        self.reject_saturation = float(reject_saturation)
        self.throttle_saturation = float(throttle_saturation)
        self.min_frame_interval = float(min_frame_interval)
        self.retry_after = float(retry_after)
        import time as _time

        self._time_fn = time_fn if time_fn is not None else _time.monotonic
        self._lock = threading.Lock()
        self._level = ShedLevel.SERVE
        self._last_frame: dict[int, float] = {}
        self.registry = registry if registry is not None else MetricsRegistry()
        self._rejected = self.registry.counter("gateway.admission.rejected")
        self._throttled = self.registry.counter("gateway.admission.throttled")
        self._level_gauge = self.registry.gauge("gateway.shed_level")

    # -- ladder state (supervisor thread) -----------------------------------

    @property
    def level(self) -> ShedLevel:
        return self._level

    def update(self, saturations: dict[str, float]) -> ShedLevel:
        """Re-evaluate the ladder from the latest health sweep.

        The pool's saturation is the *max* over workers: sessions are
        pinned to their worker, so one drowning worker is a real
        degradation even if its neighbors idle.
        """
        sat = max(saturations.values(), default=0.0)
        with self._lock:
            level = self._level
            if sat >= self.throttle_saturation:
                level = ShedLevel.THROTTLE
            elif sat >= self.reject_saturation - CLEAR_MARGIN:
                # Escalate to REJECT_NEW past its threshold; step a held
                # THROTTLE down only once clear of *its* margin.  Inside
                # a level's hysteresis band the level holds.
                if level < ShedLevel.REJECT_NEW:
                    if sat >= self.reject_saturation:
                        level = ShedLevel.REJECT_NEW
                elif level == ShedLevel.THROTTLE and (
                    sat < self.throttle_saturation - CLEAR_MARGIN
                ):
                    level = ShedLevel.REJECT_NEW
            else:
                level = ShedLevel.SERVE
            self._level = level
            self._level_gauge.set(int(level))
            return level

    # -- admission (gateway routing thread) ---------------------------------

    def place(self, load: dict[str, int], ready: list[str]) -> str:
        """Pick the worker for a new session, or refuse with RETRY_AFTER.

        ``load`` maps worker name to its current session count;
        ``ready`` lists the workers currently accepting traffic.
        """
        if self._level >= ShedLevel.REJECT_NEW:
            self._rejected.inc()
            raise RetryAfterError(
                "gateway is shedding load; retry later",
                retry_after=self.retry_after,
                reason="shedding",
            )
        if self.max_sessions_total is not None:
            if sum(load.values()) >= self.max_sessions_total:
                self._rejected.inc()
                raise RetryAfterError(
                    "session capacity reached; retry later",
                    retry_after=self.retry_after,
                    reason="global_capacity",
                )
        candidates = [
            w
            for w in ready
            if load.get(w, 0) < self.max_sessions_per_worker
        ]
        if not candidates:
            self._rejected.inc()
            raise RetryAfterError(
                "every worker is at its session budget; retry later",
                retry_after=self.retry_after,
                reason="worker_capacity",
            )
        return min(candidates, key=lambda w: (load.get(w, 0), w))

    def admit_frame(self, client_id: int) -> None:
        """Gate one ``wt.frame`` under the ladder (no-op below THROTTLE)."""
        if self._level < ShedLevel.THROTTLE:
            return
        now = self._time_fn()
        last = self._last_frame.get(int(client_id))
        if last is not None and now - last < self.min_frame_interval:
            self._throttled.inc()
            raise RetryAfterError(
                "frame rate throttled under load",
                retry_after=self.min_frame_interval - (now - last),
                reason="throttled",
            )
        self._last_frame[int(client_id)] = now

    def note_leave(self, client_id: int) -> None:
        """Forget per-client throttle state (free on disconnect)."""
        self._last_frame.pop(int(client_id), None)
