"""Computational steering: validation, conflict leases, epochs.

``wt.steer`` lets any user reshape the running simulation — inflow
velocity, the cylinder's taper and tilt, the solver timestep, pause /
reset.  Two pieces of machinery make that safe to share:

* **Conflict serialization**, modeled on the rake grab locks of section
  5.1: the first user to steer holds a short FCFS *lease*; a second
  user's steer is rejected with :class:`SteeringConflictError` (naming
  the holder) until the lease expires or is released — exactly "the user
  who grabbed it first gets control ... and the second user is locked
  out", applied to the tunnel itself instead of a rake.
* **Epochs**: every accepted change is assigned a monotonically
  increasing epoch at enqueue time.  The producer applies pending
  changes in epoch order at a timestep boundary and stamps the highest
  applied epoch into every frame produced from then on
  (``PublishedFrame.steer_epoch``), so a client can watch frames to know
  when the flow it sees includes its change (docs/steering.md).

The controller never touches the solver: it validates and queues; the
:class:`~repro.insitu.producer.SolverProducer` drains the queue between
timesteps — which is what makes a steered run *replayable* from the
journal (the applied log records epoch, timestep, and changes).  In a
live server the producer runs in a child process: the server drains
its controller down the pipe into the child's (:meth:`enqueue`), and
the child's applied entries come back into the server's log.
"""

from __future__ import annotations

import threading
import time

__all__ = ["STEERING_RANGES", "SteeringConflictError", "SteeringController"]

#: Validated numeric steering parameters: ``key -> (lo, hi)`` (inclusive).
STEERING_RANGES = {
    "u_inf": (0.05, 10.0),   # inflow velocity (physical units / s)
    "dt": (1e-5, 0.1),       # solver timestep (s)
    "taper": (0.0, 0.9),     # cylinder taper ratio (0 = straight)
    "angle": (-60.0, 60.0),  # cylinder tilt (degrees from the y axis)
}

#: Boolean / action keys accepted alongside the numeric ranges.
_FLAG_KEYS = ("paused", "reset")


class SteeringConflictError(PermissionError):
    """Another user holds the steering lease (FCFS, like a rake grab)."""

    def __init__(self, owner: int, seconds_left: float) -> None:
        self.owner = int(owner)
        self.seconds_left = float(seconds_left)
        super().__init__(
            f"steering is held by client {owner} "
            f"(lease expires in {seconds_left:.1f}s)"
        )


class SteeringController:
    """Validates, serializes, and epoch-stamps ``wt.steer`` requests."""

    def __init__(
        self, *, hold_seconds: float = 2.0, time_fn=time.monotonic
    ) -> None:
        if hold_seconds <= 0:
            raise ValueError("hold_seconds must be positive")
        self.hold_seconds = float(hold_seconds)
        self._time_fn = time_fn
        self._lock = threading.Lock()
        self._owner: int | None = None
        self._owner_until = 0.0
        self._next_epoch = 1
        self._pending: list[tuple[int, dict]] = []  # (epoch, changes)
        self.applied_epoch = 0
        self.applied_log: list[dict] = []  # {epoch, timestep, changes}
        self.requests_total = 0
        self.conflicts_total = 0

    # -- validation -----------------------------------------------------------

    @staticmethod
    def validate(changes: dict) -> dict:
        """Normalize a ``wt.steer`` changes dict (raises ``ValueError``)."""
        if not changes:
            raise ValueError("wt.steer needs at least one change")
        out: dict = {}
        for key, value in changes.items():
            if key in STEERING_RANGES:
                lo, hi = STEERING_RANGES[key]
                value = float(value)
                if not (lo <= value <= hi):
                    raise ValueError(
                        f"{key}={value} out of range [{lo}, {hi}]"
                    )
                out[key] = value
            elif key in _FLAG_KEYS:
                out[key] = bool(value)
            else:
                allowed = sorted(STEERING_RANGES) + list(_FLAG_KEYS)
                raise ValueError(
                    f"unknown steering parameter {key!r}; allowed: {allowed}"
                )
        return out

    # -- the lease (FCFS, rake-grab semantics) --------------------------------

    def _check_lease(self, client_id: int, now: float) -> None:
        # Caller holds self._lock.
        if (
            self._owner is not None
            and self._owner != client_id
            and now < self._owner_until
        ):
            self.conflicts_total += 1
            raise SteeringConflictError(self._owner, self._owner_until - now)
        self._owner = int(client_id)
        self._owner_until = now + self.hold_seconds

    def release(self, client_id: int) -> bool:
        """Let go of the steering lease early (no-op if not the holder)."""
        with self._lock:
            if self._owner == int(client_id):
                self._owner = None
                self._owner_until = 0.0
                return True
            return False

    # -- request / drain / apply ----------------------------------------------

    def request(self, client_id: int, changes: dict) -> dict:
        """Accept one steering request; returns its assigned epoch.

        Raises ``ValueError`` on a bad parameter and
        :class:`SteeringConflictError` when another user holds the lease.
        Validation runs *before* the lease check so a malformed request
        never captures the tunnel.
        """
        normalized = self.validate(dict(changes))
        with self._lock:
            now = self._time_fn()
            self._check_lease(int(client_id), now)
            epoch = self._next_epoch
            self._next_epoch += 1
            self._pending.append((epoch, normalized))
            self.requests_total += 1
            return {
                "epoch": epoch,
                "applied_epoch": self.applied_epoch,
                "pending": len(self._pending),
                "changes": dict(normalized),
            }

    def enqueue(self, epoch: int, changes: dict) -> None:
        """Queue a change set another controller accepted and stamped.

        The solver child's side of the pipe (:mod:`repro.insitu.process`):
        the server's controller validates, leases and assigns ``epoch``;
        the child's queues it for its producer's next boundary.  A
        journaled entry a server re-applies (``wt.restore``) comes in the
        same way, and later requests get epochs past it.
        """
        with self._lock:
            self._pending.append((int(epoch), dict(changes)))
            self._next_epoch = max(self._next_epoch, int(epoch) + 1)

    def drain(self) -> list[tuple[int, dict]]:
        """Take every pending ``(epoch, changes)`` in epoch order.

        Called by the producer at a timestep boundary — so changes apply
        between solver steps, never mid-step — or, in a live server, by
        the server as it forwards them to the solver child.
        """
        with self._lock:
            pending, self._pending = self._pending, []
            return pending

    def note_applied(self, epoch: int, timestep: int, changes: dict) -> None:
        """Record that the producer applied ``epoch`` before ``timestep``.

        The applied log is the steering journal: replaying it (apply each
        entry's changes right before producing its timestep) reproduces
        the steered trajectory bit-for-bit (``tests/test_insitu.py``).
        """
        with self._lock:
            self.applied_epoch = max(self.applied_epoch, int(epoch))
            self.applied_log.append(
                {
                    "epoch": int(epoch),
                    "timestep": int(timestep),
                    "changes": dict(changes),
                }
            )

    def mark_restored(self, entries: list) -> None:
        """Adopt a journaled applied log after crash recovery.

        Seats the epoch counter past everything already applied so
        post-recovery steers get fresh epochs, and keeps the restored
        entries in the log for provenance.
        """
        with self._lock:
            for entry in entries:
                epoch = int(entry.get("epoch", 0))
                self.applied_epoch = max(self.applied_epoch, epoch)
                self._next_epoch = max(self._next_epoch, epoch + 1)
                self.applied_log.append(dict(entry))

    # -- wire -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """The ``"steering"`` section of ``wt.state`` (docs/protocol.md)."""
        with self._lock:
            now = self._time_fn()
            held = self._owner is not None and now < self._owner_until
            return {
                "applied_epoch": self.applied_epoch,
                "pending": len(self._pending),
                "owner": self._owner if held else None,
                "requests_total": self.requests_total,
                "conflicts_total": self.conflicts_total,
            }
