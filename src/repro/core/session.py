"""Session leases: ghost-user reaping and resumable sessions.

Section 5.1 makes every rake lock first-come-first-served on the remote
system — which means a client that dies without calling ``wt.leave``
would hold its grab locks forever, wedging that rake for every surviving
user.  The lease table fixes the failure mode: ``wt.join`` opens a lease,
every client call touches it (the heartbeat piggybacks on normal
traffic), and a reaper sweep expires leases that have gone silent.  A
reaped session is not forgotten: the client presents its resume token to
``wt.rejoin`` and gets its seat — same ``client_id`` — back.
"""

from __future__ import annotations

import secrets
import time
from collections.abc import Callable
from dataclasses import dataclass, field

__all__ = ["SessionExpiredError", "SessionLease", "SessionTable"]


class SessionExpiredError(Exception):
    """The session's lease lapsed and the server reaped it.

    Crossing the wire as remote type ``"SessionExpiredError"``, this tells
    the client its seat was vacated — present the resume token to
    ``wt.rejoin`` and retry, rather than treating the call as fatal.
    """


@dataclass
class SessionLease:
    """One client's lease on its seat in the shared environment."""

    client_id: int
    token: str
    name: str
    opened: float
    last_seen: float
    lease_seconds: float
    reaped: bool = False
    resumes: int = field(default=0)

    def expired(self, now: float) -> bool:
        """Has this lease gone silent for longer than its term?"""
        return now - self.last_seen > self.lease_seconds


class SessionTable:
    """The server's ledger of leases.

    Not thread-safe by design: the dlib server runs procedures and reaper
    ticks on one service thread, so the table inherits the same serial
    execution guarantee as the environment it protects.
    """

    def __init__(
        self,
        lease_seconds: float = 30.0,
        *,
        retain_seconds: float | None = None,
        time_fn: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        self.lease_seconds = float(lease_seconds)
        #: How long a *reaped* lease stays resumable before it is evicted
        #: outright.  Without eviction every ghost client that never says
        #: ``wt.leave`` would grow the table forever; with it the resume
        #: window is bounded and churned clients cost nothing after
        #: ``lease_seconds + retain_seconds``.
        self.retain_seconds = (
            10.0 * self.lease_seconds if retain_seconds is None
            else float(retain_seconds)
        )
        if self.retain_seconds < 0:
            raise ValueError("retain_seconds must be non-negative")
        self._time_fn = time_fn
        self._leases: dict[int, SessionLease] = {}
        self.reaped_total = 0
        self.resumed_total = 0
        self.evicted_total = 0
        #: Completed reaper passes.  A progress counter, not a health
        #: stat: tests assert "the reaper ran and declined to act" by
        #: waiting for this to advance (tests/__init__.py rule 2)
        #: instead of sleeping and hoping the reaper thread got a turn.
        self.sweeps_total = 0

    def __len__(self) -> int:
        return len(self._leases)

    @property
    def active(self) -> int:
        """Leases currently live (opened and not reaped)."""
        return sum(1 for lease in self._leases.values() if not lease.reaped)

    def get(self, client_id: int) -> SessionLease | None:
        """The lease for ``client_id``, or ``None``."""
        return self._leases.get(client_id)

    def open(
        self, client_id: int, name: str = "", *, token: str | None = None
    ) -> SessionLease:
        """Start a lease for a freshly joined client.

        ``token`` lets a caller that already owns the session identity —
        the gateway adopting a session onto a worker, or a recovery
        replay re-seating journaled sessions — install its own resume
        token instead of minting a fresh one, so the token the *client*
        holds keeps working across worker generations.
        """
        now = self._time_fn()
        lease = SessionLease(
            client_id=int(client_id),
            token=token if token else secrets.token_hex(8),
            name=name,
            opened=now,
            last_seen=now,
            lease_seconds=self.lease_seconds,
        )
        self._leases[lease.client_id] = lease
        return lease

    def close(self, client_id: int) -> None:
        """Forget a lease (clean ``wt.leave``); unknown ids are a no-op."""
        self._leases.pop(int(client_id), None)

    def touch(self, client_id: int) -> None:
        """Record liveness — the heartbeat piggybacked on every call.

        Unleased ids (e.g. users seated directly into the environment by
        tests) pass through untouched; a reaped lease raises
        :class:`SessionExpiredError` so the client learns to rejoin.
        """
        lease = self._leases.get(int(client_id))
        if lease is None:
            return
        if lease.reaped:
            raise SessionExpiredError(
                f"session {client_id} lease expired; call wt.rejoin to resume"
            )
        lease.last_seen = self._time_fn()

    def resume(self, client_id: int, token: str) -> SessionLease:
        """Validate a resume token and revive the lease.

        Raises ``KeyError`` for unknown sessions and ``PermissionError``
        for a wrong token — a guessed id must not hijack someone's seat.
        Returns the lease with ``reaped`` already cleared; the caller is
        responsible for re-seating the user in the environment when the
        session had been reaped.
        """
        lease = self._leases.get(int(client_id))
        if lease is None:
            raise KeyError(f"no session for client {client_id}")
        if token != lease.token:
            raise PermissionError(f"bad resume token for client {client_id}")
        lease.reaped = False
        lease.last_seen = self._time_fn()
        lease.resumes += 1
        self.resumed_total += 1
        return lease

    def sweep(self) -> list[SessionLease]:
        """Mark every newly expired lease reaped and return them.

        A reaped lease stays in the table so the client can still resume
        it — but only for :attr:`retain_seconds` past its last sign of
        life.  Beyond that the lease is evicted outright (the resume
        token stops working) so a churn of ghost clients cannot grow the
        table without bound.
        """
        now = self._time_fn()
        expired = [
            lease
            for lease in self._leases.values()
            if not lease.reaped and lease.expired(now)
        ]
        for lease in expired:
            lease.reaped = True
            self.reaped_total += 1
        evict = [
            cid
            for cid, lease in self._leases.items()
            if lease.reaped
            and now - lease.last_seen > lease.lease_seconds + self.retain_seconds
        ]
        for cid in evict:
            del self._leases[cid]
            self.evicted_total += 1
        self.sweeps_total += 1
        return expired
