"""Process-level fault injection: crash and hang, on a seeded schedule.

:mod:`repro.netsim.faults` attacks the *wire*; this module attacks the
*process* — the failure domain the session gateway exists to contain.
Two faults, matching the supervisor's failure model (docs/operations.md):

* **kill** — SIGKILL, the uncatchable crash.  The victim gets no chance
  to flush, say goodbye, or release anything; whatever recovery works
  against SIGKILL works against segfaults and OOM kills too.
* **hang** — wedge the victim's service loop via its ``wt.chaos_hang``
  procedure (servers opt in with ``allow_chaos=True``).  The process
  stays alive and connectable, which is exactly what makes hangs nastier
  than crashes: only a liveness *deadline* can tell a wedged worker from
  a busy one.

Victim choice is seeded (:meth:`ProcessFaults.choose`) so a chaos run
reproduces from its seed, and injections are counted in a metrics
registry (``faults.kills`` / ``faults.hangs``) so tests reconcile
injected faults against the gateway's observed ``gateway.*`` recovery
counters.
"""

from __future__ import annotations

import os
import random
import signal

from repro.obs import MetricsRegistry

__all__ = ["ProcessFaults"]


class ProcessFaults:
    """Seeded crash/hang injection against worker processes.

    Parameters
    ----------
    seed
        Drives :meth:`choose`; a fixed seed fixes the victim sequence.
    registry
        The :class:`~repro.obs.registry.MetricsRegistry` recording what
        was actually injected, as the ``faults.kills`` and
        ``faults.hangs`` counters (:attr:`kills`, :attr:`hangs`); a
        private one when omitted.
    """

    def __init__(self, seed: int = 0, *, registry=None) -> None:
        self._rng = random.Random(seed)
        registry = registry if registry is not None else MetricsRegistry()
        self.kills = registry.counter("faults.kills")
        self.hangs = registry.counter("faults.hangs")

    def choose(self, victims: list):
        """Pick the next victim from ``victims`` (seeded, uniform)."""
        if not victims:
            raise ValueError("no victims to choose from")
        return victims[self._rng.randrange(len(victims))]

    def kill(self, process) -> int:
        """SIGKILL ``process`` (anything with a ``pid``); returns the pid.

        Sent via :func:`os.kill` rather than any cooperative API so the
        victim's own cleanup handlers demonstrably never run.
        """
        pid = int(getattr(process, "pid", process))
        os.kill(pid, signal.SIGKILL)
        self.kills.inc()
        return pid

    def hang(self, address: tuple[str, int], seconds: float) -> None:
        """Wedge the service loop of the server at ``address``.

        Fire-and-forget: ships a ``wt.chaos_hang`` call and abandons the
        response at a tiny deadline (the whole point is that the server
        will not answer).  Raises ``ConnectionError`` if the server is
        not accepting connections at all — a dead process cannot hang.
        """
        from repro.dlib.client import DlibClient
        from repro.dlib.protocol import DlibTimeoutError

        host, port = address
        client = DlibClient(host, port, timeout=5.0, call_timeout=0.05)
        try:
            client.call_once("wt.chaos_hang", float(seconds))
        except DlibTimeoutError:
            pass  # expected: the server is now wedged, not answering
        finally:
            try:
                client.close()
            except OSError:
                pass
        self.hangs.inc()
