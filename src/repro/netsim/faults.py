"""Deterministic fault injection for stream transports.

The paper's UltraNet delivered 1 MB/s of its rated 13 MB/s "due to
software bugs" (section 5.1) — the production network was itself the
adversary.  :class:`FaultyChannel` wraps any Stream-shaped transport and
injects that adversary on demand: silent frame drops, stalls, single-byte
corruption, reorder-free duplicate frames, and a forced mid-frame
disconnect that emits a naked frame prefix before severing the link.

Everything is driven by one seeded PRNG inside a :class:`FaultPlan`, so a
failing test reproduces byte-for-byte from its seed.  The wrapper
duck-types :class:`~repro.dlib.transport.Stream` and composes with
:class:`~repro.netsim.channel.ThrottledChannel` in either order, so a
test can run the paper's degraded-bandwidth regime *with* faults:

    raw = connect_tcp(host, port)
    slow = ThrottledChannel(raw, ULTRANET_ACTUAL)
    flaky = FaultyChannel(slow, FaultPlan(seed=7, drop_rate=0.05))
    client = DlibClient(stream=flaky, ...)
"""

from __future__ import annotations

import random
import struct
import time
from dataclasses import dataclass, field

from repro.netsim.channel import VirtualClock
from repro.obs import MetricsRegistry

__all__ = ["FaultPlan", "FaultStats", "FaultyChannel"]

_LEN = struct.Struct("<I")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of transport faults.

    Rates are per-``send`` probabilities in ``[0, 1]`` drawn from one
    ``random.Random(seed)``, so the full fault sequence is a pure
    function of the seed and the call sequence.  ``disconnect_after_sends``
    forces exactly one mid-frame disconnect on the Nth send (1-based):
    the channel emits ``disconnect_partial_bytes`` of the frame — a naked
    header prefix — then closes the underlying stream and raises
    ``ConnectionError``, modeling a peer dying mid-write.
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    corrupt_rate: float = 0.0
    stall_rate: float = 0.0
    stall_seconds: float = 0.02
    disconnect_after_sends: int | None = None
    disconnect_partial_bytes: int = 2

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "corrupt_rate", "stall_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")
        if self.stall_seconds < 0:
            raise ValueError("stall_seconds must be non-negative")
        if self.disconnect_after_sends is not None and self.disconnect_after_sends < 1:
            raise ValueError("disconnect_after_sends counts from 1")
        if self.disconnect_partial_bytes < 0:
            raise ValueError("disconnect_partial_bytes must be non-negative")


@dataclass
class FaultStats:
    """Counters of every fault *this channel* actually injected.

    Not a mirror of the ``faults.*`` registry counters: several channels
    may share one registry, whose counters are then the sums.
    """

    sends: int = 0
    recvs: int = 0
    drops: int = 0
    duplicates: int = 0
    corruptions: int = 0
    stalls: int = 0
    disconnects: int = 0
    stalled_seconds: float = field(default=0.0)


class FaultyChannel:
    """A Stream wrapper that injects the faults of a :class:`FaultPlan`.

    Duck-types :class:`~repro.dlib.transport.Stream`, so a
    :class:`~repro.dlib.client.DlibClient` runs over it unchanged.  Pass
    a :class:`~repro.netsim.channel.VirtualClock` to make stalls free at
    test time (accumulated, not slept).
    """

    def __init__(
        self,
        stream,
        plan: FaultPlan,
        *,
        clock: VirtualClock | None = None,
        registry=None,
    ) -> None:
        self._stream = stream
        self.plan = plan
        self.stats = FaultStats()
        self._rng = random.Random(plan.seed)
        self._clock = clock
        self._disconnected = False
        # Injected faults land in the registry the caller reports (a
        # private one when omitted), so a soak run reconciles observed
        # losses against scheduled ones from one snapshot.
        registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: registry.counter(f"faults.{name}")
            for name in (
                "sends",
                "recvs",
                "drops",
                "duplicates",
                "corruptions",
                "stalls",
                "disconnects",
            )
        }

    def _record(self, name: str) -> None:
        """Count one event: this channel's share and the registry's sum."""
        setattr(self.stats, name, getattr(self.stats, name) + 1)
        self._counters[name].inc()

    # -- Stream interface ----------------------------------------------------

    @property
    def bytes_sent(self) -> int:
        return self._stream.bytes_sent

    @property
    def bytes_received(self) -> int:
        return self._stream.bytes_received

    @property
    def closed(self) -> bool:
        return self._stream.closed

    def fileno(self) -> int:
        return self._stream.fileno()

    def settimeout(self, seconds: float | None) -> None:
        if hasattr(self._stream, "settimeout"):
            self._stream.settimeout(seconds)

    def send(self, payload: bytes) -> None:
        """Send one framed message, subject to the fault plan."""
        plan, rng = self.plan, self._rng
        self._record("sends")
        if (
            plan.disconnect_after_sends is not None
            and not self._disconnected
            and self.stats.sends >= plan.disconnect_after_sends
        ):
            self._inject_disconnect(payload)
        if plan.stall_rate and rng.random() < plan.stall_rate:
            self._record("stalls")
            self._stall(plan.stall_seconds)
        if plan.drop_rate and rng.random() < plan.drop_rate:
            self._record("drops")
            return  # the frame silently vanishes in the network
        data = payload
        if plan.corrupt_rate and payload and rng.random() < plan.corrupt_rate:
            corrupted = bytearray(payload)
            corrupted[rng.randrange(len(corrupted))] ^= 0xFF
            data = bytes(corrupted)
            self._record("corruptions")
        self._stream.send(data)
        if plan.duplicate_rate and rng.random() < plan.duplicate_rate:
            self._record("duplicates")
            self._stream.send(data)

    def recv(self) -> bytes:
        self._record("recvs")
        return self._stream.recv()

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "FaultyChannel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- fault internals -----------------------------------------------------

    def _stall(self, seconds: float) -> None:
        self.stats.stalled_seconds += seconds
        if self._clock is not None:
            self._clock.sleep(seconds)
        elif seconds > 0:
            time.sleep(seconds)

    def _inject_disconnect(self, payload: bytes) -> None:
        """Emit a naked prefix of the frame, sever the link, raise."""
        self._disconnected = True
        self._record("disconnects")
        frame = _LEN.pack(len(payload)) + bytes(payload)
        cut = min(self.plan.disconnect_partial_bytes, len(frame))
        if cut and hasattr(self._stream, "send_raw"):
            try:
                self._stream.send_raw(frame[:cut])
            except (ConnectionError, OSError):
                pass
        self._stream.close()
        raise ConnectionError("injected mid-frame disconnect")
