"""Throttled channels: impose a network model on a real byte stream.

A :class:`ThrottledChannel` wraps a :class:`~repro.dlib.transport.Stream`
and pads every send/recv with the delay the modeled network would have
taken, so an end-to-end windtunnel frame over loopback exhibits the same
network-bound behaviour the paper saw on the UltraNet (1 MB/s measured,
13 MB/s expected — section 5.1).

For fast deterministic tests a :class:`VirtualClock` can stand in for real
sleeping: delays are then accumulated rather than slept, and the tests
assert on the modeled time.
"""

from __future__ import annotations

import time

from repro.dlib.transport import Stream
from repro.netsim.model import NetworkModel

__all__ = ["BandwidthSchedule", "VirtualClock", "ThrottledChannel"]


class BandwidthSchedule:
    """Piecewise-constant bandwidth over elapsed channel time.

    ``steps`` is a sequence of ``(start_second, bytes_per_second)`` pairs;
    the bandwidth in force at time ``t`` is the last step whose start is
    ``<= t``.  Wrapped around a :class:`ThrottledChannel` this *shapes*
    the link — e.g. a healthy 13 MB/s UltraNet degrading to its measured
    1 MB/s mid-session (docs/network.md).
    """

    def __init__(self, steps) -> None:
        steps = [(float(t), float(bps)) for t, bps in steps]
        if not steps:
            raise ValueError("schedule needs at least one step")
        if any(bps <= 0 for _, bps in steps):
            raise ValueError("bandwidth must be positive")
        steps.sort(key=lambda s: s[0])
        if steps[0][0] != 0.0:
            raise ValueError("the first step must start at t=0")
        self.steps = steps

    def bandwidth_at(self, t: float) -> float:
        """Bytes/second in force at elapsed time ``t``."""
        current = self.steps[0][1]
        for start, bps in self.steps:
            if start > t:
                break
            current = bps
        return current


class VirtualClock:
    """Accumulates modeled delays instead of sleeping.

    ``now`` is the modeled time in seconds.  Inject into a
    :class:`ThrottledChannel` to make throttling free at test time while
    keeping the arithmetic observable.
    """

    def __init__(self) -> None:
        self.now = 0.0

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self.now += seconds


class ThrottledChannel:
    """A framed stream with modeled bandwidth and latency.

    Duck-types the :class:`~repro.dlib.transport.Stream` interface so
    :class:`~repro.dlib.client.DlibClient` can run over it unchanged.
    Throttling is applied on this endpoint for both directions (the model
    covers the whole link, and one endpoint sleeping is equivalent for a
    request/response protocol).
    """

    def __init__(
        self,
        stream: Stream,
        model: NetworkModel,
        *,
        clock: VirtualClock | None = None,
        schedule: BandwidthSchedule | None = None,
        registry=None,
    ) -> None:
        self._stream = stream
        self.model = model
        self._clock = clock
        #: Optional bandwidth shaping: when set, the schedule's bandwidth
        #: (at elapsed channel time) replaces the model's constant rate;
        #: the model still contributes its per-message latency.
        self.schedule = schedule
        self._t0 = time.monotonic()
        self.modeled_delay_total = 0.0
        # Optional MetricsRegistry: modeled delays become observable next
        # to the real timings (netsim.* metrics).
        self._delay_hist = (
            registry.histogram("netsim.modeled_delay_seconds") if registry else None
        )
        self._throttled_bytes = (
            registry.counter("netsim.throttled_bytes") if registry else None
        )

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

    def send_raw(self, data: bytes) -> None:
        """Unframed passthrough (fault injection); still pays the model."""
        self._delay(len(data))
        self._stream.send_raw(data)

    def elapsed(self) -> float:
        """Elapsed channel time: virtual when a clock is injected."""
        if self._clock is not None:
            return self._clock.now
        return time.monotonic() - self._t0

    def _delay(self, nbytes: int) -> None:
        if self.schedule is not None:
            bandwidth = self.schedule.bandwidth_at(self.elapsed())
            d = self.model.latency + nbytes / bandwidth
        else:
            d = self.model.transfer_time(nbytes)
        self.modeled_delay_total += d
        if self._delay_hist is not None:
            self._delay_hist.observe(d)
            self._throttled_bytes.inc(nbytes)
        if self._clock is not None:
            self._clock.sleep(d)
        elif d > 0:
            time.sleep(d)

    def send(self, payload: bytes) -> None:
        self._delay(len(payload))
        self._stream.send(payload)

    def recv(self) -> bytes:
        payload = self._stream.recv()
        self._delay(len(payload))
        return payload

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "ThrottledChannel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
