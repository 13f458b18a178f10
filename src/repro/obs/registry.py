"""The metrics registry.

Three instrument kinds, all thread-safe and all snapshotted to plain
data (so a snapshot crosses the dlib wire unmodified):

* :class:`Counter` — a monotone event count (``calls_served``, fault
  injections, frames produced).
* :class:`Gauge` — a settable level (``clients_connected``, the fused
  batch size).
* :class:`Histogram` — a latency distribution: streaming
  :class:`~repro.util.timers.TimingStats` (exact count/mean/min/max over
  the full history) plus a bounded window (a ``deque``) of recent
  samples for p50/p95/p99 quantiles.  The window bounds memory — an
  arbitrarily long run costs a fixed window — which is also the right
  semantics for tail latency: quantiles describe *now*, not the
  process's whole life.

Instruments are created on first use (``registry.counter("dlib.calls")``)
and shared by name afterwards, so the producing and the reporting side
never need to agree on setup order.  There is no ambient default: a
server, loader or run harness creates its registry and passes it
(``registry=``) to what it builds, so tests and co-hosted instances
cannot bleed into each other and a number reaches a snapshot only through
a registry somebody passed.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

from repro.util.timers import TimingStats

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default quantiles reported by a histogram snapshot.
QUANTILES = (0.5, 0.95, 0.99)

#: Default number of recent samples a histogram keeps for quantiles.
HISTOGRAM_WINDOW = 512


class Counter:
    """A monotone event counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        return self._value

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters are monotone; use a Gauge to go down")
        with self._lock:
            self._value += n


class Gauge:
    """A settable level (may go up or down)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self._value -= n


class Histogram:
    """Latency distribution: exact streaming stats + windowed quantiles.

    :attr:`stats` is the histogram's own storage for the full-history
    numbers (a plain :class:`~repro.util.timers.TimingStats`): read
    ``hist.stats.mean`` for the lifetime mean, :meth:`quantile` for the
    recent window.
    """

    __slots__ = ("name", "stats", "_window", "_lock")

    def __init__(self, name: str, window: int = HISTOGRAM_WINDOW) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        self.name = name
        self.stats = TimingStats()
        self._window: deque[float] = deque(maxlen=window)
        self._lock = threading.Lock()

    @property
    def count(self) -> int:
        return self.stats.count

    def observe(self, seconds: float) -> None:
        """Record one sample (non-negative, like all durations here)."""
        with self._lock:
            self.stats.add(seconds)
            self._window.append(seconds)

    def _samples(self) -> np.ndarray:
        return np.fromiter(self._window, np.float64, len(self._window))

    def quantile(self, q: float) -> float:
        """Quantile of the recent-sample window (0 if empty)."""
        with self._lock:
            if not self._window:
                return 0.0
            return float(np.quantile(self._samples(), q))

    def snapshot(self) -> dict:
        """Plain-data summary (wire-encodable)."""
        with self._lock:
            s = self.stats
            out = {
                "count": s.count,
                "mean": s.mean,
                "min": s.min if s.count else 0.0,
                "max": s.max,
                "total": s.total,
            }
            qs = (
                np.quantile(self._samples(), QUANTILES) if self._window
                else (0.0,) * len(QUANTILES)
            )
            for q, v in zip(QUANTILES, qs):
                out[f"p{int(q * 100)}"] = float(v)
        return out


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Instruments are created lazily and shared by name; asking for an
    existing name with a different kind is a programming error and
    raises.  :meth:`snapshot` returns plain nested dicts — the exact
    payload of the ``wt.metrics`` / ``dlib.metrics`` RPCs.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _get(self, table: dict, others: tuple[dict, ...], name: str, factory):
        with self._lock:
            inst = table.get(name)
            if inst is None:
                for other in others:
                    if name in other:
                        raise ValueError(
                            f"metric {name!r} already registered as a different kind"
                        )
                inst = table[name] = factory(name)
            return inst

    def counter(self, name: str) -> Counter:
        return self._get(
            self._counters, (self._gauges, self._histograms), name, Counter
        )

    def gauge(self, name: str) -> Gauge:
        return self._get(
            self._gauges, (self._counters, self._histograms), name, Gauge
        )

    def histogram(self, name: str, window: int = HISTOGRAM_WINDOW) -> Histogram:
        return self._get(
            self._histograms,
            (self._counters, self._gauges),
            name,
            lambda n: Histogram(n, window),
        )

    def adopt(self, other: "MetricsRegistry") -> None:
        """Re-home every instrument of ``other`` here, by name.

        Late binding without replay: a component built before its owner
        (a pre-warmed ``TimestepLoader`` handed to a server) records into
        a private registry; the owner adopts it and the *same* instrument
        objects, totals accrued so far included, are reported from here
        on.  ``other`` becomes an alias of this registry, so no handle
        goes stale.  A name already present here raises, leaving both
        registries untouched: one number must not get two stores.
        """
        if other._counters is self._counters:
            return
        with self._lock, other._lock:
            mine = (self._counters, self._gauges, self._histograms)
            theirs = (other._counters, other._gauges, other._histograms)
            clash = sorted(n for t in theirs for n in t if any(n in m for m in mine))
            if clash:
                raise ValueError(f"cannot adopt: {clash} already registered")
            for m, t in zip(mine, theirs):
                m.update(t)
            other._counters, other._gauges, other._histograms = mine
            other._lock = self._lock

    def snapshot(self) -> dict:
        """``{"counters": {...}, "gauges": {...}, "histograms": {...}}``."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {n: h.snapshot() for n, h in sorted(histograms.items())},
        }

