"""Observability: the metrics registry and request tracing.

The paper's entire argument is a latency budget — 1/8 s per frame split
across compute, encode, network, and render (section 5, Tables 1-3) —
yet a budget you cannot attribute is a budget you cannot hold.  This
package gives every layer one place to put its numbers:

* :mod:`~repro.obs.registry` — a :class:`MetricsRegistry`
  of counters, gauges, and bounded-window latency histograms (p50/p95/p99
  over a ``deque`` of recent samples), snapshotted
  as plain wire-encodable data for the ``wt.metrics`` RPC.
* :mod:`~repro.obs.trace` — per-RPC request tracing: the client stamps a
  trace ID into the message header, the server dispatch opens a span
  tree around the call (queue wait -> handler -> encode -> socket
  write), and the windtunnel's ``wt.frame`` handler grafts the served
  frame's production stages (load -> locate -> integrate -> encode)
  into it, so one traced call explains where its whole latency went.

Everything here is dependency-free within the repo (NumPy + stdlib) and
safe to call from any thread.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    Span,
    Trace,
    TraceCollector,
    current_trace,
    format_trace,
    use_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Trace",
    "TraceCollector",
    "current_trace",
    "format_trace",
    "use_trace",
]
