"""Performance models and the paper's benchmark scenario.

* :mod:`~repro.perf.scenario` — the section 5.3 benchmark (100 streamlines
  x 200 points) and the Table 3 max-particle extrapolation.
* :mod:`~repro.perf.pipeline` — the figure 8/9 pipeline-overlap model:
  what overlapping disk load, computation, and network send buys over
  running them serially.
* :mod:`~repro.perf.wire` — the v2 wire-efficiency model: what deltas
  and quantization buy against Table 1's 12 bytes/point
  (docs/network.md).

Everything else about where a frame's time goes is measured, not
modelled: ``benchmarks/e2e`` (see its README) times every layer of four
whole sessions, and is the one regression gate.
"""

from repro.perf.scenario import (
    BENCHMARK_POINTS,
    PAPER_TIMINGS,
    benchmark_seeds,
    max_particles_at_fps,
    table3_rows,
)
from repro.perf.pipeline import (
    PipelineResult,
    compare_to_model,
    simulate_pipeline,
)
from repro.perf.wire import SessionWireModel, frame_payload_bytes

__all__ = [
    "SessionWireModel",
    "frame_payload_bytes",
    "BENCHMARK_POINTS",
    "PAPER_TIMINGS",
    "benchmark_seeds",
    "max_particles_at_fps",
    "table3_rows",
    "PipelineResult",
    "simulate_pipeline",
    "compare_to_model",
]
