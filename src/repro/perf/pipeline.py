"""Pipeline-overlap model for the figure 8/9 architectures.

Figure 8: on the remote system "computation of the visualizations can
occur while the data from the previous computation is sent to the
network...  If the timesteps are being loaded from disk, that loading can
also occur in parallel."  Each stage is a dedicated process; frame ``f``
flows load -> compute -> send.  With stage times ``t_i`` the steady-state
frame period is ``max(t_i)`` instead of ``sum(t_i)`` — this module
computes the exact schedule, including the pipeline fill.

Figure 9 is the same recurrence with the client's two stages (network,
render), and is covered by the same simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PipelineResult",
    "simulate_pipeline",
    "compare_to_model",
]


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of a pipeline schedule simulation."""

    stage_names: tuple[str, ...]
    stage_seconds: tuple[float, ...]
    n_frames: int
    serial_total: float
    overlapped_total: float
    completion_times: np.ndarray  # (n_frames,) finish time of the last stage

    @property
    def speedup(self) -> float:
        return self.serial_total / self.overlapped_total

    @property
    def serial_period(self) -> float:
        """Frame period without overlap: the sum of the stages."""
        return float(sum(self.stage_seconds))

    @property
    def steady_period(self) -> float:
        """Steady-state frame period with overlap: the slowest stage."""
        return float(max(self.stage_seconds))

    def sustains_fps(self, fps: float) -> bool:
        return self.steady_period <= 1.0 / fps


def simulate_pipeline(
    stages: dict[str, float] | list[tuple[str, float]],
    n_frames: int = 100,
) -> PipelineResult:
    """Simulate ``n_frames`` through a linear pipeline of dedicated stages.

    ``stages`` maps stage name to its per-frame duration, in flow order
    (e.g. ``{"load": 0.04, "compute": 0.08, "send": 0.02}``).  Each stage
    is a single resource: it can work on one frame at a time, and frame
    ``f`` cannot enter stage ``i`` before leaving stage ``i-1``.
    """
    if isinstance(stages, dict):
        items = list(stages.items())
    else:
        items = list(stages)
    if not items:
        raise ValueError("need at least one stage")
    names = tuple(n for n, _ in items)
    times = tuple(float(t) for _, t in items)
    # NaN fails every comparison, so `t < 0` alone would wave it through
    # and poison the whole schedule — check finiteness explicitly.
    if any(not np.isfinite(t) or t < 0 for t in times):
        raise ValueError("stage durations must be finite and non-negative")
    if n_frames < 1:
        raise ValueError("need at least one frame")

    n_stages = len(times)
    # finish[i] = when stage i finished its latest frame.
    finish = np.zeros(n_stages)
    completion = np.empty(n_frames)
    for f in range(n_frames):
        ready = 0.0  # when this frame's data is available to the next stage
        for i in range(n_stages):
            start = max(ready, finish[i])
            finish[i] = start + times[i]
            ready = finish[i]
        completion[f] = ready
    serial_total = sum(times) * n_frames
    return PipelineResult(
        stage_names=names,
        stage_seconds=times,
        n_frames=n_frames,
        serial_total=serial_total,
        overlapped_total=float(completion[-1]),
        completion_times=completion,
    )


def compare_to_model(
    stages: dict[str, float],
    measured_period: float,
    *,
    tolerance: float = 0.25,
    n_frames: int = 100,
) -> dict:
    """Check a measured steady-state frame period against the model.

    Used by the live-pipeline benchmark: feed it the *measured* per-stage
    times from ``wt.pipeline_stats`` and the measured publish period; it
    simulates the ideal schedule and reports whether the measurement is
    within ``tolerance`` (relative) of the model's steady period.
    """
    if not np.isfinite(measured_period) or measured_period <= 0:
        raise ValueError("measured_period must be a positive finite number")
    result = simulate_pipeline(stages, n_frames=n_frames)
    predicted = result.steady_period
    error = abs(measured_period - predicted) / predicted if predicted else 0.0
    return {
        "predicted_period": predicted,
        "serial_period": result.serial_period,
        "measured_period": measured_period,
        "relative_error": error,
        "within_tolerance": error <= tolerance,
        "speedup_vs_serial": result.serial_period / measured_period,
    }
