"""Timing utilities for frame-budget accounting.

The whole point of the paper's architecture is a hard real-time budget: the
full command -> compute -> transfer -> render cycle must finish in under
1/8 s (section 1.2).  These helpers measure wall-clock stage times and keep
running statistics so the benchmarks can report budget compliance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field


@dataclass
class TimingStats:
    """Streaming mean/min/max/variance of a series of durations (seconds).

    Uses Welford's algorithm so arbitrarily long runs stay numerically
    stable without storing samples.
    """

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    min: float = math.inf
    max: float = 0.0
    total: float = 0.0

    def add(self, value: float) -> None:
        if value < 0.0:
            raise ValueError("durations must be non-negative")
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.total += value

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def rate(self) -> float:
        """Mean events per second (e.g. frame rate), 0 if unmeasured."""
        return 1.0 / self.mean if self.mean > 0.0 else 0.0

    def summary(self) -> str:
        if self.count == 0:
            return "no samples"
        return (
            f"n={self.count} mean={self.mean * 1e3:.2f}ms "
            f"min={self.min * 1e3:.2f}ms max={self.max * 1e3:.2f}ms "
            f"sd={self.stddev * 1e3:.2f}ms"
        )


class Stopwatch:
    """Context-manager stopwatch feeding a :class:`TimingStats`.

    >>> stats = TimingStats()
    >>> with Stopwatch(stats):
    ...     pass
    >>> stats.count
    1
    """

    def __init__(self, stats: TimingStats | None = None) -> None:
        self.stats = stats
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start
        if self.stats is not None:
            self.stats.add(self.elapsed)


@dataclass
class FrameTimer:
    """Per-stage frame timing against a hard budget.

    ``budget`` defaults to the paper's 1/8 s requirement.  Each named stage
    accumulates its own :class:`TimingStats`; :meth:`within_budget_fraction`
    reports how many whole frames met the budget.
    """

    budget: float = 0.125
    stages: dict[str, TimingStats] = field(default_factory=dict)
    frames: TimingStats = field(default_factory=TimingStats)
    frames_within_budget: int = 0

    def stage(self, name: str) -> Stopwatch:
        """Return a stopwatch recording into the named stage."""
        stats = self.stages.setdefault(name, TimingStats())
        return Stopwatch(stats)

    def frame(self, duration: float) -> None:
        """Record a whole-frame duration."""
        self.frames.add(duration)
        if duration <= self.budget:
            self.frames_within_budget += 1

    @property
    def within_budget_fraction(self) -> float:
        if self.frames.count == 0:
            return 0.0
        return self.frames_within_budget / self.frames.count

    def report(self) -> str:
        lines = [
            f"frames: {self.frames.summary()} "
            f"({self.within_budget_fraction * 100:.0f}% within "
            f"{self.budget * 1e3:.0f}ms budget)"
        ]
        for name, stats in sorted(self.stages.items()):
            lines.append(f"  {name}: {stats.summary()}")
        return "\n".join(lines)
