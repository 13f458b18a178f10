"""Frame-budget governors: trading richness for frame rate and bandwidth.

Section 1.2: "a tradeoff must be made between a rich environment and
frame rate", with a hard 1/8 s ceiling and a 10 fps target.  Two feedback
controllers hold that budget from opposite ends of the wire:

* :class:`FrameBudgetGovernor` watches measured *compute* times and
  adjusts a quality scalar the compute engine applies to path lengths.
* :class:`DegradationPolicy` watches measured *delivery* throughput and
  walks a per-client encoding ladder (full → delta → quantized →
  decimated), shrinking bytes/frame as the channel degrades — the
  software answer to UltraNet shipping 1 MB/s of its rated 13
  (docs/network.md, "Adaptive degradation").

Invariants:

* The compute governor lives on the frame pipeline's *producer* thread,
  not the RPC path: it is fed the production cost of each published
  frame (load + locate + integrate), so quality tracks what actually
  bounds the frame period under figure 8's overlapped architecture, and
  a storm of cheap cached ``wt.frame`` reads can no longer dilute the
  feedback signal.
* The degradation policy never changes *what* a frame contains, only how
  it is encoded for one subscriber; it is consulted on the dlib service
  thread, whose serial FCFS dispatch means per-client state needs no
  locking (docs/architecture.md, "Serial service").
* Both are pure feedback loops over numbers fed to them — neither reads
  clocks or sockets itself, so tests drive them deterministically.
"""

from __future__ import annotations

__all__ = ["DegradationPolicy", "FrameBudgetGovernor"]


class FrameBudgetGovernor:
    """Multiplicative-increase / multiplicative-decrease quality control.

    ``quality`` in ``[min_quality, 1]`` scales the tracer workload.  A
    frame over ``target`` (default 80% of the hard budget, leaving head-
    room for network and rendering) cuts quality; sustained headroom
    raises it gently.  Assuming the computation scales linearly with the
    particle count (the paper's Table 3 assumption), quality maps straight
    onto achievable particles.
    """

    def __init__(
        self,
        budget: float = 0.125,
        *,
        target_fraction: float = 0.8,
        min_quality: float = 0.05,
        decrease: float = 0.7,
        increase: float = 1.05,
    ) -> None:
        if budget <= 0:
            raise ValueError("budget must be positive")
        if not (0.0 < target_fraction <= 1.0):
            raise ValueError("target_fraction must be in (0, 1]")
        if not (0.0 < min_quality <= 1.0):
            raise ValueError("min_quality must be in (0, 1]")
        if not (0.0 < decrease < 1.0 < increase):
            raise ValueError("need decrease < 1 < increase")
        self.budget = float(budget)
        self.target = float(budget * target_fraction)
        self.min_quality = float(min_quality)
        self._decrease = float(decrease)
        self._increase = float(increase)
        self.quality = 1.0
        self.frames_over_budget = 0
        self.frames_recorded = 0
        self._quality_gauge = None
        self._recorded_counter = None
        self._over_budget_counter = None

    def bind_registry(self, registry) -> "FrameBudgetGovernor":
        """Mirror governor state into a metrics registry (``governor.*``).

        Every :meth:`record` thereafter updates the ``governor.quality``
        gauge and the recorded / over-budget counters, so the feedback
        loop is visible through ``wt.metrics`` without a bespoke RPC.
        """
        self._quality_gauge = registry.gauge("governor.quality")
        self._recorded_counter = registry.counter("governor.frames_recorded")
        self._over_budget_counter = registry.counter("governor.frames_over_budget")
        self._quality_gauge.set(self.quality)
        return self

    def record(self, frame_seconds: float) -> float:
        """Feed one measured frame time; returns the updated quality."""
        if frame_seconds < 0:
            raise ValueError("frame time must be non-negative")
        self.frames_recorded += 1
        if self._recorded_counter is not None:
            self._recorded_counter.inc()
        if frame_seconds > self.budget:
            self.frames_over_budget += 1
            if self._over_budget_counter is not None:
                self._over_budget_counter.inc()
        if frame_seconds > self.target:
            # Scale down proportionally to the overshoot, bounded by the
            # configured decrease factor.
            factor = max(self._decrease, self.target / frame_seconds)
            self.quality = max(self.min_quality, self.quality * factor)
        elif frame_seconds < 0.6 * self.target:
            self.quality = min(1.0, self.quality * self._increase)
        if self._quality_gauge is not None:
            self._quality_gauge.set(self.quality)
        return self.quality

    @property
    def over_budget_fraction(self) -> float:
        if self.frames_recorded == 0:
            return 0.0
        return self.frames_over_budget / self.frames_recorded

    def reset(self) -> None:
        self.quality = 1.0
        self.frames_over_budget = 0
        self.frames_recorded = 0
        if self._quality_gauge is not None:
            self._quality_gauge.set(self.quality)

    def to_wire(self) -> dict:
        """Serializable state for ``wt.pipeline_stats``."""
        return {
            "quality": self.quality,
            "budget": self.budget,
            "target": self.target,
            "frames_recorded": self.frames_recorded,
            "frames_over_budget": self.frames_over_budget,
            "over_budget_fraction": self.over_budget_fraction,
        }


#: The degradation ladder, mildest first.  Each rung overrides the
#: subscriber's negotiated (encoding, decimate) pair; deltas are always
#: on for v2 subscribers and are not a rung (they cost nothing when the
#: scene churns, everything helps when it doesn't).
DEGRADATION_LADDER = (
    {"encoding": None, "decimate": 1},    # 0: as negotiated (full fidelity)
    {"encoding": "q16", "decimate": 1},   # 1: quantize, packed (<= 6 bytes/point)
    {"encoding": "q16", "decimate": 2},   # 2: + every 2nd point
    {"encoding": "q16", "decimate": 4},   # 3: + every 4th point
)


class DegradationPolicy:
    """Throughput-driven ladder over wire encodings for one subscriber.

    Feed it observations — ``note_send(nbytes, seconds)`` from the
    server's post-send hook and/or ``note_reported(bytes_per_second)``
    from the client's own goodput estimate — and read ``level`` /
    :meth:`plan`.  An EWMA smooths the signal; hysteresis (distinct
    escalate/recover thresholds plus a hold-down count) keeps the ladder
    from flapping at a boundary.

    The thresholds default to the paper's regime: escalate when measured
    throughput cannot carry the recent frame size at the 8 fps target,
    recover only when it could at twice that rate.
    """

    def __init__(
        self,
        *,
        target_fps: float = 8.0,
        alpha: float = 0.3,
        recover_margin: float = 2.0,
        hold_frames: int = 4,
    ) -> None:
        if target_fps <= 0:
            raise ValueError("target_fps must be positive")
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")
        if recover_margin < 1.0:
            raise ValueError("recover_margin must be >= 1")
        self.target_fps = float(target_fps)
        self._alpha = float(alpha)
        self._recover_margin = float(recover_margin)
        self._hold_frames = int(hold_frames)
        self.level = 0
        self.throughput = 0.0  # EWMA bytes/second, 0 = no signal yet
        self.frame_bytes = 0.0  # EWMA bytes/frame actually sent
        self.escalations = 0
        self.recoveries = 0
        self._hold = 0
        self._level_gauge = None
        self._escalations_counter = None

    def bind_registry(self, registry, prefix: str = "net.degradation"):
        """Mirror ladder state into a metrics registry (``net.*``)."""
        self._level_gauge = registry.gauge(f"{prefix}.level")
        self._escalations_counter = registry.counter(f"{prefix}.escalations")
        self._level_gauge.set(float(self.level))
        return self

    def _ewma(self, current: float, sample: float) -> float:
        if current == 0.0:
            return sample
        return (1.0 - self._alpha) * current + self._alpha * sample

    def note_send(self, nbytes: int, seconds: float) -> None:
        """One response left the server: nbytes over seconds of socket time."""
        if nbytes <= 0:
            return
        self.frame_bytes = self._ewma(self.frame_bytes, float(nbytes))
        if seconds > 0:
            self.note_reported(nbytes / seconds)
        else:
            self._evaluate()

    def note_reported(self, bytes_per_second: float) -> None:
        """Client-measured goodput (the receive side of the same wire)."""
        if bytes_per_second <= 0:
            return
        self.throughput = self._ewma(self.throughput, float(bytes_per_second))
        self._evaluate()

    def _evaluate(self) -> None:
        if self.throughput <= 0.0 or self.frame_bytes <= 0.0:
            return
        needed = self.frame_bytes * self.target_fps
        if self._hold > 0:
            self._hold -= 1
            return
        if self.throughput < needed and self.level < len(DEGRADATION_LADDER) - 1:
            self.level += 1
            self.escalations += 1
            self._hold = self._hold_frames
            if self._escalations_counter is not None:
                self._escalations_counter.inc()
        elif (
            self.throughput > needed * self._recover_margin and self.level > 0
        ):
            self.level -= 1
            self.recoveries += 1
            self._hold = self._hold_frames
        if self._level_gauge is not None:
            self._level_gauge.set(float(self.level))

    def plan(self, encoding: str, decimate: int) -> tuple[str, int]:
        """Apply the current rung to a subscriber's negotiated settings.

        Never *upgrades*: a client that asked for q16 keeps q16 at rung
        0, and a client's own decimation is kept if coarser than the
        rung's.
        """
        rung = DEGRADATION_LADDER[self.level]
        if encoding == "v1" and rung["encoding"] is not None:
            encoding = rung["encoding"]
        return encoding, max(int(decimate), int(rung["decimate"]))

    def to_wire(self) -> dict:
        """Serializable state for ``wt.subscribe`` responses and stats."""
        rung = DEGRADATION_LADDER[self.level]
        return {
            "level": self.level,
            "encoding": rung["encoding"],
            "decimate": rung["decimate"],
            "throughput": self.throughput,
            "frame_bytes": self.frame_bytes,
            "escalations": self.escalations,
            "recoveries": self.recoveries,
        }
