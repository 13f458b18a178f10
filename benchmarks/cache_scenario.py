"""The tiered timestep-cache scenario: co-located replay, measured.

Replays one small unsteady dataset through the three-tier cache ladder
(docs/caching.md) twice over:

* **Baseline** — one session, private L1 only, sized to *thrash* (the
  replay cycle is longer than the LRU), so every pass pays the modeled
  disk again.  This is the paper's Table 2 world: each session is alone
  against the disk.
* **Fleet** — ``N_SESSIONS`` co-located sessions attached to one
  shared-memory tier-2 segment, replaying in lockstep.  The first
  session faults each timestep in; the rest find it in the segment, so
  the *aggregate* modeled disk time collapses toward one session's
  single pass.

Disk time is modeled (the ``DiskModel`` charge flows through an
injected sleep that accumulates instead of sleeping), so both numbers
are deterministic and the lane runs in milliseconds.  The lane also
proves the cache is *transparent*: frames produced through the cached
loader are bit-identical to the uncached path.

The scenario behind ``benchmarks/test_cache_tiers.py``.
"""

from __future__ import annotations

import os
import sys
from itertools import count
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import ComputeEngine, ToolSettings  # noqa: E402
from repro.core.environment import Environment  # noqa: E402
from repro.core.framestore import FrameStore  # noqa: E402
from repro.core.pipeline import FramePipeline  # noqa: E402
from repro.diskio import CONVEX_DISK, TieredTimestepCache, TimestepLoader  # noqa: E402
from repro.diskio.shmcache import SharedTimestepCache  # noqa: E402
from repro.flow import tapered_cylinder_dataset  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.tracers import Rake  # noqa: E402

FAST = bool(os.environ.get("WT_BENCH_FAST"))

#: The replayed dataset — small enough that the whole lane is modeled
#: arithmetic plus a few shm copies.
SHAPE = (12, 12, 6)
TIMESTEPS = 6
#: Co-located sessions sharing one tier-2 segment.
N_SESSIONS = 4
#: Full replay passes over the dataset per session.
PASSES = 2 if FAST else 3
#: Tier-1 LRU budget, deliberately smaller than the replay cycle so the
#: baseline thrashes and the fleet exercises tier 2 every pass.
L1_TIMESTEPS = 2
#: Tier-2 slots — enough for the whole dataset to stay resident.
SLOTS = 8
#: CI gates: fleet aggregate disk seconds vs one baseline session, and
#: the fleet's conditional tier-2 hit rate.
RATIO_GATE = 1.3
L2_HIT_GATE = 0.7
#: Frames produced for the bit-identical transparency check.
IDENTITY_FRAMES = 4 if FAST else 6

_seq = count(1)


def _replay(cache: TieredTimestepCache, passes: int) -> None:
    for _ in range(passes):
        for t in range(TIMESTEPS):
            cache.get(t)


def _lockstep_replay(sessions: list[TieredTimestepCache], passes: int) -> None:
    """All sessions visit each timestep before any moves on — the
    co-located steady state, where one fault warms everybody."""
    for _ in range(passes):
        for t in range(TIMESTEPS):
            for s in sessions:
                s.get(t)


def _produce_frames(dataset, with_cache: bool) -> list[bytes]:
    """Drive the serial pipeline for a few frames; return composed bytes."""
    registry = MetricsRegistry()
    env = Environment(n_timesteps=TIMESTEPS, time_speed=2.0)
    nodes = dataset.grid.xyz.reshape(-1, 3)
    lo, span = nodes.min(axis=0), np.ptp(nodes, axis=0)
    rake = Rake(
        lo + span * 0.3, lo + span * 0.7, n_seeds=6,
        kind="streamline", rake_id=1,
    )
    with env.lock:
        env.add_rake(rake, rake_id=1)
    loader = None
    if with_cache:
        loader = TimestepLoader(
            dataset,
            cache=TieredTimestepCache(dataset, l1_timesteps=L1_TIMESTEPS),
            prefetch=False,
        )
    engine = ComputeEngine(
        dataset,
        ToolSettings(streamline_steps=16),
        loader=loader,
        registry=registry,
    )
    store = FrameStore(registry=registry)
    clock = {"now": 0.0}
    pipeline = FramePipeline(
        engine, env, store,
        time_fn=lambda: clock["now"], registry=registry,
    )
    frames = []
    for _ in range(IDENTITY_FRAMES):
        frame = pipeline.produce_inline()
        rids = sorted(frame.paths)
        frames.append(bytes(frame.compose(rids, "v1").data))
        clock["now"] += 0.5
    if loader is not None:
        loader.close()
    return frames


def run_cache_scenario() -> dict:
    """Run the measurement once; returns the result the gate asserts on."""
    dataset = tapered_cylinder_dataset(
        shape=SHAPE, n_timesteps=TIMESTEPS, dt=0.25
    )
    charges: list[float] = []

    # -- baseline: one session, L1 only, thrashing replay ------------------
    baseline = TieredTimestepCache(
        dataset, disk_model=CONVEX_DISK, l1_timesteps=L1_TIMESTEPS,
        sleep=charges.append,
    )
    _replay(baseline, PASSES)
    baseline_disk_seconds = baseline.source.stats.stall_seconds.value
    baseline_reads = baseline.source.stats.hits.value
    baseline.close()

    # -- fleet: N sessions on one shared tier-2 segment --------------------
    seg_name = f"wt-b9-{os.getpid()}-{next(_seq)}"
    owner = SharedTimestepCache.for_dataset(
        dataset, name=seg_name, slots=SLOTS, create="always"
    )
    sessions = [
        TieredTimestepCache(
            dataset, disk_model=CONVEX_DISK, l1_timesteps=L1_TIMESTEPS,
            sleep=charges.append,
            l2=SharedTimestepCache.for_dataset(
                dataset, name=seg_name, slots=SLOTS, create="never"
            ),
        )
        for _ in range(N_SESSIONS)
    ]
    try:
        _lockstep_replay(sessions, PASSES)
        aggregate_disk_seconds = sum(
            s.source.stats.stall_seconds.value for s in sessions
        )
        source_reads = sum(s.source.stats.hits.value for s in sessions)
        l1_hits = sum(s.l1.stats.hits.value for s in sessions)
        l2_hits = sum(s.l2.stats.hits.value for s in sessions)
        accesses = N_SESSIONS * PASSES * TIMESTEPS
    finally:
        for s in sessions:
            s.close()
        owner.close()

    l2_hit_rate = l2_hits / max(1, l2_hits + source_reads)
    ratio = aggregate_disk_seconds / max(baseline_disk_seconds, 1e-12)

    # -- transparency: cached and uncached frames are bit-identical -------
    frames_cached = _produce_frames(dataset, with_cache=True)
    frames_plain = _produce_frames(dataset, with_cache=False)
    frames_identical = frames_cached == frames_plain

    return {
        "baseline": {
            "disk_seconds": baseline_disk_seconds,
            "source_reads": int(baseline_reads),
        },
        "fleet": {
            "disk_seconds": aggregate_disk_seconds,
            "source_reads": int(source_reads),
            "l1_hits": int(l1_hits),
            "l2_hits": int(l2_hits),
            "accesses": int(accesses),
            "l2_hit_rate": l2_hit_rate,
        },
        "aggregate_disk_ratio": ratio,
        "frames_identical": frames_identical,
    }
