"""The headless session driver and the bounded parallel sweep runner.

One :func:`run_scenario` is a complete windtunnel session with no socket
and no workstation: the same :class:`~repro.core.engine.ComputeEngine`,
:class:`~repro.core.pipeline.FramePipeline` (never started — each
``produce_inline()`` runs the stages on the worker's thread through the
identical stage code the live server uses), and
:class:`~repro.core.framestore.FrameStore` as the interactive path,
driven by an injected clock one timestep per frame.
Every run gets its own :class:`~repro.obs.MetricsRegistry`, passed to
everything the run builds, so concurrently-running scenarios cannot bleed
counters into each other and a run's snapshot is *its* story alone.

The wire is modeled, not opened: each published frame is composed into
the scenario's subscribed encoding (the same
:class:`~repro.core.framestore.EncodingCache` path a v2 subscriber
exercises) and, when the scenario carries a fault profile, pushed
through a :class:`~repro.netsim.faults.FaultyChannel` over an in-memory
loopback so drop/corrupt/stall counters land in the run's registry
exactly as a soak test's would.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.engine import ComputeEngine, ToolSettings
from repro.core.environment import Environment
from repro.core.framestore import FrameStore
from repro.core.pipeline import FramePipeline
from repro.diskio.cache import TieredTimestepCache, TimestepCache
from repro.diskio.loader import TimestepLoader
from repro.flow import tapered_cylinder_dataset
from repro.netsim.channel import VirtualClock
from repro.netsim.faults import FaultPlan, FaultyChannel
from repro.obs import MetricsRegistry
from repro.sweep.manifest import Scenario, ScenarioError, SweepManifest
from repro.sweep.results import ResultsStore
from repro.tracers.rake import Rake

__all__ = ["run_scenario", "SweepRunner", "SweepOutcome", "DatasetPool"]

#: Metrics every run record reports (the comparison report's join set).
RUN_METRICS = (
    "frame_seconds_p50",
    "frame_seconds_p95",
    "bytes_per_frame",
    "encodes_per_publication",
    "points_total",
    "faults_injected",
)


class _LoopbackStream:
    """A minimal in-memory Stream target for :class:`FaultyChannel`."""

    def __init__(self) -> None:
        self.frames: list[bytes] = []
        self.bytes_sent = 0
        self.bytes_received = 0
        self.closed = False

    def send(self, payload: bytes) -> None:
        if self.closed:
            raise ConnectionError("loopback closed")
        self.frames.append(payload)
        self.bytes_sent += len(payload)

    def recv(self) -> bytes:  # pragma: no cover - sweep runs only send
        raise ConnectionError("loopback is send-only")

    def close(self) -> None:
        self.closed = True


def _build_rakes(scenario: Scenario, grid) -> dict[int, Rake]:
    """Materialize the layout's fractional endpoints in physical space."""
    nodes = np.asarray(grid.xyz, dtype=np.float64).reshape(-1, 3)
    lo = nodes.min(axis=0)
    span = nodes.max(axis=0) - lo
    rakes: dict[int, Rake] = {}
    for i, spec in enumerate(scenario.rakes):
        a = lo + span * np.asarray(spec.a)
        b = lo + span * np.asarray(spec.b)
        rid = i + 1
        rakes[rid] = Rake(a, b, n_seeds=spec.seeds, kind=spec.kind, rake_id=rid)
    return rakes


class DatasetPool:
    """Datasets and shared tier-1 timestep caches, keyed by geometry.

    Scenarios in a sweep grid overwhelmingly vary tool parameters
    (steps, quality, encoding, faults) over a handful of distinct
    datasets, yet the naive runner rebuilt the dataset — and re-decoded
    every timestep — once per grid point.  The pool holds one dataset
    and one :class:`~repro.diskio.cache.TimestepCache` (tier 1 of the
    caching ladder, docs/caching.md) per ``(shape, timesteps)`` key, so
    N scenarios over one dataset pay for its timesteps once.

    Safe under the sweep's thread pool: the pool dict, the dataset's
    internal decode cache, and the shared :class:`TimestepCache` are all
    lock-guarded, and cached timesteps are read-only views.  The shared
    cache's counters are kept *out* of per-run registries — attribution
    of a hit to one of several concurrent runs is scheduling-dependent,
    and run records must stay byte-deterministic; aggregate totals are
    reported once in the sweep summary instead.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[tuple, tuple] = {}
        self.datasets_built = 0
        self.reuses = 0

    def acquire(self, scenario: Scenario):
        """The ``(dataset, shared tier-1 cache)`` pair for a scenario."""
        key = (tuple(scenario.shape), int(scenario.timesteps))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.reuses += 1
                return entry
        # Build outside the pool lock: decoding a dataset is the slow
        # part, and stalling every other geometry behind it would
        # serialize the sweep's warmup.
        dataset = tapered_cylinder_dataset(
            shape=key[0], n_timesteps=key[1], dt=0.25
        )
        cache = TimestepCache(capacity_timesteps=max(2, key[1]))
        with self._lock:
            entry = self._entries.setdefault(key, (dataset, cache))
            if entry[0] is not dataset:  # lost the build race; count reuse
                self.reuses += 1
            else:
                self.datasets_built += 1
            return entry

    def snapshot(self) -> dict:
        """Aggregate reuse totals for the sweep summary."""
        with self._lock:
            entries = list(self._entries.values())
            out = {
                "datasets": len(entries),
                "datasets_built": self.datasets_built,
                "dataset_reuses": self.reuses,
            }
        out["l1_hits"] = sum(c.stats.hits.value for _, c in entries)
        out["l1_misses"] = sum(c.stats.misses.value for _, c in entries)
        out["l1_resident_bytes"] = sum(c.resident_bytes for _, c in entries)
        return out


def run_scenario(
    scenario: Scenario,
    *,
    keyframe_path: str | Path | None = None,
    registry: MetricsRegistry | None = None,
    dataset=None,
    timestep_cache: TimestepCache | None = None,
) -> dict:
    """Execute one headless run; returns its plain-data run record.

    ``dataset`` and ``timestep_cache`` let a caller (the sweep runner's
    :class:`DatasetPool`) share one dataset and one tier-1 timestep
    cache across runs over the same geometry; both default to private
    per-run instances, preserving the historical fully-isolated run.

    Raises :class:`ScenarioError` for inputs the manifest layer could
    not have rejected statically (none are currently known — the
    manifest validates eagerly); any other exception is a bug in the
    engine stack, which is precisely what the scenario-fuzz suite hunts.
    """
    registry = registry if registry is not None else MetricsRegistry()
    started = time.perf_counter()
    if dataset is None:
        dataset = tapered_cylinder_dataset(
            shape=scenario.shape, n_timesteps=scenario.timesteps, dt=0.25
        )
    env = Environment(
        n_timesteps=scenario.timesteps, time_speed=scenario.time_speed
    )
    rakes = _build_rakes(scenario, dataset.grid)
    with env.lock:
        for rid, rake in rakes.items():
            env.add_rake(rake, rake_id=rid)

    settings = ToolSettings(
        streamline_steps=scenario.streamline_steps,
        streakline_length=scenario.streakline_length,
    )
    if scenario.quality < 1.0:
        settings = settings.scaled(scenario.quality)
    engine = ComputeEngine(dataset, settings, registry=registry)
    store = FrameStore(registry=registry)
    clock = {"now": 0.0}
    pipeline = FramePipeline(
        engine,
        env,
        store,
        time_fn=lambda: clock["now"],
        registry=registry,
    )
    if timestep_cache is not None:
        # Attach the shared tier-1 cache *after* pipeline construction,
        # deliberately skipping the pipeline's adoption of the loader's
        # registry: the cache is shared across concurrently-running
        # scenarios, so per-run hit/miss attribution is
        # scheduling-dependent and would break the run record's
        # byte-determinism.  Totals surface in the sweep summary via
        # :meth:`DatasetPool.snapshot`.
        engine.loader = TimestepLoader(
            dataset,
            cache=TieredTimestepCache(dataset, l1=timestep_cache),
            prefetch=False,  # serial runs; background staging buys nothing
        )

    plan = None
    channel = None
    loopback = _LoopbackStream()
    profile = scenario.fault_profile
    if profile.active:
        plan = FaultPlan(
            seed=profile.seed,
            drop_rate=profile.drop_rate,
            duplicate_rate=profile.duplicate_rate,
            corrupt_rate=profile.corrupt_rate,
            stall_rate=profile.stall_rate,
            stall_seconds=profile.stall_seconds,
        )
        # A VirtualClock accumulates modeled stalls instead of sleeping,
        # so a stall-heavy profile costs the sweep no wall time.
        channel = FaultyChannel(
            loopback, plan, clock=VirtualClock(), registry=registry
        )

    frame_hist = registry.histogram("sweep.frame_seconds")
    bytes_hist = registry.histogram("sweep.frame_bytes")
    frames_run = registry.counter("sweep.frames")

    points_total = 0
    wire_bytes_total = 0
    variant_encodes = 0
    last_frame = None
    # One timestep per frame: drive the injected wall clock by exactly
    # the clock's own step so the run covers the dataset deterministically.
    step_seconds = 1.0 / scenario.time_speed
    for i in range(scenario.frames):
        t0 = time.perf_counter()
        frame = pipeline.produce_inline()
        rids = sorted(frame.paths)
        misses_before = frame.enc_cache.misses
        composed = frame.compose(rids, scenario.encoding, scenario.decimate)
        frame_seconds = time.perf_counter() - t0
        if i > 0 or scenario.frames == 1:
            # Frame 0 pays one-time costs (seed location, allocator and
            # cache warmup) no steady-state client ever sees; keeping it
            # out of the latency quantiles keeps small smoke sweeps from
            # reporting warmup noise as regression.
            frame_hist.observe(frame_seconds)
        bytes_hist.observe(float(composed.nbytes))
        frames_run.inc()
        points_total += frame.n_points
        wire_bytes_total += composed.nbytes
        variant_encodes += frame.enc_cache.misses - misses_before
        if channel is not None:
            try:
                channel.send(composed.data)
            except ConnectionError:
                pass  # a modeled mid-frame disconnect; counters recorded
        last_frame = frame
        clock["now"] += step_seconds

    if keyframe_path is not None and last_frame is not None:
        from repro.render.keyframe import capture_keyframe

        capture_keyframe(
            last_frame, dataset.grid, rakes=rakes, path=keyframe_path
        )

    frames = scenario.frames
    snap = registry.snapshot()
    fault_counters = {
        name.split(".", 1)[1]: value
        for name, value in snap["counters"].items()
        if name.startswith("faults.")
    }
    faults_injected = sum(
        fault_counters.get(k, 0)
        for k in ("drops", "duplicates", "corruptions", "stalls", "disconnects")
    )
    base_encodes = len(last_frame.paths) if last_frame is not None else 0
    metrics = {
        "frames": frames,
        "frame_seconds_p50": frame_hist.quantile(0.5),
        "frame_seconds_p95": frame_hist.quantile(0.95),
        "frame_seconds_mean": frame_hist.stats.mean,
        "bytes_per_frame": wire_bytes_total / frames,
        "encodes_per_publication": base_encodes + variant_encodes / frames,
        "base_encodes_per_publication": base_encodes,
        "points_total": points_total,
        "points_per_frame": points_total / frames,
        "wire_bytes_total": wire_bytes_total,
        "delivered_bytes": loopback.bytes_sent,
        "faults_injected": faults_injected,
        "faults": fault_counters,
        "elapsed_seconds": time.perf_counter() - started,
    }
    return {
        "scenario_id": scenario.scenario_id,
        "label": scenario.label(),
        "scenario": scenario.params(),
        "status": "ok",
        "metrics": metrics,
        "obs": {"counters": snap["counters"], "gauges": snap["gauges"]},
    }


@dataclass
class SweepOutcome:
    """What a sweep execution produced, before/beside the store on disk."""

    store: ResultsStore
    records: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> int:
        return sum(1 for r in self.records if r["status"] == "ok")

    @property
    def errors(self) -> list[dict]:
        return [r for r in self.records if r["status"] == "error"]

    @property
    def succeeded(self) -> bool:
        return bool(self.records) and all(
            r["status"] == "ok" for r in self.records
        )


class SweepRunner:
    """Expand a manifest and execute its grid on a bounded worker pool.

    Workers are threads: a headless run spends its time inside NumPy
    kernels (which release the GIL) and the per-run *mutable* state is
    fully isolated — separate engines, stores, and metrics registries
    (each passed explicitly to what the run builds).  Read-only
    state is shared: a :class:`DatasetPool` hands scenarios over the
    same geometry one dataset and one tier-1 timestep cache
    (``share_datasets=False`` restores full per-run isolation).
    ``workers`` bounds concurrency the way the gateway's admission
    controller bounds seats: the grid can be arbitrarily large, the
    in-flight set cannot.
    """

    def __init__(
        self,
        manifest: SweepManifest,
        store: ResultsStore | str | Path,
        *,
        workers: int = 4,
        keyframes: bool = False,
        share_datasets: bool = True,
    ) -> None:
        if workers < 1:
            raise ScenarioError("workers", "worker pool needs at least one worker")
        self.manifest = manifest
        self.store = store if isinstance(store, ResultsStore) else ResultsStore(store)
        self.workers = int(workers)
        self.keyframes = bool(keyframes)
        self.dataset_pool = DatasetPool() if share_datasets else None

    def run(self, *, progress=None) -> SweepOutcome:
        """Execute every scenario; returns the outcome (store populated).

        ``progress`` is an optional callable receiving each finished run
        record (the CLI prints a line per scenario from it).  A scenario
        whose run raises is recorded with ``status: "error"`` (or
        ``"rejected"`` for a typed :class:`ScenarioError`) instead of
        aborting the sweep — one pathological grid point must not cost
        the other N-1 their results.
        """
        scenarios = self.manifest.expand()
        started = time.time()
        self.store.initialize(
            {
                "manifest": self.manifest.to_dict(),
                "manifest_digest": self.manifest.digest,
                "n_scenarios": len(scenarios),
            }
        )
        records: list[dict] = []
        with ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="wt-sweep"
        ) as pool:
            futures = [
                pool.submit(self._run_one, scenario) for scenario in scenarios
            ]
            for future in futures:
                record = future.result()
                self.store.write_run(record)
                records.append(record)
                if progress is not None:
                    progress(record)
        summary = {
            "scenarios": len(records),
            "ok": sum(1 for r in records if r["status"] == "ok"),
            "rejected": sum(1 for r in records if r["status"] == "rejected"),
            "errors": sum(1 for r in records if r["status"] == "error"),
            "wall_seconds": time.time() - started,
            "workers": self.workers,
        }
        if self.dataset_pool is not None:
            summary["dataset_cache"] = self.dataset_pool.snapshot()
        self.store.finalize(summary)
        return SweepOutcome(store=self.store, records=records)

    def _run_one(self, scenario: Scenario) -> dict:
        keyframe = (
            self.store.keyframe_path(scenario.scenario_id)
            if self.keyframes
            else None
        )
        try:
            dataset = cache = None
            if self.dataset_pool is not None:
                dataset, cache = self.dataset_pool.acquire(scenario)
            return run_scenario(
                scenario,
                keyframe_path=keyframe,
                dataset=dataset,
                timestep_cache=cache,
            )
        except ScenarioError as exc:
            return {
                "scenario_id": scenario.scenario_id,
                "label": scenario.label(),
                "scenario": scenario.params(),
                "status": "rejected",
                "error": {"type": "ScenarioError", "key": exc.key, "message": str(exc)},
            }
        except Exception as exc:  # noqa: BLE001 - recorded, surfaced via exit code
            return {
                "scenario_id": scenario.scenario_id,
                "label": scenario.label(),
                "scenario": scenario.params(),
                "status": "error",
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
