"""Figure 8 made real: the staged load -> compute -> publish frame pipeline.

The paper's figure 8 shows the remote system as *concurrent* processes:
while the current visualization computes, the next timestep loads, and
finished frames stream to the workstation.  :class:`FramePipeline` is
that overlap, and the only way a server — bare or a gateway worker —
produces frames:

* a **producer thread** follows the environment clock, loads the needed
  timestep (prefetching where the clock is *going*, one production period
  ahead), locates rake seeds, and integrates the tracers;
* an **encode stage** (its own thread) serializes the finished results
  once into a wire-ready fragment and publishes an immutable
  :class:`~repro.core.framestore.PublishedFrame` into the shared
  :class:`~repro.core.framestore.FrameStore`;
* the dlib service thread's ``wt.frame`` handler becomes a cheap read of
  the store — N clients cost one compute and one encode.

Steady state, the publish period approaches ``max(t_load, t_integrate,
t_encode)`` instead of their sum (the ``benchmarks/test_fig8_live_pipeline``
benchmark measures exactly this against the analytic model in
:mod:`repro.perf.pipeline`).  A pipeline that is never ``start()``ed has
no threads; headless callers (the sum-of-stages baseline of that
benchmark, ``benchmarks/cache_scenario.py``) drive the same stage code
one frame at a time through :meth:`FramePipeline.produce_inline`.

Production is **demand-gated** so an idle server stays idle and frozen-
clock tests stay deterministic: the producer computes only while a reader
holds demand (a parked ``wt.frame``, a push binding), or when the clock
has advanced to a new timestep shortly after a ``wt.frame`` arrived
(:data:`ANTICIPATION_SECONDS`).  Environment mutations *invalidate*
(wake) the producer immediately via :meth:`Environment.subscribe`, but
never cause speculative recomputes on their own — the next waiting
client does.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from dataclasses import dataclass, field, replace

from repro.core.environment import Environment
from repro.core.framestore import FrameStore, PublishedFrame, encode_published
from repro.grid.interpolation import TrilinearScratch
from repro.obs import MetricsRegistry
from repro.util.timers import Stopwatch

__all__ = ["FramePipeline"]

log = logging.getLogger(__name__)

STAGES = ("load", "locate", "integrate", "encode")

#: Real-time seconds after a ``wt.frame`` arrival during which the clock
#: ticking to a new timestep triggers anticipatory production.
ANTICIPATION_SECONDS = 0.5
#: How long an idle producer sleeps between looks at its key.
POLL_SECONDS = 0.02


@dataclass
class _Job:
    """A computed-but-not-yet-encoded frame, handed producer -> encoder."""

    version: int
    timestep: int
    kinds: dict[int, str]
    results: dict
    compute_seconds: float
    stage_seconds: dict = field(default_factory=dict)
    steer_epoch: int = 0


class FramePipeline:
    """Producer pipeline feeding a :class:`FrameStore`.

    Parameters
    ----------
    engine
        The compute engine.  Once the pipeline is started the producer
        thread is the *only* caller of its compute methods (the engine's
        per-rake state is not thread-safe).
    env
        The shared environment; the pipeline subscribes to its version
        bumps for immediate invalidation wake-ups.
    store
        Publication point read by the RPC layer.
    time_fn
        The environment wall clock (injectable for deterministic tests).
        Tick-anticipation bookkeeping always uses real ``time.monotonic``.
    stage_cost
        Optional ``{stage: seconds}`` of modeled extra work charged inside
        the named stages (idiomatic with the repo's disk/network models);
        the live-pipeline benchmark uses it to build the synthetic
        three-stage workload of the acceptance criteria.
    registry
        The :class:`~repro.obs.registry.MetricsRegistry` the pipeline
        records into (``pipeline.*`` metrics; a private one when
        omitted).  It adopts the engine's and the loader's registries, so
        ``engine.*``, ``loader.*`` and ``cache.*`` — totals accrued
        before the pipeline existed included — report from the same one.
    """

    def __init__(
        self,
        engine,
        env: Environment,
        store: FrameStore,
        *,
        time_fn=time.monotonic,
        stage_cost: dict | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.engine = engine
        self.env = env
        self.store = store
        self._time_fn = time_fn
        self.stage_cost = dict(stage_cost or {})
        # In situ provenance hook: when set, ``epoch_fn(timestep)`` is the
        # steering epoch stamped into the published frame for that
        # timestep (0 for replay datasets, which never set it).
        self.epoch_fn = None

        self._running = False
        self._work = threading.Event()
        self._queue: queue.Queue = queue.Queue(maxsize=1)
        self._compute_thread: threading.Thread | None = None
        self._encode_thread: threading.Thread | None = None
        # Sampler storage for the grid -> physical conversion; owned by
        # whichever single thread encodes (the encode thread once started,
        # else the caller of produce_inline).
        self._encode_scratch = TrilinearScratch()

        self._state_lock = threading.Lock()
        self._demand = 0
        self._anticipate_until = 0.0
        self._last_key: tuple[int, int] | None = None

        self._stats_lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._stage_hist = {
            name: self.registry.histogram(f"pipeline.stage.{name}_seconds")
            for name in STAGES
        }
        # load + locate + integrate
        self._compute_hist = self.registry.histogram("pipeline.compute_seconds")
        self._frames_produced = self.registry.counter("pipeline.frames_produced")
        self._frames_encoded = self.registry.counter("pipeline.frames_encoded")
        self._frames_anticipated = self.registry.counter(
            "pipeline.frames_anticipated"
        )
        self._requests = self.registry.counter("pipeline.requests")
        self._invalidations = self.registry.counter("pipeline.invalidations")
        self._produce_errors = self.registry.counter("pipeline.produce_errors")
        self._idle_cycles = self.registry.counter("pipeline.idle_cycles")

        # One namespace per server: ``engine.*`` and the loader's
        # ``loader.*`` / per-tier ``cache.*`` are re-homed here, so
        # ``wt.metrics`` reconciles exactly with the loads this pipeline
        # injects (and with any made before it was built).
        self.registry.adopt(engine.registry)
        if engine.loader is not None:
            self.registry.adopt(engine.loader.registry)

        env.subscribe(self.invalidate)

    # -- registry-backed counters (read API unchanged) -----------------------

    @property
    def frames_produced(self) -> int:
        return self._frames_produced.value

    @property
    def frames_encoded(self) -> int:
        return self._frames_encoded.value

    @property
    def frames_anticipated(self) -> int:
        return self._frames_anticipated.value

    @property
    def requests(self) -> int:
        return self._requests.value

    @property
    def invalidations(self) -> int:
        return self._invalidations.value

    @property
    def produce_errors(self) -> int:
        return self._produce_errors.value

    @property
    def idle_cycles(self) -> int:
        """Producer wake-ups that found nothing to do.

        Event-driven tests wait for this to advance instead of sleeping:
        once it ticks past a remembered value, the producer has completed
        a full look at the current key and decided against producing.
        """
        return self._idle_cycles.value

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "FramePipeline":
        if self._running:
            raise RuntimeError("pipeline already started")
        self._running = True
        self._compute_thread = threading.Thread(
            target=self._compute_loop, name="wt-frame-producer", daemon=True
        )
        self._encode_thread = threading.Thread(
            target=self._encode_loop, name="wt-frame-encoder", daemon=True
        )
        self._compute_thread.start()
        self._encode_thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        self._work.set()
        for t in (self._compute_thread, self._encode_thread):
            if t is not None and t.is_alive():
                t.join(timeout=5.0)
        self._compute_thread = None
        self._encode_thread = None

    @property
    def alive(self) -> bool:
        """Whether a waiting reader can still expect a publication.

        Read off the stage threads: one that died on an exception reads
        dead, so parked ``wt.frame`` calls fail promptly and
        ``wt.health`` tells the supervisor the truth.
        """
        threads = (self._compute_thread, self._encode_thread)
        return self._running and all(
            t is not None and t.is_alive() for t in threads
        )

    # -- demand signalling (called from the dlib service thread) -----------

    def note_demand(self) -> None:
        """A ``wt.frame`` arrived: keep anticipatory production live."""
        until = time.monotonic() + ANTICIPATION_SECONDS
        with self._state_lock:
            if until > self._anticipate_until:
                self._anticipate_until = until

    def add_demand(self) -> None:
        """A reader now depends on fresh frames; produce on key changes.

        Held by a parked ``wt.frame`` for the length of its wait and by a
        push binding for its lifetime (push subscribers never poll), and
        balanced by :meth:`remove_demand`.  Held demand is what
        authorizes the producer to compute outside the tick-anticipation
        path, so a frozen clock plus an unchanged environment still
        yields exactly one compute per distinct ``(version, timestep)``.
        ``pipeline.requests`` counts the registrations.
        """
        with self._state_lock:
            self._demand += 1
            self._requests.inc()
        self._work.set()

    def remove_demand(self) -> None:
        """Balance an :meth:`add_demand` once its reader is gone."""
        with self._state_lock:
            self._demand -= 1

    def invalidate(self) -> None:
        """Environment changed: wake the producer immediately.

        Wired to :meth:`Environment.subscribe`, so it runs under the
        environment lock — it must stay cheap and non-blocking.
        """
        self._invalidations.inc()
        self._work.set()

    def nudge(self) -> None:
        """Wake the producer without counting an invalidation.

        The in situ producer calls this after installing a fresh solver
        timestep: the environment did not change (no version bump), but
        the clock's live frontier did, so the producer should re-examine
        its key now instead of on the next poll tick.
        """
        self._work.set()

    # -- the producer ------------------------------------------------------

    def _current_key(self) -> tuple[int, int]:
        return (
            self.env.version,
            self.env.clock.timestep_index(self._time_fn()),
        )

    def _should_produce(self) -> str | None:
        """Reason to produce now: ``"request"``, ``"tick"``, or ``None``."""
        key = self._current_key()
        with self._state_lock:
            last = self._last_key
            if key == last:
                return None
            if self._demand > 0:
                return "request"
            if (
                last is not None
                and key[0] == last[0]
                and time.monotonic() < self._anticipate_until
            ):
                # The clock rolled to a new timestep while clients are
                # actively polling: keep the published frame current so
                # their next read is a cache hit.
                return "tick"
        return None

    def _compute_loop(self) -> None:
        while self._running:
            reason = self._should_produce()
            if reason is None:
                self._idle_cycles.inc()
                self._work.wait(POLL_SECONDS)
                self._work.clear()
                continue
            try:
                job = self._produce()
            except Exception:  # pragma: no cover - defensive
                self._produce_errors.inc()
                with self._state_lock:
                    self._last_key = None  # let a waiter retry
                log.exception("frame production failed")
                time.sleep(POLL_SECONDS)
                continue
            if reason == "tick":
                self._frames_anticipated.inc()
            self._submit(job)

    def _predict_next(self, timestep: int, direction: int) -> int:
        """The timestep production will need next.

        One production period ahead on the live clock; when the clock is
        slower than (or equal to) the pipeline that lands on the current
        timestep, in which case fall back to classic double buffering:
        the immediate neighbour in the direction of play.
        """
        clock = self.env.clock
        lead = self.production_period_estimate()
        predicted = clock.lookahead(self._time_fn(), lead) if lead > 0 else timestep
        if predicted == timestep:
            step = 1 if direction >= 0 else -1
            predicted = timestep + step
            if clock.wrap:
                predicted %= clock.n_timesteps
        return predicted

    def _charge(self, stage: str) -> None:
        cost = self.stage_cost.get(stage, 0.0)
        if cost > 0.0:
            time.sleep(cost)

    def _produce(self) -> _Job:
        """Run the load / locate / integrate stages for the current key."""
        wall = self._time_fn()
        version, rakes = self.env.rakes_snapshot()
        clock = self.env.clock
        timestep = clock.timestep_index(wall)
        direction = clock.direction
        settings = replace(self.engine.settings)
        stage_seconds: dict[str, float] = {}

        loader = self.engine.loader
        with Stopwatch() as sw:
            if loader is not None:
                loader.load(timestep)
                # Aim the prefetch where the clock is actually going: the
                # timestep one production period ahead (which is not t+1
                # when the clock outruns production).  Issued *now*, at
                # the top of the cycle, so the background read overlaps
                # this frame's integration and is resident when the next
                # cycle starts.  This is the loader's only prefetch
                # policy: a blind t+direction guess would waste the single
                # background worker on reads nobody will consume.
                loader.prefetch(self._predict_next(timestep, direction))
            self._charge("load")
        stage_seconds["load"] = sw.elapsed

        with Stopwatch() as sw:
            for rake in rakes.values():
                self.engine.rake_seeds_grid(rake)
            self._charge("locate")
        stage_seconds["locate"] = sw.elapsed

        with Stopwatch() as sw:
            results = self.engine.compute_rakes(
                rakes, timestep, settings=settings
            )
            self._charge("integrate")
        stage_seconds["integrate"] = sw.elapsed

        compute_seconds = sum(stage_seconds.values())
        with self._stats_lock:
            for name in ("load", "locate", "integrate"):
                self._stage_hist[name].observe(stage_seconds[name])
            self._compute_hist.observe(compute_seconds)
        self._frames_produced.inc()
        with self._state_lock:
            self._last_key = (version, timestep)

        epoch_fn = self.epoch_fn
        return _Job(
            version=version,
            timestep=timestep,
            kinds={rid: rake.kind for rid, rake in rakes.items()},
            results=results,
            compute_seconds=compute_seconds,
            stage_seconds=stage_seconds,
            steer_epoch=int(epoch_fn(timestep)) if epoch_fn is not None else 0,
        )

    def _submit(self, job: _Job) -> None:
        """Hand a computed frame to the encode stage (bounded queue).

        ``maxsize=1`` is the pipeline's backpressure: a producer that
        outruns the encoder blocks here, so at most one frame is ever
        in flight between the stages.
        """
        while self._running:
            try:
                self._queue.put(job, timeout=0.1)
                return
            except queue.Full:
                continue

    def _encode_loop(self) -> None:
        while True:
            try:
                job = self._queue.get(timeout=0.1)
            except queue.Empty:
                if not self._running:
                    return
                continue
            try:
                self._encode_and_publish(job)
            except Exception:  # pragma: no cover - defensive
                self._produce_errors.inc()
                log.exception("frame encoding failed")

    def _encode_and_publish(self, job: _Job) -> PublishedFrame:
        stage_seconds = dict(job.stage_seconds)
        with Stopwatch() as sw:
            frame = encode_published(
                job.kinds,
                job.results,
                self._encode_scratch,
                version=job.version,
                timestep=job.timestep,
                seq=0,  # stamped by the store
                compute_seconds=job.compute_seconds,
                stage_seconds=stage_seconds,
                steer_epoch=job.steer_epoch,
            )
            self._charge("encode")
        stage_seconds["encode"] = sw.elapsed  # before anyone can read it
        with self._stats_lock:
            self._stage_hist["encode"].observe(sw.elapsed)
        self._frames_encoded.inc()
        return self.store.publish(frame)

    # -- headless production -----------------------------------------------

    def produce_inline(self) -> PublishedFrame:
        """Compute, encode, and publish one frame on the caller's thread.

        The headless library call for a pipeline that was never started
        (a started one's producer thread owns the engine) — no server
        path reaches it.  It runs the identical stage code, so the
        immutability and encode-once guarantees hold.
        """
        return self._encode_and_publish(self._produce())

    # -- stats -------------------------------------------------------------

    def production_period_estimate(self) -> float:
        """Steady-state publish period the stage times predict: max(t_i)."""
        with self._stats_lock:
            means = [h.stats.mean for h in self._stage_hist.values() if h.count]
        return max(means) if means else 0.0

    def stats(self) -> dict:
        """Stage-resolved pipeline statistics (``wt.pipeline_stats``)."""
        with self._stats_lock:
            stages = {name: h.snapshot() for name, h in self._stage_hist.items()}
        return {
            "frames_produced": self.frames_produced,
            "frames_encoded": self.frames_encoded,
            "frames_published": self.store.published_total,
            "publish_seq": self.store.seq,
            "publish_period_mean": self.store.publish_period_mean,
            "stages": stages,
            "steady_period_estimate": self.production_period_estimate(),
            "frames_anticipated": self.frames_anticipated,
            "requests": self.requests,
            "invalidations": self.invalidations,
            "produce_errors": self.produce_errors,
            "idle_cycles": self.idle_cycles,
            "compute": {
                "fused_batch_size": int(
                    self.registry.gauge("engine.fused_batch_size").value
                ),
                "points_per_second": self.registry.gauge(
                    "engine.points_per_second"
                ).value,
            },
            "cache": self.engine.cache_stats(),
        }
