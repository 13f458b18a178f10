"""Figure 8 made real: the staged load -> compute -> publish frame pipeline.

The paper's figure 8 shows the remote system as *concurrent* processes:
while the current visualization computes, the next timestep loads, and
finished frames stream to the workstation.  :class:`FramePipeline` is
that overlap, and the only way a server — bare or a gateway worker —
produces frames:

* a **producer thread** follows the environment clock, locates rake
  seeds, loads the needed timestep (prefetching where the clock is
  *going*, one production period ahead), and integrates the tracers;
* an **encode stage** (its own thread) turns the finished results once
  into wire-ready entries, builds the wire encodings the latest frame
  was asked for, and publishes an immutable
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

**The entry memo.**  A rake's published entry (its read-only vertices,
digest and wire fragments) is a function of ``(kind, grid seeds,
tool settings, timestep)``, so the pipeline memoizes entries on that
key: a frame integrates and encodes only the rakes whose key misses —
still one megabatch per kind — and assembles the rest from hits.  What
a production keeps depends on the clock:

* a **replay** clock steps, scrubs, reverses and wraps over a stored
  dataset (section 5.2), so a production evicts only the entries whose
  ``(kind, grid seeds, settings)`` no rake in its snapshot has: every
  other timestep's entries stay, and a looped replay's second lap is all
  hits.  :data:`MEMO_POINT_BUDGET` bounds what is kept beside the last
  production: past it, the newest entries are not admitted, so a cyclic
  loop longer than the budget still hits on what was kept;
* a **live** clock only moves forward, so a production keeps its own
  entries and nothing else.

Either way a speculation's entries join the memo, and the loader is
not asked to prefetch a timestep the memo already holds for every rake.

**Demand-gated publication, speculative production.**  The producer
publishes only while a reader holds demand (a parked ``wt.frame``,
pulled or one of a push subscriber's paced calls) and the key
``(env.version, timestep)`` has moved, so an idle server publishes
nothing and a frozen clock yields exactly one publication per key.  Between requests it may *speculate*: fill the
memo for the timestep :meth:`FramePipeline._predict_next` names, with
the rakes and settings just produced, and build for those entries the
wire encodings the latest frame was asked for (a ``q16`` rake in the
form predicted from the latest frame's entry, which is what a reader
holding that frame is sent next).  It does so only when
all four of these observable conditions hold:

(a) the last two productions had the same rakes (kinds and grid seeds)
    and settings, and differed in timestep;
(b) no ``wt.frame`` was answered as a cache hit between the last two
    productions (:meth:`FramePipeline.note_cache_hit`): the frame before
    the last one was never re-read — a session that re-reads frames
    keeps the worker for its reads;
(c) the predicted timestep is one the source already has — a live
    clock never speculates past its frontier;
(d) the clock is paused, so only a command moves it (a ``step``): a
    playing clock names the next key itself, and demand-gated
    production with the loader's prefetch already follows it — a
    speculation there races the clock and costs a production.

Speculation never publishes: when the step it predicted lands, the
production is all hits.  A request whose entries are still being
speculated waits for them (the producer thread finishes the speculation
and the encode queue keeps order) instead of computing them twice.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from dataclasses import astuple, dataclass, field, replace

from repro.core.environment import Environment
from repro.core.framestore import (
    FrameStore,
    PublishedFrame,
    RakeEntry,
    VariantCounters,
    encode_entries,
)
from repro.grid.interpolation import TrilinearScratch
from repro.obs import MetricsRegistry
from repro.util.timers import Stopwatch

__all__ = ["FramePipeline"]

log = logging.getLogger(__name__)

STAGES = ("load", "locate", "integrate", "encode")

#: How long an idle producer sleeps between looks at its key.
POLL_SECONDS = 0.02

#: Path points (seeds x path length, padding included) the entry memo
#: of a replay clock keeps beside its last production: above a looped
#: 16-timestep replay of 8 rakes x 16 seeds x 201 points (411 648), about
#: 10 MB of entries at their float32 vertices and q16 forms.
MEMO_POINT_BUDGET = 1 << 19


@dataclass(eq=False)
class _Slot:
    """One memo entry: created by the producer with its tracer result,
    filled with the encoded :class:`RakeEntry` by the encode stage."""

    key: tuple
    kind: str
    speculative: bool
    result: object = None
    entry: RakeEntry | None = None
    points: int = 0  # path points stored: seeds x path length
    published: bool = False  # set by the encode stage


@dataclass
class _Job:
    """Producer -> encoder hand-off: a frame to publish, or a speculation
    (``publish=False``) whose entries only go into the memo."""

    version: int
    timestep: int
    slots: dict[int, _Slot]
    rakes: dict
    settings: object
    publish: bool = True
    compute_seconds: float = 0.0
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
    stage_cost
        Optional ``{stage: seconds}`` of modeled extra work charged inside
        the named stages (idiomatic with the repo's disk/network models);
        the live-pipeline benchmark uses it to build the synthetic
        three-stage workload of the acceptance criteria.
    registry
        The :class:`~repro.obs.registry.MetricsRegistry` the pipeline
        records into (``pipeline.*`` metrics, and the ``net.*`` variant
        counters of the entries it builds; a private one when omitted).
        It adopts the engine's and the loader's registries, so
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
        self._last_key: tuple[int, int] | None = None
        # The entry memo, by content key; the encode stage removes the
        # slots of a job it failed to encode.  Guarded by _state_lock.
        self._memo: dict[tuple, _Slot] = {}
        # Speculation bookkeeping: the last production's rakes/settings
        # and timestep, whether a cache hit was served since, and the
        # speculation planned after it (producer thread only).
        self._last_shape: tuple | None = None
        self._reread = False
        self._speculation: tuple | None = None

        self._stats_lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._variant_counters = VariantCounters(self.registry)
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
        """Publications whose every entry came from speculation and was
        published for the first time."""
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
        a full look at the current key, found no speculation to run, and
        decided against producing.
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

    def note_cache_hit(self) -> None:
        """A ``wt.frame`` was answered from the published frame.

        The session re-reads frames, so the next production does not
        speculate (condition (b) of the module docstring).
        """
        with self._state_lock:
            self._reread = True

    def add_demand(self) -> None:
        """A reader now depends on fresh frames; produce on key changes.

        Held by a parked ``wt.frame`` for the length of its wait — a
        push seat holds one while any of its paced calls is parked —
        and balanced by :meth:`remove_demand`.
        Held demand is what authorizes the producer to publish, so a
        frozen clock plus an unchanged environment still yields exactly
        one publication per distinct ``(version, timestep)``.
        ``pipeline.requests`` counts the registrations.
        """
        with self._state_lock:
            self._demand += 1
            first = self._demand == 1
            self._requests.inc()
        if first:
            # Held demand already has the producer polling the key.
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

    def current_key(self) -> tuple[int, int]:
        """``(env.version, timestep)`` now: what a production is for."""
        return (
            self.env.version,
            self.env.clock.timestep_index(self._time_fn()),
        )

    def _should_produce(self) -> bool:
        key = self.current_key()
        with self._state_lock:
            return key != self._last_key and self._demand > 0

    def _compute_loop(self) -> None:
        while self._running:
            # Outside the ``try``: a clock that cannot name the key kills
            # the thread, and ``alive`` says so to every parked call.
            produce = self._should_produce()
            try:
                if produce:
                    job = self._produce()
                    self._plan_speculation(job)
                else:
                    job = self._speculate()
            except Exception:  # pragma: no cover - defensive
                self._produce_errors.inc()
                self._speculation = None
                with self._state_lock:
                    self._last_key = None  # let a waiter retry
                log.exception("frame production failed")
                time.sleep(POLL_SECONDS)
                continue
            if job is None:
                self._idle_cycles.inc()
                self._work.wait(POLL_SECONDS)
                self._work.clear()
                continue
            self._submit(job)

    def _neighbour(self, timestep: int, direction: int) -> int:
        """The timestep one step from ``timestep`` in the direction of play."""
        clock = self.env.clock
        step = timestep + (1 if direction >= 0 else -1)
        return step % clock.n_timesteps if clock.wrap else step

    def _predict_next(self, timestep: int, direction: int) -> int:
        """The timestep production will need next.

        One production period ahead on the live clock; when the clock is
        slower than (or equal to) the pipeline that lands on the current
        timestep, in which case fall back to classic double buffering:
        the immediate neighbour in the direction of play.
        """
        lead = self.production_period_estimate()
        predicted = (
            self.env.clock.lookahead(self._time_fn(), lead) if lead > 0 else timestep
        )
        if predicted == timestep:
            return self._neighbour(timestep, direction)
        return predicted

    def _charge(self, stage: str) -> None:
        cost = self.stage_cost.get(stage, 0.0)
        if cost > 0.0:
            time.sleep(cost)

    def _fill(
        self, rakes: dict, timestep: int, settings, prefetch, speculative: bool
    ) -> tuple[dict[int, _Slot], list[_Slot], dict]:
        """Locate, load and integrate what the memo lacks for ``timestep``.

        Returns ``({rid: slot}, fresh slots, stage seconds)``.  Fresh
        slots carry their tracer results for the encode stage and enter
        the memo here, as the module docstring says.  ``prefetch()``
        names the timestep the loader stages next; it is asked once
        ``timestep`` is loaded, so a prediction read off a playing clock
        accounts for the time the load took, and the loader is not asked
        at all when the memo holds that timestep for every rake.
        """
        stage_seconds: dict[str, float] = {}
        with Stopwatch() as sw:
            settings_key = astuple(settings)
            keys = {
                rid: (
                    rake.kind,
                    self.engine.rake_seeds_grid(rake).tobytes(),
                    settings_key,
                    timestep,
                )
                for rid, rake in rakes.items()
            }
            self._charge("locate")
        stage_seconds["locate"] = sw.elapsed

        with self._state_lock:
            slots = {rid: self._memo.get(key) for rid, key in keys.items()}
        misses = {keys[rid]: rid for rid, slot in slots.items() if slot is None}

        loader = self.engine.loader
        with Stopwatch() as sw:
            if misses:
                loader.load(timestep)
            # Aim the prefetch where the clock is actually going
            # (which is not t+1 when the clock outruns production).
            # Issued *now*, so the background read overlaps this
            # integration and is resident when the next one starts.
            # This is the loader's only prefetch policy: a blind
            # guess would waste the single background worker.
            target = prefetch()
            with self._state_lock:
                held = all(key[:3] + (target,) in self._memo for key in keys.values())
            if not held:
                loader.prefetch(target)
            self._charge("load")
        stage_seconds["load"] = sw.elapsed

        with Stopwatch() as sw:
            results = {}
            if misses:
                results = self.engine.compute_rakes(
                    {rid: rakes[rid] for rid in misses.values()},
                    timestep, settings=settings,
                )
            self._charge("integrate")
        stage_seconds["integrate"] = sw.elapsed

        fresh = {}
        for key, rid in misses.items():
            seeds, length = results[rid].grid_paths.shape[:2]
            fresh[key] = _Slot(
                key, rakes[rid].kind, speculative, results[rid], points=seeds * length
            )
        for rid, slot in slots.items():
            if slot is None:
                slots[rid] = fresh[keys[rid]]
        with self._state_lock:
            if speculative:
                self._memo.update(fresh)
            elif self.env.clock.live:
                self._memo = {slot.key: slot for slot in slots.values()}
            else:
                self._memo = self._retain(slots)
        return slots, list(fresh.values()), stage_seconds

    def _retain(self, slots: dict) -> dict:
        """The memo after a replay clock's production of ``slots``
        (``{rid: slot}``; under ``_state_lock``).

        Entries of a rake shape no slot has go; the rest stay in
        admission order, the production's new slots last.  While the
        memo is over :data:`MEMO_POINT_BUDGET`, the newest entries that
        are not this production's go first: once full, a memo admits
        nothing new beyond the last production.
        """
        current = {slot.key: slot for slot in slots.values()}
        shapes = {key[:3] for key in current}
        memo = {key: slot for key, slot in self._memo.items() if key[:3] in shapes}
        memo.update(current)
        points = sum(slot.points for slot in memo.values())
        for key in reversed(list(memo)):
            if points <= MEMO_POINT_BUDGET:
                break
            if key not in current:
                points -= memo.pop(key).points
        return memo

    def _produce(self) -> _Job:
        """Run the locate / load / integrate stages for the current key."""
        wall = self._time_fn()
        version, rakes = self.env.rakes_snapshot()
        clock = self.env.clock
        timestep = clock.timestep_index(wall)
        settings = replace(self.engine.settings)
        slots, _fresh, stage_seconds = self._fill(
            rakes, timestep, settings,
            prefetch=lambda: self._predict_next(timestep, clock.direction),
            speculative=False,
        )
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
            slots=slots,
            rakes=rakes,
            settings=settings,
            compute_seconds=compute_seconds,
            stage_seconds=stage_seconds,
            steer_epoch=int(epoch_fn(timestep)) if epoch_fn is not None else 0,
        )

    def _plan_speculation(self, job: _Job) -> None:
        """Decide whether the producer speculates after ``job``: the
        four conditions of the module docstring, in order."""
        self._speculation = None
        shape = {rid: slot.key[:3] for rid, slot in job.slots.items()}
        with self._state_lock:
            previous, self._last_shape = self._last_shape, (shape, job.timestep)
            reread, self._reread = self._reread, False
        clock = self.env.clock
        if (
            previous is None
            or previous[0] != shape
            or previous[1] == job.timestep
            or reread
            or clock.playing
        ):
            return
        target = self._predict_next(job.timestep, clock.direction)
        # ``n_timesteps`` of a live clock is its frontier + 1.
        if target != job.timestep and 0 <= target < clock.n_timesteps:
            self._speculation = (job.rakes, job.settings, target, clock.direction)

    def _speculate(self) -> _Job | None:
        """Fill the memo for the planned timestep (``None``: nothing to do)."""
        plan, self._speculation = self._speculation, None
        if plan is None:
            return None
        rakes, settings, timestep, direction = plan
        slots, fresh, _ = self._fill(
            rakes, timestep, settings,
            prefetch=lambda: self._neighbour(timestep, direction),
            speculative=True,
        )
        if not fresh:
            return None
        return _Job(
            version=0, timestep=timestep, slots=slots, rakes=rakes,
            settings=settings, publish=False,
        )

    def _submit(self, job: _Job) -> None:
        """Hand a computed frame to the encode stage (bounded queue).

        ``maxsize=1`` is the pipeline's backpressure: a producer that
        outruns the encoder blocks here, so at most one frame is ever
        in flight between the stages.  The queue keeps order, so a
        frame counting on a speculation's entries is encoded after them.
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
            except Exception:
                self._produce_errors.inc()
                log.exception("frame encoding failed")

    def _encode_slots(self, slots) -> list[_Slot]:
        """Encode the job's unfilled slots in one batch; returns them.

        Every slot a job holds was created by it or by an earlier job;
        one still empty without a result belongs to a job whose encode
        failed, so this one fails too.
        """
        todo = {slot.key: slot for slot in slots if slot.entry is None}
        if any(slot.result is None for slot in todo.values()):
            raise RuntimeError("a memo entry this frame holds was never encoded")
        entries = encode_entries(
            {key: slot.kind for key, slot in todo.items()},
            {key: slot.result for key, slot in todo.items()},
            self._encode_scratch,
            self._variant_counters,
        )
        for key, slot in todo.items():
            slot.entry, slot.result = entries[key], None
        return list(todo.values())

    def _warm(self, slots: dict) -> None:
        """Build for ``slots`` (``{rid: slot}``) the encodings the latest
        frame was asked for, in the form a reader holding that frame will
        be sent: a ``q16`` rake predicted from the latest frame's entry."""
        latest = self.store.latest()
        if latest is None:
            return
        asked = {
            encoding
            for entry in latest.entries.values()
            for encoding in entry.variants
        }
        for rid, slot in slots.items():
            for encoding in asked:
                slot.entry.fragment(encoding, latest.entries.get(str(rid)))

    def _encode_and_publish(self, job: _Job) -> PublishedFrame | None:
        stage_seconds = dict(job.stage_seconds)
        try:
            with Stopwatch() as sw:
                encoded = self._encode_slots(job.slots.values())
                self._warm({
                    rid: slot for rid, slot in job.slots.items() if slot in encoded
                })
                self._charge("encode")
        except BaseException:
            # Nothing is published: forget the key so a parked call's
            # next look produces it again, and leave no empty slot behind.
            with self._state_lock:
                self._last_key = None
                for slot in job.slots.values():
                    if slot.entry is None:
                        slot.result = None
                        if self._memo.get(slot.key) is slot:
                            del self._memo[slot.key]
            raise
        if not job.publish:
            return None
        stage_seconds["encode"] = sw.elapsed  # before anyone can read it
        with self._stats_lock:
            self._stage_hist["encode"].observe(sw.elapsed)
        self._frames_encoded.inc()
        slots = job.slots.values()
        # A retained entry published on an earlier lap is a memo hit.
        if slots and all(slot.speculative and not slot.published for slot in slots):
            self._frames_anticipated.inc()
        for slot in slots:
            slot.published = True
        return self.store.publish(
            PublishedFrame(
                version=job.version,
                timestep=job.timestep,
                seq=0,  # stamped by the store
                entries={str(rid): slot.entry for rid, slot in job.slots.items()},
                compute_seconds=job.compute_seconds,
                stage_seconds=stage_seconds,
                steer_epoch=job.steer_epoch,
            )
        )

    # -- headless production -----------------------------------------------

    def produce_inline(self) -> PublishedFrame:
        """Compute, encode, and publish one frame on the caller's thread.

        The headless library call for a pipeline that was never started
        (a started one's producer thread owns the engine) — no server
        path reaches it.  It runs the identical stage code over the same
        entry memo, so the immutability and encode-once guarantees hold;
        it never speculates.
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
