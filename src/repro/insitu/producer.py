"""The solver producer: free-run the simulation into the live source.

One producer owns one :class:`~repro.flow.solver.NavierStokes2D` and is
the *only* thread that steps it.  Each produced timestep is
``steps_per_timestep`` solver steps, extruded to the windtunnel layout
and installed in strict order:

1. append the raw timestep to the :class:`~repro.insitu.source.
   LiveFlowSource` ring (extends ``n_timesteps``);
2. convert it to grid coordinates once (the dataset's own LRU does this);
3. write it through the :class:`~repro.diskio.cache.TieredTimestepCache`
   append path, so the very next read is an L1 hit;
4. advance the *published frontier* — the live clock reads this, so the
   visualization can never ask for a timestep whose data is not already
   cache-resident;
5. nudge the demand-gated pipeline.

Steering changes drain at timestep boundaries only (never mid-step), in
epoch order, and the applied log records ``(epoch, timestep, changes)``
— replaying that log through :meth:`SolverProducer.replay_steering`
reproduces the steered trajectory bit-for-bit, which is what the gateway
journal leans on for crash recovery (docs/steering.md).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from repro.insitu.source import LiveFlowSource, extrude_slice
from repro.insitu.steering import SteeringController
from repro.obs import MetricsRegistry

__all__ = ["SolverProducer"]

#: timestep -> steering-epoch history retained (multiples of the ring).
_EPOCH_HISTORY_FACTOR = 4


class SolverProducer:
    """Steps the solver and publishes fresh timesteps into the source.

    Parameters
    ----------
    solver
        A :class:`~repro.flow.solver.NavierStokes2D` (already holding the
        initial condition that became the source's timestep 0).
    source
        The :class:`LiveFlowSource` to append into.
    steering
        The shared :class:`SteeringController` (one per tunnel).
    cache
        Optional :class:`~repro.diskio.cache.TieredTimestepCache` to
        write each produced timestep through (the loader's read path then
        hits L1 instead of re-converting).
    steps_per_timestep
        Solver steps folded into one published timestep.
    obstacle_factory
        ``f(taper, angle)`` returning a fresh obstacle mask — how the
        ``taper`` / ``angle`` steering parameters reshape the body.
    pipeline
        Optional :class:`~repro.core.pipeline.FramePipeline` to nudge
        after each append.
    registry
        Metrics registry for the ``insitu.*`` counters/gauges; a private
        one is created when omitted.
    period_seconds
        Minimum wall seconds between produced timesteps when free-running
        on the background thread (0 = as fast as the solver can go).
    """

    def __init__(
        self,
        solver,
        source: LiveFlowSource,
        *,
        steering: SteeringController | None = None,
        cache=None,
        steps_per_timestep: int = 5,
        obstacle_factory=None,
        pipeline=None,
        registry: MetricsRegistry | None = None,
        period_seconds: float = 0.0,
    ) -> None:
        if steps_per_timestep < 1:
            raise ValueError("steps_per_timestep must be >= 1")
        self.solver = solver
        self.source = source
        self.steering = steering if steering is not None else SteeringController()
        self.cache = cache
        self.steps_per_timestep = int(steps_per_timestep)
        self.obstacle_factory = obstacle_factory
        self.pipeline = pipeline
        self.period_seconds = float(period_seconds)
        self.paused = False
        self.registry = registry if registry is not None else MetricsRegistry()
        self._sim_steps = self.registry.counter("insitu.sim_steps_total")
        self._published = self.registry.counter("insitu.timesteps_published")
        self._steer_applied = self.registry.counter("insitu.steer_applied")
        self._ring_evictions = self.registry.counter("insitu.ring_evictions")
        self._rate_gauge = self.registry.gauge("insitu.sim_rate_hz")
        self._sim_time_gauge = self.registry.gauge("insitu.sim_time")
        self._epoch_gauge = self.registry.gauge("insitu.steer_epoch")
        self._geometry = {"taper": 0.0, "angle": 0.0}
        self._initial_snapshot = solver.snapshot_state()
        self._epoch_at: OrderedDict[int, int] = OrderedDict()
        self._epoch_cap = _EPOCH_HISTORY_FACTOR * source.ring.capacity
        self._available = -1
        self._evictions_seen = 0
        self._running = False
        self._thread: threading.Thread | None = None
        self._wake = threading.Event()

    # -- the published frontier ----------------------------------------------

    @property
    def available(self) -> int:
        """Newest timestep whose data is installed everywhere (-1 = none).

        This — not the ring's latest — is what the live clock follows:
        it only advances *after* the cache write-through, so a frame
        production triggered by the new frontier finds its data resident.
        """
        return self._available

    def epoch_for(self, t: int) -> int:
        """Steering epoch in effect when timestep ``t`` was produced."""
        return self._epoch_at.get(int(t), 0)

    # -- priming ---------------------------------------------------------------

    def prime(self) -> int:
        """Publish timestep 0 (the initial condition) without stepping."""
        if self._available >= 0:
            return self._available
        gv = self.source.grid_velocity(0)
        if self.cache is not None:
            self.cache.append(0, gv)
        self._record_epoch(0)
        self._available = 0
        self._published.inc()
        self._sim_time_gauge.set(float(self.solver.time))
        if self.pipeline is not None:
            self.pipeline.nudge()
        return 0

    # -- steering --------------------------------------------------------------

    def apply_changes(self, changes: dict) -> None:
        """Apply one validated steering change set between timesteps."""
        solver_changes = {}
        if "u_inf" in changes:
            solver_changes["u_inf"] = float(changes["u_inf"])
        if "dt" in changes:
            solver_changes["dt"] = float(changes["dt"])
        if solver_changes:
            self.solver.reconfigure(**solver_changes)
        if "taper" in changes or "angle" in changes:
            # One assignment: ``snapshot`` reads this dict from other
            # threads and must never see a new taper beside an old angle.
            geometry = {
                key: float(changes.get(key, self._geometry[key]))
                for key in ("taper", "angle")
            }
            self._geometry = geometry
            if self.obstacle_factory is not None:
                self.solver.set_obstacle(
                    self.obstacle_factory(geometry["taper"], geometry["angle"])
                )
        if changes.get("reset"):
            self.solver.restore_state(self._initial_snapshot)
            self._geometry = {"taper": 0.0, "angle": 0.0}
        if "paused" in changes:
            self.paused = bool(changes["paused"])

    def _drain_steering(self) -> None:
        next_t = self.source.latest + 1
        for epoch, changes in self.steering.drain():
            self.apply_changes(changes)
            self.steering.note_applied(epoch, next_t, changes)
            self._steer_applied.inc()
        self._epoch_gauge.set(self.steering.applied_epoch)

    # -- production ------------------------------------------------------------

    def _record_epoch(self, t: int) -> None:
        self._epoch_at[int(t)] = self.steering.applied_epoch
        while len(self._epoch_at) > self._epoch_cap:
            self._epoch_at.popitem(last=False)

    def produce_timestep(self) -> int | None:
        """Drain steering, then produce one timestep (``None`` if paused)."""
        self._drain_steering()
        if self.paused:
            return None
        return self._step_and_publish()

    def _step_and_publish(self) -> int:
        t = self.source.latest + 1
        start = time.perf_counter()
        self.solver.run(self.steps_per_timestep)
        elapsed = time.perf_counter() - start
        self._sim_steps.inc(self.steps_per_timestep)
        if elapsed > 0:
            rate = self.steps_per_timestep / elapsed
            prev = self._rate_gauge.value
            self._rate_gauge.set(rate if prev == 0 else 0.7 * prev + 0.3 * rate)
        arr = extrude_slice(self.solver.u, self.solver.v, self.source.grid.shape[2])
        self.source.append(t, arr)
        gv = self.source.grid_velocity(t)
        if self.cache is not None:
            self.cache.append(t, gv)
        self._record_epoch(t)
        self._available = t
        self._published.inc()
        self._sim_time_gauge.set(float(self.solver.time))
        evictions = self.source.ring_evictions
        if evictions > self._evictions_seen:
            self._ring_evictions.inc(evictions - self._evictions_seen)
            self._evictions_seen = evictions
        if self.pipeline is not None:
            self.pipeline.nudge()
        return t

    def advance(self, n: int = 1) -> int:
        """Produce up to ``n`` timesteps inline (deterministic tests).

        A paused producer drains steering but holds position; returns the
        current frontier either way.
        """
        for _ in range(int(n)):
            if self.produce_timestep() is None:
                break
        return self._available

    # -- deterministic replay --------------------------------------------------

    def replay_steering(self, entries: list, until_t: int) -> int:
        """Reproduce a steered run from an applied log (crash recovery).

        ``entries`` is a :attr:`SteeringController.applied_log` (or the
        journal's copy): each change set is re-applied immediately before
        producing its recorded timestep, in epoch order, so the solver
        sees parameter flips at exactly the boundaries the original run
        did — the trajectories match bit-for-bit.  ``paused`` flags are
        skipped: pauses gate *when* timesteps were produced, not their
        contents.
        """
        by_timestep: dict[int, list[dict]] = {}
        for entry in sorted(entries, key=lambda e: int(e.get("epoch", 0))):
            by_timestep.setdefault(int(entry["timestep"]), []).append(entry)
        while self.source.latest < int(until_t):
            next_t = self.source.latest + 1
            for entry in by_timestep.get(next_t, []):
                changes = {
                    k: v
                    for k, v in dict(entry["changes"]).items()
                    if k != "paused"
                }
                if changes:
                    self.apply_changes(changes)
                self.steering.note_applied(
                    int(entry.get("epoch", 0)), next_t, entry["changes"]
                )
            self._step_and_publish()
        return self._available

    # -- the free-running thread ----------------------------------------------

    def start(self) -> "SolverProducer":
        if self._running:
            raise RuntimeError("producer already started")
        self.prime()
        self._running = True
        self._thread = threading.Thread(
            target=self._run_loop, name="wt-insitu-producer", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        self._wake.set()
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=5.0)
        self._thread = None

    @property
    def alive(self) -> bool:
        return self._running and self._thread is not None

    def wake(self) -> None:
        """Interrupt a pause poll or period sleep (steering just arrived)."""
        self._wake.set()

    def _run_loop(self) -> None:
        while self._running:
            start = time.perf_counter()
            produced = self.produce_timestep()
            if produced is None:
                # Paused: poll for steering (an unpause arrives through
                # the same queue) without burning the core.
                self._wake.wait(0.02)
                self._wake.clear()
                continue
            if self.period_seconds > 0:
                budget = self.period_seconds - (time.perf_counter() - start)
                if budget > 0:
                    self._wake.wait(budget)
                    self._wake.clear()

    # -- wire ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Producer half of the ``"steering"`` state section."""
        return {
            "available": self._available,
            "sim_time": float(self.solver.time),
            "sim_steps": int(self._sim_steps.value),
            "steps_per_timestep": self.steps_per_timestep,
            "paused": self.paused,
            "geometry": dict(self._geometry),
            "u_inf": float(self.solver.config.u_inf),
            "dt": float(self.solver.config.dt),
        }
