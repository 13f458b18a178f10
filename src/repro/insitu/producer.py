"""The solver producer: step the simulation into the live source.

One producer owns one :class:`~repro.flow.solver.NavierStokes2D` and is
the *only* caller that steps it.  Each produced timestep is
``steps_per_timestep`` solver steps, extruded to the windtunnel layout
and installed in strict order:

1. convert it to grid coordinates, once;
2. write it through the cache's append path — a
   :class:`~repro.diskio.cache.TieredTimestepCache` in process, the
   tier-2 segment itself in a solver child — so the very next read hits;
3. admit it to the :class:`~repro.insitu.source.LiveFlowSource`
   (extends ``n_timesteps``), which keeps no copy: the cache holds it;
4. advance the *published frontier* — the live clock reads this, so the
   visualization can never ask for a timestep whose data is not already
   cache-resident;
5. nudge the demand-gated pipeline.

A live server free-runs its producer in a child process
(:mod:`repro.insitu.process`); the server's own producer steps nothing
once the child runs, and adopts the child's reports instead
(:meth:`SolverProducer.adopt`): the child appended each timestep to tier
2 before reporting it, so steps 3–5 follow with no copy, and the
pipeline's load reads the new timestep from tier 2.

Steering changes drain at timestep boundaries only (never mid-step), in
epoch order, and the applied log records ``(epoch, timestep, changes)``
— replaying that log through :meth:`SolverProducer.replay_steering`
reproduces the steered trajectory bit-for-bit, which is what the gateway
journal leans on for crash recovery (docs/steering.md).
"""

from __future__ import annotations

import time
from collections import OrderedDict

from repro.grid.jacobian import physical_to_grid_velocity
from repro.insitu.source import LiveFlowSource, extrude_slice
from repro.insitu.steering import SteeringController
from repro.obs import MetricsRegistry

__all__ = ["SolverProducer"]

#: timestep -> steering-epoch history retained (multiples of the window).
_EPOCH_HISTORY_FACTOR = 4


class SolverProducer:
    """Steps the solver and publishes fresh timesteps into the source.

    Parameters
    ----------
    solver
        A :class:`~repro.flow.solver.NavierStokes2D` (already holding the
        initial condition that became the source's timestep 0).
    source
        The :class:`LiveFlowSource` whose frontier each timestep extends.
    cache
        Where each produced timestep's grid velocities go: a
        :class:`~repro.diskio.cache.TieredTimestepCache` (the loader's
        read path then hits L1), or a solver child's tier-2 segment.
    steering
        The shared :class:`SteeringController` (one per tunnel).
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
    """

    def __init__(
        self,
        solver,
        source: LiveFlowSource,
        *,
        cache,
        steering: SteeringController | None = None,
        steps_per_timestep: int = 5,
        obstacle_factory=None,
        pipeline=None,
        registry: MetricsRegistry | None = None,
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
        self._epoch_cap = _EPOCH_HISTORY_FACTOR * source.ring_capacity
        self._available = -1
        self._retired = 0
        self._rate_mark: tuple[float, int] | None = None
        # The last report adopted from a solver child (None: none yet, and
        # this producer's own solver is the one stepping).
        self._reported: dict | None = None

    # -- the published frontier ----------------------------------------------

    @property
    def available(self) -> int:
        """Newest timestep whose data is installed everywhere (-1 = none).

        This — not the source's frontier — is what the live clock follows:
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
        self.cache.append(0, self.source.grid_velocity(0))
        self._record_epoch(0, self.steering.applied_epoch)
        self._publish(0, float(self.solver.time))
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
        next_t = self.source.n_timesteps
        for epoch, changes in self.steering.drain():
            self.apply_changes(changes)
            self.steering.note_applied(epoch, next_t, changes)
            self._steer_applied.inc()
        self._epoch_gauge.set(self.steering.applied_epoch)

    # -- production ------------------------------------------------------------

    def _record_epoch(self, t: int, epoch: int) -> None:
        self._epoch_at[int(t)] = int(epoch)
        while len(self._epoch_at) > self._epoch_cap:
            self._epoch_at.popitem(last=False)

    def produce_timestep(self) -> int | None:
        """Drain steering, then produce one timestep (``None`` if paused)."""
        self._drain_steering()
        if self.paused:
            return None
        return self._step_and_publish()

    def _step_and_publish(self) -> int:
        t = self.source.n_timesteps
        self.solver.run(self.steps_per_timestep)
        self._sim_steps.inc(self.steps_per_timestep)
        grid = self.source.grid
        arr = extrude_slice(self.solver.u, self.solver.v, grid.shape[2])
        self.cache.append(t, physical_to_grid_velocity(grid, arr))
        self.source.admit(t)
        self._record_epoch(t, self.steering.applied_epoch)
        self._publish(t, float(self.solver.time))
        return t

    def _publish(self, t: int, sim_time: float) -> None:
        """Advance the frontier to ``t``, whose data the cache holds."""
        self._published.inc(t - self._available)
        self._available = t
        self._sim_time_gauge.set(sim_time)
        retired = max(0, t + 1 - self.source.ring_capacity)
        self._ring_evictions.inc(retired - self._retired)
        self._retired = retired
        now, steps = time.perf_counter(), self._sim_steps.value
        if self._rate_mark is not None and now > self._rate_mark[0]:
            rate = (steps - self._rate_mark[1]) / (now - self._rate_mark[0])
            prev = self._rate_gauge.value
            self._rate_gauge.set(rate if prev == 0 else 0.7 * prev + 0.3 * rate)
        self._rate_mark = (now, steps)
        if self.pipeline is not None:
            self.pipeline.nudge()

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
        while self.source.n_timesteps <= int(until_t):
            next_t = self.source.n_timesteps
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

    # -- the solver child's reports ---------------------------------------------

    def report(self) -> dict:
        """This producer's state at a timestep boundary: what a solver
        child sends its server after each one (:meth:`adopt`)."""
        return {
            "t": self._available,
            "epoch": self.steering.applied_epoch,
            "sim_steps": int(self._sim_steps.value),
            "sim_time": float(self.solver.time),
            "u_inf": float(self.solver.config.u_inf),
            "dt": float(self.solver.config.dt),
            "geometry": dict(self._geometry),
            "paused": self.paused,
        }

    def handoff(self) -> dict:
        """What a solver child needs to carry on from here (:meth:`resume`).

        The steered regime travels — solver state, initial condition,
        geometry, pause and applied epoch — but not a trajectory: a
        child carries on from the primed timestep 0.
        """
        if self._available != 0:
            raise RuntimeError(
                "a solver child carries on from the primed timestep 0, "
                f"not from timestep {self._available}"
            )
        return {
            "solver": self.solver.snapshot_state(),
            "initial": self._initial_snapshot,
            "geometry": dict(self._geometry),
            "paused": self.paused,
            "epoch": self.steering.applied_epoch,
        }

    def resume(self, handoff: dict) -> None:
        """Carry on from a :meth:`handoff`, whose timestep 0 is published."""
        self.solver.restore_state(handoff["solver"])
        self._initial_snapshot = handoff["initial"]
        self._geometry = dict(handoff["geometry"])
        self.paused = bool(handoff["paused"])
        self.steering.applied_epoch = int(handoff["epoch"])
        self._record_epoch(0, self.steering.applied_epoch)
        self._available = 0

    def adopt(self, reports: list[dict]) -> int:
        """Publish a batch of a solver child's reports, oldest first.

        Each report is a :meth:`report` plus the ``applied`` steering
        entries the child logged since its last one.  The applied log and
        the timestep → epoch records follow every report; then the
        frontier and the counters advance to the newest timestep and the
        pipeline is nudged.  The child appended that timestep to tier 2
        before reporting it, so the frontier still trails the cache.
        ``paused`` is set last: a reader that sees it sees every counter
        of the timesteps before it.  Returns the frontier.
        """
        last_t = self._available
        for report in reports:
            for entry in report["applied"]:
                self.steering.note_applied(
                    entry["epoch"], entry["timestep"], entry["changes"]
                )
                self._steer_applied.inc()
            if report["t"] > last_t:
                last_t = report["t"]
                self._record_epoch(last_t, report["epoch"])
        newest = self._reported = reports[-1]
        self._geometry = dict(newest["geometry"])
        self._epoch_gauge.set(self.steering.applied_epoch)
        t = newest["t"]
        if t > self._available:
            self.source.admit(t)
            self._sim_steps.inc(newest["sim_steps"] - self._sim_steps.value)
            self._publish(t, newest["sim_time"])
        self.paused = bool(newest["paused"])
        return self._available

    # -- wire ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Producer half of the ``"steering"`` state section."""
        state = self._reported or self.report()
        return {
            "available": self._available,
            "sim_time": state["sim_time"],
            "sim_steps": int(self._sim_steps.value),
            "steps_per_timestep": self.steps_per_timestep,
            "paused": self.paused,
            "geometry": dict(self._geometry),
            "u_inf": state["u_inf"],
            "dt": state["dt"],
        }
