"""Unit tests for the in situ package: source, steering, producer.

The determinism tests are the load-bearing ones: solver snapshot-restore
must be bit-identical, and a steered run replayed from its applied log
must reproduce the original timesteps exactly — that equivalence is what
lets the gateway journal stand in for a velocity-field checkpoint.
"""

import numpy as np
import pytest

from repro.diskio.cache import TieredTimestepCache
from repro.flow.solver import NavierStokes2D, SolverConfig, tapered_cylinder_mask
from repro.grid.curvilinear import cartesian_grid
from repro.insitu import (
    STEERING_RANGES,
    LiveFlowSource,
    SolverProducer,
    SteeringConflictError,
    SteeringController,
    extrude_slice,
)
from repro.obs import MetricsRegistry


def small_config(**overrides):
    base = dict(nx=32, ny=16)
    base.update(overrides)
    return SolverConfig(**base)


def make_source(config=None, *, nk=3, ring_capacity=8):
    config = config or small_config()
    solver = NavierStokes2D(config)
    grid = cartesian_grid(
        (config.nx, config.ny, nk),
        lo=(0.5 * config.dx, 0.5 * config.dy, 0.0),
        hi=(config.lx - 0.5 * config.dx, config.ly - 0.5 * config.dy, 1.0),
    )
    source = LiveFlowSource(
        grid,
        extrude_slice(solver.u, solver.v, nk),
        dt=config.dt,
        ring_capacity=ring_capacity,
    )
    return solver, source


class TestLiveFlowSource:
    def test_extrude_slice_layout(self):
        u = np.arange(6.0).reshape(3, 2)
        v = -u
        arr = extrude_slice(u, v, nk=4)
        assert arr.shape == (3, 2, 4, 3) and arr.dtype == np.float32
        np.testing.assert_array_equal(arr[..., 0, 0], u.astype(np.float32))
        np.testing.assert_array_equal(arr[..., 3, 1], v.astype(np.float32))
        assert np.all(arr[..., 2] == 0.0)

    def test_initial_shape_validated(self):
        config = small_config()
        grid = cartesian_grid((config.nx, config.ny, 3))
        with pytest.raises(ValueError, match="shape"):
            LiveFlowSource(grid, np.zeros((2, 2, 3, 3)), dt=0.01)

    def test_admit_grows_n_timesteps(self):
        _, source = make_source()
        assert source.n_timesteps == 1
        source.admit(1)
        assert source.n_timesteps == 2 and source.oldest_timestep == 0
        source.admit(1)  # idempotent
        assert source.n_timesteps == 2
        assert source.velocity(0).shape == source.grid.shape + (3,)

    def test_retired_timestep_raises(self):
        _, source = make_source(ring_capacity=2)
        source.admit(3)
        with pytest.raises(IndexError, match="retired"):
            source.velocity(0)

    def test_retired_and_future_errors_are_distinct(self):
        _, source = make_source(ring_capacity=2)
        source.admit(2)
        with pytest.raises(IndexError, match="retired"):
            source.velocity(0)
        with pytest.raises(IndexError, match="not been produced"):
            source.velocity(9)

    def test_index_error_names_the_window(self):
        """Timestep 0 is the only one the source holds, and only while
        the window does: every other read names the window."""
        _, source = make_source(ring_capacity=4)
        source.admit(40)
        assert source.oldest_timestep == 37
        for t in (0, 5):
            with pytest.raises(IndexError, match=r"retired .*\[37, 40\]"):
                source.velocity(t)
        with pytest.raises(IndexError, match=r"not held .*\[37, 40\]"):
            source.velocity(38)
        with pytest.raises(IndexError, match=r"not been produced .*\[37, 40\]"):
            source.velocity(41)

    def test_ring_capacity_validated(self):
        with pytest.raises(ValueError, match="ring_capacity"):
            make_source(ring_capacity=1)

    def test_byte_accounting_outlives_timestep_zero(self):
        """Sizes are recorded at construction, not read off timestep 0 —
        which is the first thing a bounded ring retires."""
        from repro.diskio import SharedTimestepCache, dataset_key

        solver, source = make_source(ring_capacity=4)
        arr = extrude_slice(solver.u, solver.v, 3)
        per = source.timestep_nbytes
        assert per == arr.nbytes
        source.admit(8)
        assert source.timestep_nbytes == per
        assert source.total_nbytes == 9 * per
        assert dataset_key(source)  # used to raise with the property
        shared = SharedTimestepCache.for_dataset(source, slots=2, create="always")
        shared.close()


class TestSteeringController:
    def test_validate_ranges(self):
        ok = SteeringController.validate({"u_inf": 2.0, "paused": 1})
        assert ok == {"u_inf": 2.0, "paused": True}
        with pytest.raises(ValueError, match="out of range"):
            SteeringController.validate({"u_inf": 99.0})
        with pytest.raises(ValueError, match="unknown steering parameter"):
            SteeringController.validate({"warp": 9})
        with pytest.raises(ValueError, match="at least one"):
            SteeringController.validate({})

    def test_every_range_key_accepts_midpoint(self):
        for key, (lo, hi) in STEERING_RANGES.items():
            mid = 0.5 * (lo + hi)
            assert SteeringController.validate({key: mid}) == {key: mid}

    def test_lease_is_fcfs(self):
        now = {"t": 0.0}
        ctl = SteeringController(hold_seconds=2.0, time_fn=lambda: now["t"])
        ctl.request(1, {"u_inf": 1.0})
        with pytest.raises(SteeringConflictError) as exc:
            ctl.request(2, {"u_inf": 2.0})
        assert exc.value.owner == 1 and exc.value.seconds_left > 0
        assert ctl.conflicts_total == 1

    def test_lease_expires_and_releases(self):
        now = {"t": 0.0}
        ctl = SteeringController(hold_seconds=2.0, time_fn=lambda: now["t"])
        ctl.request(1, {"u_inf": 1.0})
        now["t"] = 3.0  # expiry hands the tunnel to the next user
        ctl.request(2, {"u_inf": 2.0})
        assert ctl.release(2) is True
        assert ctl.release(1) is False  # not the holder any more
        ctl.request(1, {"u_inf": 1.5})  # released lease is free immediately

    def test_epochs_assigned_in_order(self):
        ctl = SteeringController()
        r1 = ctl.request(1, {"u_inf": 1.0})
        r2 = ctl.request(1, {"dt": 0.002})
        assert (r1["epoch"], r2["epoch"]) == (1, 2)
        assert r2["pending"] == 2
        drained = ctl.drain()
        assert [e for e, _ in drained] == [1, 2]
        assert ctl.drain() == []

    def test_applied_log_and_snapshot(self):
        ctl = SteeringController()
        ctl.request(1, {"u_inf": 1.0})
        for epoch, changes in ctl.drain():
            ctl.note_applied(epoch, 5, changes)
        assert ctl.applied_epoch == 1
        assert ctl.applied_log == [
            {"epoch": 1, "timestep": 5, "changes": {"u_inf": 1.0}}
        ]
        snap = ctl.snapshot()
        assert snap["applied_epoch"] == 1 and snap["pending"] == 0
        assert snap["requests_total"] == 1

    def test_mark_restored_seats_epoch_counter(self):
        ctl = SteeringController()
        ctl.mark_restored(
            [{"epoch": 4, "timestep": 2, "changes": {"u_inf": 2.0}}]
        )
        assert ctl.applied_epoch == 4
        assert ctl.request(1, {"dt": 0.002})["epoch"] == 5


class TestSolverDeterminism:
    def test_snapshot_restore_is_bit_identical(self):
        config = small_config()
        a = NavierStokes2D(config, obstacle=tapered_cylinder_mask(config))
        a.run(10)
        snap = a.snapshot_state()
        a.run(20)
        after_a = (a.u.copy(), a.v.copy())

        b = NavierStokes2D(small_config(u_inf=2.5))  # different start state
        b.restore_state(snap)
        b.set_obstacle(a.obstacle)
        b.run(20)
        assert np.array_equal(after_a[0], b.u)
        assert np.array_equal(after_a[1], b.v)

    def test_reconfigure_rejects_geometry(self):
        solver = NavierStokes2D(small_config())
        with pytest.raises(ValueError, match="geometry"):
            solver.reconfigure(nx=64)
        assert solver.reconfigure(u_inf=2.0).u_inf == 2.0


def make_producer(solver, source, **kwargs):
    """A producer writing through a tier-1 cache as long as the window."""
    cache = TieredTimestepCache(source, l1_timesteps=source.ring_capacity)
    return SolverProducer(solver, source, cache=cache, **kwargs)


class TestSolverProducer:
    def make_producer(self, **kwargs):
        solver, source = make_source()
        return make_producer(
            solver,
            source,
            steps_per_timestep=kwargs.pop("steps_per_timestep", 2),
            registry=kwargs.pop("registry", MetricsRegistry()),
            **kwargs,
        )

    def test_prime_is_idempotent(self):
        p = self.make_producer()
        assert p.available == -1
        assert p.prime() == 0
        assert p.prime() == 0
        assert p.registry.counter("insitu.timesteps_published").value == 1

    def test_advance_publishes_and_counters_reconcile(self):
        p = self.make_producer()
        p.prime()
        p.advance(4)
        assert p.available == 4
        assert p.source.n_timesteps == 5
        sim_steps = p.registry.counter("insitu.sim_steps_total").value
        published = p.registry.counter("insitu.timesteps_published").value
        # Priming publishes t=0 without stepping; every later timestep
        # is exactly steps_per_timestep solver steps.
        assert sim_steps == (published - 1) * p.steps_per_timestep

    def test_steering_applies_at_boundary_and_stamps_epochs(self):
        p = self.make_producer()
        p.prime()
        p.advance(2)
        p.steering.request(7, {"u_inf": 2.0})
        assert p.epoch_for(2) == 0
        p.advance(1)
        assert p.solver.config.u_inf == 2.0
        assert p.epoch_for(3) == 1
        assert p.steering.applied_log[0]["timestep"] == 3
        assert p.registry.counter("insitu.steer_applied").value == 1

    def test_pause_holds_frontier_but_drains_steering(self):
        p = self.make_producer()
        p.prime()
        p.advance(2)
        p.steering.request(7, {"paused": True})
        assert p.advance(3) == 2  # frontier frozen
        assert p.paused is True
        p.steering.request(7, {"paused": False, "u_inf": 3.0})
        assert p.advance(1) == 3
        assert p.solver.config.u_inf == 3.0

    def test_reset_restores_initial_condition(self):
        p = self.make_producer()
        p.prime()
        p.advance(3)
        initial_u = p._initial_snapshot["u"]
        p.steering.request(7, {"reset": True})
        p.advance(1)
        # The timestep after the reset is one solver burst from t=0.
        fresh = NavierStokes2D(small_config())
        fresh.run(p.steps_per_timestep)
        assert np.array_equal(p.solver.u, fresh.u)
        assert not np.array_equal(initial_u, p.solver.u)

    def test_cache_write_through_makes_reads_hits(self):
        solver, source = make_source()
        cache = TieredTimestepCache(source, l1_timesteps=8)
        p = SolverProducer(solver, source, cache=cache, steps_per_timestep=2)
        p.prime()
        p.advance(2)
        before = cache.l1.stats.misses.value
        for t in range(3):
            cache.get(t)
        assert cache.l1.stats.misses.value == before
        assert cache.l1.stats.appends.value == 3

    def test_obstacle_factory_drives_taper_and_angle(self):
        config = small_config()
        solver, source = make_source(config)
        calls = []

        def factory(taper, angle):
            calls.append((taper, angle))
            return tapered_cylinder_mask(config, taper=taper, angle_degrees=angle)

        p = make_producer(
            solver, source, steps_per_timestep=1, obstacle_factory=factory
        )
        p.prime()
        p.steering.request(7, {"taper": 0.5})
        p.advance(1)
        p.steering.request(7, {"angle": 20.0})
        p.advance(1)
        assert calls == [(0.5, 0.0), (0.5, 20.0)]
        assert p.snapshot()["geometry"] == {"taper": 0.5, "angle": 20.0}

    def test_steered_replay_is_bit_identical(self):
        # Original run: steer twice while producing eight timesteps.
        p = self.make_producer()
        p.prime()
        p.advance(2)
        p.steering.request(7, {"u_inf": 2.0})
        p.advance(3)
        p.steering.request(7, {"dt": 0.002})
        p.advance(3)
        reference = {
            t: p.cache.get(t)[0].copy()
            for t in range(p.source.oldest_timestep, p.available + 1)
        }
        log = [dict(e) for e in p.steering.applied_log]

        # Replay on a fresh producer from the journal alone.
        q = self.make_producer()
        q.prime()
        q.replay_steering(log, until_t=p.available)
        assert len(reference) == p.source.ring_capacity
        for t, expected in reference.items():
            assert np.array_equal(q.cache.get(t)[0], expected), t
        assert q.steering.applied_epoch == p.steering.applied_epoch


class TestJournalSteering:
    def test_record_and_recover(self, tmp_path):
        from repro.gateway.journal import SessionJournal

        path = str(tmp_path / "journal.json")
        j = SessionJournal(path)
        j.record_join("w0", 1, "alice", "tok")
        j.record_steering("w0", {"epoch": 1, "changes": {"u_inf": 2.0}})
        j.record_steering("w0", {"epoch": 2, "changes": {"taper": 0.5}})
        state = j.recovery_state("w0")
        assert [e["epoch"] for e in state["steering"]] == [1, 2]

        # A restarted gateway reloads the steering log from disk.
        j2 = SessionJournal(path)
        state2 = j2.recovery_state("w0")
        assert state2["steering"] == state["steering"]

    def test_recovery_state_default_has_empty_log(self):
        from repro.gateway.journal import SessionJournal

        assert SessionJournal().recovery_state("nope")["steering"] == []

    def test_old_journal_without_steering_loads(self, tmp_path):
        import json

        from repro.gateway.journal import SessionJournal

        path = tmp_path / "journal.json"
        path.write_text(
            json.dumps(
                {
                    "w0": {
                        "sessions": {},
                        "rakes": {},
                        "clock": None,
                        "tool_settings": None,
                    }
                }
            )
        )
        j = SessionJournal(str(path))
        assert j.recovery_state("w0")["steering"] == []
