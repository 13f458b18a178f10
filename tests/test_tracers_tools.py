"""Tests for the tool-level tracers: streamlines, particle paths, streaklines.

Streamlines and particle paths are the two kernels wrapped in a
:class:`TracerResult`, as ``ComputeEngine.compute_rake`` wraps them; the
particle-path window clamp is the engine's (``ToolSettings.max_window``).
"""

import numpy as np
import pytest

from repro.core import ComputeEngine, ToolSettings
from repro.flow import MemoryDataset, RigidRotation, UniformFlow, sample_on_grid
from repro.grid import cartesian_grid
from repro.tracers import (
    Rake,
    TracerResult,
    compute_streaklines,
    integrate_paths,
    integrate_steady,
)


def make_dataset(field, shape=(9, 9, 5), lo=(0, 0, 0), hi=(8, 8, 4), n_times=4, dt=0.25):
    grid = cartesian_grid(shape, lo=lo, hi=hi)
    vel = sample_on_grid(field, grid, np.arange(n_times) * dt, dtype=np.float64)
    return MemoryDataset(grid, vel, dt=dt)


def streamlines(ds, t, seeds, n_steps, dt):
    return TracerResult(
        *integrate_steady(ds.grid_velocity(t), seeds, n_steps, dt), ds.grid
    )


@pytest.fixture(scope="module")
def uniform_ds():
    return make_dataset(UniformFlow([1.0, 0.0, 0.0]))


@pytest.fixture(scope="module")
def rotation_ds():
    return make_dataset(
        RigidRotation(omega=[0, 0, 1.0], center=[4.0, 4.0, 0.0]), n_times=2
    )


class TestComputeStreamlines:
    def test_straight_in_uniform_flow(self, uniform_ds):
        seeds = np.array([[1.0, 4.0, 2.0]])
        res = streamlines(uniform_ds, 0, seeds, n_steps=10, dt=0.1)
        assert isinstance(res, TracerResult)
        phys = res.physical()
        np.testing.assert_allclose(phys[0, :, 1], 4.0, atol=1e-6)
        assert np.all(np.diff(phys[0, :, 0]) > 0)

    def test_paper_benchmark_shape(self, rotation_ds):
        """100 streamlines x 200 points: the section 5.3 benchmark."""
        rng = np.random.default_rng(0)
        seeds = rng.uniform([2, 2, 1], [6, 6, 3], size=(100, 3))
        res = streamlines(rotation_ds, 0, seeds, n_steps=199, dt=0.01)
        assert res.grid_paths.shape == (100, 200, 3)
        assert res.n_points == 20000
        assert res.nbytes_wire == 240000  # paper: "240,000 bytes of data"

    def test_physical_is_float32_12_bytes_per_point(self, uniform_ds):
        res = streamlines(uniform_ds, 0, np.array([[1.0, 4.0, 2.0]]), 5, 0.1)
        phys = res.physical()
        assert phys.dtype == np.float32
        assert phys[0].nbytes == 6 * 12

    def test_polylines_trimmed(self, uniform_ds):
        seeds = np.array([[7.0, 4.0, 2.0]])  # dies quickly moving +x
        res = streamlines(uniform_ds, 0, seeds, n_steps=20, dt=0.5)
        polys = res.physical_polylines()
        assert len(polys) == 1
        assert polys[0].shape[0] == res.lengths[0] < 21


class TestComputeParticlePaths:
    def test_window_limits_length(self, uniform_ds):
        # A rake along y at x = 1 (grid = physical coordinates here).
        rake = Rake([1.0, 3.0, 2.0], [1.0, 5.0, 2.0], n_seeds=3, kind="particle_path")
        engine = ComputeEngine(
            uniform_ds, ToolSettings(particle_path_steps=10, max_window=3)
        )
        res = engine.compute_rake(rake, 0)
        # max_window=3 timesteps -> at most 2 integration steps.
        assert res.grid_paths.shape == (3, 3, 3)
        assert res.lengths.tolist() == [3, 3, 3]
        fused = engine.compute_rakes({0: rake}, 0)[0]
        np.testing.assert_array_equal(fused.grid_paths, res.grid_paths)

    def test_invalid_window(self, uniform_ds):
        rake = Rake([1.0, 3.0, 2.0], [1.0, 5.0, 2.0], n_seeds=2, kind="particle_path")
        engine = ComputeEngine(uniform_ds, ToolSettings(max_window=0))
        with pytest.raises(ValueError):
            engine.compute_rake(rake, 0)

    def test_uniform_advection_distance(self, uniform_ds):
        # Physical speed 1, dt 0.25, 3 steps -> 0.75 displacement.
        seeds = np.array([[1.0, 4.0, 2.0]])
        ds = uniform_ds
        res = TracerResult(
            *integrate_paths(ds.grid_velocity, seeds, 0, 3, ds.n_timesteps, ds.dt),
            ds.grid,
        )
        phys = res.physical(np.float64)
        np.testing.assert_allclose(phys[0, -1, 0] - phys[0, 0, 0], 0.75, atol=1e-9)


class TestComputeStreaklines:
    def test_population_grows_then_saturates(self, uniform_ds):
        seeds = np.array([[1.0, 4.0, 2.0], [1.0, 5.0, 2.0]])
        for t in range(uniform_ds.n_timesteps):
            res = compute_streaklines(uniform_ds, t, seeds, length=3)
            assert res.grid_paths.shape == (2, min(t + 1, 3), 3)
            assert res.n_points <= 6

    def test_newest_particle_at_seed(self, uniform_ds):
        seeds = np.array([[1.0, 4.0, 2.0]])
        res = compute_streaklines(uniform_ds, 1, seeds, length=5)
        np.testing.assert_allclose(res.grid_paths[0, 0], seeds[0])

    def test_filament_trails_upstream_history(self, uniform_ds):
        seeds = np.array([[1.0, 4.0, 2.0]])
        res = compute_streaklines(uniform_ds, 3, seeds, length=10)
        line = res.grid_paths[0, : res.lengths[0]]
        # Older particles have advected further downstream (+x).
        assert np.all(np.diff(line[:, 0]) > 0)
        assert res.lengths[0] == 4

    def test_particles_die_leaving_domain(self):
        ds = make_dataset(UniformFlow([1.0, 0.0, 0.0]), n_times=10, dt=1.0)
        # Physical speed 1 = grid speed 1 (spacing 1): the particle of age
        # a sits at x = 6 + a, so ages 0-2 are inside and age 3 is out.
        res = compute_streaklines(ds, 9, np.array([[6.0, 4.0, 2.0]]), length=50)
        assert res.grid_paths.shape[1] == 10
        assert res.lengths.tolist() == [3]
        # Vertices past the filament's end freeze at its last particle.
        tail = res.grid_paths[0, 3:]
        np.testing.assert_array_equal(tail, np.broadcast_to(res.grid_paths[0, 2], tail.shape))

    def test_empty_result(self, uniform_ds):
        res = compute_streaklines(uniform_ds, 2, np.zeros((0, 3)))
        assert res.n_paths == 0
        assert res.n_points == 0

    def test_moving_seed_emits_from_new_position(self, uniform_ds):
        """The whole filament is released from the rake's current seeds:
        section 2.1's 'given fixed point'."""
        res = compute_streaklines(uniform_ds, 3, np.array([[1.0, 6.0, 2.0]]), length=5)
        np.testing.assert_allclose(res.grid_paths[0, 0], [1.0, 6.0, 2.0])
        np.testing.assert_allclose(res.grid_paths[0, :, 1], 6.0)

    def test_invalid_length(self, uniform_ds):
        with pytest.raises(ValueError):
            compute_streaklines(uniform_ds, 0, np.zeros((1, 3)), length=0)

    def test_invalid_seeds(self, uniform_ds):
        with pytest.raises(ValueError):
            compute_streaklines(uniform_ds, 0, np.zeros((2, 2)))

    def test_one_advance_equals_a_rebuild(self):
        """``previous`` is an economy, never a different answer — also
        while the window slides and particles leave the domain."""
        ds = make_dataset(
            RigidRotation(omega=[0, 0, 1.0], center=[4.0, 4.0, 0.0])
            + UniformFlow([0.6, 0.0, 0.0]),
            n_times=8, dt=0.5,
        )
        seeds = np.array([[2.0, 4.0, 2.0], [7.5, 4.5, 2.0], [0.5, 1.5, 1.0]])
        previous = None
        for t in range(ds.n_timesteps):
            rebuilt = compute_streaklines(ds, t, seeds, length=4)
            previous = compute_streaklines(ds, t, seeds, length=4, previous=previous)
            np.testing.assert_array_equal(previous.grid_paths, rebuilt.grid_paths)
            np.testing.assert_array_equal(previous.lengths, rebuilt.lengths)
        assert previous.lengths.min() < 4, "some filament should be cut short"

    def test_history_starts_at_the_oldest_readable_timestep(self, uniform_ds):
        class Retired(MemoryDataset):
            oldest_timestep = 2

        ds = Retired(uniform_ds.grid, uniform_ds.velocities, dt=uniform_ds.dt)
        reads = []
        res = compute_streaklines(
            ds, 3, np.array([[1.0, 4.0, 2.0]]), length=64,
            field_at=lambda t: (reads.append(t), ds.grid_velocity(t))[1],
        )
        assert reads == [2, 3]
        assert res.grid_paths.shape[1] == 2
