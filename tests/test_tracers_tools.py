"""Tests for the tool-level tracers: streamlines, particle paths, streaklines."""

import numpy as np
import pytest

from repro.flow import MemoryDataset, RigidRotation, UniformFlow, sample_on_grid
from repro.grid import cartesian_grid
from repro.tracers import (
    StreaklineTracer,
    TracerResult,
    compute_particle_paths,
    compute_streamlines,
)


def make_dataset(field, shape=(9, 9, 5), lo=(0, 0, 0), hi=(8, 8, 4), n_times=4, dt=0.25):
    grid = cartesian_grid(shape, lo=lo, hi=hi)
    vel = sample_on_grid(field, grid, np.arange(n_times) * dt, dtype=np.float64)
    return MemoryDataset(grid, vel, dt=dt)


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
        res = compute_streamlines(uniform_ds, 0, seeds, n_steps=10, dt=0.1)
        assert isinstance(res, TracerResult)
        phys = res.physical()
        np.testing.assert_allclose(phys[0, :, 1], 4.0, atol=1e-6)
        assert np.all(np.diff(phys[0, :, 0]) > 0)

    def test_paper_benchmark_shape(self, rotation_ds):
        """100 streamlines x 200 points: the section 5.3 benchmark."""
        rng = np.random.default_rng(0)
        seeds = rng.uniform([2, 2, 1], [6, 6, 3], size=(100, 3))
        res = compute_streamlines(rotation_ds, 0, seeds, n_steps=199, dt=0.01)
        assert res.grid_paths.shape == (100, 200, 3)
        assert res.n_points == 20000
        assert res.nbytes_wire == 240000  # paper: "240,000 bytes of data"

    def test_bidirectional_extends_both_ways(self, uniform_ds):
        seeds = np.array([[4.0, 4.0, 2.0]])
        res = compute_streamlines(
            uniform_ds, 0, seeds, n_steps=5, dt=0.1, bidirectional=True
        )
        line = res.grid_paths[0, : res.lengths[0]]
        assert line[:, 0].min() < 4.0 < line[:, 0].max()
        # Monotone along the line (upstream half reversed correctly).
        assert np.all(np.diff(line[:, 0]) > 0)

    def test_bidirectional_contains_seed_once(self, uniform_ds):
        seeds = np.array([[4.0, 4.0, 2.0]])
        res = compute_streamlines(
            uniform_ds, 0, seeds, n_steps=3, dt=0.1, bidirectional=True
        )
        line = res.grid_paths[0, : res.lengths[0]]
        matches = np.all(np.isclose(line, [4.0, 4.0, 2.0]), axis=1).sum()
        assert matches == 1

    def test_physical_is_float32_12_bytes_per_point(self, uniform_ds):
        res = compute_streamlines(uniform_ds, 0, np.array([[1.0, 4.0, 2.0]]), 5, 0.1)
        phys = res.physical()
        assert phys.dtype == np.float32
        assert phys[0].nbytes == 6 * 12

    def test_polylines_trimmed(self, uniform_ds):
        seeds = np.array([[7.0, 4.0, 2.0]])  # dies quickly moving +x
        res = compute_streamlines(uniform_ds, 0, seeds, n_steps=20, dt=0.5)
        polys = res.physical_polylines()
        assert len(polys) == 1
        assert polys[0].shape[0] == res.lengths[0] < 21


class TestComputeParticlePaths:
    def test_window_limits_length(self, uniform_ds):
        seeds = np.array([[1.0, 4.0, 2.0]])
        res = compute_particle_paths(uniform_ds, 0, seeds, n_steps=10, max_window=3)
        # max_window=3 timesteps -> at most 2 integration steps.
        assert res.grid_paths.shape[1] == 3

    def test_invalid_window(self, uniform_ds):
        with pytest.raises(ValueError):
            compute_particle_paths(
                uniform_ds, 0, np.zeros((1, 3)), n_steps=5, max_window=0
            )

    def test_uniform_advection_distance(self, uniform_ds):
        # Physical speed 1, dt 0.25, 3 steps -> 0.75 displacement.
        seeds = np.array([[1.0, 4.0, 2.0]])
        res = compute_particle_paths(uniform_ds, 0, seeds, n_steps=3)
        phys = res.physical(np.float64)
        np.testing.assert_allclose(phys[0, -1, 0] - phys[0, 0, 0], 0.75, atol=1e-9)

    def test_time_scale(self, uniform_ds):
        seeds = np.array([[1.0, 4.0, 2.0]])
        res = compute_particle_paths(uniform_ds, 0, seeds, n_steps=2, time_scale=2.0)
        phys = res.physical(np.float64)
        np.testing.assert_allclose(phys[0, 1, 0] - phys[0, 0, 0], 0.5, atol=1e-9)


class TestStreaklineTracer:
    def test_population_grows_then_saturates(self, uniform_ds):
        tr = StreaklineTracer(max_length=3)
        seeds = np.array([[1.0, 4.0, 2.0], [1.0, 5.0, 2.0]])
        for i in range(5):
            tr.advance(uniform_ds.grid_velocity(min(i, 3)), seeds, uniform_ds.dt)
            assert tr.filled == min(i + 1, 3)
        assert tr.n_seeds == 2
        assert tr.n_particles <= 6

    def test_newest_particle_at_seed(self, uniform_ds):
        tr = StreaklineTracer(max_length=5)
        seeds = np.array([[1.0, 4.0, 2.0]])
        tr.advance(uniform_ds.grid_velocity(0), seeds, uniform_ds.dt)
        tr.advance(uniform_ds.grid_velocity(1), seeds, uniform_ds.dt)
        res = tr.result(uniform_ds.grid)
        np.testing.assert_allclose(res.grid_paths[0, 0], seeds[0])

    def test_filament_trails_upstream_history(self, uniform_ds):
        tr = StreaklineTracer(max_length=10)
        seeds = np.array([[1.0, 4.0, 2.0]])
        for i in range(4):
            tr.advance(uniform_ds.grid_velocity(0), seeds, 0.25)
        res = tr.result(uniform_ds.grid)
        line = res.grid_paths[0, : res.lengths[0]]
        # Older particles have advected further downstream (+x).
        assert np.all(np.diff(line[:, 0]) > 0)
        assert res.lengths[0] == 4

    def test_particles_die_leaving_domain(self, uniform_ds):
        tr = StreaklineTracer(max_length=50)
        seeds = np.array([[6.0, 4.0, 2.0]])
        for i in range(10):
            tr.advance(uniform_ds.grid_velocity(0), seeds, 1.0)
        # Physical speed 1 = grid speed 1 (spacing 1); particles exit at
        # i=8 after 2 steps, so only ~3 live particles trail the seed.
        assert tr.n_particles <= 3 * 1 + 1
        res = tr.result(uniform_ds.grid)
        assert res.lengths[0] <= 4

    def test_reset_on_seed_count_change(self, uniform_ds):
        tr = StreaklineTracer(max_length=5)
        gv, dt = uniform_ds.grid_velocity(0), uniform_ds.dt
        tr.advance(gv, np.array([[1.0, 4.0, 2.0]]), dt)
        tr.advance(gv, np.array([[1.0, 4.0, 2.0], [1.0, 5.0, 2.0]]), dt)
        assert tr.filled == 1  # population was rebuilt
        assert tr.n_seeds == 2

    def test_explicit_reset(self, uniform_ds):
        tr = StreaklineTracer(max_length=5)
        tr.advance(
            uniform_ds.grid_velocity(0), np.array([[1.0, 4.0, 2.0]]), uniform_ds.dt
        )
        tr.reset()
        assert tr.filled == 0 and tr.n_particles == 0

    def test_empty_result(self, uniform_ds):
        tr = StreaklineTracer()
        res = tr.result(uniform_ds.grid)
        assert res.n_paths == 0
        assert res.n_points == 0

    def test_result_requires_grid_or_dataset(self, uniform_ds):
        tr = StreaklineTracer()
        with pytest.raises(ValueError):
            tr.result()
        assert tr.result(dataset=uniform_ds).n_paths == 0

    def test_moving_seed_emits_from_new_position(self, uniform_ds):
        tr = StreaklineTracer(max_length=5)
        gv, dt = uniform_ds.grid_velocity(0), uniform_ds.dt
        tr.advance(gv, np.array([[1.0, 4.0, 2.0]]), dt)
        tr.advance(gv, np.array([[1.0, 6.0, 2.0]]), dt)
        res = tr.result(uniform_ds.grid)
        np.testing.assert_allclose(res.grid_paths[0, 0], [1.0, 6.0, 2.0])

    def test_invalid_max_length(self):
        with pytest.raises(ValueError):
            StreaklineTracer(max_length=0)

    def test_invalid_seeds(self, uniform_ds):
        tr = StreaklineTracer()
        with pytest.raises(ValueError):
            tr.advance(uniform_ds.grid_velocity(0), np.zeros((2, 2)), uniform_ds.dt)


class TestStreaklineSubsteps:
    def _rotation_ds(self):
        from repro.flow import RigidRotation

        return make_dataset(
            RigidRotation(omega=[0, 0, 1.0], center=[4.0, 4.0, 0.0]),
            n_times=2,
            dt=1.0,
        )

    def test_substeps_improve_accuracy(self):
        """With a coarse frame dt, substeps keep particles on their circle."""
        ds = self._rotation_ds()
        seeds = np.array([[6.0, 4.0, 2.0]])  # radius 2 about (4, 4)
        radii = {}
        for substeps in (1, 8):
            tr = StreaklineTracer(max_length=10)
            tr.advance(ds.grid_velocity(0), seeds, 1.0, substeps=substeps)
            for _ in range(3):
                tr.advance(ds.grid_velocity(0), seeds, 1.0, substeps=substeps)
            res = tr.result(ds.grid)
            oldest = res.grid_paths[0, res.lengths[0] - 1]
            radii[substeps] = abs(
                np.linalg.norm(oldest[:2] - [4.0, 4.0]) - 2.0
            )
        assert radii[8] < radii[1]

    def test_substeps_validation(self):
        ds = self._rotation_ds()
        tr = StreaklineTracer()
        with pytest.raises(ValueError):
            tr.advance(
                ds.grid_velocity(0), np.array([[4.0, 4.0, 2.0]]), ds.dt, substeps=0
            )

    def test_single_substep_unchanged_behavior(self):
        ds = self._rotation_ds()
        seeds = np.array([[6.0, 4.0, 2.0]])
        a, b = StreaklineTracer(max_length=5), StreaklineTracer(max_length=5)
        a.advance(ds.grid_velocity(0), seeds, 0.3)
        b.advance(ds.grid_velocity(0), seeds, 0.3, substeps=1)
        np.testing.assert_array_equal(
            a.result(ds.grid).grid_paths, b.result(ds.grid).grid_paths
        )
