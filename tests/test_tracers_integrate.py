"""Tests for the RK2 integration core."""

import numpy as np
import pytest

from repro.flow import MemoryDataset, RigidRotation, UniformFlow, sample_on_grid
from repro.grid import cartesian_grid
from repro.tracers import (
    IntegratorWorkspace,
    advance_rk2,
    integrate_paths,
    integrate_steady,
)


def make_dataset(field, shape=(9, 9, 5), lo=(-2, -2, 0), hi=(2, 2, 1), times=(0.0,)):
    grid = cartesian_grid(shape, lo=lo, hi=hi)
    vel = sample_on_grid(field, grid, np.asarray(times), dtype=np.float64)
    return MemoryDataset(grid, vel, dt=times[1] - times[0] if len(times) > 1 else 1.0)


@pytest.fixture(scope="module")
def rotation_gv():
    """Grid-coordinate velocity of a rigid rotation on a symmetric grid."""
    ds = make_dataset(RigidRotation(omega=[0, 0, 1.0]), shape=(17, 17, 3))
    return ds, ds.grid_velocity(0)


class TestAdvanceRK2:
    def test_uniform_flow_is_exact(self):
        ds = make_dataset(UniformFlow([1.0, 0.0, 0.0]), hi=(2, 2, 1))
        gv = ds.grid_velocity(0)
        # Physical v=(1,0,0); grid spacing 0.5 in x (9 nodes over 4) -> grid
        # velocity 2 in i.
        start = np.array([[1.0, 4.0, 2.0]])
        out = advance_rk2(gv, start, 0.1)
        np.testing.assert_allclose(out, [[1.2, 4.0, 2.0]], atol=1e-12)

    def test_rk2_is_second_order(self, rotation_gv):
        """Halving dt reduces the fixed-horizon error ~4x.

        The rotation field is affine, so trilinear interpolation is exact
        and the only error is the time integrator's.
        """
        _, gv = rotation_gv
        start = np.array([[11.0, 8.0, 1.0]])  # radius 3 grid units
        horizon = 4.0
        angle = horizon  # omega = 1 in grid units on this symmetric grid
        exact = np.array(
            [8.0 + 3.0 * np.cos(angle), 8.0 + 3.0 * np.sin(angle), 1.0]
        )

        def error(n):
            dt = horizon / n
            coords = start.copy()
            for _ in range(n):
                coords = advance_rk2(gv, coords, dt)
            return np.linalg.norm(coords[0] - exact)

        e1, e2 = error(128), error(256)
        ratio = e1 / e2
        assert 3.5 < ratio < 4.5, f"convergence ratio {ratio}"

    def test_circular_orbit_stays_near_circle(self, rotation_gv):
        _, gv = rotation_gv
        coords = np.array([[10.0, 8.0, 1.0]])
        r0 = 2.0
        for _ in range(100):
            coords = advance_rk2(gv, coords, 0.02)
        r = np.linalg.norm(coords[0, :2] - [8.0, 8.0])
        np.testing.assert_allclose(r, r0, rtol=1e-3)


class TestIntegrateSteady:
    def test_shapes_and_lengths(self, rotation_gv):
        _, gv = rotation_gv
        seeds = np.array([[10.0, 8.0, 1.0], [12.0, 8.0, 1.0]])
        paths, lengths = integrate_steady(gv, seeds, 50, 0.02)
        assert paths.shape == (2, 51, 3)
        assert lengths.tolist() == [51, 51]
        np.testing.assert_allclose(paths[:, 0], seeds)

    def test_particle_dies_at_boundary(self):
        ds = make_dataset(
            UniformFlow([1.0, 0.0, 0.0]), shape=(5, 5, 3), lo=(0, 0, 0), hi=(4, 4, 1)
        )
        gv = ds.grid_velocity(0)
        seeds = np.array([[3.0, 2.0, 1.0]])
        paths, lengths = integrate_steady(gv, seeds, 10, 0.5)
        # Grid velocity 1/grid-unit; from i=3, steps of 0.5: dies past i=4.
        assert lengths[0] == 3  # seed + 2 recorded steps (3.5, 4.0)
        # Frozen at last valid vertex thereafter.
        np.testing.assert_allclose(paths[0, lengths[0] - 1 :, 0], 4.0)

    def test_seed_outside_domain_never_moves(self, rotation_gv):
        _, gv = rotation_gv
        seeds = np.array([[-5.0, 0.0, 1.0]])
        paths, lengths = integrate_steady(gv, seeds, 5, 0.1)
        assert lengths[0] == 1
        np.testing.assert_allclose(paths[0], np.tile(seeds[0], (6, 1)))

    def test_zero_steps(self, rotation_gv):
        _, gv = rotation_gv
        seeds = np.array([[8.0, 8.0, 1.0]])
        paths, lengths = integrate_steady(gv, seeds, 0, 0.1)
        assert paths.shape == (1, 1, 3)
        assert lengths[0] == 1

    def test_input_validation(self, rotation_gv):
        _, gv = rotation_gv
        with pytest.raises(ValueError):
            integrate_steady(gv, np.zeros((2, 2)), 5, 0.1)
        with pytest.raises(ValueError):
            integrate_steady(gv, np.zeros((2, 3)), -1, 0.1)

    def test_seeds_not_mutated(self, rotation_gv):
        _, gv = rotation_gv
        seeds = np.array([[10.0, 8.0, 1.0]])
        original = seeds.copy()
        integrate_steady(gv, seeds, 10, 0.1)
        np.testing.assert_array_equal(seeds, original)


class TestIntegratePaths:
    def test_unsteady_uses_successive_timesteps(self):
        # Field switches from +x to +y between timesteps: the particle path
        # must bend, which a frozen-field streamline cannot.
        grid = cartesian_grid((9, 9, 3), lo=(0, 0, 0), hi=(8, 8, 2))
        vel = np.zeros((3, 9, 9, 3, 3))
        vel[0, ..., 0] = 1.0  # t0: +x
        vel[1, ..., 1] = 1.0  # t1: +y
        vel[2, ..., 1] = 1.0
        ds = MemoryDataset(grid, vel, dt=1.0)
        seeds = np.array([[2.0, 2.0, 1.0]])
        paths, lengths = integrate_paths(
            ds.grid_velocity, seeds, 0, 2, ds.n_timesteps, ds.dt
        )
        assert lengths[0] == 3
        # Step 1: Heun average of +x (t0) and +y (t1) fields.
        np.testing.assert_allclose(paths[0, 1], [2.5, 2.5, 1.0], atol=1e-12)
        # Step 2: both stages +y.
        np.testing.assert_allclose(paths[0, 2], [2.5, 3.5, 1.0], atol=1e-12)

    def test_length_clamped_by_available_timesteps(self):
        ds = make_dataset(
            UniformFlow([0.1, 0, 0]), shape=(9, 9, 3), hi=(8, 8, 2),
            times=np.arange(4) * 1.0,
        )
        seeds = np.array([[1.0, 1.0, 1.0]])
        paths, lengths = integrate_paths(
            ds.grid_velocity, seeds, 2, 100, ds.n_timesteps, ds.dt
        )
        assert paths.shape[1] == 2  # t0=2 leaves one step (to t=3)
        assert lengths[0] == 2

    def test_t0_out_of_range(self):
        ds = make_dataset(UniformFlow(), times=np.arange(3) * 1.0)
        with pytest.raises(IndexError):
            integrate_paths(ds.grid_velocity, np.zeros((1, 3)), 3, 1, 3, 1.0)

    def test_bad_seed_shape(self):
        ds = make_dataset(UniformFlow(), times=np.arange(3) * 1.0)
        with pytest.raises(ValueError):
            integrate_paths(ds.grid_velocity, np.zeros((1, 2)), 0, 1, 3, 1.0)

    @pytest.mark.parametrize("workspace", [False, True], ids=["plain", "workspace"])
    @pytest.mark.parametrize("n_steps", [-1, -3])
    def test_negative_steps_rejected(self, n_steps, workspace):
        """The same typed error as :func:`integrate_steady`, not an
        IndexError or a NumPy shape error from inside the loop."""
        ds = make_dataset(UniformFlow(), times=np.arange(3) * 1.0)
        ws = IntegratorWorkspace() if workspace else None
        with pytest.raises(ValueError, match="n_steps must be non-negative"):
            integrate_paths(
                ds.grid_velocity, np.ones((1, 3)), 0, n_steps, 3, 1.0, workspace=ws
            )

    def test_steady_field_path_matches_streamline(self):
        """In a steady dataset, particle paths equal streamlines."""
        ds = make_dataset(
            RigidRotation(omega=[0, 0, 1.0]),
            shape=(17, 17, 3),
            times=np.arange(11) * 0.05,
        )
        seeds = np.array([[10.0, 8.0, 1.0]])
        p_paths, _ = integrate_paths(
            ds.grid_velocity, seeds, 0, 10, ds.n_timesteps, ds.dt
        )
        s_paths, _ = integrate_steady(ds.grid_velocity(0), seeds, 10, ds.dt)
        np.testing.assert_allclose(p_paths, s_paths, atol=1e-12)
