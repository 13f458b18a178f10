"""Tests for derived scalar fields (gradients, vorticity, Q)."""

import numpy as np
import pytest

from repro.flow import (
    MemoryDataset,
    RigidRotation,
    UniformFlow,
    sample_on_grid,
)
from repro.flow.scalars import (
    q_criterion,
    speed,
    velocity_gradient,
    vorticity,
    vorticity_magnitude,
)
from repro.grid import CurvilinearGrid, cartesian_grid


def make_dataset(field, grid=None):
    if grid is None:
        grid = cartesian_grid((9, 9, 7), lo=(-2, -2, -1), hi=(2, 2, 1))
    vel = sample_on_grid(field, grid, [0.0], dtype=np.float64)
    return MemoryDataset(grid, vel)


class TestSpeed:
    def test_uniform(self):
        ds = make_dataset(UniformFlow([3.0, 0.0, 4.0]))
        np.testing.assert_allclose(speed(ds, 0), 5.0, atol=1e-12)


class TestVelocityGradient:
    def test_rigid_rotation_gradient(self):
        """v = omega x r has the exact constant gradient [[0,-w,0],[w,0,0],0]."""
        ds = make_dataset(RigidRotation(omega=[0, 0, 2.0]))
        g = velocity_gradient(ds, 0)
        expected = np.array([[0, -2, 0], [2, 0, 0], [0, 0, 0]], dtype=float)
        np.testing.assert_allclose(g, np.broadcast_to(expected, g.shape), atol=1e-9)

    def test_chain_rule_on_stretched_grid(self):
        """The Jacobian chain rule yields physical derivatives regardless
        of grid spacing."""
        grid = cartesian_grid((9, 9, 7), lo=(0, 0, 0), hi=(16, 4, 2))
        ds = make_dataset(RigidRotation(omega=[0, 0, 1.0]), grid=grid)
        g = velocity_gradient(ds, 0)
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        np.testing.assert_allclose(g, np.broadcast_to(expected, g.shape), atol=1e-9)

    def test_warped_grid(self):
        """Still exact for an affine field on a smoothly warped grid."""
        base = cartesian_grid((9, 9, 7), lo=(-2, -2, -1), hi=(2, 2, 1)).xyz.copy()
        base[..., 0] += 0.15 * np.sin(base[..., 1])
        grid = CurvilinearGrid(base)
        ds = make_dataset(RigidRotation(omega=[0, 0, 1.0]), grid=grid)
        g = velocity_gradient(ds, 0)
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        # Interior nodes: boundary one-sided differences are less exact on
        # the warped grid.
        np.testing.assert_allclose(
            g[1:-1, 1:-1, 1:-1],
            np.broadcast_to(expected, g[1:-1, 1:-1, 1:-1].shape),
            atol=5e-3,
        )


class TestVorticity:
    def test_rigid_rotation_vorticity_is_2omega(self):
        ds = make_dataset(RigidRotation(omega=[0, 0, 1.5]))
        w = vorticity(ds, 0)
        np.testing.assert_allclose(
            w, np.broadcast_to([0.0, 0.0, 3.0], w.shape), atol=1e-9
        )
        np.testing.assert_allclose(vorticity_magnitude(ds, 0), 3.0, atol=1e-9)

    def test_uniform_flow_irrotational(self):
        ds = make_dataset(UniformFlow([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(vorticity(ds, 0), 0.0, atol=1e-12)


class TestQCriterion:
    def test_rotation_positive(self):
        """Solid-body rotation is all rotation: Q = omega^2 > 0."""
        ds = make_dataset(RigidRotation(omega=[0, 0, 1.0]))
        q = q_criterion(ds, 0)
        np.testing.assert_allclose(q, 1.0, atol=1e-9)

    def test_pure_strain_negative(self):
        """A pure straining field has Q < 0 everywhere."""

        from repro.flow.fields import VectorField

        class Strain(VectorField):
            def sample(self, points, t):
                out = np.zeros_like(points)
                out[:, 0] = points[:, 0]
                out[:, 1] = -points[:, 1]
                return out

        ds = make_dataset(Strain())
        q = q_criterion(ds, 0)
        assert np.all(q < 0)
        np.testing.assert_allclose(q, -1.0, atol=1e-9)

    def test_q_marks_tapered_cylinder_vortices(self):
        """Q > 0 regions appear in the wake of the synthetic dataset."""
        from repro.flow import tapered_cylinder_dataset

        ds = tapered_cylinder_dataset(shape=(24, 24, 8), n_timesteps=2, dt=0.5)
        q = q_criterion(ds, 1)
        assert q.max() > 0  # vortex cores exist
        assert q.min() < 0  # strain regions too

    def test_jacobian_reuse(self):
        """Every call chains through the grid's one inverse Jacobian."""
        from repro.grid.jacobian import grid_jacobian

        ds = make_dataset(RigidRotation())
        inv = ds.grid.inverse_jacobian
        g = velocity_gradient(ds, 0)
        assert ds.grid.inverse_jacobian is inv  # built once, not per call
        v = np.asarray(ds.velocity(0), dtype=np.float64)
        dv_dxi = np.stack([np.gradient(v, axis=b) for b in range(3)], axis=-1)
        expected = dv_dxi @ np.linalg.inv(grid_jacobian(ds.grid.xyz))
        np.testing.assert_allclose(g, expected, atol=1e-12)
