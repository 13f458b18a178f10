"""Tests for analytic fields and field composition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow import (
    LambOseenVortex,
    OscillatingShearLayer,
    RigidRotation,
    Superposition,
    UniformFlow,
)

pts_strategy = st.lists(
    st.tuples(*[st.floats(-5, 5, allow_nan=False)] * 3), min_size=1, max_size=10
).map(np.array)


class TestUniformFlow:
    def test_constant_everywhere(self):
        f = UniformFlow([1.0, 2.0, 3.0])
        out = f(np.zeros((4, 3)), t=7.0)
        np.testing.assert_allclose(out, np.tile([1.0, 2.0, 3.0], (4, 1)))

    def test_single_point(self):
        out = UniformFlow()(np.zeros(3))
        assert out.shape == (3,)
        np.testing.assert_allclose(out, [1, 0, 0])

    def test_bad_velocity(self):
        with pytest.raises(ValueError):
            UniformFlow([1.0, 2.0])

    def test_bad_points_shape(self):
        with pytest.raises(ValueError):
            UniformFlow()(np.zeros((2, 2)))


class TestRigidRotation:
    def test_velocity_perpendicular_to_radius(self):
        f = RigidRotation(omega=[0, 0, 2.0])
        p = np.array([[1.0, 0.0, 0.0]])
        v = f(p)
        np.testing.assert_allclose(v, [[0.0, 2.0, 0.0]])

    @given(pts_strategy)
    def test_speed_proportional_to_radius(self, pts):
        f = RigidRotation(omega=[0, 0, 1.0])
        v = f(pts, 0.0)
        r = np.linalg.norm(pts[:, :2], axis=1)
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), r, atol=1e-12)

    def test_center_offset(self):
        f = RigidRotation(omega=[0, 0, 1.0], center=[1.0, 0.0, 0.0])
        np.testing.assert_allclose(f(np.array([1.0, 0.0, 0.0])), 0.0)


class TestLambOseenVortex:
    def test_finite_at_core(self):
        f = LambOseenVortex(gamma=1.0, core_radius=0.2)
        v = f(np.array([[0.0, 0.0, 0.0]]))
        assert np.all(np.isfinite(v))
        np.testing.assert_allclose(v, 0.0, atol=1e-12)

    def test_far_field_ideal(self):
        gamma = 2.0
        f = LambOseenVortex(gamma=gamma, core_radius=0.1)
        r = 5.0
        v = f(np.array([[r, 0.0, 0.0]]))[0]
        np.testing.assert_allclose(v[1], gamma / (2 * np.pi * r), rtol=1e-6)
        np.testing.assert_allclose(v[0], 0.0, atol=1e-12)

    def test_circulation_sign(self):
        f = LambOseenVortex(gamma=-1.0)
        v = f(np.array([[1.0, 0.0, 0.0]]))[0]
        assert v[1] < 0  # clockwise

    def test_advection_moves_center(self):
        f = LambOseenVortex(gamma=1.0, advect=[1.0, 0.0, 0.0])
        v0 = f(np.array([[2.0, 0.0, 0.0]]), t=2.0)[0]
        np.testing.assert_allclose(v0, 0.0, atol=1e-12)  # point is at center now

    def test_invalid_core(self):
        with pytest.raises(ValueError):
            LambOseenVortex(gamma=1.0, core_radius=0.0)


class TestShearLayerAndSuperposition:
    def test_shear_layer_unsteady(self):
        f = OscillatingShearLayer()
        p = np.array([[1.0, 0.0, 0.0]])
        assert not np.allclose(f(p, 0.0), f(p, 1.0))

    def test_superposition_adds(self):
        a = UniformFlow([1.0, 0.0, 0.0])
        b = UniformFlow([0.0, 2.0, 0.0])
        f = a + b
        np.testing.assert_allclose(f(np.zeros(3)), [1.0, 2.0, 0.0])

    def test_superposition_flattens(self):
        f = UniformFlow() + UniformFlow() + UniformFlow()
        assert isinstance(f, Superposition)
        assert len(f.components) == 3

    def test_empty_superposition_rejected(self):
        with pytest.raises(ValueError):
            Superposition([])

    @given(pts_strategy, st.floats(0, 5, allow_nan=False))
    @settings(max_examples=25)
    def test_superposition_is_linear(self, pts, t):
        a = RigidRotation()
        b = UniformFlow([0.5, -1.0, 0.25])
        np.testing.assert_allclose(
            (a + b)(pts, t), a(pts, t) + b(pts, t), atol=1e-12
        )

