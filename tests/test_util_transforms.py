"""Unit + property tests for repro.util.transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.util import (
    IDENTITY,
    compose,
    invert_rigid,
    is_rigid,
    look_at,
    rotation_x,
    rotation_y,
    rotation_z,
    transform_points,
    translation,
)

finite_floats = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)
vec3 = arrays(np.float64, (3,), elements=finite_floats)


def random_rigid(rng):
    m = compose(
        translation(rng.uniform(-5, 5, 3)),
        rotation_x(rng.uniform(-np.pi, np.pi)),
        rotation_y(rng.uniform(-np.pi, np.pi)),
        rotation_z(rng.uniform(-np.pi, np.pi)),
    )
    return m


class TestConstructors:
    def test_identity_is_readonly(self):
        with pytest.raises(ValueError):
            IDENTITY[0, 0] = 2.0

    def test_translation_moves_points(self):
        m = translation([1.0, 2.0, 3.0])
        p = transform_points(m, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(p, [1.0, 2.0, 3.0])

    def test_translation_shape_check(self):
        with pytest.raises(ValueError):
            translation([1.0, 2.0])

    def test_rotation_z_quarter_turn(self):
        m = rotation_z(np.pi / 2)
        p = transform_points(m, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(p, [0.0, 1.0, 0.0], atol=1e-12)

    def test_rotation_x_quarter_turn(self):
        m = rotation_x(np.pi / 2)
        p = transform_points(m, [0.0, 1.0, 0.0])
        np.testing.assert_allclose(p, [0.0, 0.0, 1.0], atol=1e-12)

    def test_rotation_y_quarter_turn(self):
        m = rotation_y(np.pi / 2)
        p = transform_points(m, [0.0, 0.0, 1.0])
        np.testing.assert_allclose(p, [1.0, 0.0, 0.0], atol=1e-12)


class TestAlgebra:
    @given(angles, angles)
    def test_rotations_compose_additively(self, a, b):
        np.testing.assert_allclose(
            compose(rotation_z(a), rotation_z(b)), rotation_z(a + b), atol=1e-9
        )

    def test_compose_empty_is_identity(self):
        np.testing.assert_allclose(compose(), np.eye(4))

    def test_compose_order(self):
        # compose(A, B) applies B first.
        A = translation([1, 0, 0])
        B = rotation_z(np.pi / 2)
        p = transform_points(compose(A, B), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(p, [1.0, 1.0, 0.0], atol=1e-12)

    def test_invert_rigid_roundtrip(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = random_rigid(rng)
            np.testing.assert_allclose(m @ invert_rigid(m), np.eye(4), atol=1e-12)

    def test_inverted_head_maps_the_head_to_the_eye_origin(self):
        # Section 3: the head matrix is inverted and concatenated onto the
        # graphics transformation, so the head sits at the eye's origin.
        head = compose(translation([0, 0, 2.0]), rotation_y(0.3))
        np.testing.assert_allclose(
            transform_points(invert_rigid(head), head[:3, 3]),
            [0.0, 0.0, 0.0], atol=1e-12,
        )

    def test_is_rigid_accepts_rigid(self):
        rng = np.random.default_rng(0)
        assert is_rigid(random_rigid(rng))

    def test_is_rigid_rejects_scale(self):
        m = np.diag([2.0, 1.0, 1.0, 1.0])
        assert not is_rigid(m)

    def test_is_rigid_rejects_reflection(self):
        m = np.diag([-1.0, 1.0, 1.0, 1.0])
        assert not is_rigid(m)

    @given(vec3, angles)
    @settings(max_examples=50)
    def test_rotation_preserves_norm(self, v, a):
        m = compose(rotation_x(a), rotation_y(2.0 * a), rotation_z(-0.5 * a))
        out = transform_points(m, v)
        np.testing.assert_allclose(
            np.linalg.norm(out), np.linalg.norm(v), atol=1e-9 * (1 + np.linalg.norm(v))
        )


class TestTransformPoints:
    def test_batched_points(self):
        m = translation([1.0, 0.0, 0.0])
        pts = np.zeros((5, 3))
        out = transform_points(m, pts)
        assert out.shape == (5, 3)
        np.testing.assert_allclose(out[:, 0], 1.0)

    def test_bad_trailing_dim(self):
        with pytest.raises(ValueError):
            transform_points(np.eye(4), np.zeros((3, 2)))


class TestLookAt:
    def test_camera_at_eye(self):
        m = look_at([5.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(m[:3, 3], [5.0, 0.0, 0.0])

    def test_forward_is_minus_z(self):
        m = look_at([5.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        # Camera -Z axis points at the target.
        np.testing.assert_allclose(-m[:3, 2], [-1.0, 0.0, 0.0], atol=1e-12)

    def test_result_is_rigid(self):
        m = look_at([1.0, 2.0, 3.0], [0.0, -1.0, 0.5], up=[0, 0, 1])
        assert is_rigid(m)

    def test_degenerate_eye_raises(self):
        with pytest.raises(ValueError):
            look_at([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])

    def test_parallel_up_raises(self):
        with pytest.raises(ValueError):
            look_at([0.0, 0.0, 5.0], [0.0, 0.0, 0.0], up=[0, 0, 1])

