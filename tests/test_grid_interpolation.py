"""Tests for trilinear interpolation (repro.grid.interpolation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import in_domain_mask, trilinear_interpolate
from repro.grid.interpolation import TrilinearScratch


def affine_field(shape, coeffs, const):
    """Node samples of an affine function of the grid indices."""
    ni, nj, nk = shape
    i, j, k = np.meshgrid(
        np.arange(ni), np.arange(nj), np.arange(nk), indexing="ij"
    )
    return coeffs[0] * i + coeffs[1] * j + coeffs[2] * k + const


coords_strategy = st.lists(
    st.tuples(
        st.floats(0.0, 4.0, allow_nan=False),
        st.floats(0.0, 3.0, allow_nan=False),
        st.floats(0.0, 2.0, allow_nan=False),
    ),
    min_size=1,
    max_size=20,
)


class TestExactness:
    @given(
        coords_strategy,
        st.tuples(
            st.floats(-3, 3, allow_nan=False),
            st.floats(-3, 3, allow_nan=False),
            st.floats(-3, 3, allow_nan=False),
        ),
        st.floats(-5, 5, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_affine_fields_reproduced_exactly(self, pts, coeffs, const):
        """Trilinear interpolation is exact for fields affine in the indices."""
        shape = (5, 4, 3)
        field = affine_field(shape, coeffs, const)
        pts = np.array(pts)
        got = trilinear_interpolate(field, pts)
        want = pts @ np.array(coeffs) + const
        np.testing.assert_allclose(got, want, atol=1e-9 * (1 + np.abs(want).max()))

    def test_node_values_recovered(self):
        rng = np.random.default_rng(7)
        field = rng.normal(size=(4, 5, 6))
        for idx in [(0, 0, 0), (3, 4, 5), (2, 1, 3)]:
            got = trilinear_interpolate(field, np.array(idx, dtype=float))
            np.testing.assert_allclose(got, field[idx])

    def test_cell_midpoint_is_corner_average(self):
        field = np.zeros((2, 2, 2))
        field[1, 1, 1] = 8.0
        got = trilinear_interpolate(field, [0.5, 0.5, 0.5])
        np.testing.assert_allclose(got, 1.0)

    def test_upper_boundary_exact(self):
        """Points exactly on the upper face of the grid are interpolable."""
        field = affine_field((3, 3, 3), (1.0, 1.0, 1.0), 0.0)
        got = trilinear_interpolate(field, [2.0, 2.0, 2.0])
        np.testing.assert_allclose(got, 6.0)


class TestVectorFieldsAndShapes:
    def test_vector_field(self):
        rng = np.random.default_rng(0)
        field = rng.normal(size=(3, 3, 3, 3))
        pts = rng.uniform(0, 2, size=(10, 3))
        out = trilinear_interpolate(field, pts)
        assert out.shape == (10, 3)
        # Componentwise equals per-component scalar interpolation.
        for c in range(3):
            np.testing.assert_allclose(
                out[:, c], trilinear_interpolate(field[..., c], pts)
            )

    def test_single_point_shape(self):
        field = np.zeros((2, 2, 2, 3))
        out = trilinear_interpolate(field, [0.5, 0.5, 0.5])
        assert out.shape == (3,)

    def test_out_parameter(self):
        field = np.ones((2, 2, 2, 2))
        out = np.empty((4, 2))
        res = trilinear_interpolate(field, np.full((4, 3), 0.5), out=out)
        assert res is out
        np.testing.assert_allclose(out, 1.0)

    def test_bad_coords_shape(self):
        with pytest.raises(ValueError):
            trilinear_interpolate(np.zeros((2, 2, 2)), np.zeros((3, 2)))

    def test_bad_field_shape(self):
        with pytest.raises(ValueError):
            trilinear_interpolate(np.zeros((2, 2)), np.zeros((1, 3)))

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            trilinear_interpolate(np.zeros((1, 2, 2)), np.zeros((1, 3)))


class TestClamping:
    def test_clamp_matches_boundary_value(self):
        field = affine_field((3, 3, 3), (1.0, 0.0, 0.0), 0.0)
        got = trilinear_interpolate(field, [10.0, 1.0, 1.0], clamp=True)
        np.testing.assert_allclose(got, 2.0)

    def test_noclamp_raises_outside(self):
        field = np.zeros((3, 3, 3))
        with pytest.raises(ValueError):
            trilinear_interpolate(field, [-0.1, 0.0, 0.0], clamp=False)

    def test_in_domain_mask(self):
        mask = in_domain_mask(
            np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0], [2.01, 0.0, 0.0], [-0.01, 1, 1]]),
            (3, 3, 3),
        )
        np.testing.assert_array_equal(mask, [True, True, False, False])


# Per axis: inside, exactly on a node or face, outside either way (clamped),
# and the negative zero a clamp can hand the cast.
_axis_position = st.one_of(
    st.floats(0.0, 1.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, 0.5]),
    st.floats(-2.0, -0.0, allow_nan=False),
    st.floats(1.0, 3.0, allow_nan=False),
)


class TestComponentMajorSampler:
    """The scratch sampler against the plain path it must reproduce."""

    @given(
        st.tuples(st.integers(2, 7), st.integers(2, 7), st.integers(2, 7)),
        st.sampled_from([1, 3, 4]),
        st.lists(st.tuples(_axis_position, _axis_position, _axis_position),
                 min_size=1, max_size=24),
        st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_plain(self, shape, nc, unit, seed):
        field = np.random.default_rng(seed).normal(size=(*shape, nc))
        # Unit positions scale to [0, n-1]: 1.0 lands exactly on the face.
        coords = np.array(unit) * (np.array(shape) - 1.0)
        want = trilinear_interpolate(field, coords)
        scratch = TrilinearScratch()
        got = trilinear_interpolate(
            field, coords, out=np.empty((len(unit), nc)), scratch=scratch
        )
        assert np.array_equal(got, want)
        # Component-major in, component-major out: the integrator's call.
        out = np.empty((nc, len(unit)))
        scratch.sample(scratch.bind_field(field), np.ascontiguousarray(coords.T), out)
        assert np.array_equal(out.T, want)

    def test_sample_blocks_matches_per_block(self):
        rng = np.random.default_rng(3)
        field = rng.normal(size=(6, 5, 4, 3))
        blocks = [rng.uniform(-1, 6, size=shape) for shape in
                  [(4, 7, 3), (0, 7, 3), (5, 3), (2, 9, 3)]]
        # A transposed view, as the workspace kernels hand back.
        blocks.append(rng.uniform(0, 3, size=(9, 3, 2)).transpose(2, 0, 1))
        outs = [np.empty(block.shape, dtype=np.float32) for block in blocks]
        scratch = TrilinearScratch()
        scratch.sample_blocks(field, blocks, outs)
        for block, out in zip(blocks, outs):
            want = trilinear_interpolate(field, block.reshape(-1, 3))
            assert np.array_equal(out, want.reshape(block.shape).astype(np.float32))
        scratch.sample_blocks(field, [], [])  # an empty frame is a no-op

    def test_ineligible_fields_are_refused(self):
        scratch = TrilinearScratch()
        assert scratch.bind_field(np.zeros((3, 3, 3, 3), dtype=np.float32)) is None
        assert scratch.bind_field(np.zeros((3, 3, 6, 3))[:, :, ::2]) is None
        assert scratch.bind_field(np.zeros((1, 3, 3, 3))) is None
        with pytest.raises(ValueError):
            scratch.sample_blocks(np.zeros((3, 3, 3)), [np.zeros((1, 3))], [np.zeros((1, 3))])


class TestConvergence:
    def test_second_order_on_the_tapered_cylinder_grid(self):
        """Interpolation error against an analytic field falls as h^2.

        On the tapered O-grid (curvilinear: cells stretch radially and
        shrink up the taper), the node samples of a smooth field,
        interpolated at a fractional grid coordinate, are compared with
        the field evaluated at the physical point that coordinate maps
        to.  Halving h twice must quarter the error each time.
        """
        from repro.flow import LambOseenVortex, TaperedCylinderFlow
        from repro.grid import cylindrical_grid

        body = TaperedCylinderFlow()
        vortex = LambOseenVortex(10.0, center=(3.0, 2.0, 0.0), core_radius=4.0)
        unit = np.random.default_rng(11).uniform(0.0, 1.0, size=(3, 4000))
        scratch = TrilinearScratch()
        errors = []
        for n in (17, 33, 65):
            shape = (n, n, (n - 1) // 2 + 1)
            grid = cylindrical_grid(
                shape, r_inner=body.r_base, r_outer=12.0, height=body.height,
                taper=body.taper,
            )
            nodes = vortex(grid.xyz.reshape(-1, 3), 0.0).reshape(*shape, 3)
            coords = unit * (np.array(shape)[:, None] - 1.0)
            where, got = np.empty((3, 4000)), np.empty((3, 4000))
            scratch.sample(scratch.bind_field(grid.xyz), coords, where)
            scratch.sample(scratch.bind_field(nodes), coords, got)
            errors.append(np.abs(got - vortex(where.T, 0.0).T).max())
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert (orders >= 1.8).all(), (errors, orders)
