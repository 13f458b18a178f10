"""Tests for CurvilinearGrid, grid factories, Jacobians, the velocity
decode, and point search."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.grid.curvilinear as curvilinear_module
from repro.grid import (
    CurvilinearGrid,
    GridLocator,
    cartesian_grid,
    cylindrical_grid,
    grid_jacobian,
    physical_to_grid_velocity,
)
from repro.grid.jacobian import jacobian_at


class TestCurvilinearGrid:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CurvilinearGrid(np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            CurvilinearGrid(np.zeros((1, 3, 3, 3)))

    def test_n_points_and_bytes_match_paper_table2(self):
        # Paper Table 2, row 1: tapered cylinder, 131,072 points ->
        # 1,572,864 bytes per timestep.
        g = cartesian_grid((64, 64, 32))
        assert g.n_points == 131072
        assert g.timestep_nbytes == 1572864

    def test_to_physical_on_cartesian_is_affine(self):
        g = cartesian_grid((5, 5, 5), lo=(0, 0, 0), hi=(4, 8, 12))
        pts = np.array([[1.0, 1.0, 1.0], [2.5, 0.5, 3.0]])
        phys = g.to_physical(pts)
        np.testing.assert_allclose(phys, pts * np.array([1.0, 2.0, 3.0]))

    def test_bounding_box(self):
        g = cartesian_grid((3, 3, 3), lo=(-1, -2, -3), hi=(1, 2, 3))
        lo, hi = g.bounding_box()
        np.testing.assert_allclose(lo, [-1, -2, -3])
        np.testing.assert_allclose(hi, [1, 2, 3])

    def test_contains(self):
        g = cartesian_grid((3, 3, 3))
        assert g.contains(np.array([1.0, 1.0, 1.0]))
        assert not g.contains(np.array([2.5, 1.0, 1.0]))

    def test_cell_corners_ordering(self):
        g = cartesian_grid((3, 3, 3), hi=(2, 2, 2))
        corners = g.cell_corners(np.array([0, 0, 0]))
        assert corners.shape == (8, 3)
        np.testing.assert_allclose(corners[0], [0, 0, 0])
        np.testing.assert_allclose(corners[1], [0, 0, 1])  # k-offset is bit 0
        np.testing.assert_allclose(corners[4], [1, 0, 0])  # i-offset is bit 2


class TestCylindricalGrid:
    def test_taper_shrinks_body(self):
        g = cylindrical_grid((4, 8, 5), r_inner=1.0, r_outer=5.0, taper=0.5)
        # Innermost ring (i=0) at bottom (k=0) has radius 1, at top 0.5.
        r_bottom = np.linalg.norm(g.xyz[0, 0, 0, :2])
        r_top = np.linalg.norm(g.xyz[0, 0, -1, :2])
        np.testing.assert_allclose(r_bottom, 1.0)
        np.testing.assert_allclose(r_top, 0.5)

    def test_outer_radius(self):
        g = cylindrical_grid((4, 8, 5), r_inner=1.0, r_outer=5.0)
        r = np.linalg.norm(g.xyz[-1, :, :, :2], axis=-1)
        np.testing.assert_allclose(r, 5.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            cylindrical_grid((4, 8, 5), taper=1.0)
        with pytest.raises(ValueError):
            cylindrical_grid((4, 8, 5), r_inner=2.0, r_outer=1.0)

    def test_radial_clustering_near_body(self):
        g = cylindrical_grid((16, 8, 4), r_inner=1.0, r_outer=9.0, radial_stretch=3.0)
        r = np.linalg.norm(g.xyz[:, 0, 0, :2], axis=-1)
        dr = np.diff(r)
        assert dr[0] < dr[-1]  # finer spacing near the body
        assert np.all(dr > 0)


class TestJacobian:
    def test_cartesian_jacobian_is_diagonal(self):
        g = cartesian_grid((4, 4, 4), hi=(3.0, 6.0, 9.0))
        jac = grid_jacobian(g.xyz)
        expected = np.diag([1.0, 2.0, 3.0])
        np.testing.assert_allclose(jac, np.broadcast_to(expected, jac.shape))

    def test_velocity_transform_cartesian(self):
        g = cartesian_grid((4, 4, 4), hi=(3.0, 6.0, 9.0))
        v = np.ones(g.shape + (3,))
        vg = physical_to_grid_velocity(g, v)
        np.testing.assert_allclose(vg, np.broadcast_to([1.0, 0.5, 1 / 3], vg.shape))

    def test_velocity_transform_reuses_jacobian(self):
        """The transform contracts against the grid's own, once-built
        inverse Jacobian."""
        g = cylindrical_grid((6, 9, 5))
        inv = g.inverse_jacobian
        v = np.random.default_rng(1).normal(size=g.shape + (3,))
        vg = physical_to_grid_velocity(g, v)
        assert g.inverse_jacobian is inv
        jac = grid_jacobian(g.xyz)
        np.testing.assert_allclose(np.einsum("...ab,...b->...a", jac, vg), v)

    def test_shape_mismatch(self):
        g = cartesian_grid((4, 4, 4))
        with pytest.raises(ValueError):
            physical_to_grid_velocity(g, np.zeros((3, 3, 3, 3)))

    def test_jacobian_at_matches_finite_difference(self):
        g = cylindrical_grid((6, 9, 5))
        pt = np.array([[2.3, 4.1, 1.7]])
        jac = jacobian_at(g.xyz, pt)[0]
        eps = 1e-6
        for b in range(3):
            dp = np.zeros(3)
            dp[b] = eps
            fd = (g.to_physical(pt + dp) - g.to_physical(pt - dp))[0] / (2 * eps)
            np.testing.assert_allclose(jac[:, b], fd, atol=1e-5)

    def test_jacobian_at_single_point_shape(self):
        g = cartesian_grid((3, 3, 3))
        assert jacobian_at(g.xyz, np.array([0.5, 0.5, 0.5])).shape == (3, 3)


class TestMetricTerms:
    """The grid owns its metric terms: built once from a frozen ``xyz``."""

    def test_xyz_is_a_read_only_view_of_the_callers_array(self):
        nodes = cartesian_grid((4, 4, 4)).xyz.copy()
        g = CurvilinearGrid(nodes)
        with pytest.raises(ValueError):
            g.xyz[0, 0, 0, 0] = 9.0
        nodes[0, 0, 0, 0] = nodes[0, 0, 0, 0]  # the caller's stays writable
        assert nodes.flags.writeable and not g.xyz.flags.writeable

    def test_metric_terms_are_cached_and_read_only(self):
        g = cylindrical_grid((6, 9, 5))
        inv = g.inverse_jacobian
        assert g.inverse_jacobian is inv
        with pytest.raises(ValueError):
            inv[0, 0, 0, 0, 0] = 1.0
        np.testing.assert_allclose(
            inv @ grid_jacobian(g.xyz),
            np.broadcast_to(np.eye(3), inv.shape),
            atol=1e-12,
        )

    def test_degenerate_grid_is_a_typed_rejection(self):
        nodes = cartesian_grid((5, 4, 3)).xyz.copy()
        nodes[0] = nodes[1]  # two coincident boundary planes
        g = CurvilinearGrid(nodes)
        with pytest.raises(ValueError, match=r"singular at 12 of 60 nodes"):
            physical_to_grid_velocity(g, np.ones(g.shape + (3,)))
        with pytest.raises(ValueError, match="degenerate grid"):
            g.inverse_jacobian


def solve_decode(grid, velocity):
    """The reference decode: one 3x3 solve ``J v_grid = v`` per node."""
    jac = grid_jacobian(grid.xyz).reshape(-1, 3, 3)
    v = np.asarray(velocity, dtype=np.float64).reshape(-1, 3, 1)
    return np.linalg.solve(jac, v).reshape(grid.shape + (3,))


def warped_grid():
    base = cartesian_grid((9, 9, 7), lo=(-2, -2, -1), hi=(2, 2, 1)).xyz.copy()
    base[..., 0] += 0.15 * np.sin(base[..., 1])
    return CurvilinearGrid(base)


GRIDS = pytest.mark.parametrize(
    "make_grid",
    [
        lambda: cartesian_grid((9, 9, 7), hi=(16, 4, 2)),  # stretched
        warped_grid,
        lambda: cylindrical_grid((12, 17, 6), taper=0.4),
    ],
    ids=["stretched", "warped", "cylindrical"],
)


class TestDecode:
    """The decode is one contraction against the grid's inverse Jacobian;
    a per-node solve is the reference it must match."""

    @GRIDS
    def test_matches_the_per_node_solve(self, make_grid):
        g = make_grid()
        v = (40.0 * np.random.default_rng(7).normal(size=g.shape + (3,))).astype(
            np.float32
        )
        vg = physical_to_grid_velocity(g, v)
        assert vg.dtype == np.float64 and vg.flags.c_contiguous
        assert np.abs(vg - solve_decode(g, v)).max() <= 1e-12 * np.abs(v).max()

    def test_the_inverse_is_built_once_and_is_the_one_metric_term(self, monkeypatch):
        builds = []

        def counted(xyz):
            builds.append(1)
            return grid_jacobian(xyz)

        monkeypatch.setattr(curvilinear_module, "grid_jacobian", counted)
        g = cylindrical_grid((6, 9, 5))
        v = np.ones(g.shape + (3,))
        for _ in range(3):
            physical_to_grid_velocity(g, v)
        assert len(builds) == 1
        assert not hasattr(g, "jacobian")
        terms = [
            a for a in vars(g).values()
            if isinstance(a, np.ndarray) and a.shape == g.shape + (3, 3)
        ]
        assert len(terms) == 1 and terms[0] is g.inverse_jacobian


class TestSlabbedInverse:
    """The inverse Jacobian is built in i-slabs, each from its planes and
    one halo plane a side, and is the whole grid's inverse bit for bit."""

    @GRIDS
    @pytest.mark.parametrize("slab_nodes", [1, 150, 1 << 20], ids=["plane", "slab", "whole"])
    def test_is_the_whole_grid_inverse(self, make_grid, slab_nodes, monkeypatch):
        monkeypatch.setattr(curvilinear_module, "JACOBIAN_SLAB_NODES", slab_nodes)
        g = make_grid()
        whole = np.linalg.inv(grid_jacobian(g.xyz))
        assert np.array_equal(g.inverse_jacobian, whole)

    def test_a_degenerate_slab_names_every_singular_node(self, monkeypatch):
        monkeypatch.setattr(curvilinear_module, "JACOBIAN_SLAB_NODES", 12)
        nodes = cartesian_grid((5, 4, 3)).xyz.copy()
        nodes[4] = nodes[3]  # the last slab's planes coincide
        with pytest.raises(ValueError, match=r"singular at 12 of 60 nodes"):
            CurvilinearGrid(nodes).inverse_jacobian

    def test_the_first_decode_holds_no_whole_grid_jacobian(self):
        g = cylindrical_grid((64, 64, 32), r_inner=0.5, r_outer=12.0, height=4.0, taper=0.3)
        v = np.ones(g.shape + (3,), dtype=np.float32)
        tracemalloc.start()
        try:
            physical_to_grid_velocity(g, v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The kept inverse, the decode's float64 copy and its output, and
        # slab temporaries: 15.7 MB measured, against 18.9 MB while the
        # build held the whole 9.4 MB Jacobian.
        kept = g.inverse_jacobian.nbytes + 2 * v.size * 8
        assert peak <= kept + 2 * curvilinear_module.JACOBIAN_SLAB_NODES * 72, peak


class TestGridLocator:
    def test_roundtrip_cartesian(self):
        g = cartesian_grid((5, 5, 5), hi=(4, 4, 4))
        loc = GridLocator(g)
        rng = np.random.default_rng(3)
        coords = rng.uniform(0, 4, size=(20, 3))
        phys = g.to_physical(coords)
        found_coords, found = loc.locate(phys)
        assert found.all()
        np.testing.assert_allclose(found_coords, coords, atol=1e-6)

    def test_roundtrip_cylindrical(self):
        g = cylindrical_grid((8, 17, 6), r_inner=0.5, r_outer=6.0, taper=0.3)
        loc = GridLocator(g)
        rng = np.random.default_rng(4)
        ni, nj, nk = g.shape
        coords = rng.uniform([0.2, 0.2, 0.2], [ni - 1.2, nj - 1.2, nk - 1.2], (30, 3))
        phys = g.to_physical(coords)
        out, found = loc.locate(phys)
        assert found.all()
        np.testing.assert_allclose(g.to_physical(out), phys, atol=1e-6)

    def test_outside_not_found(self):
        g = cartesian_grid((4, 4, 4), hi=(3, 3, 3))
        loc = GridLocator(g)
        _, found = loc.locate(np.array([[10.0, 10.0, 10.0]]))
        assert not found[0]

    def test_single_point_api(self):
        g = cartesian_grid((4, 4, 4), hi=(3, 3, 3))
        loc = GridLocator(g)
        coords, found = loc.locate(np.array([1.5, 1.5, 1.5]))
        assert found is True or found is np.True_ or found
        np.testing.assert_allclose(coords, [1.5, 1.5, 1.5], atol=1e-8)

    def test_warm_start_guess(self):
        g = cartesian_grid((5, 5, 5), hi=(4, 4, 4))
        loc = GridLocator(g)
        target = np.array([[2.2, 2.2, 2.2]])
        coords, found = loc.locate(target, guess=np.array([[2.0, 2.0, 2.0]]))
        assert found.all()
        np.testing.assert_allclose(coords, target, atol=1e-8)

    def test_bad_shapes(self):
        g = cartesian_grid((4, 4, 4))
        loc = GridLocator(g)
        with pytest.raises(ValueError):
            loc.locate(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            loc.locate(np.zeros((2, 3)), guess=np.zeros((3, 3)))

    @given(
        st.lists(
            st.tuples(
                st.floats(0.1, 3.9, allow_nan=False),
                st.floats(0.1, 3.9, allow_nan=False),
                st.floats(0.1, 3.9, allow_nan=False),
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_locate_inverts_to_physical(self, pts):
        """Property: locate(to_physical(c)) == c on a warped grid."""
        # Smoothly warped grid (non-trivial but invertible).
        base = cartesian_grid((5, 5, 5), hi=(4, 4, 4)).xyz.copy()
        base[..., 0] += 0.1 * np.sin(base[..., 1])
        base[..., 2] += 0.1 * np.cos(base[..., 0])
        g = CurvilinearGrid(base)
        loc = GridLocator(g)
        coords = np.array(pts)
        phys = g.to_physical(coords)
        out, found = loc.locate(phys)
        assert found.all()
        np.testing.assert_allclose(g.to_physical(out), phys, atol=1e-6)
