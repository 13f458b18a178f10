"""Curvilinear structured grids.

A :class:`CurvilinearGrid` stores the physical position of every node of a
structured ``(ni, nj, nk)`` grid, exactly as the paper's datasets do
(section 2.1).  Grid ("computational") coordinates are fractional node
indices: integer values land on nodes, the unit cube between eight nodes is
a cell, and trilinear interpolation maps grid coordinates to physical
space.
"""

from __future__ import annotations

import numpy as np

from repro.grid.interpolation import in_domain_mask, trilinear_interpolate
from repro.grid.jacobian import degenerate_grid_error, grid_jacobian

__all__ = ["CurvilinearGrid", "cartesian_grid", "cylindrical_grid"]

#: Nodes per slab of the inverse Jacobian's build (a 1.2 MB Jacobian
#: slab): freeing a whole 64x64x32 grid's 9.4 MB Jacobian raises glibc's
#: mmap threshold above the decode's own arrays, which then stay resident.
JACOBIAN_SLAB_NODES = 1 << 14


class CurvilinearGrid:
    """A structured curvilinear grid of physical node positions.

    Parameters
    ----------
    xyz
        Node positions of shape ``(ni, nj, nk, 3)``.  Stored C-contiguous
        float64 (converted if needed) so the interpolation gathers stride
        predictably, and as a read-only *view* (the caller's own array
        stays writable) so the metric term built from it on first use,
        :attr:`inverse_jacobian`, cannot go stale.
    """

    def __init__(self, xyz: np.ndarray) -> None:
        xyz = np.ascontiguousarray(xyz, dtype=np.float64)
        if xyz.ndim != 4 or xyz.shape[3] != 3:
            raise ValueError(
                f"node positions must have shape (ni, nj, nk, 3), got {xyz.shape}"
            )
        if min(xyz.shape[:3]) < 2:
            raise ValueError("grid must have at least 2 nodes along each axis")
        self.xyz = xyz.view()
        self.xyz.flags.writeable = False
        self._inverse_jacobian: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int, int]:
        """Grid extents ``(ni, nj, nk)``."""
        return self.xyz.shape[:3]

    @property
    def n_points(self) -> int:
        """Total node count — the paper's 'points in grid' (Table 2)."""
        ni, nj, nk = self.shape
        return ni * nj * nk

    @property
    def timestep_nbytes(self) -> int:
        """Bytes of one velocity timestep at 4-byte floats, 3 components.

        Matches the paper's Table 2 accounting (131,072 points ->
        1,572,864 bytes).
        """
        return self.n_points * 3 * 4

    @property
    def inverse_jacobian(self) -> np.ndarray:
        """``dxi/dx`` at every node, ``(ni, nj, nk, 3, 3)``: the inverse of
        :func:`~repro.grid.jacobian.grid_jacobian`, built once on first
        use, that every timestep's decode contracts against.  Built in
        i-slabs of about :data:`JACOBIAN_SLAB_NODES` nodes, each from the
        Jacobian of its planes plus one halo plane a side (bit-identical
        to the whole grid's), so no whole-grid Jacobian is ever held.
        ``ValueError`` on a degenerate grid."""
        if self._inverse_jacobian is None:
            ni, nj, nk = self.shape
            inv = np.empty((ni, nj, nk, 3, 3))
            planes = max(1, JACOBIAN_SLAB_NODES // (nj * nk))
            for lo in range(0, ni, planes):
                hi = min(lo + planes, ni)
                first = max(lo - 1, 0)
                jac = grid_jacobian(self.xyz[first:min(hi + 1, ni)])
                try:
                    inv[lo:hi] = np.linalg.inv(jac[lo - first:hi - first])
                except np.linalg.LinAlgError:
                    raise degenerate_grid_error(grid_jacobian(self.xyz)) from None
            inv.flags.writeable = False
            self._inverse_jacobian = inv
        return self._inverse_jacobian

    def to_physical(self, grid_coords: np.ndarray) -> np.ndarray:
        """Map fractional grid coordinates to physical positions.

        This is the paper's cheap path: 'resulting paths are easily
        converted to physical coordinates by using their known grid
        coordinates to directly lookup their corresponding physical
        coordinates, using trilinear interpolation' (section 2.1).
        """
        return trilinear_interpolate(self.xyz, grid_coords)

    def contains(self, grid_coords: np.ndarray) -> np.ndarray:
        """Mask of grid coordinates inside the grid domain."""
        return in_domain_mask(grid_coords, self.shape)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned physical bounding box ``(lo, hi)`` of all nodes."""
        pts = self.xyz.reshape(-1, 3)
        return pts.min(axis=0), pts.max(axis=0)

    def cell_corners(self, cell: np.ndarray) -> np.ndarray:
        """Physical corners of cells, shape ``(N, 8, 3)``.

        Corner ordering matches the interpolation weights: index bit 2 is
        the i-offset, bit 1 the j-offset, bit 0 the k-offset.
        """
        cell = np.asarray(cell, dtype=np.intp)
        single = cell.ndim == 1
        if single:
            cell = cell[None, :]
        i, j, k = cell[:, 0], cell[:, 1], cell[:, 2]
        corners = np.empty((cell.shape[0], 8, 3), dtype=np.float64)
        for bit in range(8):
            di, dj, dk = (bit >> 2) & 1, (bit >> 1) & 1, bit & 1
            corners[:, bit] = self.xyz[i + di, j + dj, k + dk]
        return corners[0] if single else corners

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ni, nj, nk = self.shape
        return f"CurvilinearGrid({ni}x{nj}x{nk}, {self.n_points} points)"


def cartesian_grid(
    shape: tuple[int, int, int],
    lo=(0.0, 0.0, 0.0),
    hi=(1.0, 1.0, 1.0),
) -> CurvilinearGrid:
    """Uniform Cartesian grid as a degenerate curvilinear grid.

    Handy for tests: on a Cartesian grid, grid coordinates and physical
    coordinates are related by a diagonal affine map.
    """
    ni, nj, nk = shape
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    x = np.linspace(lo[0], hi[0], ni)
    y = np.linspace(lo[1], hi[1], nj)
    z = np.linspace(lo[2], hi[2], nk)
    xyz = np.empty((ni, nj, nk, 3))
    xyz[..., 0] = x[:, None, None]
    xyz[..., 1] = y[None, :, None]
    xyz[..., 2] = z[None, None, :]
    return CurvilinearGrid(xyz)


def cylindrical_grid(
    shape: tuple[int, int, int],
    r_inner: float = 0.5,
    r_outer: float = 8.0,
    height: float = 4.0,
    taper: float = 0.0,
    radial_stretch: float = 2.0,
) -> CurvilinearGrid:
    """Body-fitted O-grid around a (possibly tapered) cylinder.

    This is the grid topology of the paper's tapered-cylinder dataset
    (Jespersen & Levit): axis ``i`` marches radially outward from the body
    with geometric stretching, ``j`` wraps around the circumference, and
    ``k`` runs along the cylinder axis (z).  ``taper`` shrinks the body
    radius linearly with height: at the top the radius is
    ``r_inner * (1 - taper)``.
    """
    ni, nj, nk = shape
    if not (0.0 <= taper < 1.0):
        raise ValueError("taper must be in [0, 1)")
    if r_inner <= 0.0 or r_outer <= r_inner:
        raise ValueError("need 0 < r_inner < r_outer")
    # Geometric clustering near the body: s in [0,1] -> stretched.
    s = np.linspace(0.0, 1.0, ni)
    if radial_stretch > 0.0:
        s = (np.expm1(radial_stretch * s)) / np.expm1(radial_stretch)
    theta = np.linspace(0.0, 2.0 * np.pi, nj)
    z = np.linspace(0.0, height, nk)
    body_r = r_inner * (1.0 - taper * (z / height))  # (nk,)
    # radius(i, k) interpolates body->outer at each station.
    radius = body_r[None, :] + s[:, None] * (r_outer - body_r[None, :])  # (ni, nk)
    xyz = np.empty((ni, nj, nk, 3))
    xyz[..., 0] = radius[:, None, :] * np.cos(theta)[None, :, None]
    xyz[..., 1] = radius[:, None, :] * np.sin(theta)[None, :, None]
    xyz[..., 2] = z[None, None, :]
    return CurvilinearGrid(xyz)
