"""Grid Jacobians and the physical->grid velocity transform.

The paper avoids the per-step physical-space search "by converting the
velocity data to grid coordinates and performing all integrations in grid
coordinates" (section 2.1).  If ``X(xi)`` maps grid coordinates to physical
space, a particle moving with physical velocity ``v`` has grid-coordinate
velocity ``J^{-1} v`` where ``J = dX/dxi`` — so the conversion, done
once per timestep, is one contraction of the velocities against the
inverse Jacobian the (static) grid builds once
(:attr:`~repro.grid.curvilinear.CurvilinearGrid.inverse_jacobian`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.grid.curvilinear import CurvilinearGrid

__all__ = ["grid_jacobian", "physical_to_grid_velocity", "jacobian_at"]


def grid_jacobian(xyz: np.ndarray) -> np.ndarray:
    """Jacobian ``dX/dxi`` at every node by central differences.

    Parameters
    ----------
    xyz
        Node positions, shape ``(ni, nj, nk, 3)``.

    Returns
    -------
    Array of shape ``(ni, nj, nk, 3, 3)`` with ``J[..., a, b] =
    d x_a / d xi_b``.  One-sided differences are used on the boundary faces
    (``np.gradient`` semantics) so every node gets a Jacobian.
    """
    xyz = np.asarray(xyz, dtype=np.float64)
    if xyz.ndim != 4 or xyz.shape[3] != 3:
        raise ValueError(f"xyz must have shape (ni, nj, nk, 3), got {xyz.shape}")
    jac = np.empty(xyz.shape[:3] + (3, 3), dtype=np.float64)
    for b in range(3):
        d = np.gradient(xyz, axis=b)
        jac[..., :, b] = d
    return jac


def degenerate_grid_error(jac: np.ndarray) -> ValueError:
    """The typed rejection of an exactly singular node (e.g. coincident
    boundary planes in a grid file): else a bare ``LinAlgError`` from
    whichever thread builds the grid's inverse Jacobian first."""
    singular = int(np.count_nonzero(np.linalg.det(jac) == 0.0))
    return ValueError(
        f"degenerate grid: the Jacobian is singular at {singular} "
        f"of {jac[..., 0, 0].size} nodes"
    )


def physical_to_grid_velocity(
    grid: "CurvilinearGrid", velocity: np.ndarray
) -> np.ndarray:
    """Convert node velocities from physical to grid coordinates.

    Parameters
    ----------
    grid
        The (static) grid, whose once-built ``inverse_jacobian`` every
        timestep — the paper's 800 — is contracted against.
    velocity
        Physical velocities at the nodes, ``(ni, nj, nk, 3)``.

    Returns
    -------
    Grid-coordinate velocities, ``(ni, nj, nk, 3)``: the rate of change of
    the fractional grid index of a fluid element.
    """
    velocity = np.asarray(velocity)
    if velocity.shape != grid.shape + (3,):
        raise ValueError(
            f"velocity shape {velocity.shape} does not match grid {grid.shape}"
        )
    # The inverse is built before the float64 copy, for a lower peak; and
    # einsum casting mixed dtypes per element is ~3x slower than the copy.
    inv = grid.inverse_jacobian
    v = velocity.astype(np.float64, copy=False)
    return np.einsum("...ab,...b->...a", inv, v)


def jacobian_at(xyz: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Exact Jacobian of the trilinear map at fractional grid coordinates.

    Within one cell the grid->physical map is trilinear, so its derivative
    is available in closed form from the eight corners.  Used by the Newton
    point-location solver.  ``coords`` has shape ``(N, 3)``; returns
    ``(N, 3, 3)``.
    """
    xyz = np.asarray(xyz, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    single = coords.ndim == 1
    if single:
        coords = coords[None, :]
    ni, nj, nk = xyz.shape[:3]
    dims = np.array([ni, nj, nk], dtype=np.float64)
    c = np.clip(coords, 0.0, dims - 1.0)
    cell = np.minimum(c.astype(np.intp), (ni - 2, nj - 2, nk - 2))
    np.maximum(cell, 0, out=cell)
    f = c - cell
    fx, fy, fz = f[:, 0:1], f[:, 1:2], f[:, 2:3]

    flat = xyz.reshape(-1, 3)
    base = (cell[:, 0] * nj + cell[:, 1]) * nk + cell[:, 2]
    sj, si = nk, nj * nk
    p000 = flat[base]
    p001 = flat[base + 1]
    p010 = flat[base + sj]
    p011 = flat[base + sj + 1]
    p100 = flat[base + si]
    p101 = flat[base + si + 1]
    p110 = flat[base + si + sj]
    p111 = flat[base + si + sj + 1]

    # d/dfx: difference of the two y-z faces blended at (fy, fz).
    def blend2(a, b, c_, d, u, v):
        return (
            a * (1 - u) * (1 - v) + b * (1 - u) * v + c_ * u * (1 - v) + d * u * v
        )

    dx = blend2(p100, p101, p110, p111, fy, fz) - blend2(
        p000, p001, p010, p011, fy, fz
    )
    dy = blend2(p010, p011, p110, p111, fx, fz) - blend2(
        p000, p001, p100, p101, fx, fz
    )
    dz = blend2(p001, p011, p101, p111, fx, fy) - blend2(
        p000, p010, p100, p110, fx, fy
    )
    jac = np.stack([dx, dy, dz], axis=-1)  # (N, 3, 3): columns are d/dxi_b
    return jac[0] if single else jac
