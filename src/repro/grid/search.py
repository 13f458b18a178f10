"""Physical -> grid coordinate point location.

The paper notes that locating a physical point inside a curvilinear grid
"involves unacceptable performance overhead" per integration step and
sidesteps it by integrating in grid coordinates (section 2.1).  The search
is still needed once per interaction: when the user drops a rake seed at a
hand position, that physical point must be converted to grid coordinates.
This module provides that search: a KD-tree nearest-node seed followed by a
vectorized Newton iteration on the trilinear cell map.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.grid.curvilinear import CurvilinearGrid
from repro.grid.jacobian import jacobian_at

__all__ = ["GridLocator"]

#: Newton steps a query may take before a point is declared not found.
MAX_NEWTON_ITERS = 20

#: Convergence tolerance on the residual, as a fraction of the grid's
#: characteristic cell length.
NEWTON_TOL = 1e-9


class GridLocator:
    """Locate physical points within a :class:`CurvilinearGrid`.

    Builds a KD-tree over the grid nodes once (O(N log N)); each query then
    costs a tree lookup plus a handful of Newton steps, all batched.
    """

    def __init__(self, grid: CurvilinearGrid) -> None:
        self.grid = grid
        self._tree = cKDTree(grid.xyz.reshape(-1, 3))
        ni, nj, nk = grid.shape
        self._dims = np.array([ni, nj, nk], dtype=np.float64)
        # Characteristic length for the convergence test: median nearest-
        # neighbour spacing would be ideal but is costly; the bounding-box
        # diagonal over the grid extent is a serviceable scale.
        lo, hi = grid.bounding_box()
        self._scale = float(np.linalg.norm(hi - lo)) / max(ni, nj, nk)

    def _initial_guess(self, points: np.ndarray) -> np.ndarray:
        _, idx = self._tree.query(points)
        ni, nj, nk = self.grid.shape
        i, rem = np.divmod(idx, nj * nk)
        j, k = np.divmod(rem, nk)
        return np.stack([i, j, k], axis=-1).astype(np.float64)

    def locate(
        self, points: np.ndarray, guess: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Find fractional grid coordinates of physical ``points``.

        Parameters
        ----------
        points
            Physical positions, shape ``(N, 3)`` or ``(3,)``.
        guess
            Optional warm-start grid coordinates of the same shape (e.g.
            last frame's rake location); skips the KD-tree query.

        Returns
        -------
        ``(coords, found)``: fractional grid coordinates ``(N, 3)`` and a
        boolean mask of points actually inside the grid (residual below
        tolerance).  Coordinates of not-found points are the best clamped
        Newton iterate and should not be trusted.
        """
        points = np.asarray(points, dtype=np.float64)
        single = points.ndim == 1
        if single:
            points = points[None, :]
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {points.shape}")

        if guess is None:
            coords = self._initial_guess(points)
        else:
            coords = np.array(guess, dtype=np.float64, copy=True)
            if single and coords.ndim == 1:
                coords = coords[None, :]
            if coords.shape != points.shape:
                raise ValueError("guess must match points shape")

        hi = self._dims - 1.0
        tol2 = (NEWTON_TOL + 1e-12) ** 2
        scale2 = self._scale**2
        active = np.ones(len(points), dtype=bool)
        for _ in range(MAX_NEWTON_ITERS):
            if not active.any():
                break
            idx = np.nonzero(active)[0]
            cur = coords[idx]
            residual = points[idx] - self.grid.to_physical(cur)
            r2 = np.einsum("ij,ij->i", residual, residual)
            done = r2 <= tol2 * scale2
            active[idx[done]] = False
            live = ~done
            if not live.any():
                continue
            jac = jacobian_at(self.grid.xyz, cur[live])
            try:
                step = np.linalg.solve(jac, residual[live][..., None])[..., 0]
            except np.linalg.LinAlgError:
                # Degenerate cell (e.g. O-grid axis); fall back to pinv.
                step = np.einsum(
                    "nij,nj->ni", np.linalg.pinv(jac), residual[live]
                )
            # Limit the step to one cell per iteration for robustness in
            # strongly stretched grids, and clamp into the domain.
            np.clip(step, -1.0, 1.0, out=step)
            updated = cur[live] + step
            np.clip(updated, 0.0, hi, out=updated)
            sel = idx[live]
            coords[sel] = updated

        residual = points - self.grid.to_physical(coords)
        r2 = np.einsum("ij,ij->i", residual, residual)
        found = r2 <= max(tol2 * scale2, 1e-16)
        # Accept slightly looser convergence than the Newton target: a point
        # is 'in the grid' if the final residual is tiny relative to cell
        # size.
        found |= r2 <= (1e-6 * self._scale) ** 2
        if single:
            return coords[0], bool(found[0])
        return coords, found
