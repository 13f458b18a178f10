"""Grid quality metrics.

Before trusting tracer output on a curvilinear grid, CFD practice checks
the mesh: positive Jacobian determinant everywhere (no inverted cells —
the grid->physical map is locally invertible, which the point-location
Newton solver assumes), bounded cell aspect ratio, and reasonable
orthogonality.  These diagnostics are cheap, vectorized, and used by the
dataset loaders' validation paths and the tests for the O-grid factory.
"""

from __future__ import annotations

import numpy as np

from repro.grid.curvilinear import CurvilinearGrid

__all__ = [
    "jacobian_determinant",
    "orthogonality",
    "aspect_ratio",
    "grid_report",
]


def jacobian_determinant(grid: CurvilinearGrid) -> np.ndarray:
    """det(dX/dxi) at every node — the local cell volume per unit index.

    Uniformly positive means the grid is right-handed and nowhere
    inverted; a sign change marks tangled cells.
    """
    return np.linalg.det(grid.jacobian)


def orthogonality(grid: CurvilinearGrid) -> np.ndarray:
    """Worst |cos(angle)| between grid-line directions at every node.

    0 is perfectly orthogonal; values near 1 mean nearly collinear grid
    lines (degenerate cells).
    """
    jac = grid.jacobian
    cols = jac / np.maximum(
        np.linalg.norm(jac, axis=-2, keepdims=True), 1e-300
    )
    worst = np.zeros(grid.shape)
    for a in range(3):
        for b in range(a + 1, 3):
            cos = np.abs(np.einsum("...i,...i->...", cols[..., :, a], cols[..., :, b]))
            np.maximum(worst, cos, out=worst)
    return worst


def aspect_ratio(grid: CurvilinearGrid) -> np.ndarray:
    """Ratio of longest to shortest grid-line spacing at every node."""
    lengths = np.linalg.norm(grid.jacobian, axis=-2)  # (..., 3): |dX/dxi_b|
    return lengths.max(axis=-1) / np.maximum(lengths.min(axis=-1), 1e-300)


def grid_report(grid: CurvilinearGrid) -> dict:
    """Summary quality report for a grid.

    Keys: ``min_det`` / ``max_det`` (sign check), ``inverted_nodes``,
    ``worst_orthogonality`` (cos), ``max_aspect_ratio``, ``n_points``.
    """
    det = jacobian_determinant(grid)
    orth = orthogonality(grid)
    aspect = aspect_ratio(grid)
    return {
        "n_points": grid.n_points,
        "min_det": float(det.min()),
        "max_det": float(det.max()),
        "inverted_nodes": int((det <= 0).sum()),
        "worst_orthogonality": float(orth.max()),
        "max_aspect_ratio": float(aspect.max()),
    }
