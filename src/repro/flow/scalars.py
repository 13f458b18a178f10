"""Derived scalar fields on dataset nodes.

The windtunnel's tools trace the velocity field, but the quantities a
researcher contours — speed, vorticity magnitude, the Q-criterion that
became the standard vortex detector — are *derived* node scalars.  All
derivatives here are taken in grid coordinates with the chain rule
through the grid Jacobian, so they are correct on curvilinear grids.
"""

from __future__ import annotations

import numpy as np

from repro.flow.dataset import UnsteadyDataset

__all__ = [
    "speed",
    "velocity_gradient",
    "vorticity",
    "vorticity_magnitude",
    "q_criterion",
]


def speed(dataset: UnsteadyDataset, timestep: int) -> np.ndarray:
    """|v| at every node, shape ``(ni, nj, nk)``."""
    v = np.asarray(dataset.velocity(timestep), dtype=np.float64)
    return np.linalg.norm(v, axis=-1)


def velocity_gradient(dataset: UnsteadyDataset, timestep: int) -> np.ndarray:
    """The physical velocity-gradient tensor ``dv_a/dx_b`` at every node.

    Computed as ``(dv/dxi) @ (dxi/dx)`` — central differences along the
    grid indices, then the grid's inverse Jacobian (built once per grid).
    Shape ``(ni, nj, nk, 3, 3)``.
    """
    v = np.asarray(dataset.velocity(timestep), dtype=np.float64)
    # dv/dxi: gradient of each velocity component along each grid axis.
    dv_dxi = np.empty(v.shape[:3] + (3, 3))
    for b in range(3):
        dv_dxi[..., :, b] = np.gradient(v, axis=b)
    inv_jac = dataset.grid.inverse_jacobian  # dxi/dx, built once per grid
    return np.einsum("...ab,...bc->...ac", dv_dxi, inv_jac)


def vorticity(dataset: UnsteadyDataset, timestep: int) -> np.ndarray:
    """The vorticity vector ``curl v`` at every node, ``(ni, nj, nk, 3)``."""
    g = velocity_gradient(dataset, timestep)
    out = np.empty(g.shape[:3] + (3,))
    out[..., 0] = g[..., 2, 1] - g[..., 1, 2]
    out[..., 1] = g[..., 0, 2] - g[..., 2, 0]
    out[..., 2] = g[..., 1, 0] - g[..., 0, 1]
    return out


def vorticity_magnitude(dataset: UnsteadyDataset, timestep: int) -> np.ndarray:
    """|curl v| — the scalar most often contoured to show shed vortices."""
    return np.linalg.norm(vorticity(dataset, timestep), axis=-1)


def q_criterion(dataset: UnsteadyDataset, timestep: int) -> np.ndarray:
    """Hunt's Q: ``(|Omega|^2 - |S|^2) / 2`` from the gradient tensor.

    Positive Q marks rotation-dominated regions — vortex cores.  Q > 0
    isosurfaces of the tapered-cylinder dataset show the shed vortex
    tubes the paper's streaklines trace.
    """
    g = velocity_gradient(dataset, timestep)
    s = 0.5 * (g + np.swapaxes(g, -1, -2))
    w = 0.5 * (g - np.swapaxes(g, -1, -2))
    s2 = np.einsum("...ab,...ab->...", s, s)
    w2 = np.einsum("...ab,...ab->...", w, w)
    return 0.5 * (w2 - s2)
