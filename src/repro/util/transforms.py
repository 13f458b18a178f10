"""Homogeneous 4x4 transform algebra.

The virtual windtunnel represents every pose — the BOOM head, the glove, the
rendering viewpoint — as a standard 4x4 position-and-orientation matrix
(paper, section 3).  Points are row vectors multiplied on the right
(``p' = p @ M``) would be one convention; we instead use the column-vector
convention ``p' = M @ p`` throughout, with points stored as ``(N, 3)``
arrays and promoted to homogeneous coordinates internally.

All functions are vectorized over arrays of points and allocate only the
output; intermediates reuse broadcasting to stay cache-friendly, per the
HPC guidance of preferring views over copies.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "IDENTITY",
    "translation",
    "rotation_x",
    "rotation_y",
    "rotation_z",
    "compose",
    "invert_rigid",
    "is_rigid",
    "transform_points",
    "look_at",
]

#: The 4x4 identity transform.  Treat as read-only.
IDENTITY = np.eye(4)
IDENTITY.setflags(write=False)


def translation(offset) -> np.ndarray:
    """Return the 4x4 matrix translating by ``offset`` (length-3)."""
    t = np.asarray(offset, dtype=np.float64)
    if t.shape != (3,):
        raise ValueError(f"translation offset must have shape (3,), got {t.shape}")
    m = np.eye(4)
    m[:3, 3] = t
    return m


def _rotation(angle: float, i: int, j: int) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    m = np.eye(4)
    m[i, i] = c
    m[j, j] = c
    m[i, j] = -s
    m[j, i] = s
    return m


def rotation_x(angle: float) -> np.ndarray:
    """Rotation about +X by ``angle`` radians (right-handed)."""
    return _rotation(angle, 1, 2)


def rotation_y(angle: float) -> np.ndarray:
    """Rotation about +Y by ``angle`` radians (right-handed)."""
    return _rotation(angle, 2, 0)


def rotation_z(angle: float) -> np.ndarray:
    """Rotation about +Z by ``angle`` radians (right-handed)."""
    return _rotation(angle, 0, 1)


def compose(*matrices: np.ndarray) -> np.ndarray:
    """Compose transforms left-to-right: ``compose(A, B)`` applies B first.

    i.e. ``transform_points(compose(A, B), p) == transform_points(A,
    transform_points(B, p))``.  With no arguments returns the identity.
    """
    out = np.eye(4)
    for m in matrices:
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (4, 4):
            raise ValueError(f"expected 4x4 matrix, got shape {m.shape}")
        out = out @ m
    return out


def is_rigid(m: np.ndarray, tol: float = 1e-9) -> bool:
    """True if ``m`` is a rigid transform (orthonormal rotation + translation)."""
    m = np.asarray(m)
    if m.shape != (4, 4):
        return False
    r = m[:3, :3]
    if not np.allclose(r @ r.T, np.eye(3), atol=tol):
        return False
    if not np.isclose(np.linalg.det(r), 1.0, atol=tol):
        return False
    return bool(np.allclose(m[3], [0.0, 0.0, 0.0, 1.0], atol=tol))


def invert_rigid(m: np.ndarray) -> np.ndarray:
    """Invert a rigid transform without a general 4x4 inverse.

    The paper renders from the user's point of view by *inverting* the BOOM
    position/orientation matrix and concatenating it onto the graphics
    transformation stack (section 3); this is that inversion.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (4, 4):
        raise ValueError(f"expected 4x4 matrix, got shape {m.shape}")
    r = m[:3, :3]
    t = m[:3, 3]
    out = np.eye(4)
    out[:3, :3] = r.T
    out[:3, 3] = -r.T @ t
    return out


def transform_points(m: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply a 4x4 transform to points of shape ``(..., 3)``.

    Points receive the translation component.
    """
    m = np.asarray(m, dtype=np.float64)
    p = np.asarray(points, dtype=np.float64)
    if p.shape[-1] != 3:
        raise ValueError(f"points must have trailing dimension 3, got {p.shape}")
    out = p @ m[:3, :3].T
    out += m[:3, 3]
    w = p @ m[3, :3] + m[3, 3]
    if not np.allclose(w, 1.0):
        out /= w[..., None]
    return out


def look_at(eye, target, up=(0.0, 0.0, 1.0)) -> np.ndarray:
    """Build a camera pose matrix positioned at ``eye`` looking at ``target``.

    Returns the *pose* (camera-to-world) matrix; invert with
    :func:`invert_rigid` to get the view matrix.  Camera looks down its -Z
    axis with +Y up, the OpenGL/IrisGL convention.
    """
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    forward = target - eye
    n = np.linalg.norm(forward)
    if n == 0.0:
        raise ValueError("eye and target coincide")
    forward /= n
    upv = np.asarray(up, dtype=np.float64)
    right = np.cross(forward, upv)
    rn = np.linalg.norm(right)
    if rn < 1e-12:
        raise ValueError("up vector is parallel to the viewing direction")
    right /= rn
    true_up = np.cross(right, forward)
    m = np.eye(4)
    m[:3, 0] = right
    m[:3, 1] = true_up
    m[:3, 2] = -forward
    m[:3, 3] = eye
    return m

