"""BOOM head tracker: six-joint yoke forward kinematics.

Section 3: "Optical encoders on the joints of the yoke assembly are
continuously read by the host computer providing six angles of the joints
of the yoke.  These angles are converted into a standard 4x4 position and
orientation matrix for the position and orientation of the BOOM head by
six successive translations and rotations.  By inverting this position
and orientation matrix and concatenating it with the graphics
transformation matrix stack, the computer generated scene is rendered
from the user's point of view."

:class:`Boom` is exactly that conversion, plus the physical realities a
real counterweighted yoke has: encoder quantization (the angles arrive as
counts) and joint limits ("six degrees of freedom within a limited
range").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.transforms import (
    compose,
    invert_rigid,
    rotation_x,
    rotation_y,
    rotation_z,
    translation,
)

__all__ = ["BoomJoint", "Boom", "DEFAULT_BOOM_GEOMETRY"]

_AXIS_FN = {"x": rotation_x, "y": rotation_y, "z": rotation_z}


@dataclass(frozen=True)
class BoomJoint:
    """One yoke joint: a rotation about ``axis`` followed by a fixed link.

    ``offset`` is the translation (meters) along the link to the next
    joint, applied after this joint's rotation.  ``lo``/``hi`` are the
    joint's mechanical limits in radians.
    """

    axis: str
    offset: tuple[float, float, float] = (0.0, 0.0, 0.0)
    lo: float = -np.pi
    hi: float = np.pi

    def __post_init__(self) -> None:
        if self.axis not in _AXIS_FN:
            raise ValueError(f"joint axis must be x, y or z, got {self.axis!r}")
        if self.lo >= self.hi:
            raise ValueError("joint limit lo must be below hi")

    def transform(self, angle: float) -> np.ndarray:
        return compose(_AXIS_FN[self.axis](angle), translation(self.offset))


#: A plausible counterweighted-yoke geometry: base azimuth about the
#: column, shoulder and elbow elevations with ~0.9 m links, then a 3-axis
#: head gimbal with a short offset to the eyepoint.
DEFAULT_BOOM_GEOMETRY = (
    BoomJoint("z", (0.0, 0.0, 1.2), -np.pi, np.pi),           # base azimuth
    BoomJoint("y", (0.9, 0.0, 0.0), -1.2, 1.2),               # shoulder
    BoomJoint("y", (0.9, 0.0, 0.0), -2.0, 2.0),               # elbow
    BoomJoint("z", (0.0, 0.0, 0.0), -np.pi, np.pi),           # head yaw
    BoomJoint("y", (0.0, 0.0, 0.0), -1.4, 1.4),               # head pitch
    BoomJoint("x", (0.1, 0.0, 0.0), -1.0, 1.0),               # head roll + eye offset
)


class Boom:
    """Forward kinematics of the boom-mounted display.

    Parameters
    ----------
    geometry
        The six :class:`BoomJoint` specs, base to head.
    encoder_counts
        Resolution of the optical encoders (counts per revolution); joint
        angles quantize to this grid, as the real hardware's do.
    """

    def __init__(
        self,
        geometry: tuple[BoomJoint, ...] = DEFAULT_BOOM_GEOMETRY,
        encoder_counts: int = 4096,
    ) -> None:
        if len(geometry) != 6:
            raise ValueError(f"the BOOM has six joints, got {len(geometry)}")
        if encoder_counts < 2:
            raise ValueError("encoder_counts must be at least 2")
        self.geometry = tuple(geometry)
        self.encoder_counts = int(encoder_counts)
        self._resolution = 2.0 * np.pi / self.encoder_counts

    def clamp_angles(self, angles) -> np.ndarray:
        """Clamp joint angles into the yoke's mechanical limits."""
        angles = np.asarray(angles, dtype=np.float64)
        if angles.shape != (6,):
            raise ValueError(f"expected 6 joint angles, got shape {angles.shape}")
        lo = np.array([j.lo for j in self.geometry])
        hi = np.array([j.hi for j in self.geometry])
        return np.clip(angles, lo, hi)

    def quantize(self, angles) -> np.ndarray:
        """Snap angles to the encoder grid (what the host actually reads)."""
        angles = self.clamp_angles(angles)
        return np.round(angles / self._resolution) * self._resolution

    def angles_to_counts(self, angles) -> np.ndarray:
        """Joint angles -> raw encoder counts."""
        angles = self.clamp_angles(angles)
        return np.round(angles / self._resolution).astype(np.int64)

    def counts_to_angles(self, counts) -> np.ndarray:
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (6,):
            raise ValueError(f"expected 6 encoder counts, got shape {counts.shape}")
        return counts * self._resolution

    def head_pose(self, angles, *, quantize: bool = True) -> np.ndarray:
        """The 4x4 head position/orientation matrix.

        Built as the paper says: six successive (rotation, translation)
        pairs, base to head.
        """
        angles = self.quantize(angles) if quantize else self.clamp_angles(angles)
        return compose(*(j.transform(a) for j, a in zip(self.geometry, angles)))

    def view_matrix(self, angles, *, quantize: bool = True) -> np.ndarray:
        """The rendering view matrix: the inverted head pose (section 3)."""
        return invert_rigid(self.head_pose(angles, quantize=quantize))

    def head_position(self, angles) -> np.ndarray:
        return self.head_pose(angles)[:3, 3]

    def reach_envelope(self, n_samples: int = 500, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Monte-Carlo bounding box of reachable head positions.

        Useful for placing the virtual scene inside the yoke's "limited
        range" of head motion.
        """
        rng = np.random.default_rng(seed)
        lo = np.array([j.lo for j in self.geometry])
        hi = np.array([j.hi for j in self.geometry])
        pts = np.empty((n_samples + 1, 3))
        pts[0] = self.head_position(np.zeros(6))  # always include home pose
        for i in range(n_samples):
            pts[i + 1] = self.head_position(rng.uniform(lo, hi))
        return pts.min(axis=0), pts.max(axis=0)
