"""Shared utilities: homogeneous-transform algebra and timing.

These are the low-level helpers every other subsystem builds on.  The
transform helpers mirror the 4x4 position/orientation matrices the paper's
BOOM tracker and the graphics transformation both speak (section 3).
"""

from repro.util.transforms import (
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
from repro.util.timers import FrameTimer, Stopwatch, TimingStats

__all__ = [
    "IDENTITY",
    "compose",
    "invert_rigid",
    "is_rigid",
    "look_at",
    "rotation_x",
    "rotation_y",
    "rotation_z",
    "transform_points",
    "translation",
    "FrameTimer",
    "Stopwatch",
    "TimingStats",
]
