"""Headless keyframe capture: one PublishedFrame to one image, no client.

The sweep lane runs without sockets or workstations, but a results store
with a rendered keyframe per scenario turns a metric regression into
something a human can *look at* — the batch analog of the paper's
"visualization ... from the point of view determined by that
workstation" (section 5.1), with the viewpoint derived from the dataset
instead of a head tracker.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.render.camera import Camera
from repro.render.framebuffer import Framebuffer
from repro.render.scene import PathBundle, RakeGlyph, Scene
from repro.util.transforms import look_at

__all__ = ["frame_scene", "capture_keyframe"]

#: Path colors per tool kind, shared with the interactive client:
#: near-white, so a path lights both the red and the blue eye.
_TOOL_COLORS = {
    "streamline": (255, 255, 255),
    "particle_path": (120, 220, 255),
    "streakline": (230, 230, 230),
}


def frame_scene(paths: dict, rakes: dict | None = None) -> Scene:
    """Build a drawable scene from a frame's paths dict.

    ``paths`` is :attr:`~repro.core.framestore.PublishedFrame.paths`
    (``{rake_id: {kind, vertices, lengths}}``); ``rakes`` optionally maps
    ids to :class:`~repro.tracers.rake.Rake` for the seed-line glyphs.
    """
    scene = Scene()
    for entry in paths.values():
        scene.add(
            PathBundle(
                paths=entry["vertices"],
                lengths=np.asarray(entry["lengths"]),
                color=_TOOL_COLORS.get(entry["kind"], (255, 255, 255)),
                fade=entry["kind"] == "streakline",
            )
        )
    for rake in (rakes or {}).values():
        scene.add(RakeGlyph(rake.end_a, rake.end_b, held=False))
    return scene


def capture_keyframe(
    frame,
    grid,
    *,
    rakes: dict | None = None,
    path: str | Path | None = None,
    width: int = 320,
    height: int = 240,
) -> Framebuffer:
    """Render ``frame`` from a dataset-derived viewpoint; optionally save.

    The camera sits outside the grid's bounding box along its long
    diagonal, looking at the box center — deterministic for a given
    grid, so two sweeps of one manifest produce comparable images.
    Paths are drawn in *physical* space: the frame store publishes
    physical float32 vertices (12 bytes/point), which is exactly what
    the scene consumes.
    """
    nodes = np.asarray(grid.xyz, dtype=np.float64).reshape(-1, 3)
    lo = nodes.min(axis=0)
    hi = nodes.max(axis=0)
    center = 0.5 * (lo + hi)
    extent = float(np.linalg.norm(hi - lo))
    if extent == 0.0:
        extent = 1.0
    eye = center + np.array([1.1, -1.5, 0.8]) * extent
    pose = look_at(eye, center, up=[0.0, 0.0, 1.0])

    fb = Framebuffer(width, height)
    camera = Camera(pose)
    scene = frame_scene(frame.paths, rakes)
    scene.draw(fb, camera)
    if path is not None:
        fb.save_ppm(path)
    return fb
