"""One frame's paths as a drawable scene.

The workstation's half of section 5.1: the polyline arrays a frame
carries become the :class:`~repro.render.scene.Scene` the client renders
"from the point of view determined by that workstation".
"""

from __future__ import annotations

import numpy as np

from repro.render.scene import PathBundle, Scene

__all__ = ["frame_scene"]

#: Path colors per tool kind, shared with the interactive client:
#: near-white, so a path lights both the red and the blue eye.
_TOOL_COLORS = {
    "streamline": (255, 255, 255),
    "particle_path": (120, 220, 255),
    "streakline": (230, 230, 230),
}


def frame_scene(paths: dict) -> Scene:
    """Build a drawable scene from a frame's paths dict.

    ``paths`` is :attr:`~repro.core.framestore.PublishedFrame.paths`
    (``{rake_id: {kind, vertices, lengths}}``).
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
    return scene
