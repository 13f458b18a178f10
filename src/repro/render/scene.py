"""Scene description: what the workstation draws each frame.

The virtual environment shows the tracer paths, the rakes themselves (the
server sends "the information about the virtual control devices such as
rakes ... so that the current state of these devices may be correctly
rendered", section 5.1), the user's hand, and — in a shared session — the
other users' heads ("indicating to participants in the environment where
everyone is").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.render.camera import Camera
from repro.render.framebuffer import ALL_CHANNELS, Framebuffer, WriteMask
from repro.render.rasterizer import DisplayList, rasterize

__all__ = [
    "PathBundle",
    "PointCloud",
    "RakeGlyph",
    "HandGlyph",
    "HeadGlyph",
    "TriangleMesh",
    "Scene",
]


class _Drawable:
    """A scene item ``emit``s its primitives; ``draw`` is a one-item scene."""

    def draw(self, fb: Framebuffer, camera: Camera, mask: WriteMask = ALL_CHANNELS) -> int:
        return Scene([self]).draw(fb, camera, mask)


@dataclass
class PathBundle(_Drawable):
    """A batch of tracer polylines (one tool result).

    ``fade`` dims vertices toward the old end of each path, the smoke
    look of figure 1.
    """

    paths: np.ndarray  # (S, L, 3) physical vertices
    lengths: np.ndarray | None = None
    color: tuple = (255, 255, 255)
    fade: bool = False

    def emit(self, dlist: DisplayList) -> None:
        paths = np.asarray(self.paths)
        if paths.ndim != 3:
            raise ValueError("PathBundle.paths must be (S, L, 3)")
        s, l, _ = paths.shape
        color = np.asarray(self.color, dtype=np.float64)
        if self.fade and l > 1:
            ramp = np.linspace(1.0, 0.15, l)
            color = np.broadcast_to(color, (s, l, 3)) * ramp[None, :, None]
        dlist.add_polylines(paths, self.lengths, color)


@dataclass
class PointCloud(_Drawable):
    """Particles rendered 'as individual points' (section 2.1)."""

    points: np.ndarray  # (N, 3)
    color: tuple = (255, 255, 255)
    size: int = 1

    def emit(self, dlist: DisplayList) -> None:
        dlist.add_points(self.points, self.color, self.size)


@dataclass
class RakeGlyph(_Drawable):
    """A rake: its line plus markers at the three grab points."""

    end_a: np.ndarray
    end_b: np.ndarray
    color: tuple = (255, 255, 0)
    held: bool = False

    def emit(self, dlist: DisplayList) -> None:
        a = np.asarray(self.end_a, dtype=np.float64)
        b = np.asarray(self.end_b, dtype=np.float64)
        dlist.add_polylines(np.stack([a, b])[None], color=self.color)
        marker = np.stack([a, 0.5 * (a + b), b])
        dlist.add_points(marker, self.color, size=5 if self.held else 3)


@dataclass
class HandGlyph(_Drawable):
    """The user's hand: a small 3-axis cross at the hand position."""

    position: np.ndarray
    scale: float = 0.05
    color: tuple = (0, 255, 0)

    def emit(self, dlist: DisplayList) -> None:
        p = np.asarray(self.position, dtype=np.float64)
        axes = np.eye(3) * self.scale
        dlist.add_polylines(np.stack([p - axes, p + axes], axis=1), color=self.color)


@dataclass
class HeadGlyph(_Drawable):
    """Another user's head: a wireframe diamond at their head position."""

    position: np.ndarray
    scale: float = 0.12
    color: tuple = (255, 0, 255)

    def emit(self, dlist: DisplayList) -> None:
        p = np.asarray(self.position, dtype=np.float64)
        s = self.scale
        tips = [
            p + [s, 0, 0], p - [s, 0, 0],
            p + [0, s, 0], p - [0, s, 0],
            p + [0, 0, s], p - [0, 0, s],
        ]
        # Connect the equator and the poles into a diamond wireframe.
        equator = [tips[0], tips[2], tips[1], tips[3], tips[0]]
        dlist.add_polylines(np.stack(equator)[None], color=self.color)
        spokes = [[pole, t] for pole in tips[4:] for t in tips[:4]]
        dlist.add_polylines(np.array(spokes), color=self.color)


@dataclass
class TriangleMesh(_Drawable):
    """A triangle mesh (e.g. an isosurface), rendered as wireframe.

    ``triangles`` has shape ``(T, 3, 3)``: T triangles of three physical
    vertices.  Wireframe keeps the renderer line-only (as the VGX-era
    windtunnel was for tracer geometry) while still conveying the surface;
    each triangle draws as a closed 4-vertex polyline.
    """

    triangles: np.ndarray
    color: tuple = (180, 120, 255)

    def emit(self, dlist: DisplayList) -> None:
        tris = np.asarray(self.triangles)
        if tris.ndim != 3 or tris.shape[1:] != (3, 3):
            raise ValueError(f"triangles must have shape (T, 3, 3), got {tris.shape}")
        closed = np.concatenate([tris, tris[:, :1]], axis=1)  # (T, 4, 3)
        dlist.add_polylines(closed, color=self.color)


class Scene:
    """An ordered collection of drawables behind one display list.

    The list is built at the first draw and kept — both eyes of a stereo
    pair, and every redraw from a new head pose, reuse it — until
    :meth:`add` or :meth:`clear` changes the items.
    """

    def __init__(self, items: list | None = None) -> None:
        self.items = list(items) if items else []
        self._dlist: DisplayList | None = None

    def add(self, item) -> None:
        if not hasattr(item, "emit"):
            raise TypeError(f"{type(item).__name__} is not drawable")
        self.items.append(item)
        self._dlist = None

    def clear(self) -> None:
        self.items.clear()
        self._dlist = None

    def draw(
        self, fb: Framebuffer, camera: Camera, mask: WriteMask = ALL_CHANNELS
    ) -> int:
        """Draw every item; returns the samples that won the depth test."""
        if self._dlist is None:
            dlist = DisplayList()
            for item in self.items:
                item.emit(dlist)
            self._dlist = dlist
        return rasterize(self._dlist, fb, camera, mask)
