"""Retained display list and the one vectorized rasterize pass.

The VGX could push ~800,000 triangles/second; our unit of work is the
path *segment* (the tools ship polylines, "rendered as individual points
or connected in a way to simulate smoke", section 2.1).  A frame's
drawables contribute their primitives to one :class:`DisplayList`, built
once; :func:`rasterize` then projects it for one eye, expands every
segment and splat of the scene to pixel samples in one NumPy pass and
commits them through one depth-tested scatter — the renderer's analogue
of vectorizing across streamlines.
"""

from __future__ import annotations

import numpy as np

from repro.render.camera import Camera
from repro.render.framebuffer import ALL_CHANNELS, Framebuffer, WriteMask

__all__ = ["DisplayList", "rasterize", "draw_points", "draw_polyline", "draw_polylines"]

#: Safety cap on samples per segment (a segment crossing the whole screen).
_MAX_STEPS = 4096


class DisplayList:
    """One frame's primitives in scene order, drawable from any eye.

    Everything lands in one block: world vertices, per-vertex colours
    (float64, clipped to 0..255 only when a sample is written) and one
    ``(a, b, dx, dy)`` row per primitive: the segment from vertex ``a`` to
    vertex ``b``, or, where ``a == b``, one pixel of a splat, ``(dx, dy)``
    from the vertex's own.  Every polyline owns its vertices, so a segment
    continues into the next row exactly when that row starts at its end.
    """

    def __init__(self) -> None:
        self._vertices = [np.zeros((0, 3))]
        self._colors = [np.zeros((3, 0))]
        self._rows = [np.zeros((4, 0), dtype=np.intp)]
        self._n_vertices = 0
        #: Per channel: may some segment's end colours differ?
        self._fades = np.zeros(3, dtype=bool)

    def _add(self, vertices, colors, rows) -> "DisplayList":
        rows[:2] += self._n_vertices
        self._n_vertices += len(vertices)
        self._vertices.append(vertices)
        self._colors.append(colors)
        self._rows.append(rows)
        return self

    def add_points(self, points, color=(255, 255, 255), size: int = 1) -> "DisplayList":
        """``(N, 3)`` points as ``size x size`` splats; one RGB or ``(N, 3)``."""
        points = np.asarray(points)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {points.shape}")
        if size < 1:
            raise ValueError("size must be at least 1")
        n = len(points)
        color = np.asarray(color, dtype=np.float64)
        if color.ndim != 1 and color.shape != (n, 3):
            raise ValueError(f"per-vertex colors must have shape ({n}, 3)")
        # Pixel-offset-major, as a loop of one-pixel scatters would run.
        dy, dx = np.divmod(np.arange(size * size), size)
        rows = np.empty((4, size * size, n), dtype=np.intp)
        rows[:2] = np.arange(n)
        rows[2] = dx[:, None] - (size - 1) // 2
        rows[3] = dy[:, None] - (size - 1) // 2
        return self._add(points, np.broadcast_to(color, (n, 3)).T, rows.reshape(4, -1))

    def add_polylines(self, paths, lengths=None, color=(255, 255, 255)) -> "DisplayList":
        """A ``(S, L, 3)`` vertex block as ``S`` polylines.

        ``lengths`` gives valid vertices per path (default: all ``L``);
        ``color`` is one RGB, per-path ``(S, 3)`` or per-vertex
        ``(S, L, 3)``.  A path of fewer than two vertices draws nothing.
        """
        paths = np.asarray(paths)
        if paths.ndim != 3 or paths.shape[2] != 3:
            raise ValueError(f"paths must have shape (S, L, 3), got {paths.shape}")
        s, l, _ = paths.shape
        if lengths is None:
            lengths = np.full(s, l, dtype=np.intp)
        else:
            lengths = np.asarray(lengths, dtype=np.intp)
            if lengths.shape != (s,):
                raise ValueError("lengths must have shape (S,)")
            if lengths.max(initial=0) > l or lengths.min(initial=0) < 0:
                raise ValueError("lengths out of range")
        color = np.asarray(color, dtype=np.float64)
        if color.shape == (s, 3):
            color = color[:, None, :]
        elif color.ndim != 1 and color.shape != (s, l, 3):
            raise ValueError(f"unsupported color shape {color.shape}")
        if color.ndim == 3:
            self._fades |= (color[:, 1:] != color[:, :-1]).any(axis=(0, 1))
        # Segment (s, j) -> (s, j+1) exists when j + 1 < lengths[s].
        start = np.flatnonzero(np.arange(1, l + 1) < lengths[:, None])
        rows = np.zeros((4, len(start)), dtype=np.intp)
        rows[0] = start
        rows[1] = start + 1
        color = np.broadcast_to(color, (s, l, 3)).reshape(-1, 3).T
        return self._add(paths.reshape(-1, 3), color, rows)

    def packed(self) -> tuple:
        """``(vertices (V, 3), colors (3, V), rows (4, R), fades)``, joined once."""
        if len(self._rows) > 1:
            self._vertices = [np.concatenate(self._vertices, dtype=np.float64)]
            self._colors = [np.concatenate(self._colors, axis=1)]
            self._rows = [np.concatenate(self._rows, axis=1)]
        return self._vertices[0], self._colors[0], self._rows[0], self._fades


def _segment_table(attrs: list, a: np.ndarray, b: np.ndarray) -> tuple:
    """One column per drawn row, for a single ``np.repeat``.

    Rows of the table: the row's first sample index, its step count, then
    every interpolated attribute (x, y, depth, fading colour channels) at
    the start vertex, then its change along the segment.  Filled in place
    and handed over whole: a frame's worth of fresh megabyte temporaries
    costs more in page faults and resident memory than in arithmetic.
    """
    n = len(attrs)
    table = np.empty((2 + 2 * n, len(a)))
    first, steps, start, delta = table[0], table[1], table[2:2 + n], table[2 + n:]
    for i, attr in enumerate(attrs):
        attr.take(a, out=start[i], mode="clip")  # "raise" would buffer ``out``
        attr.take(b, out=delta[i], mode="clip")
    delta -= start
    np.maximum(np.abs(delta[0]), np.abs(delta[1]), out=steps)
    np.clip(np.ceil(steps, out=steps), 1, _MAX_STEPS, out=steps)
    # Half-open: the end vertex only where the next row does not start there.
    counts = steps.astype(np.intp) + 1
    counts[:-1] -= a[1:] == b[:-1]
    splat = np.flatnonzero(a == b)
    counts[splat] = 1
    np.cumsum(counts, out=first)
    first -= counts
    return table, counts, splat, first[splat].astype(np.intp)


def rasterize(
    dlist: DisplayList, fb: Framebuffer, camera: Camera, mask: WriteMask = ALL_CHANNELS
) -> int:
    """Draw ``dlist`` from ``camera`` into ``fb``; returns samples that won.

    A segment with an end outside the near/far planes is dropped whole.
    Segments are expanded half-open: samples ``t`` in ``[0, 1)``, and the
    end vertex only where the polyline does not continue into the next
    drawn row (its last segment, or one whose successor was culled) — the
    dropped sample is the twin of the successor's ``t = 0`` and earlier in
    scatter order, so it could never show.  Colour is interpolated only on
    the channels ``mask`` passes, and only where some segment fades.
    """
    vertices, colors, rows, fades = dlist.packed()
    if rows.shape[1] == 0:
        return 0
    xy, depth, valid = camera.project(vertices, fb.width, fb.height)
    keep = valid.take(rows[0]) & valid.take(rows[1])
    if not keep.all():
        rows = rows[:, keep]
        if rows.shape[1] == 0:
            return 0
    a, b, dx, dy = rows
    channels = mask.channels()
    fading = channels if fades[channels].any() else []
    attrs = [xy[:, 0], xy[:, 1], depth, *colors[fading]]
    table, counts, splat, at = _segment_table(attrs, a, b)

    # Sample k of a row sits at start + (k / steps) * delta, every attribute.
    table = np.repeat(table, counts, axis=1)
    total, n = table.shape[1], len(attrs)
    t = (np.arange(total) - table[0]) / table[1]
    samples, delta = table[2:2 + n], table[2 + n:]
    delta *= t
    samples += delta
    xs = np.round(samples[0]).astype(np.intp)
    ys = np.round(samples[1]).astype(np.intp)
    xs[at] += dx[splat]
    ys[at] += dy[splat]
    cols = np.zeros((total, 3), dtype=np.uint8)
    for i, c in enumerate(channels):
        if fading:
            cols[:, c] = np.clip(samples[3 + i], 0, 255)
        else:
            cols[:, c] = np.repeat(np.clip(colors[c].take(a), 0, 255).astype(np.uint8), counts)
    return fb.scatter(xs, ys, samples[2], cols, mask)


def draw_points(
    fb: Framebuffer,
    camera: Camera,
    points: np.ndarray,
    color=(255, 255, 255),
    mask: WriteMask = ALL_CHANNELS,
    size: int = 1,
) -> int:
    """Render points as ``size x size`` pixel splats.  Returns samples won."""
    return rasterize(DisplayList().add_points(points, color, size), fb, camera, mask)


def draw_polyline(
    fb: Framebuffer,
    camera: Camera,
    vertices: np.ndarray,
    color=(255, 255, 255),
    mask: WriteMask = ALL_CHANNELS,
) -> int:
    """Render one polyline (``(N, 3)`` world vertices; one is a point).

    Returns samples that won the depth test; interior vertices count once.
    """
    vertices = np.asarray(vertices)
    if vertices.ndim != 2 or vertices.shape[1] != 3:
        raise ValueError(f"vertices must have shape (N, 3), got {vertices.shape}")
    if len(vertices) == 1:
        return draw_points(fb, camera, vertices, color, mask)
    color = np.asarray(color, dtype=np.float64)
    color = color if color.ndim == 1 else color[None]
    return draw_polylines(fb, camera, vertices[None], color=color, mask=mask)


def draw_polylines(
    fb: Framebuffer,
    camera: Camera,
    paths: np.ndarray,
    lengths: np.ndarray | None = None,
    color=(255, 255, 255),
    mask: WriteMask = ALL_CHANNELS,
) -> int:
    """Render a batch of polylines (see :meth:`DisplayList.add_polylines`).

    Returns samples that won the depth test; interior vertices count once.
    """
    return rasterize(DisplayList().add_polylines(paths, lengths, color), fb, camera, mask)
