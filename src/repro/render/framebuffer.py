"""Framebuffer with channel writemasks and a Z-buffer.

The writemask is not a convenience here — it is the mechanism of the
paper's stereo display (section 3): "When the blue (second, right-eye)
image is drawn, it is drawn using a 'writemask' that protects the bits of
the red image."
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["WriteMask", "Framebuffer"]


@dataclass(frozen=True)
class WriteMask:
    """Which color channels a draw may modify."""

    red: bool = True
    green: bool = True
    blue: bool = True

    def channels(self) -> list[int]:
        return [i for i, on in enumerate((self.red, self.green, self.blue)) if on]


ALL_CHANNELS = WriteMask()


class Framebuffer:
    """RGB8 color buffer + float32 depth buffer.

    Depth convention: smaller is nearer; cleared to ``+inf``.  The paper's
    VGX ran 1280x1024; defaults follow (scaled down is fine for tests).
    """

    def __init__(self, width: int = 1280, height: int = 1024) -> None:
        if width < 1 or height < 1:
            raise ValueError("framebuffer dimensions must be positive")
        self.width = int(width)
        self.height = int(height)
        self.color = np.zeros((self.height, self.width, 3), dtype=np.uint8)
        self.depth = np.full((self.height, self.width), np.inf, dtype=np.float32)

    def clear(self, color=(0, 0, 0), mask: WriteMask = ALL_CHANNELS) -> None:
        """Clear color (honoring the writemask) and depth."""
        color = np.asarray(color, dtype=np.uint8)
        for c in mask.channels():
            self.color[..., c] = color[c]
        self.clear_depth()

    def clear_depth(self) -> None:
        """Clear only the Z planes — the between-eyes clear of section 3."""
        self.depth.fill(np.inf)

    def scatter(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        zs: np.ndarray,
        colors: np.ndarray,
        mask: WriteMask = ALL_CHANNELS,
    ) -> int:
        """Depth-tested write of point samples.

        ``xs, ys`` are integer pixel coords, ``zs`` depths, ``colors``
        ``(N, 3)`` uint8 (or a single RGB triple).  Out-of-bounds samples
        are discarded.  Returns the number of samples that won the depth
        test.  Duplicate pixels within one call resolve to the nearest
        sample, matching incremental z-buffering.
        """
        xs = np.asarray(xs, dtype=np.intp)
        ys = np.asarray(ys, dtype=np.intp)
        zs = np.asarray(zs, dtype=np.float32)
        colors = np.asarray(colors, dtype=np.uint8)
        if colors.ndim == 1:
            colors = np.broadcast_to(colors, (len(xs), 3))
        inb = (xs >= 0) & (xs < self.width) & (ys >= 0) & (ys < self.height)
        keep = np.flatnonzero(inb & np.isfinite(zs))
        if len(keep) == 0:
            return 0
        flat = ys.take(keep) * self.width + xs.take(keep)
        zs = zs.take(keep)
        depth = self.depth.ravel()
        # One fused min pass decides every pixel's winning depth...
        np.minimum.at(depth, flat, zs)
        won = np.flatnonzero(zs <= depth.take(flat))
        # ...then winning samples write color through the mask.  Ties at
        # identical depth resolve to the last writer, as on real hardware.
        wflat, source = flat.take(won), keep.take(won)
        cflat = self.color.reshape(-1, 3)
        for c in mask.channels():
            cflat[wflat, c] = colors[:, c].take(source)
        return len(won)

    # -- inspection / output -------------------------------------------------

    def channel(self, index: int) -> np.ndarray:
        """A read-only view of one color channel."""
        view = self.color[..., index]
        view.flags.writeable = False
        return view

    def nonblack_pixels(self) -> int:
        return int(np.any(self.color > 0, axis=-1).sum())

    def save_ppm(self, path: str | Path) -> Path:
        """Write the color buffer as a binary PPM (P6) image."""
        path = Path(path)
        with open(path, "wb") as f:
            f.write(f"P6\n{self.width} {self.height}\n255\n".encode())
            f.write(self.color.tobytes())
        return path

    @classmethod
    def load_ppm(cls, path: str | Path) -> "Framebuffer":
        """Read a binary PPM written by :meth:`save_ppm`."""
        raw = Path(path).read_bytes()
        # Header: magic, width, height, maxval, ONE whitespace byte, pixels.
        header = re.match(rb"P6\s+(\d+)\s+(\d+)\s+(\d+)\s", raw)
        if header is None:
            raise ValueError("not a binary PPM file")
        width, height, maxval = map(int, header.groups())
        if maxval != 255:
            raise ValueError("only 8-bit PPM supported")
        n, held = width * height * 3, len(raw) - header.end()
        if held < n:
            raise ValueError(f"{width}x{height} PPM needs {n} pixel bytes, file holds {held}")
        fb = cls(width, height)
        fb.color = np.frombuffer(raw, np.uint8, n, header.end()).reshape(height, width, 3).copy()
        return fb
