"""Seeded scenes whose rendered image is the renderer's contract.

``tests/data/render_golden.json`` maps each scene name below to the
SHA-256 of ``fb.color``.  It was recorded with ``python -m
tests.render_golden`` at the commit *before* the display-list renderer
(the immediate-mode one that drew item by item, eye by eye), so a
digest that still matches means the image did not change.  Digests, not
images: a text file survives every transport a repository goes through.
Re-record only for a change that states and tests a new tie-break rule.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.render import (
    Camera,
    Framebuffer,
    HandGlyph,
    HeadGlyph,
    PathBundle,
    PointCloud,
    RakeGlyph,
    Scene,
    TriangleMesh,
    render_anaglyph,
)
from repro.util import look_at

GOLDEN_PATH = Path(__file__).parent / "data" / "render_golden.json"

_FRONT = look_at([0, 5, 0], [0, 0, 0], up=[0, 0, 1])
_OBLIQUE = look_at([3, -4, 2], [0, 0, 0.2], up=[0, 0, 1])
#: Eye 0.3 m from geometry that straddles it: the near plane culls
#: segments in the middle of polylines.
_CLOSE = look_at([0, 0.3, 0], [0, 0, 0], up=[0, 0, 1])


def _walks(rng, s, l, step=0.12, spread=1.0):
    start = rng.uniform(-spread, spread, size=(s, 1, 3))
    return start + np.cumsum(rng.normal(0.0, step, size=(s, l, 3)), axis=1)


def _mixed(rng):
    """Every drawable at once, overlapping so depth and ties matter."""
    lengths = rng.integers(0, 13, size=6)
    return [
        PathBundle(_walks(rng, 6, 12), lengths, color=(255, 255, 255)),
        PathBundle(_walks(rng, 4, 20), color=(230, 230, 230), fade=True),
        PathBundle(_walks(rng, 3, 9).astype(np.float32), color=(120, 220, 255)),
        RakeGlyph(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), held=False),
        RakeGlyph(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), held=True),
        PointCloud(rng.uniform(-1, 1, (40, 3)), color=(255, 200, 80), size=3),
        HandGlyph(rng.uniform(-0.5, 0.5, 3)),
        HeadGlyph(rng.uniform(-1, 1, 3)),
        TriangleMesh(rng.uniform(-1, 1, (5, 3, 3))),
    ]


def _scenes():
    """Yield ``(name, items, pose, (width, height), stereo)``."""
    small = (160, 120)
    for stereo in (False, True):
        tag = "anaglyph" if stereo else "mono"
        yield f"empty-{tag}", [], _FRONT, small, stereo
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            yield f"mixed-{seed}-{tag}", _mixed(rng), _OBLIQUE, small, stereo
        rng = np.random.default_rng(10)
        yield (
            f"bundle-{tag}",
            [PathBundle(_walks(rng, 12, 30), color=(255, 255, 255))],
            _FRONT, small, stereo,
        )
        rng = np.random.default_rng(11)
        yield (
            f"fade-truncated-{tag}",
            [PathBundle(_walks(rng, 10, 25), rng.integers(0, 26, 10),
                        color=(230, 230, 230), fade=True)],
            _FRONT, small, stereo,
        )
        rng = np.random.default_rng(12)
        yield (
            f"near-plane-{tag}",
            [PathBundle(_walks(rng, 16, 40, step=0.08, spread=0.4), fade=True),
             RakeGlyph(np.array([-0.4, -0.3, 0.0]), np.array([0.4, 0.6, 0.1])),
             HeadGlyph(np.array([0.05, 0.2, 0.0]), scale=0.3)],
            _CLOSE, small, stereo,
        )
        rng = np.random.default_rng(13)
        yield (
            f"off-screen-{tag}",
            [PathBundle(_walks(rng, 8, 10, step=6.0, spread=8.0)),
             PointCloud(rng.uniform(-30, 30, (50, 3)), size=5)],
            _FRONT, small, stereo,
        )
        rng = np.random.default_rng(14)
        tris = rng.uniform(-1.5, 1.5, (12, 3, 3))
        yield f"mesh-{tag}", [TriangleMesh(tris)], _OBLIQUE, small, stereo
        yield (
            f"glyphs-{tag}",
            [RakeGlyph(np.array([-0.8, 0, -0.5]), np.array([0.8, 0.3, -0.5])),
             RakeGlyph(np.array([-0.8, 0, 0.5]), np.array([0.8, 0.3, 0.5]), held=True),
             HandGlyph(np.array([0.3, 0.0, 0.0])),
             HeadGlyph(np.array([0.0, 1.0, 0.5]))],
            _FRONT, small, stereo,
        )
    for size in (1, 3, 5):
        rng = np.random.default_rng(20 + size)
        pts = rng.uniform(-1, 1, (120, 3))
        cols = rng.integers(0, 256, (120, 3)).astype(np.float64)
        yield f"points-size{size}", [PointCloud(pts, cols, size)], _FRONT, small, False
    rng = np.random.default_rng(30)
    yield (
        "points-over-lines-anaglyph",
        [PathBundle(_walks(rng, 8, 16)),
         PointCloud(rng.uniform(-1, 1, (60, 3)), (0, 255, 0), size=5)],
        _OBLIQUE, small, True,
    )
    rng = np.random.default_rng(31)
    paths = _walks(rng, 10, 24)
    yield (
        "per-vertex-colour",
        [PathBundle(paths, color=rng.uniform(0, 255, (10, 24, 3)))],
        _OBLIQUE, small, False,
    )
    rng = np.random.default_rng(32)
    yield "streak-480x360", _mixed(rng) + [
        PathBundle(_walks(rng, 20, 60, step=0.05), fade=True)
    ], _OBLIQUE, (480, 360), True


def golden_digests() -> dict[str, str]:
    """Render every golden scene and return ``{name: sha256(fb.color)}``."""
    out = {}
    for name, items, pose, (width, height), stereo in _scenes():
        fb = Framebuffer(width, height)
        camera = Camera(pose)
        scene = Scene(items)
        if stereo:
            render_anaglyph(scene, camera, fb)
        else:
            scene.draw(fb, camera)
        out[name] = hashlib.sha256(fb.color.tobytes()).hexdigest()
    return out


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(golden_digests(), indent=1) + "\n")
    print(f"recorded {len(golden_digests())} digests to {GOLDEN_PATH}")
