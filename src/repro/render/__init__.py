"""Software renderer: the SGI VGX pipeline, reproduced in NumPy.

The workstation's job in the distributed windtunnel is to render the
polyline arrays it receives "from the point of view determined by that
workstation's virtual environment interface" (section 5.1).  We have no
IrisGL, so this package is a small software pipeline: a perspective
camera, a z-buffered point/line rasterizer over a NumPy framebuffer, and
— centrally — the paper's stereo trick (section 3): the left-eye image is
drawn in shades of pure red, the right-eye image in shades of pure blue
under a *writemask* protecting the red bits, with the Z-buffer (but not
the color planes) cleared between eyes.  The framebuffer implements
channel writemasks natively so that procedure is reproduced literally.
"""

from repro.render.framebuffer import Framebuffer, WriteMask
from repro.render.camera import Camera
from repro.render.rasterizer import draw_points, draw_polyline, draw_polylines
from repro.render.scene import (
    HandGlyph,
    HeadGlyph,
    PathBundle,
    PointCloud,
    RakeGlyph,
    Scene,
    TriangleMesh,
)
from repro.render.color import BLUE_RED, GRAYSCALE, HEAT, Colormap, speed_colors
from repro.render.keyframe import frame_scene
from repro.render.stereo import STEREO_LEFT_MASK, STEREO_RIGHT_MASK, render_anaglyph

__all__ = [
    "Framebuffer",
    "WriteMask",
    "Camera",
    "draw_points",
    "draw_polyline",
    "draw_polylines",
    "Scene",
    "PathBundle",
    "PointCloud",
    "RakeGlyph",
    "HandGlyph",
    "HeadGlyph",
    "TriangleMesh",
    "Colormap",
    "GRAYSCALE",
    "HEAT",
    "BLUE_RED",
    "speed_colors",
    "frame_scene",
    "render_anaglyph",
    "STEREO_LEFT_MASK",
    "STEREO_RIGHT_MASK",
]
