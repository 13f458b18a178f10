"""Beyond 1992: speed-colored streamlines.

For the conventional-screen mode: each streamline vertex is colored by
the local flow speed, so the picture shows where the wake is fast (hot)
and where it stalls (cold).

Run:  python examples/advanced_tools.py [output-dir]
"""

import sys
from pathlib import Path

import numpy as np

from repro import tapered_cylinder_dataset
from repro.render import HEAT, Camera, Framebuffer, speed_colors
from repro.render.rasterizer import draw_polylines
from repro.tracers import TracerResult, integrate_steady
from repro.util import look_at

OUT = Path(
    sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent / "output"
)
OUT.mkdir(exist_ok=True)

dataset = tapered_cylinder_dataset(shape=(32, 32, 16), n_timesteps=8, dt=0.25)
seeds = np.stack(
    [np.full(10, 4.0), np.linspace(4, 28, 10), np.full(10, 8.0)], axis=1
)
res = TracerResult(
    *integrate_steady(dataset.grid_velocity(0), seeds, 150, 0.08), dataset.grid
)
paths = res.physical().astype(np.float64)
colors = speed_colors(paths, res.lengths, colormap=HEAT)
fb = Framebuffer(560, 420)
cam = Camera(look_at([2.0, -10.0, 3.0], [3.0, 0.0, 2.0], up=[0, 0, 1]))
draw_polylines(fb, cam, paths, res.lengths, colors.astype(np.float64))
fb.save_ppm(OUT / "advanced_speed_colored.ppm")
print("wrote advanced_speed_colored.ppm (hot = fast)")
