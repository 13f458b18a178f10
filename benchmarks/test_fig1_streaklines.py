"""Figure 1 — streaklines of the tapered-cylinder flow rendered as smoke.

The paper's figure shows streaklines released behind the tapered cylinder
curling into the shed vortices.  We regenerate it: a streakline rake just
downstream of the body, released through the unsteady flow, rendered with
the smoke fade in writemask anaglyph stereo, and written to
``benchmarks/output/fig1_streaklines.ppm``.
"""

import itertools

import numpy as np
import pytest

from repro.core import ComputeEngine, ToolSettings
from repro.render import Camera, Framebuffer, PathBundle, Scene, render_anaglyph
from repro.tracers import Rake
from repro.util import look_at


@pytest.fixture(scope="module")
def smoke_setup(cylinder_dataset):
    engine = ComputeEngine(
        cylinder_dataset, ToolSettings(streakline_length=24)
    )
    rake = Rake(
        [1.2, -1.5, 1.0], [1.2, 1.5, 3.0], n_seeds=12, kind="streakline", rake_id=1
    )
    return engine, rake


def render_smoke(result, fb):
    head = look_at([2.0, -9.0, 2.0], [3.0, 0.0, 2.0], up=[0, 0, 1])
    scene = Scene(
        [PathBundle(result.physical().astype(np.float64), result.lengths, fade=True)]
    )
    render_anaglyph(scene, Camera(head), fb)


def advance_and_render(engine, rake, dataset, fb, n_frames=12, start=0):
    result = None
    for f in range(n_frames):
        t = (start + f) % dataset.n_timesteps
        result = engine.compute_rake(rake, t)
    render_smoke(result, fb)
    return result


def test_fig1_smoke_image(smoke_setup, cylinder_dataset, output_dir, record, benchmark):
    engine, rake = smoke_setup
    fb = Framebuffer(480, 360)
    clock = itertools.count(cylinder_dataset.n_timesteps)

    def frame():
        return advance_and_render(engine, rake, cylinder_dataset, fb, n_frames=1,
                                  start=next(clock))

    # Play 0 -> 15, then benchmark the next timestep's compute + render
    # (one advance, or a rebuild from timestep 0 where the clock wraps).
    result = advance_and_render(engine, rake, cylinder_dataset, fb, n_frames=16)
    benchmark(frame)
    # The saved image is the frame at timestep 15: the same frame however
    # the clock reached it, and whatever rounds the benchmark ran.
    render_smoke(result, fb)
    path = fb.save_ppm(output_dir / "fig1_streaklines.ppm")

    # The image must contain actual smoke: red and blue (stereo) pixels,
    # a meaningful pixel count, and multi-vertex filaments.
    assert fb.color[..., 0].max() > 0 and fb.color[..., 2].max() > 0
    assert fb.nonblack_pixels() > 200
    assert result.lengths.max() >= 8
    record(
        "fig1_streaklines",
        [
            f"image: {path}",
            f"seeds: {result.n_paths}, live filament lengths: "
            f"{result.lengths.tolist()}",
            f"total particles: {result.n_points} "
            f"({result.nbytes_wire:,} wire bytes)",
            f"lit pixels: {fb.nonblack_pixels()}",
        ],
    )


def test_fig1_streaklines_respond_to_flow(smoke_setup, cylinder_dataset, benchmark):
    """The filaments bend — they are not straight emission lines."""
    engine, rake = smoke_setup

    def compute():
        return engine.compute_rake(rake, cylinder_dataset.n_timesteps - 1)

    result = benchmark(compute)
    polys = [p for p in result.physical_polylines() if len(p) >= 6]
    assert polys, "need filaments long enough to measure curvature"
    curved = 0
    for p in polys:
        chord = np.linalg.norm(p[-1] - p[0])
        arc = np.linalg.norm(np.diff(p, axis=0), axis=1).sum()
        if arc > 1.02 * chord:
            curved += 1
    assert curved >= len(polys) // 2
