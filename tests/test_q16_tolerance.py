"""The tolerance q16 quantizes to, stated as two oracles.

``quantize_points`` picks each axis's step from an error budget
(``Q16_ERROR_BUDGET``), not from a bit count.  These tests say what that
budget may cost, on the frames the end-to-end workloads draw: the
8 rakes × 16 seeds of ``drag`` and ``replay_paper`` on the 64×64×32
tapered cylinder, scripted from seeds 1992 and 7 with the same draws as
``benchmarks/e2e/workloads.py``.

* **The pixel oracle.** At the client's 320×240, default field of view
  and writemask stereo, the frame decoded from q16 renders within
  :data:`MAX_DIFFERING` of the float32 frame's lit pixels per eye, and
  no vertex projects more than one pixel away.
* **The tool-error ratio.** Each rake's ``quantization_error_bound`` is
  at most :data:`MAX_ERROR_RATIO` of the error its own streamlines
  already carry, measured against an RK4 integration of the analytic
  :class:`TaperedCylinderFlow` at half the production step.
"""

import numpy as np
import pytest

from repro import ComputeEngine, Rake, tapered_cylinder_dataset
from repro.core.engine import ToolSettings
from repro.dlib.protocol import (
    dequantize_points,
    quantization_error_bound,
    quantize_points,
)
from repro.flow.taperedcylinder import TaperedCylinderFlow
from repro.render.camera import Camera
from repro.render.framebuffer import Framebuffer
from repro.render.keyframe import frame_scene
from repro.render.stereo import DEFAULT_IPD, render_anaglyph

#: Differing pixels per eye, as a share of the float32 frame's lit ones.
#: A vertex moves at most 0.03 px on screen at these depths, but
#: the rasterizer samples a segment ``ceil(pixel length)`` times, so a
#: shift that carries a segment across a whole pixel of length re-spaces
#: all its samples and moves some to the neighbouring pixel.  Measured:
#: 0.64–1.20 % at the budget's step, 0.03–0.08 % at 16 bits, and 2.7–4.4 %
#: at four times the budget's step.  2 % lets one line pixel in fifty
#: step sideways by one, and fails a step four times the budget's.
MAX_DIFFERING = 0.02

#: Quantization error allowed, as a share of a rake's streamline error:
#: its least wrong path's maximum deviation from the analytic flow
#: (4.3–8.6e-3 here; the ratio reads ≤ 0.23 at the budget's step).
MAX_ERROR_RATIO = 0.25

WIDTH, HEIGHT = 320, 240  # the client's defaults
SHAPE, TIMESTEPS, RAKES, SEEDS = (64, 64, 32), 12, 8, 16

#: (seed, script stream, timestep): ``drag`` (stream 1) holds timestep 0,
#: ``replay_paper`` (stream 2) steps through the loop.
SCRIPTS = [(1992, 1, 0), (7, 1, 0), (1992, 2, 5), (7, 2, 11)]


def _script(seed: int, stream: int) -> tuple[list, list]:
    """The workloads' rakes and eye: spanwise rakes marching downstream,
    each jittered by the seed, and an eye at about [±0.5, ±0.5, 10]."""
    rng = np.random.default_rng([seed, stream])
    rakes = []
    for i in range(RAKES):
        x = -9.0 + 0.7 * i + rng.uniform(-0.2, 0.2)
        z = 0.5 + 0.4 * i + rng.uniform(-0.2, 0.2) * 0.5
        h = 2.5 + rng.uniform(-0.2, 0.2)
        rakes.append(([x, -h, z], [x, h, z]))
    eye = [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), 10.0]
    return rakes, eye


@pytest.fixture(scope="module")
def frames():
    """``[(eye, flow time, {rid: (vertices, lengths)})]`` per script."""
    dataset = tapered_cylinder_dataset(shape=SHAPE, n_timesteps=TIMESTEPS)
    engine = ComputeEngine(dataset)
    out = []
    for seed, stream, timestep in SCRIPTS:
        rakes, eye = _script(seed, stream)
        built = {
            rid: Rake(a, b, n_seeds=SEEDS, rake_id=rid)
            for rid, (a, b) in enumerate(rakes, start=1)
        }
        results = engine.compute_rakes(built, timestep)
        out.append((eye, timestep * dataset.dt,
                    {rid: r.wire_arrays() for rid, r in results.items()}))
    return out


def _head(eye) -> Camera:
    pose = np.eye(4)  # the camera looks down its -Z axis
    pose[:3, 3] = eye
    return Camera(pose, fov_y=np.pi / 2)


def _render(paths: dict, eye) -> list:
    """The left (red) and right (blue) eye images of ``paths``."""
    fb = Framebuffer(WIDTH, HEIGHT)
    scene = frame_scene({
        rid: {"kind": "streamline", "vertices": v, "lengths": lengths}
        for rid, (v, lengths) in paths.items()
    })
    render_anaglyph(scene, _head(eye), fb)
    return [fb.color[..., 0].copy(), fb.color[..., 2].copy()]


@pytest.mark.parametrize("index", range(len(SCRIPTS)))
def test_q16_frame_renders_like_the_float32_frame(frames, index):
    eye, _time, paths = frames[index]
    decoded = {
        rid: (dequantize_points(quantize_points(v)), lengths)
        for rid, (v, lengths) in paths.items()
    }
    for exact, approx in zip(_render(paths, eye), _render(decoded, eye)):
        lit = int((exact > 0).sum())
        differing = int((exact != approx).sum())
        assert lit > 5000, lit  # the rakes are in view
        assert differing <= MAX_DIFFERING * lit, (differing, lit)
    for dx in (-DEFAULT_IPD / 2, DEFAULT_IPD / 2):
        camera = _head(eye).with_eye_offset(dx)
        for rid, (v, _lengths) in paths.items():
            a, _, valid = camera.project(v.reshape(-1, 3), WIDTH, HEIGHT)
            b, _, _ = camera.project(decoded[rid][0].reshape(-1, 3), WIDTH, HEIGHT)
            assert valid.all()
            assert np.abs(a - b).max() <= 1.0


def _rk4(flow, start: np.ndarray, time: float, n: int, dt: float, sub: int) -> np.ndarray:
    """``(S, n, 3)`` analytic streamlines from ``start`` at ``dt / sub``."""
    x, h, out = start.astype(np.float64), dt / sub, [start.astype(np.float64)]
    for _ in range(n - 1):
        for _ in range(sub):
            k1 = flow.sample(x, time)
            k2 = flow.sample(x + h / 2 * k1, time)
            k3 = flow.sample(x + h / 2 * k2, time)
            k4 = flow.sample(x + h * k3, time)
            x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(x)
    return np.stack(out, axis=1)


@pytest.mark.parametrize("index", range(len(SCRIPTS)))
def test_q16_error_is_a_fraction_of_the_streamlines_own(frames, index):
    _eye, time, paths = frames[index]
    settings = ToolSettings()
    flow = TaperedCylinderFlow()  # the dataset's flow, at its defaults
    vertices = np.concatenate([v for v, _ in paths.values()])
    lengths = np.concatenate([lengths for _, lengths in paths.values()])
    # RK4 at half the production step is within 2e-5 of RK4 at a
    # quarter of it here, against streamline errors of a few 1e-3.
    reference = _rk4(flow, vertices[:, 0], time, vertices.shape[1],
                     settings.streamline_dt, 2)
    assert (lengths == settings.streamline_steps + 1).all()  # no path ends early
    per_path = np.abs(vertices - reference).max(axis=(1, 2))
    for k, (v, _lengths) in enumerate(paths.values()):
        tool_error = per_path[k * SEEDS:(k + 1) * SEEDS].min()
        bound = quantization_error_bound(quantize_points(v))
        assert bound <= MAX_ERROR_RATIO * tool_error, (k, bound, tool_error)
