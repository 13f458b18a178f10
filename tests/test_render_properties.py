"""Property-based tests for the renderer's core invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import WindtunnelClient, WindtunnelServer, tapered_cylinder_dataset
from repro.render import (
    Camera,
    Framebuffer,
    HandGlyph,
    HeadGlyph,
    PathBundle,
    PointCloud,
    RakeGlyph,
    STEREO_LEFT_MASK,
    STEREO_RIGHT_MASK,
    Scene,
    TriangleMesh,
    WriteMask,
    render_anaglyph,
)
from repro.util import compose, look_at, rotation_z, translation

finite3 = st.tuples(
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
).map(np.array)

samples = st.lists(
    st.tuples(
        st.integers(-5, 70),  # x (may be out of bounds)
        st.integers(-5, 50),  # y
        st.floats(0.1, 100.0, allow_nan=False),  # depth
        st.tuples(*[st.integers(0, 255)] * 3),  # color
    ),
    min_size=1,
    max_size=40,
)


class TestScatterProperties:
    @given(samples)
    @settings(max_examples=60)
    def test_writemask_never_touches_masked_channels(self, pts):
        fb = Framebuffer(64, 48)
        fb.color[..., 1] = 123  # sentinel in the green plane
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        zs = np.array([p[2] for p in pts])
        cols = np.array([p[3] for p in pts], dtype=np.uint8)
        fb.scatter(xs, ys, zs, cols, WriteMask(red=True, green=False, blue=True))
        assert np.all(fb.color[..., 1] == 123)

    @given(samples)
    @settings(max_examples=60)
    def test_depth_buffer_never_increases(self, pts):
        fb = Framebuffer(64, 48)
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        zs = np.array([p[2] for p in pts])
        cols = np.array([p[3] for p in pts], dtype=np.uint8)
        fb.scatter(xs, ys, zs, cols)
        before = fb.depth.copy()
        fb.scatter(xs, ys, zs + 1.0, cols)  # strictly farther samples
        assert np.all(fb.depth <= before + 1e-6)

    @given(samples)
    @settings(max_examples=60)
    def test_written_pixel_holds_nearest_sample_color(self, pts):
        fb = Framebuffer(64, 48)
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        zs = np.array([p[2] for p in pts], dtype=np.float32)
        cols = np.array([p[3] for p in pts], dtype=np.uint8)
        fb.scatter(xs, ys, zs, cols)
        inb = (xs >= 0) & (xs < 64) & (ys >= 0) & (ys < 48)
        for x, y in {(int(a), int(b)) for a, b in zip(xs[inb], ys[inb])}:
            here = inb & (xs == x) & (ys == y)
            zmin = zs[here].min()
            assert fb.depth[y, x] == pytest.approx(zmin)
            winners = here & (zs == zmin)
            candidate_colors = cols[winners]
            assert any(
                np.array_equal(fb.color[y, x], c) for c in candidate_colors
            )


class TestProjectionProperties:
    @given(finite3)
    @settings(max_examples=80)
    def test_depth_equals_view_distance(self, p):
        cam = Camera(look_at([0, 20, 0], [0, 0, 0], up=[0, 0, 1]))
        _, depth, valid = cam.project(p[None, :], 64, 48)
        expected = 20.0 - p[1]
        if cam.near <= expected <= cam.far:
            assert valid[0]
            assert depth[0] == pytest.approx(expected, abs=1e-9)
        else:
            assert not valid[0]

    @given(finite3, st.floats(-np.pi, np.pi, allow_nan=False))
    @settings(max_examples=60)
    def test_rigid_motion_of_camera_and_scene_is_invariant(self, p, angle):
        """Moving camera and world together leaves the projection fixed."""
        assume(abs(p[1]) < 9.0)
        base = look_at([0, 15, 0], [0, 0, 0], up=[0, 0, 1])
        cam1 = Camera(base)
        xy1, d1, v1 = cam1.project(p[None, :], 64, 48)
        m = compose(translation([3.0, -2.0, 1.0]), rotation_z(angle))
        cam2 = Camera(m @ base)
        p2 = (m[:3, :3] @ p) + m[:3, 3]
        xy2, d2, v2 = cam2.project(p2[None, :], 64, 48)
        assert v1[0] == v2[0]
        if v1[0]:
            np.testing.assert_allclose(xy1, xy2, atol=1e-6)
            np.testing.assert_allclose(d1, d2, atol=1e-9)

    @given(st.floats(0.01, 0.4, allow_nan=False))
    @settings(max_examples=40)
    def test_stereo_disparity_sign_and_monotonicity(self, ipd):
        """Larger IPD gives larger horizontal disparity, never negative."""
        cam = Camera(look_at([0, 10, 0], [0, 0, 0], up=[0, 0, 1]))
        p = np.array([[0.0, 0.0, 0.0]])
        xl, _, _ = cam.with_eye_offset(-ipd / 2).project(p, 640, 480)
        xr, _, _ = cam.with_eye_offset(+ipd / 2).project(p, 640, 480)
        disparity = xl[0, 0] - xr[0, 0]
        assert disparity > 0
        xl2, _, _ = cam.with_eye_offset(-ipd).project(p, 640, 480)
        xr2, _, _ = cam.with_eye_offset(+ipd).project(p, 640, 480)
        assert (xl2[0, 0] - xr2[0, 0]) > disparity


def _item(kind: str, seed: int):
    """One drawable on a coarse lattice, so items overlap pixel for pixel
    at equal depth and the last-writer tie-break decides the image."""
    rng = np.random.default_rng(seed)
    color = tuple(int(c) for c in rng.integers(40, 256, 3))

    def lattice(*shape):
        return rng.integers(-4, 5, size=shape + (3,)) * 0.25

    if kind == "bundle":
        return PathBundle(lattice(3, 5), rng.integers(0, 6, 3), color, fade=bool(seed % 2))
    if kind == "points":
        return PointCloud(lattice(6), color, size=int(rng.choice([1, 3, 5])))
    if kind == "rake":
        return RakeGlyph(lattice(), lattice(), color, held=bool(seed % 2))
    if kind == "hand":
        return HandGlyph(lattice(), scale=0.25, color=color)
    if kind == "head":
        return HeadGlyph(lattice(), scale=0.25, color=color)
    return TriangleMesh(lattice(2, 3), color)


items = st.lists(
    st.tuples(
        st.sampled_from(["bundle", "points", "rake", "hand", "head", "mesh"]),
        st.integers(0, 2**16),
    ).map(lambda ks: _item(*ks)),
    max_size=6,
)
# Straight down an axis (lattice points share exact depths) or close and
# oblique (the near plane culls segments in the middle of polylines).
cameras = st.sampled_from(
    [
        Camera(look_at([0, 5, 0], [0, 0, 0], up=[0, 0, 1])),
        Camera(look_at([0.6, 0.7, 0.3], [0, 0, 0], up=[0, 0, 1])),
    ]
)


class TestDisplayListProperties:
    @given(items, cameras)
    @settings(max_examples=60, deadline=None)
    def test_batching_preserves_z_order_and_last_writer_ties(self, items, cam):
        batched, one_by_one = Framebuffer(64, 48), Framebuffer(64, 48)
        Scene(items).draw(batched, cam)
        for item in items:
            Scene([item]).draw(one_by_one, cam)
        np.testing.assert_array_equal(batched.color, one_by_one.color)
        np.testing.assert_array_equal(batched.depth, one_by_one.depth)

    @given(items, cameras, st.floats(0.0, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_anaglyph_is_section_3_step_for_step(self, items, cam, ipd):
        fb, by_hand = Framebuffer(64, 48), Framebuffer(64, 48)
        fb.color[...] = 99  # the full clear is part of the procedure
        n = render_anaglyph(Scene(items), cam, fb, ipd)
        left = Scene(items).draw(by_hand, cam.with_eye_offset(-ipd / 2), STEREO_LEFT_MASK)
        by_hand.clear_depth()
        right = Scene(items).draw(by_hand, cam.with_eye_offset(ipd / 2), STEREO_RIGHT_MASK)
        assert n == (left, right)
        np.testing.assert_array_equal(fb.color, by_hand.color)
        np.testing.assert_array_equal(fb.depth, by_hand.depth)


@pytest.fixture(scope="module")
def client():
    dataset = tapered_cylinder_dataset(shape=(16, 16, 8), n_timesteps=2)
    with WindtunnelServer(dataset) as server:
        with WindtunnelClient(*server.address, width=64, height=48) as c:
            yield c


def _state(seed: int, me: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "paths": {
            "1": {"kind": "streamline", "lengths": rng.integers(0, 9, 4),
                  "vertices": rng.uniform(-1, 1, (4, 8, 3)).astype(np.float32)},
            "2": {"kind": "streakline", "lengths": np.full(3, 6),
                  "vertices": rng.uniform(-1, 1, (3, 6, 3)).astype(np.float32)},
        },
        "env": {
            "rakes": {"1": {"end_a": rng.uniform(-1, 1, 3), "end_b": rng.uniform(-1, 1, 3),
                            "owner": me if seed % 2 else None}},
            "users": {str(me): {"hand_position": rng.uniform(-1, 1, 3)},
                      str(me + 1): {"head_position": rng.uniform(-1, 1, 3)}},
        },
    }


def _pose(angle: float, height: float) -> np.ndarray:
    eye = [4 * np.sin(angle), 4 * np.cos(angle), height]
    return look_at(eye, [0, 0, 0], up=[0, 0, 1])


class TestRetainedSceneProperties:
    """`WindtunnelClient.render` keeps its scene while the state object is
    the same; what it shows must never depend on that."""

    def _fresh(self, client, state, pose):
        fb = Framebuffer(client.fb.width, client.fb.height)
        render_anaglyph(client.build_scene(state), Camera(pose, fov_y=client.fov_y),
                        fb, client.ipd)
        return fb.color

    @given(st.integers(0, 2**16), st.integers(0, 2**16),
           st.floats(-3, 3), st.floats(-3, 3), st.floats(-2, 2))
    @settings(max_examples=25, deadline=None)
    def test_redraw_tracks_state_and_head_pose(self, client, s1, s2, a1, a2, height):
        first, second = _state(s1, client.client_id), _state(s2, client.client_id)
        client.latest_state = first
        client.render(_pose(a1, height))
        # Head moves, state object unchanged: redrawn from the retained list.
        moved = client.render(_pose(a2, height)).color
        np.testing.assert_array_equal(moved, self._fresh(client, first, _pose(a2, height)))
        # A new state replaces it: the next redraw shows the new one.
        client.latest_state = second
        shown = client.render(_pose(a2, height)).color
        np.testing.assert_array_equal(shown, self._fresh(client, second, _pose(a2, height)))
