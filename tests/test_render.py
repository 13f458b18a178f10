"""Tests for the software renderer: framebuffer, camera, rasterizer, stereo."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    draw_points,
    draw_polyline,
    draw_polylines,
    render_anaglyph,
)
from repro.util import look_at
from tests.render_golden import GOLDEN_PATH, golden_digests


@pytest.fixture()
def fb():
    return Framebuffer(64, 48)


@pytest.fixture()
def cam():
    # Looking down -y at the origin from y=5, z up.
    return Camera(look_at([0, 5, 0], [0, 0, 0], up=[0, 0, 1]))


class TestFramebuffer:
    def test_init(self, fb):
        assert fb.color.shape == (48, 64, 3)
        assert np.all(np.isinf(fb.depth))

    def test_validation(self):
        with pytest.raises(ValueError):
            Framebuffer(0, 10)

    def test_scatter_depth_test(self, fb):
        fb.scatter([5], [5], [2.0], np.array([255, 0, 0], dtype=np.uint8))
        fb.scatter([5], [5], [3.0], np.array([0, 255, 0], dtype=np.uint8))
        np.testing.assert_array_equal(fb.color[5, 5], [255, 0, 0])
        fb.scatter([5], [5], [1.0], np.array([0, 0, 255], dtype=np.uint8))
        np.testing.assert_array_equal(fb.color[5, 5], [0, 0, 255])

    def test_scatter_in_batch_duplicates_resolve_nearest(self, fb):
        n = fb.scatter(
            [7, 7], [7, 7], [5.0, 1.0],
            np.array([[255, 0, 0], [0, 255, 0]], dtype=np.uint8),
        )
        np.testing.assert_array_equal(fb.color[7, 7], [0, 255, 0])
        assert n >= 1

    def test_scatter_out_of_bounds_discarded(self, fb):
        n = fb.scatter([-1, 999], [0, 0], [1.0, 1.0], np.array([255, 255, 255], dtype=np.uint8))
        assert n == 0

    def test_writemask_protects_channels(self, fb):
        fb.scatter([3], [3], [1.0], np.array([200, 0, 0], dtype=np.uint8),
                   WriteMask(red=True, green=False, blue=False))
        fb.clear_depth()
        fb.scatter([3], [3], [1.0], np.array([0, 0, 130], dtype=np.uint8),
                   WriteMask(red=False, green=False, blue=True))
        # Both survive: red from pass 1 untouched by pass 2.
        np.testing.assert_array_equal(fb.color[3, 3], [200, 0, 130])

    def test_clear_honors_mask(self, fb):
        fb.color[...] = 77
        fb.clear((0, 0, 0), WriteMask(red=True, green=False, blue=False))
        assert np.all(fb.color[..., 0] == 0)
        assert np.all(fb.color[..., 1] == 77)

    def test_ppm_roundtrip(self, fb, tmp_path):
        fb.color[10, 20] = [1, 2, 3]
        path = fb.save_ppm(tmp_path / "img.ppm")
        back = Framebuffer.load_ppm(path)
        np.testing.assert_array_equal(back.color, fb.color)

    def test_load_ppm_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P3 garbage")
        with pytest.raises(ValueError):
            Framebuffer.load_ppm(p)

    def test_ppm_roundtrip_keeps_pixel_bytes_that_look_like_whitespace(self, tmp_path):
        fb = Framebuffer(4, 2)
        fb.color[0, 0] = (32, 10, 7)  # space, newline: not part of the header
        back = Framebuffer.load_ppm(fb.save_ppm(tmp_path / "ws.ppm"))
        np.testing.assert_array_equal(back.color, fb.color)

    def test_load_ppm_rejects_short_payload(self, tmp_path):
        path = Framebuffer(4, 2).save_ppm(tmp_path / "short.ppm")
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="needs 24 pixel bytes, file holds 19"):
            Framebuffer.load_ppm(path)

    @given(
        arrays(
            np.uint8,
            st.tuples(st.integers(1, 6), st.integers(1, 6), st.just(3)),
            elements=st.sampled_from([9, 10, 11, 12, 13, 32]) | st.integers(0, 255),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_ppm_roundtrip_any_colors(self, tmp_path_factory, color):
        fb = Framebuffer(color.shape[1], color.shape[0])
        fb.color = color
        path = fb.save_ppm(tmp_path_factory.mktemp("ppm") / "img.ppm")
        np.testing.assert_array_equal(Framebuffer.load_ppm(path).color, color)

    def test_channel_view_readonly(self, fb):
        ch = fb.channel(0)
        with pytest.raises(ValueError):
            ch[0, 0] = 1


class TestCamera:
    def test_center_projection(self, fb, cam):
        xy, depth, valid = cam.project(np.array([[0.0, 0.0, 0.0]]), fb.width, fb.height)
        assert valid[0]
        np.testing.assert_allclose(xy[0], [(fb.width - 1) / 2, (fb.height - 1) / 2])
        np.testing.assert_allclose(depth[0], 5.0)

    def test_behind_camera_invalid(self, fb, cam):
        _, _, valid = cam.project(np.array([[0.0, 10.0, 0.0]]), fb.width, fb.height)
        assert not valid[0]

    def test_up_is_up(self, fb, cam):
        xy, _, _ = cam.project(np.array([[0.0, 0.0, 1.0]]), fb.width, fb.height)
        assert xy[0, 1] < (fb.height - 1) / 2  # +z is up => smaller row

    def test_nearer_is_lower_depth(self, fb, cam):
        _, d, _ = cam.project(
            np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]), fb.width, fb.height
        )
        assert d[0] < d[1]

    def test_eye_offset_shifts_projection(self, fb, cam):
        left = cam.with_eye_offset(-0.1)
        right = cam.with_eye_offset(0.1)
        p = np.array([[0.0, 0.0, 0.0]])
        xl, _, _ = left.project(p, fb.width, fb.height)
        xr, _, _ = right.project(p, fb.width, fb.height)
        assert xl[0, 0] > xr[0, 0]  # parallax

    def test_validation(self):
        with pytest.raises(ValueError):
            Camera(np.eye(3))
        with pytest.raises(ValueError):
            Camera(fov_y=0.0)
        with pytest.raises(ValueError):
            Camera(near=1.0, far=0.5)


class TestRasterizer:
    def test_draw_points_writes_pixels(self, fb, cam):
        n = draw_points(fb, cam, np.array([[0.0, 0.0, 0.0]]), (255, 255, 255))
        assert n == 1
        assert fb.nonblack_pixels() == 1

    def test_point_size(self, fb, cam):
        n = draw_points(fb, cam, np.array([[0.0, 0.0, 0.0]]), size=3)
        assert n == 9

    def test_polyline_connects(self, fb, cam):
        n = draw_polyline(
            fb, cam, np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), (255, 0, 0)
        )
        # A horizontal line through the middle: many contiguous pixels.
        assert n > 10
        row = fb.color[(fb.height - 1) // 2]
        lit = np.nonzero(row[:, 0])[0]
        assert np.all(np.diff(lit) == 1)  # contiguous

    def test_polyline_skips_behind_camera_segments(self, fb, cam):
        n = draw_polyline(
            fb, cam, np.array([[0.0, 10.0, 0.0], [0.0, 11.0, 0.0]])
        )
        assert n == 0

    def test_single_vertex_polyline_is_point(self, fb, cam):
        assert draw_polyline(fb, cam, np.array([[0.0, 0.0, 0.0]])) == 1

    def test_empty_inputs(self, fb, cam):
        assert draw_points(fb, cam, np.zeros((0, 3))) == 0
        assert draw_polylines(fb, cam, np.zeros((0, 5, 3))) == 0

    def test_validation(self, fb, cam):
        with pytest.raises(ValueError):
            draw_points(fb, cam, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            draw_points(fb, cam, np.zeros((2, 3)), size=0)
        with pytest.raises(ValueError):
            draw_polylines(fb, cam, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            draw_polylines(fb, cam, np.zeros((2, 4, 3)), lengths=np.array([9, 1]))

    def test_batch_matches_individual(self, cam):
        rng = np.random.default_rng(0)
        paths = rng.uniform(-1, 1, size=(5, 8, 3))
        fb1, fb2 = Framebuffer(64, 48), Framebuffer(64, 48)
        draw_polylines(fb1, cam, paths, color=(200, 100, 50))
        for p in paths:
            draw_polyline(fb2, cam, p, color=(200, 100, 50))
        np.testing.assert_array_equal(fb1.color, fb2.color)

    def test_lengths_truncate(self, fb, cam):
        paths = np.zeros((1, 5, 3))
        paths[0, :, 0] = np.linspace(-1, 1, 5)
        full = Framebuffer(64, 48)
        draw_polylines(full, cam, paths)
        draw_polylines(fb, cam, paths, lengths=np.array([2]))
        assert fb.nonblack_pixels() < full.nonblack_pixels()

    def test_out_of_range_colors_saturate_for_every_primitive(self, fb, cam):
        draw_points(fb, cam, np.array([[0.0, 0.0, 1.0]]), (300, -20, 255.9))
        draw_polyline(
            fb, cam, np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), (300, -20, 255.9)
        )
        lit = fb.color[np.any(fb.color > 0, axis=-1)]
        assert len(lit) > 10
        assert np.all(lit == [255, 0, 255])

    def test_depth_occlusion_between_lines(self, fb, cam):
        # Near line (y=2 -> depth 3) drawn first, far line (y=-2 -> depth 7)
        # crossing it second: crossing pixel keeps the near color.
        near = np.array([[-1.0, 2.0, 0.0], [1.0, 2.0, 0.0]])
        far = np.array([[0.0, -2.0, -1.0], [0.0, -2.0, 1.0]])
        draw_polyline(fb, cam, near, (255, 0, 0))
        draw_polyline(fb, cam, far, (0, 255, 0))
        # The red row and green column cross at exactly one pixel; red won.
        red_rows = np.nonzero(fb.color[..., 0].sum(axis=1))[0]
        green_cols = np.nonzero(fb.color[..., 1].sum(axis=0))[0]
        assert len(red_rows) >= 1 and len(green_cols) >= 1
        cross = fb.color[red_rows[0], green_cols[0]]
        np.testing.assert_array_equal(cross, [255, 0, 0])


class TestGoldenImages:
    def test_images_match_digests_recorded_before_the_display_list(self):
        """The image is the contract: see tests/render_golden.py."""
        recorded = json.loads(GOLDEN_PATH.read_text())
        assert len(recorded) >= 24
        assert golden_digests() == recorded


class TestSceneAndStereo:
    def test_scene_draws_all_items(self, fb, cam):
        scene = Scene()
        scene.add(PointCloud(np.array([[0.0, 0.0, 0.0]])))
        scene.add(HandGlyph(np.array([0.3, 0.0, 0.0])))
        scene.add(RakeGlyph(np.array([-0.5, 0, -0.5]), np.array([0.5, 0, -0.5])))
        scene.add(HeadGlyph(np.array([0.0, 1.0, 0.5])))
        n = scene.draw(fb, cam)
        assert n > 20

    def test_scene_rejects_non_drawable(self):
        with pytest.raises(TypeError):
            Scene().add(42)

    def test_pathbundle_fade(self, fb, cam):
        paths = np.zeros((1, 10, 3))
        paths[0, :, 0] = np.linspace(-1, 1, 10)
        PathBundle(paths, color=(255, 255, 255), fade=True).draw(
            fb, cam, WriteMask()
        )
        red = fb.color[..., 0].astype(int)
        lit_row = np.argmax(red.sum(axis=1))
        lit = red[lit_row][red[lit_row] > 0]
        assert lit.max() > lit.min()  # intensity ramps along the line

    def test_anaglyph_writemask_separation(self, fb, cam):
        scene = Scene([PointCloud(np.array([[0.0, 0.0, 0.0]]), size=3)])
        left_n, right_n = render_anaglyph(scene, cam, fb, ipd=0.5)
        assert left_n > 0 and right_n > 0
        # Green never written; red and blue both present somewhere.
        assert np.all(fb.color[..., 1] == 0)
        assert fb.color[..., 0].max() > 0
        assert fb.color[..., 2].max() > 0

    def test_anaglyph_parallax(self, fb, cam):
        scene = Scene([PointCloud(np.array([[0.0, 0.0, 0.0]]))])
        render_anaglyph(scene, cam, fb, ipd=0.5)
        red_cols = np.nonzero(fb.color[..., 0].sum(axis=0))[0]
        blue_cols = np.nonzero(fb.color[..., 2].sum(axis=0))[0]
        # Left eye (red) sees the point shifted right of the right eye (blue).
        assert red_cols.mean() > blue_cols.mean()

    def test_anaglyph_zero_ipd_overlaps(self, fb, cam):
        scene = Scene([PointCloud(np.array([[0.0, 0.0, 0.0]]))])
        render_anaglyph(scene, cam, fb, ipd=0.0)
        lit = np.nonzero(np.any(fb.color > 0, axis=-1))
        assert len(lit[0]) == 1  # perfectly superposed -> magenta point
        px = fb.color[lit][0]
        assert px[0] > 0 and px[2] > 0

    def test_anaglyph_validation(self, fb, cam):
        with pytest.raises(ValueError):
            render_anaglyph(Scene(), cam, fb, ipd=-0.1)

    def test_stereo_masks(self):
        assert STEREO_LEFT_MASK.channels() == [0]
        assert STEREO_RIGHT_MASK.channels() == [2]


class TestTriangleMesh:
    def test_empty_mesh_draws_nothing(self):
        fb = Framebuffer(32, 32)
        cam = Camera()
        assert TriangleMesh(np.empty((0, 3, 3))).draw(fb, cam, None) == 0

    def test_mesh_validation(self):
        fb = Framebuffer(32, 32)
        with pytest.raises(ValueError):
            TriangleMesh(np.zeros((2, 3))).draw(fb, Camera(), None)
