"""End-to-end client/server integration over real sockets.

These tests exercise the full distributed cycle of section 5.2: input
devices -> commands over the network -> shared environment update ->
visualization compute -> path arrays back -> head-tracked stereo render.
"""

import numpy as np
import pytest

from repro.core import ToolSettings, WindtunnelClient, WindtunnelServer
from repro.dlib import DlibRemoteError
from repro.flow import MemoryDataset, RigidRotation, UniformFlow, sample_on_grid
from repro.grid import cartesian_grid
from repro.util import look_at


def make_dataset(n_times=8):
    grid = cartesian_grid((9, 9, 5), lo=(0, 0, 0), hi=(8, 8, 4))
    field = RigidRotation(omega=[0, 0, 0.5], center=[4, 4, 0]) + UniformFlow(
        [0.1, 0, 0]
    )
    vel = sample_on_grid(field, grid, np.arange(n_times) * 0.2, dtype=np.float64)
    return MemoryDataset(grid, vel, dt=0.2)


@pytest.fixture(scope="module")
def dataset():
    return make_dataset()


@pytest.fixture()
def server(dataset):
    clock = {"now": 0.0}
    srv = WindtunnelServer(
        dataset,
        settings=ToolSettings(streamline_steps=20, streakline_length=8),
        time_speed=1.0,
        time_fn=lambda: clock["now"],
    )
    srv._test_clock = clock  # let tests advance server time deterministically
    srv.start()
    yield srv
    srv.stop()


HEAD = look_at([4.0, -6.0, 2.0], [4.0, 4.0, 2.0], up=[0, 0, 1])


class TestJoinLeave:
    def test_join_returns_dataset_info(self, server):
        with WindtunnelClient(*server.address, name="alice") as c:
            assert c.dataset_info["n_timesteps"] == 8
            assert c.dataset_info["grid_shape"] == [9, 9, 5]
            assert c.client_id >= 1

    def test_leave_removes_user(self, server):
        c = WindtunnelClient(*server.address)
        cid = c.client_id
        c.close()
        assert cid not in server.env.users


class TestFullCycle:
    def test_frame_renders_paths(self, server):
        with WindtunnelClient(*server.address, width=160, height=120) as c:
            c.add_rake([2, 2, 2], [2, 6, 2], n_seeds=5, kind="streamline")
            fb = c.frame(HEAD, hand_position=[4, 4, 2])
            assert fb.nonblack_pixels() > 20
            # Stereo: red and blue present, green absent.
            assert fb.color[..., 0].max() > 0
            assert fb.color[..., 2].max() > 0
            assert fb.color[..., 1].max() == 0

    def test_mono_rendering(self, server):
        with WindtunnelClient(
            *server.address, width=160, height=120, stereo=False
        ) as c:
            c.add_rake([2, 2, 2], [2, 6, 2], n_seeds=5)
            fb = c.frame(HEAD, hand_position=[4, 4, 2])
            assert fb.nonblack_pixels() > 0

    def test_frame_timer_records_stages(self, server):
        with WindtunnelClient(*server.address, width=80, height=60) as c:
            c.add_rake([2, 2, 2], [2, 6, 2], n_seeds=3)
            c.frame(HEAD, [4, 4, 2])
            assert c.timer.frames.count == 1
            assert set(c.timer.stages) == {"send_input", "fetch", "render"}

    def test_wire_paths_are_float32(self, server):
        with WindtunnelClient(*server.address) as c:
            c.add_rake([2, 2, 2], [2, 6, 2], n_seeds=4)
            state = c.fetch_frame()
            for path in state["paths"].values():
                assert path["vertices"].dtype == np.float32

    def test_grab_and_drag_over_network(self, server):
        with WindtunnelClient(*server.address) as c:
            rid = c.add_rake([2.0, 2.0, 2.0], [2.0, 6.0, 2.0], n_seeds=3)
            out = c.send_input([4, -6, 2], [2.0, 2.0, 2.0], "fist")
            assert out["holding"] is not None
            c.send_input([4, -6, 2], [3.0, 2.5, 2.0], "fist")
            rake = server.env.rakes[rid]
            np.testing.assert_allclose(rake.end_a, [3.0, 2.5, 2.0])
            c.send_input([4, -6, 2], [3.0, 2.5, 2.0], "open")
            assert server.env.rake_owner(rid) is None

    def test_remove_rake(self, server):
        with WindtunnelClient(*server.address) as c:
            rid = c.add_rake([2, 2, 2], [2, 6, 2])
            c.remove_rake(rid)
            assert rid not in server.env.rakes

    def test_time_control_over_network(self, server):
        with WindtunnelClient(*server.address) as c:
            snap = c.time_control("scrub", 3.0)
            assert snap["timestep"] == 3
            snap = c.time_control("pause")
            assert snap["playing"] is False
            snap = c.time_control("resume")
            assert snap["playing"] is True

    def test_invalid_time_op(self, server):
        with WindtunnelClient(*server.address) as c:
            with pytest.raises(DlibRemoteError):
                c.time_control("warp", 1.0)


class TestSharedVisualization:
    def test_second_client_reuses_computation(self, server):
        """One compute per (version, timestep), shared by all clients."""
        with WindtunnelClient(*server.address) as a, WindtunnelClient(
            *server.address
        ) as b:
            a.add_rake([2, 2, 2], [2, 6, 2], n_seeds=4)
            before = server.frames_computed
            sa = a.fetch_frame()
            sb = b.fetch_frame()
            # b's env snapshot differs (it has two users) but paths are the
            # identical shared arrays.
            np.testing.assert_array_equal(
                list(sa["paths"].values())[0]["vertices"],
                list(sb["paths"].values())[0]["vertices"],
            )
            assert not sa["cached"] or before > 0
            assert sb["cached"]

    def test_users_see_each_other(self, server):
        with WindtunnelClient(*server.address, name="a") as a, WindtunnelClient(
            *server.address, name="b"
        ) as b:
            a.send_input([1, 1, 1], [0, 0, 0], "open")
            state = b.fetch_frame()
            others = [
                u for uid, u in state["env"]["users"].items()
                if int(uid) != b.client_id
            ]
            assert any(np.allclose(u["head_position"], [1, 1, 1]) for u in others)

    def test_fcfs_over_network(self, server):
        with WindtunnelClient(*server.address) as a, WindtunnelClient(
            *server.address
        ) as b:
            rid = a.add_rake([2.0, 2.0, 2.0], [2.0, 6.0, 2.0])
            ra = a.send_input([0, 0, 0], [2.0, 2.0, 2.0], "fist")
            rb = b.send_input([0, 0, 0], [2.0, 2.0, 2.0], "fist")
            assert ra["holding"] is not None
            assert rb["holding"] is None
            assert server.env.rake_owner(rid) == a.client_id

    def test_cannot_remove_rake_held_by_other(self, server):
        with WindtunnelClient(*server.address) as a, WindtunnelClient(
            *server.address
        ) as b:
            rid = a.add_rake([2.0, 2.0, 2.0], [2.0, 6.0, 2.0])
            a.send_input([0, 0, 0], [2.0, 2.0, 2.0], "fist")
            with pytest.raises(DlibRemoteError):
                b.remove_rake(rid)


class TestTimeAdvance:
    def test_clock_advances_visualization(self, server):
        with WindtunnelClient(*server.address) as c:
            c.add_rake([2, 2, 2], [2, 6, 2], n_seeds=3, kind="streakline")
            s0 = c.fetch_frame()
            server._test_clock["now"] = 1.0  # one timestep later (speed=1)
            s1 = c.fetch_frame()
            assert s1["timestep"] == s0["timestep"] + 1
            # Streakline grew by one generation.
            p0 = list(s0["paths"].values())[0]["vertices"]
            p1 = list(s1["paths"].values())[0]["vertices"]
            assert p1.shape[1] == p0.shape[1] + 1


class TestNetworkLoop:
    def test_background_fetch_decouples_render(self, server):
        """Figure 9: rendering proceeds from the latest fetched state."""
        from tests import wait_until

        with WindtunnelClient(*server.address, width=80, height=60) as c:
            c.add_rake([2, 2, 2], [2, 6, 2], n_seeds=3)
            c.start_network_loop(interval=0.01)
            wait_until(lambda: c.latest_state is not None)
            # Render many head-tracked frames without any further RPC.
            served_before = server.frames_served
            for yaw in np.linspace(0, 0.2, 5):
                pose = look_at(
                    [4 + yaw, -6, 2], [4, 4, 2], up=[0, 0, 1]
                )
                fb = c.render(pose)
            assert fb.nonblack_pixels() > 0
            c.stop_network_loop()

    def test_double_start_rejected(self, server):
        with WindtunnelClient(*server.address) as c:
            c.start_network_loop()
            with pytest.raises(RuntimeError):
                c.start_network_loop()
            c.stop_network_loop()
