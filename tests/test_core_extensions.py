"""Tests for the runtime tool-settings RPC."""

import dataclasses

import numpy as np
import pytest

from repro.core import ToolSettings, WindtunnelClient, WindtunnelServer
from repro.dlib import DlibRemoteError
from repro.flow import MemoryDataset, RigidRotation, sample_on_grid
from repro.grid import cartesian_grid


@pytest.fixture(scope="module")
def server():
    grid = cartesian_grid((12, 12, 6), lo=(-2, -2, 0), hi=(2, 2, 1))
    vel = sample_on_grid(
        RigidRotation(omega=[0, 0, 1.0]), grid, np.arange(4) * 0.2, dtype=np.float64
    )
    srv = WindtunnelServer(
        MemoryDataset(grid, vel, dt=0.2),
        settings=ToolSettings(streamline_steps=30),
        time_fn=lambda: 0.0,
    )
    srv.start()
    yield srv
    srv.stop()


class TestToolSettingsRPC:
    def test_change_applies_to_next_frame(self, server):
        with WindtunnelClient(*server.address) as c:
            rid = c.add_rake([-1, 0, 0.5], [1, 0, 0.5], n_seeds=3)
            before = c.fetch_frame()
            out = c.set_tool_settings(streamline_steps=10)
            assert out["streamline_steps"] == 10
            after = c.fetch_frame()
            n_before = before["paths"][str(rid)]["vertices"].shape[1]
            n_after = after["paths"][str(rid)]["vertices"].shape[1]
            assert n_after == 11 < n_before
            c.remove_rake(rid)
            c.set_tool_settings(streamline_steps=30)

    def test_settings_shared_between_users(self, server):
        with WindtunnelClient(*server.address) as a, WindtunnelClient(
            *server.address
        ) as b:
            a.set_tool_settings(streakline_length=17)
            out = b.set_tool_settings(streamline_dt=0.04)
            assert out["streakline_length"] == 17

    def test_unknown_setting_rejected(self, server):
        with WindtunnelClient(*server.address) as c:
            with pytest.raises(DlibRemoteError):
                c.set_tool_settings(warp_factor=9)

    def test_nonpositive_rejected(self, server):
        with WindtunnelClient(*server.address) as c:
            with pytest.raises(DlibRemoteError):
                c.set_tool_settings(streamline_steps=0)

    def test_rejected_change_set_applies_nothing(self, server):
        """A bad key anywhere rejects the whole call: no setting moves,
        no version bump, no new frame."""
        with WindtunnelClient(*server.address) as c:
            c.fetch_frame()  # the join's frame is out: the store is quiet
            before = dataclasses.replace(server.engine.settings)
            version, seq = server.env.version, server.store.seq
            with pytest.raises(DlibRemoteError, match="streamline_dt"):
                c.set_tool_settings(streamline_steps=7, streamline_dt=-1.0)
            assert server.engine.settings == before
            assert (server.env.version, server.store.seq) == (version, seq)
            out = c.set_tool_settings(streamline_steps=7, streamline_dt=0.04)
            assert (out["streamline_steps"], out["streamline_dt"]) == (7, 0.04)
            assert server.env.version > version
            c.set_tool_settings(
                streamline_steps=before.streamline_steps,
                streamline_dt=before.streamline_dt,
            )

    @pytest.mark.parametrize(
        "bad",
        [
            {"streamline_dt": float("nan")},
            {"streamline_dt": float("inf")},
            {"streamline_steps": float("inf")},
            {"streamline_steps": 7, "streamline_dt": float("nan")},
        ],
    )
    def test_non_finite_rejected_and_applies_nothing(self, server, bad):
        """NaN passes ``value <= 0``: it used to be applied, bump the
        version and turn every user's streamlines to NaN."""
        with WindtunnelClient(*server.address) as c:
            before = dataclasses.replace(server.engine.settings)
            version = server.env.version
            with pytest.raises(DlibRemoteError, match="must be finite"):
                c.set_tool_settings(**bad)
            assert server.engine.settings == before
            assert server.env.version == version


class TestOneSettingCannotWedgeTheServer:
    """One absurd ``wt.set_tool_settings`` used to make every production
    raise ``MemoryError``, retried every poll tick, so every session's
    parked frame timed out (and a respawned worker replayed the value
    from the journal)."""

    def test_streamline_steps_above_the_bound_rejected(self, server):
        with WindtunnelClient(*server.address) as a, WindtunnelClient(
            *server.address
        ) as b:
            rid = a.add_rake([-1, 0, 0.5], [1, 0, 0.5], n_seeds=3)
            with pytest.raises(DlibRemoteError, match="at most"):
                a.set_tool_settings(streamline_steps=10**9)
            assert server.engine.settings.streamline_steps == 30
            frame = b.fetch_frame()
            assert frame["paths"][str(rid)]["vertices"].shape[1] == 31
            assert server.pipeline.alive
            a.remove_rake(rid)

    def test_streakline_length_is_bounded_by_the_window(self, server):
        with WindtunnelClient(*server.address) as a, WindtunnelClient(
            *server.address
        ) as b:
            rid = a.add_rake([-1, 0, 0.5], [1, 0, 0.5], n_seeds=3, kind="streakline")
            a.time_control("pause")
            a.time_control("step", 3)
            try:
                a.set_tool_settings(streakline_length=10**9)
                frame = b.fetch_frame()
                # Four timesteps released a particle each: 0, 1, 2 and 3.
                assert frame["paths"][str(rid)]["vertices"].shape[1] == 4
                assert server.pipeline.alive
            finally:
                a.set_tool_settings(streakline_length=64)
                a.time_control("step", -3)
                a.time_control("resume")
                a.remove_rake(rid)

