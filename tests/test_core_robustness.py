"""Robustness and integration edge cases for the core system."""

import socket
import threading
import time

import numpy as np
import pytest

from repro.core import ToolSettings, WindtunnelClient, WindtunnelServer
from repro.dlib import DlibRemoteError, RetryPolicy
from repro.dlib.transport import connect_tcp
from repro.flow import MemoryDataset, RigidRotation, sample_on_grid
from repro.grid import cartesian_grid
from repro.netsim import FaultPlan, FaultyChannel, NetworkModel, ThrottledChannel
from repro.util import look_at
from tests import wait_until

HEAD = look_at([4.0, -6.0, 2.0], [4.0, 4.0, 2.0], up=[0, 0, 1])


def make_dataset(n_times=4):
    grid = cartesian_grid((9, 9, 5), lo=(0, 0, 0), hi=(8, 8, 4))
    vel = sample_on_grid(
        RigidRotation(omega=[0, 0, 0.5], center=[4, 4, 0]), grid,
        np.arange(n_times) * 0.2, dtype=np.float64,
    )
    return MemoryDataset(grid, vel, dt=0.2)


@pytest.fixture(scope="module")
def server():
    srv = WindtunnelServer(
        make_dataset(), settings=ToolSettings(streamline_steps=15),
        time_fn=lambda: 0.0,
    )
    srv.start()
    yield srv
    srv.stop()


class TestInvalidRequests:
    def test_update_unknown_client(self, server):
        with WindtunnelClient(*server.address) as c:
            with pytest.raises(DlibRemoteError):
                c._rpc.call("wt.update", 9999, [0, 0, 0], [0, 0, 0], "open")

    def test_add_rake_unknown_client(self, server):
        with WindtunnelClient(*server.address) as c:
            with pytest.raises(DlibRemoteError):
                c._rpc.call("wt.add_rake", 9999, {
                    "end_a": [0, 0, 0], "end_b": [1, 0, 0],
                    "n_seeds": 3, "kind": "streamline", "rake_id": None,
                })

    def test_bad_rake_kind_rejected_client_side(self, server):
        """Rake validation fires locally, before any bytes hit the wire."""
        with WindtunnelClient(*server.address) as c:
            with pytest.raises(ValueError):
                c.add_rake([0, 0, 0], [1, 0, 0], kind="isosurface")

    def test_remove_unknown_rake(self, server):
        with WindtunnelClient(*server.address) as c:
            with pytest.raises(DlibRemoteError):
                c.remove_rake(424242)

    def test_leave_twice(self, server):
        c = WindtunnelClient(*server.address)
        c.close()
        # Leaving is idempotent: a departed (or reaped) id leaves again as
        # a no-op, and the server keeps serving.
        with WindtunnelClient(*server.address) as c2:
            c2._rpc.call("wt.leave", c.client_id)
            assert c2.fetch_frame() is not None


class TestRakeOutsideDomain:
    def test_fully_outside_rake_yields_empty_paths(self, server):
        with WindtunnelClient(*server.address) as c:
            rid = c.add_rake([50, 50, 50], [60, 60, 60], n_seeds=4)
            try:
                state = c.fetch_frame()
                path = state["paths"][str(rid)]
                assert path["vertices"].shape[0] == 0
                # And it still renders without error (empty bundle).
                fb = c.render(HEAD)
                assert fb is not None
            finally:
                c.remove_rake(rid)

    def test_partially_outside_rake_keeps_inside_seeds(self, server):
        with WindtunnelClient(*server.address) as c:
            rid = c.add_rake([4.0, 4.0, 2.0], [4.0, 40.0, 2.0], n_seeds=8)
            try:
                state = c.fetch_frame()
                s = state["paths"][str(rid)]["vertices"].shape[0]
                assert 0 < s < 8
            finally:
                c.remove_rake(rid)


class TestThrottledEndToEnd:
    def test_client_over_slow_network_still_correct(self, server):
        """The full windtunnel runs over a bandwidth-limited channel."""
        raw = connect_tcp(*server.address)
        chan = ThrottledChannel(raw, NetworkModel("slowish", 2.0 * 2**20))
        with WindtunnelClient(stream=chan, width=120, height=90) as c:
            rid = c.add_rake([2, 2, 2], [2, 6, 2], n_seeds=4)
            try:
                fb = c.frame(HEAD, [4, 4, 2])
                assert fb.nonblack_pixels() > 0
                assert chan.modeled_delay_total > 0
            finally:
                c.remove_rake(rid)


class TestManyClients:
    def test_six_clients_share_one_compute(self, server):
        clients = [WindtunnelClient(*server.address) for _ in range(6)]
        try:
            rid = clients[0].add_rake([2, 2, 2], [2, 6, 2], n_seeds=4)
            computed_before = server.frames_computed
            states = [c.fetch_frame() for c in clients]
            assert server.frames_computed == computed_before + 1
            ref = list(states[0]["paths"].values())[0]["vertices"]
            for s in states[1:]:
                np.testing.assert_array_equal(
                    list(s["paths"].values())[0]["vertices"], ref
                )
            clients[0].remove_rake(rid)
        finally:
            for c in clients:
                c.close()

    def test_user_count_tracks_sessions(self, server):
        before = len(server.env.users)
        a = WindtunnelClient(*server.address)
        b = WindtunnelClient(*server.address)
        assert len(server.env.users) == before + 2
        a.close()
        b.close()
        assert len(server.env.users) == before


@pytest.fixture()
def leased_server():
    """A windtunnel with a short session lease and a fast reaper."""
    srv = WindtunnelServer(
        make_dataset(),
        settings=ToolSettings(streamline_steps=10),
        lease_seconds=0.4,
        reap_interval=0.05,
    )
    srv.start()
    yield srv
    srv.stop()


def _wait_until(predicate, timeout=5.0):
    # The shared helper raises on timeout; keep the boolean wrapper so
    # the call sites read as assertions.
    wait_until(predicate, timeout=timeout)
    return True


class TestSessionLeases:
    def test_ghost_user_is_reaped_and_locks_released(self, leased_server):
        """A client that dies without wt.leave loses its seat — and its
        grab locks — once the lease lapses (the paper's FCFS locks must
        not be held by the dead)."""
        srv = leased_server
        c = WindtunnelClient(*srv.address)
        rid = c.add_rake([2, 2, 2], [2, 6, 2], n_seeds=4)
        c.send_input([2, 4, 2], [2, 4, 2], "fist")  # grab the rake center
        assert srv.env.locks.get(rid) == c.client_id
        c._rpc.stream.close()  # die without wt.leave: a ghost user
        assert _wait_until(lambda: c.client_id not in srv.env.users)
        assert rid not in srv.env.locks  # lock released by the reaper
        assert rid in srv.env.rakes  # but the rake itself survives
        assert srv.sessions.reaped_total == 1
        assert srv.reaped_rake_locks == 1

    def test_heartbeat_keeps_an_idle_session_alive(self, leased_server):
        srv = leased_server
        with WindtunnelClient(*srv.address) as c:
            for _ in range(4):
                time.sleep(0.25)  # past half the lease each time
                c.heartbeat()
            assert c.client_id in srv.env.users
            assert srv.sessions.reaped_total == 0

    def test_reaped_session_resumes_transparently(self, leased_server):
        """A reaped client's next call rejoins with its token and retries."""
        srv = leased_server
        c = WindtunnelClient(*srv.address)
        try:
            assert _wait_until(lambda: c.client_id not in srv.env.users)
            # The seat is gone; this call must resume it, same client_id.
            c.send_input([1, 1, 1], [1, 1, 1], "open")
            assert c.client_id in srv.env.users
            assert c.rejoins >= 1
            stats = c.server_stats()
            assert stats["reaped_sessions"] == 1
            assert stats["resumed_sessions"] >= 1
        finally:
            c.close()

    def test_rejoin_with_wrong_token_rejected(self, leased_server):
        srv = leased_server
        c = WindtunnelClient(*srv.address)
        try:
            with pytest.raises(DlibRemoteError) as exc_info:
                c._rpc.call_once("wt.rejoin", c.client_id, "forged-token")
            assert exc_info.value.remote_type == "PermissionError"
        finally:
            c.close()

    def test_clean_leave_forgets_the_lease(self, leased_server):
        srv = leased_server
        c = WindtunnelClient(*srv.address)
        cid = c.client_id
        c.close()
        assert srv.sessions.get(cid) is None
        # "Nothing left to reap" is a claim about the reaper *declining*
        # to act: wait until it has completed full sweeps past the lease
        # deadline (tests/__init__.py rule 2), then assert no reap.
        sweeps0 = srv.sessions.sweeps_total
        deadline = time.monotonic() + srv.sessions.lease_seconds
        wait_until(
            lambda: srv.sessions.sweeps_total > sweeps0
            and time.monotonic() > deadline
        )
        assert srv.sessions.reaped_total == 0  # nothing left to reap


class TestClientDegradation:
    def test_network_error_is_recorded_not_swallowed(self, server):
        """A dead transport surfaces on last_network_error."""
        c = WindtunnelClient(*server.address)
        c._rpc.stream.close()
        with pytest.raises((ConnectionError, OSError)):
            c.fetch_frame()
        assert c.last_network_error is not None
        assert c.network_failures >= 1

    def test_network_loop_survives_failure_and_keeps_last_frame(self, server):
        """Figure 9 degradation: the loop marks state stale and retries;
        the renderer keeps drawing the last good frame."""
        c = WindtunnelClient(*server.address, width=80, height=60)
        rid = c.add_rake([2, 2, 2], [2, 6, 2], n_seeds=3)
        try:
            c.fetch_frame()
            good_state = c.latest_state
            assert good_state is not None
            c._rpc.stream.close()  # sever the link under the loop
            c.start_network_loop(interval=0.01)
            assert _wait_until(lambda: c.state_stale, timeout=3.0)
            assert c.last_network_error is not None
            # The loop thread is still alive, retrying — not returned.
            assert c._net_thread.is_alive()
            # And the render half still draws the stale frame.
            assert c.latest_state is good_state
            fb = c.render(HEAD)
            assert fb.nonblack_pixels() > 0
            c.stop_network_loop()
        finally:
            try:
                c.remove_rake(rid)
            except Exception:  # noqa: BLE001 - link is dead by design
                pass
            c.close()

    def test_reconnect_resumes_session_via_factory(self, server):
        """With a stream factory, a severed link heals transparently."""
        c = WindtunnelClient(
            *server.address,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0, seed=0),
            call_timeout=2.0,
        )
        try:
            c.fetch_frame()
            c._rpc.stream.close()
            state = c.fetch_frame()  # ConnectionError -> reconnect -> rejoin
            assert state is not None
            assert c.reconnects >= 1
            assert c.rejoins >= 1
            assert c.client_id in server.env.users
        finally:
            c.close()


class TestFaultToleranceEndToEnd:
    def test_faulty_client_reconnects_while_staller_is_reaped(self):
        """The acceptance scenario, all three regimes at once:

        * client A runs 50 full frame() cycles through a FaultyChannel
          (random drops + one forced mid-frame disconnect), recovering by
          reconnect + wt.rejoin, rakes intact afterward;
        * client B stays healthy and its wt.frame latency never spikes,
          even though
        * client C sends a partial header, stalls forever holding a rake
          lock, and gets reaped by the lease sweep.
        """
        srv = WindtunnelServer(
            make_dataset(),
            settings=ToolSettings(streamline_steps=10),
            lease_seconds=1.0,
            reap_interval=0.05,
        )
        srv.start()
        channels = []

        def faulty_factory():
            plan = (
                FaultPlan(seed=5, drop_rate=0.12, disconnect_after_sends=4)
                if not channels
                else FaultPlan(seed=100 + len(channels), drop_rate=0.12)
            )
            chan = FaultyChannel(connect_tcp(*srv.address), plan)
            channels.append(chan)
            return chan

        a = b = c_stall = None
        try:
            a = WindtunnelClient(
                stream=faulty_factory(),
                stream_factory=faulty_factory,
                retry=RetryPolicy(
                    max_attempts=6, base_delay=0.01, max_delay=0.1, jitter=0.0, seed=2
                ),
                call_timeout=0.25,
                width=80,
                height=60,
            )
            rake_a = a.add_rake([2, 2, 2], [2, 6, 2], n_seeds=4)
            b = WindtunnelClient(*srv.address, width=80, height=60)
            c_stall = WindtunnelClient(*srv.address)
            rake_c = c_stall.add_rake([6, 2, 2], [6, 6, 2], n_seeds=4)
            c_stall.send_input([6, 4, 2], [6, 4, 2], "fist")
            assert srv.env.locks.get(rake_c) == c_stall.client_id
            # C wedges: half a frame header, then silence forever.
            c_stall._rpc.stream.send_raw(b"\x2a\x00")

            b_latencies = []
            for i in range(50):
                a.frame(HEAD, [4, 4, 2])
                t0 = time.perf_counter()
                b.fetch_frame()
                b_latencies.append(time.perf_counter() - t0)

            # A survived the drops and the forced disconnect, 50/50 cycles.
            assert a.timer.frames.count == 50
            assert a.reconnects >= 1 and a.rejoins >= 1
            assert channels[0].stats.disconnects == 1
            assert sum(ch.stats.drops for ch in channels) > 0
            assert rake_a in srv.env.rakes  # A's rake intact
            assert a.client_id in srv.env.users
            # B never saw C's stall or A's faults.
            assert max(b_latencies) < 1.0
            # C was reaped: seat vacated, lock released, rake survives.
            assert _wait_until(lambda: c_stall.client_id not in srv.env.users)
            assert rake_c not in srv.env.locks
            assert rake_c in srv.env.rakes
            stats = b.server_stats()
            assert stats["reaped_sessions"] >= 1
            assert stats["released_rake_locks"] >= 1
            assert stats["disconnects"] >= 1
        finally:
            for cl in (a, b):
                if cl is not None:
                    cl.close()
            srv.stop()


class TestTimerBudgetAccounting:
    def test_slow_network_blows_the_budget_and_is_recorded(self, server):
        raw = connect_tcp(*server.address)
        # 20 kB/s: a ~2 kB frame payload costs ~0.1 s of modeled delay.
        chan = ThrottledChannel(raw, NetworkModel("awful", 20_000.0))
        with WindtunnelClient(stream=chan, width=80, height=60) as c:
            rid = c.add_rake([2, 2, 2], [2, 6, 2], n_seeds=6)
            try:
                c.frame(HEAD, [4, 4, 2])
                assert c.timer.frames.max > 0.05
                assert "fetch" in c.timer.stages
            finally:
                c.remove_rake(rid)


def _unstarted_server(fake, **kw):
    """A windtunnel with an injectable clock, driven without sockets.

    The dlib loop never runs: tests call ``_rpc_*`` and ``_reap_tick``
    directly, so lease expiry is a pure function of the fake clock.
    """
    kw.setdefault("lease_seconds", 1.0)
    return WindtunnelServer(
        make_dataset(),
        settings=ToolSettings(streamline_steps=8),
        time_fn=lambda: fake["t"],
        **kw,
    )


class TestReaperRace:
    """The reaper's sweep vs. threads mutating the environment (issue 6).

    The sweep runs on the dlib service thread, which serializes it
    against *procedures* — but not against the pipeline's producer or
    anything else driving the environment directly.  It must therefore
    hold ``env.lock`` across the lock-table scan and the user removal.
    """

    def test_sweep_holds_env_lock_across_removal(self):
        fake = {"t": 0.0}
        srv = _unstarted_server(fake)
        cid = srv._rpc_join(None, "ghost")["client_id"]
        held = []
        real_remove = srv.env.remove_user

        def spying_remove(client_id):
            held.append(srv.env.lock._is_owned())
            return real_remove(client_id)

        srv.env.remove_user = spying_remove
        fake["t"] = 5.0  # the lease lapses
        srv._reap_tick(None)
        assert held == [True], "reaper removed a user without env.lock"
        assert cid not in srv.env.users

    def test_sweep_races_concurrent_grab_release(self):
        """Ghost reaping while another thread churns the grab table.

        Unfixed, the sweep iterates ``env.locks`` unlocked and a
        concurrent grab/release blows it up with ``RuntimeError: dict
        changed size during iteration``.
        """
        from repro.tracers import Rake

        fake = {"t": 0.0}
        srv = _unstarted_server(fake)
        resident = srv._rpc_join(None, "resident")["client_id"]
        srv._rpc_add_rake(
            None, resident, Rake([2, 2, 2], [2, 6, 2], n_seeds=4).to_dict()
        )
        stop = threading.Event()
        errors = []

        def churn_grabs():
            while not stop.is_set():
                try:
                    srv.env.try_grab(resident, [2.0, 4.0, 2.0])
                    srv.env.release(resident)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)
                    return

        t = threading.Thread(target=churn_grabs, daemon=True)
        t.start()
        try:
            for n in range(30):
                srv._rpc_join(None, f"ghost{n}")
                fake["t"] += 2.0  # every ghost's lease lapses
                srv.sessions.touch(resident)  # ...but the resident's renews
                srv._reap_tick(None)
        finally:
            stop.set()
            t.join(timeout=10)
        assert errors == []
        assert resident in srv.env.users
        assert srv.sessions.reaped_total == 30


class TestSubscriberChurn:
    """Per-client delivery state must die with the client (issue 6)."""

    def test_hundred_client_churn_leaves_nothing_behind(self):
        fake = {"t": 0.0}
        srv = _unstarted_server(fake, lease_retain_seconds=2.0)

        def instruments():
            return {
                name for table in srv.registry.snapshot().values() for name in table
            }

        before = instruments()
        for round_no in range(3):
            cids = [
                srv._rpc_join(None, f"churn{round_no}-{i}")["client_id"]
                for i in range(100)
            ]
            for cid in cids:
                srv._rpc_subscribe(None, cid, {"encoding": "q16"})
            assert len(srv.delivery._subs) == 100
            # Half leave politely; half just vanish mid-session.
            for cid in cids[:50]:
                srv._rpc_leave(None, cid)
            fake["t"] += 1.5  # ghosts' leases lapse
            srv._reap_tick(None)
            fake["t"] += 4.0  # reaped leases age past retention
            srv._reap_tick(None)
            assert srv.delivery._subs == {}
            assert srv.env.users == {}
        assert srv.sessions.active == 0
        assert srv.sessions.reaped_total == 150
        assert srv.sessions.evicted_total == 150
        assert instruments() == before  # nothing is recorded per client


NAN, INF = float("nan"), float("inf")


@pytest.fixture()
def shared_session():
    """A fresh server and two users on it: ``a`` misbehaves, ``b`` watches."""
    srv = WindtunnelServer(
        make_dataset(), settings=ToolSettings(streamline_steps=8),
        time_fn=lambda: 0.0, frame_wait=2.0,
    )
    with srv, WindtunnelClient(*srv.address) as a, WindtunnelClient(*srv.address) as b:
        a.add_rake([2, 2, 2], [2, 6, 2], n_seeds=4)
        a.time_control("pause")
        b.fetch_frame()
        yield srv, a, b


def _still_serving(srv, viewer):
    """Another user's next frame arrives and the producer is alive."""
    srv.env.bump()  # the published frame is stale: the next one is produced
    state = viewer.fetch_frame()
    assert state["cached"] is False
    assert all(
        np.isfinite(p["vertices"]).all() for p in state["paths"].values()
    )
    assert srv.pipeline.alive


class TestNonFiniteClock:
    """One non-finite ``wt.time`` used to set the clock, then fail: the
    producer died on ``int(nan)`` and every user's frames with it."""

    @pytest.mark.parametrize(
        "op,value", [("scrub", NAN), ("speed", INF), ("speed", NAN), ("step", INF)]
    )
    def test_rejected_and_the_session_lives_on(self, shared_session, op, value):
        srv, a, b = shared_session
        with pytest.raises(DlibRemoteError, match="finite") as info:
            a.time_control(op, value)
        assert info.value.remote_type == "ValueError"
        _still_serving(srv, b)
        assert a.time_control("scrub", 1.0)["timestep"] == 1


class TestNonFiniteGeometry:
    """A NaN rake endpoint or hand used to reach the grid search and fail
    every production after it, for every user."""

    BAD_RAKE = {
        "end_a": [NAN, 0.0, 0.0], "end_b": [1.0, 0.0, 0.0],
        "n_seeds": 3, "kind": "streamline", "rake_id": None,
    }

    @pytest.mark.parametrize("end", [[NAN, 0, 0], [0, INF, 0], [0, 0, -INF]])
    def test_rake_rejects_non_finite_endpoints(self, end):
        from repro.tracers import Rake

        with pytest.raises(ValueError, match="finite"):
            Rake(end, [1, 1, 1])
        with pytest.raises(ValueError, match="finite"):
            Rake.from_dict({**self.BAD_RAKE, "end_a": [1, 1, 1], "end_b": end})

    def test_add_rake_rejected(self, shared_session):
        srv, a, b = shared_session
        with pytest.raises(ValueError, match="finite"):
            a.add_rake([NAN, 0, 0], [1, 0, 0])  # client side, as for a bad kind
        rakes = set(srv.env.rakes)
        with pytest.raises(DlibRemoteError, match="finite"):
            a._rpc.call("wt.add_rake", a.client_id, self.BAD_RAKE)
        assert set(srv.env.rakes) == rakes
        _still_serving(srv, b)

    @pytest.mark.parametrize(
        "head,hand",
        [
            ([0, 0, 0], [NAN, 2.0, 2.0]),
            ([0, 0, 0], [2.0, INF, 2.0]),
            ([NAN, 0, 0], [2.0, 2.0, 2.0]),
            ([0, 0, 0], [2.0, 2.0]),
        ],
    )
    def test_update_rejected_while_holding(self, shared_session, head, hand):
        srv, a, b = shared_session
        assert a.send_input([0, 0, 0], [2.0, 2.0, 2.0], "fist")["holding"]
        (rid,) = srv.env.rakes
        geometry = srv.env.rakes[rid].to_dict()
        user = srv.env.users[a.client_id]
        hand_before = user.hand_position.copy()
        with pytest.raises(DlibRemoteError, match="finite 3-vector"):
            a._rpc.call("wt.update", a.client_id, head, hand, "fist")
        assert srv.env.rakes[rid].to_dict() == geometry
        np.testing.assert_array_equal(user.hand_position, hand_before)
        assert user.holding is not None and srv.env.rake_owner(rid) == a.client_id
        _still_serving(srv, b)

    def test_gateway_journals_no_such_rake(self):
        from repro.gateway import SessionGateway, default_worker_spec

        spec = default_worker_spec(shape=(8, 8, 4), n_timesteps=3)
        with SessionGateway(spec, n_workers=1) as gw:
            with WindtunnelClient(*gw.address) as c:
                worker = gw.journal.worker_of(c.client_id)
                with pytest.raises(DlibRemoteError, match="finite"):
                    c._rpc.call("wt.add_rake", c.client_id, self.BAD_RAKE)
                assert gw.journal.recovery_state(worker)["rakes"] == {}
                rid = c.add_rake([-1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], n_seeds=2)
                journaled = gw.journal.recovery_state(worker)["rakes"]
                assert list(journaled) == [str(rid)]
                assert str(rid) in c.fetch_frame()["paths"]
