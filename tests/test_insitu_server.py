"""End-to-end tests for the live (in situ) windtunnel server.

The scenario the issue demands: producer + pipeline + several pushed
clients, a ``wt.steer`` mid-session, and every client observing
new-epoch frames within a bounded number of frames — with the
``insitu.*`` counters reconciling exactly in ``wt.metrics``.
"""

import numpy as np
import pytest

from repro.core import WindtunnelClient
from repro.core.delivery import FRAME_CREDIT
from repro.dlib import DlibRemoteError
from repro.flow.solver import SolverConfig
from repro.insitu import InsituWindtunnelServer
from tests import wait_until


@pytest.fixture()
def server():
    srv = InsituWindtunnelServer(
        solver_config=SolverConfig(nx=48, ny=24),
        steps_per_timestep=2,
        ring_capacity=16,
        sim_period_seconds=0.005,
    )
    srv.start()
    yield srv
    srv.stop()


class TestLiveSession:
    def test_solver_free_runs_and_frames_follow(self, server):
        with WindtunnelClient(*server.address, name="viewer") as c:
            wait_until(lambda: server.producer.available >= 3)
            c.fetch_frame()
            t0 = c.latest_state["timestep"]
            assert t0 >= 0
            wait_until(lambda: server.producer.available >= t0 + 3)
            c.fetch_frame()
            assert c.latest_state["timestep"] > t0
            assert "steer_epoch" in c.latest_state

    def test_steer_reaches_pushed_clients_within_bounded_frames(self, server):
        clients = [
            WindtunnelClient(*server.address, name=f"view-{i}") for i in range(4)
        ]
        try:
            for c in clients:
                assert c.subscribe(push=True)["push"] is True
            wait_until(lambda: server.producer.available >= 2)

            pilot = clients[0]
            reply = pilot.steer(u_inf=2.5)
            epoch = reply["epoch"]
            assert epoch >= 1
            assert reply["changes"] == {"u_inf": 2.5}

            # Every pushed client sees a frame carrying the new epoch
            # within a bounded number of publications.
            def all_caught_up():
                for c in clients:
                    c.drain_pushes(timeout=0.05)
                    state = c.latest_state
                    if state is None or state.get("steer_epoch", 0) < epoch:
                        return False
                return True

            wait_until(all_caught_up, timeout=10.0)
            # The solver steps in its own process: the steering section
            # carries what it reported, the server's copy never steps.
            snap = pilot._call("wt.snapshot", pilot.client_id)
            assert snap["steering"]["u_inf"] == 2.5
        finally:
            for c in clients:
                c.close()

    def test_insitu_counters_reconcile_in_metrics(self, server):
        with WindtunnelClient(*server.address, name="ops") as c:
            wait_until(lambda: server.producer.available >= 3)
            # Freeze the frontier so both counters are stable to read.
            c.steer(paused=True)
            wait_until(lambda: server.producer.paused)
            registry = c.metrics()["registry"]
            counters = registry["counters"]
            sim_steps = counters["insitu.sim_steps_total"]
            published = counters["insitu.timesteps_published"]
            assert published >= 4
            # t=0 is primed without stepping; each later timestep is
            # exactly steps_per_timestep solver steps.
            assert sim_steps == (published - 1) * 2
            assert counters["insitu.steer_applied"] >= 1
            gauges = registry["gauges"]
            assert "insitu.sim_rate_hz" in gauges
            assert "insitu.frames_behind_sim" in gauges

    def test_paused_solver_keeps_serving_frames(self, server):
        with WindtunnelClient(*server.address, name="pauser") as c:
            wait_until(lambda: server.producer.available >= 2)
            c.steer(paused=True)
            wait_until(lambda: server.producer.paused)
            frontier = server.producer.available
            # Repeated fetches keep answering from the frozen frontier —
            # no stall, no error, no timestep drift.
            for _ in range(3):
                c.fetch_frame()
                assert c.latest_state["timestep"] <= frontier
            assert server.producer.available == frontier
            c.steer(paused=False)
            wait_until(lambda: server.producer.available > frontier)

    def test_a_paused_server_serves_a_push_seat_one_frame(self, server):
        """Paused, the live server publishes the frozen frontier once for
        a push seat, and then serves it no further ``wt.frame`` reply:
        the seat's credit stays parked while the producer idles."""
        with WindtunnelClient(*server.address, name="paused") as c:
            wait_until(lambda: server.producer.available >= 2)
            c.steer(paused=True)
            wait_until(lambda: server.producer.paused)
            published = server.store.published_total
            assert c.subscribe(push=True)["push"] is True
            wait_until(lambda: c.drain_pushes(0.05) >= 0 and c.pushed_frames == 1)
            wait_until(
                lambda: server.delivery.stats()["frame_waiters"] == FRAME_CREDIT
            )
            idle = server.pipeline.idle_cycles
            wait_until(lambda: server.pipeline.idle_cycles > idle + 3)
            assert c.drain_pushes(0.0) == 0 and c.pushed_frames == 1
            assert server.store.published_total == published + 1
            assert server.delivery.stats()["frame_waiters"] == FRAME_CREDIT

    def test_steering_conflict_and_release_over_the_wire(self, server):
        with WindtunnelClient(*server.address, name="a") as a, WindtunnelClient(
            *server.address, name="b"
        ) as b:
            a.steer(u_inf=1.5)
            with pytest.raises(DlibRemoteError) as exc:
                b.steer(u_inf=3.0)
            assert exc.value.remote_type == "SteeringConflictError"
            a.release_steering()
            assert b.steer(u_inf=3.0)["epoch"] >= 2

    def test_invalid_steer_rejected_before_lease(self, server):
        with WindtunnelClient(*server.address, name="a") as a, WindtunnelClient(
            *server.address, name="b"
        ) as b:
            with pytest.raises(DlibRemoteError) as exc:
                a.steer(u_inf=500.0)
            assert exc.value.remote_type == "ValueError"
            # The malformed request must not have captured the lease.
            assert b.steer(u_inf=2.0)["epoch"] >= 1

    def test_live_clock_forbids_replay_time_ops(self, server):
        with WindtunnelClient(*server.address, name="t") as c:
            for op, value in (("scrub", 2.0), ("speed", 4.0), ("step", 1.0)):
                with pytest.raises(DlibRemoteError, match="live clock"):
                    c.time_control(op, value)
            # Pause / resume stay legal: they gate the *view*, the solver
            # is paused through wt.steer instead.
            assert c.time_control("pause")["playing"] is False
            assert c.time_control("resume")["playing"] is True

    def test_moved_streakline_rake_past_the_ring_is_served(self, server):
        """A streakline's window stops at the ring's oldest timestep: the
        default 64-timestep filament must not read the history a 16-slot
        ring has retired when a drag makes it rebuild."""
        with WindtunnelClient(*server.address, name="smoke") as c:
            wait_until(lambda: server.producer.available > 32, timeout=30.0)
            rid = c.add_rake((3.0, 1.5, 0.5), (3.0, 2.5, 0.5), n_seeds=4,
                             kind="streakline")
            head = (3.0, -3.0, 0.5)
            assert c.send_input(head, (3.0, 2.0, 0.5), "fist")["holding"] == [
                rid, "center",
            ]
            c.send_input(head, (3.5, 2.0, 0.5), "fist")
            frame = c.fetch_frame()
            c.send_input(head, (3.5, 2.0, 0.5), "open")
            assert frame["timestep"] > 32
            assert 1 < frame["paths"][str(rid)]["vertices"].shape[1] <= 16
            assert server.pipeline.alive

    def test_state_snapshot_carries_steering_section(self, server):
        with WindtunnelClient(*server.address, name="s") as c:
            c.steer(taper=0.4, angle=15.0)
            # applied_epoch is stamped after the whole change set landed.
            wait_until(lambda: server.producer.steering.applied_epoch >= 1)
            snap = c._call("wt.snapshot", c.client_id)
            steering = snap["steering"]
            assert steering["geometry"] == {"taper": 0.4, "angle": 15.0}
            assert steering["applied_epoch"] >= 1
            assert steering["available"] >= 0


class TestLiveSpeculation:
    def test_live_clock_never_speculates_past_available(self):
        """Productions one frontier apart satisfy every other condition of
        the speculation rule; the next timestep is not in the source yet,
        so the memo never holds an entry past ``available``."""
        srv = InsituWindtunnelServer(
            solver_config=SolverConfig(nx=32, ny=16), steps_per_timestep=1
        )
        # No solver child: the test advances the frontier in process.
        srv.dlib.start()
        srv.pipeline.start()
        pipeline = srv.pipeline
        try:
            with WindtunnelClient(*srv.address, name="viewer") as c:
                c.add_rake((3.0, 1.5, 0.5), (3.0, 2.5, 0.5), n_seeds=4)
                for _ in range(5):
                    available = srv.producer.advance(1)
                    assert c.fetch_frame()["timestep"] == available
                    idle = pipeline.idle_cycles
                    wait_until(lambda: pipeline.idle_cycles > idle)
                    with pipeline._state_lock:
                        held = [slot.key[3] for slot in pipeline._memo.values()]
                    assert held and max(held) <= srv.producer.available
            assert pipeline.frames_produced == 5
            assert pipeline.frames_anticipated == 0
        finally:
            srv.stop()


class TestRestore:
    def test_restore_reapplies_journaled_steering(self):
        srv = InsituWindtunnelServer(
            solver_config=SolverConfig(nx=32, ny=16), steps_per_timestep=2
        )
        try:
            entries = [
                {"epoch": 1, "changes": {"u_inf": 2.0}},
                {"epoch": 2, "changes": {"taper": 0.5}},
            ]
            srv._rpc_restore(
                None,
                {
                    "sessions": [],
                    "rakes": {},
                    "clock": None,
                    "tool_settings": None,
                    "steering": entries,
                },
            )
            assert srv.producer.solver.config.u_inf == 2.0
            assert srv.producer.snapshot()["geometry"]["taper"] == 0.5
            # Fresh steers get epochs past the restored history.
            user = srv.env.add_user("x")
            srv.sessions.open(user.client_id, "x")
            reply = srv._rpc_steer(None, user.client_id, {"dt": 0.002})
            assert reply["epoch"] == 3
        finally:
            srv.stop()

    def test_restore_without_steering_is_a_noop(self):
        srv = InsituWindtunnelServer(
            solver_config=SolverConfig(nx=32, ny=16), steps_per_timestep=2
        )
        try:
            baseline = srv.producer.solver.config.u_inf
            srv._rpc_restore(
                None,
                {"sessions": [], "rakes": {}, "clock": None,
                 "tool_settings": None},
            )
            assert srv.producer.solver.config.u_inf == baseline
        finally:
            srv.stop()
