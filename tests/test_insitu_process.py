"""The live solver's process boundary: lifecycle, determinism, crashes.

A live server steps its solver in one child process that appends each
decoded timestep to the server's tier-2 segment and reports over a
pipe.  These tests hold the boundary to its promises: no thread of the
server's process steps the solver; a failed start leaves nothing
behind; a steered run through the child replays bit-for-bit in process;
and a killed child is counted while the session keeps serving.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

import repro.insitu.process as solver_process
from repro.core import WindtunnelClient
from repro.diskio.cache import TieredTimestepCache
from repro.dlib import DlibClient, DlibRemoteError
from repro.flow.solver import SolverConfig
from repro.insitu import InsituWindtunnelServer, SolverProducer
from repro.insitu.process import build_tunnel
from tests import wait_until

STEPS = 2


def make_server(**kwargs):
    return InsituWindtunnelServer(
        solver_config=SolverConfig(nx=48, ny=24),
        steps_per_timestep=STEPS,
        ring_capacity=16,
        **kwargs,
    )


@pytest.fixture()
def server():
    srv = make_server(sim_period_seconds=0.005).start()
    yield srv
    srv.stop()


def segment_path(srv) -> str:
    return "/dev/shm/" + srv.engine.loader.cache.l2.name


def counter(srv, name: str) -> int:
    return srv.registry.counter(name).value


def assert_nothing_left(srv) -> None:
    child = srv.solver_process.process
    assert not child.is_alive() and child.exitcode is not None
    assert child not in multiprocessing.active_children()
    assert not os.path.exists(segment_path(srv))
    names = {t.name for t in threading.enumerate()}
    assert not names & {"wt-insitu-reports", "wt-frame-producer", "wt-frame-encoder"}


class TestSolverChild:
    def test_child_produces_and_stops(self, server):
        wait_until(lambda: server.producer.available >= 3)
        # Nothing in the server's process steps the solver.
        names = {t.name for t in threading.enumerate()}
        assert "wt-insitu-producer" not in names
        assert server.solver_process.pid not in (None, os.getpid())
        assert server.solver_process.pid == server.solver_process.process.pid
        assert server.producer.solver.steps_taken == 0
        frontier = server.producer.available
        gv, _tier = server.engine.loader.cache.get(frontier)
        assert gv.shape == server.dataset.grid.shape + (3,)
        server.stop()
        assert server.solver_process.process.exitcode == 0
        assert counter(server, "insitu.solver_exits") == 0
        assert_nothing_left(server)

    def test_the_period_throttles_the_child(self):
        # The server acks each report at once; the throttle must hold
        # the child to one timestep per period all the same.
        period = 0.05
        srv = make_server(sim_period_seconds=period).start()
        try:
            wait_until(lambda: srv.producer.available >= 1)
            first = srv.producer.available
            t0 = time.monotonic()
            wait_until(lambda: srv.producer.available >= first + 6)
            elapsed = time.monotonic() - t0
            published = srv.producer.available - first
        finally:
            srv.stop()
        # Unthrottled, these timesteps take a few milliseconds each.
        assert published / elapsed < 1.0 / period * 1.25

    def test_failed_start_stops_what_it_started(self):
        srv = make_server()

        def refuse():
            raise RuntimeError("injected pipeline failure")

        srv.pipeline.start = refuse
        with pytest.raises(RuntimeError, match="injected"):
            srv.start()
        # The child and the dlib loop had started: both are gone.
        assert srv.dlib._thread is None or not srv.dlib._thread.is_alive()
        assert_nothing_left(srv)

    def test_spawned_child_serves_too(self, monkeypatch):
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(solver_process, "mp_context", lambda: spawn)
        srv = make_server().start()
        try:
            wait_until(lambda: srv.producer.available >= 2, timeout=60.0)
            assert srv.solver_process.pid != os.getpid()
        finally:
            srv.stop()
        assert_nothing_left(srv)


class TestTheLiveReadPath:
    def test_a_reported_timestep_is_read_from_tier_2(self):
        """No copy-up: adopting a report only advances the frontier, and
        the first frame at the new timestep reads it from the segment."""
        srv = make_server(sim_period_seconds=0.005)
        cache = srv.engine.loader.cache
        adopted, first_reads = [], {}
        read_three = threading.Event()
        adopt, get = srv._adopt, cache.get

        def adopting(reports):
            adopted.append((reports[-1]["t"], adopt(reports)))
            return adopted[-1][1]

        def counts():
            return cache.l2.stats.hits.value, cache.source.stats.hits.value

        def counted_get(t):
            before = counts()
            out = get(t)
            if t > 0 and t not in first_reads:
                first_reads[t] = out[1], before, counts()
                if len(first_reads) >= 3:
                    read_three.set()
            return out

        srv._adopt, cache.get = adopting, counted_get
        srv.start()
        try:
            with WindtunnelClient(*srv.address, name="viewer") as c:
                assert c.subscribe(push=True)["push"] is True
                c.add_rake((3.0, 1.5, 0.5), (3.0, 2.5, 0.5), n_seeds=4)

                def three_timesteps_read():
                    c.drain_pushes(timeout=0.05)
                    return read_three.is_set()

                wait_until(three_timesteps_read, timeout=10.0)
        finally:
            srv.stop()
        assert adopted and all(t == frontier for t, frontier in adopted)
        for t, (tier, before, after) in first_reads.items():
            assert tier == "l2", t
            assert after == (before[0] + 1, before[1]), t
        assert cache.source.stats.hits.value == 0


class TestSteeringAcrossTheBoundary:
    def test_steered_child_replays_bit_identically_in_process(self, server):
        with WindtunnelClient(*server.address, name="pilot") as pilot:
            for changes in ({"u_inf": 2.0}, {"taper": 0.4}, {"dt": 0.015}):
                frontier = server.producer.available
                epoch = pilot.steer(**changes)["epoch"]
                wait_until(lambda: server.steering.applied_epoch >= epoch)
                wait_until(lambda: server.producer.available >= frontier + 3)
            # Run the segment past a wrap: its oldest slots get reused.
            wait_until(lambda: server.producer.available >= 30)
            pilot.steer(paused=True)
            wait_until(lambda: server.producer.paused)
        published = counter(server, "insitu.timesteps_published")
        assert counter(server, "insitu.sim_steps_total") == (published - 1) * STEPS
        until = server.producer.available
        assert published == until + 1

        # The same log, replayed in this process from the same start.
        solver, source = build_tunnel(
            server.solver_config, steps_per_timestep=STEPS,
            ring_capacity=until + 1, nk=4, height=1.0,
        )
        replay = SolverProducer(
            solver, source, steps_per_timestep=STEPS,
            cache=TieredTimestepCache(source, l1_timesteps=until + 1),
            obstacle_factory=server.producer.obstacle_factory,
        )
        replay.prime()
        replay.replay_steering(server.steering.applied_log, until_t=until)
        segment = server.engine.loader.cache.l2
        resident = segment.resident_timesteps
        # The segment holds the newest ring_capacity + LAG timesteps.
        assert resident == list(range(until - 16 - solver_process.LAG + 1, until + 1))
        for t in resident:
            child = segment.get(t)
            assert child.tobytes() == replay.cache.get(t)[0].tobytes(), t
            assert replay.epoch_for(t) == server.producer.epoch_for(t), t


    def test_a_restore_after_start_stamps_the_restored_epochs(self, server):
        journal = [
            {"epoch": 1, "timestep": 4, "changes": {"u_inf": 2.0}},
            {"epoch": 5, "timestep": 9, "changes": {"taper": 0.3}},
        ]
        wait_until(lambda: server.producer.available >= 2)
        with WindtunnelClient(*server.address, name="viewer") as c:
            assert c.subscribe(push=True)["push"] is True
            with DlibClient(*server.address) as admin:
                admin.call("wt.restore", {"steering": journal})
            wait_until(lambda: server.steering.applied_epoch >= 5)
            restored_at = server.producer.available

            def a_later_frame_arrived():
                c.drain_pushes(timeout=0.05)
                state = c.latest_state
                return state is not None and state["timestep"] > restored_at

            wait_until(a_later_frame_arrived, timeout=10.0)
            assert c.latest_state["steer_epoch"] >= 5
            # The regime came back in the child, and new steers get
            # epochs past the journal's.
            assert c.steer(dt=0.015)["epoch"] == 6
        assert server.producer.snapshot()["geometry"]["taper"] == 0.3
        assert server.producer.snapshot()["u_inf"] == 2.0
        assert server.producer.epoch_for(server.producer.available) >= 5


class TestKilledSolver:
    def test_killed_child_is_counted_and_the_session_survives(self, server):
        viewers = [WindtunnelClient(*server.address, name=f"v{i}") for i in range(2)]
        try:
            for c in viewers:
                assert c.subscribe(push=True)["push"] is True
            pilot = viewers[0]
            rid = pilot.add_rake((3.0, 1.5, 0.5), (3.0, 2.5, 0.5), n_seeds=4)
            wait_until(lambda: server.solver_process.pid is not None)
            wait_until(lambda: server.producer.available >= 3)
            os.kill(server.solver_process.pid, signal.SIGKILL)
            wait_until(lambda: counter(server, "insitu.solver_exits") == 1)
            frozen = server.producer.available

            # An edit makes a fresh frame of the frozen frontier, pushed
            # to every subscriber.
            pushed = [c.pushed_frames for c in viewers]
            pilot.add_rake((3.5, 1.5, 0.5), (3.5, 2.5, 0.5), n_seeds=4)

            def every_viewer_got_a_frozen_frame():
                for c, before in zip(viewers, pushed):
                    c.drain_pushes(timeout=0.05)
                    state = c.latest_state
                    if c.pushed_frames <= before or len(state["paths"]) != 2:
                        return False
                return all(c.latest_state["timestep"] == frozen for c in viewers)

            wait_until(every_viewer_got_a_frozen_frame, timeout=10.0)
            assert str(rid) in pilot.latest_state["paths"]

            with pytest.raises(DlibRemoteError) as exc:
                pilot.steer(u_inf=2.0)
            assert exc.value.remote_type == "SolverExitedError"
            assert server.producer.available == frozen
            assert counter(server, "insitu.solver_exits") == 1
        finally:
            for c in viewers:
                c.close()
        server.stop()
        assert server.solver_process.process.exitcode == -signal.SIGKILL
        assert_nothing_left(server)

    def test_reports_the_server_cannot_adopt_end_the_child(self, server):
        wait_until(lambda: server.producer.available >= 2)

        def refuse(reports):
            raise RuntimeError("injected adopt failure")

        server.solver_process._on_reports = refuse
        wait_until(lambda: counter(server, "insitu.solver_exits") == 1)
        assert server.solver_process.exited
        with WindtunnelClient(*server.address, name="pilot") as pilot:
            with pytest.raises(DlibRemoteError) as exc:
                pilot.steer(u_inf=2.0)
        assert exc.value.remote_type == "SolverExitedError"
        server.stop()
        assert server.solver_process.process.exitcode == -signal.SIGKILL
        assert_nothing_left(server)
