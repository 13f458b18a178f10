"""Chaos against a live gateway pool: SIGKILL and hang (issue 6).

The acceptance scenario: a 4-worker pool serving 8 sessions, a seeded
fault injector SIGKILLs a worker mid-frame, and every client of the dead
worker resumes transparently through ``wt.rejoin`` within a bounded
deadline — no torn frames, no duplicated rakes, and the gateway's
recovery counters reconcile exactly against the injected fault count.
A second scenario wedges a worker's service loop (``wt.chaos_hang``) and
checks the supervisor's liveness deadline converts the hang into a crash
it already knows how to recover.  A third kills a worker while a routed
``wt.frame`` is *parked* on it as a continuation — workers run the
figure-8 producer pipeline, so a miss waits on the worker's loop without
blocking it.  A fourth kills a worker after a drag and checks the rake
comes back where the hand let go of it, not where it was added.  Two
more check the relay's isolation: a worker that is down or wedged
stalls only its own sessions — the other worker's sessions keep being
served while a rejoin or a forward is parked at the gateway.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import WindtunnelClient
from repro.core.delivery import FRAME_CREDIT
from repro.dlib.client import DlibClient
from repro.gateway import SessionGateway, default_worker_spec
from repro.netsim import ProcessFaults

from tests import wait_until

JOIN_DEADLINE = 60.0
RECOVER_DEADLINE = 30.0


@pytest.fixture(scope="module")
def gateway():
    spec = default_worker_spec(allow_chaos=True, frame_wait=2.0)
    gw = SessionGateway(
        spec,
        n_workers=4,
        max_sessions_per_worker=4,
        heartbeat_interval=0.2,
        liveness_deadline=0.75,
        probe_failures_to_kill=2,
        recovery_wait=20.0,
        route_timeout=3.0,
    )
    with gw:
        yield gw


def counter(gw, name):
    return gw.registry.counter(name).value


def fetch_all_within(clients, deadline):
    """Every client serves a frame inside ``deadline``; returns the frames."""
    t0 = time.monotonic()
    frames = {}
    pending = list(clients)
    last_error = None
    while pending and time.monotonic() - t0 < deadline:
        still = []
        for c in pending:
            try:
                frames[c] = c.fetch_frame()
            except Exception as exc:  # noqa: BLE001 - retried until deadline
                last_error = exc
                still.append(c)
        pending = still
        if pending:
            time.sleep(0.25)
    assert not pending, (
        f"{len(pending)} clients still failing after {deadline}s: {last_error!r}"
    )
    return frames


class TestSigkillRecovery:
    def test_worker_sigkill_mid_frame_all_sessions_resume(self, gateway):
        host, port = gateway.address
        clients = [
            WindtunnelClient(host, port, name=f"chaos{i}") for i in range(8)
        ]
        try:
            rakes = {}
            for i, c in enumerate(clients):
                rakes[c] = c.add_rake(
                    (0.5 * i - 2.0, -1.0, 0.5), (0.5 * i - 2.0, 1.0, 0.5),
                    n_seeds=3,
                )
            fetch_all_within(clients, JOIN_DEADLINE)

            seat = {c: gateway.journal.worker_of(c.client_id) for c in clients}
            assert sorted(gateway.journal.load().values()) == [2, 2, 2, 2]

            faults = ProcessFaults(seed=11, registry=gateway.registry)
            victim = faults.choose(sorted(set(seat.values())))
            victims = [c for c in clients if seat[c] == victim]
            bystanders = [c for c in clients if seat[c] != victim]
            assert len(victims) == 2

            recovered0 = counter(gateway, "gateway.sessions_recovered")
            respawned0 = counter(gateway, "gateway.workers_respawned")
            rejoins0 = counter(gateway, "gateway.rejoins")

            # Keep a request in flight against the victim while it dies.
            stop = threading.Event()

            def hammer():
                while not stop.is_set():
                    try:
                        victims[0].fetch_frame()
                    except Exception:  # noqa: BLE001 - mid-kill turbulence
                        time.sleep(0.05)

            t = threading.Thread(target=hammer, daemon=True)
            t.start()
            time.sleep(0.2)  # let the hammer get airborne
            faults.kill(gateway.supervisor.handle_of(victim))
            time.sleep(0.5)
            stop.set()
            t.join(timeout=RECOVER_DEADLINE)
            assert not t.is_alive()

            frames = fetch_all_within(clients, RECOVER_DEADLINE)

            # The client with a request in flight at kill time crossed a
            # dead worker and resumed through wt.rejoin.  Idle victims
            # may never notice at all — the supervisor restored their
            # leases before their next call, which is the point — but
            # nobody *outside* the blast radius rejoins.
            assert victims[0].rejoins >= 1, "in-flight client never rejoined"
            assert counter(gateway, "gateway.rejoins") - rejoins0 >= 1
            for c in bystanders:
                assert c.rejoins == 0, f"client {c.client_id} rejoined needlessly"

            # No torn frames: each client's own rake survives, exactly
            # once, in both its frame and the restored worker's world.
            for c in clients:
                paths = frames[c]["paths"]
                assert str(rakes[c]) in paths, (
                    f"client {c.client_id} lost rake {rakes[c]}"
                )
            snap = victims[0]._call("wt.snapshot", victims[0].client_id)
            journal_rakes = set(gateway.journal.recovery_state(victim)["rakes"])
            assert set(snap["rakes"]) == journal_rakes  # no dupes, no losses

            # Reconcile injected faults against observed recoveries.
            assert faults.kills.value == 1
            assert counter(gateway, "faults.kills") == 1
            assert (
                counter(gateway, "gateway.sessions_recovered") - recovered0
                == len(victims)
            )
            assert counter(gateway, "gateway.workers_respawned") - respawned0 == 1
        finally:
            for c in clients:
                try:
                    c.close()
                except Exception:  # noqa: BLE001 - teardown best effort
                    pass

    def test_journal_empties_after_clean_leaves(self, gateway):
        # The previous test's clients all left in teardown; once the
        # departures land the pool is entirely reclaimable.
        assert gateway.journal.total_sessions == 0
        assert all(n == 0 for n in gateway.journal.load().values())


class TestHangRecovery:
    def test_hung_worker_is_killed_and_sessions_resume(self, gateway):
        host, port = gateway.address
        faults = ProcessFaults(seed=5, registry=gateway.registry)
        hung0 = counter(gateway, "gateway.workers_hung")
        with WindtunnelClient(host, port, name="hangmark") as c:
            fetch_all_within([c], JOIN_DEADLINE)
            worker = gateway.journal.worker_of(c.client_id)
            faults.hang(gateway.supervisor.address_of(worker), 30.0)
            # The wedged worker still *accepts* connections — only the
            # liveness deadline can tell it from a busy one.  The next
            # frame times out at the gateway, the client rejoins, and the
            # supervisor's probe misses convert the hang into a respawn.
            frames = fetch_all_within([c], RECOVER_DEADLINE)
            assert frames[c]["timestep"] >= 0
            assert c.rejoins >= 1
        assert faults.hangs.value == 1
        assert counter(gateway, "gateway.workers_hung") - hung0 == 1


class TestKillWhileParked:
    def test_sigkill_with_a_routed_frame_parked_on_the_worker(self):
        """The worker dies holding a deferred ``wt.frame``: the blocked
        forward fails once, the client sees ``SessionExpiredError``,
        rejoins, and is served a frame of the journaled clock."""
        gw = SessionGateway(
            # Generous waits: the production below is deliberately long.
            default_worker_spec(frame_wait=30.0),
            n_workers=1,
            heartbeat_interval=0.2,
            recovery_wait=20.0,
            route_timeout=40.0,
        )
        with gw:
            faults = ProcessFaults(seed=3, registry=gw.registry)
            with WindtunnelClient(*gw.address, name="parked") as c:
                c.time_control("pause")
                journaled = c.time_control("step", 1)["timestep"]
                # Many seeds: production takes long enough to be caught
                # mid-flight, with the call parked the whole time.
                rids = [
                    c.add_rake((-1.0, y, 0.5), (1.0, y, 0.5), n_seeds=1500)
                    for y in (-1.0, 1.0)
                ]
                got = {}
                t = threading.Thread(
                    target=lambda: got.update(frame=c.fetch_frame()),
                    daemon=True,
                )
                with DlibClient(*gw.supervisor.address_of("w0")) as direct:
                    t.start()
                    wait_until(
                        lambda: direct.call("wt.stats")["frame_waiters"] == 1,
                        timeout=JOIN_DEADLINE,
                        interval=0.001,
                    )
                    faults.kill(gw.supervisor.handle_of("w0"))
                t.join(timeout=RECOVER_DEADLINE)
                assert not t.is_alive()

                assert c.rejoins == 1
                frame = got["frame"]
                assert frame["timestep"] == journaled
                assert frame["env"]["clock"]["playing"] is False
                assert set(frame["paths"]) == {str(r) for r in rids}

            assert faults.kills.value == 1
            assert counter(gw, "gateway.forward_failures") == 1
            assert counter(gw, "gateway.workers_respawned") == 1
            assert counter(gw, "gateway.sessions_recovered") == 1
            assert counter(gw, "gateway.rejoins") == 1


    def test_sigkill_with_paced_calls_parked_on_the_worker(self):
        """The worker dies holding a push session's paced calls: they
        fail as ``SessionExpiredError``, the next drain rejoins and
        re-arms, and frames keep arriving.  The new worker holds the
        credit as parked calls and no more: once the session leaves, a
        new key is produced for nobody."""
        gw = SessionGateway(
            default_worker_spec(), n_workers=1, heartbeat_interval=0.2,
            recovery_wait=20.0,
        )
        with gw:
            faults = ProcessFaults(seed=3, registry=gw.registry)

            def waiters():
                with DlibClient(*gw.supervisor.address_of("w0")) as direct:
                    return direct.call("wt.stats")["frame_waiters"]

            with WindtunnelClient(*gw.address, name="paced") as c:
                c.time_control("pause")
                rid = c.add_rake((-1.0, 0.0, 0.5), (1.0, 0.0, 0.5), n_seeds=8)
                assert c.subscribe(push=True)["push"] is True
                wait_until(lambda: c.drain_pushes(0.05) >= 0 and c.pushed_frames)
                wait_until(lambda: waiters() == FRAME_CREDIT)
                faults.kill(gw.supervisor.handle_of("w0"))
                wait_until(
                    lambda: c.drain_pushes(0.05) >= 0 and c.rejoins == 1,
                    timeout=RECOVER_DEADLINE,
                )
                for _ in range(2):
                    frames = c.pushed_frames
                    c.time_control("step", 1)
                    wait_until(
                        lambda: c.drain_pushes(0.05) >= 0 and c.pushed_frames > frames
                    )
                assert str(rid) in c.latest_state["paths"]
                wait_until(lambda: c.drain_pushes(0.05) >= 0 and waiters() == FRAME_CREDIT)
            assert waiters() == 0
            with WindtunnelClient(*gw.address, name="bystander") as b:
                with DlibClient(*gw.supervisor.address_of("w0")) as direct:
                    before = direct.call("wt.pipeline_stats")
                    b.time_control("step", 1)
                    wait_until(
                        lambda: direct.call("wt.pipeline_stats")["idle_cycles"]
                        > before["idle_cycles"] + 1
                    )
                    after = direct.call("wt.pipeline_stats")
                    assert after["frames_produced"] == before["frames_produced"]

            assert faults.kills.value == 1
            assert counter(gw, "gateway.workers_respawned") == 1
            assert counter(gw, "gateway.rejoins") == 1


#: Fetches a healthy worker's session completes while the other
#: worker's session is parked at the gateway.
BYSTANDER_FETCHES = 20


def _seat_one_on_each(gw):
    """Two clients, one per worker: ``{worker: client}``."""
    clients = [WindtunnelClient(*gw.address, name=f"seat{i}") for i in range(2)]
    seats = {gw.journal.worker_of(c.client_id): c for c in clients}
    assert set(seats) == {"w0", "w1"}
    for c in clients:
        c.fetch_frame()
    return seats


def _respawn(gw, worker):
    """Sweep (the heartbeat is parked) until ``worker`` is a new incarnation."""
    generation = gw.supervisor.generation_of(worker)

    def respawned():
        gw.supervisor.sweep()
        return gw.supervisor.generation_of(worker) > generation

    wait_until(respawned, timeout=RECOVER_DEADLINE, interval=0.05)


class TestRelayIsolation:
    """The supervisor only sweeps when the test says so, and every
    deadline is far away: each step is decided by what has happened."""

    def test_a_parked_rejoin_stalls_no_other_worker(self):
        gw = SessionGateway(
            default_worker_spec(), n_workers=2, heartbeat_interval=3600.0,
            recovery_wait=60.0, route_timeout=60.0,
        )
        with gw:
            seats = _seat_one_on_each(gw)
            victim = gw.supervisor.handle_of("w0")
            ProcessFaults(seed=17, registry=gw.registry).kill(victim)
            victim.process.join(timeout=RECOVER_DEADLINE)
            errors0 = counter(gw, "dlib.call_errors")
            got = {}
            t = threading.Thread(
                target=lambda: got.update(frame=seats["w0"].fetch_frame()),
                daemon=True,
            )
            t.start()
            # The fetch fails on the dead worker (its error reply is
            # out), and then the client's rejoin parks: w0 stays down
            # until the sweep below.
            wait_until(lambda: counter(gw, "dlib.call_errors") == errors0 + 1
                       and gw.dlib.parked_count == 1, timeout=JOIN_DEADLINE)
            assert counter(gw, "gateway.forward_failures") == 1
            for _ in range(BYSTANDER_FETCHES):
                assert seats["w1"].fetch_frame()["timestep"] >= 0
            assert t.is_alive() and gw.dlib.parked_count == 1
            assert counter(gw, "gateway.rejoins") == 0
            _respawn(gw, "w0")
            t.join(timeout=RECOVER_DEADLINE)
            assert not t.is_alive()
            assert got["frame"]["timestep"] >= 0
            assert seats["w0"].rejoins == 1 and seats["w1"].rejoins == 0
            assert counter(gw, "gateway.rejoins") == 1
            for c in seats.values():
                c.close()

    def test_a_hung_worker_stalls_only_its_own_sessions(self):
        gw = SessionGateway(
            default_worker_spec(allow_chaos=True), n_workers=2,
            heartbeat_interval=3600.0, recovery_wait=60.0, route_timeout=60.0,
        )
        with gw:
            seats = _seat_one_on_each(gw)
            faults = ProcessFaults(seed=19, registry=gw.registry)
            faults.hang(gw.supervisor.address_of("w0"), 60.0)
            got = {}
            t = threading.Thread(
                target=lambda: got.update(frame=seats["w0"].fetch_frame()),
                daemon=True,
            )
            t.start()
            wait_until(lambda: gw.dlib.parked_count == 1, timeout=JOIN_DEADLINE)
            for _ in range(BYSTANDER_FETCHES):
                assert seats["w1"].fetch_frame()["timestep"] >= 0
            # w0's forward is still pending: nothing has failed yet.
            assert t.is_alive() and gw.dlib.parked_count == 1
            assert counter(gw, "gateway.forward_failures") == 0
            # Then it fails as it always has: the worker dies under it,
            # the client sees SessionExpiredError and rejoins.
            victim = gw.supervisor.handle_of("w0")
            faults.kill(victim)
            victim.process.join(timeout=RECOVER_DEADLINE)
            _respawn(gw, "w0")
            t.join(timeout=RECOVER_DEADLINE)
            assert not t.is_alive()
            assert got["frame"]["timestep"] >= 0
            assert seats["w0"].rejoins == 1 and seats["w1"].rejoins == 0
            assert counter(gw, "gateway.forward_failures") == 1
            for c in seats.values():
                c.close()


class TestDraggedRakeRecovery:
    def test_released_drag_survives_a_worker_kill(self, gateway):
        """``wt.update`` journals the geometry when a grab ends, so a
        respawned worker restores the rake where the drag left it."""
        head = (0.0, -3.0, 0.5)
        with WindtunnelClient(*gateway.address, name="dragger") as c:
            # Well clear of the rakes earlier tests left in the pool.
            rid = c.add_rake((-2.0, -1.0, 2.5), (-2.0, 1.0, 2.5), n_seeds=3)
            assert c.send_input(head, (-2.0, 0.0, 2.5), "fist")["holding"] == [
                rid, "center",
            ]
            assert "released" not in c.send_input(head, (-1.0, 0.0, 2.5), "fist")
            released = c.send_input(head, (-1.0, 0.0, 2.5), "open")["released"]
            assert released["rake_id"] == rid

            def geometry():
                rake = c._call("wt.snapshot", c.client_id)["rakes"][str(rid)]
                return rake["end_a"], rake["end_b"]

            dragged = geometry()
            assert dragged == ([-1.0, -1.0, 2.5], [-1.0, 1.0, 2.5])
            assert (released["rake"]["end_a"], released["rake"]["end_b"]) == dragged

            worker = gateway.journal.worker_of(c.client_id)
            gateway.supervisor.mark_suspect(worker)  # so the wait below waits
            ProcessFaults(seed=7).kill(gateway.supervisor.handle_of(worker))
            wait_until(lambda: gateway.supervisor.is_ready(worker), RECOVER_DEADLINE)
            c.rejoin()
            assert geometry() == dragged


class TestStreaklineFailover:
    def test_adopting_worker_serves_the_same_streakline_frame(self):
        """A streakline is a function of its key: the respawned worker,
        which never saw the timesteps played before the kill, serves the
        frame the dead one did."""
        gw = SessionGateway(
            default_worker_spec(), n_workers=1, heartbeat_interval=0.2,
            recovery_wait=20.0,
        )
        with gw, WindtunnelClient(*gw.address, name="smoke") as c:
            rid = str(c.add_rake(
                (-1.0, -1.0, 0.5), (-1.0, 1.0, 0.5), n_seeds=4, kind="streakline"
            ))
            c.time_control("pause")
            c.time_control("scrub", 0)
            for _ in range(3):  # play 0 -> 3, a frame at each timestep
                c.time_control("step", 1)
                before = c.fetch_frame()
            assert before["timestep"] == 3
            assert before["paths"][rid]["vertices"].shape[1] == 4

            gw.supervisor.mark_suspect("w0")  # so the wait below waits
            ProcessFaults(seed=13).kill(gw.supervisor.handle_of("w0"))
            wait_until(lambda: gw.supervisor.is_ready("w0"), RECOVER_DEADLINE)
            c.rejoin()
            after = c.fetch_frame()
            assert after["timestep"] == before["timestep"]
            for field in ("vertices", "lengths"):
                np.testing.assert_array_equal(
                    after["paths"][rid][field], before["paths"][rid][field]
                )
