"""The session gateway: journal, admission, capacity model, routing.

Chaos (kill/hang recovery) lives in test_gateway_chaos.py; this file
covers the deterministic pieces — unit behavior of the journal and the
admission ladder, the capacity model's arithmetic, client-side
per-call retries, and plain multi-worker routing through a live
gateway.
"""

import threading
import time

import pytest

from repro.dlib import DlibRemoteError, RetryPolicy
from repro.dlib.client import DlibClient
from repro.dlib.protocol import RetryAfterError
from repro.dlib.server import DlibServer
from repro.gateway import (
    AdmissionController,
    SessionGateway,
    SessionJournal,
    ShedLevel,
    default_worker_spec,
)
from repro.netsim import ProcessFaults
from repro.obs import MetricsRegistry

from tests import wait_until


class TestSessionJournal:
    def test_join_routes_and_leave_forgets(self):
        j = SessionJournal()
        j.record_join("w0", 1, "alice", "tok1")
        j.record_join("w1", 2, "bob", "tok2")
        assert j.worker_of(1) == "w0" and j.worker_of(2) == "w1"
        assert j.load() == {"w0": 1, "w1": 1}
        assert j.total_sessions == 2
        j.record_leave(1)
        assert j.worker_of(1) is None
        assert j.load()["w0"] == 0

    def test_recovery_state_carries_everything(self):
        j = SessionJournal()
        j.record_join("w0", 1, "alice", "tok1")
        j.record_subscribe(1, {"encoding": "q16", "deltas": True})
        j.record_add_rake(1, 7, {"end_a": [0, 0, 0]})
        j.record_clock("w0", {"position": 3.5, "playing": False})
        j.record_tool_settings("w0", {"streamline_steps": 9})
        state = j.recovery_state("w0")
        assert state["sessions"][0]["token"] == "tok1"
        assert state["sessions"][0]["subscription"]["encoding"] == "q16"
        assert state["rakes"]["7"]["end_a"] == [0, 0, 0]
        assert state["clock"]["playing"] is False
        assert state["tool_settings"]["streamline_steps"] == 9

    def test_removed_rake_leaves_recovery_state(self):
        j = SessionJournal()
        j.record_join("w0", 1, "a", "t")
        j.record_add_rake(1, 5, {"k": 1})
        j.record_remove_rake(5)
        assert j.recovery_state("w0")["rakes"] == {}

    def test_unknown_worker_recovers_to_empty(self):
        state = SessionJournal().recovery_state("w9")
        assert state["sessions"] == [] and state["rakes"] == {}

    def test_checkpoint_survives_restart(self, tmp_path):
        path = str(tmp_path / "journal.json")
        j = SessionJournal(path)
        j.record_join("w0", 1, "alice", "tok1")
        j.record_add_rake(1, 3, {"end_a": [1, 2, 3]})
        j.record_clock("w0", {"position": 1.0})
        reloaded = SessionJournal(path)
        assert reloaded.worker_of(1) == "w0"
        state = reloaded.recovery_state("w0")
        assert state["sessions"][0]["token"] == "tok1"
        assert state["rakes"]["3"]["end_a"] == [1, 2, 3]


class TestAdmissionController:
    def make(self, **kw):
        kw.setdefault("registry", MetricsRegistry())
        return AdmissionController(**kw)

    def test_places_least_loaded_ready_worker(self):
        adm = self.make(max_sessions_per_worker=4)
        load = {"w0": 3, "w1": 1, "w2": 2}
        assert adm.place(load, ["w0", "w1", "w2"]) == "w1"
        assert adm.place(load, ["w0", "w2"]) == "w2"

    def test_worker_budget_refusal_is_typed(self):
        adm = self.make(max_sessions_per_worker=2, retry_after=3.0)
        with pytest.raises(RetryAfterError) as exc:
            adm.place({"w0": 2}, ["w0"])
        assert exc.value.retry_after == 3.0
        assert exc.value.wire_data["reason"] == "worker_capacity"
        assert adm.registry.snapshot()["counters"][
            "gateway.admission.rejected"
        ] == 1

    def test_global_cap(self):
        adm = self.make(max_sessions_per_worker=8, max_sessions_total=3)
        with pytest.raises(RetryAfterError) as exc:
            adm.place({"w0": 2, "w1": 1}, ["w0", "w1"])
        assert exc.value.wire_data["reason"] == "global_capacity"

    def test_ladder_escalates_and_clears_with_hysteresis(self):
        adm = self.make()
        assert adm.update({"w0": 0.2}) == ShedLevel.SERVE
        assert adm.update({"w0": 0.9, "w1": 0.1}) == ShedLevel.REJECT_NEW
        # Inside the hysteresis band: the level holds.
        assert adm.update({"w0": 0.8}) == ShedLevel.REJECT_NEW
        assert adm.update({"w0": 0.99}) == ShedLevel.THROTTLE
        assert adm.update({"w0": 0.9}) == ShedLevel.THROTTLE
        assert adm.update({"w0": 0.8}) == ShedLevel.REJECT_NEW
        assert adm.update({"w0": 0.5}) == ShedLevel.SERVE

    def test_shedding_rejects_new_sessions(self):
        adm = self.make()
        adm.update({"w0": 0.9})
        with pytest.raises(RetryAfterError) as exc:
            adm.place({"w0": 0}, ["w0"])
        assert exc.value.wire_data["reason"] == "shedding"

    def test_throttle_gates_frames_with_residual_wait(self):
        clock = {"t": 0.0}
        adm = self.make(min_frame_interval=0.5, time_fn=lambda: clock["t"])
        adm.update({"w0": 1.0})  # THROTTLE
        adm.admit_frame(1)  # first frame passes
        clock["t"] = 0.2
        with pytest.raises(RetryAfterError) as exc:
            adm.admit_frame(1)
        assert exc.value.retry_after == pytest.approx(0.3)
        clock["t"] = 0.6
        adm.admit_frame(1)  # interval elapsed
        # Below THROTTLE the gate is wide open again.
        adm.update({"w0": 0.1})
        clock["t"] = 0.61
        adm.admit_frame(1)

    def test_note_leave_frees_throttle_state(self):
        adm = self.make()
        adm.update({"w0": 1.0})
        adm.admit_frame(42)
        adm.note_leave(42)
        assert 42 not in adm._last_frame


class TestProcessFaults:
    def test_choose_is_seeded(self):
        a = ProcessFaults(seed=3)
        b = ProcessFaults(seed=3)
        victims = ["w0", "w1", "w2", "w3"]
        seq_a = [a.choose(victims) for _ in range(8)]
        seq_b = [b.choose(victims) for _ in range(8)]
        assert seq_a == seq_b
        with pytest.raises(ValueError):
            a.choose([])

    def test_kill_is_sigkill(self):
        import multiprocessing

        proc = multiprocessing.get_context().Process(
            target=time.sleep, args=(60,), daemon=True
        )
        proc.start()
        registry = MetricsRegistry()
        faults = ProcessFaults(registry=registry)
        faults.kill(proc)
        proc.join(timeout=10)
        assert not proc.is_alive()
        assert proc.exitcode == -9
        assert faults.kills.value == 1
        assert registry.snapshot()["counters"]["faults.kills"] == 1


class TestRetryAfterError:
    def test_wire_data_shape(self):
        err = RetryAfterError("busy", retry_after=2.5, reason="capacity")
        assert err.wire_data == {"retry_after": 2.5, "reason": "capacity"}

    def test_crosses_the_wire_typed(self):
        server = DlibServer("127.0.0.1", 0)

        def refuse(ctx):
            raise RetryAfterError("later", retry_after=1.5, reason="test")

        server.register("refuse", refuse)
        server.start()
        try:
            with DlibClient(*server.address) as client:
                with pytest.raises(DlibRemoteError) as exc:
                    client.call("refuse")
                assert exc.value.remote_type == "RetryAfterError"
                assert exc.value.retry_after == 1.5
                assert exc.value.data["reason"] == "test"
        finally:
            server.stop()


class TestClientResilience:
    """Per-call retries against a dead endpoint: bounded, and counted."""

    def _dead_client(self, **retry_kw):
        """A client whose server dies right after the handshake."""
        server = DlibServer("127.0.0.1", 0)
        server.register("echo", lambda ctx, x: x)
        server.start()
        client = DlibClient(
            *server.address,
            retry=RetryPolicy(base_delay=0.005, jitter=0.0, **retry_kw),
            idempotent={"echo"},
        )
        server.stop()
        return client

    def test_retries_are_bounded_per_call(self):
        client = self._dead_client(max_attempts=3)
        with pytest.raises((ConnectionError, OSError)):
            client.call("echo", 1)
        assert client.retries == 2  # max_attempts counts the first try
        assert client.retries_exhausted == 1
        # Each call gets its own attempts: no lifetime budget runs out.
        with pytest.raises((ConnectionError, OSError)):
            client.call("echo", 2)
        assert client.retries == 4
        assert client.retries_exhausted == 2
        client.close()

    def test_non_idempotent_calls_are_never_reissued(self):
        client = self._dead_client(max_attempts=3)
        with pytest.raises((ConnectionError, OSError)):
            client.call("not-echo")
        assert client.retries == 0 and client.retries_exhausted == 0
        client.close()

    def test_exhaustion_lands_in_registry(self):
        registry = MetricsRegistry()
        client = self._dead_client(max_attempts=2)
        client.registry = registry
        with pytest.raises((ConnectionError, OSError)):
            client.call("echo", 1)
        assert registry.snapshot()["counters"]["client.retries_exhausted"] == 1
        client.close()


class TestWorkerSpec:
    def test_unknown_key_is_rejected_by_name(self):
        for stale in (
            {"pipelined": False}, {"frame_wiat": 2.0},
            # The engine runs one kernel: no selector to accept and crash on.
            {"backend": "parallel"}, {"workers": 2},
        ):
            (key,) = stale
            with pytest.raises(ValueError) as exc:
                default_worker_spec(**stale)
            assert repr(key) in str(exc.value)
            assert "frame_wait" in str(exc.value)  # the known set is named
            with pytest.raises(ValueError, match=key):
                SessionGateway(spec=stale)

    def test_benchmark_keys_still_apply(self):
        # The three keys benchmarks/e2e passes.
        spec = default_worker_spec(
            shape=(16, 16, 8), n_timesteps=8, frame_wait=2.0
        )
        assert spec["shape"] == (16, 16, 8)
        assert spec["n_timesteps"] == 8 and spec["frame_wait"] == 2.0
        assert spec["dt"] == default_worker_spec()["dt"]  # the rest default
        gw = SessionGateway(spec={"frame_wait": 2.0}, n_workers=1)
        assert gw.supervisor.spec == default_worker_spec(frame_wait=2.0)


@pytest.fixture(scope="module")
def gateway():
    gw = SessionGateway(
        default_worker_spec(),
        n_workers=2,
        heartbeat_interval=0.25,
        liveness_deadline=2.0,
        max_sessions_per_worker=8,
    )
    with gw:
        yield gw


class TestGatewayRouting:
    def test_joins_spread_across_workers(self, gateway):
        from repro.core import WindtunnelClient

        host, port = gateway.address
        with WindtunnelClient(host, port, name="a") as a:
            with WindtunnelClient(host, port, name="b") as b:
                assert a.client_id != b.client_id
                wa = gateway.journal.worker_of(a.client_id)
                wb = gateway.journal.worker_of(b.client_id)
                assert {wa, wb} == {"w0", "w1"}
                # Both sessions get real frames through the proxy.
                assert a.fetch_frame()["timestep"] >= 0
                assert b.fetch_frame()["timestep"] >= 0
        assert gateway.journal.total_sessions == 0  # clean leaves recorded

    def test_rakes_route_and_journal(self, gateway):
        from repro.core import WindtunnelClient

        host, port = gateway.address
        with WindtunnelClient(host, port, name="raker") as c:
            rid = c.add_rake((0, 0, 0), (1, 1, 1), n_seeds=3)
            worker = gateway.journal.worker_of(c.client_id)
            assert str(rid) in {
                str(k)
                for k in gateway.journal.recovery_state(worker)["rakes"]
            }
            state = c.fetch_frame()
            assert str(rid) in state["paths"]
            c.remove_rake(rid)
            assert gateway.journal.recovery_state(worker)["rakes"] == {}

    def test_workers_run_the_figure8_pipeline(self, gateway):
        """A routed ``wt.frame`` miss parks on the worker and is resolved
        by its producer thread — the same path a bare server runs."""
        from repro.core import WindtunnelClient

        host, port = gateway.address
        with WindtunnelClient(host, port, name="fig8") as c:
            c.add_rake((0, 0, 0), (1, 1, 1), n_seeds=3)
            c.time_control("pause")  # no clock tick between the two reads
            c.time_control("step", 1)
            assert c.fetch_frame()["cached"] is False
            assert c.fetch_frame()["cached"] is True
            stats = c.pipeline_stats()
            assert stats["frames_encoded"] == stats["frames_produced"] >= 1
            assert stats["requests"] >= 1  # the miss registered a waiter
            # The producer thread is live: it keeps polling while idle.
            wait_until(
                lambda: c.pipeline_stats()["idle_cycles"] > stats["idle_cycles"]
            )
            worker = gateway.journal.worker_of(c.client_id)
            with DlibClient(*gateway.supervisor.address_of(worker)) as direct:
                assert direct.call("wt.health")["pipeline_alive"] is True
            c.time_control("resume")

    def test_subscription_and_clock_journal(self, gateway):
        from repro.core import WindtunnelClient

        host, port = gateway.address
        with WindtunnelClient(host, port, name="subber") as c:
            info = c.subscribe(encoding="q16", deltas=True)
            assert info["encoding"] == "q16"
            c.time_control("pause")
            worker = gateway.journal.worker_of(c.client_id)
            state = gateway.journal.recovery_state(worker)
            entry = next(
                s for s in state["sessions"]
                if s["client_id"] == c.client_id
            )
            assert entry["subscription"] == {
                "encoding": "q16", "deltas": True, "push": False,
                "rakes": None, "kinds": None,
            }
            assert state["clock"]["playing"] is False
            c.time_control("resume")

    def test_push_subscription_is_paced_through_the_front_door(self, gateway):
        """A push session's paced ``wt.frame`` calls ride the relay like
        any other reply: the journal keeps ``push: True``, the worker
        holds the session's credit as parked calls, and each step's
        frame arrives as a delta with no fetch."""
        from repro.core import WindtunnelClient
        from repro.core.delivery import FRAME_CREDIT

        host, port = gateway.address
        with WindtunnelClient(host, port, name="pusher") as c:
            c.time_control("pause")
            rid = c.add_rake((0, 0, 0), (1, 1, 1), n_seeds=3)
            info = c.subscribe(encoding="q16", push=True)
            assert info["push"] is True
            journaled = gateway.journal.session(c.client_id)["subscription"]
            assert journaled["encoding"] == "q16" and journaled["push"] is True
            wait_until(
                lambda: c.drain_pushes(0.05) >= 0
                and c.latest_state is not None
                and str(rid) in c.latest_state["paths"]
            )
            worker = gateway.journal.worker_of(c.client_id)
            with DlibClient(*gateway.supervisor.address_of(worker)) as direct:
                assert direct.call("wt.stats")["push_subscriptions"] == 1
                wait_until(
                    lambda: c.drain_pushes(0.05) >= 0
                    and direct.call("wt.stats")["frame_waiters"] == FRAME_CREDIT
                )
            for _ in range(3):
                frames = c.pushed_frames
                c.time_control("step", 1)
                wait_until(
                    lambda: c.drain_pushes(0.05) >= 0 and c.pushed_frames > frames
                )
            state = c.latest_state
            assert state["v2"]["encoding"] == "q16" and state["v2"]["mode"] == "delta"
            assert state["timestep"] == c.time_control("pause")["timestep"]
            c.time_control("resume")

    def test_paced_calls_pass_the_frame_throttle(self, gateway):
        """At THROTTLE a pulling session's back-to-back frames are refused
        with the residual wait, while a push session's paced calls pass:
        its frames keep coming and none of its calls is throttled."""
        from repro.core import WindtunnelClient
        from repro.gateway import ShedLevel

        host, port = gateway.address
        adm = gateway.admission
        throttled = adm.registry.counter("gateway.admission.throttled")
        interval, update = adm.min_frame_interval, adm.update
        saturated, sweeps = threading.Event(), []

        def sweep(saturations):  # each health sweep feeds admission here
            sweeps.append(1)
            return update({"forced": 1.0} if saturated.is_set() else saturations)

        with WindtunnelClient(host, port, name="pusher") as push, \
             WindtunnelClient(host, port, name="puller") as pull:
            push.time_control("pause")
            push.add_rake((0, 0, 0), (1, 1, 1), n_seeds=3)
            assert push.subscribe(push=True)["push"] is True
            wait_until(lambda: push.drain_pushes(0.05) >= 0 and push.pushed_frames)
            pull.fetch_frame()
            try:
                adm.min_frame_interval = 30.0
                saturated.set()
                adm.update = sweep
                wait_until(lambda: adm.level == ShedLevel.THROTTLE)
                pull.fetch_frame()  # the interval's one frame
                with pytest.raises(DlibRemoteError) as refused:
                    pull.fetch_frame()
                assert refused.value.remote_type == "RetryAfterError"
                before = throttled.value
                for _ in range(3):
                    frames = push.pushed_frames
                    push.time_control("step", 1)
                    wait_until(
                        lambda: push.drain_pushes(0.05) >= 0
                        and push.pushed_frames > frames
                    )
                assert throttled.value == before
            finally:
                # Two sweeps on: one that read the flag before it cleared
                # is overwritten, so the next test joins at SERVE.
                saturated.clear()
                after = len(sweeps)
                wait_until(lambda: len(sweeps) > after + 1)
                del adm.update  # the class's method again
                adm.min_frame_interval = interval
                assert adm.level == ShedLevel.SERVE
            push.time_control("resume")

    def test_gateway_stats_shape(self, gateway):
        from repro.core import WindtunnelClient

        host, port = gateway.address
        with WindtunnelClient(host, port, name="watcher") as c:
            stats = c.server_stats()
            assert stats["gateway"] is True
            assert set(stats["load"]) == {"w0", "w1"}
            assert stats["shed_level"] == 0
            metrics = c.metrics()
            assert "gateway.sessions_admitted" in metrics["registry"]["counters"]

    def test_unknown_session_is_terminal(self, gateway):
        with DlibClient(*gateway.address) as raw:
            with pytest.raises(DlibRemoteError) as exc:
                raw.call("wt.frame", 424242)
            assert exc.value.remote_type == "KeyError"


class TestSupervisorDeadPipeline:
    def test_dead_pipeline_probe_walks_the_hang_ladder(self, monkeypatch):
        """A worker that answers ``pipeline_alive: False`` can never
        publish again: the supervisor counts the probe as failed and,
        after ``probe_failures_to_kill`` of them, kills and respawns."""
        from repro.core import WindtunnelClient

        gw = SessionGateway(
            n_workers=1,
            heartbeat_interval=3600.0,  # sweeps are driven by hand below
            probe_failures_to_kill=2,
        )
        with gw:
            sup = gw.supervisor
            sup.sweep()
            assert sup.healths()["w0"]["pipeline_alive"] is True
            generation, pid = sup.generation_of("w0"), sup.handle_of("w0").pid
            real_probe = sup._probe
            monkeypatch.setattr(
                sup, "_probe",
                lambda slot: {**real_probe(slot), "pipeline_alive": False},
            )
            sup.sweep()  # one bad answer is weather
            assert sup.generation_of("w0") == generation
            sup.sweep()  # two in a row is a wedge
            monkeypatch.undo()
            assert sup.generation_of("w0") == generation + 1
            assert sup.handle_of("w0").pid != pid
            counters = gw.registry.snapshot()["counters"]
            assert counters["gateway.workers_hung"] == 1
            assert counters["gateway.workers_respawned"] == 1
            assert counters["gateway.worker.w0.respawns.hang"] == 1
            with WindtunnelClient(*gw.address, name="after") as c:
                assert c.fetch_frame()["timestep"] >= 0


class TestGatewayAdmissionLive:
    def test_capacity_refusal_is_fast_and_typed(self):
        gw = SessionGateway(
            default_worker_spec(),
            n_workers=1,
            max_sessions_per_worker=1,
            retry_after=2.0,
        )
        from repro.core import WindtunnelClient

        with gw:
            host, port = gw.address
            with WindtunnelClient(host, port, name="first"):
                t0 = time.monotonic()
                with pytest.raises(DlibRemoteError) as exc:
                    WindtunnelClient(host, port, name="second")
                elapsed = time.monotonic() - t0
                assert exc.value.remote_type == "RetryAfterError"
                assert exc.value.retry_after == 2.0
                assert exc.value.data["reason"] == "worker_capacity"
                assert elapsed < 2.0  # refusal, not a hang
            # The seat freed on leave: admission recovers.
            with WindtunnelClient(host, port, name="third") as c:
                assert c.fetch_frame()["timestep"] >= 0


class TestGatewaySerialSafety:
    def test_concurrent_clients_interleave_cleanly(self, gateway):
        """Several clients hammering through the proxy stay isolated."""
        from repro.core import WindtunnelClient

        host, port = gateway.address
        errors = []

        def session(tag):
            try:
                with WindtunnelClient(host, port, name=tag) as c:
                    rid = c.add_rake((0, 0, 0), (1, 1, 1), n_seeds=2)
                    for _ in range(3):
                        state = c.fetch_frame()
                        assert str(rid) in state["paths"]
                    c.remove_rake(rid)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append((tag, exc))

        threads = [
            threading.Thread(target=session, args=(f"t{i}",))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []


def _instrument(server, worker, log, parked=(), park=frozenset()):
    """Log ``server``'s windtunnel calls in the order it serves them.

    Calls named in ``park`` wait at the worker until the test releases
    them (``(worker, name, deferred, run)`` lands on ``parked``): only
    the test decides when they finish.
    """
    procedures = server.dlib._procedures
    for name in ("wt.adopt", "wt.frame", "wt.add_rake", "wt.update"):
        def wrapped(ctx, *args, _fn=procedures[name], _name=name):
            log.append((_name, args[0]))
            if _name not in park:
                return _fn(ctx, *args)
            deferred = server.dlib.defer()
            parked.append((worker, _name, deferred, lambda: _fn(ctx, *args)))
            return deferred

        server.dlib.register(name, wrapped)


def _release(server, entry):
    """Run a parked call's real procedure on its worker's loop."""
    _worker, _name, deferred, run = entry
    server.dlib.call_soon(lambda: deferred.resolve(run()))


@pytest.fixture
def relay_pool(monkeypatch):
    """A two-worker gateway whose relay dials in-process servers.

    The supervisor's worker processes stay up but idle; routing goes to
    a :class:`~repro.core.server.WindtunnelServer` per slot in this
    process, which the test can instrument.
    """
    from repro import WindtunnelServer, tapered_cylinder_dataset

    gw = SessionGateway(default_worker_spec(), n_workers=2, heartbeat_interval=3600.0)
    with gw:
        servers = {}
        try:
            for worker in gw.supervisor.worker_names:
                servers[worker] = WindtunnelServer(
                    tapered_cylinder_dataset(shape=(12, 12, 6), n_timesteps=4)
                ).start()
            monkeypatch.setattr(
                gw.supervisor, "address_of", lambda worker: servers[worker].address
            )
            yield gw, servers
        finally:
            for server in servers.values():
                server.stop()


def _grab_conflict(a, b) -> list:
    """A holds a rake, B reaches for it, A lets go, B takes it."""
    a.add_rake((-1.0, -1.0, 0.5), (-1.0, 1.0, 0.5), n_seeds=3)
    head, center = (0.0, -3.0, 0.5), (-1.0, 0.0, 0.5)
    return [
        a.send_input(head, center, "fist")["holding"],
        b.send_input(head, center, "fist")["holding"],
        a.send_input(head, center, "open")["released"]["rake_id"],
        b.send_input(head, center, "fist")["holding"],
    ]


class TestGatewayRelay:
    """FCFS and placement survive the non-blocking relay."""

    def test_a_parked_frame_holds_back_no_later_call(self, relay_pool):
        from repro.core import WindtunnelClient

        gw, servers = relay_pool
        gw.supervisor.mark_suspect("w1")  # seat both sessions on w0
        log, parked = [], []
        with DlibClient(*gw.address) as a, WindtunnelClient(*gw.address, name="b") as b:
            cid_a = a.call("wt.join", "a")["client_id"]
            assert gw.journal.worker_of(cid_a) == gw.journal.worker_of(b.client_id) == "w0"
            _instrument(servers["w0"], "w0", log, parked, park={"wt.frame"})
            got = {}
            t = threading.Thread(
                target=lambda: got.update(frame=a.call("wt.frame", cid_a)), daemon=True
            )
            t.start()
            wait_until(lambda: parked)
            # A's frame sits at the worker until the test lets it go, so
            # everything below completes while it is parked.
            rid = b.add_rake((1.0, -1.0, 0.5), (1.0, 1.0, 0.5), n_seeds=3)
            holding = b.send_input((0.0, -3.0, 0.5), (1.0, 0.0, 0.5), "fist")["holding"]
            assert holding == [rid, "center"]
            assert t.is_alive() and gw.dlib.parked_count == 1
            parked[0][2].resolve("held")
            t.join(timeout=10)
            assert got == {"frame": "held"}
        assert log == [
            ("wt.frame", cid_a),
            ("wt.add_rake", b.client_id),
            ("wt.update", b.client_id),
        ]

    def test_a_grab_conflict_resolves_as_at_a_bare_server(self, relay_pool):
        from repro import WindtunnelServer, tapered_cylinder_dataset
        from repro.core import WindtunnelClient

        with WindtunnelServer(
            tapered_cylinder_dataset(shape=(12, 12, 6), n_timesteps=4)
        ) as bare:
            with WindtunnelClient(*bare.address, name="a") as a, \
                    WindtunnelClient(*bare.address, name="b") as b:
                expected = _grab_conflict(a, b)
        gw, _servers = relay_pool
        gw.supervisor.mark_suspect("w1")
        with WindtunnelClient(*gw.address, name="a") as a, \
                WindtunnelClient(*gw.address, name="b") as b:
            assert gw.journal.worker_of(a.client_id) == gw.journal.worker_of(b.client_id)
            assert _grab_conflict(a, b) == expected
        rid = expected[2]
        assert expected[0] == expected[3] == [rid, "center"]
        assert expected[1] != expected[0]  # B lost the race it came second to

    def test_overlapping_joins_are_placed_as_if_served_in_turn(self, relay_pool):
        gw, servers = relay_pool
        log, parked = [], []
        for worker, server in servers.items():
            _instrument(server, worker, log, parked, park={"wt.adopt"})
        joined = {}

        def join(name):
            with DlibClient(*gw.address) as c:
                joined[name] = c.call("wt.join", name)["worker"]

        first = threading.Thread(target=join, args=("one",), daemon=True)
        first.start()
        wait_until(lambda: len(parked) == 1)
        second = threading.Thread(target=join, args=("two",), daemon=True)
        second.start()
        wait_until(lambda: len(parked) == 2)
        # The first adopt has not replied, yet it counts against w0.
        assert [entry[0] for entry in parked] == ["w0", "w1"]
        for entry in parked:
            _release(servers[entry[0]], entry)
        first.join(timeout=10)
        second.join(timeout=10)
        assert joined == {"one": "w0", "two": "w1"}
        assert gw.journal.load() == {"w0": 1, "w1": 1}


class TestGatewaySharedCache:
    def test_workers_share_one_timestep_segment(self):
        """A default gateway's workers publish decoded timesteps into one
        segment, and the gateway (the owner) unlinks it on stop — no leak."""
        from repro.core import WindtunnelClient
        from repro.diskio.shmcache import attach_segment

        gw = SessionGateway(
            default_worker_spec(),
            n_workers=2,
            heartbeat_interval=0.25,
            liveness_deadline=2.0,
        )
        with gw:
            assert gw.timestep_cache is not None
            seg_name = gw.timestep_cache.name
            host, port = gw.address
            with WindtunnelClient(host, port, name="ca") as a:
                with WindtunnelClient(host, port, name="cb") as b:
                    # Sessions land on different workers (processes);
                    # both drive frames through the tiered loader.
                    assert (
                        gw.journal.worker_of(a.client_id)
                        != gw.journal.worker_of(b.client_id)
                    )
                    for c in (a, b):
                        c.add_rake((0, 0, 0), (1, 1, 1), n_seeds=2)
                        assert c.fetch_frame()["timestep"] >= 0
                        # A worker's fill appends the timestep to tier 2
                        # before it publishes the frame that needed it:
                        # the segment holds decoded timesteps published
                        # across process boundaries.
                        assert gw.timestep_cache.resident_timesteps
                        assert c.fetch_frame()["timestep"] >= 0
        assert gw.timestep_cache is None
        with pytest.raises(FileNotFoundError):
            attach_segment(seg_name)

    def test_degrades_to_private_loaders(self, monkeypatch):
        """No shared memory on the platform: the gateway still serves."""
        from repro.core import WindtunnelClient
        from repro.gateway import router as router_mod

        def broken_segment(*args, **kwargs):
            raise OSError("no /dev/shm here")

        monkeypatch.setattr(
            router_mod, "SharedTimestepCache", broken_segment
        )
        gw = SessionGateway(default_worker_spec(), n_workers=1)
        with gw:
            assert gw.timestep_cache is None
            host, port = gw.address
            with WindtunnelClient(host, port, name="solo") as c:
                assert c.fetch_frame()["timestep"] >= 0

    def test_a_failed_start_leaks_no_worker_and_no_segment(self, monkeypatch):
        """The second worker never becomes ready: ``start()`` raises, and
        neither the first worker nor the shared segment outlives it."""
        from repro.diskio.shmcache import attach_segment
        from repro.gateway.worker import WorkerHandle

        real_spawn = WorkerHandle.spawn
        spawned = []

        def spawn(name, spec, **kwargs):
            if spawned:
                raise TimeoutError(f"worker {name} did not become ready")
            spawned.append(real_spawn(name, spec, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(WorkerHandle, "spawn", staticmethod(spawn))
        gw = SessionGateway(default_worker_spec(), n_workers=2)
        with pytest.raises(TimeoutError, match="w1"):
            gw.start()
        (w0,) = spawned
        assert w0.name == "w0" and not w0.alive
        seg_name = gw.supervisor.spec["timestep_cache"]
        assert seg_name is not None and gw.timestep_cache is None
        with pytest.raises(FileNotFoundError):
            attach_segment(seg_name)
