"""Integration tests for the dlib client/server over real sockets."""

import threading
import time

import numpy as np
import pytest

from repro.dlib import DlibClient, DlibRemoteError, DlibServer

from tests import wait_until


@pytest.fixture()
def server():
    srv = DlibServer()

    @srv.procedure
    def echo(ctx, value):
        return value

    @srv.procedure
    def add(ctx, a, b=0):
        return a + b

    @srv.procedure
    def remember(ctx, key, value):
        ctx.state[key] = value
        return sorted(ctx.state)

    @srv.procedure
    def recall(ctx, key):
        return ctx.state[key]

    @srv.procedure
    def counter(ctx):
        ctx.state["n"] = ctx.state.get("n", 0) + 1
        return ctx.state["n"]

    @srv.procedure
    def boom(ctx):
        raise RuntimeError("remote failure")

    @srv.procedure
    def scale_array(ctx, arr, factor):
        return np.asarray(arr) * factor

    srv.start()
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    with DlibClient(*server.address) as c:
        yield c


class TestBasicCalls:
    def test_echo(self, client):
        assert client.call("echo", "hello") == "hello"

    def test_kwargs(self, client):
        assert client.call("add", 2, b=3) == 5

    def test_array_payload(self, client):
        arr = np.arange(12, dtype=np.float32).reshape(4, 3)
        out = client.call("scale_array", arr, 2.0)
        np.testing.assert_allclose(out, arr * 2)

    def test_ping(self, client):
        assert client.ping({"x": 1}) == {"x": 1}

    def test_stub_calls(self, client):
        assert client.stub.add(1, 2) == 3
        assert client.stub.dlib.ping("ok") == "ok"

    def test_stub_root_not_callable(self, client):
        with pytest.raises(TypeError):
            client.stub()

    def test_unknown_procedure(self, client):
        with pytest.raises(DlibRemoteError) as exc_info:
            client.call("nonexistent")
        assert exc_info.value.remote_type == "LookupError"

    def test_remote_exception(self, client):
        with pytest.raises(DlibRemoteError) as exc_info:
            client.call("boom")
        assert exc_info.value.remote_type == "RuntimeError"
        assert "remote failure" in str(exc_info.value)
        assert "boom" in exc_info.value.remote_traceback

    def test_builtin_procedures_listed(self, client):
        procs = client.call("dlib.procedures")
        assert "dlib.ping" in procs and "echo" in procs


class TestPersistentContext:
    def test_state_persists_across_calls(self, client):
        client.call("remember", "grid", [1, 2, 3])
        assert client.call("recall", "grid") == [1, 2, 3]

    def test_state_shared_across_clients(self, server, client):
        """Section 4: multiple clients share one server process environment."""
        client.call("remember", "shared", 42)
        with DlibClient(*server.address) as second:
            assert second.call("recall", "shared") == 42

    def test_stats(self, client):
        client.ping()
        snap = client.call("dlib.metrics")
        assert snap["counters"]["dlib.calls_served"] >= 1
        assert snap["gauges"]["dlib.clients_connected"] >= 1


class TestRemoteMemory:
    def test_alloc_write_read_free(self, client):
        handle = client.alloc(64)
        client.write_segment(handle, b"abcdef", offset=3)
        assert client.read_segment(handle, offset=3, nbytes=6) == b"abcdef"
        client.free(handle)
        with pytest.raises(DlibRemoteError):
            client.read_segment(handle)

    def test_put_array(self, client):
        arr = np.arange(100, dtype=np.float32)
        handle = client.put_array(arr)
        raw = client.read_segment(handle)
        np.testing.assert_array_equal(np.frombuffer(raw, dtype=np.float32), arr)

    def test_overrun_rejected(self, client):
        handle = client.alloc(8)
        with pytest.raises(DlibRemoteError):
            client.write_segment(handle, b"123456789", offset=4)

    def test_budget_enforced(self):
        srv = DlibServer(memory_budget=100)
        srv.start()
        try:
            with DlibClient(*srv.address) as c:
                c.alloc(60)
                with pytest.raises(DlibRemoteError) as exc_info:
                    c.alloc(60)
                assert exc_info.value.remote_type == "MemoryError"
        finally:
            srv.stop()


class TestMultiClientSerial:
    def test_serial_counter_no_lost_updates(self, server):
        """Concurrent clients increment a shared counter; serial execution
        means every increment lands (no read-modify-write races)."""
        n_clients, n_calls = 4, 25
        results = [[] for _ in range(n_clients)]

        def worker(i):
            with DlibClient(*server.address) as c:
                for _ in range(n_calls):
                    results[i].append(c.call("counter"))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seen = sorted(x for r in results for x in r)
        assert seen == list(range(1, n_clients * n_calls + 1))

    def test_each_client_sees_monotonic_results(self, server):
        with DlibClient(*server.address) as a, DlibClient(*server.address) as b:
            va1 = a.call("counter")
            vb1 = b.call("counter")
            va2 = a.call("counter")
            assert va1 < vb1 < va2


class TestLifecycle:
    def test_context_manager(self):
        with DlibServer() as srv:
            with DlibClient(*srv.address) as c:
                assert c.ping(1) == 1

    def test_address_before_start(self):
        with pytest.raises(RuntimeError):
            DlibServer().address

    def test_double_start_rejected(self, server):
        with pytest.raises(RuntimeError):
            server.start()

    def test_register_validation(self, server):
        with pytest.raises(ValueError):
            server.register("", lambda ctx: None)
        with pytest.raises(ValueError):
            server.register("_private", lambda ctx: None)

    def test_client_requires_address_or_stream(self):
        with pytest.raises(ValueError):
            DlibClient()

    def test_server_survives_client_disconnect(self, server):
        c1 = DlibClient(*server.address)
        c1.ping()
        c1.close()
        wait_until(lambda: server.context.disconnects >= 1)
        with DlibClient(*server.address) as c2:
            assert c2.ping("still alive") == "still alive"

    def test_large_transfer(self, client):
        """A full 100k-particle frame (1.2 MB, Table 1 row 3) round-trips."""
        arr = np.random.default_rng(0).normal(size=(100000, 3)).astype(np.float32)
        out = client.call("echo", arr)
        np.testing.assert_array_equal(out, arr)
        assert arr.nbytes == 1200000


class TestEventLoop:
    """The selector loop's new machinery: continuations, calls kept
    outstanding, write-queue backpressure, and shutdown hygiene."""

    def test_deferred_resolve_from_another_thread(self):
        srv = DlibServer()
        parked = []

        @srv.procedure
        def wait_for_it(ctx):
            d = srv.defer()
            parked.append(d)
            return d

        srv.start()
        try:
            with DlibClient(*srv.address) as c:
                got = []
                t = threading.Thread(target=lambda: got.append(c.call("wait_for_it")))
                t.start()
                wait_until(lambda: parked)
                assert srv.parked_count == 1
                assert parked[0].resolve({"answer": 42})
                t.join(timeout=5.0)
                assert not t.is_alive()
                assert got == [{"answer": 42}]
                assert srv.parked_count == 0
        finally:
            srv.stop()

    def test_deferred_fail_surfaces_as_remote_error(self):
        srv = DlibServer()
        parked = []

        @srv.procedure
        def doomed(ctx):
            d = srv.defer()
            parked.append(d)
            return d

        srv.start()
        try:
            with DlibClient(*srv.address) as c:
                errs = []

                def call():
                    try:
                        c.call("doomed")
                    except DlibRemoteError as exc:
                        errs.append(exc)

                t = threading.Thread(target=call)
                t.start()
                wait_until(lambda: parked)
                parked[0].fail(ValueError("no frame for you"))
                t.join(timeout=5.0)
                assert errs and errs[0].remote_type == "ValueError"
        finally:
            srv.stop()

    def test_deferred_resolve_is_idempotent(self):
        srv = DlibServer()
        parked = []

        @srv.procedure
        def once(ctx):
            d = srv.defer()
            parked.append(d)
            return d

        srv.start()
        try:
            with DlibClient(*srv.address) as c:
                got = []
                t = threading.Thread(target=lambda: got.append(c.call("once")))
                t.start()
                wait_until(lambda: parked)
                d = parked[0]
                assert d.resolve("first")
                assert not d.resolve("second")  # lost the race: no-op
                assert not d.fail(RuntimeError("too late"))
                t.join(timeout=5.0)
                assert got == ["first"]
        finally:
            srv.stop()

    def test_defer_outside_dispatch_rejected(self):
        srv = DlibServer()
        with pytest.raises(RuntimeError):
            srv.defer()

    def test_shutdown_drains_parked_calls_with_typed_error(self):
        from repro.dlib import ServerShutdownError  # noqa: F401 - the contract

        srv = DlibServer()
        parked = []

        @srv.procedure
        def park(ctx):
            d = srv.defer()
            parked.append(d)
            return d

        srv.start()
        c = DlibClient(*srv.address)
        outcome = []

        def call():
            try:
                outcome.append(c.call("park"))
            except Exception as exc:  # noqa: BLE001
                outcome.append(exc)

        t = threading.Thread(target=call)
        t.start()
        wait_until(lambda: parked)
        srv.stop()  # drains the parked call with ServerShutdownError
        t.join(timeout=5.0)
        c.close()
        assert outcome
        # The drain reply usually lands; a racing close may surface as a
        # transport error instead — both are clean, a hang is the bug.
        if isinstance(outcome[0], DlibRemoteError):
            assert outcome[0].remote_type == "ServerShutdownError"
        else:
            assert isinstance(outcome[0], (ConnectionError, OSError))

    def test_push_reaches_subscribed_client(self):
        """A push is a parked call's reply: a call sent with ``submit``
        parks at the server, and its reply, or its error, reaches its
        callback when ``poll`` reads it."""
        srv = DlibServer()
        parked = []

        @srv.procedure
        def wait_for_it(ctx):
            d = srv.defer()
            parked.append(d)
            return d

        srv.start()
        try:
            got = []
            with DlibClient(*srv.address) as c:
                for _ in range(2):
                    c.submit("wait_for_it", on_reply=lambda v, e: got.append((v, e)))
                wait_until(lambda: len(parked) == 2)
                assert c.poll(timeout=0.0) == 0
                parked[0].resolve({"seq": 1})
                parked[1].fail(KeyError("gone"))
                wait_until(lambda: c.poll(timeout=0.05) >= 0 and len(got) == 2)
                assert got[0] == ({"seq": 1}, None)
                assert got[1][0] is None and got[1][1].remote_type == "KeyError"
                assert c.poll(timeout=0.05) == 0  # nothing outstanding
        finally:
            srv.stop()

    def test_poll_restores_the_call_deadline(self):
        """The bound on a polled reply's read does not outlive it: a
        client built with ``call_timeout=None`` waits forever again, so
        a parked call cannot time out mid-frame and desynchronize."""
        srv = DlibServer()
        parked = []

        @srv.procedure
        def wait_for_it(ctx):
            d = srv.defer()
            parked.append(d)
            return d

        srv.start()
        try:
            got = []
            with DlibClient(*srv.address) as c:
                c.submit("wait_for_it", on_reply=lambda v, e: got.append(v))
                wait_until(lambda: parked)
                parked[0].resolve({"seq": 1})
                wait_until(lambda: c.poll(timeout=0.05) or got)
                assert got == [{"seq": 1}]
                assert c.stream._sock.gettimeout() is None
        finally:
            srv.stop()

    def test_push_interleaved_with_call_does_not_corrupt_reply(self):
        """A submitted call's reply (a paced frame) landing between a
        CALL and its RESULT goes to its callback, while the call returns
        its own reply untouched."""
        srv = DlibServer()
        parked = []

        @srv.procedure
        def wait_for_it(ctx):
            d = srv.defer()
            parked.append(d)
            return d

        @srv.procedure
        def slow_echo(ctx, v):
            # Queue the parked call's reply ahead of this call's own.
            d = srv.defer()
            srv.call_soon(lambda: (parked[0].resolve({"paced": True}), d.resolve(v)))
            return d

        srv.start()
        try:
            got = []
            with DlibClient(*srv.address) as c:
                c.submit("wait_for_it", on_reply=lambda v, e: got.append(v))
                wait_until(lambda: parked)
                assert c.call("slow_echo", "payload") == "payload"
                assert got == [{"paced": True}]
        finally:
            srv.stop()

    def test_slow_push_subscriber_sheds_frames_not_the_loop(self):
        """A push subscriber that stops reading has at most
        ``FRAME_CREDIT`` frames queued — the publications it holds no
        call for are never composed for it — while a second subscriber
        keeps receiving every one."""
        from repro import WindtunnelClient, WindtunnelServer, tapered_cylinder_dataset
        from repro.core.delivery import FRAME_CREDIT
        from repro.dlib.protocol import MessageKind, decode_message, encode_message
        from repro.dlib.transport import connect_tcp

        srv = WindtunnelServer(
            tapered_cylinder_dataset(shape=(16, 16, 8), n_timesteps=6)
        ).start()
        try:
            slow = connect_tcp(*srv.address)
            slow.send(encode_message(MessageKind.CALL, 1, {"proc": "wt.join"}))
            cid = decode_message(slow.recv())[2]["client_id"]
            slow.send(encode_message(
                MessageKind.CALL, 2, {"proc": "wt.subscribe", "args": [cid, {"push": True}]}
            ))
            assert decode_message(slow.recv())[2]["push"] is True
            for rid in range(3, 3 + FRAME_CREDIT):
                slow.send(encode_message(
                    MessageKind.CALL, rid, {"proc": "wt.frame", "args": [cid, 0]}
                ))
            # From here on the slow subscriber reads nothing.
            with WindtunnelClient(*srv.address, name="reader") as c:
                c.time_control("pause")
                c.add_rake([0.2, 0.2, 0.5], [0.2, 0.8, 0.5], n_seeds=4)
                assert c.subscribe(push=True)["push"] is True
                wait_until(lambda: c.drain_pushes(0.05) >= 0 and c.pushed_frames)
                for _ in range(3 * FRAME_CREDIT):
                    frames = c.pushed_frames
                    c.time_control("step", 1)
                    wait_until(lambda: c.drain_pushes(0.05) >= 0 and c.pushed_frames > frames)
                wait_until(lambda: srv.registry.counter("net.push_frames").value
                           == c.pushed_frames + FRAME_CREDIT)
                assert not srv.delivery._subs[cid].calls  # its credit, all answered
            for _ in range(FRAME_CREDIT):  # the slow subscriber's credit
                kind, _rid, reply = decode_message(slow.recv())
                assert kind is MessageKind.RESULT and "v2" in reply
            slow.close()
        finally:
            srv.stop()

    def test_stop_timeout_warns_and_counts(self):
        srv = DlibServer()
        release = threading.Event()
        wedged = threading.Event()

        @srv.procedure
        def wedge(ctx):
            wedged.set()
            release.wait(timeout=10.0)  # blocks the service thread
            return "finally"

        srv.start()
        c = DlibClient(*srv.address)
        t = threading.Thread(target=lambda: _swallow(lambda: c.call("wedge")))
        t.start()
        assert wedged.wait(timeout=5.0)  # the wedge holds the loop
        with pytest.warns(RuntimeWarning, match="did not stop"):
            srv.stop(timeout=0.1)
        assert srv.registry.snapshot()["counters"]["server.stop_timeouts"] == 1
        release.set()
        t.join(timeout=10.0)
        c.close()

    def test_loop_metrics_exported(self, server, client):
        client.ping()
        ran = threading.Event()
        server.call_soon(ran.set)
        assert ran.wait(timeout=5.0)
        snap = client.call("dlib.metrics")
        assert snap["histograms"]["server.loop_lag_seconds"]["count"] >= 1
        assert snap["gauges"]["net.sendq_bytes"] == 0
        assert server.parked_count == 0


def _swallow(fn):
    try:
        fn()
    except Exception:  # noqa: BLE001 - teardown race; the test asserts elsewhere
        pass


class _GatherSock:
    """Capture-only socket: records gather shapes, optionally caps each
    syscall's byte count to force short writes."""

    def __init__(self, cap=None):
        self.wire = bytearray()
        self.cap = cap
        self.sendmsg_calls = []
        self.send_calls = 0

    def sendmsg(self, bufs):
        self.sendmsg_calls.append(len(bufs))
        data = b"".join(bytes(b) for b in bufs)
        n = len(data) if self.cap is None else min(self.cap, len(data))
        self.wire += data[:n]
        return n

    def send(self, data):
        self.send_calls += 1
        data = bytes(data)
        n = len(data) if self.cap is None else min(self.cap, len(data))
        self.wire += data[:n]
        return n


def _framed(*payloads):
    import struct

    out = b""
    for p in payloads:
        out += struct.pack("<I", len(p)) + p
    return out


class TestScatterGatherWrites:
    """The zero-copy sendmsg write path (and its fallback) in isolation."""

    def test_queue_never_copies_the_payload(self):
        from repro.dlib.server import _Connection

        conn = _Connection(_GatherSock())
        payload = b"x" * 64
        assert conn.queue(payload) == 4 + 64
        # Header and payload are separate buffers; the payload view
        # wraps the original bytes object — no concatenation copy.
        assert len(conn.sendq) == 2
        assert conn.sendq[-1].obj is payload
        assert conn.sendq_bytes == 68

    def test_flush_gathers_whole_queue_in_one_syscall(self):
        from repro.dlib.server import _Connection

        sock = _GatherSock()
        conn = _Connection(sock)
        msgs = [b"alpha", b"bravo!", b"c" * 40]
        for m in msgs:
            conn.queue(m)
        assert conn.flush()
        assert sock.sendmsg_calls == [6]  # 3 frames x (header, payload)
        assert bytes(sock.wire) == _framed(*msgs)
        assert conn.sendmsg_batches == 1
        assert conn.sendq_bytes == 0 and not conn.sendq

    def test_gather_is_capped_per_syscall(self):
        from repro.dlib.server import _SENDMSG_BATCH, _Connection

        sock = _GatherSock()
        conn = _Connection(sock)
        msgs = [bytes([i]) * 3 for i in range(20)]
        for m in msgs:
            conn.queue(m)
        assert conn.flush()
        assert sock.sendmsg_calls == [_SENDMSG_BATCH, _SENDMSG_BATCH, 8]
        assert bytes(sock.wire) == _framed(*msgs)

    def test_short_gather_slices_the_straddled_buffer(self):
        from repro.dlib.server import _Connection

        # A 7-byte window never aligns with the 4-byte headers, so every
        # syscall ends inside some buffer: pop/slice accounting must
        # reassemble the exact byte stream.
        sock = _GatherSock(cap=7)
        conn = _Connection(sock)
        msgs = [b"abcdefgh", b"ij", b"k" * 23]
        for m in msgs:
            conn.queue(m)
        assert conn.flush()
        assert bytes(sock.wire) == _framed(*msgs)
        assert conn.bytes_sent == len(sock.wire)

    def test_fallback_wire_bytes_are_identical(self, monkeypatch):
        from repro.dlib.server import _Connection

        msgs = (b"one", b"two2", b"")
        fast, slow = _GatherSock(), _GatherSock(cap=5)
        conn_fast = _Connection(fast)
        for m in msgs:
            conn_fast.queue(m)
        monkeypatch.setattr(_Connection, "use_sendmsg", False)
        conn_slow = _Connection(slow)
        for m in msgs:
            conn_slow.queue(m)
        assert conn_fast.flush() and conn_slow.flush()
        assert bytes(fast.wire) == bytes(slow.wire) == _framed(*msgs)
        assert slow.sendmsg_calls == []  # gated off: classic send() only
        assert conn_slow.sendmsg_batches == 0

    def test_zero_byte_gather_reports_blocked(self):
        from repro.dlib.server import _Connection

        class _FullSock(_GatherSock):
            def sendmsg(self, bufs):
                return 0

        conn = _Connection(_FullSock())
        conn.queue(b"stuck")
        assert not conn.flush()
        assert conn.sendq_bytes == 9  # nothing lost; retried on next write

    def test_live_server_counts_batches(self):
        from repro.dlib.server import _Connection

        srv = DlibServer()

        @srv.procedure
        def echo2(ctx, v):
            return v

        srv.start()
        try:
            with DlibClient(*srv.address) as c:
                for i in range(5):
                    assert c.call("echo2", i) == i
            # The reply bytes reach the client just before the loop's
            # finally-block bumps the registry — poll the last inc in.
            def batches():
                return srv.registry.snapshot()["counters"].get(
                    "net.sendmsg_batches", 0
                )

            if _Connection.use_sendmsg:
                wait_until(lambda: batches() >= 5)
            else:  # pragma: no cover - non-sendmsg platform
                assert batches() == 0
        finally:
            srv.stop()
