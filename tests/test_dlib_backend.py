"""Backends: connections the dlib event loop dials out to another server.

A proxy (the session gateway) relays calls without blocking its loop by
sending them on a :class:`~repro.dlib.server.Backend` and parking each
client's reply until the peer answers.  These tests drive a minimal
relay — a front server whose one procedure forwards to a back server —
and check what the gateway builds on: calls leave in arrival order, a
call parked at the back holds up nobody else, every teardown reaches
``on_close`` exactly once, and a payload passed through as
:class:`~repro.dlib.protocol.PreEncoded` bytes reaches the client
byte-for-byte as the back server encoded it.
"""

import itertools
import socket
import sys
import threading

import numpy as np
import pytest

from repro.dlib.client import DlibClient, DlibRemoteError
from repro.dlib.protocol import (
    MessageKind,
    PreEncoded,
    decode_message_ex,
    decode_value,
    encode_message,
    encode_value,
    split_message,
)
from repro.dlib.server import DlibServer

from tests import wait_until


class MiniRelay:
    """Front-server procedure ``relay(proc, *args)``: forward to the back."""

    def __init__(self, front: DlibServer, back_address) -> None:
        self.front = front
        self.address = back_address
        self.backend = None
        self.pending = {}
        self.request_ids = itertools.count(1)
        self.arrivals = []
        self.closed = []
        front.register("relay", self.relay)

    def relay(self, ctx, proc, *args):
        self.arrivals.append((proc, *args))
        if self.backend is None:
            self.backend = self.front.dial(self.address, self.on_message, self.on_close)
        deferred = self.front.defer()
        rid = next(self.request_ids)
        self.pending[rid] = deferred
        self.backend.send(encode_message(
            MessageKind.CALL, rid, {"proc": proc, "args": list(args), "kwargs": {}}
        ))
        return deferred

    def on_message(self, frame):
        kind, rid, _trace_id, body = split_message(frame)
        deferred = self.pending.pop(rid)
        if kind is MessageKind.RESULT:
            deferred.resolve(PreEncoded(body))
        else:
            deferred.fail(RuntimeError(decode_value(body)["message"]))

    def on_close(self, exc):
        self.closed.append(exc)
        self.backend = None
        for deferred in self.pending.values():
            deferred.fail(ConnectionError(f"backend lost: {exc}"))
        self.pending.clear()


class Back:
    """The back server: ``echo`` answers now, ``park`` waits for the test."""

    def __init__(self) -> None:
        self.server = DlibServer()
        self.log = []
        self.parked = []
        self.server.register("echo", self.echo)
        self.server.register("park", self.park)

    def echo(self, ctx, value):
        self.log.append(("echo", value))
        return value

    def park(self, ctx, value):
        self.log.append(("park", value))
        deferred = self.server.defer()
        self.parked.append(deferred)
        return deferred


@pytest.fixture
def back():
    b = Back()
    with b.server:
        yield b


@pytest.fixture
def front():
    with DlibServer() as server:
        yield server


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestRelayOrder:
    def test_a_call_parked_at_the_back_holds_up_nobody_else(self, front, back):
        relay = MiniRelay(front, back.server.address)
        got = {}
        with DlibClient(*front.address) as a, DlibClient(*front.address) as b:
            t = threading.Thread(
                target=lambda: got.update(a=a.call("relay", "park", "a")), daemon=True
            )
            t.start()
            wait_until(lambda: len(back.parked) == 1)
            # b's calls complete while a's is parked: only the test can
            # release a, so the order is decided by construction.
            assert b.call("relay", "echo", "b1") == "b1"
            assert b.call("relay", "echo", "b2") == "b2"
            assert t.is_alive() and front.parked_count == 1
            back.parked[0].resolve("a-done")
            t.join(timeout=10)
            assert got == {"a": "a-done"}
        assert back.log == [("park", "a"), ("echo", "b1"), ("echo", "b2")]
        assert back.log == relay.arrivals

    def test_concurrent_callers_reach_the_back_in_arrival_order(self, front, back):
        relay = MiniRelay(front, back.server.address)

        def caller(tag):
            with DlibClient(*front.address) as c:
                for i in range(25):
                    assert c.call("relay", "echo", f"{tag}{i}") == f"{tag}{i}"

        threads = [threading.Thread(target=caller, args=(t,)) for t in "abcd"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleavings per call
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(back.log) == 100
        assert back.log == relay.arrivals  # FCFS: the relay never reorders

    def test_backends_are_not_clients(self, front, back):
        relay = MiniRelay(front, back.server.address)
        with DlibClient(*front.address) as c:
            assert c.call("relay", "echo", 1) == 1
            assert front.context.clients_connected == 1
            front.call_soon(lambda: relay.backend.abort(ConnectionError("test")))
            wait_until(lambda: relay.closed)
            assert front.context.disconnects == 0
            assert c.call("relay", "echo", 2) == 2  # re-dialled
        assert [str(e) for e in relay.closed] == ["test"]


class TestTeardown:
    def test_a_refused_dial_fails_the_call(self, front):
        relay = MiniRelay(front, ("127.0.0.1", _free_port()))
        with DlibClient(*front.address) as c:
            with pytest.raises(DlibRemoteError):
                c.call("relay", "echo", 1)
        assert front.parked_count == 0

    def test_the_back_dying_fails_every_pending_call_once(self, front, back):
        relay = MiniRelay(front, back.server.address)
        errors = []

        def parked_call():
            with DlibClient(*front.address) as c:
                try:
                    c.call("relay", "park", "x")
                except DlibRemoteError as exc:
                    errors.append(exc)

        threads = [threading.Thread(target=parked_call) for _ in range(3)]
        for t in threads:
            t.start()
        wait_until(lambda: len(back.parked) == 3)
        back.server.stop()
        for t in threads:
            t.join(timeout=10)
        assert len(errors) == 3
        # The back's shutdown answers its parked calls first, and the
        # connection closes after: every call fails, the link once.
        wait_until(lambda: relay.closed)
        assert len(relay.closed) == 1
        assert front.parked_count == 0

    def test_front_shutdown_closes_its_backends(self, back):
        front = DlibServer().start()
        relay = MiniRelay(front, back.server.address)
        errors = []

        def parked_call():
            with DlibClient(*front.address) as c:
                try:
                    c.call("relay", "park", "x")
                except DlibRemoteError as exc:
                    errors.append(exc)

        t = threading.Thread(target=parked_call)
        t.start()
        wait_until(lambda: len(back.parked) == 1)
        front.stop()
        t.join(timeout=10)
        assert [e.remote_type for e in errors] == ["ServerShutdownError"]
        assert len(relay.closed) == 1
        wait_until(lambda: back.server.context.clients_connected == 0)


class TestPassThrough:
    def test_split_body_is_the_encoded_payload(self):
        payload = {"paths": {"1": np.arange(12, dtype="<f4").reshape(4, 3)}, "seq": 7}
        for trace_id in (0, 99):
            wire = encode_message(MessageKind.RESULT, 5, payload, trace_id=trace_id)
            kind, rid, tid, body = split_message(wire)
            assert (kind, rid, tid) == (MessageKind.RESULT, 5, trace_id)
            assert body == encode_value(payload)
            # Re-framing the undecoded body is the message a decode and
            # re-encode would have built, byte for byte.
            relayed = encode_message(MessageKind.RESULT, 9, PreEncoded(body))
            assert relayed == encode_message(MessageKind.RESULT, 9, payload)
            assert decode_message_ex(relayed)[3]["seq"] == 7

    def test_arrays_cross_the_relay_intact(self, front, back):
        MiniRelay(front, back.server.address)
        value = {"v": np.linspace(0.0, 1.0, 30, dtype="<f4").reshape(10, 3)}
        with DlibClient(*front.address) as c:
            got = c.call("relay", "echo", value)
        np.testing.assert_array_equal(got["v"], value["v"])
