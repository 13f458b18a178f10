"""Fuzz and failure-injection tests for the dlib stack.

The wire decoder faces bytes from the network; it must fail *only* with
DlibProtocolError (never segfault-adjacent numpy errors, MemoryError from
forged lengths, or silent garbage), and the server must survive
misbehaving clients.
"""

import socket
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dlib import (
    DlibClient,
    DlibProtocolError,
    DlibServer,
    decode_message,
    decode_value,
    encode_value,
)
from repro.dlib.transport import Stream, pipe_pair


def _array_header(shape, dtype: str = "<f8", payload: bytes = b"") -> bytes:
    """The wire bytes of an array claiming ``shape`` over ``payload``."""
    tag = dtype.encode()
    return (
        b"A" + struct.pack("<B", len(tag)) + tag
        + struct.pack("<B", len(shape)) + struct.pack(f"<{len(shape)}q", *shape)
        + struct.pack("<Q", len(payload)) + payload
    )


class TestDecoderFuzz:
    @given(st.binary(max_size=200))
    @settings(max_examples=300)
    def test_random_bytes_never_crash(self, data):
        """Arbitrary bytes either decode or raise DlibProtocolError."""
        try:
            decode_value(data)
        except DlibProtocolError:
            pass

    def test_non_utf8_array_dtype_is_a_protocol_error(self):
        """Found by the fuzz above: the dtype tag was decoded unguarded."""
        with pytest.raises(DlibProtocolError):
            decode_value(b"A\x04\x00\x00\x00\x80")

    @given(st.binary(max_size=100))
    @settings(max_examples=150)
    def test_random_messages_never_crash(self, data):
        try:
            decode_message(data)
        except DlibProtocolError:
            pass

    @given(st.binary(min_size=1, max_size=60), st.integers(0, 59))
    @settings(max_examples=200)
    def test_bitflipped_valid_wire_never_crashes(self, payload, position):
        """Corrupting one byte of valid wire data stays contained."""
        wire = bytearray(encode_value([payload.decode("latin1"), 1, 2.5]))
        wire[position % len(wire)] ^= 0xFF
        try:
            decode_value(bytes(wire))
        except DlibProtocolError:
            pass

    def test_forged_giant_array_header_rejected_cheaply(self):
        """A forged shape cannot make the decoder allocate gigabytes."""
        out = bytearray()
        out += b"A"
        out += struct.pack("<B", 3) + b"<f8"
        out += struct.pack("<B", 1)
        out += struct.pack("<q", 2**40)  # claims a terabyte-long array
        out += struct.pack("<Q", 16)  # but only 16 payload bytes
        out += b"\0" * 16
        with pytest.raises(DlibProtocolError):
            decode_value(bytes(out))

    def test_forged_negative_dimension(self):
        out = bytearray()
        out += b"A"
        out += struct.pack("<B", 3) + b"<f8"
        out += struct.pack("<B", 1)
        out += struct.pack("<q", -4)
        out += struct.pack("<Q", 32)
        out += b"\0" * 32
        with pytest.raises(DlibProtocolError):
            decode_value(bytes(out))

    @given(
        st.lists(st.integers(0, 62), min_size=1, max_size=3),
        st.sampled_from(["<f8", "<f4", "<i2", "|u1"]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100)
    def test_shape_whose_int64_product_wraps_is_a_protocol_error(
        self, exponents, dtype, rng
    ):
        """Dimensions whose product reaches 2**64 multiply to 0 in int64:
        counted that way, the header matched an empty payload and the
        reshape raised a ``ValueError`` the server does not catch."""
        shape = [1 << e for e in exponents]
        missing = 64 - sum(exponents)
        while missing > 0:
            shape.append(1 << min(missing, 62))
            missing -= 62
        rng.shuffle(shape)
        with pytest.raises(DlibProtocolError):
            decode_value(_array_header(shape, dtype))

    def test_unhashable_dict_key_rejected(self):
        # A dict whose key is a list: legal to encode? Keys go through the
        # generic encoder, so craft the wire directly.
        key = encode_value([1, 2])
        val = encode_value(0)
        wire = b"M" + struct.pack("<I", 1) + key + val
        with pytest.raises(DlibProtocolError):
            decode_value(wire)


class TestTransportAbuse:
    def test_oversized_frame_announcement_rejected(self):
        a, b = pipe_pair()
        try:
            # Announce a 2 GB frame without sending it.
            a._sock.sendall(struct.pack("<I", (1 << 31)))
            with pytest.raises(ConnectionError):
                b.recv()
        finally:
            a.close()
            b.close()

    def test_oversized_send_rejected_locally(self):
        a, b = pipe_pair()
        try:
            with pytest.raises(ValueError):
                # Don't materialize 1 GB; bytearray of len > MAX_FRAME via
                # a fake object is overkill — use MAX_FRAME boundary check.
                from repro.dlib.transport import MAX_FRAME

                class FakeBytes(bytes):
                    def __len__(self):
                        return MAX_FRAME + 1

                a.send(FakeBytes())
        finally:
            a.close()
            b.close()

    def test_closed_stream_raises(self):
        a, b = pipe_pair()
        a.close()
        with pytest.raises(ConnectionError):
            a.send(b"x")
        with pytest.raises(ConnectionError):
            a.recv()
        b.close()

    def test_peer_disconnect_mid_frame(self):
        a, b = pipe_pair()
        # Send a frame header promising 100 bytes, then vanish.
        a._sock.sendall(struct.pack("<I", 100) + b"partial")
        a.close()
        with pytest.raises(ConnectionError):
            b.recv()
        b.close()


class TestServerAbuse:
    @pytest.fixture()
    def server(self):
        srv = DlibServer()
        srv.register("echo", lambda ctx, v: v)
        srv.start()
        yield srv
        srv.stop()

    def test_garbage_connection_does_not_kill_server(self, server):
        from tests import wait_until

        host, port = server.address
        sock = socket.create_connection((host, port))
        sock.sendall(struct.pack("<I", 12) + b"not-a-messag")
        sock.close()
        # Wait for the server to actually shed the offender (progress
        # counter, not a sleep — tests/__init__.py rule 2).
        wait_until(lambda: server.context.disconnects >= 1)
        with DlibClient(host, port) as c:
            assert c.call("echo", 7) == 7

    def test_non_call_message_disconnects_offender_only(self, server):
        from repro.dlib.protocol import MessageKind, encode_message
        from repro.dlib.transport import connect_tcp

        bad = connect_tcp(*server.address)
        bad.send(encode_message(MessageKind.RESULT, 1, None))
        # The server drops the offender; a well-behaved client still works.
        with DlibClient(*server.address) as good:
            assert good.call("echo", "ok") == "ok"
        bad.close()

    def test_malformed_call_payload(self, server):
        from repro.dlib.protocol import MessageKind, encode_message
        from repro.dlib.transport import connect_tcp

        bad = connect_tcp(*server.address)
        bad.send(encode_message(MessageKind.CALL, 1, {"not_proc": True}))
        with DlibClient(*server.address) as good:
            assert good.call("echo", 1) == 1
        bad.close()

    def test_many_rapid_connect_disconnect(self, server):
        for _ in range(20):
            c = DlibClient(*server.address)
            c.close()
        with DlibClient(*server.address) as c:
            assert c.call("echo", "alive") == "alive"

    def test_wrapping_array_shape_costs_one_connection_not_the_loop(self):
        """One CALL whose argument claims a (2**32, 2**32) float64 array
        over an empty payload used to kill a windtunnel server's service
        thread; now it is one protocol error, and the next client's ping
        is answered."""
        from repro import WindtunnelServer, tapered_cylinder_dataset
        from repro.dlib.protocol import MessageKind
        from repro.dlib.transport import connect_tcp
        from tests import wait_until

        call = (
            struct.pack("<BI", int(MessageKind.CALL), 1)
            + b"M" + struct.pack("<I", 3)
            + encode_value("proc") + encode_value("dlib.ping")
            + encode_value("args") + b"L" + struct.pack("<I", 1)
            + _array_header([2**32, 2**32])
            + encode_value("kwargs") + encode_value({})
        )
        dataset = tapered_cylinder_dataset(shape=(6, 6, 4), n_timesteps=2)
        with WindtunnelServer(dataset) as srv:
            bad = connect_tcp(*srv.address)
            try:
                bad.send(call)
                wait_until(lambda: srv.dlib.context.disconnects >= 1)
            finally:
                bad.close()
            with DlibClient(*srv.address, call_timeout=5.0) as good:
                assert good.ping("alive") == "alive"
                counters = good.call("dlib.metrics")["counters"]
                assert counters["dlib.protocol_errors"] == 1


class TestAdversarialTransport:
    """Partial frames, mid-payload deaths, and stalls against the server."""

    @pytest.fixture()
    def server(self):
        srv = DlibServer()
        srv.register("echo", lambda ctx, v: v)
        srv.start()
        yield srv
        srv.stop()

    def test_partial_header_then_disconnect(self, server):
        """Two bytes of a four-byte header, then gone: server sheds it."""
        from tests import wait_until

        sock = socket.create_connection(server.address)
        sock.sendall(b"\x10\x00")  # half a length prefix
        sock.close()
        wait_until(lambda: server.context.disconnects >= 1)
        with DlibClient(*server.address) as c:
            assert c.call("echo", "fine") == "fine"
            # Teardown accounting: the staller was subtracted, we remain.
            assert server.context.clients_connected == 1
            assert server.context.disconnects >= 1

    def test_mid_payload_disconnect(self, server):
        """A frame promising 100 bytes delivers 7, then the peer dies."""
        from tests import wait_until

        sock = socket.create_connection(server.address)
        sock.sendall(struct.pack("<I", 100) + b"partial")
        sock.close()
        wait_until(lambda: server.context.disconnects >= 1)
        with DlibClient(*server.address) as c:
            assert c.call("echo", "fine") == "fine"

    def test_server_killed_between_call_and_result(self):
        """The client sees a clean transport error, not a hang."""
        import threading
        import time

        release = threading.Event()
        srv = DlibServer()

        @srv.procedure
        def slow(ctx):
            release.set()
            time.sleep(0.3)
            return "done"

        srv.start()
        client = DlibClient(*srv.address)
        errors = []

        def call():
            try:
                client.call("slow")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        t = threading.Thread(target=call)
        t.start()
        release.wait(timeout=2.0)
        srv.stop()  # kills the connection while RESULT is pending
        t.join(timeout=5.0)
        assert not t.is_alive()
        client.close()
        if errors:  # the RESULT may have squeaked out before the close
            assert isinstance(errors[0], (ConnectionError, OSError))

    def test_stalled_partial_header_does_not_block_other_clients(self, server):
        """Head-of-line blocking is gone: one wedged client, zero impact.

        Before per-connection reassembly, the blocking ``recv`` inside
        the select loop meant these echo calls would hang forever.
        """
        import time

        staller = socket.create_connection(server.address)
        staller.sendall(b"\x99")  # one byte of header, then silence
        try:
            with DlibClient(*server.address) as c:
                latencies = []
                for i in range(20):
                    t0 = time.perf_counter()
                    assert c.call("echo", i) == i
                    latencies.append(time.perf_counter() - t0)
                assert max(latencies) < 1.0
        finally:
            staller.close()

    def test_interleaved_partial_frames_reassemble(self, server):
        """A frame trickled one byte at a time still dispatches correctly."""
        from repro.dlib.protocol import MessageKind, encode_message

        sock = socket.create_connection(server.address)
        try:
            payload = encode_message(
                MessageKind.CALL, 9, {"proc": "echo", "args": ["trickle"]}
            )
            frame = struct.pack("<I", len(payload)) + payload
            for i in range(len(frame)):
                sock.sendall(frame[i : i + 1])
            with Stream(sock) as s:
                from repro.dlib.protocol import decode_message as dm

                kind, rid, result = dm(s.recv())
                assert rid == 9 and result == "trickle"
                sock = None  # Stream.close owns the socket now
        finally:
            if sock is not None:
                sock.close()


class TestEventLoopFuzz:
    """Interleaved partial reads *and* writes across many sockets at once.

    The event loop reassembles per-connection byte streams independently;
    no fragmentation schedule on one socket may corrupt, reorder, or
    starve another.  Hypothesis drives the fragmentation: each example is
    a set of clients, each with its own chunk-size pattern for dribbling
    its requests onto the wire.
    """

    @pytest.fixture()
    def server(self):
        srv = DlibServer()
        srv.register("echo", lambda ctx, v: v)
        srv.start()
        yield srv
        srv.stop()

    @given(
        plans=st.lists(
            st.lists(st.integers(1, 7), min_size=1, max_size=6),
            min_size=2,
            max_size=6,
        ),
    )
    @settings(
        max_examples=15,
        deadline=None,
        # The server is stateless (echo) and every example dials fresh
        # sockets, so sharing one server across examples is sound.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_fragmented_calls_interleaved_across_sockets(self, server, plans):
        from repro.dlib.protocol import MessageKind, decode_message, encode_message

        socks = [socket.create_connection(server.address) for _ in plans]
        try:
            # Build each client's outbound bytes: two calls back to back,
            # so a frame boundary always falls mid-stream.
            pending = []
            for i, _ in enumerate(plans):
                buf = b""
                for rid in (2 * i + 1, 2 * i + 2):
                    payload = encode_message(
                        MessageKind.CALL, rid, {"proc": "echo", "args": [[rid, i]]}
                    )
                    buf += struct.pack("<I", len(payload)) + payload
                pending.append(buf)
            # Round-robin the sockets, each sending its next chunk (sized
            # by its plan) per turn — interleaved partial writes from the
            # server's point of view.
            turn = 0
            while any(pending):
                for i, sock in enumerate(socks):
                    if not pending[i]:
                        continue
                    sizes = plans[i]
                    n = sizes[turn % len(sizes)]
                    sock.sendall(pending[i][:n])
                    pending[i] = pending[i][n:]
                turn += 1
            # Every client gets exactly its own replies, in its own order.
            for i, sock in enumerate(socks):
                s = Stream(sock)
                for expect_rid in (2 * i + 1, 2 * i + 2):
                    kind, rid, result = decode_message(s.recv())
                    assert kind is MessageKind.RESULT
                    assert rid == expect_rid
                    assert result == [expect_rid, i]
        finally:
            for sock in socks:
                sock.close()

    def test_slow_reader_cannot_starve_the_loop(self, server):
        """A client that never reads its replies fills its own send queue
        only; other clients' latency stays flat."""
        import time

        from repro.dlib.protocol import MessageKind, encode_message

        hog = socket.create_connection(server.address)
        try:
            # Pile up replies the hog never reads.  Payloads are small, so
            # they queue without tripping the reply hard limit.
            payload = encode_message(
                MessageKind.CALL, 1, {"proc": "echo", "args": ["x" * 1024]}
            )
            frame = struct.pack("<I", len(payload)) + payload
            for _ in range(50):
                hog.sendall(frame)
            with DlibClient(*server.address) as c:
                for i in range(10):
                    t0 = time.perf_counter()
                    assert c.call("echo", i) == i
                    assert time.perf_counter() - t0 < 1.0
        finally:
            hog.close()
