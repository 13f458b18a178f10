"""Paced push soak on one event-loop worker.

The scenario behind ``benchmarks/test_server_soak.py``: stand up a
single :class:`repro.core.WindtunnelServer`, connect a ladder of
raw-socket push subscribers spread across the two encodings, drive the
simulation clock at a fixed tick rate, and measure — per subscriber
level — delivered frame throughput, the time the server spends settling
one publication's paced calls and its loop lag (from ``repro.obs``),
and the encode-dedup ratio (encodes per publication, which must track
the number of *distinct* lazily built encodings, not the number of
clients).

Subscribers are deliberately raw sockets, not ``WindtunnelClient``s: a
thousand full clients cost more test-harness CPU than server CPU, which
would measure the harness.  Each subscriber joins, negotiates
``wt.subscribe(push=True)``, arms ``FRAME_CREDIT`` ``wt.frame`` calls,
and from then on only *reads*: it counts each reply by header, without
decoding its payload, and re-arms one call for it.  A frame a
subscriber had no call parked for is never composed for it; the level
reports those as shed.

``WT_BENCH_FAST=1`` shrinks the ladder for CI smoke runs.
"""

from __future__ import annotations

import os
import selectors
import socket
import struct
import threading
import time

from repro.core.delivery import FRAME_CREDIT
from repro.dlib.protocol import MessageKind, decode_message, encode_message

FAST = bool(os.environ.get("WT_BENCH_FAST"))

#: Subscriber ladder: each level soaks WINDOW_SECONDS with that many
#: concurrently subscribed push clients.
CLIENT_COUNTS = (50, 100, 200) if FAST else (100, 250, 500, 1000)
WINDOW_SECONDS = 2.0 if FAST else 10.0
#: Simulation-clock tick: one timestep per tick, TICK_HZ ticks/second —
#: the publication rate the pipeline is asked to sustain.
TICK_HZ = 20.0
#: Subscription encodings, assigned round-robin.  "v1" is built with the
#: entry (zero cache misses); "q16" costs at most one encode per rake per
#: form per publication — *regardless of subscriber count*.
VARIANTS = ("v1", "q16")
#: The forms a q16 entry is built in: the keyframe, and the residual
#: predicted from the rake a subscriber holds.
Q16_FORMS = 2
N_RAKES = 2

_LEN = struct.Struct("<I")
#: How long a level may take to settle (credits parked, replies read).
SETTLE_SECONDS = 30.0


def _raise_fd_limit(need: int) -> int:
    """Best-effort bump of RLIMIT_NOFILE; returns the effective ceiling."""
    try:
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < need:
            resource.setrlimit(resource.RLIMIT_NOFILE, (min(need, hard), hard))
            soft = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
        return soft
    except Exception:  # noqa: BLE001 - platform without resource limits
        return need


class _Subscriber:
    """One raw push subscriber: a blocking socket, its reassembly buffer
    and the framed ``wt.frame`` call it re-arms."""

    __slots__ = ("sock", "buf", "frames", "bytes", "client_id", "call")

    def __init__(self, sock: socket.socket, client_id: int) -> None:
        self.sock = sock
        self.buf = bytearray()
        self.frames = 0
        self.bytes = 0
        self.client_id = client_id
        message = encode_message(
            MessageKind.CALL, 3, {"proc": "wt.frame", "args": [client_id, 0]}
        )
        self.call = _LEN.pack(len(message)) + message

    def arm(self, calls: int = 1) -> None:
        self.sock.sendall(self.call * calls)

    def pump(self) -> None:
        """Read what the socket holds; count each complete reply by
        header only, and re-arm one call for it."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the subscriber")
        self.buf += chunk
        self.bytes += len(chunk)
        replies = 0
        while len(self.buf) >= _LEN.size:
            (length,) = _LEN.unpack_from(self.buf)
            end = _LEN.size + length
            if len(self.buf) < end:
                break
            if self.buf[_LEN.size] & 0x7F != MessageKind.RESULT:
                raise ConnectionError("a paced call failed")
            replies += 1
            del self.buf[:end]
        if replies:
            self.frames += replies
            self.arm(replies)


class _Reader(threading.Thread):
    """One selector draining every subscriber socket."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.sel = selectors.DefaultSelector()
        self.subs: list[_Subscriber] = []
        self._halt = threading.Event()
        self.dropped = 0

    def add(self, sub: _Subscriber) -> None:
        sub.arm(FRAME_CREDIT)  # before this thread can re-arm any
        self.sel.register(sub.sock, selectors.EVENT_READ, sub)
        self.subs.append(sub)

    def delivered(self) -> int:
        return sum(s.frames for s in self.subs)

    def run(self) -> None:
        while not self._halt.is_set():
            for key, _mask in self.sel.select(timeout=0.05):
                sub = key.data
                try:
                    sub.pump()
                except (ConnectionError, OSError):
                    self.dropped += 1
                    self.sel.unregister(sub.sock)
                    sub.sock.close()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=10.0)
        for sub in self.subs:
            try:
                self.sel.unregister(sub.sock)
            except (KeyError, ValueError):
                pass
            sub.sock.close()
        self.sel.close()


def _call(stream, rid: int, proc: str, *args):
    """One raw dlib round-trip on a blocking stream."""
    stream.send(
        encode_message(MessageKind.CALL, rid, {"proc": proc, "args": list(args)})
    )
    kind, got_rid, result = decode_message(stream.recv())
    if kind is not MessageKind.RESULT or got_rid != rid:
        raise RuntimeError(f"unexpected reply to {proc}: {kind} rid={got_rid}")
    return result


def _connect_subscriber(address, index: int) -> _Subscriber:
    from repro.dlib.transport import Stream

    encoding = VARIANTS[index % len(VARIANTS)]
    sock = socket.create_connection(address)
    stream = Stream(sock)
    info = _call(stream, 1, "wt.join", f"soak{index}")
    client_id = info["client_id"]
    sub = _call(
        stream,
        2,
        "wt.subscribe",
        client_id,
        {"encoding": encoding, "deltas": True, "push": True},
    )
    if not sub.get("push"):
        raise RuntimeError("server did not arm push delivery")
    return _Subscriber(sock, client_id)


def _wait(ready, what: str) -> None:
    """Poll ``ready`` (progress counters) until it holds."""
    deadline = time.monotonic() + SETTLE_SECONDS
    while not ready():
        if time.monotonic() > deadline:
            raise RuntimeError(f"soak level did not settle: {what}")
        time.sleep(0.005)


def _make_dataset():
    import numpy as np

    from repro.flow import MemoryDataset, RigidRotation, UniformFlow, sample_on_grid
    from repro.grid import cartesian_grid

    grid = cartesian_grid((9, 9, 5), lo=(0, 0, 0), hi=(8, 8, 4))
    field = RigidRotation(omega=[0, 0, 0.5], center=[4, 4, 0]) + UniformFlow(
        [0.1, 0, 0]
    )
    n_times = 8
    vel = sample_on_grid(field, grid, np.arange(n_times) * 0.05, dtype=np.float64)
    # The analytic field is steady; modulate each timestep so the flow —
    # and therefore every rake's geometry and digest — actually changes
    # per publication.  A steady field would make every delta empty and
    # the encode-dedup measurement vacuous.
    for i in range(n_times):
        vel[i] *= 1.0 + 0.25 * np.sin(2.0 * np.pi * i / n_times)
    return MemoryDataset(grid, vel, dt=0.05)


def run_soak_scenario() -> dict:
    """The full measurement; returns the result the gate asserts on."""
    from repro.core import ToolSettings, WindtunnelClient, WindtunnelServer

    max_clients = max(CLIENT_COUNTS)
    fd_ceiling = _raise_fd_limit(2 * max_clients + 256)
    counts = [n for n in CLIENT_COUNTS if 2 * n + 128 <= fd_ceiling]
    if not counts:
        raise RuntimeError(f"fd limit {fd_ceiling} too low for any soak level")

    clock = {"now": 0.0}
    srv = WindtunnelServer(
        _make_dataset(),
        settings=ToolSettings(streamline_steps=16, streakline_length=6),
        # time_speed is timesteps per clock-second: advancing the test
        # clock in real time then asks for TICK_HZ publications/second.
        time_speed=TICK_HZ,
        time_fn=lambda: clock["now"],
        frame_wait=5.0,
        lease_seconds=1e9,  # the soak must measure delivery, not the reaper
    )
    srv.start()
    reader = _Reader()
    reader.start()
    levels: list[dict] = []
    try:
        with WindtunnelClient(*srv.address, name="control") as control:
            for i in range(N_RAKES):
                control.add_rake([1 + 2 * i, 1, 1], [1 + 2 * i, 7, 3], n_seeds=4)
            control.fetch_frame()  # warm the pipeline + first publication

            registry = srv.registry

            def parked() -> int:
                return srv.delivery.stats()["frame_waiters"]

            lag_hist = registry.histogram("server.loop_lag_seconds")
            fanout_hist = registry.histogram("net.push_latency_seconds")

            for n in counts:
                while len(reader.subs) < n:
                    reader.add(
                        _connect_subscriber(srv.address, len(reader.subs))
                    )
                # Settled: every subscriber's credit is parked.
                _wait(lambda: parked() == n * FRAME_CREDIT, "credits parked")
                c0 = registry.snapshot()["counters"]
                delivered0 = reader.delivered()
                fanout_total0 = fanout_hist.stats.total
                t0 = time.perf_counter()
                next_tick = t0
                # Drive the simulation clock: each tick advances one
                # timestep, so the pipeline publishes at ~TICK_HZ.
                while True:
                    now = time.perf_counter()
                    if now - t0 >= WINDOW_SECONDS:
                        break
                    if now >= next_tick:
                        clock["now"] += 1.0 / TICK_HZ
                        next_tick += 1.0 / TICK_HZ
                    time.sleep(min(0.005, max(0.0, next_tick - now)))
                window = time.perf_counter() - t0
                # Drained: the clock's last key is published, and every
                # reply it brought has been read and re-armed.
                _wait(
                    lambda: srv.store.latest().key == srv.pipeline.current_key()
                    and parked() == n * FRAME_CREDIT
                    and reader.delivered() - delivered0
                    == registry.counter("net.push_frames").value
                    - c0.get("net.push_frames", 0),
                    "replies read",
                )
                c1 = registry.snapshot()["counters"]
                delivered = reader.delivered() - delivered0

                publications = c1.get("net.publications_fanned_out", 0) - c0.get(
                    "net.publications_fanned_out", 0
                )
                pushes = c1.get("net.push_frames", 0) - c0.get("net.push_frames", 0)
                misses = c1.get("net.encode_cache_misses", 0) - c0.get(
                    "net.encode_cache_misses", 0
                )
                shed = max(0, publications * n - pushes)
                levels.append(
                    {
                        "clients": n,
                        "window_seconds": window,
                        "publications": publications,
                        "publish_hz": publications / window,
                        "pushes_sent": pushes,
                        "frames_delivered": delivered,
                        "delivered_fps": delivered / window,
                        "per_client_fps": delivered / window / n,
                        "frames_shed": shed,
                        "encodes_per_publication": (
                            misses / publications if publications else 0.0
                        ),
                        # Loop health, straight from repro.obs.
                        "p99_fanout_seconds": fanout_hist.quantile(0.99),
                        "p99_loop_lag_seconds": lag_hist.quantile(0.99),
                        "mean_fanout_seconds": (
                            (fanout_hist.stats.total - fanout_total0)
                            / max(1, publications)
                        ),
                    }
                )

            return {
                "distinct_encoded_variants": sum(
                    1 for encoding in VARIANTS if encoding != "v1"
                ),
                "subscribers_dropped": reader.dropped,
                "levels": levels,
            }
    finally:
        reader.stop()
        srv.stop()
