"""The dlib server: persistent context, serial multi-client event loop.

The server owns a :class:`ServerContext` — the "process environment"
extension of section 4 — holding named state, a remote
:class:`~repro.dlib.memory.MemoryManager`, and the procedure registry.
All client calls are executed one at a time on a single service thread,
"as though there were only one client"; arrival order is service order,
which is what makes the windtunnel's first-come-first-served conflict
rule (section 5.1) fall out for free.

Since the C10k refactor the service thread is a *non-blocking event
loop*: one selector drives reads, writes, accepts, ticks, and callbacks
scheduled from other threads (:meth:`DlibServer.call_soon`).  Three
properties replace the old one-call-at-a-time-with-blocking-writes
shape:

* **Per-connection write queues.**  A reply is queued and flushed as
  the peer's receive window allows; a short write or ``EAGAIN`` parks
  the remainder on the connection's ``sendq`` and the selector's
  ``EVENT_WRITE`` interest, never the loop.  Replies are never shed — a
  peer whose reply backlog passes the hard limit is declared dead and
  dropped.  A peer can only be sent what it asked for, so a slow reader
  bounds its own backlog by the calls it keeps outstanding.
* **Deferred replies (continuations).**  A handler may return
  :meth:`DlibServer.defer`'s :class:`Deferred` instead of a value: the
  call parks with no reply, the loop moves on, and any thread later
  calls :meth:`Deferred.resolve` / :meth:`Deferred.fail` to complete it
  (queued at once on the loop's own thread, marshalled back onto the
  loop from any other).  ``wt.frame`` uses this to wait for
  the pipeline's next publish without holding the service thread.
  Shutdown drains parked continuations with a typed
  :class:`~repro.dlib.protocol.ServerShutdownError` instead of dropping
  them.
* **Backends.**  :meth:`DlibServer.dial` opens a non-blocking
  connection *out* of the loop to another dlib server, on the same
  selector and write queues: a proxy (the session gateway) sends calls
  on it and completes its own parked replies as the peer's answers
  arrive, so no forwarded call ever blocks the loop.

Robustness properties carried over from the pre-refactor loop: every
connection reads through a per-client reassembly buffer on a
non-blocking socket, so a peer that sends a partial frame header and
stalls parks *its own* connection; connection teardown (accounting
included) happens in exactly one place, :meth:`DlibServer._drop`.
"""

from __future__ import annotations

import errno
import os
import selectors
import socket
import struct
import threading
import time
import traceback
import warnings
from collections import deque
from collections.abc import Callable
from contextlib import nullcontext
from itertools import islice

from repro.dlib.memory import MemoryManager
from repro.dlib.protocol import (
    DlibProtocolError,
    MessageKind,
    PreEncoded,
    ServerShutdownError,
    decode_message_ex,
    encode_message,
    encode_value,
)
from repro.dlib.transport import MAX_FRAME
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Trace, TraceCollector, use_trace

__all__ = [
    "ServerContext",
    "DlibServer",
    "Deferred",
    "Backend",
    "SEND_HARD_LIMIT",
]

_LEN = struct.Struct("<I")

#: Cap on a single non-blocking read.
_READ_CHUNK = 1 << 16

#: Hard limit on a connection's send queue.  Replies are never
#: shed, so a peer that stops draining while replies accumulate past
#: this bound is declared dead and dropped — the non-blocking analogue
#: of the old 5 s blocking send deadline.
SEND_HARD_LIMIT = 4 * 1024 * 1024

#: Most queued buffers gathered into one ``sendmsg`` syscall.  Sixteen
#: covers eight full frames (header + payload each) — past that the
#: syscall savings flatten while the partial-send bookkeeping walks a
#: longer list.
_SENDMSG_BATCH = 16

#: Serializes :class:`Deferred` completion races.  One lock for all of
#: them: a race is rare, and a parked call need not allocate its own.
_CLAIM_LOCK = threading.Lock()


class ServerContext:
    """Persistent per-server state visible to every procedure.

    Attributes
    ----------
    state
        Free-form dict surviving across calls and across clients — the
        shared virtual environment lives here.
    memory
        Remote memory segments (see :mod:`repro.dlib.memory`).
    registry
        The server's :class:`~repro.obs.registry.MetricsRegistry`.  The
        service counters below are *views into it* (``dlib.*`` metrics),
        not private ints — one source of truth for ``dlib.metrics`` and
        any procedure that wants to record its own numbers.
    calls_served
        Total procedure invocations, all clients.
    clients_connected
        Currently connected clients (incremented on accept, decremented
        once per teardown, whatever the cause).
    disconnects
        Total connection teardowns — peer resets, protocol violations,
        send-queue overruns, and server-side shutdown closes alike.
    protocol_errors
        Teardowns caused specifically by malformed wire data.
    """

    def __init__(
        self,
        memory_budget: int | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.state: dict = {}
        self.memory = MemoryManager(memory_budget)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._calls = self.registry.counter("dlib.calls_served")
        self._errors = self.registry.counter("dlib.call_errors")
        self._clients = self.registry.gauge("dlib.clients_connected")
        self._disconnects = self.registry.counter("dlib.disconnects")
        self._protocol_errors = self.registry.counter("dlib.protocol_errors")

    @property
    def calls_served(self) -> int:
        return self._calls.value

    @property
    def clients_connected(self) -> int:
        return int(self._clients.value)

    @property
    def disconnects(self) -> int:
        return self._disconnects.value

    @property
    def protocol_errors(self) -> int:
        return self._protocol_errors.value


class _Connection:
    """One client link: non-blocking socket, reassembly buffer, send queue.

    ``pump()`` drains whatever bytes the kernel has ready into a buffer
    and peels off complete length-prefixed frames; a partial header or
    partial payload simply stays buffered until more bytes arrive.

    ``queue()``/``flush()`` are the write-side mirror: outbound frames
    accumulate on ``sendq`` and ``flush()`` pushes as much as the socket
    accepts without ever blocking — a short write leaves the tail queued
    for the selector's next ``EVENT_WRITE``.

    The write path is zero-copy where the platform allows: ``queue()``
    appends the 4-byte length header and the payload as *separate*
    memoryviews (no per-frame concatenation copy of the payload) and
    ``flush()`` gathers up to :data:`_SENDMSG_BATCH` queued buffers into
    one ``socket.sendmsg`` scatter-gather syscall — a publication that
    answers N parked calls costs O(N) syscalls, not O(N x frames-queued).  Where
    ``sendmsg`` is unavailable the :attr:`use_sendmsg` gate falls back
    to the historical concatenate-and-``send`` path.
    """

    #: Scatter-gather gate, probed once per process.  A class attribute
    #: so tests (and exotic platforms) can force the fallback path.
    use_sendmsg = hasattr(socket.socket, "sendmsg")

    __slots__ = (
        "sock",
        "buf",
        "bytes_received",
        "bytes_sent",
        "sendq",
        "sendq_bytes",
        "sendmsg_batches",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buf = bytearray()
        self.bytes_received = 0
        self.bytes_sent = 0
        self.sendq: deque[memoryview] = deque()
        self.sendq_bytes = 0
        self.sendmsg_batches = 0

    def pump(self) -> list[tuple[bytes, float]]:
        """Read available bytes; return every newly completed frame.

        Each frame is paired with its ``time.perf_counter()`` arrival
        stamp — the origin of the request's trace, so queue wait (time
        parked behind other clients' calls) is attributable.
        """
        try:
            data = self.sock.recv(_READ_CHUNK)
        except (BlockingIOError, InterruptedError):
            return []
        if not data:
            raise ConnectionError("peer closed the connection")
        arrived = time.perf_counter()
        self.buf += data
        self.bytes_received += len(data)
        frames: list[tuple[bytes, float]] = []
        while len(self.buf) >= _LEN.size:
            (length,) = _LEN.unpack_from(self.buf)
            if length > MAX_FRAME:
                raise DlibProtocolError(
                    f"peer announced oversized frame ({length} bytes)"
                )
            end = _LEN.size + length
            if len(self.buf) < end:
                break
            frames.append((bytes(self.buf[_LEN.size:end]), arrived))
            del self.buf[:end]
        return frames

    def queue(self, payload: bytes) -> int:
        """Append one framed message to the send queue; returns its
        on-wire size (header included)."""
        header = _LEN.pack(len(payload))
        total = len(header) + len(payload)
        if self.use_sendmsg:
            # Header and payload stay separate buffers: the payload is
            # never copied between encode and the kernel.  A zero-length
            # payload queues only its header — an empty buffer would sit
            # in the queue forever (sent counts never reach past it).
            self.sendq.append(memoryview(header))
            if payload:
                self.sendq.append(memoryview(payload))
        else:
            self.sendq.append(memoryview(header + payload))
        self.sendq_bytes += total
        return total

    def flush(self) -> bool:
        """Send queued bytes until the socket would block or the queue
        empties; returns ``True`` when fully drained.  Never blocks."""
        while self.sendq:
            if self.use_sendmsg and len(self.sendq) > 1:
                bufs = list(islice(self.sendq, _SENDMSG_BATCH))
                try:
                    sent = self.sock.sendmsg(bufs)
                except (BlockingIOError, InterruptedError):
                    return False
                if sent == 0:
                    return False
                self.sendmsg_batches += 1
                self.bytes_sent += sent
                self.sendq_bytes -= sent
                # A short gather ends inside some buffer: pop the fully
                # sent heads, slice the straddled one, and loop — the
                # next pass hits EAGAIN if the window is truly full.
                while self.sendq and sent >= len(self.sendq[0]):
                    sent -= len(self.sendq.popleft())
                if sent:
                    self.sendq[0] = self.sendq[0][sent:]
                continue
            head = self.sendq[0]
            try:
                n = self.sock.send(head)
            except (BlockingIOError, InterruptedError):
                return False
            if n == 0:
                return False
            self.bytes_sent += n
            self.sendq_bytes -= n
            if n == len(head):
                self.sendq.popleft()
            else:
                self.sendq[0] = head[n:]
        return True

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class Backend(_Connection):
    """A connection the loop dialled out (:meth:`DlibServer.dial`).

    It rides the same selector, send queue and teardown path as a client
    connection; only the direction differs.  Every complete frame the
    peer sends goes to ``on_message(frame)`` on the service thread, and
    the one teardown — a refused dial, EOF, a reset, malformed data, a
    send backlog past the hard limit, server shutdown, or :meth:`abort`
    — calls ``on_close(exc)`` exactly once.
    """

    __slots__ = ("server", "on_message", "on_close")

    def __init__(
        self,
        sock: socket.socket,
        server: "DlibServer",
        on_message: Callable[[bytes], None],
        on_close: Callable[[BaseException], None],
    ) -> None:
        super().__init__(sock)
        self.server = server
        self.on_message = on_message
        self.on_close = on_close

    def send(self, payload: bytes) -> None:
        """Queue one message and flush what fits (service thread only).

        Never blocks and never raises: a transport failure tears the
        backend down through ``on_close``.
        """
        server = self.server
        try:
            server._queue(self, payload)
            server._flush(self)
            if self.sendq_bytes > SEND_HARD_LIMIT:
                raise ConnectionError("backend stopped draining its calls")
        except (ConnectionError, OSError) as exc:
            server._drop(self.sock, exc)

    def abort(self, exc: BaseException) -> None:
        """Tear the connection down now; ``on_close`` receives ``exc``."""
        self.server._drop(self.sock, exc)


class Deferred:
    """A parked reply: a continuation for one in-flight CALL.

    Obtained via :meth:`DlibServer.defer` *during dispatch* and returned
    from the handler in place of a value.  Any thread may later complete
    it exactly once with :meth:`resolve` or :meth:`fail`; the reply is
    queued at once when the service thread completes it, else marshalled
    back onto that thread, and encoded exactly as a synchronous return
    would have been (traced envelope, ``wire_type``/
    ``wire_data`` error hooks included).  Completing a deferred whose
    connection has died is a silent no-op — the methods return whether
    this call won the completion race.

    Tracing: the dlib layer does not stamp the parked interval itself —
    the resolver knows *why* the call waited and grafts its own span
    with an explicit start (``wt.frame`` marks the whole park as
    ``frame_wait``), keeping the span tree free of double-counted time.
    """

    __slots__ = (
        "_server",
        "_conn",
        "_request_id",
        "_trace_id",
        "_trace",
        "_name",
        "_done",
    )

    def __init__(
        self,
        server: "DlibServer",
        conn: _Connection,
        request_id: int,
        trace_id: int,
        trace: Trace | None,
        name: str,
    ) -> None:
        self._server = server
        self._conn = conn
        self._request_id = request_id
        self._trace_id = trace_id
        self._trace = trace
        self._name = name
        self._done = False

    @property
    def done(self) -> bool:
        return self._done

    @property
    def procedure(self) -> str:
        return self._name

    @property
    def trace(self) -> Trace | None:
        """The parked call's live trace (``None`` when untraced)."""
        return self._trace

    def _claim(self) -> bool:
        with _CLAIM_LOCK:
            if self._done:
                return False
            self._done = True
            return True

    def resolve(self, value) -> bool:
        """Complete the parked call with ``value`` (thread-safe, idempotent)."""
        return self._finish(value, None)

    def fail(self, exc: BaseException) -> bool:
        """Complete the parked call with an error (thread-safe, idempotent)."""
        return self._finish(None, exc)

    def _finish(self, value, exc) -> bool:
        if not self._claim():
            return False
        server = self._server
        if threading.current_thread() is server._thread:
            # Queued now: replies completed on the service thread leave
            # in the order they were completed.
            server._complete(self, value, exc)
        else:
            server.call_soon(lambda: server._complete(self, value, exc))
        return True


class DlibServer:
    """A dlib RPC server.

    Usage::

        server = DlibServer()
        @server.procedure
        def compute(ctx, x):
            return x + ctx.state.setdefault("offset", 0)
        server.start()
        ... DlibClient(*server.address) ...
        server.stop()

    Procedures receive the :class:`ServerContext` as their first argument
    followed by the client's (wire-decoded) arguments.  A procedure may
    return ``server.defer()``'s :class:`Deferred` to park its reply.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        memory_budget: int | None = None,
        registry: MetricsRegistry | None = None,
        trace_capacity: int = 64,
    ) -> None:
        self._host, self._requested_port = host, port
        self.registry = registry if registry is not None else MetricsRegistry()
        self.context = ServerContext(memory_budget, registry=self.registry)
        self.traces = TraceCollector(trace_capacity)
        self._dispatch_hist = self.registry.histogram("dlib.dispatch_seconds")
        self._send_hist = self.registry.histogram("dlib.send_seconds")
        self._ticks_run = self.registry.counter("dlib.ticks_run")
        self._tick_errors = self.registry.counter("dlib.tick_errors")
        self._loop_lag = self.registry.histogram("server.loop_lag_seconds")
        self._stop_timeouts = self.registry.counter("server.stop_timeouts")
        self._callback_errors = self.registry.counter("server.callback_errors")
        self._sendq_gauge = self.registry.gauge("net.sendq_bytes")
        self._sendmsg_batches = self.registry.counter("net.sendmsg_batches")
        self._procedures: dict[str, Callable] = {}
        self._ticks: list[list] = []  # [fn, interval, next_due]
        self._listener: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._running = False
        self._lock = threading.Lock()
        # Event-loop state.  ``_sel``/``_conns`` are owned by the service
        # thread; other threads reach the loop only through call_soon().
        self._sel: selectors.BaseSelector | None = None
        self._conns: dict[socket.socket, _Connection] = {}
        self._callbacks: deque[tuple[Callable, float]] = deque()
        self._parked: set[Deferred] = set()
        self._current: tuple | None = None
        self._sendq_total = 0
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None
        self._register_builtins()

    @property
    def parked_count(self) -> int:
        """Number of calls currently parked on a :class:`Deferred`."""
        return len(self._parked)

    # -- registry ---------------------------------------------------------

    def register(self, name: str, fn: Callable) -> None:
        """Register ``fn`` as remotely callable under ``name``."""
        if not name or name.startswith("_"):
            raise ValueError("procedure names must be non-empty and public")
        with self._lock:
            self._procedures[name] = fn

    def procedure(self, fn: Callable) -> Callable:
        """Decorator form of :meth:`register` (uses the function name)."""
        self.register(fn.__name__, fn)
        return fn

    def add_tick(self, fn: Callable, interval: float = 0.25) -> None:
        """Run ``fn(context)`` roughly every ``interval`` seconds *on the
        service thread*, between client calls.

        Because ticks share the thread with call execution they are
        serialized against every *procedure* — but not against other
        threads that touch the same state (the frame pipeline's producer,
        or a test driving the environment directly), so a tick that
        mutates shared state must still take that state's own lock (the
        windtunnel's session reaper holds the environment lock for
        exactly this reason).  A tick that raises is dropped for that
        round, never the loop.
        """
        if interval <= 0:
            raise ValueError("tick interval must be positive")
        self._ticks.append([fn, float(interval), 0.0])

    def _register_builtins(self) -> None:
        def ping(ctx, payload=None):
            return payload

        def procedures(ctx):
            return sorted(self._procedures)

        def mem_alloc(ctx, nbytes):
            return ctx.memory.alloc(int(nbytes)).to_wire()

        def mem_write(ctx, segment_id, offset, data):
            ctx.memory.write(int(segment_id), int(offset), data)
            return None

        def mem_read(ctx, segment_id, offset=0, nbytes=None):
            return ctx.memory.read(int(segment_id), int(offset), nbytes)

        def mem_free(ctx, segment_id):
            ctx.memory.free(int(segment_id))
            return None

        def metrics(ctx):
            """Full registry snapshot (counters/gauges/histograms)."""
            return ctx.registry.snapshot()

        for fn in (
            ping, procedures, metrics,
            mem_alloc, mem_write, mem_read, mem_free,
        ):
            self._procedures[f"dlib.{fn.__name__}"] = fn

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the server is listening on (after start)."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[:2]

    def start(self) -> "DlibServer":
        if self._running:
            raise RuntimeError("server already running")
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self._host, self._requested_port))
        self._listener.listen(128)
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._running = True
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._running = False
        self._wake()
        leaked = False
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            leaked = self._thread.is_alive()
            if leaked:
                self._stop_timeouts.inc()
                warnings.warn(
                    f"DlibServer service thread did not stop within {timeout} s; "
                    "the daemon thread has been leaked "
                    "(server.stop_timeouts counts these)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            self._thread = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if not leaked:
            # A leaked thread may still be selecting on the wake pipe;
            # closing it under a live selector trades a warning for a
            # crash, so the pair is only reclaimed after a clean join.
            for sock in (self._wake_r, self._wake_w):
                if sock is not None:
                    sock.close()
            self._wake_r = self._wake_w = None

    def __enter__(self) -> "DlibServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- cross-thread scheduling ------------------------------------------

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Schedule ``fn()`` on the service thread (thread-safe).

        The pipeline's publication callback and :class:`Deferred`
        completions arrive here.  The delay between scheduling and
        execution is observed into ``server.loop_lag_seconds`` — the
        loop-lag metric; a callback that raises is counted
        (``server.callback_errors``), never fatal.
        """
        self._callbacks.append((fn, time.perf_counter()))
        self._wake()

    def _wake(self) -> None:
        wake = self._wake_w
        if wake is None:
            return
        try:
            wake.send(b"\x00")
        except (BlockingIOError, InterruptedError, OSError):
            pass

    def _run_callbacks(self) -> None:
        # Snapshot the count so callbacks that schedule more callbacks
        # yield to I/O instead of starving the selector.
        for _ in range(len(self._callbacks)):
            try:
                fn, enqueued = self._callbacks.popleft()
            except IndexError:
                break
            self._loop_lag.observe(time.perf_counter() - enqueued)
            try:
                fn()
            except Exception:  # noqa: BLE001 - a callback must never kill the loop
                self._callback_errors.inc()

    # -- continuations -----------------------------------------------------

    def defer(self) -> Deferred:
        """Park the in-flight call; return its continuation.

        Valid only during dispatch (inside a handler, on the service
        thread).  The handler must *return* the deferred; the reply is
        sent when another party resolves it.
        """
        cur = self._current
        if cur is None:
            raise RuntimeError("defer() is only valid while dispatching a call")
        conn, request_id, trace_id, trace, name = cur
        d = Deferred(self, conn, request_id, trace_id, trace, name)
        self._parked.add(d)
        return d

    def _complete(self, d: Deferred, value, exc) -> None:
        """Finish a claimed deferred on the service thread."""
        self._parked.discard(d)
        conn = d._conn
        if conn.sock not in self._conns:
            return  # connection died while parked; nothing to reply to
        trace = d._trace
        try:
            if exc is not None:
                raise exc
            self.context._calls.inc()
            response = self._encode_result(d._request_id, d._trace_id, trace, value)
        except Exception as err:  # noqa: BLE001 - faults must cross the wire
            self.context._errors.inc()
            response = self._encode_error(d._request_id, d._trace_id, err)
        try:
            self._finish_send(conn, response, trace)
        except (ConnectionError, OSError):
            self._drop(conn.sock)

    # -- backends ----------------------------------------------------------

    def dial(
        self,
        address: tuple[str, int],
        on_message: Callable[[bytes], None],
        on_close: Callable[[BaseException], None],
    ) -> Backend:
        """Connect to another dlib server from the loop (service thread only).

        The connect itself is non-blocking: calls sent before it
        completes wait in the send queue.  A dial the kernel refuses on
        the spot raises ``ConnectionRefusedError``; one refused later
        arrives as ``on_close``.
        """
        if self._sel is None:
            raise RuntimeError("dial() is only valid on a running server")
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        err = sock.connect_ex(address)
        if err not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
            sock.close()
            raise ConnectionRefusedError(err, os.strerror(err))
        backend = Backend(sock, self, on_message, on_close)
        self._conns[sock] = backend
        self._sel.register(sock, selectors.EVENT_READ, "client")
        return backend

    # -- service loop ----------------------------------------------------------

    def _serve(self) -> None:
        sel = selectors.DefaultSelector()
        assert self._listener is not None and self._wake_r is not None
        self._listener.setblocking(False)
        sel.register(self._listener, selectors.EVENT_READ, "listener")
        sel.register(self._wake_r, selectors.EVENT_READ, "wakeup")
        conns: dict[socket.socket, _Connection] = {}
        self._sel, self._conns = sel, conns
        try:
            while self._running:
                # The single selector + single service thread *is* the
                # serial execution guarantee.
                try:
                    events = sel.select(timeout=0.05)
                except OSError:
                    break  # listener/wake pipe closed under a racing stop()
                for key, mask in events:
                    if key.data == "listener":
                        try:
                            sock, _addr = self._listener.accept()
                        except OSError:
                            continue
                        sock.setblocking(False)
                        if sock.family in (socket.AF_INET, socket.AF_INET6):
                            sock.setsockopt(
                                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                            )
                        conns[sock] = _Connection(sock)
                        sel.register(sock, selectors.EVENT_READ, "client")
                        self.context._clients.inc()
                    elif key.data == "wakeup":
                        try:
                            self._wake_r.recv(4096)
                        except (BlockingIOError, InterruptedError, OSError):
                            pass
                    else:
                        sock = key.fileobj
                        conn = conns.get(sock)
                        if conn is None:
                            try:
                                sel.unregister(sock)
                            except (KeyError, ValueError):
                                pass
                            continue
                        try:
                            if mask & selectors.EVENT_WRITE:
                                self._flush(conn)
                            if mask & selectors.EVENT_READ:
                                if type(conn) is Backend:
                                    for frame, _arrived in conn.pump():
                                        conn.on_message(frame)
                                else:
                                    for frame, arrived in conn.pump():
                                        self._dispatch(conn, frame, arrived)
                        except DlibProtocolError as exc:
                            self.context._protocol_errors.inc()
                            self._drop(sock, exc)
                        except (ConnectionError, OSError) as exc:
                            self._drop(sock, exc)
                self._run_callbacks()
                self._run_ticks()
        finally:
            self._shutdown_parked()
            for sock in list(conns):
                self._drop(sock)
            self._sel = None
            self._conns = {}
            sel.close()

    def _shutdown_parked(self) -> None:
        """Resolve every parked continuation with a typed shutdown error.

        Best effort: each reply is queued and flushed once; a peer that
        cannot take it right now simply loses the race to the close.
        """
        if not self._parked:
            return
        exc = ServerShutdownError("server stopped while the call was parked")
        for d in list(self._parked):
            self._parked.discard(d)
            if not d._claim():
                continue  # a racing resolve() won; its callback will no-op
            conn = d._conn
            if conn.sock not in self._conns:
                continue
            try:
                response = self._encode_error(d._request_id, d._trace_id, exc)
                self._queue(conn, response)
                self._flush(conn)
            except (ConnectionError, OSError):
                pass

    def _drop(self, sock: socket.socket, exc: BaseException | None = None) -> None:
        """The single teardown path: unregister, close, account.

        ``exc`` is why; a :class:`Backend` hands it to its ``on_close``.
        """
        conn = self._conns.pop(sock, None)
        if conn is None:
            return
        if self._sel is not None:
            try:
                self._sel.unregister(sock)
            except (KeyError, ValueError):
                pass
        self._sendq_total -= conn.sendq_bytes
        self._sendq_gauge.set(self._sendq_total)
        conn.close()
        if type(conn) is Backend:
            try:
                conn.on_close(exc or ConnectionError("backend closed"))
            except Exception:  # noqa: BLE001 - a callback must never kill the loop
                self._callback_errors.inc()
            return
        # Parked continuations for this connection have nobody to reply
        # to: mark them done so a later resolve()/fail() is a no-op.
        for d in [d for d in self._parked if d._conn is conn]:
            d._claim()
            self._parked.discard(d)
        self.context._clients.dec()
        self.context._disconnects.inc()

    def _run_ticks(self) -> None:
        if not self._ticks:
            return
        now = time.monotonic()
        for tick in self._ticks:
            fn, interval, due = tick
            if now >= due:
                if due:
                    # Tick lateness is loop lag by another door: a tick
                    # that fires late was held up by dispatch/fan-out.
                    self._loop_lag.observe(max(0.0, now - due))
                tick[2] = now + interval
                self._ticks_run.inc()
                try:
                    fn(self.context)
                except Exception:  # noqa: BLE001 - a tick must never kill the loop
                    self._tick_errors.inc()

    # -- write path --------------------------------------------------------

    def _queue(self, conn: _Connection, payload: bytes) -> None:
        self._sendq_total += conn.queue(payload)
        self._sendq_gauge.set(self._sendq_total)

    def _flush(self, conn: _Connection) -> None:
        """Flush ``conn``'s queue as far as the socket allows, keeping the
        global backlog gauge and the selector's write interest current."""
        before = conn.sendq_bytes
        batches_before = conn.sendmsg_batches
        try:
            conn.flush()
        finally:
            if conn.sendmsg_batches > batches_before:
                self._sendmsg_batches.inc(
                    conn.sendmsg_batches - batches_before
                )
            self._sendq_total += conn.sendq_bytes - before
            self._sendq_gauge.set(self._sendq_total)
            self._update_interest(conn)

    def _update_interest(self, conn: _Connection) -> None:
        sel = self._sel
        if sel is None:
            return
        events = selectors.EVENT_READ
        if conn.sendq:
            events |= selectors.EVENT_WRITE
        try:
            sel.modify(conn.sock, events, "client")
        except (KeyError, ValueError, OSError):
            pass

    def _send_reply(self, conn: _Connection, response: bytes) -> float:
        """Queue one reply and flush what fits now; returns seconds spent.

        Replies are never shed — but a peer whose backlog passes the
        hard limit is dead weight holding server memory, and is dropped.
        """
        t0 = time.perf_counter()
        self._queue(conn, response)
        self._flush(conn)
        if conn.sendq_bytes > SEND_HARD_LIMIT:
            raise ConnectionError(
                "peer stopped draining; reply backlog exceeded hard limit"
            )
        return time.perf_counter() - t0

    def _finish_send(
        self, conn: _Connection, response: bytes, trace: Trace | None
    ) -> None:
        send_seconds = self._send_reply(conn, response)
        self._send_hist.observe(send_seconds)
        if trace is not None:
            trace.mark("send", send_seconds)
            trace.root.duration = trace.now()
            self.traces.add(trace)
            self._dispatch_hist.observe(trace.root.duration)

    # -- encoding ----------------------------------------------------------

    def _encode_result(
        self, request_id: int, trace_id: int, trace: Trace | None, result
    ) -> bytes:
        if trace is not None:
            # Encode the result first (under its own span), then splice
            # the finished tree next to it: the reply carries queue_wait
            # + handler (+ parked) + encode.  The socket write cannot be
            # inside its own payload; it lands in the trace collector
            # and the dlib.send_seconds histogram.
            with trace.span("encode"):
                body = PreEncoded(encode_value(result))
            trace.finish()
            return encode_message(
                MessageKind.RESULT,
                request_id,
                {"t": trace.to_wire(), "r": body},
                trace_id=trace_id,
            )
        return encode_message(MessageKind.RESULT, request_id, result)

    def _encode_error(
        self, request_id: int, trace_id: int, exc: BaseException
    ) -> bytes:
        # An exception may claim a different wire-visible type via
        # ``wire_type`` — how a proxy (the session gateway) re-raises
        # a worker's error so the client sees the *original* type
        # (``SessionExpiredError``), not the proxy's wrapper.
        error = {
            "type": getattr(exc, "wire_type", None) or type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }
        # Typed errors (RetryAfterError and friends) carry structured
        # detail in ``wire_data``; ship it so clients can act on the
        # rejection (back off N seconds) instead of parsing prose.
        data = getattr(exc, "wire_data", None)
        if isinstance(data, dict):
            error["data"] = data
        return encode_message(
            MessageKind.ERROR,
            request_id,
            error,
            trace_id=trace_id,
        )

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, conn: _Connection, frame: bytes, arrived: float) -> None:
        kind, request_id, trace_id, payload = decode_message_ex(frame)
        if kind is not MessageKind.CALL:
            raise DlibProtocolError(f"client sent non-CALL message {kind}")
        if not isinstance(payload, dict) or "proc" not in payload:
            raise DlibProtocolError("malformed CALL payload")
        name = payload["proc"]
        args = payload.get("args", [])
        kwargs = payload.get("kwargs", {})
        fn = self._procedures.get(name)
        if fn is None:
            self._send_reply(
                conn,
                encode_message(
                    MessageKind.ERROR,
                    request_id,
                    {
                        "type": "LookupError",
                        "message": f"no such procedure {name!r}",
                        "traceback": "",
                    },
                ),
            )
            return
        # A traced call opens a span tree anchored at frame arrival, so
        # queue wait (time parked behind other clients on this serial
        # loop, plus decode) is the first span.  Handlers reach the live
        # trace through ``obs.current_trace()`` to graft their own spans.
        trace = Trace(trace_id, name, origin=arrived) if trace_id else None
        if trace is not None:
            trace.mark("queue_wait", trace.now(), start=0.0)
        self._current = (conn, request_id, trace_id, trace, name)
        try:
            try:
                with use_trace(trace):
                    with trace.span("handler") if trace else nullcontext():
                        result = fn(self.context, *args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - faults must cross the wire
                self.context._errors.inc()
                response = self._encode_error(request_id, trace_id, exc)
            else:
                if isinstance(result, Deferred):
                    # The handler parked its reply; the continuation
                    # owns the response now.  calls_served counts at
                    # completion, so in-flight work is visible as the
                    # gap between dispatches and completions.
                    return
                self.context._calls.inc()
                response = self._encode_result(request_id, trace_id, trace, result)
        finally:
            self._current = None
        self._finish_send(conn, response, trace)
