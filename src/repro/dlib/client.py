"""The dlib client: remote calls, stub generation, and call resilience.

Section 4: dlib "provides utilities to automatically create the code
which performs the network transactions required to invoke and execute
the routine in the remote environment".  Here that is :attr:`DlibClient.
stub` — attribute access mints a local callable that ships its arguments,
blocks for the reply, and returns the decoded result, making remote use
read like "developing a library of routines ... on a local system".

The paper's network delivered 1/13th of its rated bandwidth "due to
software bugs" (section 5.1); a client that assumes a clean transport is
a client that dies.  This one carries per-call deadlines (socket
timeouts surfacing as :class:`~repro.dlib.protocol.DlibTimeoutError`), a
:class:`RetryPolicy` with exponential backoff + deterministic jitter
that re-issues *idempotent* calls only, and automatic reconnection
through a ``stream_factory`` with an ``on_reconnect`` hook the
windtunnel layer uses to resume its session (``wt.rejoin``).

Every message the server sends answers a call.  A client may keep
calls outstanding on its one stream (:meth:`DlibClient.submit`) —
the windtunnel client's push subscription is ``wt.frame`` calls kept
parked that way — and replies are matched by request id: a reply to a
submitted call goes to that call's callback whenever the stream is
read, inside another call's round trip or while idle in
:meth:`DlibClient.poll`.
"""

from __future__ import annotations

import itertools
import random
import select
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from repro.dlib.memory import SegmentHandle
from repro.dlib.protocol import (
    DlibError,
    DlibProtocolError,
    DlibTimeoutError,
    MessageKind,
    decode_message_ex,
    encode_message,
)
from repro.dlib.transport import Stream, connect_tcp
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import format_trace

__all__ = ["DlibClient", "DlibRemoteError", "RetryPolicy"]

#: Transport-level failures a retry policy may act on.
RETRYABLE_ERRORS = (DlibTimeoutError, ConnectionError, OSError)

#: How many mismatched (stale) responses to skip before declaring the
#: stream hopeless.  Stale responses arise from duplicated frames or
#: calls abandoned at a deadline; a bounded skip keeps a babbling peer
#: from pinning the client in the read loop forever.
_MAX_STALE_RESPONSES = 32


class DlibRemoteError(DlibError):
    """An exception raised inside a remote procedure.

    Carries the remote type name and traceback text for diagnosis, plus
    any structured ``data`` the remote error shipped (typed errors like
    ``RetryAfterError`` put machine-readable detail there — see
    :attr:`retry_after`).
    """

    def __init__(
        self,
        remote_type: str,
        message: str,
        remote_traceback: str = "",
        data: dict | None = None,
    ) -> None:
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type
        self.remote_traceback = remote_traceback
        self.data = data or {}

    @property
    def retry_after(self) -> float | None:
        """Server-suggested backoff in seconds (typed ``RETRY_AFTER``
        rejections), or ``None`` for ordinary remote errors."""
        value = self.data.get("retry_after")
        return None if value is None else float(value)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with bounded, seed-deterministic jitter.

    ``max_attempts`` counts the first try: ``max_attempts=4`` means one
    call plus up to three retries.  Delays grow by ``multiplier`` from
    ``base_delay``, cap at ``max_delay``, and each is scattered by up to
    ``±jitter`` (a fraction) so a fleet of reconnecting clients does not
    stampede the server in lockstep.  A fixed ``seed`` makes the whole
    delay sequence reproducible in tests.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be a fraction in [0, 1]")

    def delays(self) -> Iterable[float]:
        """Yield the sleep before each retry (``max_attempts - 1`` values)."""
        rng = random.Random(self.seed)
        delay = self.base_delay
        for _ in range(self.max_attempts - 1):
            scatter = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            yield min(self.max_delay, delay * scatter)
            delay = min(self.max_delay, delay * self.multiplier)


def _remote_error(error: dict) -> DlibRemoteError:
    """The exception an ERROR reply's body describes."""
    return DlibRemoteError(
        error.get("type", "Exception"),
        error.get("message", ""),
        error.get("traceback", ""),
        data=error.get("data"),
    )


class _Stub:
    """Attribute-access procedure stubs: ``client.stub.compute(x)``.

    Attribute chains build dotted procedure names, so built-ins read as
    ``client.stub.dlib.ping()``.
    """

    def __init__(self, client: "DlibClient", name: str = "") -> None:
        self._client = client
        self._name = name

    def __getattr__(self, attr: str) -> "_Stub":
        if attr.startswith("_"):
            raise AttributeError(attr)
        full = f"{self._name}.{attr}" if self._name else attr
        return _Stub(self._client, full)

    def __call__(self, *args, **kwargs):
        if not self._name:
            raise TypeError("the stub root is not callable; access a procedure name")
        return self._client.call(self._name, *args, **kwargs)


class DlibClient:
    """A synchronous dlib RPC client.

    Parameters
    ----------
    host, port
        Server address; alternatively pass an existing ``stream``
        (e.g. a throttled channel from :mod:`repro.netsim`).
    stream_factory
        Zero-argument callable minting a fresh connected stream; enables
        :meth:`reconnect`.  Defaults to re-dialing ``host:port`` when an
        address was given.
    call_timeout
        Per-call deadline in seconds (``None`` = wait forever).  Expiry
        raises :class:`~repro.dlib.protocol.DlibTimeoutError`.
    retry
        Optional :class:`RetryPolicy`.  Only procedures named in
        ``idempotent`` are ever re-issued; each retry reconnects first,
        because a failed or timed-out stream may be desynchronized.
    idempotent
        Procedure names safe to call more than once.
    on_reconnect
        Callback ``fn(client)`` invoked after each successful reconnect —
        the hook for session resume handshakes.
    trace
        ``True`` stamps a fresh trace ID (strictly increasing per
        client) into every call's message header; the server replies
        with its span tree, kept on :attr:`last_trace` and printed by
        :meth:`trace_report`.  Untraced calls are byte-identical to the
        pre-tracing wire format.
    registry
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when
        given, every call records a ``client.rpc.<procedure>`` latency
        histogram and a ``client.calls`` counter.
    """

    def __init__(
        self,
        host: str | None = None,
        port: int | None = None,
        *,
        stream: Stream | None = None,
        timeout: float | None = 10.0,
        stream_factory: Callable[[], Stream] | None = None,
        call_timeout: float | None = None,
        retry: RetryPolicy | None = None,
        idempotent: Iterable[str] = (),
        on_reconnect: Callable[["DlibClient"], None] | None = None,
        trace: bool = False,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if stream is None and (host is None or port is None) and stream_factory is None:
            raise ValueError("provide host and port, a stream, or a stream_factory")
        if stream_factory is None and host is not None and port is not None:
            stream_factory = lambda: connect_tcp(host, port, timeout=timeout)  # noqa: E731
        self._stream_factory = stream_factory
        if stream is not None:
            self._stream = stream
        else:
            self._stream = stream_factory()
        self.call_timeout = call_timeout
        self.retry = retry
        self.idempotent = frozenset(idempotent)
        self.on_reconnect = on_reconnect
        self.reconnects = 0
        self.retries = 0
        self.retries_exhausted = 0
        self.last_error: BaseException | None = None
        self._request_ids = itertools.count(1)
        self._sleep = time.sleep
        self.trace = bool(trace)
        self.registry = registry
        self._trace_ids = itertools.count(1)
        self.last_trace: dict | None = None
        self.last_latency = 0.0
        # Submitted calls awaiting their replies: request id -> callback.
        self._submitted: dict[int, Callable] = {}

    @property
    def stream(self) -> Stream:
        return self._stream

    @property
    def stub(self) -> _Stub:
        """Procedure stubs: ``client.stub.name(args)`` == ``client.call("name", args)``."""
        return _Stub(self)

    # -- resilience -----------------------------------------------------------

    def reconnect(self) -> None:
        """Tear down the current stream and dial a fresh one.

        Fires ``on_reconnect`` afterwards; raises ``ConnectionError`` when
        no ``stream_factory`` is available.
        """
        if self._stream_factory is None:
            raise ConnectionError("no stream factory; cannot reconnect")
        try:
            self._stream.close()
        except OSError:
            pass
        self._submitted.clear()  # their replies died with the stream
        self._stream = self._stream_factory()
        self.reconnects += 1
        if self.on_reconnect is not None:
            self.on_reconnect(self)

    def call(self, procedure: str, *args, **kwargs):
        """Invoke a remote procedure and return its result.

        Raises :class:`DlibRemoteError` if the procedure raised remotely,
        :class:`~repro.dlib.protocol.DlibTimeoutError` on a lapsed
        deadline, ``ConnectionError`` if the transport fails.  With a
        :class:`RetryPolicy` configured, transport failures on procedures
        in :attr:`idempotent` reconnect (with backoff) and re-issue the
        call; everything else propagates on first failure.
        """
        retryable = (
            self.retry is not None
            and self._stream_factory is not None
            and procedure in self.idempotent
        )
        if not retryable:
            try:
                return self.call_once(procedure, *args, **kwargs)
            except RETRYABLE_ERRORS as exc:
                self.last_error = exc
                raise
        delays = iter(self.retry.delays())
        last_exc: BaseException | None = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                self.retries += 1
                self._sleep(next(delays, self.retry.max_delay))
                try:
                    self.reconnect()
                except RETRYABLE_ERRORS as exc:
                    last_exc = self.last_error = exc
                    continue
            try:
                result = self.call_once(procedure, *args, **kwargs)
            except RETRYABLE_ERRORS as exc:
                last_exc = self.last_error = exc
            else:
                return result
        self.retries_exhausted += 1
        if self.registry is not None:
            self.registry.counter("client.retries_exhausted").inc()
        raise last_exc

    def call_once(self, procedure: str, *args, **kwargs):
        """One wire round-trip, no retries (see :meth:`call`)."""
        trace_id = next(self._trace_ids) if self.trace else 0
        return self._roundtrip(procedure, args, kwargs, trace_id)

    def trace_report(self) -> str:
        """Pretty-print the last traced call's span tree."""
        if self.last_trace is None:
            return "no traced call yet"
        return format_trace(self.last_trace, client_seconds=self.last_latency)

    def _roundtrip(self, procedure: str, args, kwargs, trace_id: int):
        request_id = next(self._request_ids) & 0xFFFFFFFF
        payload = {"proc": procedure, "args": list(args), "kwargs": kwargs}
        if self.call_timeout is not None and hasattr(self._stream, "settimeout"):
            self._stream.settimeout(self.call_timeout)
        t0 = time.perf_counter()
        self._stream.send(
            encode_message(MessageKind.CALL, request_id, payload, trace_id=trace_id)
        )
        stale = 0
        while True:
            kind, rid, rsp_trace_id, result = decode_message_ex(self._stream.recv())
            if rid == request_id:
                break
            if self._deliver(kind, rid, result):
                # A submitted call's reply queued ahead of ours; not stale.
                continue
            # A stale response: the reply to a duplicated frame or to a
            # call we abandoned at its deadline.  Skip it.
            stale += 1
            if stale > _MAX_STALE_RESPONSES:
                raise DlibProtocolError(
                    f"gave up after {_MAX_STALE_RESPONSES} stale responses"
                )
        self.last_latency = time.perf_counter() - t0
        if self.registry is not None:
            self.registry.counter("client.calls").inc()
            self.registry.histogram(f"client.rpc.{procedure}").observe(
                self.last_latency
            )
        if kind is MessageKind.RESULT:
            if rsp_trace_id and isinstance(result, dict) and "t" in result:
                # Traced envelope: {"t": span tree, "r": the actual result}.
                self.last_trace = result["t"]
                return result.get("r")
            return result
        if kind is MessageKind.ERROR:
            raise _remote_error(result)
        raise DlibProtocolError(f"unexpected message kind {kind}")

    # -- calls kept outstanding ----------------------------------------------

    def submit(self, procedure: str, *args, on_reply: Callable) -> int:
        """Send a call without waiting for its reply; returns its request id.

        ``on_reply(value, error)`` runs on whichever thread reads the
        reply — inside a later :meth:`call`'s round trip, or in
        :meth:`poll` — with the result and ``None``, or ``None`` and the
        :class:`DlibRemoteError`.  A reconnect forgets submitted calls:
        their replies died with the stream.
        """
        request_id = next(self._request_ids) & 0xFFFFFFFF
        payload = {"proc": procedure, "args": list(args), "kwargs": {}}
        self._stream.send(encode_message(MessageKind.CALL, request_id, payload))
        self._submitted[request_id] = on_reply
        return request_id

    def _deliver(self, kind: MessageKind, request_id: int, result) -> bool:
        """Hand a submitted call its reply; ``False`` when it is none's."""
        on_reply = self._submitted.pop(request_id, None)
        if on_reply is None:
            return False
        if kind is MessageKind.ERROR:
            on_reply(None, _remote_error(result))
        else:
            on_reply(result, None)
        return True

    def poll(self, timeout: float = 0.0) -> int:
        """Read replies to submitted calls while no call is in flight.

        Waits up to ``timeout`` seconds for the first reply, then keeps
        reading whatever is already buffered without waiting further.
        Returns how many submitted calls were answered; any other reply
        is stale and skipped.  Returns at once when no call is
        outstanding.

        Only call this between :meth:`call` invocations (same thread or
        externally serialized) — the stream carries one conversation.
        """
        delivered = 0
        wait = max(0.0, timeout)
        bounded = False
        try:
            while self._submitted:
                ready, _, _ = select.select([self._stream.fileno()], [], [], wait)
                if not ready:
                    break
                wait = 0.0
                if not bounded and hasattr(self._stream, "settimeout"):
                    # Bound the frame read: data is already pending, so a
                    # stall here means a truncated frame, not idleness.
                    self._stream.settimeout(self.call_timeout or 10.0)
                    bounded = True
                kind, rid, _tid, value = decode_message_ex(self._stream.recv())
                delivered += self._deliver(kind, rid, value)
        finally:
            if bounded:
                # Later calls get their own deadline back (``None`` =
                # wait forever), not this read's bound.
                self._stream.settimeout(self.call_timeout)
        return delivered

    # -- remote memory convenience -------------------------------------------

    def alloc(self, nbytes: int) -> SegmentHandle:
        """Allocate a remote memory segment."""
        return SegmentHandle.from_wire(self.call("dlib.mem_alloc", nbytes))

    def write_segment(self, handle: SegmentHandle, data: bytes, offset: int = 0) -> None:
        self.call("dlib.mem_write", handle.segment_id, offset, bytes(data))

    def read_segment(
        self, handle: SegmentHandle, offset: int = 0, nbytes: int | None = None
    ) -> bytes:
        return self.call("dlib.mem_read", handle.segment_id, offset, nbytes)

    def free(self, handle: SegmentHandle) -> None:
        self.call("dlib.mem_free", handle.segment_id)

    def put_array(self, arr: np.ndarray) -> SegmentHandle:
        """Park a whole array in remote memory; returns its handle."""
        raw = np.ascontiguousarray(arr).tobytes()
        handle = self.alloc(len(raw))
        self.write_segment(handle, raw)
        return handle

    def ping(self, payload=None):
        """Round-trip ``payload`` through the server (liveness + latency)."""
        return self.call("dlib.ping", payload)

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "DlibClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
