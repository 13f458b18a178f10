"""dlib wire protocol: typed binary serialization and message framing.

The format is XDR-spirited (the paper cites Sun RPC and Xerox Courier as
dlib's ancestors): every value is a one-byte type tag followed by a fixed
or length-prefixed payload, all little-endian.  NumPy arrays serialize as
dtype + shape + raw buffer, so a 240 kB streamline batch costs one memcpy,
not a per-element loop — the property the whole 1/8-second budget rests
on.  No pickle: the decoder can only ever produce plain data.

A *message* is ``(kind, request_id, payload_value)``; framing (length
prefix) lives in :mod:`repro.dlib.transport`.

Invariants this module guarantees (docs/protocol.md, docs/network.md):

* **Compositionality.**  A container's encoding is the byte-for-byte
  concatenation of its elements' encodings, so any fragment encoded once
  (:class:`PreEncoded`) can be spliced verbatim into a later message.
  The frame store's encode-once design and the v2 per-rake delta
  composition both rest on this property.
* **Header compat.**  Extensions ride on flag bits of the kind byte
  (:data:`TRACE_FLAG`); a message that does not use an extension is
  byte-identical to the pre-extension format, so old decoders read new
  default-mode traffic unchanged and new decoders read old traffic with
  the extension fields zeroed.  New *value* capabilities (the
  fixed-point point codec below) are only ever sent to peers that
  negotiated them (``wt.subscribe``) — a v1 peer never receives bytes
  its decoder cannot parse.
* **Bounded decode.**  Dtypes are whitelisted, byte counts are checked
  against shapes before allocation, nesting depth is capped: hostile
  wire data raises :class:`DlibProtocolError`, never executes.

Tracing extension (backward compatible): a message may carry a 32-bit
*trace ID* after ``request_id``.  Its presence is flagged by the high
bit of the kind byte (:data:`TRACE_FLAG`), so a message with
``trace_id=0`` is byte-identical to the pre-extension format — old
decoders read new untraced traffic unchanged, and the new decoder reads
old traffic as ``trace_id=0``.  See docs/protocol.md, "Traced messages".

Quantized points (v2 frame encoding, docs/network.md): the paper ships
12 bytes per path point (three float32s, section 5.1 / Table 1).
:func:`quantize_points` / :func:`dequantize_points` implement the
6-byte/point alternative — per-axis fixed-point int16 with an explicit
error bound — used by the negotiated frame delivery layer.
:func:`pack_q16` / :func:`unpack_q16` are the lossless wire form of that
int16 grid: second differences along each polyline, zigzag-mapped,
byte-shuffled and deflated, because a smooth streamline's vertices lie
within a few levels of the straight-line continuation of the two before
them, not sixteen bits away.  Given a *base* grid both sides can build
(a rake the client already holds, re-quantized by
:func:`requantize_points`), the same packing ships the residual against
it instead.
"""

from __future__ import annotations

import math
import struct
import zlib
from enum import IntEnum

import numpy as np

__all__ = [
    "DlibError",
    "DlibProtocolError",
    "DlibTimeoutError",
    "RetryAfterError",
    "ServerShutdownError",
    "MessageKind",
    "PreEncoded",
    "TRACE_FLAG",
    "encode_value",
    "decode_value",
    "encode_message",
    "decode_message",
    "decode_message_ex",
    "split_message",
    "quantize_points",
    "dequantize_points",
    "quantization_error_bound",
    "requantize_points",
    "pack_q16",
    "unpack_q16",
    "decode_path_entry",
]

_MAX_DEPTH = 32

# Supported array dtypes, whitelisted so a hostile peer cannot request
# object arrays or other dtypes with side effects.
_ALLOWED_DTYPES = {
    "<f4", "<f8", "<i2", "<i4", "<i8", "<u2", "<u4", "<u8",
    "|i1", "|u1", "|b1",  # single-byte dtypes carry no byte order
}


class DlibError(Exception):
    """Base of the dlib error taxonomy (see docs/protocol.md, Failure model)."""


class DlibProtocolError(DlibError):
    """Malformed or unsupported wire data."""


class DlibTimeoutError(DlibError, TimeoutError):
    """A per-call deadline expired before the reply arrived.

    Subclasses :class:`TimeoutError` so generic socket-level handlers see
    it, and :class:`DlibError` so callers can treat the dlib taxonomy
    uniformly.  Raised by the transport when a socket timeout fires and by
    the client when a call's deadline lapses; the call may or may not have
    executed remotely, so only idempotent calls are safe to retry.
    """


class RetryAfterError(DlibError):
    """A typed admission rejection: the server is shedding load.

    Raised by a procedure (the gateway's admission controller) to refuse
    work *fast* instead of queueing it into a collapse.  The server
    dispatch ships :attr:`wire_data` in the ERROR payload, so across the
    wire this arrives as remote type ``"RetryAfterError"`` with a machine
    readable ``retry_after`` — the client should back off that many
    seconds before asking again.  Distinct from a transport failure: the
    service is up and answering; it is declining more load on purpose.
    """

    def __init__(self, message: str, *, retry_after: float = 1.0, reason: str = "") -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)
        self.reason = str(reason)

    @property
    def wire_data(self) -> dict:
        """Structured detail spliced into the ERROR payload's ``data``."""
        return {"retry_after": self.retry_after, "reason": self.reason}


class ServerShutdownError(DlibError):
    """The server shut down while this call was parked.

    A handler may *defer* its reply (see :class:`repro.dlib.server.Deferred`)
    — e.g. ``wt.frame`` parking until the pipeline publishes.  If the
    server stops while continuations are parked, shutdown resolves each
    of them with this error instead of silently dropping the reply, so
    the client gets a typed, retry-safe answer rather than a dead socket
    mid-call.  Crosses the wire as remote type ``"ServerShutdownError"``.
    """

    wire_type = "ServerShutdownError"


class MessageKind(IntEnum):
    """Top-level message discriminator: every message is a call or its
    reply (kind 4, the retired server-initiated push, is refused)."""

    CALL = 1
    RESULT = 2
    ERROR = 3


_KINDS = {int(kind): kind for kind in MessageKind}


class PreEncoded:
    """A value already serialized with :func:`encode_value`.

    Value encoding is compositional — a container's encoding is the
    concatenation of its elements' encodings — so a fragment encoded once
    can be spliced verbatim into any later message.  The frame pipeline
    uses this to encode a published frame's path arrays exactly once at
    publish time; every subsequent ``wt.frame`` response is a memcpy of
    the cached fragment instead of a fresh array serialization.

    The wrapper exists only on the sending side: the decoder sees plain
    wire bytes and produces the original value.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = bytes(data)

    @classmethod
    def wrap(cls, value) -> "PreEncoded":
        """Encode ``value`` now; splice it into messages later for free."""
        return cls(encode_value(value))

    def decode(self):
        """Decode back to the original value (mainly for tests/debugging)."""
        return decode_value(self.data)

    @property
    def nbytes(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreEncoded({len(self.data)} bytes)"


_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")
#: An array's shape, by ``ndim`` (one byte on the wire).
_SHAPES = tuple(struct.Struct(f"<{n}q") for n in range(256))


def encode_value(value, _depth: int = 0) -> bytes:
    """Serialize a Python/NumPy value to wire bytes."""
    if _depth > _MAX_DEPTH:
        raise DlibProtocolError("value nesting too deep")
    out = bytearray()
    _encode_into(out, value, _depth)
    return bytes(out)


def _encode_into(out: bytearray, value, depth: int) -> None:
    # Most common first: a message is mostly maps, strings and fragments.
    if isinstance(value, dict):
        out += b"M"
        out += _U32.pack(len(value))
        for k, v in value.items():
            if depth + 1 > _MAX_DEPTH:
                raise DlibProtocolError("value nesting too deep")
            _encode_into(out, k, depth + 1)
            _encode_into(out, v, depth + 1)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"S"
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, PreEncoded):
        out += value.data
    elif value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        if -(2**63) <= value < 2**63:
            out += b"I"
            out += _I64.pack(value)
        else:
            text = str(value).encode()
            out += b"J"
            out += _U32.pack(len(text))
            out += text
    elif isinstance(value, float):
        out += b"D"
        out += _F64.pack(value)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out += b"B"
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, np.ndarray):
        _encode_array(out, value)
    elif isinstance(value, (np.generic,)):
        _encode_into(out, value.item(), depth)
    elif isinstance(value, (list, tuple)):
        out += b"L" if isinstance(value, list) else b"U"
        out += _U32.pack(len(value))
        for item in value:
            if depth + 1 > _MAX_DEPTH:
                raise DlibProtocolError("value nesting too deep")
            _encode_into(out, item, depth + 1)
    else:
        raise DlibProtocolError(
            f"cannot serialize value of type {type(value).__name__}"
        )


def _encode_array(out: bytearray, arr: np.ndarray) -> None:
    # Not ascontiguousarray: that promotes 0-d arrays to shape (1,),
    # which would silently change the shape across a round trip.
    arr = np.asarray(arr, order="C")
    dt = arr.dtype.newbyteorder("<") if arr.dtype.byteorder == ">" else arr.dtype
    if dt.byteorder == "=":
        dt = dt.newbyteorder("<")
    arr = arr.astype(dt, copy=False)
    tag = dt.str
    if tag not in _ALLOWED_DTYPES:
        raise DlibProtocolError(f"array dtype {arr.dtype} not supported on the wire")
    out += b"A"
    tag_b = tag.encode()
    out += _U8.pack(len(tag_b))
    out += tag_b
    out += _U8.pack(arr.ndim)
    out += _SHAPES[arr.ndim].pack(*arr.shape)
    raw = arr.tobytes()
    out += _U64.pack(len(raw))
    out += raw


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DlibProtocolError("truncated wire data")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: struct.Struct) -> tuple:
        end = self.pos + fmt.size
        if end > len(self.data):
            raise DlibProtocolError("truncated wire data")
        values = fmt.unpack_from(self.data, self.pos)
        self.pos = end
        return values


def decode_value(data: bytes):
    """Deserialize wire bytes produced by :func:`encode_value`."""
    reader = _Reader(data)
    value = _decode(reader, 0)
    if reader.pos != len(data):
        raise DlibProtocolError(
            f"{len(data) - reader.pos} trailing bytes after value"
        )
    return value


def _decode(r: _Reader, depth: int):
    if depth > _MAX_DEPTH:
        raise DlibProtocolError("value nesting too deep")
    tag = r.take(1)
    if tag == b"N":
        return None
    if tag == b"T":
        return True
    if tag == b"F":
        return False
    if tag == b"I":
        return r.unpack(_I64)[0]
    if tag == b"J":
        (n,) = r.unpack(_U32)
        raw = r.take(n)
        try:
            return int(raw.decode("ascii"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise DlibProtocolError("corrupt big-integer payload") from exc
    if tag == b"D":
        return r.unpack(_F64)[0]
    if tag == b"S":
        (n,) = r.unpack(_U32)
        raw = r.take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DlibProtocolError("corrupt UTF-8 string payload") from exc
    if tag == b"B":
        (n,) = r.unpack(_U32)
        return r.take(n)
    if tag == b"A":
        (tlen,) = r.unpack(_U8)
        dtype_str = r.take(tlen).decode("ascii", "replace")
        if dtype_str not in _ALLOWED_DTYPES:
            raise DlibProtocolError(f"array dtype {dtype_str!r} not allowed")
        (ndim,) = r.unpack(_U8)
        shape = r.unpack(_SHAPES[ndim])
        if any(s < 0 for s in shape):
            raise DlibProtocolError("negative array dimension")
        (nbytes,) = r.unpack(_U64)
        dt = np.dtype(dtype_str)
        # Python ints: an int64 product of hostile dimensions can wrap
        # to a count that matches ``nbytes``.
        count = math.prod(shape)
        if nbytes != count * dt.itemsize:
            raise DlibProtocolError("array byte count does not match shape")
        raw = r.take(nbytes)
        return np.frombuffer(raw, dtype=dt).reshape(shape).copy()
    if tag in (b"L", b"U"):
        (n,) = r.unpack(_U32)
        items = [_decode(r, depth + 1) for _ in range(n)]
        return items if tag == b"L" else tuple(items)
    if tag == b"M":
        (n,) = r.unpack(_U32)
        out = {}
        for _ in range(n):
            k = _decode(r, depth + 1)
            try:
                hash(k)
            except TypeError as exc:
                raise DlibProtocolError("unhashable dict key on wire") from exc
            out[k] = _decode(r, depth + 1)
        return out
    raise DlibProtocolError(f"unknown type tag {tag!r}")


_HEADER = struct.Struct("<BI")
_TRACE_ID = struct.Struct("<I")

#: High bit of the kind byte: a 32-bit trace ID follows ``request_id``.
#: Untraced messages (``trace_id=0``) never set it, so their bytes are
#: identical to the pre-extension wire format.
TRACE_FLAG = 0x80


def encode_message(
    kind: MessageKind, request_id: int, payload, trace_id: int = 0
) -> bytes:
    """Encode a complete message (unframed).

    ``trace_id=0`` (the default) produces the classic header; a nonzero
    trace ID sets :data:`TRACE_FLAG` on the kind byte and appends the ID
    after ``request_id`` (see docs/protocol.md, "Traced messages").
    """
    if not 0 <= trace_id < 2**32:
        raise DlibProtocolError("trace_id must fit in 32 bits")
    if trace_id:
        header = _HEADER.pack(int(kind) | TRACE_FLAG, request_id) + _TRACE_ID.pack(
            trace_id
        )
    else:
        header = _HEADER.pack(int(kind), request_id)
    return header + encode_value(payload)


def decode_message_ex(data: bytes) -> tuple[MessageKind, int, int, object]:
    """Decode a message to ``(kind, request_id, trace_id, payload)``.

    Accepts both wire formats: messages without :data:`TRACE_FLAG`
    decode with ``trace_id=0``.
    """
    kind, request_id, trace_id, body = split_message(data)
    return kind, request_id, trace_id, decode_value(body)


def split_message(data: bytes) -> tuple[MessageKind, int, int, bytes]:
    """Decode only a message's header: ``(kind, request_id, trace_id, body)``.

    ``body`` is the payload's wire bytes, undecoded — a relay wraps them
    in :class:`PreEncoded` to pass a value on without touching it.
    """
    if len(data) < _HEADER.size:
        raise DlibProtocolError("message shorter than header")
    kind_raw, request_id = _HEADER.unpack_from(data)
    trace_id = 0
    body = _HEADER.size
    if kind_raw & TRACE_FLAG:
        kind_raw &= ~TRACE_FLAG
        if len(data) < _HEADER.size + _TRACE_ID.size:
            raise DlibProtocolError("traced message shorter than its header")
        (trace_id,) = _TRACE_ID.unpack_from(data, _HEADER.size)
        if trace_id == 0:
            raise DlibProtocolError("traced message carries trace_id 0")
        body += _TRACE_ID.size
    kind = _KINDS.get(kind_raw)
    if kind is None:
        raise DlibProtocolError(f"unknown message kind {kind_raw}")
    return kind, request_id, trace_id, data[body:]


def decode_message(data: bytes) -> tuple[MessageKind, int, object]:
    """Decode a complete message produced by :func:`encode_message`.

    The classic three-field view; any trace ID is dropped (use
    :func:`decode_message_ex` to see it).
    """
    kind, request_id, _trace_id, payload = decode_message_ex(data)
    return kind, request_id, payload


# -- quantized point coordinates (v2 frame encoding) --------------------------

#: Quantization levels of the int16 fixed-point codec.  The span of each
#: axis fits within [-32767, 32767] (65535 levels), so no axis is quantized
#: finer than ``span / 65534``.
_Q_LEVELS = 65534.0
_Q_HALF = 32767.0

#: The reconstruction error q16 promises (docs/network.md): every axis
#: gets the coarsest step whose :func:`quantization_error_bound` stays
#: within it, unless the axis spans more than 65534 such steps (113 to
#: 129 grid units, by distance from the origin), where the 16-bit step
#: governs.
Q16_ERROR_BUDGET = 1e-3

#: float32's machine epsilon as a Python float: the bound is float64
#: arithmetic (a NumPy float32 scalar would round it to float32).
_F32_EPS = float(np.finfo(np.float32).eps)


def _budget_step(magnitude: float) -> float:
    """The largest float32 step whose error bound meets the budget.

    ``magnitude`` is the largest ``|offset|`` of the payload; 0 when no
    step does (offsets beyond ~8 000 units, where float32 rounding alone
    spends the budget).  Solves :func:`quantization_error_bound` for its
    step in closed form, then backs off ulp by ulp from float32 rounding.
    """
    step = (Q16_ERROR_BUDGET - magnitude * _F32_EPS) / (0.5005 + _Q_LEVELS * _F32_EPS)
    if step <= 0.0:
        return 0.0
    step32 = np.float32(step)
    offset = np.float32(magnitude)
    while step32 > 0 and quantization_error_bound(
        {"scale": [step32], "offset": [offset]}
    ) > Q16_ERROR_BUDGET:
        step32 = np.nextafter(step32, np.float32(0))
    return float(step32)


def quantize_points(vertices: np.ndarray) -> dict:
    """Quantize float32 point coordinates to 6 bytes/point fixed point.

    ``vertices`` is any ``(..., 3)`` float array of path points.  Each of
    the three axes is affinely mapped onto int16 from the array's own
    minimum, so the payload is ``{"q": int16 (..., 3), "scale": float32
    (3,), "offset": float32 (3,)}`` — every value a plain wire type,
    decodable by :func:`decode_value` with no new tags.

    The step (``scale``) of an axis is the coarser of ``span / 65534``
    and the largest step whose :func:`quantization_error_bound` stays
    within :data:`Q16_ERROR_BUDGET`: a pure function of the vertices.
    The reconstruction error of :func:`dequantize_points` is bounded per
    axis by ``scale / 2``; for the paper's rakes (tens of grid units of
    extent) that is the 1e-3 budget, at most a quarter of the
    streamlines' own error against the analytic flow
    (``tests/test_q16_tolerance.py``), on a grid of fewer levels than the
    span allows, which packs smaller.
    """
    v = np.asarray(vertices, dtype=np.float32)
    if v.ndim < 2 or v.shape[-1] != 3:
        raise DlibProtocolError("quantize_points expects a (..., 3) array")
    flat = v.reshape(-1, 3)
    if flat.shape[0] == 0:
        lo = np.zeros(3, dtype=np.float32)
        scale = np.ones(3, dtype=np.float32)
    else:
        lo = flat.min(axis=0)
        hi = flat.max(axis=0)
        # float64 for the span arithmetic: a float32 span of a huge
        # coordinate range must not round to zero scale.
        span_step = (hi.astype(np.float64) - lo.astype(np.float64)) / _Q_LEVELS
        budget_step = _budget_step(float(np.abs(lo).max()))
        scale = np.maximum(
            span_step, max(budget_step, np.finfo(np.float32).tiny)
        ).astype(np.float32)
    return {
        "q": _to_grid(flat, scale, lo).reshape(v.shape),
        "scale": scale,
        "offset": lo.astype(np.float32),
    }


def _to_grid(points: np.ndarray, scale: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """The int16 grid of ``(..., 3)`` points under one axis mapping.

    Float64 arithmetic on float32-exact ``scale`` / ``offset``, so any
    two callers with the same inputs get the same grid, bit for bit.
    """
    q = np.rint((points.astype(np.float64) - offset) / scale - _Q_HALF)
    return np.clip(q, -_Q_HALF, _Q_HALF).astype(np.int16)


def _axis_map(payload: dict) -> tuple[np.ndarray, np.ndarray]:
    """A payload's validated ``(scale, offset)``, as float64 ``(3,)``."""
    try:
        scale = np.asarray(payload["scale"], dtype=np.float64)
        offset = np.asarray(payload["offset"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise DlibProtocolError("malformed quantized-point payload") from exc
    if scale.shape != (3,) or offset.shape != (3,):
        raise DlibProtocolError("quantized-point scale/offset must be (3,)")
    if not (np.isfinite(scale).all() and np.isfinite(offset).all()):
        raise DlibProtocolError("quantized-point scale/offset must be finite")
    return scale, offset


def dequantize_points(payload: dict) -> np.ndarray:
    """Invert :func:`quantize_points`; returns float32 ``(..., 3)``."""
    try:
        q = np.asarray(payload["q"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise DlibProtocolError("malformed quantized-point payload") from exc
    scale, offset = _axis_map(payload)
    if q.ndim < 1 or q.shape[-1] != 3:
        raise DlibProtocolError("quantized points must be a (..., 3) array")
    return ((q + _Q_HALF) * scale + offset).astype(np.float32)


def requantize_points(vertices: np.ndarray, payload: dict) -> np.ndarray:
    """Quantize ``vertices`` onto ``payload``'s axis mapping; int16 grid.

    The grid :func:`quantize_points` would give had the bounding box
    been ``payload``'s ``scale`` / ``offset``.  Server and client both
    apply it to the float32 rake the client holds, so the prediction a
    residual is taken against (:func:`pack_q16`'s ``base``) is the same
    int16 grid on both sides of the wire.
    """
    scale, offset = _axis_map(payload)
    if not (scale > 0).all():
        raise DlibProtocolError("quantized-point scale must be positive")
    v = np.asarray(vertices)
    if v.ndim < 1 or v.shape[-1] != 3:
        raise DlibProtocolError("requantize_points expects a (..., 3) array")
    return _to_grid(v, scale, offset)


def quantization_error_bound(payload: dict) -> float:
    """Worst-case per-axis reconstruction error of a quantized payload.

    ``max(scale) / 2`` plus the float32 rounding of the reconstruction
    itself (one ulp of the coordinate magnitude, folded in as a 1e-3
    relative margin on the bound — negligible against the fixed-point
    step for any physical grid).
    """
    scale = np.asarray(payload["scale"], dtype=np.float64)
    offset = np.asarray(payload["offset"], dtype=np.float64)
    step = float(scale.max()) / 2.0
    magnitude = float(np.abs(offset).max()) + float(scale.max()) * _Q_LEVELS
    return step * 1.001 + magnitude * _F32_EPS


#: The one deflate setting of :func:`pack_q16` (``zlib.compressobj``
#: arguments): level 6, a 32 kB window, the largest state, and the
#: filtered strategy, which suits residuals that are mostly small.  Any
#: setting inflates with the plain decoder, so this is not wire format.
Q16_DEFLATE = (6, zlib.DEFLATED, 15, 9, zlib.Z_FILTERED)

#: Most points one packed q16 entry may declare: about 160 paper-scale
#: frames (25.7k points each) or 40 times Table 1's largest row.  It
#: caps what a hostile ``qshape`` can make :func:`unpack_q16` allocate
#: (6 bytes/point inflated).
Q16_MAX_POINTS = 1 << 22


def _q16_base(base, shape: tuple) -> np.ndarray:
    """``base`` checked to be an int16 grid of ``shape``."""
    base = np.asarray(base)
    if base.dtype != np.int16 or base.shape != tuple(shape):
        raise DlibProtocolError("a q16 base must be an int16 grid of the entry's shape")
    return base


def pack_q16(q: np.ndarray, base: np.ndarray | None = None) -> dict:
    """Losslessly pack an int16 ``(n, L, 3)`` polyline grid for the wire.

    ``q`` is :func:`quantize_points`' ``"q"`` array for ``n`` polylines
    of ``L`` vertices.  With a ``base`` (an int16 grid of the same shape
    the reader can rebuild, see :func:`requantize_points`) the residual
    ``q - base`` is packed instead.  Along each polyline the grid is
    replaced by its second-order prediction residual ``v[i] - 2 v[i-1] +
    v[i-2]`` (the first vertex kept, the second as a first difference;
    int16 arithmetic, mod 2**16), zigzag-mapped so small residuals of
    either sign have a zero high byte, laid out axis-planar,
    byte-shuffled (all low bytes, then all high bytes) and deflated
    with :data:`Q16_DEFLATE`.  Returns ``{"qpack": bytes, "qshape": [n,
    L, 3]}`` — plain wire types, inverted exactly by :func:`unpack_q16`
    given the same ``base``.
    """
    q = np.asarray(q)
    if q.dtype != np.int16 or q.ndim != 3 or q.shape[2] != 3:
        raise DlibProtocolError("pack_q16 expects an int16 (n, L, 3) array")
    n, length, _ = q.shape
    if n * length > Q16_MAX_POINTS:
        raise DlibProtocolError("too many points for one packed q16 entry")
    if base is not None:
        q = q - _q16_base(base, q.shape)
    planar = np.ascontiguousarray(q.transpose(2, 0, 1), dtype="<i2")
    d1 = planar.copy()
    d1[..., 1:] -= planar[..., :-1]
    d2 = d1.copy()
    d2[..., 2:] -= d1[..., 1:-1]
    zigzag = (d2 << 1) ^ (d2 >> 15)
    shuffled = np.ascontiguousarray(zigzag.view(np.uint8).reshape(-1, 2).T)
    deflater = zlib.compressobj(*Q16_DEFLATE)
    return {
        "qpack": deflater.compress(shuffled.tobytes()) + deflater.flush(),
        "qshape": [n, length, 3],
    }


def unpack_q16(payload: dict, base: np.ndarray | None = None) -> np.ndarray:
    """Invert :func:`pack_q16`; returns int16 ``(n, L, 3)``.

    ``base`` is the grid the entry was packed against, if any; one of
    another shape raises :class:`DlibProtocolError`.  The payload is
    untrusted: ``qshape`` is validated and capped before anything is
    allocated, the inflate is bounded by the size the shape implies, and
    a stream that is truncated, corrupt, short, long or followed by
    trailing bytes raises :class:`DlibProtocolError`.
    """
    try:
        data, shape = payload["qpack"], payload["qshape"]
    except (KeyError, TypeError) as exc:
        raise DlibProtocolError("malformed packed q16 payload") from exc
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise DlibProtocolError("packed q16 data must be bytes")
    if (
        not isinstance(shape, (list, tuple))
        or len(shape) != 3
        or any(type(s) is not int or s < 0 for s in shape)
        or shape[2] != 3
    ):
        raise DlibProtocolError("qshape must be [n, L, 3], non-negative ints")
    n, length, _ = shape
    if n * length > Q16_MAX_POINTS:
        raise DlibProtocolError("qshape declares too many points")
    if base is not None:
        base = _q16_base(base, shape)
    expected = n * length * 6
    inflater = zlib.decompressobj()
    try:
        # One byte of slack: a stream that would inflate past the
        # declared size stops here instead of allocating what it asks for.
        raw = inflater.decompress(data, expected + 1)
    except zlib.error as exc:
        raise DlibProtocolError("corrupt packed q16 stream") from exc
    if len(raw) != expected or not inflater.eof or inflater.unused_data:
        raise DlibProtocolError("packed q16 stream does not match qshape")
    shuffled = np.frombuffer(raw, dtype=np.uint8).reshape(2, -1)
    zigzag = np.ascontiguousarray(shuffled.T).view("<u2").reshape(3, n, length)
    d2 = (zigzag >> 1).view(np.int16) ^ -(zigzag & 1).view(np.int16)
    d2[..., 1:] = np.cumsum(d2[..., 1:], axis=2, dtype=np.int16)  # -> d1
    planar = np.cumsum(d2, axis=2, dtype=np.int16)
    q = np.ascontiguousarray(planar.transpose(1, 2, 0))
    if base is not None:
        q += base
    return q


def decode_path_entry(entry: dict, held: dict | None = None) -> dict:
    """Normalize one wire path entry to the v1 in-memory shape.

    A v2 frame carries a rake entry in its negotiated encoding: float32
    (``vertices``) or packed fixed point
    (``qpack``/``qshape``/``scale``/``offset``, see :func:`pack_q16`).
    A packed entry marked ``"qpred": true`` is a residual against
    ``held`` — the ``{kind, vertices, lengths}`` path the reader holds
    for the rake — re-quantized on the entry's own ``scale`` /
    ``offset``, and it may omit ``kind`` and ``lengths`` where they equal
    ``held``'s; without ``held`` it raises :class:`DlibProtocolError`.
    This returns the common ``{"kind", "vertices" (float32), "lengths"}``
    form the render path consumes, so everything above the decoder is
    encoding-agnostic.
    """
    if not isinstance(entry, dict):
        raise DlibProtocolError("malformed path entry")
    predicted = "qpack" in entry and entry.get("qpred")
    if predicted:
        if held is None:
            raise DlibProtocolError("a predicted q16 entry needs the held rake")
        entry = {"kind": held["kind"], "lengths": held["lengths"], **entry}
    if "kind" not in entry or "lengths" not in entry:
        raise DlibProtocolError("malformed path entry")
    if "qpack" in entry:
        base = requantize_points(held["vertices"], entry) if predicted else None
        vertices = dequantize_points(dict(entry, q=unpack_q16(entry, base)))
    elif "vertices" in entry:
        vertices = np.asarray(entry["vertices"], dtype=np.float32)
    else:
        raise DlibProtocolError("path entry has neither vertices nor qpack")
    return {
        "kind": entry["kind"],
        "vertices": vertices,
        "lengths": np.asarray(entry["lengths"]),
    }
