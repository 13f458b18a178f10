"""Property-based round-trip tests for the dlib codec.

Complements ``test_dlib_protocol.py`` (which covers the value grammar
and rejection paths) with the properties the observability PR leans on:

* arrays of *every* whitelisted dtype, at any shape and nesting depth,
  survive a round trip bit-for-bit;
* a :class:`PreEncoded` fragment is indistinguishable on the wire from
  encoding the original value inline — at any position in a payload;
* the trace-ID header extension round-trips, and its absence is
  byte-identical to the pre-extension format, so old-format messages
  (and old decoders) keep working — the compat regression suite;
* the packed q16 forms (``pack_q16`` / ``unpack_q16``, alone or against
  a base grid) are lossless on any int16 polyline grid, decode
  bit-identically to ``dequantize_points`` of that grid — the predicted
  form against the decoded rake the reader holds — and reject every
  damaged payload, and every base of another shape, with a typed error;
* ``quantize_points``' step per axis is the coarsest the 1e-3 error
  budget allows (``Q16_ERROR_BUDGET``), so any block that fits the budget
  at all decodes within it, and a reader holding a rake quantized at the
  old 16-bit step still decodes a predicted entry on the new step
  exactly: the step is carried by ``scale``, so the wire format is
  unchanged.
"""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.dlib.protocol import (
    Q16_ERROR_BUDGET,
    TRACE_FLAG,
    DlibProtocolError,
    MessageKind,
    PreEncoded,
    decode_message,
    decode_message_ex,
    decode_path_entry,
    decode_value,
    dequantize_points,
    encode_message,
    encode_value,
    pack_q16,
    quantization_error_bound,
    quantize_points,
    requantize_points,
    unpack_q16,
)

# Every dtype the wire whitelists (docs/protocol.md, "Value encoding").
WIRE_DTYPES = [
    np.dtype(t)
    for t in ("<f4", "<f8", "<i2", "<i4", "<i8", "<u2", "<u4", "<u8",
              "|i1", "|u1", "|b1")
]

wire_arrays = st.sampled_from(WIRE_DTYPES).flatmap(
    lambda dt: arrays(
        dtype=dt,
        shape=array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
        elements=(
            st.booleans()
            if dt.kind == "b"
            else st.integers(
                max(np.iinfo(dt).min, -100) if dt.kind in "iu" else -100,
                min(np.iinfo(dt).max, 100) if dt.kind in "iu" else 100,
            )
            if dt.kind in "iu"
            else st.floats(-1e6, 1e6, width=dt.itemsize * 8 if dt.itemsize <= 8 else 64)
        ),
    )
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

# Unlike the sibling file's strategy, arrays appear at any nesting level.
payloads = st.recursive(
    st.one_of(scalars, wire_arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
    ),
    max_leaves=10,
)


def assert_wire_equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_wire_equal(x, y)
    elif isinstance(a, dict):
        assert set(a) == set(b)
        for k in a:
            assert_wire_equal(a[k], b[k])
    else:
        assert a == b


class TestDeepPayloadRoundtrip:
    @given(payloads)
    @settings(max_examples=150)
    def test_nested_payloads_with_arrays_roundtrip(self, value):
        assert_wire_equal(decode_value(encode_value(value)), value)

    @given(wire_arrays)
    @settings(max_examples=150)
    def test_every_whitelisted_dtype_roundtrips_exactly(self, arr):
        back = decode_value(encode_value(arr))
        assert back.shape == arr.shape
        assert back.dtype.str.lstrip("<=|") == arr.dtype.str.lstrip("<=|")
        np.testing.assert_array_equal(back, arr)


class TestPreEncodedPassthrough:
    """A pre-encoded fragment must be a perfect wire citizen: splicing
    ``PreEncoded(encode_value(v))`` anywhere produces the exact bytes of
    encoding ``v`` inline (this is what lets the frame store encode each
    published frame once and the server reuse the fragment per client)."""

    @given(payloads)
    @settings(max_examples=100)
    def test_toplevel_passthrough_is_byte_identical(self, value):
        inline = encode_value(value)
        assert encode_value(PreEncoded(inline)) == inline

    @given(payloads)
    @settings(max_examples=100)
    def test_nested_passthrough_decodes_to_original(self, value):
        wrapped = {"frame": PreEncoded(encode_value(value)), "seq": 7}
        plain = {"frame": value, "seq": 7}
        assert encode_value(wrapped) == encode_value(plain)
        assert_wire_equal(decode_value(encode_value(wrapped)), plain)


_OLD_HEADER = struct.Struct("<BI")


def old_format_message(kind: MessageKind, request_id: int, payload) -> bytes:
    """Hand-pack the pre-extension wire format (no trace field)."""
    return _OLD_HEADER.pack(int(kind), request_id) + encode_value(payload)


class TestTraceHeaderExtension:
    @given(
        st.sampled_from(list(MessageKind)),
        st.integers(0, 2**32 - 1),
        st.integers(1, 2**32 - 1),
        payloads,
    )
    @settings(max_examples=100)
    def test_traced_message_roundtrip(self, kind, rid, trace_id, payload):
        wire = encode_message(kind, rid, payload, trace_id=trace_id)
        assert wire[0] & TRACE_FLAG
        kind2, rid2, tid2, payload2 = decode_message_ex(wire)
        assert kind2 is kind and rid2 == rid and tid2 == trace_id
        assert_wire_equal(payload2, payload)

    @given(st.sampled_from(list(MessageKind)), st.integers(0, 2**32 - 1), payloads)
    @settings(max_examples=100)
    def test_untraced_message_is_byte_identical_to_old_format(self, kind, rid, payload):
        assert encode_message(kind, rid, payload) == old_format_message(
            kind, rid, payload
        )

    @given(st.sampled_from(list(MessageKind)), st.integers(0, 2**32 - 1), payloads)
    @settings(max_examples=100)
    def test_old_format_decodes_with_trace_id_zero(self, kind, rid, payload):
        """Compat regression: the new decoder reads pre-extension bytes."""
        kind2, rid2, tid, payload2 = decode_message_ex(
            old_format_message(kind, rid, payload)
        )
        assert kind2 is kind and rid2 == rid and tid == 0
        assert_wire_equal(payload2, payload)

    @given(st.integers(1, 2**32 - 1))
    @settings(max_examples=50)
    def test_classic_decoder_drops_the_trace_id(self, trace_id):
        wire = encode_message(MessageKind.CALL, 3, {"proc": "p"}, trace_id=trace_id)
        kind, rid, payload = decode_message(wire)
        assert kind is MessageKind.CALL and rid == 3
        assert payload == {"proc": "p"}

    def test_trace_id_out_of_range_rejected(self):
        for bad in (-1, 2**32):
            with pytest.raises(DlibProtocolError, match="32 bits"):
                encode_message(MessageKind.CALL, 1, None, trace_id=bad)

    def test_traced_header_truncation_rejected(self):
        wire = encode_message(MessageKind.CALL, 1, None, trace_id=9)
        with pytest.raises(DlibProtocolError, match="shorter"):
            decode_message_ex(wire[: _OLD_HEADER.size + 2])

    def test_flag_with_zero_trace_id_rejected(self):
        # A forged header: TRACE_FLAG set, but the appended ID is 0.
        wire = (
            _OLD_HEADER.pack(int(MessageKind.CALL) | TRACE_FLAG, 1)
            + struct.pack("<I", 0)
            + encode_value(None)
        )
        with pytest.raises(DlibProtocolError, match="trace_id 0"):
            decode_message_ex(wire)


# -- packed q16 polylines -------------------------------------------------------

q16_grids = arrays(
    dtype=np.int16,
    shape=st.tuples(st.integers(0, 5), st.integers(0, 24), st.just(3)),
    elements=st.integers(-32768, 32767),
)

polylines = arrays(
    dtype=np.float32,
    shape=st.tuples(st.integers(0, 4), st.integers(0, 20), st.just(3)),
    elements=st.floats(-1e4, 1e4, width=32),
)


def full_lengths(vertices: np.ndarray) -> np.ndarray:
    return np.full(vertices.shape[0], vertices.shape[1], dtype=np.int64)


def packed_entry(vertices: np.ndarray, held: dict | None = None) -> dict:
    """A q16 rake entry as the server builds it (``RakeEntry._build_q16``):
    the keyframe form, or with ``held`` (the ``{kind, vertices, lengths}``
    path the reader holds) the form predicted from it, which leaves out
    the ``kind`` and ``lengths`` equal to ``held``'s."""
    payload = quantize_points(vertices)
    base = None if held is None else requantize_points(held["vertices"], payload)
    entry = {
        "kind": "streamline",
        **pack_q16(payload["q"], base),
        "scale": payload["scale"],
        "offset": payload["offset"],
        "lengths": full_lengths(vertices),
    }
    if held is not None:
        entry["qpred"] = True
        if held["kind"] == entry["kind"]:
            del entry["kind"]
        if np.array_equal(held["lengths"], entry["lengths"]):
            del entry["lengths"]
    return entry


def smooth_grid(n: int = 3, length: int = 40) -> np.ndarray:
    """A compressible grid, so the deflate stream is more than a header."""
    t = np.linspace(0.0, 6.0, length)
    curve = np.stack([np.sin(t), np.cos(t), t / 6.0], axis=-1) * 30000.0
    return np.repeat(curve[None], n, axis=0).astype(np.int16)


def base_for(q: np.ndarray, predicted: bool) -> np.ndarray | None:
    """A base of ``q``'s shape for the predicted form (``None``: keyframe):
    a shifted, scaled copy, so the residual is neither zero nor ``q``."""
    if not predicted:
        return None
    return (np.roll(q, 1, axis=1).astype(np.int32) * 3 + 7).astype(np.int16)


class TestPackedQ16:
    @given(q16_grids)
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_through_the_wire_is_lossless(self, q):
        back = unpack_q16(decode_value(encode_value(pack_q16(q))))
        assert back.dtype == np.int16 and back.shape == q.shape
        np.testing.assert_array_equal(back, q)

    @given(
        q16_grids.flatmap(
            lambda q: st.tuples(
                st.just(q),
                arrays(np.int16, q.shape, elements=st.integers(-32768, 32767)),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_against_a_base_is_lossless(self, grids):
        q, base = grids
        back = unpack_q16(decode_value(encode_value(pack_q16(q, base))), base)
        assert back.dtype == np.int16 and back.shape == q.shape
        np.testing.assert_array_equal(back, q)

    @pytest.mark.parametrize("shape", [(0, 0, 3), (0, 7, 3), (4, 0, 3), (4, 1, 3)])
    def test_degenerate_shapes_roundtrip(self, shape):
        q = np.arange(int(np.prod(shape)), dtype=np.int16).reshape(shape)
        back = unpack_q16(decode_value(encode_value(pack_q16(q))))
        assert back.shape == shape
        np.testing.assert_array_equal(back, q)
        base = base_for(q, True)
        np.testing.assert_array_equal(unpack_q16(pack_q16(q, base), base), q)

    def test_difference_wraparound_is_exact(self):
        """+-32767 alternation: every difference overflows int16, with or
        without a base (one of opposite sign, so the residual wraps too)."""
        q = np.empty((2, 9, 3), dtype=np.int16)
        q[:, 0::2] = 32767
        q[:, 1::2] = -32767
        q[1] = -q[1]
        np.testing.assert_array_equal(unpack_q16(pack_q16(q)), q)
        for base in (-q, np.full_like(q, -32768), base_for(q, True)):
            np.testing.assert_array_equal(unpack_q16(pack_q16(q, base), base), q)

    def test_a_base_of_another_shape_is_refused(self):
        q = smooth_grid(3, 40)
        packed = pack_q16(q, base_for(q, True))
        for bad in (
            smooth_grid(3, 39),
            smooth_grid(2, 40),
            np.zeros((3, 40, 3), dtype=np.int32),
            np.zeros((3 * 40 * 3,), dtype=np.int16),
        ):
            with pytest.raises(DlibProtocolError):
                pack_q16(q, bad)
            with pytest.raises(DlibProtocolError):
                unpack_q16(packed, bad)

    @given(polylines)
    @settings(max_examples=100, deadline=None)
    def test_packed_entry_decodes_bit_identical_to_plain_q16(self, vertices):
        decoded = decode_path_entry(decode_value(encode_value(packed_entry(vertices))))
        expected = dequantize_points(quantize_points(vertices))
        assert decoded["vertices"].dtype == np.float32
        assert decoded["vertices"].shape == vertices.shape
        assert decoded["vertices"].tobytes() == expected.tobytes()

    @given(
        polylines.flatmap(
            lambda v: st.tuples(
                st.just(v),
                arrays(np.float32, v.shape, elements=st.floats(-1e4, 1e4, width=32)),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_predicted_entry_decodes_bit_identical_to_plain_q16(self, pair):
        """The predicted form, decoded against the rake the reader holds
        (itself a decoded q16 grid), gives the keyframe form's vertices."""
        before, after = pair
        held = {
            "kind": "streamline",
            "vertices": dequantize_points(quantize_points(before)),
            "lengths": full_lengths(before),
        }
        wire = decode_value(encode_value(packed_entry(after, held)))
        assert wire["qpred"] is True
        decoded = decode_path_entry(wire, held)
        expected = dequantize_points(quantize_points(after))
        assert decoded["vertices"].tobytes() == expected.tobytes()
        assert decoded["kind"] == "streamline"
        np.testing.assert_array_equal(decoded["lengths"], full_lengths(after))
        with pytest.raises(DlibProtocolError, match="held"):
            decode_path_entry(wire)  # nothing held to predict from

    def test_pack_rejects_anything_but_an_int16_polyline_grid(self):
        for bad in (
            np.zeros((2, 4, 3), dtype=np.int32),
            np.zeros((4, 3), dtype=np.int16),
            np.zeros((2, 4, 2), dtype=np.int16),
        ):
            with pytest.raises(DlibProtocolError):
                pack_q16(bad)

    @given(q16_grids, st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_truncated_stream_rejected(self, q, predicted, data):
        base = base_for(q, predicted)
        packed = pack_q16(q, base)
        cut = data.draw(st.integers(0, len(packed["qpack"]) - 1))
        with pytest.raises(DlibProtocolError):
            unpack_q16(dict(packed, qpack=packed["qpack"][:cut]), base)

    @given(st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_flip_is_rejected_or_harmless(self, predicted, data):
        """A flipped bit raises the typed error — or, where it lands in
        deflate's ignored padding bits, changes nothing.  It never
        decodes to different points and never escapes as another error."""
        q = smooth_grid()
        base = base_for(q, predicted)
        packed = pack_q16(q, base)
        stream = bytearray(packed["qpack"])
        bit = data.draw(st.integers(0, len(stream) * 8 - 1))
        stream[bit // 8] ^= 1 << (bit % 8)
        try:
            back = unpack_q16(dict(packed, qpack=bytes(stream)), base)
        except DlibProtocolError:
            return
        np.testing.assert_array_equal(back, q)

    def test_flipped_payload_byte_rejected(self):
        q = smooth_grid()
        for base in (None, base_for(q, True)):
            packed = pack_q16(q, base)
            stream = bytearray(packed["qpack"])
            stream[len(stream) // 2] ^= 0xFF
            with pytest.raises(DlibProtocolError):
                unpack_q16(dict(packed, qpack=bytes(stream)), base)

    @given(q16_grids, st.booleans(), st.binary(min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_trailing_bytes_rejected(self, q, predicted, extra):
        base = base_for(q, predicted)
        packed = pack_q16(q, base)
        with pytest.raises(DlibProtocolError):
            unpack_q16(dict(packed, qpack=packed["qpack"] + extra), base)

    @pytest.mark.parametrize(
        "qshape",
        [
            [3, 41, 3],          # one vertex more than the stream holds
            [3, 39, 3],          # one fewer
            [2**40, 2**40, 3],   # would be a 6 * 2**80 byte allocation
            [1 << 22, 2, 3],     # just past the point cap
            [-3, -40, 3],
            [3, 40, 2],
            [3, 40],
            [3.0, 40, 3],
            [True, 40, 3],
            "3x40x3",
            None,
        ],
    )
    def test_bad_qshape_rejected(self, qshape):
        packed = pack_q16(smooth_grid(3, 40))
        with pytest.raises(DlibProtocolError):
            unpack_q16(dict(packed, qshape=qshape))

    def test_deflate_bomb_stops_at_the_declared_size(self):
        bomb = zlib.compress(bytes(16 << 20), 1)  # 16 MiB of zeros in ~70 kB
        for base in (None, np.zeros((1, 2, 3), dtype=np.int16)):
            tracemalloc.start()
            try:
                with pytest.raises(DlibProtocolError):
                    unpack_q16({"qpack": bomb, "qshape": [1, 2, 3]}, base)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20  # inflated 13 bytes, not 16 MiB

    @pytest.mark.parametrize(
        "field, value",
        [
            ("scale", np.array([1.0, np.nan, 1.0], dtype=np.float32)),
            ("scale", np.array([1.0, np.inf, 1.0], dtype=np.float32)),
            ("offset", np.array([0.0, 0.0, -np.inf], dtype=np.float32)),
            ("scale", np.ones(4, dtype=np.float32)),
            ("offset", np.zeros((3, 1), dtype=np.float32)),
            ("scale", "unit"),
            ("qpack", "not bytes"),
            ("qpack", None),
        ],
    )
    def test_decode_path_entry_rejects_bad_packed_fields(self, field, value):
        entry = packed_entry(np.ones((2, 5, 3), dtype=np.float32))
        entry[field] = value
        with pytest.raises(DlibProtocolError):
            decode_path_entry(entry)

    def test_decode_path_entry_requires_every_packed_field(self):
        entry = packed_entry(np.ones((2, 5, 3), dtype=np.float32))
        for field in ("qshape", "scale", "offset", "lengths", "kind"):
            broken = {k: v for k, v in entry.items() if k != field}
            with pytest.raises(DlibProtocolError):
                decode_path_entry(broken)


# -- the quantization step --------------------------------------------------------

#: Blocks the budget fits: |coord| <= 1e3 and at most 110 units a side.
#: Near 1e3 the bound's float32 rounding term is 1.2e-4, so from ~113
#: units on even the 16-bit step (span / 65534) exceeds 1e-3.
budget_blocks = st.tuples(
    arrays(np.float64, 3, elements=st.floats(-1e3, 1e3 - 110)),
    arrays(np.float64, 3, elements=st.floats(0, 110)),
    arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 12), st.just(3)),
           elements=st.floats(0, 1)),
).map(lambda t: (t[0] + t[2] * t[1]).astype(np.float32))


def sixteen_bit(vertices: np.ndarray) -> dict:
    """The fixed 16-bit q16 grid: every axis's span over 65534 steps."""
    flat = vertices.reshape(-1, 3)
    lo = flat.min(axis=0)
    span = flat.max(axis=0).astype(np.float64) - lo
    axes = {
        "scale": np.maximum(span / 65534, np.finfo(np.float32).tiny).astype(np.float32),
        "offset": lo,
    }
    return dict(axes, q=requantize_points(vertices, axes))


class TestQuantizationStep:
    @given(budget_blocks)
    @settings(max_examples=200, deadline=None)
    def test_any_block_the_budget_fits_decodes_within_it(self, vertices):
        payload = quantize_points(vertices)
        bound = quantization_error_bound(payload)
        assert bound <= Q16_ERROR_BUDGET
        error = np.abs(dequantize_points(payload) - vertices).max()
        assert error <= bound

    @given(budget_blocks)
    @settings(max_examples=100, deadline=None)
    def test_the_step_is_the_coarsest_the_budget_allows(self, vertices):
        payload = quantize_points(vertices)
        coarser = np.nextafter(payload["scale"].max(), np.float32(np.inf))
        assert quantization_error_bound(dict(payload, scale=np.full(3, coarser))) \
            > Q16_ERROR_BUDGET
        # ... and never finer than the 16-bit step, on any axis.
        assert (payload["scale"] >= sixteen_bit(vertices)["scale"]).all()

    def test_past_the_budget_the_16_bit_step_governs(self):
        vertices = np.array([[[0, 0, 0], [500, 1, 200]]], dtype=np.float32)
        payload = quantize_points(vertices)
        np.testing.assert_array_equal(payload["scale"][[0, 2]],
                                      sixteen_bit(vertices)["scale"][[0, 2]])
        assert payload["scale"][1] < payload["scale"][0]  # a short axis keeps the budget's

    @given(
        budget_blocks.flatmap(
            lambda v: st.tuples(
                st.just(v),
                arrays(np.float32, v.shape, elements=st.floats(-100, 100, width=32)),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_a_rake_held_at_16_bits_predicts_the_budget_step(self, pair):
        """A reader holding a rake decoded from a fixed 16-bit grid gets
        a predicted entry on the budget's step and decodes it to exactly
        ``dequantize_points`` of the new grid: no format change."""
        before, after = pair
        held = {
            "kind": "streamline",
            "vertices": dequantize_points(sixteen_bit(before)),
            "lengths": full_lengths(before),
        }
        wire = decode_value(encode_value(packed_entry(after, held)))
        decoded = decode_path_entry(wire, held)
        expected = dequantize_points(quantize_points(after))
        assert decoded["vertices"].tobytes() == expected.tobytes()
