"""The v2 frame-delivery layer: quantization, deltas, subscriptions.

Property tests (hypothesis) for the codecs, unit tests for the frame
store's encode-variant cache, and socket-level interop tests pinning
the compat contract of docs/network.md:

* decode(encode(frame)) is bit-exact for v1/delta entries and inside the
  advertised error bound for quantized ones;
* a delta against a lost/forgotten ack resyncs via keyframe;
* a client that never subscribed, and a seat restored with no journaled
  terms, get ``v1`` deltas, and every delivery mode — cache hit, parked
  pull, paced — ships the bytes ``PublishedFrame.compose`` produces (the
  delivery-equivalence matrix);
* the packed ``q16`` wire form decodes, over real sockets, to exactly
  what ``dequantize_points`` makes of the int16 grid — keyframe, delta
  and paced — and each of its two forms is still built once per rake
  entry;
* the differential oracle: through stepping, the clock's wrap, a step
  back, a scrub and a rake drag, every frame a ``q16`` + deltas client
  holds — rakes predicted from its held copies included — is bit for
  bit a fresh q16 keyframe of the same publication;
* a push subscriber that also fetches keeps one delta base, and
  negotiated terms survive a reconnect (which re-arms the paced calls)
  and a reap;
* a delta carries only the ``env`` sections that changed, and the
  client still shows the full block.

The composer and the client's held scene are tested socket-free in
``tests/test_core_delivery.py``.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import ToolSettings, WindtunnelClient, WindtunnelServer
from repro.core.framestore import (
    PublishedFrame,
    RakeEntry,
    VariantCounters,
    encode_entries,
)
from repro.core.delivery import FRAME_CREDIT, Subscription
from repro.dlib.client import DlibClient, DlibRemoteError
from repro.dlib.protocol import (
    DlibProtocolError,
    decode_path_entry,
    decode_value,
    dequantize_points,
    encode_value,
    quantization_error_bound,
    quantize_points,
    unpack_q16,
)
from repro.flow import (
    MemoryDataset,
    OscillatingShearLayer,
    RigidRotation,
    UniformFlow,
    sample_on_grid,
)
from repro.grid import cartesian_grid
from repro.netsim import BandwidthSchedule
from repro.tracers.rake import GrabPoint
from tests import wait_until

# -- codec properties ---------------------------------------------------------

point_arrays = arrays(
    dtype=np.float32,
    shape=st.tuples(
        st.integers(0, 4), st.integers(0, 20), st.just(3)
    ),
    elements=st.floats(-1e4, 1e4, width=32),
)


@settings(max_examples=60, deadline=None)
@given(point_arrays)
def test_quantize_roundtrip_within_bound(vertices):
    payload = quantize_points(vertices)
    back = dequantize_points(payload)
    assert back.shape == vertices.shape
    assert back.dtype == np.float32
    bound = quantization_error_bound(payload)
    err = np.abs(back.astype(np.float64) - vertices.astype(np.float64))
    assert err.size == 0 or float(err.max()) <= bound


@settings(max_examples=60, deadline=None)
@given(point_arrays)
def test_quantized_payload_survives_the_wire(vertices):
    payload = quantize_points(vertices)
    decoded = decode_value(encode_value(payload))
    np.testing.assert_array_equal(decoded["q"], payload["q"])
    np.testing.assert_array_equal(decoded["scale"], payload["scale"])
    np.testing.assert_array_equal(decoded["offset"], payload["offset"])


def test_quantize_rejects_bad_shape():
    with pytest.raises(DlibProtocolError):
        quantize_points(np.zeros((4, 2), dtype=np.float32))
    with pytest.raises(DlibProtocolError):
        dequantize_points({"q": np.zeros((1, 3))})


def test_decode_path_entry_rejects_malformed():
    with pytest.raises(DlibProtocolError):
        decode_path_entry({"kind": "streamline", "lengths": [1]})
    with pytest.raises(DlibProtocolError):
        decode_path_entry("not a dict")
    # The unpacked int16 grid is not a wire form: servers ship ``qpack``.
    plain = quantize_points(np.zeros((1, 2, 3), dtype=np.float32))
    with pytest.raises(DlibProtocolError):
        decode_path_entry({"kind": "streamline", "lengths": [2], **plain})


def test_half_floats_are_not_a_wire_dtype():
    """No encoding ships float16 any more, so the whitelist refuses it
    both ways."""
    half = np.zeros((2, 3), dtype=np.float16)
    with pytest.raises(DlibProtocolError):
        encode_value(half)
    wire = encode_value(half.astype(np.int16)).replace(b"<i2", b"<f2", 1)
    with pytest.raises(DlibProtocolError):
        decode_value(wire)


# -- encode-once frame store --------------------------------------------------


class _Result:
    """Stand-in tracer result with the wire_arrays() contract."""

    def __init__(self, seed: int, n_seeds: int = 3, length: int = 5) -> None:
        rng = np.random.default_rng(seed)
        self._v = np.ascontiguousarray(
            rng.uniform(-5, 5, (n_seeds, length, 3)).astype(np.float32)
        )
        self._l = np.full(n_seeds, length, dtype=np.int64)
        self._v.setflags(write=False)
        self._l.setflags(write=False)

    def wire_arrays(self):
        return self._v, self._l


def _frame(results: dict, seq: int = 0, counters=None) -> PublishedFrame:
    kinds = {rid: "streamline" for rid in results}
    entries = encode_entries(kinds, results, counters=counters)
    return PublishedFrame(
        version=1, timestep=0, seq=seq, compute_seconds=0.0,
        entries={str(rid): entry for rid, entry in entries.items()},
    )


def test_composed_wire_is_byte_identical_to_direct_encode():
    """Fragment concatenation == single-shot encode: the v1 compat pin."""
    frame = _frame({1: _Result(1), 2: _Result(2), 7: _Result(7)})
    assert frame.compose(list(frame.paths)).data == encode_value(frame.paths)


def test_compose_subset_matches_direct_subset_encode():
    results = {1: _Result(1), 2: _Result(2), 3: _Result(3)}
    frame = _frame(results)
    subset = frame.compose(["2"])
    assert subset.data == encode_value({"2": frame.paths["2"]})


def test_digests_identify_identical_geometry():
    a, b, c = _frame({1: _Result(5)}), _frame({1: _Result(5)}), _frame({1: _Result(6)})
    assert a.entries["1"].digest == b.entries["1"].digest
    assert a.entries["1"].digest != c.entries["1"].digest


def test_encoding_cache_builds_each_variant_once():
    counters = VariantCounters()
    frame = _frame({1: _Result(1)}, counters=counters)
    entry = frame.entries["1"]
    first = entry.fragment("q16")
    again = entry.fragment("q16")
    assert first == again
    assert counters.misses.value == 1 and counters.hits.value == 1
    # Building or reading the v1 fragment is neither a hit nor a miss.
    entry.fragment("v1")
    assert counters.misses.value == 1 and counters.hits.value == 1
    # A later frame holding the same entry shares its fragments.
    later = PublishedFrame(
        version=2, timestep=1, seq=0, entries=frame.entries, compute_seconds=0.0
    )
    assert later.compose(["1"], "q16").data == frame.compose(["1"], "q16").data
    assert counters.misses.value == 1 and counters.hits.value == 3
    assert sorted(entry.variants) == ["q16", "v1"]


def test_predicted_form_is_built_once_against_one_base():
    """An entry keeps one predicted fragment, for the first base asked;
    a reader at another base, or holding a rake of another shape, gets
    the keyframe form — so each form is built at most once."""
    counters = VariantCounters()
    entry = _frame({1: _Result(3)}, counters=counters).entries["1"]
    base_a, base_b = (_frame({1: _Result(s)}).entries["1"] for s in (1, 2))
    wider = _frame({1: _Result(1, n_seeds=4)}).entries["1"]
    predicted = entry.fragment("q16", base_a)
    assert entry.fragment("q16", base_a) == predicted
    assert (counters.misses.value, counters.hits.value) == (1, 1)
    keyframe = entry.fragment("q16", base_b)
    assert entry.fragment("q16", wider) == entry.fragment("q16") == keyframe
    assert (counters.misses.value, counters.hits.value) == (2, 3)
    assert counters.predicted.value == 2
    assert entry.fragment("v1", base_a) == entry.fragment("v1")
    wire, plain = decode_value(predicted), decode_value(keyframe)
    assert wire["qpred"] is True and "qpred" not in plain
    held = dict(
        base_a.path, vertices=dequantize_points(quantize_points(base_a.path["vertices"]))
    )
    assert (
        decode_path_entry(wire, held)["vertices"].tobytes()
        == decode_path_entry(plain)["vertices"].tobytes()
    )
    assert sorted(entry.variants) == ["q16", "v1"]


def _held_q16(entry: RakeEntry) -> dict:
    """The path a q16 reader holds for ``entry``, as it decoded it."""
    return decode_path_entry(decode_value(entry.fragment("q16")))


def _rake_entry(kind: str, seed: int, lengths) -> RakeEntry:
    vertices = _Result(seed, n_seeds=3, length=5).wire_arrays()[0]
    return RakeEntry(kind, vertices, np.asarray(lengths, dtype=np.int64), VariantCounters())


@pytest.mark.parametrize(
    "kind, lengths, carried",
    [
        ("streamline", [5, 5, 5], set()),
        ("streamline", [5, 3, 4], {"lengths"}),
        ("streakline", [5, 5, 5], {"kind"}),
        ("streakline", [2, 5, 5], {"kind", "lengths"}),
    ],
    ids=["both-held", "lengths-differ", "kind-differs", "both-differ"],
)
def test_predicted_entry_carries_kind_and_lengths_only_when_they_differ(
    kind, lengths, carried
):
    """A predicted q16 entry leaves out the ``kind`` and ``lengths`` the
    reader holds for its base, carries whichever differ, and decodes to
    exactly the keyframe form's rake."""
    base = _rake_entry("streamline", 1, [5, 5, 5])
    entry = _rake_entry(kind, 2, lengths)
    wire = decode_value(entry.fragment("q16", base))
    assert wire["qpred"] is True
    assert {"kind", "lengths"} & set(wire) == carried
    decoded = decode_path_entry(wire, _held_q16(base))
    plain = decode_path_entry(decode_value(entry.fragment("q16")))
    assert decoded["kind"] == plain["kind"] == kind
    assert decoded["lengths"].dtype == plain["lengths"].dtype
    np.testing.assert_array_equal(decoded["lengths"], plain["lengths"])
    assert decoded["vertices"].tobytes() == plain["vertices"].tobytes()


def test_a_predicted_entry_without_its_held_rake_is_a_protocol_error():
    """Untrusted input: a predicted entry that leaves out ``kind`` /
    ``lengths`` (or carries them) with no held rake, or with a held rake
    of another shape, raises the typed error, never ``KeyError`` or
    ``IndexError``."""
    base = _rake_entry("streamline", 1, [5, 5, 5])
    for entry in (
        _rake_entry("streamline", 2, [5, 5, 5]),
        _rake_entry("streakline", 2, [5, 3, 4]),
    ):
        wire = decode_value(entry.fragment("q16", base))
        for partial in (wire, {k: v for k, v in wire.items() if k != "qpack"}):
            with pytest.raises(DlibProtocolError):
                decode_path_entry(partial)
        held = _held_q16(base)
        with pytest.raises(DlibProtocolError):
            decode_path_entry(wire, dict(held, vertices=held["vertices"][:2]))


def test_q16_variant_ships_only_the_packed_form():
    """One q16 form on the wire: packed bytes, no plain ``q`` array, and
    the int16 grid inside is exactly what ``quantize_points`` produces."""
    counters = VariantCounters()
    frame = _frame({1: _Result(1, n_seeds=4, length=30)}, counters=counters)
    entry = decode_value(frame.compose(["1"], encoding="q16").data)["1"]
    assert set(entry) == {"kind", "qpack", "qshape", "scale", "offset", "lengths"}
    plain = quantize_points(frame.paths["1"]["vertices"])
    np.testing.assert_array_equal(unpack_q16(entry), plain["q"])
    np.testing.assert_array_equal(entry["scale"], plain["scale"])
    np.testing.assert_array_equal(entry["offset"], plain["offset"])
    assert counters.q16_raw_bytes.value == plain["q"].nbytes == 4 * 30 * 6
    assert counters.q16_packed_bytes.value == len(entry["qpack"])
    frame.compose(["1"], encoding="q16")  # a hit builds (and counts) nothing
    assert counters.q16_raw_bytes.value == plain["q"].nbytes


def test_cache_rejects_unknown_variant():
    frame = _frame({1: _Result(1)})
    for encoding in ("zstd", "f16"):
        with pytest.raises(ValueError):
            frame.entries["1"].fragment(encoding)
    # Nothing is built until asked for, v1 included; a refusal builds nothing.
    assert frame.entries["1"].variants == []
    frame.entries["1"].fragment("v1")
    assert frame.entries["1"].variants == ["v1"]


def test_bandwidth_schedule_steps():
    sched = BandwidthSchedule([(0.0, 13e6), (2.0, 1e6)])
    assert sched.bandwidth_at(0.0) == 13e6
    assert sched.bandwidth_at(1.999) == 13e6
    assert sched.bandwidth_at(2.0) == 1e6
    assert sched.bandwidth_at(100.0) == 1e6
    with pytest.raises(ValueError):
        BandwidthSchedule([])
    with pytest.raises(ValueError):
        BandwidthSchedule([(1.0, 1e6)])  # must start at t=0
    with pytest.raises(ValueError):
        BandwidthSchedule([(0.0, 0.0)])


# -- end-to-end interop over real sockets ------------------------------------


def _make_dataset(n_times=6):
    grid = cartesian_grid((9, 9, 5), lo=(0, 0, 0), hi=(8, 8, 4))
    field = RigidRotation(omega=[0, 0, 0.5], center=[4, 4, 0]) + UniformFlow(
        [0.1, 0, 0]
    )
    vel = sample_on_grid(field, grid, np.arange(n_times) * 0.2, dtype=np.float64)
    return MemoryDataset(grid, vel, dt=0.2)


@pytest.fixture(scope="module")
def dataset():
    return _make_dataset()


@pytest.fixture()
def server(dataset):
    clock = {"now": 0.0}
    srv = WindtunnelServer(
        dataset,
        settings=ToolSettings(streamline_steps=16, streakline_length=6),
        time_speed=1.0,
        time_fn=lambda: clock["now"],
    )
    srv._test_clock = clock
    srv.start()
    yield srv
    srv.stop()


class TestInterop:
    def test_a_client_that_never_subscribes_gets_v1_deltas(self, server):
        """No ``wt.subscribe``: the seat's default terms are ``v1`` with
        deltas, so after a one-rake change the reply ships that rake
        alone, and the merged scene is a fresh keyframe's bit for bit."""
        with WindtunnelClient(*server.address, name="plain") as c:
            replies = []
            integrate = c._held.integrate
            c._held.integrate = lambda state: integrate(replies.append(state) or state)
            c.time_control("pause")
            for x in (1, 3, 5):
                c.add_rake([x, 1, 1], [x, 7, 3], n_seeds=5)
            key = c.fetch_frame()
            assert replies[-1]["v2"]["mode"] == "keyframe"
            assert set(replies[-1]["paths"]) == set(key["paths"]) == {"1", "2", "3"}
            with server.env.lock:
                server.env.rakes[2].move(GrabPoint.CENTER, np.array([3.5, 4.0, 2.0]))
                server.env.bump()
            state = c.fetch_frame()
            reply = replies[-1]["v2"]
            assert reply["mode"] == "delta" and reply["encoding"] == "v1"
            assert reply["base"] == key["v2"]["seq"]
            assert set(replies[-1]["paths"]) == {"2"}
            frame = server.store.latest()
            assert reply["seq"] == frame.seq
            fresh = decode_value(frame.compose(list(frame.entries)).data)
            assert set(state["paths"]) == set(fresh)
            for rid, entry in fresh.items():
                assert state["paths"][rid]["vertices"].tobytes() == entry["vertices"].tobytes()
                np.testing.assert_array_equal(state["paths"][rid]["lengths"], entry["lengths"])

    def test_a_restored_seat_without_terms_is_served_deltas(self, server):
        """``wt.restore`` of a seat the journal holds no subscription for
        seats it on the defaults: one keyframe, then deltas."""
        entry = {"client_id": 9300, "name": "restored", "token": "t"}
        with DlibClient(*server.address) as raw:
            raw.call("wt.restore", {"sessions": [entry]})
            assert server.delivery._subs[9300] == Subscription.from_wire({})
            key = raw.call("wt.frame", 9300, 0)
            assert key["v2"]["mode"] == "keyframe"
            seq = key["v2"]["seq"]
            again = raw.call("wt.frame", 9300, seq)
            assert again["v2"] == {
                "seq": seq, "mode": "delta", "base": seq,
                "encoding": "v1", "removed": [],
            }
            assert again["paths"] == {}

    def test_subscribe_then_delta_cycle(self, server):
        with WindtunnelClient(*server.address, name="v2") as c:
            for i in range(3):
                c.add_rake([1 + i, 1, 1], [1 + i, 7, 3], n_seeds=5)
            baseline = c.fetch_frame()
            info = c.subscribe(encoding="q16", deltas=True)
            assert info["encoding"] == "q16"
            key = c.fetch_frame()  # keyframe under the new terms
            assert key["v2"]["mode"] == "keyframe"
            assert set(key["paths"]) == set(baseline["paths"])
            again = c.fetch_frame()  # same publication -> empty delta
            assert again["v2"]["mode"] == "delta"
            assert set(again["paths"]) == set(baseline["paths"])
            bound = 1e-3  # the acceptance bound, docs/network.md
            for rid, entry in again["paths"].items():
                ref = baseline["paths"][rid]["vertices"].astype(np.float64)
                err = np.abs(entry["vertices"].astype(np.float64) - ref)
                assert float(err.max()) <= bound

    def test_unchanged_rakes_are_bit_exact_across_delta(self, server):
        """A delta omits unchanged rakes; the client's held copy is the
        keyframe's bytes — bit-exact, not re-quantized."""
        with WindtunnelClient(*server.address, name="delta") as c:
            c.time_control("pause")
            stable = c.add_rake([1, 1, 1], [1, 7, 3], n_seeds=5)
            c.add_rake([4, 1, 1], [4, 7, 3], n_seeds=5)
            c.subscribe(encoding="v1", deltas=True)
            key = c.fetch_frame()
            held_before = key["paths"][str(stable)]["vertices"]
            c.add_rake([6, 1, 1], [6, 7, 3], n_seeds=5)  # scene change
            nxt = c.fetch_frame()
            assert nxt["v2"]["mode"] == "delta"
            assert held_before is nxt["paths"][str(stable)]["vertices"]

    def test_delta_resync_after_lost_ack(self, server):
        """An ack that is not the last frame composed falls back to a
        keyframe."""
        with WindtunnelClient(*server.address, name="resync") as c:
            c.add_rake([1, 1, 1], [1, 7, 3], n_seeds=5)
            c.subscribe(deltas=True)
            c.fetch_frame()
            # Simulate a client whose ack refers to a frame the server no
            # longer remembers (dropped response / long partition).
            with c._state_lock:
                c._held.seq = 10_000
            state = c.fetch_frame()
            assert state["v2"]["mode"] == "keyframe"
            assert c._held.seq == state["v2"]["seq"]

    def test_client_base_mismatch_resets_ack(self, server):
        with WindtunnelClient(*server.address, name="mismatch") as c:
            c.add_rake([1, 1, 1], [1, 7, 3], n_seeds=5)
            c.subscribe(deltas=True)
            c.fetch_frame()
            held = dict(c._held.paths)
            previous = c.latest_state
            # A delta against a base we do not hold must not be merged.
            bogus = {
                "timestep": 0,
                "paths": {},
                "env": {},
                "cached": True,
                "v2": {
                    "seq": 99,
                    "mode": "delta",
                    "base": 12345,
                    "encoding": "v1",
                    "removed": [],
                },
            }
            out = c._integrate(bogus)
            assert c._held.seq == 0  # next fetch resyncs
            assert set(out["paths"]) == set(held)
            assert out is previous is c.latest_state  # nothing merged, nothing shown
            state = c.fetch_frame()
            assert state["v2"]["mode"] == "keyframe"

    def test_interest_subscription_filters_rakes(self, server):
        with WindtunnelClient(*server.address, name="subset") as c:
            want = c.add_rake([1, 1, 1], [1, 7, 3], n_seeds=5)
            c.add_rake([4, 1, 1], [4, 7, 3], n_seeds=5)
            c.subscribe(rakes=[want])
            state = c.fetch_frame()
            assert set(state["paths"]) == {str(want)}
            # A second client, which never subscribed, sees everything.
            with WindtunnelClient(*server.address, name="all") as c2:
                full = c2.fetch_frame()
                assert len(full["paths"]) == 2

    @pytest.mark.parametrize(
        "key, value",
        [("rakes", "12"), ("kinds", "streamline"), ("rakes", 12)],
        ids=["rakes-str", "kinds-str", "rakes-int"],
    )
    def test_filter_that_is_not_a_list_is_refused(self, server, key, value):
        """``"12"`` used to explode into rakes ``{"1", "2"}`` and
        ``"streamline"`` into nine letters — the wrong rakes, or an empty
        frame, forever.  Refused by name, through ``wt.subscribe`` and
        ``wt.restore`` alike, before the old terms are dropped."""
        with pytest.raises(ValueError, match=key):
            Subscription.from_wire({key: value})
        with WindtunnelClient(*server.address, name="typo") as c:
            if isinstance(value, str):
                with pytest.raises(ValueError, match=key):
                    c.subscribe(**{key: value})
            c.subscribe(encoding="q16", rakes=[1], kinds=("streamline",))
            held = server.delivery._subs[c.client_id]
            assert held.rakes == {"1"} and held.kinds == {"streamline"}
            with pytest.raises(DlibRemoteError, match=f"{key} must be a list"):
                c._rpc.call("wt.subscribe", c.client_id, {key: value})
            entry = {"client_id": c.client_id, "subscription": {key: value}}
            with pytest.raises(DlibRemoteError, match=f"{key} must be a list"):
                c._rpc.call("wt.restore", {"sessions": [entry]})
            assert server.delivery._subs[c.client_id] is held

    def test_journal_written_before_the_controllers_went_restores(self, server):
        """The literal shape an older gateway journaled — ``adaptive`` and
        ``decimate`` still among the terms — restores: ``from_wire``
        ignores keys it does not know."""
        state = {
            "sessions": [{
                "client_id": 9100, "name": "old", "token": "t",
                "subscription": {
                    "encoding": "q16", "deltas": True, "decimate": 2,
                    "adaptive": True, "push": False, "rakes": None,
                    "kinds": ["streamline"],
                },
            }],
            "tool_settings": {
                "streamline_steps": 9, "streamline_dt": 0.04,
                "particle_path_steps": 7, "streakline_length": 5,
            },
        }
        with DlibClient(*server.address) as admin:
            assert admin.call("wt.restore", state) == {"sessions": 1, "rakes": 0}
        assert server.delivery._subs[9100] == Subscription(
            "q16", True, False, None, frozenset({"streamline"})
        )
        assert server.engine.settings == ToolSettings(9, 0.04, 7, 5)

    def test_checkpoint_with_decimate_restores(self, server, tmp_path):
        """A gateway journal checkpoint from when the terms carried
        ``decimate`` loads, and its recovery state restores the session
        through ``wt.restore`` under the terms that remain."""
        import json

        from repro.gateway import SessionJournal

        path = tmp_path / "journal.json"
        path.write_text(json.dumps({"w0": {
            "sessions": {"9200": {
                "client_id": 9200, "name": "old", "token": "t",
                "subscription": {
                    "encoding": "q16", "deltas": True, "decimate": 1,
                    "push": False, "rakes": None, "kinds": None,
                },
            }},
            "rakes": {}, "clock": None, "tool_settings": None, "steering": [],
        }}))
        state = SessionJournal(str(path)).recovery_state("w0")
        with DlibClient(*server.address) as admin:
            assert admin.call("wt.restore", state) == {"sessions": 1, "rakes": 0}
        restored = server.delivery._subs[9200]
        assert restored == Subscription("q16", True, False, None, None)
        assert "decimate" not in restored.to_wire()

    def test_leave_clears_subscription(self, server):
        c = WindtunnelClient(*server.address, name="leaver")
        c.subscribe()
        cid = c.client_id
        assert cid in server.delivery._subs
        c.close()
        wait_until(lambda: cid not in server.delivery._subs)

    def test_net_metrics_surface_through_obs(self, server):
        with WindtunnelClient(*server.address, name="metrics") as c:
            c.add_rake([1, 1, 1], [1, 7, 3], n_seeds=5)
            c.subscribe(encoding="q16")
            c.fetch_frame()
            c.fetch_frame()
            snap = c.metrics()["registry"]
            assert snap["counters"]["net.keyframes"] >= 1
            assert snap["counters"]["net.delta_frames"] >= 1
            counters = snap["counters"]
            delta, key = counters["net.delta_frames"], counters["net.keyframes"]
            assert 0.0 < delta / (delta + key) < 1.0
            assert snap["histograms"]["net.bytes_per_frame"]["count"] >= 2
            assert "net.encode_cache_hits" in snap["counters"]


# -- the packed q16 form over real sockets ---------------------------------------


class TestEnvElision:
    def test_a_delta_carries_the_env_only_when_it_changed(self, server):
        """Over real sockets: a re-read of an unchanged scene ships no
        ``env``; a head move (which leaves the frame alone) ships the new
        ``users`` section alone; and every state the client shows has the
        full ``env``."""
        with WindtunnelClient(*server.address, name="viewer") as c:
            replies = []
            integrate = c._held.integrate
            c._held.integrate = lambda state: integrate(replies.append(state) or state)
            c.time_control("pause")
            rid = c.add_rake([1, 1, 1], [1, 7, 3], n_seeds=5)
            first = c.fetch_frame()
            again = c.fetch_frame()
            assert replies[0]["v2"]["mode"] == "keyframe" and "env" in replies[0]
            assert replies[1]["v2"]["mode"] == "delta" and "env" not in replies[1]
            assert again["env"] == first["env"] and str(rid) in again["env"]["rakes"]
            c.send_input([0.0, 1.0, 9.0], [0.0, 0.0, 0.0], "open")
            moved = c.fetch_frame()
            assert replies[2]["v2"]["seq"] == replies[1]["v2"]["seq"]
            assert set(replies[2]["env"]) == {"users"}
            assert set(moved["env"]) == set(first["env"])
            user = moved["env"]["users"][str(c.client_id)]
            np.testing.assert_allclose(user["head_position"], [0.0, 1.0, 9.0])


def _assert_decodes_as_plain_q16(frame: PublishedFrame, state: dict):
    """Every held rake equals ``dequantize_points`` of its int16 grid —
    bit for bit — and sits inside the advertised error bound."""
    assert state["v2"]["seq"] == frame.seq
    assert state["v2"]["encoding"] == "q16"
    assert set(state["paths"]) == set(frame.paths)
    for rid, entry in state["paths"].items():
        ref = frame.paths[rid]["vertices"]
        payload = quantize_points(ref)
        np.testing.assert_array_equal(entry["vertices"], dequantize_points(payload))
        assert entry["vertices"].dtype == np.float32
        err = np.abs(entry["vertices"].astype(np.float64) - ref.astype(np.float64))
        assert float(err.max()) <= quantization_error_bound(payload)
        np.testing.assert_array_equal(entry["lengths"], frame.paths[rid]["lengths"])


class TestPackedQ16Loopback:
    @pytest.mark.parametrize("n_seeds", [1, 2, 4])  # a one-polyline qpack too
    def test_keyframe_and_delta_decode_as_plain_q16(self, server, n_seeds):
        with WindtunnelClient(*server.address, name="packed") as c:
            c.time_control("pause")
            for i in range(3):
                c.add_rake([1 + i, 1, 1], [1 + i, 7, 3], n_seeds=n_seeds)
            c.subscribe(encoding="q16", deltas=True)
            key = c.fetch_frame()
            assert key["v2"]["mode"] == "keyframe"
            _assert_decodes_as_plain_q16(server.store.latest(), key)
            held = {rid: e["vertices"] for rid, e in key["paths"].items()}
            new = c.add_rake([6, 1, 1], [6, 7, 3], n_seeds=5)  # one rake changes
            delta = c.fetch_frame()
            assert delta["v2"]["mode"] == "delta"
            _assert_decodes_as_plain_q16(server.store.latest(), delta)
            # Only the new rake crossed the wire; the rest are the held arrays.
            for rid, vertices in held.items():
                assert delta["paths"][rid]["vertices"] is vertices
            assert str(new) not in held

    def test_pushed_frames_decode_as_plain_q16(self, server):
        with WindtunnelClient(*server.address, name="pushed") as c:
            c.time_control("pause")
            c.subscribe(encoding="q16", push=True)
            c.add_rake([1, 1, 1], [1, 7, 3], n_seeds=5)
            c.add_rake([4, 1, 1], [4, 7, 3], n_seeds=5)

            def caught_up():
                c.drain_pushes(0.05)
                state, frame = c.latest_state, server.store.latest()
                return (
                    state is not None
                    and frame is not None
                    and len(frame.paths) == 2
                    and state["v2"]["seq"] == frame.seq
                )

            wait_until(caught_up, timeout=5.0)
            assert c.pushed_frames >= 1
            _assert_decodes_as_plain_q16(server.store.latest(), c.latest_state)

    def test_variant_built_once_and_counted(self, server):
        """Two q16 subscribers on one publication: the second is all cache
        hits, and the q16 byte counters moved once, by the built sizes."""
        with WindtunnelClient(*server.address, name="a") as a, \
             WindtunnelClient(*server.address, name="b") as b:
            a.time_control("pause")
            a.add_rake([1, 1, 1], [1, 7, 3], n_seeds=5)
            a.add_rake([4, 1, 1], [4, 7, 3], n_seeds=5)
            a.fetch_frame()  # publication exists before anyone subscribes
            a.subscribe(encoding="q16", deltas=False)
            b.subscribe(encoding="q16", deltas=False)
            before = server.registry.snapshot()["counters"]
            a.fetch_frame()
            mid = server.registry.snapshot()["counters"]
            b.fetch_frame()
            after = server.registry.snapshot()["counters"]

            def moved(lo, hi, name):
                return hi.get(name, 0) - lo.get(name, 0)

            assert moved(before, mid, "net.encode_cache_misses") == 2
            assert moved(before, mid, "net.encode_cache_hits") == 0
            assert moved(mid, after, "net.encode_cache_misses") == 0
            assert moved(mid, after, "net.encode_cache_hits") == 2
            frame = server.store.latest()
            raw = sum(e["vertices"].size * 2 for e in frame.paths.values())
            packed = sum(
                len(decode_value(frame.compose([rid], encoding="q16").data)[rid]["qpack"])
                for rid in frame.paths
            )
            assert moved(before, mid, "net.q16_raw_bytes") == raw
            assert moved(before, mid, "net.q16_packed_bytes") == packed
            assert 0 < packed < raw
            assert moved(mid, after, "net.q16_raw_bytes") == 0
            assert moved(mid, after, "net.q16_packed_bytes") == 0

    def test_v1_client_bytes_unchanged_beside_a_q16_subscriber(self, server):
        with WindtunnelClient(*server.address, name="q") as q, \
             WindtunnelClient(*server.address, name="v1") as v1:
            q.add_rake([1, 1, 1], [1, 7, 3], n_seeds=5)
            q.subscribe(encoding="q16")
            q.fetch_frame()  # the q16 variant now sits in the frame's cache
            state = v1.fetch_frame()
            assert state["v2"]["mode"] == "keyframe" and state["v2"]["encoding"] == "v1"
            frame = server.store.latest()
            assert encode_value(state["paths"]) == encode_value(frame.paths)
            assert frame.compose(list(frame.paths)).data == encode_value(frame.paths)
            for rid, entry in state["paths"].items():
                assert set(entry) == {"kind", "vertices", "lengths"}
                assert entry["vertices"].dtype == np.float32
                np.testing.assert_array_equal(
                    entry["vertices"], frame.paths[rid]["vertices"]
                )


class TestPredictedQ16Oracle:
    """The differential oracle for the predicted q16 form: whatever form
    each rake crossed the wire in — ``kind`` / ``lengths`` left out or
    not — and whichever ``env`` sections a delta left out, the scene a
    ``q16`` + deltas client holds is, bit for bit, what a fresh q16
    keyframe of the same publication decodes to, and the ``env`` it
    shows is the server's whole snapshot."""

    def test_every_frame_decodes_as_a_fresh_q16_keyframe(self):
        clock = {"now": 0.0}
        srv = WindtunnelServer(
            _unsteady_dataset(),
            settings=ToolSettings(streamline_steps=16, streakline_length=6),
            time_speed=1.0,
            time_fn=lambda: clock["now"],
        )
        frames = {}  # every publication, by seq
        srv.store.subscribe(lambda frame: frames.__setitem__(frame.seq, frame))
        srv.start()
        try:
            with WindtunnelClient(*srv.address, name="oracle") as c:
                c.time_control("pause")
                for x in (2.0, 4.0, 6.0):
                    c.add_rake([x, 1, 1], [x, 7, 3], n_seeds=4)
                c.subscribe(encoding="q16", deltas=True)
                replies = []  # every reply as it crossed the wire
                integrate = c._held.integrate

                def record(state):
                    replies.append(state)
                    return integrate(state)

                c._held.integrate = record

                def check(state) -> int:
                    frame = wait_until(lambda: frames.get(state["v2"]["seq"]))
                    fresh = decode_value(frame.compose(list(frame.entries), "q16").data)
                    assert set(state["paths"]) == set(fresh)
                    for rid, entry in fresh.items():
                        want = decode_path_entry(entry)
                        got = state["paths"][rid]
                        assert got["vertices"].tobytes() == want["vertices"].tobytes()
                        assert got["kind"] == want["kind"]
                        assert got["lengths"].tobytes() == want["lengths"].tobytes()
                    shown = encode_value(state["env"])
                    assert shown == encode_value(srv.env.snapshot(clock["now"]))
                    return frame.timestep

                check(c.fetch_frame())
                timesteps = []
                for _ in range(16):  # 6 timesteps: the clock wraps twice
                    c.time_control("step", 1)
                    timesteps.append(check(c.fetch_frame()))
                assert timesteps == [(k + 1) % 6 for k in range(16)]
                c.time_control("step", -1)
                assert check(c.fetch_frame()) == 3
                c.time_control("scrub", 1)
                assert check(c.fetch_frame()) == 1
                c.send_input([4, -6, 2], [2.0, 1.0, 1.0], "fist")  # grab rake 1
                for y in (1.5, 2.0, 2.5):
                    c.send_input([4, -6, 2], [2.0, y, 1.0], "fist")
                    check(c.fetch_frame())
                c.send_input([4, -6, 2], [2.0, 2.5, 1.0], "open")
                check(c.fetch_frame())
            counters = srv.registry.snapshot()["counters"]
            assert counters["net.q16_predicted_lookups"] > 0
            # The oracle covered the elided forms: deltas that left out
            # some env sections, and predicted rakes without kind/lengths.
            deltas = [r for r in replies if r["v2"]["mode"] == "delta"]
            carried = [set(r.get("env", ())) for r in deltas]
            assert {"version", "clock"} in carried
            assert all(sections < set(replies[0]["env"]) for sections in carried)
            predicted = [
                e for r in deltas for e in r["paths"].values() if e.get("qpred")
            ]
            assert any("kind" not in e for e in predicted)
            assert any("lengths" not in e for e in predicted)
        finally:
            srv.stop()


# -- push-mode delivery -------------------------------------------------------


class TestPushDelivery:
    """Paced frame delivery (``wt.subscribe(push=True)``): the client
    keeps ``FRAME_CREDIT`` ``wt.frame`` calls parked."""

    def _serve(self):
        clock = {"now": 0.0}
        srv = WindtunnelServer(
            _make_dataset(),
            settings=ToolSettings(streamline_steps=16, streakline_length=6),
            time_speed=1.0,
            time_fn=lambda: clock["now"],
        )
        srv.start()
        return srv, clock

    def test_push_subscription_streams_frames_without_polling(self):
        srv, clock = self._serve()
        try:
            with WindtunnelClient(*srv.address, name="pushed") as c:
                info = c.subscribe(encoding="q16", push=True)
                assert info["push"] is True
                c.add_rake([1, 1, 1], [1, 7, 3], n_seeds=5)

                # The first push may predate the rake (the subscription
                # streams immediately, and an empty pre-rake frame is a
                # legal delivery) — wait for a pushed state that carries
                # the rake's paths, not merely for any push.
                def rake_frame_pushed():
                    c.drain_pushes(0.05)
                    state = c.latest_state
                    return (
                        c.pushed_frames > 0
                        and state is not None
                        and state.get("paths")
                    )

                wait_until(rake_frame_pushed, timeout=5.0)
                assert c.pushed_frames >= 1
                state = c.latest_state  # arrived with no fetch_frame call
                assert state is not None and "v2" in state
                assert state["paths"]
        finally:
            srv.stop()

    def test_pull_only_subscription_never_sees_a_push(self):
        srv, clock = self._serve()
        try:
            with WindtunnelClient(*srv.address, name="pull") as c:
                info = c.subscribe(encoding="q16", push=False)
                assert info["push"] is False
                c.add_rake([1, 1, 1], [1, 7, 3], n_seeds=5)
                c.fetch_frame()
                assert c.drain_pushes(0.3) == 0
                assert c.pushed_frames == 0
        finally:
            srv.stop()

    def test_push_subscriber_drives_production_without_polling(self):
        """A push subscriber's parked calls hold pipeline demand: the
        pipeline produces for it with no explicit wt.frame, and the
        demand goes when the subscriber does."""
        srv, clock = self._serve()
        try:
            with WindtunnelClient(*srv.address, name="standing") as c:
                c.subscribe(push=True)
                assert c.server_stats()["push_subscriptions"] == 1
                produced_before = srv.pipeline.frames_produced
                c.add_rake([1, 1, 1], [1, 7, 3], n_seeds=5)
                wait_until(lambda: srv.pipeline.frames_produced > produced_before)
            wait_until(lambda: not srv.delivery._subs)
            produced, idle = srv.pipeline.frames_produced, srv.pipeline.idle_cycles
            srv.env.bump()  # a new key, but nobody left to produce it for
            wait_until(lambda: srv.pipeline.idle_cycles > idle + 1)
            assert srv.pipeline.frames_produced == produced
        finally:
            srv.stop()

    def test_a_seat_parks_no_more_than_its_credit(self):
        """A reader that sends one paced call more than ``FRAME_CREDIT``
        has it refused at once: a seat's parked calls stay bounded, so a
        publication never sweeps an unbounded queue."""
        srv, clock = self._serve()
        try:
            with WindtunnelClient(*srv.address, name="admin") as admin, \
                 DlibClient(*srv.address) as raw:
                admin.time_control("pause")
                admin.add_rake([1, 1, 1], [1, 7, 3], n_seeds=4)
                cid = raw.call("wt.join", "raw")["client_id"]
                admin.fetch_frame()  # the key is frozen from here on
                assert raw.call("wt.subscribe", cid, {"push": True})["push"] is True
                replies = []

                def on_reply(value, exc):
                    replies.append((value, exc))

                raw.submit("wt.frame", cid, 0, on_reply=on_reply)
                wait_until(lambda: raw.poll(0.05) >= 0 and replies)
                assert replies[0][1] is None  # the seat holds the latest now
                for _ in range(FRAME_CREDIT + 1):
                    raw.submit("wt.frame", cid, 0, on_reply=on_reply)
                wait_until(lambda: raw.poll(0.05) >= 0 and len(replies) == 2)
                value, exc = replies[1]
                assert value is None and exc.remote_type == "RuntimeError"
                assert len(srv.delivery._subs[cid].calls) == FRAME_CREDIT
                assert srv.delivery.stats()["frame_waiters"] == FRAME_CREDIT
        finally:
            srv.stop()

    def test_fan_out_encodes_once_for_many_subscribers(self):
        """N push subscribers sharing one encoding variant cost one encode
        per publication, not N."""
        srv, clock = self._serve()
        clients = []
        try:
            for i in range(4):
                c = WindtunnelClient(*srv.address, name=f"fan{i}")
                c.subscribe(encoding="q16", push=True)
                clients.append(c)
            snap0 = srv.registry.snapshot()["counters"]
            misses0 = snap0.get("net.encode_cache_misses", 0)
            clients[0].add_rake([1, 1, 1], [1, 7, 3], n_seeds=5)
            for c in clients:
                wait_until(lambda c=c: c.drain_pushes(0.05) > 0 or c.pushed_frames > 0)
            snap = srv.registry.snapshot()["counters"]
            assert snap["net.publications_fanned_out"] >= 1
            pushes = snap["net.push_frames"]
            assert pushes >= len(clients)
            # Encode-dedup: variants are built once per publication and
            # shared across every subscriber on that (rake, ladder) rung.
            misses = snap.get("net.encode_cache_misses", 0) - misses0
            publications = snap["net.publications_fanned_out"]
            assert misses <= 2 * publications  # paths variant + env, not N·clients
        finally:
            for c in clients:
                c.close()
            srv.stop()

    @pytest.mark.parametrize(
        "options",
        [
            pytest.param({"encoding": "v1", "deltas": True}, id="v1"),
            pytest.param({"encoding": "q16", "deltas": True}, id="q16"),
            pytest.param({"encoding": "q16", "deltas": False}, id="q16-keyframes"),
            pytest.param({"rakes": ["1", "2"]}, id="rake-filter"),
        ],
    )
    def test_push_and_pull_sequences_are_bit_identical(self, options):
        """The delivery-equivalence matrix: for every kind of subscription,
        over two scripted publications (three rakes, then one of them
        moved), the ``paths`` bytes of the pulled reply, of the paced
        reply, and of ``frame.compose(expected rids, ...)`` are the
        same bytes."""
        srv, clock = self._serve()
        host, port = srv.address
        pushed: list = []
        try:
            with WindtunnelClient(host, port, name="admin") as admin, \
                 DlibClient(host, port) as pull, \
                 DlibClient(host, port) as push:
                admin.time_control("pause")
                for x in (1, 3, 5):  # no reader yet: nothing is produced
                    admin.add_rake([x, 1, 1], [x, 7, 3], n_seeds=4)
                assert sorted(srv.env.rakes) == [1, 2, 3]
                cid = pull.call("wt.join", "pull")["client_id"]
                pull.call("wt.subscribe", cid, options)
                sub = srv.delivery._subs[cid]
                push_cid = push.call("wt.join", "push")["client_id"]
                echo = push.call("wt.subscribe", push_cid, {**options, "push": True})
                assert echo["push"] is True

                def paced(value, exc):
                    assert exc is None
                    pushed.append(value)
                    push.submit("wt.frame", push_cid, 0, on_reply=paced)

                for _ in range(FRAME_CREDIT):
                    push.submit("wt.frame", push_cid, 0, on_reply=paced)
                assert Subscription.from_wire(sub.to_wire()) == sub
                wanted = [str(r) for r in (1, 2, 3) if sub.wants(str(r), "streamline")]
                composed = {}  # seq -> frame, as both readers were sent it

                def check(expected_rids, ack):
                    reply = pull.call("wt.frame", cid, ack)
                    frame = srv.store.latest()
                    composed[frame.seq] = frame
                    # A delta against the frame both readers hold predicts
                    # each changed q16 rake from it.
                    held = composed[ack].entries if ack and sub.deltas else None
                    want = frame.compose(expected_rids, sub.encoding, held).data
                    assert encode_value(reply["paths"]) == want
                    assert reply["v2"]["seq"] == frame.seq
                    wait_until(
                        lambda: push.poll(0.05) >= 0
                        and pushed
                        and pushed[-1]["v2"]["seq"] == frame.seq
                    )
                    assert encode_value(pushed[-1]["paths"]) == want
                    assert pushed[-1]["v2"] == reply["v2"]
                    return frame.seq

                seq = check(wanted, 0)  # first publication: a keyframe
                with srv.env.lock:  # second: rake 2 moved, one atomic bump
                    srv.env.rakes[2].move(GrabPoint.CENTER, np.array([3.5, 4.0, 2.0]))
                    srv.env.bump()
                check(["2"] if sub.deltas else wanted, seq)

                # wt.restore of the journaled terms rebuilds the same record.
                entry = {
                    "client_id": 9000, "name": "restored", "token": "t",
                    "subscription": sub.to_wire(),
                }
                admin._rpc.call("wt.restore", {"sessions": [entry]})
                assert srv.delivery._subs[9000] == sub
        finally:
            srv.stop()


# -- one delta base per connection, terms that survive a resume -------------------


def _unsteady_dataset(n_times=6):
    """A flow whose streamlines differ at every timestep, so a frame
    shown with another timestep's paths is visibly wrong."""
    grid = cartesian_grid((9, 9, 5), lo=(0, 0, 0), hi=(8, 8, 4))
    field = OscillatingShearLayer(eps=0.6, omega=2.5)
    vel = sample_on_grid(field, grid, np.arange(n_times) * 0.2, dtype=np.float64)
    return MemoryDataset(grid, vel, dt=0.2)


class TestDeliveryKeepsItsTerms:
    """A push subscriber that also pulls, reconnects or is reaped still
    gets, every time, exactly the frame its reply names."""

    def _serve(self, **kwargs):
        clock = {"now": 0.0}
        srv = WindtunnelServer(
            _unsteady_dataset(),
            settings=ToolSettings(streamline_steps=16, streakline_length=6),
            time_speed=1.0,
            time_fn=lambda: clock["now"],
            **kwargs,
        )
        frames = {}  # every publication, by seq
        srv.store.subscribe(lambda frame: frames.__setitem__(frame.seq, frame))
        return srv.start(), clock, frames

    @staticmethod
    def _assert_is_frame(state, frames):
        frame = wait_until(lambda: frames.get(state["v2"]["seq"]))
        assert state["timestep"] == frame.timestep
        assert set(state["paths"]) == set(frame.paths)
        for rid, entry in state["paths"].items():
            np.testing.assert_array_equal(
                entry["vertices"], frame.paths[rid]["vertices"]
            )

    @staticmethod
    def _await_push(c, srv, clock):
        """Drain pushes until the client shows the clock's timestep."""
        timestep = srv.env.clock.timestep_index(clock["now"])
        wait_until(
            lambda: c.drain_pushes(0.05) >= 0
            and c.latest_state is not None
            and c.latest_state.get("paths")
            and c.latest_state["timestep"] == timestep
        )

    def test_push_subscriber_that_pulls_keeps_one_delta_base(self):
        srv, clock, frames = self._serve()
        try:
            with WindtunnelClient(*srv.address, name="mixed") as c:
                exposed = []
                on_paced = c._on_paced

                def record(generation, state, exc):
                    on_paced(generation, state, exc)
                    exposed.append(c.latest_state)

                c._on_paced = record
                c.time_control("pause")
                assert c.subscribe(push=True)["push"] is True
                c.add_rake([1, 1, 1], [1, 7, 3], n_seeds=5)
                self._await_push(c, srv, clock)
                # Under push terms a fetch merges what has arrived and
                # returns the state shown.
                c.time_control("step", 1)
                exposed.append(c.fetch_frame())
                for _ in range(3):
                    c.time_control("step", 1)
                    self._await_push(c, srv, clock)
                assert len(exposed) >= 5
                for state in exposed:
                    self._assert_is_frame(state, frames)
        finally:
            srv.stop()

    def test_push_survives_a_reconnect(self):
        """A reconnect re-subscribes and re-arms: the calls parked on the
        dead connection give their demand back, the credit is parked
        again on the new one, and the next step's frame arrives."""
        srv, clock, frames = self._serve()
        try:
            with WindtunnelClient(*srv.address, name="redial") as c:
                c.time_control("pause")
                c.add_rake([1, 1, 1], [1, 7, 3], n_seeds=5)
                assert c.subscribe(encoding="q16", push=True)["push"] is True
                self._await_push(c, srv, clock)
                wait_until(lambda: srv.delivery.stats()["frame_waiters"] == FRAME_CREDIT)
                c._rpc.reconnect()
                assert c.rejoins == 1
                # The new terms' first call takes the frame held before the
                # reconnect, as a keyframe; draining it re-arms the credit.
                wait_until(
                    lambda: c.drain_pushes(0.05) >= 0
                    and srv.delivery.stats()["frame_waiters"] == FRAME_CREDIT
                )
                assert srv.pipeline._demand == 1  # the seat's, while calls park
                pushed = c.pushed_frames
                c.time_control("step", 1)
                self._await_push(c, srv, clock)
                assert c.pushed_frames > pushed
                assert c.latest_state["v2"]["encoding"] == "q16"
                assert c.server_stats()["push_subscriptions"] == 1
        finally:
            srv.stop()

    def test_a_resubscribe_with_calls_parked_needs_no_rejoin(self):
        """New terms fail the calls parked under the old ones, and those
        failures arrive inside the subscribe's own round trip: the client
        disowns them, so its next drain re-arms under the new terms
        without resuming a seat that never expired."""
        srv, clock, frames = self._serve()
        try:
            with WindtunnelClient(*srv.address, name="again") as c:
                c.time_control("pause")
                c.add_rake([1, 1, 1], [1, 7, 3], n_seeds=5)
                assert c.subscribe(push=True)["push"] is True
                self._await_push(c, srv, clock)
                wait_until(lambda: srv.delivery.stats()["frame_waiters"] == FRAME_CREDIT)
                assert c.subscribe(encoding="q16", push=True)["push"] is True
                wait_until(
                    lambda: c.drain_pushes(0.05) >= 0
                    and c.latest_state["v2"]["encoding"] == "q16"
                    and srv.delivery.stats()["frame_waiters"] == FRAME_CREDIT
                )
                assert c.rejoins == 0
                assert srv.pipeline._demand == 1  # the seat's, while calls park
                pushed = c.pushed_frames
                c.time_control("step", 1)
                self._await_push(c, srv, clock)
                assert c.pushed_frames > pushed
                assert c.rejoins == 0
        finally:
            srv.stop()

    def test_a_paced_fetch_returns_the_frame_shown(self):
        """A paused clock brings a push seat no new frame: ``fetch_frame``
        merges what has arrived and returns the state shown at once, so a
        network loop fetching that way keeps turning and stops, and the
        client closes, promptly."""
        srv, clock, frames = self._serve()
        try:
            with WindtunnelClient(*srv.address, name="paused") as c:
                c.time_control("pause")
                c.add_rake([1, 1, 1], [1, 7, 3], n_seeds=5)
                assert c.subscribe(push=True)["push"] is True
                first = c.fetch_frame()  # the first frame is waited for
                self._assert_is_frame(first, frames)
                wait_until(
                    lambda: srv.delivery.stats()["frame_waiters"] == FRAME_CREDIT
                )
                fetches = []
                fetch = c.fetch_frame
                c.fetch_frame = lambda: fetches.append(1) or fetch()
                c.start_network_loop(interval=0.01)
                wait_until(lambda: len(fetches) >= 3)
                t0 = time.monotonic()
                c.stop_network_loop()
                assert time.monotonic() - t0 < 2.0
                assert fetch() is c.latest_state
                c.start_network_loop(interval=0.01)
                t0 = time.monotonic()
            assert time.monotonic() - t0 < 2.0  # close() stopped the loop
            assert c._net_thread is None
        finally:
            srv.stop()

    def test_q16_survives_a_reap(self):
        srv, clock, frames = self._serve(
            lease_seconds=1.0, lease_retain_seconds=60.0, reap_interval=0.02
        )
        try:
            with WindtunnelClient(*srv.address, name="reaped") as c:
                c.time_control("pause")
                c.add_rake([1, 1, 1], [1, 7, 3], n_seeds=5)
                c.subscribe(encoding="q16", deltas=True)
                before = c.fetch_frame()
                assert before["v2"]["encoding"] == "q16"
                clock["now"] += 2.0  # the lease lapses, well inside retention
                wait_until(lambda: srv.sessions.reaped_total == 1)
                state = c.fetch_frame()
                assert c.rejoins == 1
                assert state is not before  # a reply merged, not the old one kept
                assert state["v2"]["encoding"] == "q16"
                assert state["v2"]["mode"] == "keyframe"  # nothing held after resume
                assert c._held.seq == state["v2"]["seq"]
                assert set(state["paths"]) == {"1"}
        finally:
            srv.stop()
