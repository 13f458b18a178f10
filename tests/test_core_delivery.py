"""The v2 delivery contract, socket-free.

``repro.core.delivery`` owns both halves of the envelope: the server's
composer (:class:`Delivery`) and the client's held scene
(:class:`HeldScene`).  Here they meet with no socket and no
``DlibServer`` in between: frames are built with ``encode_entries`` from
stand-in tracer results and published into a real ``FrameStore``, a
stand-in event loop records what would be queued on each connection,
and replies cross a wire that is ``encode_value`` / ``decode_value``.
``socket.socket`` raises for the whole module.
"""

import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delivery import FRAME_CREDIT, Delivery, HeldScene, Subscription
from repro.core.session import SessionExpiredError
from repro.core.framestore import ENCODINGS, FrameStore, PublishedFrame, encode_entries
from repro.dlib.protocol import decode_path_entry, decode_value, encode_value
from repro.obs import MetricsRegistry


@pytest.fixture(autouse=True, scope="module")
def no_sockets():
    def refuse(*args, **kwargs):
        raise AssertionError("delivery is tested without sockets")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(socket, "socket", refuse)
        yield


def test_no_socket_can_be_opened():
    with pytest.raises(AssertionError, match="without sockets"):
        socket.socket()


# -- stand-ins -----------------------------------------------------------------


class _Result:
    """Tracer-result stand-in with the ``wire_arrays()`` contract."""

    def __init__(self, content: int, n_seeds: int = 3, length: int = 7) -> None:
        rng = np.random.default_rng(content)
        self._v = rng.uniform(-5, 5, (n_seeds, length, 3)).astype(np.float32)
        self._l = rng.integers(1, length + 1, n_seeds).astype(np.int64)
        self._v.setflags(write=False)
        self._l.setflags(write=False)

    def wire_arrays(self):
        return self._v, self._l


#: Rake ids and their (fixed) tool kinds.
KINDS = {
    "1": "streamline", "2": "streakline", "3": "streamline", "4": "particle_path",
}


def _frame(scene: dict, timestep: int) -> PublishedFrame:
    """A frame of ``{rid: content}``; equal content, equal digest."""
    results = {rid: _Result(content) for rid, content in scene.items()}
    entries = encode_entries({rid: KINDS[rid] for rid in scene}, results)
    return PublishedFrame(
        version=1, timestep=timestep, seq=0, entries=entries, compute_seconds=0.0
    )


class _Deferred:
    """Like dlib's, resolved on the loop: the reply is queued at once."""

    def __init__(self, loop: "_Loop") -> None:
        self.loop, self.done = loop, False

    def resolve(self, value) -> bool:
        self.done = True
        self.loop.queued.append(value)
        return True

    def fail(self, exc) -> bool:
        return self.resolve(exc)


class _Loop:
    """The dlib server, minus the sockets: callbacks wait for :meth:`run`,
    and everything queued on the one connection lands in ``queued``."""

    def __init__(self) -> None:
        self.queued: list = []
        self.callbacks: list = []

    def add_tick(self, fn, interval) -> None:
        pass

    def call_soon(self, fn) -> None:
        self.callbacks.append(fn)

    def run(self) -> None:
        while self.callbacks:
            self.callbacks.pop(0)()

    def defer(self) -> _Deferred:
        return _Deferred(self)

    def call(self, fn, *args):
        """Dispatch one CALL from the connection; queue its reply."""
        reply = fn(*args)
        if not isinstance(reply, _Deferred):
            self.queued.append(reply)
        return reply


class _Env:
    def __init__(self) -> None:
        self.state = 0  # what the ``env`` block says besides the wall time
        # Further sections, as the environment's own and state providers'.
        self.sections: dict = {}

    def snapshot(self, wall) -> dict:
        return {"wall": wall, "state": self.state, **self.sections}


class _Pipeline:
    def __init__(self, store: FrameStore) -> None:
        self.store, self.env = store, _Env()
        self.key = (1, 0)  # what the clock names now
        self.alive, self.demand = True, 0

    def current_key(self):
        return self.key

    def note_cache_hit(self) -> None:
        pass

    def add_demand(self) -> None:
        self.demand += 1

    def remove_demand(self) -> None:
        self.demand -= 1


def _delivery():
    loop, store = _Loop(), FrameStore()
    pipeline = _Pipeline(store)
    delivery = Delivery(
        loop, pipeline, time_fn=lambda: 0.0, frame_wait=1.0, registry=MetricsRegistry()
    )
    return delivery, loop, pipeline


def _publish(delivery, loop, pipeline, frame: PublishedFrame) -> PublishedFrame:
    stamped = delivery.store.publish(frame)
    pipeline.key = stamped.key
    loop.run()
    return stamped


def _wire(reply: dict) -> dict:
    """What a reader decodes off the wire."""
    return decode_value(encode_value(reply))


def _expected(frame: PublishedFrame, sub: Subscription) -> dict:
    """decode(frame.compose(wanted, ...)): the scene ``sub`` asked for."""
    wanted = [rid for rid, e in frame.entries.items() if sub.wants(rid, e.kind)]
    fragment = frame.compose(wanted, encoding=sub.encoding)
    return {
        rid: decode_path_entry(entry)
        for rid, entry in decode_value(fragment.data).items()
    }


def _assert_same_scene(held: dict, expected: dict) -> None:
    assert set(held) == set(expected)
    for rid, entry in expected.items():
        assert held[rid]["kind"] == entry["kind"]
        np.testing.assert_array_equal(held[rid]["vertices"], entry["vertices"])
        np.testing.assert_array_equal(held[rid]["lengths"], entry["lengths"])


# -- the composer and the held scene -------------------------------------------------


def test_unknown_base_keyframes():
    delivery, loop, pipeline = _delivery()
    delivery.subscribe(7, {"encoding": "q16"})
    frame = _publish(delivery, loop, pipeline, _frame({"1": 1, "2": 2}, 0))
    first = delivery.frame(7, 0)
    assert first["v2"]["mode"] == "keyframe" and first["v2"]["base"] == 0
    again = delivery.frame(7, frame.seq)
    assert again["v2"]["mode"] == "delta" and again["v2"]["base"] == frame.seq
    unknown = delivery.frame(7, frame.seq + 10_000)
    assert unknown["v2"]["mode"] == "keyframe" and unknown["v2"]["base"] == 0
    assert set(_wire(unknown)["paths"]) == {"1", "2"}


def test_first_reply_under_new_terms_keyframes_whatever_the_ack():
    """An ack from before a (re)subscribe names a frame the new terms
    never described: the first reply under them is a keyframe."""
    delivery, loop, pipeline = _delivery()
    delivery.subscribe(7, {"encoding": "v1"})
    frame = _publish(delivery, loop, pipeline, _frame({"1": 1}, 0))
    assert delivery.frame(7, 0)["v2"]["mode"] == "keyframe"
    delivery.subscribe(7, {"encoding": "q16"})
    assert delivery.frame(7, frame.seq)["v2"]["mode"] == "keyframe"
    assert delivery.frame(7, frame.seq)["v2"]["mode"] == "delta"


def test_an_unknown_encoding_is_refused_by_name():
    """Two encodings: the half-float one is gone, and a subscriber asking
    for it is told which two there are, its old terms untouched."""
    delivery, loop, pipeline = _delivery()
    delivery.subscribe(7, {"encoding": "q16"})
    held = delivery._subs[7]
    for bad in ("f16", "zstd"):
        with pytest.raises(ValueError, match=r"\('v1', 'q16'\)"):
            delivery.subscribe(7, {"encoding": bad})
    assert delivery._subs[7] is held
    assert ENCODINGS == ("v1", "q16")


def test_removed_rake_is_dropped():
    delivery, loop, pipeline = _delivery()
    delivery.subscribe(7, {"deltas": True})
    scene = HeldScene()
    _publish(delivery, loop, pipeline, _frame({"1": 1, "2": 2}, 0))
    scene.integrate(_wire(delivery.frame(7, scene.seq)))
    assert set(scene.paths) == {"1", "2"}
    frame = _publish(delivery, loop, pipeline, _frame({"1": 1}, 1))
    reply = _wire(delivery.frame(7, scene.seq))
    assert reply["v2"]["mode"] == "delta" and reply["v2"]["removed"] == ["2"]
    assert reply["paths"] == {}  # rake 1 did not change
    merged = scene.integrate(reply)
    assert set(merged["paths"]) == {"1"} and scene.seq == frame.seq


def test_mismatched_base_is_refused_and_resets_the_ack():
    delivery, loop, pipeline = _delivery()
    delivery.subscribe(7, {})
    _publish(delivery, loop, pipeline, _frame({"1": 1}, 0))
    scene = HeldScene()
    scene.integrate(_wire(delivery.frame(7, 0)))
    held = scene.paths
    stray = _wire(delivery.frame(7, scene.seq))
    stray["v2"]["base"] += 1
    assert scene.integrate(stray) is None
    assert scene.seq == 0 and scene.paths is held  # nothing merged


def _predicted_rids(reply: dict) -> set:
    return {rid for rid, entry in reply["paths"].items() if entry.get("qpred")}


def test_q16_delta_predicts_changed_rakes_from_the_frame_the_reader_holds():
    """A q16 delta against the last frame composed ships each changed
    rake of the same ``(n, L)`` predicted from the held copy, which
    decodes to exactly the keyframe form's vertices; a rake of another
    shape, or a reply composed against an older ack, ships keyframes."""
    delivery, loop, pipeline = _delivery()
    delivery.subscribe(7, {"encoding": "q16"})
    sub = delivery._subs[7]
    scene = HeldScene()
    _publish(delivery, loop, pipeline, _frame({"1": 1, "2": 2, "3": 3}, 0))
    first = _wire(delivery.frame(7, scene.seq))
    assert first["v2"]["mode"] == "keyframe" and not _predicted_rids(first)
    scene.integrate(first)
    frame = _frame({"1": 11, "2": 2, "3": 13}, 1)
    wider = encode_entries({"3": "streamline"}, {"3": _Result(13, n_seeds=4)})
    frame = PublishedFrame(
        version=1, timestep=1, seq=0, compute_seconds=0.0,
        entries={**frame.entries, "3": wider["3"]},
    )
    frame = _publish(delivery, loop, pipeline, frame)
    reply = _wire(delivery.frame(7, scene.seq))
    assert reply["v2"]["mode"] == "delta" and set(reply["paths"]) == {"1", "3"}
    assert _predicted_rids(reply) == {"1"}  # rake 3 changed shape
    merged = scene.integrate(reply)
    _assert_same_scene(merged["paths"], _expected(frame, sub))
    # The reply to seq 2 is lost: an ack of seq 1 is not the last frame
    # composed, so seq 3 is a keyframe.
    _publish(delivery, loop, pipeline, _frame({"1": 21, "2": 2}, 2))
    delivery.frame(7, scene.seq)
    frame = _publish(delivery, loop, pipeline, _frame({"1": 31, "2": 2}, 3))
    reply = _wire(delivery.frame(7, scene.seq))
    assert reply["v2"]["mode"] == "keyframe" and not _predicted_rids(reply)
    _assert_same_scene(scene.integrate(reply)["paths"], _expected(frame, sub))


def test_a_predicted_entry_the_scene_cannot_decode_resyncs():
    """A predicted rake the scene does not hold, or a predicted delta
    against a base it does not hold, is refused — ``None``, ack 0,
    nothing merged — never raised out of the handler."""
    delivery, loop, pipeline = _delivery()
    delivery.subscribe(7, {"encoding": "q16"})
    _publish(delivery, loop, pipeline, _frame({"1": 1, "2": 2}, 0))
    scene = HeldScene()
    scene.integrate(_wire(delivery.frame(7, 0)))
    _publish(delivery, loop, pipeline, _frame({"1": 11, "2": 2}, 1))
    reply = _wire(delivery.frame(7, scene.seq))
    assert _predicted_rids(reply) == {"1"}
    held, seq = scene.paths, scene.seq

    unheld = dict(reply, paths={"4": reply["paths"]["1"]})
    assert scene.integrate(unheld) is None
    assert scene.seq == 0 and scene.paths is held

    scene.seq = seq
    other_shape = {**held["1"], "vertices": held["1"]["vertices"][:1]}
    scene.paths = {**held, "1": other_shape}
    assert scene.integrate(reply) is None
    assert scene.seq == 0 and scene.paths["1"] is other_shape
    scene.paths = held

    scene.seq = seq
    stray = dict(reply, v2=dict(reply["v2"], base=seq + 1))
    assert scene.integrate(stray) is None
    assert scene.seq == 0 and scene.paths is held

    # Resynced: the ack of 0 gets a keyframe, and the scene recovers.
    frame = delivery.store.latest()
    again = _wire(delivery.frame(7, scene.seq))
    assert again["v2"]["mode"] == "keyframe"
    merged = scene.integrate(again)
    _assert_same_scene(merged["paths"], _expected(frame, delivery._subs[7]))


def test_an_unbound_pull_acking_an_older_frame_keyframes_then_deltas_resume():
    """The one delta base is the frame last composed for the subscription:
    a pull whose ack is any other frame — even one composed for it
    earlier, whose reply was lost — gets a keyframe, and the pull after
    it a delta again."""
    delivery, loop, pipeline = _delivery()
    delivery.subscribe(7, {})
    scene = HeldScene()
    _publish(delivery, loop, pipeline, _frame({"1": 1, "2": 2}, 0))
    assert scene.integrate(_wire(delivery.frame(7, scene.seq)))["v2"]["mode"] == "keyframe"
    _publish(delivery, loop, pipeline, _frame({"1": 11, "2": 2}, 1))
    lost = delivery.frame(7, scene.seq)  # composed, never integrated
    assert lost["v2"]["mode"] == "delta"
    frame = _publish(delivery, loop, pipeline, _frame({"1": 21, "2": 2}, 2))
    reply = _wire(delivery.frame(7, scene.seq))
    assert reply["v2"]["mode"] == "keyframe" and reply["v2"]["base"] == 0
    assert set(reply["paths"]) == {"1", "2"}
    _assert_same_scene(scene.integrate(reply)["paths"], _expected(frame, delivery._subs[7]))
    frame = _publish(delivery, loop, pipeline, _frame({"1": 31, "2": 2}, 3))
    reply = _wire(delivery.frame(7, scene.seq))
    assert reply["v2"]["mode"] == "delta" and set(reply["paths"]) == {"1"}
    _assert_same_scene(scene.integrate(reply)["paths"], _expected(frame, delivery._subs[7]))


def test_a_caller_with_no_seat_gets_an_enveloped_keyframe_and_records_nothing():
    delivery, loop, pipeline = _delivery()
    frame = _publish(delivery, loop, pipeline, _frame({"1": 1, "3": 3}, 0))
    for _ in range(2):
        reply = delivery.frame(5, frame.seq)
        assert reply["v2"] == {
            "seq": frame.seq, "mode": "keyframe", "base": 0,
            "encoding": "v1", "removed": [],
        }
        assert reply["paths"].data == encode_value(frame.paths)
    assert not delivery._subs


@pytest.mark.parametrize(
    "key, value",
    [("push", "false"), ("deltas", "no"), ("deltas", 1), ("push", None)],
    ids=["push-str", "deltas-str", "deltas-int", "push-null"],
)
def test_a_switch_that_is_not_a_bool_is_refused(key, value):
    """``bool("false")`` is True: a string used to arm push delivery or
    turn deltas on.  Refused by name, the old terms untouched."""
    with pytest.raises(ValueError, match=f"{key} must be a bool"):
        Subscription.from_wire({key: value})
    delivery, loop, pipeline = _delivery()
    delivery.subscribe(7, {"deltas": False})
    held = delivery._subs[7]
    with pytest.raises(ValueError, match=key):
        delivery.subscribe(7, {key: value})
    assert delivery._subs[7] is held and pipeline.demand == 0


# -- the property: every step shows the scene the subscription asked for ----------


subscriptions = st.fixed_dictionaries(
    {
        "encoding": st.sampled_from(ENCODINGS),
        "deltas": st.booleans(),
        "rakes": st.none() | st.lists(st.sampled_from(sorted(KINDS)), unique=True),
        "kinds": st.none() | st.lists(
            st.sampled_from(sorted(set(KINDS.values()))), unique=True
        ),
    }
)
#: One publication: the rakes present and their content (three variants
#: each, so unchanged rakes — equal digests — are common), and what
#: becomes of the reply or of the ack the reader sends for it.
steps = st.tuples(
    st.dictionaries(st.sampled_from(sorted(KINDS)), st.integers(0, 2)),
    st.sampled_from(["ok", "lost", "stale", "unknown"]),
)


@settings(max_examples=60, deadline=None)
@given(subscriptions, st.lists(steps, min_size=1, max_size=12))
def test_merged_scene_is_what_the_subscription_asked_for(options, script):
    """Over random publications with lost replies (the ack stays behind),
    stale acks (one behind the scene held) and unknown acks, a reply is a
    delta exactly when deltas are on and the ack is the frame last
    composed for the subscription, and every reply leaves the client
    holding exactly ``decode(frame.compose(wanted, ...))``."""
    delivery, loop, pipeline = _delivery()
    delivery.subscribe(7, options)
    sub = delivery._subs[7]
    scene = HeldScene()
    for t, (content, fate) in enumerate(script):
        frame = _publish(delivery, loop, pipeline, _frame(content, t))
        held, last = scene.seq, sub.seq
        ack = {"unknown": held + 10_000, "stale": max(held - 1, 0)}.get(fate, held)
        reply = _wire(delivery.frame(7, ack))
        assert reply["v2"]["seq"] == sub.seq == frame.seq
        if sub.deltas and last and ack == last:
            assert reply["v2"]["mode"] == "delta" and reply["v2"]["base"] == ack
        else:
            assert reply["v2"]["mode"] == "keyframe" and reply["v2"]["base"] == 0
        if fate == "lost":
            continue  # never integrated: the next ack is behind
        merged = scene.integrate(reply)
        _assert_same_scene(merged["paths"], _expected(frame, sub))


# -- paced calls: one delta base per connection ----------------------------------


def test_a_paced_call_takes_its_seats_base_and_never_a_frame_the_seat_holds():
    """A push seat's parked calls: the first publication newer than the
    seat's frame answers the oldest, one call per publication, with a
    delta against the frame queued before it whatever the ack said; a
    frozen key answers nothing more; dropping the seat fails the rest
    and gives their demand back."""
    delivery, loop, pipeline = _delivery()
    echo = loop.call(delivery.subscribe, 7, {"push": True})
    assert echo["push"] is True and pipeline.demand == 0
    armed = [loop.call(delivery.frame, 7, 0) for _ in range(FRAME_CREDIT)]
    assert pipeline.demand == 1  # one unit per seat with calls parked
    _publish(delivery, loop, pipeline, _frame({"1": 0, "2": 0}, 0))
    assert [d.done for d in armed] == [True] + [False] * (FRAME_CREDIT - 1)
    # Re-armed while a publication's own settling still waits on the
    # loop: it parks behind the seat's older calls ...
    stamped = delivery.store.publish(_frame({"1": 1, "2": 0}, 1))
    pipeline.key = stamped.key
    armed.append(loop.call(delivery.frame, 7, 0))
    loop.run()  # ... and the oldest takes the publication.
    assert [d.done for d in armed] == [True, True] + [False] * (FRAME_CREDIT - 1)
    # Two publications before the loop runs: two calls, in order.
    delivery.store.publish(_frame({"1": 2, "2": 0}, 2))
    _publish(delivery, loop, pipeline, _frame({"1": 2, "2": 1}, 3))
    # A frozen key answers nothing more, tick after tick.
    delivery._sweep()
    delivery._sweep()
    echo_reply, *queued = loop.queued
    assert echo_reply is echo
    assert [m["v2"]["seq"] for m in queued] == [1, 2, 3, 4]
    assert [m["v2"]["mode"] for m in queued] == ["keyframe"] + ["delta"] * 3
    for before, message in zip(queued, queued[1:]):
        assert message["v2"]["base"] == before["v2"]["seq"]
    scene = HeldScene()
    for message in queued:
        assert scene.integrate(_wire(message)) is not None
    latest = delivery.store.latest()
    _assert_same_scene(scene.paths, _expected(latest, delivery._subs[7]))
    assert delivery.stats()["frame_waiters"] == 1 == pipeline.demand
    assert len(delivery._subs[7].calls) == 1
    assert delivery.stats()["push_subscriptions"] == 1
    loop.queued.clear()
    delivery.drop(7)
    loop.run()
    assert pipeline.demand == 0 and not delivery._subs and not delivery._waiters
    assert [type(m) for m in loop.queued] == [SessionExpiredError]


def test_paced_predicted_frames_chain_on_one_connection():
    """A q16 push seat whose reader re-arms one call per frame read,
    sometimes only after several publications: each frame queued is
    predicted from the one queued just before it, at most
    ``FRAME_CREDIT`` wait unread, and each decodes to the frame it
    names."""
    delivery, loop, pipeline = _delivery()
    loop.call(delivery.subscribe, 7, {"encoding": "q16", "push": True})
    loop.queued.clear()
    sub = delivery._subs[7]
    for _ in range(FRAME_CREDIT):
        loop.call(delivery.frame, 7, 0)
    frames, wire, scene = {}, [], HeldScene()
    for t in range(12):
        stamped = _publish(delivery, loop, pipeline, _frame({"1": t, "2": t // 3, "3": 5}, t))
        frames[stamped.seq] = stamped
        wire += loop.queued
        loop.queued.clear()
        assert len(wire) <= FRAME_CREDIT
        if t % 5 == 4:
            continue  # the reader is busy: frames wait, credit runs down
        while wire:
            message = _wire(wire.pop(0))
            if scene.seq:
                assert message["v2"]["base"] == scene.seq
                assert "1" in _predicted_rids(message)
            else:
                assert message["v2"]["mode"] == "keyframe"
            merged = scene.integrate(message)
            assert merged is not None
            _assert_same_scene(
                merged["paths"], _expected(frames[message["v2"]["seq"]], sub)
            )
            loop.call(delivery.frame, 7, scene.seq)  # re-arm one
            loop.run()  # a newer frame answers it at once
            wire += loop.queued
            loop.queued.clear()
    assert scene.seq == max(frames)


# -- the env block: a delta carries the sections that changed --------------------


def test_an_unchanged_env_is_left_out_of_a_delta_and_the_scene_keeps_it():
    delivery, loop, pipeline = _delivery()
    delivery.subscribe(7, {})
    scene = HeldScene()
    _publish(delivery, loop, pipeline, _frame({"1": 1}, 0))
    first = _wire(delivery.frame(7, scene.seq))
    assert first["v2"]["mode"] == "keyframe" and first["env"] == {"wall": 0.0, "state": 0}
    scene.integrate(first)
    again = _wire(delivery.frame(7, scene.seq))
    assert again["v2"]["mode"] == "delta" and "env" not in again
    assert scene.integrate(again)["env"] == first["env"]
    pipeline.env.state = 1
    _publish(delivery, loop, pipeline, _frame({"1": 2}, 1))
    moved = _wire(delivery.frame(7, scene.seq))
    assert moved["v2"]["mode"] == "delta" and moved["env"]["state"] == 1
    assert scene.integrate(moved)["env"]["state"] == 1
    _publish(delivery, loop, pipeline, _frame({"1": 3}, 2))
    still = _wire(delivery.frame(7, scene.seq))
    assert "env" not in still and scene.integrate(still)["env"]["state"] == 1


def test_a_lost_reply_resends_the_env_with_its_keyframe():
    """The reply that carried an ``env`` change is lost: the next pull
    acks the frame before it and gets a keyframe, ``env`` included,
    although the ``env`` has not changed since the lost reply."""
    delivery, loop, pipeline = _delivery()
    delivery.subscribe(7, {})
    scene = HeldScene()
    _publish(delivery, loop, pipeline, _frame({"1": 1}, 0))
    scene.integrate(_wire(delivery.frame(7, scene.seq)))
    pipeline.env.state = 1
    _publish(delivery, loop, pipeline, _frame({"1": 2}, 1))
    lost = delivery.frame(7, scene.seq)
    assert lost["v2"]["mode"] == "delta" and "env" in lost
    _publish(delivery, loop, pipeline, _frame({"1": 3}, 2))
    reply = _wire(delivery.frame(7, scene.seq))
    assert reply["v2"]["mode"] == "keyframe" and reply["env"]["state"] == 1
    assert scene.integrate(reply)["env"]["state"] == 1


def test_a_frame_resent_with_another_env_carries_env_until_the_next_frame():
    """An ack names a frame, not a reply: once the frame last composed is
    re-sent with another ``env``, a lost re-send cannot be seen, so every
    reply carries ``env`` until a new frame is composed."""
    delivery, loop, pipeline = _delivery()
    delivery.subscribe(7, {})
    scene = HeldScene()
    _publish(delivery, loop, pipeline, _frame({"1": 1}, 0))
    scene.integrate(_wire(delivery.frame(7, scene.seq)))
    pipeline.env.state = 1  # the env moves, the frame does not
    lost = delivery.frame(7, scene.seq)
    assert lost["v2"]["mode"] == "delta" and "env" in lost
    for _ in range(2):
        reply = _wire(delivery.frame(7, scene.seq))
        assert reply["v2"]["mode"] == "delta" and reply["env"]["state"] == 1
        assert scene.integrate(reply)["env"]["state"] == 1
    _publish(delivery, loop, pipeline, _frame({"1": 2}, 1))
    reply = _wire(delivery.frame(7, scene.seq))
    assert reply["env"]["state"] == 1
    scene.integrate(reply)
    assert "env" not in _wire(delivery.frame(7, scene.seq))


def _sectioned_env(pipeline) -> dict:
    """Give the stand-in ``env`` the environment's four sections."""
    pipeline.env.sections = {
        "version": 1,
        "clock": {"timestep": 0, "playing": False},
        "rakes": {"1": {"end_a": [0.0, 0.0, 0.0], "owner": None}},
        "users": {"7": {"name": "pilot"}},
    }
    return pipeline.env.sections


def test_a_delta_carries_only_the_sections_that_changed():
    """A stepping clock bumps ``version`` and moves ``clock``: the delta
    carries those two sections, and the scene shows the whole block."""
    delivery, loop, pipeline = _delivery()
    sections = _sectioned_env(pipeline)
    delivery.subscribe(7, {"encoding": "q16"})
    scene = HeldScene()
    _publish(delivery, loop, pipeline, _frame({"1": 1}, 0))
    first = _wire(delivery.frame(7, scene.seq))
    assert set(first["env"]) == {"wall", "state", "version", "clock", "rakes", "users"}
    scene.integrate(first)
    for t in range(1, 4):
        sections["version"] += 1
        sections["clock"] = {"timestep": t, "playing": False}
        _publish(delivery, loop, pipeline, _frame({"1": 1 + t}, t))
        reply = delivery.frame(7, scene.seq)
        assert reply["v2"]["mode"] == "delta"
        assert set(reply["env"]) == {"version", "clock"}
        shown = scene.integrate(_wire(reply))
        assert shown["env"] == pipeline.env.snapshot(0.0)
    # A join; the frame stays.  Like the environment, the stand-in hands
    # back a new ``users`` map when a user changes.
    sections["users"] = {**sections["users"], "8": {"name": "viewer"}}
    reply = _wire(delivery.frame(7, scene.seq))
    assert reply["v2"]["mode"] == "delta" and set(reply["env"]) == {"users"}
    shown = scene.integrate(reply)
    assert shown["env"]["users"] == {"7": {"name": "pilot"}, "8": {"name": "viewer"}}


def test_a_section_that_leaves_the_snapshot_leaves_the_shown_env():
    """A state provider removed between frames: its section must not
    linger in the merged ``env``, so the reply is a keyframe carrying the
    whole block; one added is a keyframe too; then deltas resume."""
    delivery, loop, pipeline = _delivery()
    pipeline.env.sections = {"solver": {"step": 1}}
    delivery.subscribe(7, {})
    scene = HeldScene()
    _publish(delivery, loop, pipeline, _frame({"1": 1}, 0))
    assert scene.integrate(_wire(delivery.frame(7, scene.seq)))["env"]["solver"] == {
        "step": 1
    }
    del pipeline.env.sections["solver"]
    _publish(delivery, loop, pipeline, _frame({"1": 2}, 1))
    reply = _wire(delivery.frame(7, scene.seq))
    assert reply["v2"]["mode"] == "keyframe"
    shown = scene.integrate(reply)
    assert "solver" not in shown["env"] and "solver" not in scene.env
    assert shown["env"] == {"wall": 0.0, "state": 0}
    _publish(delivery, loop, pipeline, _frame({"1": 3}, 2))
    reply = _wire(delivery.frame(7, scene.seq))
    assert reply["v2"]["mode"] == "delta" and "env" not in reply
    pipeline.env.sections = {"ring": [1, 2]}
    _publish(delivery, loop, pipeline, _frame({"1": 4}, 3))
    reply = _wire(delivery.frame(7, scene.seq))
    assert reply["v2"]["mode"] == "keyframe"
    assert scene.integrate(reply)["env"] == {"wall": 0.0, "state": 0, "ring": [1, 2]}


def test_a_frame_resent_with_another_set_of_sections_keyframes_until_the_next_frame():
    """The frame last composed is re-sent after a section left: the
    reader acking it may hold either set, so every reply is a keyframe
    until a new frame is composed."""
    delivery, loop, pipeline = _delivery()
    pipeline.env.sections = {"solver": 1}
    delivery.subscribe(7, {})
    scene = HeldScene()
    _publish(delivery, loop, pipeline, _frame({"1": 1}, 0))
    scene.integrate(_wire(delivery.frame(7, scene.seq)))
    pipeline.env.sections = {}
    lost = delivery.frame(7, scene.seq)  # never integrated
    assert lost["v2"]["mode"] == "keyframe"
    reply = _wire(delivery.frame(7, scene.seq))
    assert reply["v2"]["mode"] == "keyframe"
    assert scene.integrate(reply)["env"] == {"wall": 0.0, "state": 0}
    _publish(delivery, loop, pipeline, _frame({"1": 2}, 1))
    reply = _wire(delivery.frame(7, scene.seq))
    assert reply["v2"]["mode"] == "keyframe"  # its ack names the re-sent frame
    scene.integrate(reply)
    assert "env" not in _wire(delivery.frame(7, scene.seq))


#: What one step changes in the ``env`` before it: nothing, one section,
#: or the set of sections (a state provider comes or goes).
ENV_CHANGES = [None, "state", "version", "clock", "rakes", "users", "provider"]

#: One pull: whether a new frame is published first, what in the env
#: changes first, and what becomes of the reply or its ack.
env_steps = st.tuples(
    st.booleans(), st.sampled_from(ENV_CHANGES), st.sampled_from(["ok", "lost", "stale"])
)


@settings(max_examples=120, deadline=None)
@given(st.booleans(), st.lists(env_steps, min_size=1, max_size=16))
def test_every_state_shown_has_the_env_it_was_composed_with(push, script):
    """Over new frames and re-sent ones, single-section ``env`` changes
    (``clock`` only, ``rakes`` only, ...), sections coming and going, lost
    replies and stale acks, pulled or paced with ``FRAME_CREDIT`` calls
    outstanding: every state the scene shows carries the ``env``
    snapshot its reply was composed with, section for section.  Paced,
    a "lost" step is a reader that does not read: its frames wait, at
    most ``FRAME_CREDIT`` of them, and its credit runs down."""
    delivery, loop, pipeline = _delivery()
    sections = _sectioned_env(pipeline)
    loop.call(delivery.subscribe, 7, {"push": push})
    loop.queued.clear()  # the subscribe echo
    scene = HeldScene()
    wire = []  # (reply, the env it was composed with), oldest first

    def flush():
        loop.run()
        wire.extend((reply, pipeline.env.snapshot(0.0)) for reply in loop.queued)
        loop.queued.clear()

    if push:
        for _ in range(FRAME_CREDIT):
            loop.call(delivery.frame, 7, 0)
    t = 0
    for publish, change, fate in script:
        if change == "state":
            pipeline.env.state += 1
        elif change == "provider":
            if sections.pop("solver", None) is None:
                sections["solver"] = {"t": t}
        elif change is not None:
            sections[change] = {"was": sections[change], "t": t}
        if publish or not t:
            t += 1
            stamped = delivery.store.publish(_frame({"1": t % 3, "2": 0}, t))
            pipeline.key = stamped.key
        flush()
        ack = max(scene.seq - 1, 0) if fate == "stale" else scene.seq
        if not push:
            loop.call(delivery.frame, 7, ack)
            flush()
            if fate == "lost":
                wire.clear()
        assert len(wire) <= FRAME_CREDIT
        if push and fate == "lost":
            continue
        while wire:
            reply, env = wire.pop(0)
            merged = scene.integrate(_wire(reply))
            assert merged is not None
            assert merged["env"] == env
            if push:
                loop.call(delivery.frame, 7, ack)  # re-arm one
                flush()
