"""The entry memo across timesteps: what a production keeps.

A replay clock steps, scrubs and wraps over a stored dataset, so the
frame pipeline keeps every timestep's rake entries whose rake shape
``(kind, grid seeds, settings)`` is still in the environment, up to
``MEMO_POINT_BUDGET``; a live clock keeps its last production only.
Covered here:

* a looped replay's second lap integrates nothing, asks the loader for
  nothing, counts no anticipated frame, and publishes frames
  bit-identical to the first lap's and to a fresh engine's — the
  differential oracle run over retained entries — and a q16 + deltas
  reader is sent the same bytes on both laps: rakes predicted from the
  one it holds, ``kind`` / ``lengths`` left out where held, and only
  the ``env`` sections that changed, decoding to a fresh keyframe and
  the server's whole ``env``;
* a live clock's memo never holds more than one production and one
  speculation;
* moving a rake evicts its entries at every timestep, and nothing else;
* the point budget holds, and once full admits nothing new, so a loop
  longer than the budget still hits on what was kept.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    ComputeEngine,
    Environment,
    FramePipeline,
    FrameStore,
    ToolSettings,
    WindtunnelClient,
    WindtunnelServer,
)
from repro.core import pipeline as pipeline_module
from repro.dlib.protocol import decode_path_entry, decode_value, encode_value
from repro.tracers.rake import TOOL_KINDS, GrabPoint, Rake
from tests import wait_until
from tests.test_core_pipeline import (
    _assert_equals_fresh_engine,
    _demand_frame,
    _one_rake_of_each_kind,
    make_dataset,
)
from tests.test_wire_v2 import _unsteady_dataset

SETTINGS = ToolSettings(streamline_steps=12, particle_path_steps=4, streakline_length=5)


@pytest.fixture(scope="module")
def dataset():
    return make_dataset()


def _points_computed(pipeline) -> int:
    return pipeline.registry.snapshot()["counters"].get("engine.points_computed", 0)


def _memo(pipeline) -> dict:
    with pipeline._state_lock:
        return dict(pipeline._memo)


def _headless(dataset):
    env = Environment(dataset.n_timesteps)
    engine = ComputeEngine(dataset, replace(SETTINGS))
    pipeline = FramePipeline(engine, env, FrameStore(), time_fn=lambda: 0.0)
    env.clock.pause(0.0)
    return env, pipeline


def _produce_at(env, pipeline, timestep):
    """What ``wt.time scrub`` then a pull does, headless."""
    env.clock.scrub(timestep, 0.0)
    env.bump()
    return pipeline.produce_inline()


class TestLoopedReplay:
    def test_second_lap_computes_nothing_and_repeats_the_first(
        self, dataset, monkeypatch
    ):
        """Lock-step steps round the whole dataset twice on a started
        pipeline (so lap 1 speculates): lap 2 is all memo hits."""
        env = Environment(dataset.n_timesteps)
        engine = ComputeEngine(dataset, replace(SETTINGS))
        store = FrameStore()
        pipeline = FramePipeline(engine, env, store, time_fn=lambda: 0.0)
        prefetched = []
        prefetch = engine.loader.prefetch
        monkeypatch.setattr(
            engine.loader, "prefetch", lambda t: (prefetched.append(t), prefetch(t))[1]
        )
        pipeline.start()
        n = dataset.n_timesteps
        try:
            env.clock.pause(0.0)
            _one_rake_of_each_kind(env)
            laps = []
            for lap in range(2):
                frames = {}
                for _ in range(n):
                    env.clock.step(1, 0.0)
                    env.bump()
                    frame = _demand_frame(pipeline, store, env)
                    frames[frame.timestep] = frame
                laps.append(frames)
                if lap == 0:
                    points = _points_computed(pipeline)
                    anticipated = pipeline.frames_anticipated
                    prefetches = len(prefetched)
        finally:
            pipeline.stop()
        assert points > 0 and _points_computed(pipeline) == points
        assert anticipated == n - 2 and pipeline.frames_anticipated == anticipated
        assert len(prefetched) == prefetches  # the memo held every timestep
        assert sorted(laps[1]) == list(range(n))
        rakes = env.rakes_snapshot()[1]
        for t, again in laps[1].items():
            first = laps[0][t]
            assert again.seq > first.seq
            rids = sorted(first.entries)
            for encoding in ("v1", "q16"):
                assert (
                    again.compose(rids, encoding).data
                    == first.compose(rids, encoding).data
                )
            # The predicted form a reader holding the frame before is sent.
            before = (t - 1) % n
            assert (
                again.compose(rids, "q16", laps[1][before].entries).data
                == first.compose(rids, "q16", laps[0][before].entries).data
            )
            _assert_equals_fresh_engine(dataset, engine.settings, again, rakes)

    def test_a_q16_reader_is_sent_the_same_bytes_each_lap(self):
        """Over a real socket, two lock-step laps of a flow whose
        streamlines move each timestep (so they ship predicted): each
        reply of lap 2 is lap 1's for the same timestep — paths bytes,
        ``env`` sections carried and their content, ``version`` aside —
        and every state shown is a fresh q16 keyframe of its frame, a
        fresh engine's rakes, and the server's whole ``env``."""
        dataset = _unsteady_dataset(8)
        clock = {"now": 0.0}
        srv = WindtunnelServer(
            dataset, settings=replace(SETTINGS), time_speed=1.0,
            time_fn=lambda: clock["now"],
        )
        frames = {}
        srv.store.subscribe(lambda frame: frames.__setitem__(frame.seq, frame))
        srv.start()
        n = dataset.n_timesteps
        try:
            with WindtunnelClient(*srv.address, name="looped") as c:
                c.time_control("pause")
                for i, kind in enumerate(TOOL_KINDS):
                    c.add_rake([2.0 + i, 2.0, 2.0], [2.0 + i, 5.0, 2.5], 3, kind)
                c.subscribe(encoding="q16", deltas=True)
                replies = []
                integrate = c._held.integrate

                def record(state):
                    replies.append(state)
                    return integrate(state)

                c._held.integrate = record
                c.fetch_frame()
                laps = []
                for _ in range(2):
                    lap = []
                    for _ in range(n):
                        c.time_control("step", 1)
                        state = c.fetch_frame()
                        frame = wait_until(lambda: frames.get(state["v2"]["seq"]))
                        fresh = decode_value(
                            frame.compose(list(frame.entries), "q16").data
                        )
                        assert set(state["paths"]) == set(fresh)
                        for rid, entry in fresh.items():
                            want, got = decode_path_entry(entry), state["paths"][rid]
                            assert got["kind"] == want["kind"]
                            assert got["vertices"].tobytes() == want["vertices"].tobytes()
                            assert got["lengths"].tobytes() == want["lengths"].tobytes()
                        assert encode_value(state["env"]) == encode_value(
                            srv.env.snapshot(clock["now"])
                        )
                        _assert_equals_fresh_engine(
                            dataset, srv.engine.settings, frame, srv.env.rakes_snapshot()[1]
                        )
                        lap.append(replies[-1])
                    laps.append(lap)
        finally:
            srv.stop()
        for first, again in zip(*laps):
            assert first["v2"]["mode"] == again["v2"]["mode"] == "delta"
            assert encode_value(again["paths"]) == encode_value(first["paths"])
            assert set(again["env"]) == set(first["env"]) == {"version", "clock"}
            assert again["env"]["clock"] == first["env"]["clock"]
        predicted = [
            entry for reply in laps[1] for entry in reply["paths"].values()
            if entry.get("qpred")
        ]
        assert any("kind" not in entry for entry in predicted)
        assert any("lengths" not in entry for entry in predicted)


class TestLiveClock:
    def test_memo_never_grows_past_one_production_and_one_speculation(self, dataset):
        env = Environment(dataset.n_timesteps)
        frontier = [0]
        env.clock.bind_live(lambda: frontier[0])
        engine = ComputeEngine(dataset, replace(SETTINGS))
        store = FrameStore()
        pipeline = FramePipeline(engine, env, store, time_fn=lambda: 0.0).start()
        try:
            rids = _one_rake_of_each_kind(env)
            for t in range(dataset.n_timesteps):
                frontier[0] = t
                pipeline.nudge()
                assert _demand_frame(pipeline, store, env).timestep == t
                memo = _memo(pipeline)
                assert len(memo) <= 2 * len(rids)
                assert {key[3] for key in memo} <= {t, t + 1}
        finally:
            pipeline.stop()
        assert pipeline.frames_produced == dataset.n_timesteps


class TestEviction:
    def test_moving_a_rake_evicts_its_entries_at_every_timestep(self, dataset):
        env, pipeline = _headless(dataset)
        rids = _one_rake_of_each_kind(env)
        for t in range(4):
            _produce_at(env, pipeline, t)
        moved = env.rakes[rids[1]].kind
        before = _memo(pipeline)
        assert len(before) == 4 * len(rids)
        old_shape = next(key[:3] for key in before if key[0] == moved)
        with env.lock:
            env.rakes[rids[1]].move(GrabPoint.CENTER, np.array([4.0, 4.5, 2.0]))
            env.bump()
        frame = pipeline.produce_inline()
        after = _memo(pipeline)
        assert not [key for key in after if key[:3] == old_shape]
        assert [key[3] for key in after if key[0] == moved] == [frame.timestep]
        kept = {key: slot for key, slot in before.items() if key[:3] != old_shape}
        assert all(after.get(key) is slot for key, slot in kept.items())
        assert len(after) == len(kept) + 1


class TestPointBudget:
    def test_a_full_memo_admits_nothing_new_and_a_long_loop_hits_what_it_kept(
        self, dataset, monkeypatch
    ):
        """A budget of three frames on an eight-timestep loop: the memo
        never holds more, the first two timesteps stay, and lap 2 hits
        on them where a least-recently-used memo would hit nothing."""
        env, pipeline = _headless(dataset)
        env.add_rake(Rake([2.0, 2.0, 2.0], [2.0, 5.0, 2.5], n_seeds=3))
        first = _produce_at(env, pipeline, 0)
        per_frame = sum(slot.points for slot in _memo(pipeline).values())
        assert per_frame > 0
        monkeypatch.setattr(pipeline_module, "MEMO_POINT_BUDGET", 3 * per_frame)
        lap1 = {0: first}
        for t in range(1, dataset.n_timesteps):
            lap1[t] = _produce_at(env, pipeline, t)
            memo = _memo(pipeline)
            assert sum(slot.points for slot in memo.values()) <= 3 * per_frame
            assert {0, 1, t} <= {key[3] for key in memo}
        computed = _points_computed(pipeline)
        for t in range(dataset.n_timesteps):
            frame = _produce_at(env, pipeline, t)
            hit = all(
                frame.entries[rid] is lap1[t].entries[rid] for rid in frame.entries
            )
            assert hit == (t in (0, 1))
        # Lap 2 integrated the six timesteps it did not keep, and only them.
        lap2 = _points_computed(pipeline) - computed
        assert lap2 == sum(lap1[t].n_points for t in range(2, dataset.n_timesteps))
