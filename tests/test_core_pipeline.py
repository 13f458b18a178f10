"""The figure-8 frame pipeline: store, producer, and RPC seam.

Covers the guarantees the refactor introduced:

* published frames are immutable — one client's mutations can never
  corrupt another client's response (the shallow-copy bug regression);
* vertices are encoded exactly once per produced frame, however many
  clients read it;
* environment mutations invalidate and republish promptly (bounded
  staleness);
* headless ``produce_inline()`` on an un-started pipeline runs the
  identical stage code (encode-once, read-only arrays), and every wire
  encoding of its frame decodes within bound, degenerate grids and
  zero-length rakes included;
* a published frame is a function of its key: over any edit sequence —
  clock scrubs and reverse steps included, for all three tools, frames
  mixing memo hits and misses and frames speculated ahead of the step —
  it equals a fresh engine's ``compute_rakes`` on the same snapshot;
* the producer speculates only where its rule says it should, and the
  memo holds what it produced and speculated (what a replay clock keeps
  across timesteps is ``tests/test_entry_retention.py``'s);
* a failed encode does not strand parked calls, and a dead producer
  thread reads dead: parked calls fail promptly.
"""

import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    ComputeEngine,
    Environment,
    FramePipeline,
    FrameStore,
    PublishedFrame,
    ToolSettings,
    WindtunnelClient,
    WindtunnelServer,
)
from repro.core.framestore import ENCODINGS, encode_entries
from repro.dlib.protocol import (
    PreEncoded,
    decode_path_entry,
    decode_value,
    encode_value,
    quantization_error_bound,
)
from repro.flow import (
    MemoryDataset,
    RigidRotation,
    UniformFlow,
    sample_on_grid,
    tapered_cylinder_dataset,
)
from repro.grid import cartesian_grid
from repro.grid.interpolation import TrilinearScratch
from repro.tracers.rake import TOOL_KINDS, GrabPoint, Rake
from repro.tracers.result import wire_arrays_batch

from tests import wait_until


def make_dataset(n_times=8):
    grid = cartesian_grid((9, 9, 5), lo=(0, 0, 0), hi=(8, 8, 4))
    field = RigidRotation(omega=[0, 0, 0.5], center=[4, 4, 0]) + UniformFlow(
        [0.1, 0, 0]
    )
    vel = sample_on_grid(field, grid, np.arange(n_times) * 0.2, dtype=np.float64)
    return MemoryDataset(grid, vel, dt=0.2)


@pytest.fixture(scope="module")
def dataset():
    return make_dataset()


@pytest.fixture()
def server(dataset):
    clock = {"now": 0.0}
    srv = WindtunnelServer(
        dataset,
        settings=ToolSettings(streamline_steps=20, streakline_length=8),
        time_speed=1.0,
        time_fn=lambda: clock["now"],
    )
    srv._test_clock = clock
    srv.start()
    yield srv
    srv.stop()


class TestPreEncoded:
    def test_fragment_decodes_to_original_value(self):
        value = {"a": np.arange(6, dtype=np.float32).reshape(2, 3), "b": [1, "x"]}
        frag = PreEncoded.wrap(value)
        out = frag.decode()
        assert out["b"] == [1, "x"]
        np.testing.assert_array_equal(out["a"], value["a"])

    def test_fragment_splices_into_enclosing_value(self):
        inner = {"k": np.ones(4, dtype=np.float32)}
        spliced = {"paths": PreEncoded.wrap(inner), "n": 3}
        out = decode_value(encode_value(spliced))
        assert out["n"] == 3
        np.testing.assert_array_equal(out["paths"]["k"], inner["k"])


class TestFrameStore:
    def test_publish_stamps_monotonic_seq(self):
        store = FrameStore()
        heard = []
        store.subscribe(heard.append)
        frames = [
            store.publish(
                PublishedFrame(
                    version=1, timestep=t, seq=0, entries={}, compute_seconds=0.0,
                )
            )
            for t in range(3)
        ]
        assert [f.seq for f in frames] == [1, 2, 3]
        assert store.latest().timestep == 2
        assert heard == frames  # listeners see every stamped publication


class TestImmutablePublication:
    def test_published_arrays_are_read_only(self, server):
        with WindtunnelClient(*server.address) as c:
            c.add_rake([2, 2, 2], [2, 6, 2], n_seeds=4)
            c.fetch_frame()
            frame = server.store.latest()
            entry = next(iter(frame.paths.values()))
            assert not entry["vertices"].flags.writeable
            assert not entry["lengths"].flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                entry["vertices"][...] = 0.0

    def test_client_mutation_cannot_corrupt_other_clients(self, server):
        """Regression: the old RPC path shared one mutable paths dict
        across responses — scribbling on client A's arrays changed what
        client B received from the cache."""
        with WindtunnelClient(*server.address) as a, WindtunnelClient(
            *server.address
        ) as b:
            a.add_rake([2, 2, 2], [2, 6, 2], n_seeds=4)
            sa = a.fetch_frame()
            pa = next(iter(sa["paths"].values()))["vertices"]
            expected = pa.copy()
            pa[...] = -777.0  # client A goes rogue
            sb = b.fetch_frame()
            assert sb["cached"]  # same shared frame, no recompute
            pb = next(iter(sb["paths"].values()))["vertices"]
            np.testing.assert_array_equal(pb, expected)
            # The published master copy is untouched too.
            master = next(iter(server.store.latest().paths.values()))["vertices"]
            np.testing.assert_array_equal(master, expected)


class TestEncodeOnce:
    def test_encode_count_equals_frames_computed(self, server):
        clients = [WindtunnelClient(*server.address) for _ in range(4)]
        try:
            clients[0].add_rake([2, 2, 2], [2, 6, 2], n_seeds=4)
            produced_before = server.pipeline.frames_produced
            for c in clients:
                c.fetch_frame()
            stats = clients[0].pipeline_stats()
            assert server.pipeline.frames_produced == produced_before + 1
            assert stats["frames_encoded"] == stats["frames_produced"]
            assert stats["stages"]["encode"]["count"] == stats["frames_produced"]
            assert server.frames_served >= 4
        finally:
            for c in clients:
                c.close()

    def test_encode_happens_per_new_frame_not_per_request(self, server):
        with WindtunnelClient(*server.address) as c:
            c.add_rake([2, 2, 2], [2, 6, 2], n_seeds=4)
            c.fetch_frame()
            encoded_one = server.pipeline.frames_encoded
            for _ in range(5):
                c.fetch_frame()  # all cache hits: frozen clock, no mutation
            assert server.pipeline.frames_encoded == encoded_one
            server._test_clock["now"] = 1.0  # clock tick -> one new frame
            c.fetch_frame()
            assert server.pipeline.frames_encoded == encoded_one + 1

    def test_pipeline_stats_consistent_with_serving(self, server):
        with WindtunnelClient(*server.address) as c:
            c.add_rake([2, 2, 2], [2, 6, 2], n_seeds=4)
            c.fetch_frame()
            stats = c.pipeline_stats()
            assert stats["frames_published"] == stats["frames_encoded"]
            assert stats["publish_seq"] >= 1
            for stage in ("load", "locate", "integrate", "encode"):
                assert stage in stats["stages"]
            assert stats["steady_period_estimate"] == max(
                s["mean"] for s in stats["stages"].values()
            )


class TestInvalidationRepublish:
    def test_settings_change_republishes_promptly(self, server):
        """wt.set_tool_settings bumps the version; the very next frame a
        client sees must already reflect it (staleness bounded by one
        request/production cycle, not by polling luck)."""
        with WindtunnelClient(*server.address) as c:
            c.add_rake([2, 2, 2], [2, 6, 2], n_seeds=3)
            s0 = c.fetch_frame()
            long_paths = next(iter(s0["paths"].values()))["vertices"].shape[1]
            c.set_tool_settings(streamline_steps=5)
            version = server.env.version
            t0 = time.perf_counter()
            s1 = c.fetch_frame()
            elapsed = time.perf_counter() - t0
            assert s1["cached"] is False
            assert s1["env"]["version"] >= version
            short_paths = next(iter(s1["paths"].values()))["vertices"].shape[1]
            assert short_paths < long_paths
            assert elapsed < 5.0  # one blocking production, not a poll cycle

    def test_rake_mutation_invalidates_published_frame(self, server):
        with WindtunnelClient(*server.address) as c:
            rid = c.add_rake([2, 2, 2], [2, 6, 2], n_seeds=3)
            c.fetch_frame()
            invalidations_before = server.pipeline.invalidations
            c.remove_rake(rid)
            assert server.pipeline.invalidations > invalidations_before
            s = c.fetch_frame()
            assert s["cached"] is False
            assert s["paths"] == {}  # the removed rake is gone from the frame

    def test_env_bump_wakes_producer_without_spurious_compute(self, server):
        """Bumps alone must not burn compute: with nobody asking for a
        frame, an invalidation wakes the producer and nothing else.

        Instead of sleeping and hoping an eager producer had time to
        misbehave, wait until ``idle_cycles`` advances past its
        post-bump value — proof the producer completed full evaluations
        of the bumped state and declined to produce each time.
        """
        with WindtunnelClient(*server.address) as c:
            c.add_rake([2, 2, 2], [2, 6, 2], n_seeds=3)
            c.fetch_frame()
            produced = server.pipeline.frames_produced
            for _ in range(3):
                c.time_control("step", 1)  # version bumps, no frame demand
            idle0 = server.pipeline.idle_cycles
            wait_until(lambda: server.pipeline.idle_cycles >= idle0 + 2)
            assert server.pipeline.frames_produced == produced


def _hostile_corners():
    """Minimal and prime-sided grids, each seeded with one zero-length,
    one-seed rake of every tool kind at its bounding-box center."""
    for shape in [(2, 2, 2), (3, 5, 7), (7, 3, 2)]:
        corner = tapered_cylinder_dataset(shape=shape, n_timesteps=3, dt=0.25)
        nodes = corner.grid.xyz.reshape(-1, 3)
        center = 0.5 * (nodes.min(axis=0) + nodes.max(axis=0))
        rakes = [Rake(center, center, n_seeds=1, kind=kind) for kind in TOOL_KINDS]
        yield corner, rakes


def _wire_tolerance(wire: dict) -> float:
    """How far a decoded vertex may sit from the one published."""
    if "qpack" in wire:
        return quantization_error_bound(wire)
    return 0.0


class TestHeadlessProduction:
    def test_produce_inline_on_unstarted_pipeline(self, dataset):
        """The library call benchmarks drive: no threads, the identical
        stage code — encode-once and read-only arrays hold, and both
        encodings decode to finite vertices within their error bound of
        the published ones, down to the hostile corners."""
        plain = (dataset, [Rake([2, 2, 2], [2, 6, 2], n_seeds=4)])
        for data, rakes in [plain, *_hostile_corners()]:
            env = Environment(data.n_timesteps)
            for rake in rakes:
                env.add_rake(rake)
            store = FrameStore()
            pipeline = FramePipeline(
                ComputeEngine(
                    data,
                    ToolSettings(
                        streamline_steps=20, particle_path_steps=4, streakline_length=3
                    ),
                ),
                env,
                store,
                time_fn=lambda: 0.0,
            )
            assert not pipeline.alive  # never started: nothing will publish
            frame = pipeline.produce_inline()
            assert store.latest() is frame and frame.seq == 1
            assert pipeline.frames_encoded == pipeline.frames_produced == 1
            stats = pipeline.stats()
            assert stats["stages"]["encode"]["count"] == 1
            assert stats["frames_published"] == 1
            assert set(frame.paths) == {str(rid) for rid in env.rakes}
            for entry in frame.paths.values():
                assert not entry["vertices"].flags.writeable
                assert not entry["lengths"].flags.writeable
            for encoding in ENCODINGS:
                composed = frame.compose(sorted(frame.paths), encoding)
                wires = decode_value(composed.data)
                assert set(wires) == set(frame.paths)
                for rid, wire in wires.items():
                    got = decode_path_entry(wire)
                    entry = frame.paths[rid]
                    published = entry["vertices"]
                    assert got["vertices"].shape == published.shape
                    np.testing.assert_array_equal(got["lengths"], entry["lengths"])
                    assert np.isfinite(got["vertices"]).all()
                    np.testing.assert_allclose(
                        got["vertices"], published, rtol=0,
                        atol=_wire_tolerance(wire),
                    )


_inside = st.tuples(st.floats(2.0, 6.0), st.floats(2.0, 6.0), st.floats(1.0, 3.0))
_kinds = st.sampled_from(["streamline", "particle_path", "streakline"])
_edits = st.one_of(
    st.tuples(st.just("add"), _kinds, _inside),
    st.tuples(st.just("move"), st.integers(0, 7), _inside),
    st.tuples(st.just("remove"), st.integers(0, 7)),
    st.tuples(st.just("settings"), st.integers(2, 24), st.sampled_from([0.02, 0.1])),
    st.tuples(st.just("step"), st.integers(-3, 3)),
    st.tuples(st.just("scrub"), st.integers(0, 7)),
    st.tuples(st.just("reverse")),
)


def _assert_equals_fresh_engine(dataset, settings, frame, rakes):
    """``frame`` is what a fresh engine computes for ``rakes`` at its timestep."""
    fresh = ComputeEngine(dataset, replace(settings))
    reference = wire_arrays_batch(
        fresh.compute_rakes(rakes, frame.timestep), TrilinearScratch()
    )
    assert set(frame.paths) == {str(rid) for rid in reference}
    for rid, (vertices, lengths) in reference.items():
        entry = frame.paths[str(rid)]
        assert entry["kind"] == rakes[rid].kind
        np.testing.assert_array_equal(entry["vertices"], vertices)
        np.testing.assert_array_equal(entry["lengths"], lengths)


def _one_rake_of_each_kind(env):
    return [
        env.add_rake(Rake([2.0 + i, 2.0, 2.0], [2.0 + i, 5.0, 2.5], n_seeds=3, kind=kind))
        for i, kind in enumerate(TOOL_KINDS)
    ]


class TestFrameIsAFunctionOfItsKey:
    """Nothing but ``(env.version, timestep)`` — and the rakes, clock and
    settings that key names — decides what is published: the tier-1 seed
    of the differential oracle (ROADMAP 6(a)), for all three tools, over
    frames assembled from memo hits and misses and frames speculated
    before they were asked for."""

    _smoke = ("add", "streakline", (3.0, 3.0, 2.0))
    _three = [
        ("add", "streamline", (2.5, 2.5, 2.0)),
        ("add", "particle_path", (3.5, 3.0, 1.5)),
        _smoke,
    ]

    @settings(max_examples=30, deadline=None)
    @given(edits=st.lists(_edits, min_size=1, max_size=8))
    # The three clock paths to timestep 5: played, scrubbed, stepped back.
    @example(edits=[_smoke, *[("step", 1)] * 5])
    @example(edits=[_smoke, ("scrub", 5)])
    @example(edits=[_smoke, ("step", 3), ("step", 2), ("reverse",)])
    # One rake of several moves: its frame mixes memo hits and misses.
    @example(edits=[*_three, ("move", 0, (4.0, 4.5, 2.0)), ("step", 1)])
    @example(edits=[*_three, ("move", 2, (5.0, 3.0, 2.5)), ("move", 1, (2.5, 5.0, 2.0))])
    def test_every_frame_equals_a_fresh_engine_on_its_snapshot(self, dataset, edits):
        env = Environment(dataset.n_timesteps)
        engine = ComputeEngine(dataset, ToolSettings(streamline_steps=12))
        pipeline = FramePipeline(engine, env, FrameStore(), time_fn=lambda: 0.0)
        env.clock.pause(0.0)

        def step(delta):  # what ``wt.time`` applies
            env.clock.step(delta, 0.0)
            env.bump()

        def check_next_frame():
            frame = pipeline.produce_inline()
            version, rakes = env.rakes_snapshot()
            assert frame.key == (version, env.clock.timestep_index(0.0))
            _assert_equals_fresh_engine(dataset, engine.settings, frame, rakes)
            again = pipeline.produce_inline()  # the same key, produced twice
            assert again.key == frame.key and again.entries == frame.entries

        for op, *args in edits:
            rids = sorted(env.rakes)
            if op == "add":
                kind, at = args
                end_b = np.add(at, [0.0, 1.5, 0.5])
                env.add_rake(Rake(at, end_b, n_seeds=3, kind=kind))
            elif op == "move" and rids:
                with env.lock:
                    env.rakes[rids[args[0] % len(rids)]].move(
                        GrabPoint.CENTER, np.array(args[1])
                    )
                    env.bump()
            elif op == "remove" and rids:
                env.remove_rake(rids[args[0] % len(rids)])
            elif op == "settings":  # what ``wt.set_tool_settings`` applies
                engine.settings.streamline_steps = args[0]
                engine.settings.particle_path_steps = args[0]
                engine.settings.streakline_length = args[0]
                engine.settings.streamline_dt = args[1]
                env.bump()
            elif op == "step":
                step(args[0])
            elif op == "scrub":
                env.clock.scrub(args[0], 0.0)
                env.bump()
            elif op == "reverse":  # one step on and back, as in 0 -> 6 -> 5
                step(1)
                check_next_frame()
                step(-1)
            check_next_frame()

    def test_moving_one_rake_of_several_recomputes_only_it(self, dataset):
        env = Environment(dataset.n_timesteps)
        engine = ComputeEngine(dataset, ToolSettings(streamline_steps=12))
        pipeline = FramePipeline(engine, env, FrameStore(), time_fn=lambda: 0.0)
        rids = _one_rake_of_each_kind(env)
        first = pipeline.produce_inline()
        with env.lock:
            env.rakes[rids[1]].move(GrabPoint.CENTER, np.array([4.0, 4.5, 2.0]))
            env.bump()
        frame = pipeline.produce_inline()
        for rid, entry in frame.entries.items():
            assert (entry is first.entries[rid]) == (rid != str(rids[1]))
        _assert_equals_fresh_engine(
            dataset, engine.settings, frame, env.rakes_snapshot()[1]
        )

    def test_speculated_frames_equal_a_fresh_engine(self, dataset):
        """Clock steps on a started pipeline: from the third step on every
        frame is assembled from speculated entries, and each one is still
        what a fresh engine computes on its snapshot."""
        env = Environment(dataset.n_timesteps)
        engine = ComputeEngine(
            dataset,
            ToolSettings(streamline_steps=12, particle_path_steps=4, streakline_length=5),
        )
        store = FrameStore()
        pipeline = FramePipeline(engine, env, store, time_fn=lambda: 0.0).start()
        try:
            env.clock.pause(0.0)
            _one_rake_of_each_kind(env)
            for k in range(1, 8):
                env.clock.step(1, 0.0)
                env.bump()
                frame = _demand_frame(pipeline, store, env)
                assert pipeline.frames_anticipated == max(0, k - 2)
                _assert_equals_fresh_engine(
                    dataset, engine.settings, frame, env.rakes_snapshot()[1]
                )
        finally:
            pipeline.stop()


def _settle(pipeline):
    """Wait until the producer has looked at its key and found nothing to
    do: any speculation it planned has run."""
    idle = pipeline.idle_cycles
    wait_until(lambda: pipeline.idle_cycles > idle)


def _demand_frame(pipeline, store, env):
    """What a parked ``wt.frame`` does: hold demand until the current key
    is published; then let the producer settle."""
    key = (env.version, env.clock.timestep_index(0.0))
    pipeline.add_demand()
    try:
        wait_until(lambda: (latest := store.latest()) is not None and latest.key == key)
    finally:
        pipeline.remove_demand()
    _settle(pipeline)
    return store.latest()


def _speculative(pipeline):
    with pipeline._state_lock:
        return [slot for slot in pipeline._memo.values() if slot.speculative]


class TestSpeculation:
    """When the producer fills the entry memo before a request: only
    after lock-step productions, never for a session that re-reads or
    moves rakes, never past a live frontier (tests/test_insitu_server.py),
    and never at the cost of publishing a stale frame."""

    def test_moving_a_rake_each_frame_never_speculates(self, server):
        with WindtunnelClient(*server.address) as c:
            c.time_control("pause")
            rid = c.add_rake([2, 2, 2], [2, 6, 2], n_seeds=4)
            c.add_rake([4, 2, 2], [4, 6, 2], n_seeds=4)
            for k in range(5):
                with server.env.lock:
                    server.env.rakes[rid].move(
                        GrabPoint.CENTER, np.array([2.0 + 0.3 * k, 4.0, 2.0])
                    )
                    server.env.bump()
                c.fetch_frame()
                _settle(server.pipeline)
                assert not _speculative(server.pipeline)
                assert len(server.pipeline._memo) == 2
        assert server.pipeline.frames_anticipated == 0

    def test_lock_step_steps_speculate_from_the_third_on(self, server):
        pipeline = server.pipeline
        with WindtunnelClient(*server.address) as c:
            c.time_control("pause")
            for i in range(3):
                c.add_rake([2 + i, 2, 2], [2 + i, 6, 2], n_seeds=4)
            for k in range(1, 8):
                c.time_control("step", 1)
                assert c.fetch_frame()["timestep"] == k
                _settle(pipeline)
                assert pipeline.frames_anticipated == max(0, k - 2)
                # A replay clock keeps every timestep produced (1..k), plus
                # one speculative timestep from the second step on.
                assert len(pipeline._memo) == 3 * (k if k == 1 else k + 1)

    def test_rake_edit_during_speculation_publishes_the_edited_frame(
        self, server, dataset, monkeypatch
    ):
        speculating, release = threading.Event(), threading.Event()
        compute = server.engine.compute_rakes

        def gated(rakes, timestep, **kwargs):
            if timestep == 3:  # what the producer speculates after step 2
                speculating.set()
                assert release.wait(10.0)
            return compute(rakes, timestep, **kwargs)

        monkeypatch.setattr(server.engine, "compute_rakes", gated)
        with WindtunnelClient(*server.address) as c:
            c.time_control("pause")
            rids = [c.add_rake([2 + i, 2, 2], [2 + i, 6, 2], n_seeds=4) for i in (0, 2)]
            for _ in range(2):
                c.time_control("step", 1)
                c.fetch_frame()
            assert speculating.wait(10.0)
            with server.env.lock:  # the drag lands mid-speculation
                server.env.rakes[rids[0]].move(
                    GrabPoint.CENTER, np.array([3.0, 4.5, 2.0])
                )
                server.env.bump()
            c.time_control("step", 1)
            release.set()
            state = c.fetch_frame()
            frame = server.store.latest()
            version, rakes = server.env.rakes_snapshot()
        assert frame.key == (version, 3) and state["timestep"] == 3
        _assert_equals_fresh_engine(dataset, server.engine.settings, frame, rakes)
        np.testing.assert_array_equal(
            state["paths"][str(rids[0])]["vertices"],
            frame.paths[str(rids[0])]["vertices"],
        )
        # The unmoved rake came from the speculation, the moved one did not.
        _settle(server.pipeline)
        (speculated,) = _speculative(server.pipeline)
        assert speculated.entry is frame.entries[str(rids[1])]
        assert server.pipeline.frames_anticipated == 0

    def test_a_playing_clock_never_speculates(self, server):
        """Frames that follow a playing clock differ only in timestep and
        are never re-read, yet the producer does not race the clock."""
        with WindtunnelClient(*server.address) as c:
            for i in range(2):
                c.add_rake([2 + i, 2, 2], [2 + i, 6, 2], n_seeds=4)
            for k in range(1, 6):
                server._test_clock["now"] = float(k)  # one timestep a second
                assert c.fetch_frame()["timestep"] == k
                _settle(server.pipeline)
                assert not _speculative(server.pipeline)
        assert server.pipeline.frames_anticipated == 0

    def test_a_session_that_rereads_frames_never_speculates(self, server):
        with WindtunnelClient(*server.address) as c:
            c.time_control("pause")
            for i in range(2):
                c.add_rake([2 + i, 2, 2], [2 + i, 6, 2], n_seeds=4)
            for _ in range(5):
                c.time_control("step", 1)
                assert not c.fetch_frame()["cached"]
                assert c.fetch_frame()["cached"]
                _settle(server.pipeline)
                assert not _speculative(server.pipeline)
        assert server.pipeline.frames_anticipated == 0


class TestMemoUnderContention:
    def test_every_frame_matches_its_snapshot_under_racing_edits(self, dataset):
        """Two editing threads race the producer and the encoder (four
        threads, a 10 µs switch interval): every published frame is still
        a fresh engine's frame on the snapshot its version names, and the
        memo settles bounded, with no entry left empty."""
        env = Environment(dataset.n_timesteps)
        engine = ComputeEngine(
            dataset,
            ToolSettings(streamline_steps=12, particle_path_steps=4, streakline_length=5),
        )
        store = FrameStore()
        published = []
        store.subscribe(published.append)
        pipeline = FramePipeline(engine, env, store, time_fn=lambda: 0.0)
        env.clock.pause(0.0)
        rids = _one_rake_of_each_kind(env)
        snapshots = {env.version: env.rakes_snapshot()[1]}

        def edit(seed):
            rng = np.random.default_rng(seed)
            for _ in range(40):
                with env.lock:
                    if rng.random() < 0.5:
                        env.clock.step(1, 0.0)
                    else:
                        env.rakes[rids[rng.integers(3)]].move(
                            GrabPoint.CENTER, rng.uniform([2, 2, 1.5], [6, 6, 2.5])
                        )
                    env.bump()
                    snapshots[env.version] = env.rakes_snapshot()[1]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        pipeline.start()
        try:
            pipeline.add_demand()
            editors = [threading.Thread(target=edit, args=(s,)) for s in (1, 2)]
            for t in editors:
                t.start()
            for t in editors:
                t.join(timeout=30.0)
                assert not t.is_alive()
            key = (env.version, env.clock.timestep_index(0.0))
            wait_until(
                lambda: (latest := store.latest()) is not None and latest.key == key,
                timeout=30.0,
            )
            pipeline.remove_demand()
            _settle(pipeline)
        finally:
            pipeline.stop()
            sys.setswitchinterval(interval)
        assert pipeline.produce_errors == 0
        with pipeline._state_lock:
            memo = list(pipeline._memo.values())
        assert len(memo) <= 2 * len(rids)
        assert all(slot.entry is not None for slot in memo)
        for frame in published:
            _assert_equals_fresh_engine(
                dataset, engine.settings, frame, snapshots[frame.version]
            )


class TestEncodeFailure:
    def test_encode_failure_does_not_strand_the_parked_call(
        self, dataset, monkeypatch
    ):
        """The encode stage raising once publishes nothing: the key is
        forgotten, so the parked call is answered by the next production
        instead of waiting out ``frame_wait``, and the memo keeps no
        entry the failed encode left empty."""
        from repro.core import pipeline as pipeline_module

        encode, failures = pipeline_module.encode_entries, []

        def flaky(*args, **kwargs):
            if not failures:
                failures.append("injected")
                raise RuntimeError("injected encode fault")
            return encode(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "encode_entries", flaky)
        with WindtunnelServer(
            dataset,
            settings=ToolSettings(streamline_steps=10),
            time_fn=lambda: 0.0,
            frame_wait=10.0,
        ) as srv:
            with WindtunnelClient(*srv.address) as c:
                rid = c.add_rake([2, 2, 2], [2, 6, 2], n_seeds=3)
                state = c.fetch_frame()
            assert str(rid) in state["paths"]
            assert failures == ["injected"]
            assert srv.pipeline.produce_errors == 1
            assert all(slot.entry is not None for slot in srv.pipeline._memo.values())


class TestProducerDeath:
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_dead_producer_fails_parked_calls_promptly(self, dataset):
        """A producer thread killed outside its loop's ``try`` (here: the
        clock raising in ``_should_produce``) must read dead, so a parked
        ``wt.frame`` fails with the shutdown error long before
        ``frame_wait`` and ``wt.health`` says so."""
        from repro.dlib.client import DlibRemoteError

        fault = {"armed": False}

        def time_fn():
            if fault["armed"]:
                raise RuntimeError("injected clock fault")
            return 0.0

        with WindtunnelServer(
            dataset,
            settings=ToolSettings(streamline_steps=10),
            time_fn=time_fn,
            frame_wait=30.0,
            reap_interval=3600.0,  # the reaper reads the clock too
        ) as srv:
            with WindtunnelClient(*srv.address) as c:
                c.add_rake([2, 2, 2], [2, 6, 2], n_seeds=3)
                assert c.fetch_frame()["cached"] is False
                assert srv.pipeline.alive
                fault["armed"] = True
                srv.pipeline.nudge()
                wait_until(lambda: not srv.pipeline.alive)
                fault["armed"] = False  # the RPC path reads the clock too
                srv.env.bump()  # no published frame matches: the call parks
                t0 = time.monotonic()
                with pytest.raises(DlibRemoteError, match="shutting down"):
                    c.fetch_frame()
                assert time.monotonic() - t0 < 5.0  # not the 30 s frame_wait
                assert c._call("wt.health")["pipeline_alive"] is False


class TestEncodePaths:
    def test_encode_paths_round_trip(self, dataset):
        from repro.core import ComputeEngine
        from repro.tracers.rake import Rake

        engine = ComputeEngine(dataset, ToolSettings(streamline_steps=10))
        rake = Rake([2, 2, 2], [2, 6, 2], n_seeds=3)
        rake.rake_id = 7
        results = engine.compute_rakes({7: rake}, 0)
        entries = encode_entries({7: "streamline"}, results)
        enc = PublishedFrame(
            version=1, timestep=0, seq=0, compute_seconds=0.0,
            entries={str(rid): entry for rid, entry in entries.items()},
        )
        assert enc.n_points > 0
        assert not enc.paths["7"]["vertices"].flags.writeable
        decoded = enc.compose(["7"]).decode()
        np.testing.assert_array_equal(
            decoded["7"]["vertices"], enc.paths["7"]["vertices"]
        )
        assert decoded["7"]["kind"] == "streamline"
