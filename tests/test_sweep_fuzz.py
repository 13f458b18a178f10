"""Execution fuzz: valid scenarios at hostile corners, run headlessly.

Minimum 2x2x2 grids, prime dimensions, coincident seeds (zero-length
rakes), one- and two-seed rakes of every tool kind, each wire encoding
(``v1`` and ``q16``), with and without a lossy transport — every such
run must drive the un-started frame pipeline (``produce_inline``) over
several timesteps to metrics that agree with each other.

Runs derandomized (fixed seed) so CI failures reproduce locally; CI
executes this file with the rest of tier-1.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ComputeEngine, Environment, FramePipeline, FrameStore, ToolSettings
from repro.dlib.protocol import decode_path_entry, decode_value
from repro.flow import tapered_cylinder_dataset
from repro.netsim.channel import VirtualClock
from repro.netsim.faults import FaultPlan, FaultyChannel
from repro.obs import MetricsRegistry
from repro.tracers.rake import Rake


class _LoopbackStream:
    """A send-only in-memory Stream target for :class:`FaultyChannel`."""

    def __init__(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self.closed = False

    def send(self, payload: bytes) -> None:
        self.bytes_sent += len(payload)

    def close(self) -> None:
        self.closed = True


#: Valid-by-construction scenarios at hostile corners, kept tiny so the
#: whole execution fuzz runs in seconds.
exec_scenario = st.fixed_dictionaries(
    {
        "shape": st.sampled_from([(2, 2, 2), (3, 5, 7), (7, 3, 2), (6, 6, 4)]),
        "timesteps": st.integers(min_value=1, max_value=3),
        "frames": st.integers(min_value=1, max_value=2),
        "encoding": st.sampled_from(["v1", "q16"]),
        "seeds": st.sampled_from([1, 2]),
        "zero_length": st.booleans(),
        "kind": st.sampled_from(["streamline", "streakline", "particle_path"]),
        "faulty": st.booleans(),
    }
)


@settings(
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=exec_scenario)
def test_degenerate_scenarios_run_to_consistent_metrics(params):
    dataset = tapered_cylinder_dataset(
        shape=params["shape"], n_timesteps=params["timesteps"], dt=0.25
    )
    nodes = dataset.grid.xyz.reshape(-1, 3)
    lo, span = nodes.min(axis=0), np.ptp(nodes, axis=0)
    a = lo + span * 0.5
    b = a if params["zero_length"] else lo + span * np.array([0.9, 0.1, 0.8])
    env = Environment(params["timesteps"])
    rid = env.add_rake(Rake(a, b, n_seeds=params["seeds"], kind=params["kind"]))

    registry = MetricsRegistry()
    store = FrameStore(registry=registry)
    clock = {"now": 0.0}
    pipeline = FramePipeline(
        ComputeEngine(
            dataset,
            ToolSettings(streamline_steps=4, particle_path_steps=4, streakline_length=3),
            registry=registry,
        ),
        env,
        store,
        time_fn=lambda: clock["now"],
        registry=registry,
    )
    loopback = _LoopbackStream()
    channel = None
    if params["faulty"]:
        # A VirtualClock accumulates modeled stalls instead of sleeping.
        plan = FaultPlan(seed=1, drop_rate=0.3, corrupt_rate=0.2, stall_rate=0.2)
        channel = FaultyChannel(loopback, plan, clock=VirtualClock(), registry=registry)

    encoding = params["encoding"]
    points_total = 0
    wire_bytes_total = 0
    for _ in range(params["frames"]):
        frame = pipeline.produce_inline()
        assert set(frame.paths) == {str(rid)}
        assert frame.n_points == sum(
            int(entry["lengths"].sum()) for entry in frame.paths.values()
        )
        composed = frame.compose(sorted(frame.paths), encoding)
        assert composed.nbytes > 0  # even an empty frame has wire framing
        for key, wire in decode_value(composed.data).items():
            got = decode_path_entry(wire)
            entry = frame.paths[key]
            assert got["vertices"].shape == entry["vertices"].shape
            np.testing.assert_array_equal(got["lengths"], entry["lengths"])
            assert np.isfinite(got["vertices"]).all()
        points_total += frame.n_points
        wire_bytes_total += composed.nbytes
        if channel is not None:
            channel.send(composed.data)
        else:
            loopback.send(composed.data)
        # One clock step per frame: the run walks the dataset's timesteps.
        clock["now"] += 1.0 / env.clock.speed

    frames = params["frames"]
    assert points_total >= 0
    assert pipeline.frames_produced == pipeline.frames_encoded == frames
    assert store.seq == frames
    assert pipeline.stats()["stages"]["encode"]["count"] == frames
    assert wire_bytes_total >= loopback.bytes_sent  # faults only lose bytes
    counters = registry.snapshot()["counters"]
    injected = sum(
        counters.get(f"faults.{name}", 0)
        for name in ("drops", "duplicates", "corruptions", "stalls", "disconnects")
    )
    if params["faulty"]:
        assert counters["faults.sends"] == frames
        assert injected == sum(
            getattr(channel.stats, name)
            for name in ("drops", "corruptions", "stalls")
        )
    else:
        assert injected == 0
        assert loopback.bytes_sent == wire_bytes_total
