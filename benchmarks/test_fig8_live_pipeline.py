"""Figure 8, live: serial vs pipelined frame period on the real server.

The paper's figure 8 claims the remote system's stages — timestep
loading, visualization computation, and sending — run as concurrent
processes, so the steady-state frame period is the *slowest stage*, not
the sum of all of them.  ``benchmarks/test_fig8_server_pipeline.py``
checks that claim against the analytic schedule model; this benchmark
checks it against the actual :class:`~repro.core.server.WindtunnelServer`
over real sockets.

The workload is the acceptance scenario: a synthetic three-stage frame
with load ≈ integrate ≈ encode.  The load cost is a modeled disk read
(charged in the :class:`~repro.diskio.loader.TimestepLoader`, so prefetch
can hide it exactly as figure 8 prescribes); integrate and encode costs
are modeled stage work in the pipeline.  The server has one way to
produce frames (the producer pipeline), so the serial baseline is not a
server mode: it is the same :class:`~repro.core.pipeline.FramePipeline`
stage code over the same loader and ``stage_cost``, never started and
driven headless through ``produce_inline()`` on an injected clock — one
stage after the other on one thread, the sum figure 8 is drawn against.
Both measured periods are compared against
:func:`repro.perf.pipeline.simulate_pipeline`.

Set ``WT_BENCH_FAST=1`` for the CI smoke variant (shorter stages and
measurement windows).
"""

import os
import time

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
from repro.diskio.loader import TimestepLoader
from repro.diskio.model import DiskModel
from repro.perf import compare_to_model, simulate_pipeline
from repro.tracers.rake import Rake

FAST = bool(os.environ.get("WT_BENCH_FAST"))
#: Fast mode shrinks the measurement windows, not the stage cost much:
#: the fixed per-cycle overhead (real tracer work, RPC turnaround) must
#: stay small relative to the modeled stages for the tolerances to hold.
STAGE_SECONDS = 0.045 if FAST else 0.05
WARMUP_SECONDS = 0.6 if FAST else 1.2
MEASURE_SECONDS = 1.8 if FAST else 3.6

#: The synthetic balanced workload: figure 8's three concurrent stages.
STAGES = {
    "load": STAGE_SECONDS,
    "integrate": STAGE_SECONDS,
    "encode": STAGE_SECONDS,
}

#: Keep the real tracer work tiny so the modeled stage costs dominate
#: and the measured period is attributable to them.
SETTINGS = ToolSettings(streamline_steps=16)
#: The load stage's cost is the loader's modeled disk read, not this.
STAGE_COST = {name: STAGES[name] for name in ("integrate", "encode")}
TIME_SPEED = 1.0 / STAGE_SECONDS  # the clock ticks once per stage
RAKE = ([1.2, -1.0, 0.5], [1.2, 1.0, 1.5])
N_SEEDS = 6


def _stage_loader(dataset, *, prefetch: bool) -> TimestepLoader:
    disk = DiskModel(
        name="synthetic-stage",
        min_bandwidth=1e12,  # the read cost is all latency: exactly one
        max_bandwidth=2e12,  # stage period per uncached timestep
        latency=STAGE_SECONDS,
    )
    return TimestepLoader(dataset, disk, prefetch=prefetch)


def _measure_serial_period(dataset) -> tuple[float, dict]:
    """Headless sum-of-stages baseline; return (frame period, stats)."""
    loader = _stage_loader(dataset, prefetch=False)
    env = Environment(dataset.n_timesteps, time_speed=TIME_SPEED)
    env.add_rake(Rake(*RAKE, n_seeds=N_SEEDS))
    clock = {"now": 0.0}
    pipeline = FramePipeline(
        ComputeEngine(dataset, SETTINGS, loader=loader),
        env,
        FrameStore(),
        time_fn=lambda: clock["now"],
        stage_cost=STAGE_COST,
    )

    def produce_until(deadline: float) -> int:
        frames = 0
        while time.monotonic() < deadline:
            pipeline.produce_inline()
            clock["now"] += STAGE_SECONDS  # one timestep per frame
            frames += 1
        return frames

    try:
        produce_until(time.monotonic() + WARMUP_SECONDS)
        t0 = time.monotonic()
        frames = produce_until(t0 + MEASURE_SECONDS)
        elapsed = time.monotonic() - t0
        assert frames >= 5, "measurement window produced too few frames"
        return elapsed / frames, pipeline.stats()
    finally:
        loader.close()


def _measure_publish_period(dataset) -> tuple[float, dict]:
    """Run the live server; return (steady publish period, pipeline stats)."""
    server = WindtunnelServer(
        dataset,
        settings=SETTINGS,
        time_speed=TIME_SPEED,
        loader=_stage_loader(dataset, prefetch=True),
        stage_cost=STAGE_COST,
    )
    server.start()
    try:
        with WindtunnelClient(*server.address) as client:
            client.add_rake(*RAKE, n_seeds=N_SEEDS)

            def poll_until(deadline: float) -> None:
                while time.monotonic() < deadline:
                    client.fetch_frame()
                    time.sleep(0.002)

            poll_until(time.monotonic() + WARMUP_SECONDS)
            stats0 = client.pipeline_stats()
            t0 = time.monotonic()
            poll_until(t0 + MEASURE_SECONDS)
            stats1 = client.pipeline_stats()
            elapsed = time.monotonic() - t0
            published = stats1["frames_published"] - stats0["frames_published"]
            assert published >= 5, "measurement window produced too few frames"
            return elapsed / published, stats1
    finally:
        server.stop()


@pytest.mark.benchmark(group="fig8-live")
def test_fig8_live_pipeline_vs_serial(cylinder_dataset, record):
    serial_period, serial_stats = _measure_serial_period(cylinder_dataset)
    pipelined_period, pipe_stats = _measure_publish_period(cylinder_dataset)

    model = simulate_pipeline(STAGES, n_frames=100)
    # Feed the *measured* per-stage times (modeled cost + real tracer and
    # serialization work) back into the schedule model: the realized
    # steady period must match what figure 8 predicts for them.
    measured_stages = {
        name: s["mean"] for name, s in pipe_stats["stages"].items() if s["count"]
    }
    pipe_check = compare_to_model(measured_stages, pipelined_period, tolerance=0.25)
    serial_error = (
        abs(serial_period - model.serial_period) / model.serial_period
    )
    speedup = serial_period / pipelined_period

    record(
        "fig8_live_pipeline",
        [
            f"synthetic stages (s): {STAGES}"
            + (" [fast mode]" if FAST else ""),
            f"model: serial period {model.serial_period * 1e3:.1f} ms, "
            f"steady period {model.steady_period * 1e3:.1f} ms",
            f"measured serial   : {serial_period * 1e3:.1f} ms/frame "
            f"(error vs model {serial_error * 100:.0f}%)",
            f"measured pipelined: {pipelined_period * 1e3:.1f} ms/frame "
            f"(error vs model {pipe_check['relative_error'] * 100:.0f}%)",
            f"live speedup: {speedup:.2f}x "
            f"(model predicts {model.serial_period / model.steady_period:.2f}x)",
            f"producer stage means (ms): "
            + ", ".join(
                f"{name}={s['mean'] * 1e3:.1f}"
                for name, s in pipe_stats["stages"].items()
            ),
        ],
    )

    # Acceptance: the pipelined publish period approaches max(t_i) ...
    assert pipe_check["within_tolerance"], (
        f"pipelined period {pipelined_period * 1e3:.1f} ms not within 25% of "
        f"the steady period predicted from the measured stages "
        f"({pipe_check['predicted_period'] * 1e3:.1f} ms)"
    )
    # ... and beats the serial sum(t_i) by the required factor.
    assert pipelined_period * 1.8 <= model.serial_period, (
        f"pipelined period {pipelined_period * 1e3:.1f} ms is not 1.8x better "
        f"than the serial sum {model.serial_period * 1e3:.1f} ms"
    )
    assert speedup >= 1.8
    # The serial baseline really is the sum of the stages.
    assert serial_error < 0.25
    # wt.pipeline_stats' own estimates agree with the measurement.
    est = pipe_stats["steady_period_estimate"]
    assert abs(est - pipelined_period) / pipelined_period < 0.35, (
        f"steady_period_estimate {est * 1e3:.1f} ms inconsistent with "
        f"measured {pipelined_period * 1e3:.1f} ms"
    )
    # Prefetch actually hid the load on the live server: the producer's
    # load stage cost a small fraction of the modeled read.
    assert pipe_stats["stages"]["load"]["mean"] < 0.5 * STAGE_SECONDS
    assert serial_stats["stages"]["load"]["mean"] > 0.8 * STAGE_SECONDS
