"""Figure 8 — the remote system's overlapped architecture.

"Computation of the visualizations can occur while the data from the
previous computation is sent to the network ... If the timesteps are
being loaded from disk, that loading can also occur in parallel."  We
reproduce the claim two ways: (a) the exact pipeline schedule with
measured stage times (serial period = sum of stages; overlapped period =
slowest stage), and (b) a live run of the double-buffered
:class:`TimestepLoader` showing disk loads actually hidden behind
compute.
"""

import numpy as np
import pytest

from table3_scenario import run_benchmark

from repro.core import ComputeEngine, Environment, ToolSettings
from repro.diskio import CONVEX_DISK, TimestepLoader
from repro.netsim import ULTRANET_VME
from repro.perf import BENCHMARK_POINTS, simulate_pipeline
from repro.tracers import Rake


def test_fig8_pipeline_schedule(cylinder_dataset, record, benchmark):
    """Serial vs overlapped frame period from measured + modeled stages."""
    compute_s = run_benchmark(cylinder_dataset, "vector", repeats=3)
    load_s = CONVEX_DISK.read_time(cylinder_dataset.timestep_nbytes)
    send_s = ULTRANET_VME.transfer_time(BENCHMARK_POINTS * 12)
    stages = {"disk load": load_s, "compute": compute_s, "network send": send_s}

    sched = benchmark(simulate_pipeline, stages, 100)
    lines = [
        f"stages (s): load={load_s:.4f} compute={compute_s:.4f} send={send_s:.4f}",
        f"serial frame period:     {sched.serial_period * 1e3:8.2f} ms",
        f"overlapped frame period: {sched.steady_period * 1e3:8.2f} ms",
        f"pipeline speedup over {sched.n_frames} frames: {sched.speedup:.2f}x",
    ]
    record("fig8_pipeline", lines)
    # Figure 8's architectural claim: the overlapped period collapses to
    # the slowest stage.
    assert sched.steady_period == pytest.approx(max(stages.values()))
    gaps = np.diff(sched.completion_times[10:])
    np.testing.assert_allclose(gaps, sched.steady_period, atol=1e-12)
    assert sched.speedup > 1.1


def test_fig8_live_prefetch_overlap(cylinder_dataset, tmp_path_factory, record, benchmark):
    """A real playback sweep: prefetch turns loads into buffer hits."""
    from repro.flow import DiskDataset

    path = cylinder_dataset.save(tmp_path_factory.mktemp("fig8") / "ds")

    def sweep(prefetch: bool):
        ds = DiskDataset(path)
        engine_ds = ds
        with TimestepLoader(engine_ds, prefetch=prefetch) as loader:
            engine = ComputeEngine(
                engine_ds, ToolSettings(streamline_steps=60), loader=loader
            )
            env = Environment(ds.n_timesteps)
            env.add_rake(Rake([1.2, -1.5, 1.0], [1.2, 1.5, 3.0], n_seeds=10))
            import time as _t

            for t in range(ds.n_timesteps):
                engine.compute_rakes(env.rakes, t)
                loader.prefetch(t + 1)  # figure 8: stage the next one
                _t.sleep(0.002)  # brief think time lets prefetch land
            loader.drain()
            return loader.hits.value, loader.misses.value

    hits, misses = benchmark.pedantic(
        lambda: sweep(True), rounds=2, iterations=1, warmup_rounds=0
    )
    record(
        "fig8_live_prefetch",
        [
            f"playback sweep over {cylinder_dataset.n_timesteps} timesteps:",
            f"  buffer hits (load hidden): {hits}",
            f"  synchronous misses:        {misses}",
        ],
    )
    # After the first (cold) timestep, prefetch should supply nearly all
    # subsequent loads.
    assert hits >= misses
