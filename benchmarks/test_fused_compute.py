"""The fused-frame benchmark: megabatch vs per-rake compute.

The acceptance scenario for the fused frame path: an 8-streamline-rake
environment (16 seeds each, 200 integration steps — 128 streamlines, the
Convex's vector length, spread across rakes the way a real shared session
spreads them).  The per-rake baseline — a loop of ``compute_rake`` calls
on a second engine — pays 8 kernel launches per frame; ``compute_rakes``
gathers every rake's seeds into one batch, integrates once, and slices
the results back by offset.

Asserted here: the fused path is **>= 2x faster** at **bit-identical**
output on the ``vector`` backend.

Recorded beside it, not gated: the launch-vs-particle curve of the
workspace kernel — ms per 200-step frame and calls per RK2 step at 8, 128
and 512 seeds.  The call count does not move with the seed count and the
time barely does: the kernel is launch-bound, which is why fusing pays
and why the call budget (``tests/test_fused_compute.py::TestLaunchBudget``)
is the regression guard a wall clock on a 2-CPU host cannot be.

Set ``WT_BENCH_FAST=1`` for the CI smoke variant (fewer rounds, shorter
paths, and a relaxed 1.3x floor — CI machines are noisy; the tracked
compute number is ``pipeline.integrate_ms`` in ``benchmarks/e2e``).
"""

import os
import time

import numpy as np

from repro.core import ComputeEngine, ToolSettings
from repro.tracers import IntegratorWorkspace, Rake, integrate_steady
from tests.launches import calls_per_step

FAST = bool(os.environ.get("WT_BENCH_FAST"))
N_RAKES = 8
SEEDS_PER_RAKE = 16
STEPS = 60 if FAST else 200
ROUNDS = 3 if FAST else 10
MIN_SPEEDUP = 1.3 if FAST else 2.0


def make_rakes(dataset, n_rakes=N_RAKES, n_seeds=SEEDS_PER_RAKE):
    """``n_rakes`` parallel rakes fanned across the dataset interior."""
    nodes = dataset.grid.xyz.reshape(-1, 3)
    lo, hi = nodes.min(axis=0), nodes.max(axis=0)
    span = hi - lo
    rakes = {}
    for i in range(n_rakes):
        frac = 0.15 + 0.7 * i / max(1, n_rakes - 1)
        a = lo + span * np.array([0.2, frac, 0.3])
        b = lo + span * np.array([0.8, frac, 0.7])
        rakes[i + 1] = Rake(a, b, n_seeds=n_seeds, kind="streamline", rake_id=i + 1)
    return rakes


def fused_frame(engine, rakes):
    return engine.compute_rakes(dict(rakes), 0)


def per_rake_frame(engine, rakes):
    return {rid: engine.compute_rake(rake, 0) for rid, rake in rakes.items()}


def measure(frame, engine, rakes, rounds=ROUNDS):
    """Best-of-N frame time (the steady-state number, not the warmup)."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        frame(engine, rakes)
        times.append(time.perf_counter() - start)
    return min(times)


def launch_curve(dataset, seed_counts=(8, 128, 512), rounds=ROUNDS):
    """One line per seed count: best 200-step frame time, calls per step."""
    gv = dataset.grid_velocity(0)
    hi = np.array(gv.shape[:3]) - 1.0
    lines = []
    for n_seeds in seed_counts:
        seeds = np.random.default_rng(n_seeds).uniform(0.3 * hi, 0.7 * hi, (n_seeds, 3))
        ws = IntegratorWorkspace()

        def run(n_steps):
            integrate_steady(gv, seeds, n_steps, 0.05, workspace=ws)

        calls = calls_per_step(run)
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            run(200)
            times.append(time.perf_counter() - start)
        lines.append(
            f"kernel {n_seeds:4d} seeds  {min(times) * 1e3:6.2f} ms/200 steps"
            f"  {calls:5.1f} calls/step"
        )
    return lines


def test_fused_vs_per_rake_speedup(cylinder_dataset, record, benchmark):
    ds = cylinder_dataset
    ds.grid_velocity(0)  # pre-convert, as every backend bench does
    settings = ToolSettings(streamline_steps=STEPS, streamline_dt=0.05)
    rakes = make_rakes(ds)
    fused = ComputeEngine(ds, settings)
    per_rake = ComputeEngine(ds, settings)

    # Identical output first — a speedup at different answers is a bug.
    out_fused = fused_frame(fused, rakes)
    out_base = per_rake_frame(per_rake, rakes)
    for rid in out_base:
        assert np.array_equal(
            out_fused[rid].grid_paths, out_base[rid].grid_paths
        ), rid
        assert np.array_equal(out_fused[rid].lengths, out_base[rid].lengths), rid

    t_base = measure(per_rake_frame, per_rake, rakes)
    t_fused = benchmark(lambda: measure(fused_frame, fused, rakes, rounds=1))
    t_fused = measure(fused_frame, fused, rakes)
    speedup = t_base / t_fused
    points = sum(r.n_points for r in out_fused.values())

    record(
        "fused_compute",
        [
            f"rakes={N_RAKES} seeds/rake={SEEDS_PER_RAKE} steps={STEPS}",
            f"per-rake frame  {t_base * 1e3:8.2f} ms",
            f"fused frame     {t_fused * 1e3:8.2f} ms",
            f"speedup         {speedup:8.2f}x  (floor {MIN_SPEEDUP}x)",
            f"points/second   {points / t_fused:,.0f}",
            *launch_curve(ds),
        ],
    )
    assert speedup >= MIN_SPEEDUP, (t_base, t_fused)
