"""Table 3 / section 5.3 — the computational performance benchmark.

Paper scenario: 100 streamlines x 200 points (20,000 points, 240 kB on
the wire) on the 131,072-point tapered-cylinder grid.  Paper results:
Convex scalar C parallelized over 4 CPUs 0.24 s; Convex vectorized across
streamlines 0.19 s; 8-processor SGI 0.13-0.14 s.  Table 3 extrapolates
max particles at 10 fps assuming linear scaling.

The five kernels (``benchmarks/table3_scenario.py``) map onto the
paper's trade space (see DESIGN.md): ``scalar`` is the interpreted
analogue of optimized scalar C, ``parallel`` its 4-way process-parallel
version, ``vector`` the vectorization across streamlines (NumPy standing
in for the Convex vector units, and the library's one kernel),
``vector-strip`` the same strip-mined to the Convex's 128-lane
registers, and ``vector-group`` the paper's proposed parallel-across-
groups x vectorize-within-group optimization (its 'under study'
ablation).  The library keeps only ``vector``; the other four, and the
tests that they compute the same trajectories, live with this bench.

Expected shape: vectorizing across streamlines wins over scalar —
dramatically here, modestly on the Convex — and the extrapolated Table 3
columns follow mechanically from any measured time.
"""

import os

import numpy as np
import pytest

from table3_scenario import (
    KERNELS,
    integrate_scalar,
    integrate_strips,
    open_kernel,
    run_benchmark,
)

from repro.flow import MemoryDataset, RigidRotation, UniformFlow, sample_on_grid
from repro.grid import cartesian_grid
from repro.perf import PAPER_TIMINGS, max_particles_at_fps, table3_rows
from repro.tracers import integrate_steady

#: The Convex had 4 CPUs; we use what the host offers.
WORKERS = max(2, min(4, os.cpu_count() or 2))

_results: dict[str, float] = {}


def test_table3_extrapolation_rows(record, benchmark):
    rows = benchmark(table3_rows)
    lines = ["benchmark s   max particles   streamlines w/ 200 pts"]
    for r in rows:
        lines.append(
            f"{r['benchmark_seconds']:>10.2f}   {r['max_particles']:>13,}   "
            f"{r['streamlines_200pt']:>10}"
        )
    record("table3_extrapolation", lines)
    got = [(r["max_particles"], r["streamlines_200pt"]) for r in rows]
    assert got == [(8000, 40), (10526, 52), (15384, 76), (20000, 100), (40000, 200)]


@pytest.mark.parametrize("backend", KERNELS)
def test_table3_benchmark_backend(paper_grid_dataset, benchmark, backend):
    """The 100x200 scenario on the full paper-footprint grid, per kernel:
    one pool per field, around one warm-up and two timed runs."""
    _results[backend] = benchmark.pedantic(
        run_benchmark,
        args=(paper_grid_dataset, backend),
        kwargs={"workers": WORKERS, "repeats": 2},
        rounds=1,
        iterations=1,
    )


def test_table3_shape_and_report(record, benchmark):
    """Who wins, by roughly what factor — the paper's comparison."""
    benchmark(lambda: max_particles_at_fps(0.19))  # keep --benchmark-only happy
    assert set(_results) == set(KERNELS), "run the backend benches first"
    lines = [
        f"(host: {os.cpu_count()} cores; process backends use {WORKERS} workers;"
        f" the Convex had 4 CPUs)",
        "backend        seconds   max particles @10fps   200-pt streamlines",
    ]
    for b in KERNELS:
        t = _results[b]
        mp = max_particles_at_fps(t)
        lines.append(f"{b:<13} {t:>8.4f}   {mp:>13,}   {mp // 200:>10}")
    lines.append("")
    lines.append("paper (same scenario):")
    for name, t in PAPER_TIMINGS.items():
        lines.append(
            f"  {name:<40} {t:.3f} s -> {max_particles_at_fps(t):,} particles"
        )
    record("table3_backends", lines)

    # Shape assertions:
    # 1. Vectorizing across streamlines beats scalar (paper: 0.19 < 0.24,
    #    with the scalar side already 4-way parallel; ours is single-
    #    process scalar, so the margin is much larger).
    assert _results["vector"] < _results["scalar"]
    # 2. Strip-mining to 128 lanes costs little vs unlimited vectors.
    assert _results["vector-strip"] < 3.0 * _results["vector"] + 0.05
    # 3. Parallelizing the scalar code is at worst a wash and wins with
    #    real cores (the Convex's 4-way win; on a 2-core host the IPC
    #    overhead eats most of the gain, hence the tolerance).
    assert _results["parallel"] < 1.5 * _results["scalar"]
    # 4. The paper's proposed further optimization — parallelize across
    #    groups, vectorize within a group — beats plain parallel-scalar.
    assert _results["vector-group"] < _results["parallel"]


# ---------------------------------------------------------------------------
# the kernels compute the same trajectories
# ---------------------------------------------------------------------------


def _rotation_dataset(shape, lo, hi, field):
    grid = cartesian_grid(shape, lo=lo, hi=hi)
    return MemoryDataset(grid, sample_on_grid(field, grid, [0.0], dtype=np.float64))


class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def scenario(self):
        ds = _rotation_dataset(
            (17, 17, 9), (-2, -2, -1), (2, 2, 1),
            RigidRotation(omega=[0, 0, 1.0]) + UniformFlow([0.1, 0.0, 0.05]),
        )
        gv = ds.grid_velocity(0)
        rng = np.random.default_rng(5)
        seeds = rng.uniform([4, 4, 2], [12, 12, 6], size=(37, 3))
        return gv, seeds, integrate_steady(gv, seeds, 40, 0.03)

    def test_vector_strip_bit_identical(self, scenario):
        gv, seeds, (ref_paths, ref_len) = scenario
        paths, lengths = integrate_strips(gv, seeds, 40, 0.03, strip=8)
        np.testing.assert_array_equal(paths, ref_paths)
        np.testing.assert_array_equal(lengths, ref_len)

    def test_scalar_matches_vector(self, scenario):
        gv, seeds, (ref_paths, ref_len) = scenario
        paths, lengths = integrate_scalar(gv, seeds, 40, 0.03)
        np.testing.assert_array_equal(lengths, ref_len)
        np.testing.assert_allclose(paths, ref_paths, atol=1e-10)

    def test_parallel_matches_vector(self, scenario):
        gv, seeds, (ref_paths, ref_len) = scenario
        with open_kernel("parallel", gv, workers=2) as run:
            paths, lengths = run(seeds, 40, 0.03)
        np.testing.assert_array_equal(lengths, ref_len)
        np.testing.assert_allclose(paths, ref_paths, atol=1e-10)

    def test_vector_group_matches_vector(self, scenario):
        gv, seeds, (ref_paths, ref_len) = scenario
        with open_kernel("vector-group", gv, workers=2) as run:
            paths, lengths = run(seeds, 40, 0.03)
        np.testing.assert_array_equal(lengths, ref_len)
        np.testing.assert_allclose(paths, ref_paths, atol=1e-12)

    def test_single_worker_parallel_degenerates(self, scenario):
        gv, seeds, (ref_paths, _) = scenario
        with open_kernel("parallel", gv, workers=1) as run:
            paths, _ = run(seeds[:3], 10, 0.03)
        np.testing.assert_allclose(paths, ref_paths[:3, :11], atol=1e-10)


class TestRunBenchmark:
    def test_vector_beats_scalar(self):
        """The reproduction's analogue of the paper's vectorization win.

        The win needs enough streamlines to amortize per-batch overhead —
        the same reason the Convex needed 128-long vectors.
        """
        ds = _rotation_dataset((9, 9, 5), (-2, -2, 0), (2, 2, 1), RigidRotation())
        size = {"n_streamlines": 100, "points_per_line": 100, "repeats": 2}
        assert run_benchmark(ds, "vector", **size) < run_benchmark(ds, "scalar", **size)
