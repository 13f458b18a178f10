"""The paper's benchmark scenario and Table 3 accounting.

Section 5.3: "a benchmark computation of 100 streamlines each containing
200 points was performed.  This scenario contains 20,000 points with a
transfer over the networks of 240,000 bytes of data."  The paper's
measurements: optimized scalar C parallelized over the Convex's 4
processors, 0.24 s; vectorized across streamlines on 3 processors,
0.19 s; the 8-processor SGI workstation, 0.13-0.14 s.

Table 3 then extrapolates, "assuming that the performance scales with the
number of particles": a benchmark time of ``t`` seconds for 20,000 points
sustains ``20,000 * (0.1 / t)`` particles at ten frames per second.

This module holds the scenario (its constants and seeds) and the
extrapolation.  The kernels the paper timed on it, and the timing loop,
are benchmark code beside the Table 3 bench (``benchmarks/``).
"""

from __future__ import annotations

import numpy as np

from repro.flow.dataset import UnsteadyDataset

__all__ = [
    "BENCHMARK_POINTS",
    "PAPER_TIMINGS",
    "benchmark_seeds",
    "max_particles_at_fps",
    "table3_rows",
]

#: The benchmark scenario: 100 streamlines x 200 points.
N_STREAMLINES = 100
POINTS_PER_LINE = 200
BENCHMARK_POINTS = N_STREAMLINES * POINTS_PER_LINE  # 20,000
BENCHMARK_WIRE_BYTES = BENCHMARK_POINTS * 12  # 240,000

#: The paper's measured benchmark times (seconds).
PAPER_TIMINGS = {
    "convex scalar C, 4-way parallel": 0.24,
    "convex vectorized across streamlines": 0.19,
    "sgi 8-processor workstation": 0.135,  # "0.13 to 0.14 seconds"
}


def max_particles_at_fps(
    benchmark_seconds: float,
    fps: float = 10.0,
    n_points: int = BENCHMARK_POINTS,
) -> int:
    """Table 3 column 2: particles sustainable at ``fps``.

    Linear scaling assumption: 0.25 s -> 8,000; 0.19 s -> 10,526;
    0.13 s -> 15,384; 0.10 s -> 20,000; 0.05 s -> 40,000.
    """
    if benchmark_seconds <= 0:
        raise ValueError("benchmark time must be positive")
    if fps <= 0:
        raise ValueError("fps must be positive")
    return int(n_points / (benchmark_seconds * fps))


def table3_rows(times=(0.25, 0.19, 0.13, 0.10, 0.05)) -> list[dict]:
    """Regenerate Table 3 for the paper's five benchmark times."""
    return [
        {
            "benchmark_seconds": t,
            "max_particles": max_particles_at_fps(t),
            "streamlines_200pt": max_particles_at_fps(t) // POINTS_PER_LINE,
        }
        for t in times
    ]


def benchmark_seeds(
    dataset: UnsteadyDataset, n: int = N_STREAMLINES, seed: int = 0
) -> np.ndarray:
    """Deterministic seed points inside the grid interior (grid coords)."""
    rng = np.random.default_rng(seed)
    ni, nj, nk = dataset.grid.shape
    lo = np.array([0.15 * ni, 0.15 * nj, 0.15 * nk])
    hi = np.array([0.85 * (ni - 1), 0.85 * (nj - 1), 0.85 * (nk - 1)])
    return rng.uniform(lo, hi, size=(n, 3))

