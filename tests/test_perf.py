"""Tests for the performance models (Table 3 accounting + pipeline)."""

import numpy as np
import pytest

from repro.flow import MemoryDataset, RigidRotation, sample_on_grid
from repro.grid import cartesian_grid
from repro.perf import (
    BENCHMARK_POINTS,
    PAPER_TIMINGS,
    benchmark_seeds,
    max_particles_at_fps,
    simulate_pipeline,
    table3_rows,
)


@pytest.fixture(scope="module")
def dataset():
    grid = cartesian_grid((9, 9, 5), lo=(-2, -2, 0), hi=(2, 2, 1))
    vel = sample_on_grid(RigidRotation(), grid, [0.0], dtype=np.float64)
    return MemoryDataset(grid, vel)


class TestTable3Accounting:
    def test_paper_rows_exact(self):
        rows = table3_rows()
        got = [(r["max_particles"], r["streamlines_200pt"]) for r in rows]
        # Paper Table 3: the five rows verbatim.
        assert got == [
            (8000, 40),
            (10526, 52),
            (15384, 76),
            (20000, 100),
            (40000, 200),
        ]

    def test_benchmark_constants(self):
        assert BENCHMARK_POINTS == 20000
        from repro.perf.scenario import BENCHMARK_WIRE_BYTES

        assert BENCHMARK_WIRE_BYTES == 240000

    def test_paper_timing_ordering(self):
        """Convex vectorized beat Convex scalar; the SGI beat both."""
        t = PAPER_TIMINGS
        assert (
            t["sgi 8-processor workstation"]
            < t["convex vectorized across streamlines"]
            < t["convex scalar C, 4-way parallel"]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            max_particles_at_fps(0.0)
        with pytest.raises(ValueError):
            max_particles_at_fps(0.1, fps=0)

    def test_seeds_deterministic(self, dataset):
        a = benchmark_seeds(dataset, 10)
        b = benchmark_seeds(dataset, 10)
        np.testing.assert_array_equal(a, b)
        assert dataset.grid.contains(a).all()


class TestPipelineModel:
    def test_balanced_pipeline_speedup(self):
        res = simulate_pipeline({"load": 0.1, "compute": 0.1, "send": 0.1}, 100)
        # Three balanced stages approach 3x as n grows.
        assert 2.8 < res.speedup < 3.0
        assert res.steady_period == pytest.approx(0.1)
        assert res.serial_period == pytest.approx(0.3)

    def test_bottleneck_dominates(self):
        res = simulate_pipeline({"load": 0.01, "compute": 0.2, "send": 0.01}, 50)
        # Steady-state completion spacing equals the bottleneck stage.
        gaps = np.diff(res.completion_times[10:])
        np.testing.assert_allclose(gaps, 0.2, atol=1e-12)

    def test_exact_completion_of_first_frame(self):
        res = simulate_pipeline({"a": 1.0, "b": 2.0}, 1)
        assert res.overlapped_total == pytest.approx(3.0)
        assert res.serial_total == pytest.approx(3.0)
        assert res.speedup == pytest.approx(1.0)

    def test_paper_regime_load_hidden(self):
        """Fig 8's promise: a 1/8s-budget compute hides a smaller load."""
        res = simulate_pipeline({"load": 0.05, "compute": 0.1, "send": 0.02}, 100)
        assert res.sustains_fps(10.0)
        serial = simulate_pipeline(
            {"all": 0.05 + 0.1 + 0.02}, 100
        )
        assert not serial.sustains_fps(10.0)

    def test_list_input_and_ordering(self):
        res = simulate_pipeline([("x", 0.1), ("y", 0.05)], 10)
        assert res.stage_names == ("x", "y")

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_pipeline({}, 10)
        with pytest.raises(ValueError):
            simulate_pipeline({"a": -1.0}, 10)
        with pytest.raises(ValueError):
            simulate_pipeline({"a": 1.0}, 0)
