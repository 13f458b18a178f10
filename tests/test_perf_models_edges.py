"""Edge cases for the perf models: degenerate inputs must fail loudly.

The pipeline model feeds an acceptance check (the fig-8 benchmark
gates on ``compare_to_model``), so a NaN that slides through a
``t < 0`` comparison or an empty stage list must raise, not silently
return ``within_tolerance=False`` with NaN arithmetic behind it.
"""

import math

import numpy as np
import pytest

from repro.perf import compare_to_model, simulate_pipeline


class TestSimulatePipelineEdges:
    def test_empty_stages_raise(self):
        with pytest.raises(ValueError, match="at least one stage"):
            simulate_pipeline({})

    def test_single_stage_has_no_overlap_to_exploit(self):
        res = simulate_pipeline({"only": 0.05}, n_frames=10)
        assert res.serial_total == pytest.approx(res.overlapped_total)
        assert res.speedup == pytest.approx(1.0)
        assert res.steady_period == pytest.approx(0.05)

    def test_single_frame_costs_the_full_sum(self):
        res = simulate_pipeline({"a": 0.01, "b": 0.02, "c": 0.03}, n_frames=1)
        assert res.overlapped_total == pytest.approx(0.06)
        assert res.completion_times.shape == (1,)

    def test_zero_duration_stage_is_legal(self):
        res = simulate_pipeline({"a": 0.0, "b": 0.02}, n_frames=5)
        assert res.steady_period == pytest.approx(0.02)
        assert res.overlapped_total == pytest.approx(5 * 0.02)

    def test_all_zero_stages_complete_instantly(self):
        res = simulate_pipeline({"a": 0.0, "b": 0.0}, n_frames=3)
        assert res.overlapped_total == 0.0
        assert res.steady_period == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.01])
    def test_non_finite_or_negative_duration_raises(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            simulate_pipeline({"a": 0.01, "b": bad})

    def test_zero_frames_raise(self):
        with pytest.raises(ValueError, match="at least one frame"):
            simulate_pipeline({"a": 0.01}, n_frames=0)

    def test_list_of_tuples_preserves_order(self):
        res = simulate_pipeline([("z_last", 0.01), ("a_first", 0.02)])
        assert res.stage_names == ("z_last", "a_first")

    def test_steady_state_period_is_slowest_stage(self):
        res = simulate_pipeline({"a": 0.01, "b": 0.04, "c": 0.02}, n_frames=200)
        periods = np.diff(res.completion_times)
        # After the fill, every inter-frame gap equals max(t_i).
        np.testing.assert_allclose(periods[5:], 0.04, rtol=1e-9)


class TestCompareToModelEdges:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_measured_period_raises(self, bad):
        with pytest.raises(ValueError, match="positive finite"):
            compare_to_model({"a": 0.01}, measured_period=bad)

    def test_nan_stage_time_raises(self):
        with pytest.raises(ValueError, match="finite and non-negative"):
            compare_to_model({"a": float("nan")}, measured_period=0.1)

    def test_all_zero_stages_report_zero_error(self):
        # Degenerate model (predicted period 0): defined behaviour is
        # zero relative error rather than a division by zero.
        out = compare_to_model({"a": 0.0, "b": 0.0}, measured_period=0.1)
        assert out["predicted_period"] == 0.0
        assert out["relative_error"] == 0.0
        assert out["within_tolerance"] is True
        assert math.isfinite(out["speedup_vs_serial"])

    def test_exact_match_is_within_tolerance(self):
        out = compare_to_model(
            {"load": 0.02, "compute": 0.05}, measured_period=0.05
        )
        assert out["relative_error"] == pytest.approx(0.0)
        assert out["within_tolerance"] is True
        assert out["speedup_vs_serial"] == pytest.approx(0.07 / 0.05)

    def test_gross_mismatch_is_flagged(self):
        out = compare_to_model(
            {"load": 0.02, "compute": 0.05}, measured_period=0.5
        )
        assert out["within_tolerance"] is False
        assert out["relative_error"] > 1.0
