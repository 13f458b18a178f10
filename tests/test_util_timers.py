"""Tests for repro.util.timers."""

import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import FrameTimer, Stopwatch, TimingStats

durations = st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=50)


class TestTimingStats:
    def test_empty(self):
        s = TimingStats()
        assert s.count == 0
        assert s.rate == 0.0
        assert s.summary() == "no samples"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TimingStats().add(-1.0)

    @given(durations)
    def test_matches_numpy(self, values):
        s = TimingStats()
        for v in values:
            s.add(v)
        np.testing.assert_allclose(s.mean, np.mean(values), atol=1e-12)
        np.testing.assert_allclose(s.total, np.sum(values), atol=1e-9)
        assert s.min == min(values)
        assert s.max == max(values)
        if len(values) > 1:
            np.testing.assert_allclose(
                s.variance, np.var(values, ddof=1), atol=1e-10
            )

    def test_rate(self):
        s = TimingStats()
        s.add(0.1)
        assert math.isclose(s.rate, 10.0)


class TestStopwatch:
    def test_records_elapsed(self):
        stats = TimingStats()
        with Stopwatch(stats) as sw:
            time.sleep(0.01)
        assert sw.elapsed >= 0.009
        assert stats.count == 1

    def test_standalone(self):
        with Stopwatch() as sw:
            pass
        assert sw.elapsed >= 0.0


class TestFrameTimer:
    def test_budget_tracking(self):
        ft = FrameTimer(budget=0.125)
        ft.frame(0.1)
        ft.frame(0.2)
        ft.frame(0.125)
        assert ft.frames_within_budget == 2
        assert math.isclose(ft.within_budget_fraction, 2 / 3)

    def test_default_budget_is_paper_eighth_second(self):
        assert FrameTimer().budget == 0.125

    def test_stage_accumulates(self):
        ft = FrameTimer()
        with ft.stage("compute"):
            pass
        with ft.stage("compute"):
            pass
        assert ft.stages["compute"].count == 2

    def test_report_mentions_stages(self):
        ft = FrameTimer()
        with ft.stage("net"):
            pass
        ft.frame(0.05)
        rep = ft.report()
        assert "net" in rep and "budget" in rep

    def test_empty_fraction(self):
        assert FrameTimer().within_budget_fraction == 0.0
