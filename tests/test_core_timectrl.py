"""Tests for TimeControl — the paper's interactive time control.

Timing-flakiness audit: every test here drives TimeControl with
explicit wall-clock *values* (``tc.position(1.0)``) — rule 3 of the
de-flaking pattern in ``tests/__init__.py``.  No real clock is read and
nothing sleeps, so these tests are deterministic by construction.
"""

import pytest

from repro.core import TimeControl


class TestPlayback:
    def test_forward_playback(self):
        tc = TimeControl(100, speed=10.0)
        assert tc.position(0.0) == 0.0
        assert tc.position(1.0) == pytest.approx(10.0)
        assert tc.timestep_index(1.55) == 15

    def test_wraps_by_default(self):
        tc = TimeControl(10, speed=10.0)
        assert tc.position(1.5) == pytest.approx(5.0)
        assert tc.timestep_index(1.5) == 5

    def test_clamp_mode(self):
        tc = TimeControl(10, speed=10.0, wrap=False)
        assert tc.position(99.0) == pytest.approx(9.0)
        tc2 = TimeControl(10, speed=-10.0, wrap=False)
        assert tc2.position(99.0) == 0.0

    def test_single_timestep(self):
        tc = TimeControl(1, speed=10.0)
        assert tc.position(123.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeControl(0)


class TestControls:
    def test_backwards(self):
        """'run backwards' — negative speed, wrapping below zero."""
        tc = TimeControl(100, speed=-10.0)
        assert tc.position(1.0) == pytest.approx(90.0)
        assert tc.direction == -1

    def test_pause_freezes_position(self):
        tc = TimeControl(100, speed=10.0)
        tc.pause(wall=2.0)
        assert tc.position(50.0) == pytest.approx(20.0)
        assert not tc.playing

    def test_resume_continues_from_pause_point(self):
        tc = TimeControl(100, speed=10.0)
        tc.pause(wall=2.0)
        tc.resume(wall=10.0)
        assert tc.position(11.0) == pytest.approx(30.0)

    def test_speed_change_reanchors(self):
        """'sped up, slowed down' without a position jump."""
        tc = TimeControl(1000, speed=10.0)
        tc.set_speed(100.0, wall=2.0)
        assert tc.position(2.0) == pytest.approx(20.0)  # continuous
        assert tc.position(3.0) == pytest.approx(120.0)

    def test_reverse_is_continuous(self):
        tc = TimeControl(1000, speed=10.0)
        tc.reverse(wall=5.0)
        assert tc.position(5.0) == pytest.approx(50.0)
        assert tc.position(6.0) == pytest.approx(40.0)
        assert tc.speed == -10.0

    def test_scrub(self):
        tc = TimeControl(100, speed=10.0)
        tc.scrub(42.0, wall=1.0)
        assert tc.position(1.0) == pytest.approx(42.0)

    def test_step_while_paused(self):
        """'stopped completely for detailed examination' + frame stepping."""
        tc = TimeControl(100, speed=10.0)
        tc.pause(wall=1.0)
        tc.step(+1, wall=5.0)
        assert tc.timestep_index(9.0) == 11
        tc.step(-2, wall=9.0)
        assert tc.timestep_index(9.0) == 9

    def test_snapshot(self):
        tc = TimeControl(50, speed=5.0)
        snap = tc.snapshot(2.0)
        assert snap["timestep"] == 10
        assert snap["speed"] == 5.0
        assert snap["playing"] is True
        assert snap["n_timesteps"] == 50


BAD = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteRejected:
    """A non-finite speed, position or step is refused before anything is
    assigned: one bad ``wt.time`` must not leave the shared clock reading
    NaN (every ``timestep_index`` after it would raise)."""

    def apply(self, tc, op, value):
        if op == "speed":
            tc.set_speed(value, wall=1.0)
        elif op == "scrub":
            tc.scrub(value, wall=1.0)
        elif op == "step":
            tc.step(value, wall=1.0)
        else:  # "restore.<key>": one bad entry in a journaled snapshot
            key = op.split(".", 1)[1]
            tc.restore({"speed": 5.0, "position": 3.0, key: value}, wall=1.0)

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize(
        "op", ["speed", "scrub", "step", "restore.speed", "restore.position"]
    )
    def test_clock_unchanged_and_usable(self, op, value):
        tc = TimeControl(50, speed=5.0)
        tc.pause(wall=2.0)
        before = tc.snapshot(2.0)
        with pytest.raises(ValueError, match="finite"):
            self.apply(tc, op, value)
        assert tc.snapshot(2.0) == before
        tc.scrub(0.0, wall=2.0)  # and it can still be driven
        assert tc.timestep_index(2.0) == 0
