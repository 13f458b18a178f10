"""Interactive time control over the unsteady dataset.

Section 2: "The time evolution of the flow can be sped up, slowed down,
run backwards, or stopped completely for detailed examination."  Time is
anchored to a wall clock so every client sampling the shared environment
sees the same flow time; scrubbing, pausing, or changing speed re-anchors.
"""

from __future__ import annotations

import math

__all__ = ["TimeControl"]


def _finite(value, what: str) -> float:
    """``value`` as a float, or ``ValueError`` when it is NaN or infinite.

    Every control op checks before it assigns: one non-finite command
    must not leave the shared clock unable to name a timestep.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


class TimeControl:
    """Maps wall-clock time to a (fractional) dataset timestep position.

    Parameters
    ----------
    n_timesteps
        Length of the dataset's timestep sequence.
    speed
        Playback rate in timesteps per wall-clock second; negative runs
        the flow backwards.
    wrap
        ``True`` loops playback (position mod n); ``False`` clamps at the
        sequence ends.
    """

    def __init__(self, n_timesteps: int, speed: float = 10.0, wrap: bool = True) -> None:
        if n_timesteps < 1:
            raise ValueError("need at least one timestep")
        self.n_timesteps = int(n_timesteps)
        self.wrap = bool(wrap)
        self._speed = float(speed)
        self._playing = True
        self._anchor_wall = 0.0
        self._anchor_pos = 0.0
        self._live_fn = None

    # -- live (in situ) mode -------------------------------------------------

    def bind_live(self, latest_fn) -> None:
        """Follow a live producer instead of replaying a finite sequence.

        ``latest_fn()`` returns the newest *published-ready* timestep index
        (or ``-1`` before the first one).  In live mode the clock has no
        schedule of its own: while playing, :meth:`position` is simply the
        producer's frontier — the dataset is unbounded, so there is
        nothing to wrap or clamp — and pausing freezes at the frontier
        reached so far.  Replay-only transport ops (speed, scrub, step,
        reverse) raise ``ValueError``; steering the *solver* is how a live
        session manipulates time (docs/steering.md).
        """
        if not callable(latest_fn):
            raise TypeError("latest_fn must be callable")
        self._live_fn = latest_fn
        self.wrap = False

    @property
    def live(self) -> bool:
        return self._live_fn is not None

    def _latest(self) -> float:
        t = int(self._live_fn())
        if t > self.n_timesteps - 1:
            self.n_timesteps = t + 1
        return float(max(t, 0))

    # -- queries ------------------------------------------------------------

    @property
    def speed(self) -> float:
        return self._speed

    @property
    def playing(self) -> bool:
        return self._playing

    @property
    def direction(self) -> int:
        """+1 forward, -1 backward (for prefetch hinting)."""
        return 1 if self._speed >= 0 else -1

    def position(self, wall: float) -> float:
        """Fractional timestep position at wall time ``wall``."""
        if self._live_fn is not None:
            if self._playing:
                return self._latest()
            return self._anchor_pos
        pos = self._anchor_pos
        if self._playing:
            pos += self._speed * (wall - self._anchor_wall)
        if self.n_timesteps == 1:
            return 0.0
        if self.wrap:
            return pos % self.n_timesteps
        return min(max(pos, 0.0), self.n_timesteps - 1.0)

    def timestep_index(self, wall: float) -> int:
        """Integer timestep at wall time ``wall``."""
        if self._live_fn is not None:
            return int(self.position(wall))
        return int(self.position(wall)) % self.n_timesteps

    def lookahead(self, wall: float, lead: float) -> int:
        """The timestep the clock will be on ``lead`` seconds from ``wall``.

        The frame pipeline's prefetch hint: the producer predicts which
        timestep it will need *next* (one production period ahead) and
        asks the loader to stage it while the current frame computes —
        figure 8's "loading can also occur in parallel", aimed where the
        clock is actually going.  A paused clock predicts its current
        timestep; a reversed clock predicts upstream.
        """
        if not self._playing or self._live_fn is not None:
            # Live production is demand-pull from the frontier; there is
            # no schedule to aim a disk prefetch at.
            return self.timestep_index(wall)
        return self.timestep_index(wall + max(0.0, float(lead)))

    # -- control (each op re-anchors at the current position) ---------------

    def _reanchor(self, wall: float) -> None:
        self._anchor_pos = self.position(wall)
        self._anchor_wall = wall

    def _forbid_live(self, op: str) -> None:
        if self._live_fn is not None:
            raise ValueError(
                f"cannot {op} a live clock: the in situ dataset is unbounded "
                "and follows the solver frontier — steer the solver "
                "(wt.steer) instead"
            )

    def set_speed(self, speed: float, wall: float) -> None:
        self._forbid_live("set the speed of")
        speed = _finite(speed, "speed")
        self._reanchor(wall)
        self._speed = speed

    def pause(self, wall: float) -> None:
        self._reanchor(wall)
        self._playing = False

    def resume(self, wall: float) -> None:
        self._anchor_wall = wall
        self._playing = True

    def stop(self, wall: float) -> None:
        """Paper's 'stopped completely': pause without losing position."""
        self.pause(wall)

    def reverse(self, wall: float) -> None:
        """Run the flow backwards from here."""
        self._forbid_live("reverse")
        self.set_speed(-self._speed, wall)

    def scrub(self, position: float, wall: float) -> None:
        """Jump to an absolute (fractional) timestep position."""
        self._forbid_live("scrub")
        self._anchor_pos = _finite(position, "position")
        self._anchor_wall = wall

    def step(self, delta: int, wall: float) -> None:
        """Single-step while paused (frame-by-frame examination)."""
        self._forbid_live("step")
        delta = int(_finite(delta, "step"))
        self._reanchor(wall)
        self._anchor_pos += delta

    def restore(self, snapshot: dict, wall: float) -> None:
        """Re-anchor this clock to a :meth:`snapshot` taken elsewhere.

        Crash recovery: a respawned worker restores the journaled clock
        state so every client's shared flow time resumes where the dead
        worker left it (modulo the outage itself — the clock does not
        replay time that passed while nobody was serving).
        """
        if self._live_fn is not None:
            # A live clock's position is the producer frontier, which a
            # respawned solver re-derives; only the pause state carries.
            self._playing = bool(snapshot.get("playing", self._playing))
            self._reanchor(wall)
            return
        speed = _finite(snapshot.get("speed", self._speed), "speed")
        position = _finite(snapshot.get("position", 0.0), "position")
        self._speed = speed
        self._playing = bool(snapshot.get("playing", self._playing))
        self.wrap = bool(snapshot.get("wrap", self.wrap))
        self._anchor_pos = position
        self._anchor_wall = wall

    # -- wire ------------------------------------------------------------------

    def snapshot(self, wall: float) -> dict:
        return {
            "position": self.position(wall),
            "timestep": self.timestep_index(wall),
            "speed": self._speed,
            "playing": self._playing,
            "wrap": self.wrap,
            "n_timesteps": self.n_timesteps,
            "live": self._live_fn is not None,
        }
