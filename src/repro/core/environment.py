"""The shared virtual environment.

Section 5.1: "the desire for a shared environment capability was the
primary consideration...  control over all objects in the virtual
environment take[s] place on the remote system."  This module is that
authoritative state: the rakes, each user's head/hand/gesture, the rake
grab locks with first-come-first-served conflict resolution ("the user
who grabbed it first gets control of that rake and the second user is
locked out ... until the first user lets the rake go.  Other rakes are
unaffected by this locking"), and the shared flow clock.

Every mutation bumps ``version`` and notifies any subscribed listeners —
the frame pipeline subscribes so a rake edit, tool-settings change, or
time-control command wakes the producer *immediately* instead of being
discovered on its next poll.  Mutations take an internal re-entrant lock,
so the producer thread can snapshot the environment consistently while
the dlib service thread keeps applying user commands.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.core.timectrl import TimeControl
from repro.tracers.rake import GrabPoint, Rake

__all__ = ["UserState", "Environment"]

#: How close (physical units) a hand must be to a grab point to take it.
DEFAULT_GRAB_RADIUS = 0.5


def _position(value, what: str) -> np.ndarray:
    """``value`` as a finite float64 3-vector, or ``ValueError``."""
    v = np.asarray(value, dtype=np.float64)
    if v.shape != (3,) or not all(map(math.isfinite, v)):
        raise ValueError(f"{what} must be a finite 3-vector")
    return v


@dataclass
class UserState:
    """What the server knows about one connected user."""

    client_id: int
    name: str = ""
    head_position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    hand_position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gesture: str = "open"
    holding: tuple[int, GrabPoint] | None = None  # (rake_id, grab point)

    def to_wire(self) -> dict:
        return {
            "client_id": self.client_id,
            "name": self.name,
            "head_position": self.head_position.astype(np.float32),
            "hand_position": self.hand_position.astype(np.float32),
            "gesture": self.gesture,
            "holding": None if self.holding is None else
                [self.holding[0], self.holding[1].value],
        }


class Environment:
    """Authoritative shared state of the distributed windtunnel."""

    def __init__(
        self,
        n_timesteps: int,
        *,
        time_speed: float = 10.0,
        grab_radius: float = DEFAULT_GRAB_RADIUS,
    ) -> None:
        if grab_radius <= 0:
            raise ValueError("grab_radius must be positive")
        self.clock = TimeControl(n_timesteps, speed=time_speed)
        self.grab_radius = float(grab_radius)
        self.rakes: dict[int, Rake] = {}
        self.locks: dict[int, int] = {}  # rake_id -> owning client_id
        self.users: dict[int, UserState] = {}
        self.version = 0
        self._next_rake_id = 1
        self._next_client_id = 1
        # Mutations are serialized against snapshot readers (the frame
        # pipeline's producer thread); re-entrant because update_user
        # nests try_grab/release.
        self.lock = threading.RLock()
        # The ``users`` section of :meth:`snapshot`; ``None`` once a user
        # changes, so a thousand seats are not rebuilt every publication.
        self._users_wire: dict | None = None
        self._listeners: list = []
        self._state_providers: dict[str, object] = {}

    def subscribe(self, listener) -> None:
        """Register ``listener()`` to run after every version bump.

        Listeners fire with the environment lock held and must be cheap
        and non-blocking — setting an event, not doing work.  This is the
        dirty-notification channel that lets the frame pipeline recompute
        on the mutation itself rather than on its next poll.
        """
        self._listeners.append(listener)

    def add_state_provider(self, key: str, provider) -> None:
        """Contribute an extra section to every :meth:`snapshot`.

        ``provider()`` must return a serializable value; it runs with the
        environment lock held, so it must be cheap.  This is how
        subsystems the environment does not know about (the in situ
        steering controller's ``"steering"`` section) ride along in
        ``wt.state`` without the core importing them.
        """
        if not callable(provider):
            raise TypeError("provider must be callable")
        self._state_providers[str(key)] = provider

    def bump(self) -> None:
        """Explicitly invalidate the shared visualization.

        For state the environment does not own (tool settings on the
        engine, time control applied straight to the clock) but whose
        changes must still invalidate published frames.
        """
        with self.lock:
            self._bump()

    def _bump(self) -> None:
        self.version += 1
        for listener in self._listeners:
            listener()

    # -- users -----------------------------------------------------------------

    def add_user(self, name: str = "") -> UserState:
        with self.lock:
            user = UserState(client_id=self._next_client_id, name=name)
            self._next_client_id += 1
            self.users[user.client_id] = user
            self._users_wire = None
            self._bump()
            return user

    def restore_user(self, client_id: int, name: str = "") -> UserState:
        """Re-seat a previously removed user under their old id.

        Session resume (``wt.rejoin``) must hand a reaped client the same
        ``client_id`` back, or every rake/lock reference it holds would
        dangle.  The id counter is advanced past the restored id so later
        joins can never collide with it.
        """
        with self.lock:
            client_id = int(client_id)
            if client_id in self.users:
                raise ValueError(f"client {client_id} is already present")
            user = UserState(client_id=client_id, name=name)
            self.users[client_id] = user
            self._next_client_id = max(self._next_client_id, client_id + 1)
            self._users_wire = None
            self._bump()
            return user

    def remove_user(self, client_id: int) -> None:
        with self.lock:
            user = self.users.pop(client_id, None)
            if user is None:
                raise KeyError(f"no such client {client_id}")
            self._users_wire = None
            # Anything they held is released (their locks evaporate).
            for rake_id, owner in list(self.locks.items()):
                if owner == client_id:
                    del self.locks[rake_id]
            self._bump()

    def _user(self, client_id: int) -> UserState:
        user = self.users.get(client_id)
        if user is None:
            raise KeyError(f"no such client {client_id}")
        return user

    # -- rakes -----------------------------------------------------------------

    def add_rake(self, rake: Rake, *, rake_id: int | None = None) -> int:
        """Add a rake; returns its id.

        ``rake_id`` forces a specific id — crash recovery re-seats
        journaled rakes under the ids the clients already hold, so their
        references cannot dangle across a worker respawn.  The id counter
        is advanced past any forced id; forcing an occupied id raises.
        """
        with self.lock:
            if rake_id is None:
                rake_id = self._next_rake_id
            else:
                rake_id = int(rake_id)
                if rake_id in self.rakes:
                    raise ValueError(f"rake id {rake_id} is already in use")
            self._next_rake_id = max(self._next_rake_id, rake_id) + 1
            rake.rake_id = rake_id
            self.rakes[rake_id] = rake
            self._bump()
            return rake_id

    def remove_rake(self, rake_id: int) -> None:
        with self.lock:
            if rake_id not in self.rakes:
                raise KeyError(f"no such rake {rake_id}")
            if rake_id in self.locks:
                raise PermissionError(
                    f"rake {rake_id} is held by client {self.locks[rake_id]}"
                )
            del self.rakes[rake_id]
            self._bump()

    def rakes_snapshot(self) -> tuple[int, dict[int, Rake]]:
        """A consistent ``(version, rakes)`` copy for off-thread compute.

        The producer thread computes from this snapshot while the service
        thread keeps mutating; copying the rakes (geometry included)
        means a mid-compute drag can never tear a seed line — the drag's
        own version bump triggers the recompute that shows it.
        """
        with self.lock:
            rakes = {
                rid: Rake.from_dict(rake.to_dict())
                for rid, rake in self.rakes.items()
            }
            return self.version, rakes

    def rake_owner(self, rake_id: int) -> int | None:
        return self.locks.get(rake_id)

    # -- interaction --------------------------------------------------------------

    def try_grab(self, client_id: int, hand_position: np.ndarray) -> bool:
        """Attempt to grab the nearest free grab point within reach.

        First-come-first-served: a rake already locked by another user is
        skipped ("the second user is locked out of interaction with that
        rake"), but *other* rakes remain grabbable.
        """
        with self.lock:
            user = self._user(client_id)
            if user.holding is not None:
                return True  # already holding something
            hand = np.asarray(hand_position, dtype=np.float64)
            best: tuple[float, int, GrabPoint] | None = None
            for rake_id, rake in self.rakes.items():
                owner = self.locks.get(rake_id)
                if owner is not None and owner != client_id:
                    continue  # locked out, FCFS
                grab = rake.nearest_grab(hand, self.grab_radius)
                if grab is None:
                    continue
                d = float(np.linalg.norm(rake.grab_position(grab) - hand))
                if best is None or d < best[0]:
                    best = (d, rake_id, grab)
            if best is None:
                return False
            _, rake_id, grab = best
            self.locks[rake_id] = client_id
            user.holding = (rake_id, grab)
            self._users_wire = None
            self._bump()
            return True

    def release(self, client_id: int) -> None:
        """Let go of whatever this user holds (no-op if nothing)."""
        with self.lock:
            user = self._user(client_id)
            if user.holding is None:
                return
            rake_id, _ = user.holding
            user.holding = None
            self._users_wire = None
            if self.locks.get(rake_id) == client_id:
                del self.locks[rake_id]
            self._bump()

    def update_user(
        self,
        client_id: int,
        head_position,
        hand_position,
        gesture: str,
    ) -> None:
        """Apply one input sample: the per-frame command of section 5.1.

        A FIST gesture grabs (or keeps dragging) the nearest grab point;
        OPEN releases.  Dragging while holding moves the rake with the
        hand, honoring the grab-point semantics (center vs end).  A head
        or hand that is not a finite 3-vector is refused before the user
        is touched: a held rake would carry it into every user's frame.
        """
        head = _position(head_position, "head position")
        hand = _position(hand_position, "hand position")
        with self.lock:
            user = self._user(client_id)
            user.head_position = head
            user.hand_position = hand
            user.gesture = str(gesture)
            self._users_wire = None
            if gesture == "fist":
                if user.holding is None:
                    self.try_grab(client_id, user.hand_position)
                if user.holding is not None:
                    rake_id, grab = user.holding
                    self.rakes[rake_id].move(grab, user.hand_position)
                    self._bump()
            elif gesture == "open" and user.holding is not None:
                self.release(client_id)

    # -- wire ------------------------------------------------------------------

    def snapshot(self, wall: float) -> dict:
        """Serializable view of the environment for clients to render;
        its ``users`` map is shared until a user changes (read-only)."""
        with self.lock:
            if self._users_wire is None:
                self._users_wire = {
                    str(uid): u.to_wire() for uid, u in self.users.items()
                }
            snap = {
                "version": self.version,
                "clock": self.clock.snapshot(wall),
                "rakes": {
                    str(rid): {**rake.to_dict(), "owner": self.locks.get(rid)}
                    for rid, rake in self.rakes.items()
                },
                "users": self._users_wire,
            }
            for key, provider in self._state_providers.items():
                snap[key] = provider()
            return snap
