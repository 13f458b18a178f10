"""Rakes: lines of seed points with grab-and-move semantics.

Section 2.1: "Control over the seed points for all of the above tools are
provided by lines of seed points called rakes...  These rakes are grabbed
at one of three points: center for rigid translation of the rake, or at
either end for movement of that end of the rake.  In this way rakes may be
oriented in an arbitrary manner."  The number and type of seed points is
user-selectable, and several rakes may be active at once.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

__all__ = ["GrabPoint", "Rake"]


class GrabPoint(Enum):
    """Where a rake can be grabbed (section 2.1)."""

    CENTER = "center"
    END_A = "end_a"
    END_B = "end_b"


#: Tool kinds a rake can drive.
TOOL_KINDS = ("streamline", "streakline", "particle_path")


class Rake:
    """A line of seed points between two endpoints.

    Parameters
    ----------
    end_a, end_b
        Physical positions of the rake's endpoints.
    n_seeds
        Number of seed points, distributed uniformly from ``end_a`` to
        ``end_b`` inclusive (one seed degenerates to the midpoint).
    kind
        Tracer tool this rake drives: ``streamline``, ``streakline`` or
        ``particle_path``.
    """

    def __init__(
        self,
        end_a,
        end_b,
        n_seeds: int = 10,
        kind: str = "streamline",
        rake_id: int | None = None,
    ) -> None:
        if n_seeds < 1:
            raise ValueError("a rake needs at least one seed")
        if kind not in TOOL_KINDS:
            raise ValueError(f"unknown tool kind {kind!r}; expected one of {TOOL_KINDS}")
        self.end_a = np.asarray(end_a, dtype=np.float64).copy()
        self.end_b = np.asarray(end_b, dtype=np.float64).copy()
        if self.end_a.shape != (3,) or self.end_b.shape != (3,):
            raise ValueError("rake endpoints must be 3-vectors")
        if not all(map(math.isfinite, (*self.end_a, *self.end_b))):
            raise ValueError("rake endpoints must be finite")
        self.n_seeds = int(n_seeds)
        self.kind = kind
        self.rake_id = rake_id

    # -- geometry -------------------------------------------------------------

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.end_a + self.end_b)

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.end_b - self.end_a))

    def seeds(self) -> np.ndarray:
        """Seed positions, shape ``(n_seeds, 3)``, physical coordinates."""
        if self.n_seeds == 1:
            return self.center[None, :]
        frac = np.linspace(0.0, 1.0, self.n_seeds)[:, None]
        return self.end_a + frac * (self.end_b - self.end_a)

    # -- interaction ------------------------------------------------------------

    def grab_position(self, grab: GrabPoint) -> np.ndarray:
        """Physical position of a grab point."""
        if grab is GrabPoint.CENTER:
            return self.center
        if grab is GrabPoint.END_A:
            return self.end_a.copy()
        return self.end_b.copy()

    def move(self, grab: GrabPoint, new_position) -> None:
        """Move the rake by dragging one grab point to ``new_position``.

        Center drags translate rigidly; endpoint drags move only that end,
        reorienting the rake while the other end stays fixed.
        """
        new_position = np.asarray(new_position, dtype=np.float64)
        if new_position.shape != (3,):
            raise ValueError("new_position must be a 3-vector")
        if grab is GrabPoint.CENTER:
            delta = new_position - self.center
            self.end_a += delta
            self.end_b += delta
        elif grab is GrabPoint.END_A:
            self.end_a = new_position.copy()
        elif grab is GrabPoint.END_B:
            self.end_b = new_position.copy()
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unknown grab point {grab!r}")

    def nearest_grab(self, position, max_distance: float) -> GrabPoint | None:
        """The grab point nearest ``position`` within reach, else None.

        This is how the glove's grasp gesture selects what it grabs.
        """
        position = np.asarray(position, dtype=np.float64)
        candidates = [
            (GrabPoint.END_A, self.end_a),
            (GrabPoint.END_B, self.end_b),
            (GrabPoint.CENTER, self.center),
        ]
        best: GrabPoint | None = None
        best_d = max_distance
        for grab, pos in candidates:
            d = float(np.linalg.norm(position - pos))
            if d <= best_d:
                best, best_d = grab, d
        return best

    # -- serialization (for the command protocol) -------------------------------

    def to_dict(self) -> dict:
        return {
            "end_a": self.end_a.tolist(),
            "end_b": self.end_b.tolist(),
            "n_seeds": self.n_seeds,
            "kind": self.kind,
            "rake_id": self.rake_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Rake":
        return cls(
            data["end_a"],
            data["end_b"],
            n_seeds=data["n_seeds"],
            kind=data["kind"],
            rake_id=data.get("rake_id"),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Rake(id={self.rake_id}, kind={self.kind}, n_seeds={self.n_seeds}, "
            f"a={self.end_a.round(3).tolist()}, b={self.end_b.round(3).tolist()})"
        )
