"""Velocity-field abstractions and grid sampling.

A :class:`VectorField` is a time-dependent velocity function
``v(points, t)``, vectorized over points.  Fields compose by addition
(superposition), which is how the tapered-cylinder model is assembled.
:func:`sample_on_grid` evaluates a field at every node of a curvilinear
grid for a sequence of times, producing the timestep arrays the windtunnel
consumes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.grid.curvilinear import CurvilinearGrid

__all__ = ["VectorField", "Superposition", "sample_on_grid"]


class VectorField(ABC):
    """Time-dependent velocity field ``v(x, t)``.

    Subclasses implement :meth:`sample`; ``field(points, t)`` is sugar for
    it.  Points are ``(N, 3)`` physical positions; the result is ``(N, 3)``
    velocities.  Fields must be vectorized — they are evaluated at every
    node of a 131k-point grid per timestep.
    """

    @abstractmethod
    def sample(self, points: np.ndarray, t: float) -> np.ndarray:
        """Velocities at ``points`` (shape ``(N, 3)``) at time ``t``."""

    def __call__(self, points: np.ndarray, t: float = 0.0) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        single = points.ndim == 1
        if single:
            points = points[None, :]
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {points.shape}")
        out = self.sample(points, float(t))
        return out[0] if single else out

    def __add__(self, other: "VectorField") -> "Superposition":
        if not isinstance(other, VectorField):
            return NotImplemented
        return Superposition([self, other])


class Superposition(VectorField):
    """Sum of component fields (linear superposition)."""

    def __init__(self, components: Sequence[VectorField]) -> None:
        flat: list[VectorField] = []
        for c in components:
            if isinstance(c, Superposition):
                flat.extend(c.components)
            else:
                flat.append(c)
        if not flat:
            raise ValueError("superposition needs at least one component")
        self.components = flat

    def sample(self, points: np.ndarray, t: float) -> np.ndarray:
        out = self.components[0].sample(points, t)
        out = np.array(out, dtype=np.float64, copy=True)
        for c in self.components[1:]:
            out += c.sample(points, t)
        return out


def sample_on_grid(
    field: VectorField,
    grid: CurvilinearGrid,
    times: Sequence[float] | np.ndarray,
    *,
    dtype=np.float32,
) -> np.ndarray:
    """Evaluate ``field`` at every grid node for each time in ``times``.

    Returns an array of shape ``(T, ni, nj, nk, 3)`` in ``dtype``
    (float32 by default — the paper's 4-byte budget of 12 bytes per node
    per timestep, Table 2).
    """
    ni, nj, nk = grid.shape
    pts = grid.xyz.reshape(-1, 3)
    out = np.empty((len(times), ni, nj, nk, 3), dtype=dtype)
    for ti, t in enumerate(times):
        out[ti] = field(pts, float(t)).reshape(ni, nj, nk, 3).astype(dtype)
    return out
