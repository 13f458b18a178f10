"""Closed-form velocity fields.

These serve three roles: building blocks for the tapered-cylinder wake
model, ground-truth fields for testing the integrators (a rigid rotation
has known circular particle paths; a uniform flow has straight ones), and
lightweight demo flows for the examples.
"""

from __future__ import annotations

import numpy as np

from repro.flow.fields import VectorField

__all__ = [
    "UniformFlow",
    "RigidRotation",
    "LambOseenVortex",
    "OscillatingShearLayer",
]


class UniformFlow(VectorField):
    """Constant free-stream velocity."""

    def __init__(self, velocity=(1.0, 0.0, 0.0)) -> None:
        self.velocity = np.asarray(velocity, dtype=np.float64)
        if self.velocity.shape != (3,):
            raise ValueError("velocity must be a 3-vector")

    def sample(self, points: np.ndarray, t: float) -> np.ndarray:
        return np.broadcast_to(self.velocity, points.shape).copy()


class RigidRotation(VectorField):
    """Solid-body rotation ``v = omega x (p - center)``.

    Streamlines, streaklines and particle paths all coincide on circles —
    a sharp test of integrator accuracy (energy/radius drift measures the
    RK2 error directly).
    """

    def __init__(self, omega=(0.0, 0.0, 1.0), center=(0.0, 0.0, 0.0)) -> None:
        self.omega = np.asarray(omega, dtype=np.float64)
        self.center = np.asarray(center, dtype=np.float64)

    def sample(self, points: np.ndarray, t: float) -> np.ndarray:
        return np.cross(self.omega, points - self.center)


class LambOseenVortex(VectorField):
    """Regularized line vortex along an axis through ``center``.

    Tangential speed ``v_theta = Gamma / (2 pi r) * (1 - exp(-r^2/rc^2))``;
    finite at the core, ideal-vortex far field.  Axis is +z.  ``advect``
    translates the vortex center with time (a shed wake vortex drifting
    downstream).
    """

    def __init__(
        self,
        gamma: float,
        center=(0.0, 0.0, 0.0),
        core_radius: float = 0.2,
        advect=(0.0, 0.0, 0.0),
    ) -> None:
        if core_radius <= 0.0:
            raise ValueError("core_radius must be positive")
        self.gamma = float(gamma)
        self.center = np.asarray(center, dtype=np.float64)
        self.core_radius = float(core_radius)
        self.advect = np.asarray(advect, dtype=np.float64)

    def sample(self, points: np.ndarray, t: float) -> np.ndarray:
        c = self.center + self.advect * t
        dx = points[:, 0] - c[0]
        dy = points[:, 1] - c[1]
        r2 = dx * dx + dy * dy
        rc2 = self.core_radius**2
        # v_theta / r, finite at r=0 (limit Gamma/(2 pi rc^2)).
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = self.gamma / (2.0 * np.pi * r2) * (-np.expm1(-r2 / rc2))
        factor = np.where(r2 > 0.0, factor, self.gamma / (2.0 * np.pi * rc2))
        out = np.zeros_like(points)
        out[:, 0] = -dy * factor
        out[:, 1] = dx * factor
        return out


class OscillatingShearLayer(VectorField):
    """Time-periodic shear layer: unsteady but analytically simple.

    ``u = U tanh(y / delta)``, ``v = eps sin(k x - omega t)``.  Streaklines
    in this flow roll up into the familiar Kelvin-Helmholtz billows,
    making it a good unsteady smoke demo.
    """

    def __init__(
        self,
        u_max: float = 1.0,
        delta: float = 0.5,
        eps: float = 0.15,
        k: float = 2.0,
        omega: float = 1.5,
    ) -> None:
        self.u_max = float(u_max)
        self.delta = float(delta)
        self.eps = float(eps)
        self.k = float(k)
        self.omega = float(omega)

    def sample(self, points: np.ndarray, t: float) -> np.ndarray:
        out = np.zeros_like(points)
        out[:, 0] = self.u_max * np.tanh(points[:, 1] / self.delta)
        out[:, 1] = self.eps * np.sin(self.k * points[:, 0] - self.omega * t)
        return out

