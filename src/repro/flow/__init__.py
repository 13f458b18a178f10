"""CFD flowfield substrate.

The paper visualizes *pre-computed* solutions of the time-accurate
Navier-Stokes equations, "represented as a sequence of successive
three-dimensional velocity vector fields" (section 1.1), demonstrated on
the unsteady flow around a tapered cylinder (Jespersen & Levit): ~1.5 MB of
velocity data per timestep, 800 timesteps.

We do not have the original NASA dataset, so this package supplies the
closest synthetic equivalents (see DESIGN.md):

* :mod:`repro.flow.analytic` — closed-form unsteady velocity fields
  (uniform flow, Lamb-Oseen vortices, ABC flow, shear layers).
* :mod:`repro.flow.taperedcylinder` — a tapered-cylinder wake model with
  von Karman vortex shedding whose frequency varies along the span, on the
  same 64x64x32 curvilinear O-grid footprint as the paper's dataset.
* :mod:`repro.flow.solver` — a genuine 2-D incompressible Navier-Stokes
  solver (Chorin projection, FFT Poisson solve, volume-penalized obstacle)
  for producing real simulated unsteady data at laptop scale.
* :mod:`repro.flow.dataset` — timestep-sequence containers, memory- or
  disk-resident, with the physical->grid velocity conversion.
"""

from repro.flow.fields import Superposition, VectorField, sample_on_grid
from repro.flow.analytic import (
    LambOseenVortex,
    OscillatingShearLayer,
    RigidRotation,
    UniformFlow,
)
from repro.flow.taperedcylinder import TaperedCylinderFlow, tapered_cylinder_dataset
from repro.flow.solver import (
    NavierStokes2D,
    SolverConfig,
    cylinder_mask,
    solver_dataset,
    tapered_cylinder_mask,
)
from repro.flow.dataset import DiskDataset, MemoryDataset, UnsteadyDataset

__all__ = [
    "VectorField",
    "Superposition",
    "sample_on_grid",
    "UniformFlow",
    "RigidRotation",
    "LambOseenVortex",
    "OscillatingShearLayer",
    "TaperedCylinderFlow",
    "tapered_cylinder_dataset",
    "NavierStokes2D",
    "SolverConfig",
    "cylinder_mask",
    "tapered_cylinder_mask",
    "solver_dataset",
    "UnsteadyDataset",
    "MemoryDataset",
    "DiskDataset",
]
