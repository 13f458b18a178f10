"""Curvilinear grid substrate.

The paper's flowfields live on curvilinear grids "which contain the physical
position of each grid point and the velocity vector at that point"
(section 2.1).  Integration is performed in *grid* (computational)
coordinates to avoid a physical-space search per step; velocities are
pre-transformed into grid coordinates with the grid Jacobian, and resulting
paths are mapped back to physical space by trilinear lookup of node
positions.  This package implements all of that machinery, plus the
physical->grid point location needed to seed tools from hand positions.
"""

from repro.grid.curvilinear import CurvilinearGrid, cartesian_grid, cylindrical_grid
from repro.grid.interpolation import trilinear_interpolate, in_domain_mask
from repro.grid.jacobian import grid_jacobian, physical_to_grid_velocity
from repro.grid.search import GridLocator
__all__ = [
    "CurvilinearGrid",
    "cartesian_grid",
    "cylindrical_grid",
    "trilinear_interpolate",
    "in_domain_mask",
    "grid_jacobian",
    "physical_to_grid_velocity",
    "GridLocator",
]
