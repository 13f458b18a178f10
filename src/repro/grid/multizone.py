"""Multi-zone (multiple-grid) composite datasets.

"Further work includes the extension of the computational algorithms to
handle multiple grid data sets" (section 7).  Production CFD of the era
(and PLOT3D files) used several overlapping body-fitted zones.  This module
implements that extension: a particle lives in (zone, grid-coords) and is
re-located into a neighbouring zone when it leaves its current one.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.grid.curvilinear import CurvilinearGrid
from repro.grid.search import GridLocator

__all__ = ["MultiZoneGrid"]


class MultiZoneGrid:
    """An ordered collection of curvilinear zones with cross-zone location.

    Zones are searched in order; a physical point belongs to the first zone
    that contains it.  Zone priority therefore resolves points in overlap
    regions deterministically, mirroring overset-grid practice.
    """

    def __init__(self, zones: Sequence[CurvilinearGrid]) -> None:
        if len(zones) == 0:
            raise ValueError("need at least one zone")
        self.zones = list(zones)
        self.locators = [GridLocator(z) for z in self.zones]

    @property
    def n_points(self) -> int:
        return sum(z.n_points for z in self.zones)

    def locate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Locate physical points across all zones.

        Returns ``(zone_ids, coords, found)``: for each point the id of the
        owning zone (-1 if none), fractional grid coordinates within that
        zone, and a found mask.
        """
        points = np.asarray(points, dtype=np.float64)
        single = points.ndim == 1
        if single:
            points = points[None, :]
        n = len(points)
        zone_ids = np.full(n, -1, dtype=np.intp)
        coords = np.zeros((n, 3), dtype=np.float64)
        remaining = np.ones(n, dtype=bool)
        for zid, locator in enumerate(self.locators):
            if not remaining.any():
                break
            idx = np.nonzero(remaining)[0]
            c, found = locator.locate(points[idx])
            hit = idx[found]
            zone_ids[hit] = zid
            coords[hit] = c[found]
            remaining[hit] = False
        found = zone_ids >= 0
        if single:
            return zone_ids[0], coords[0], found[0]
        return zone_ids, coords, found

    def to_physical(self, zone_ids: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Map (zone, grid-coords) pairs back to physical space."""
        zone_ids = np.asarray(zone_ids)
        coords = np.asarray(coords, dtype=np.float64)
        single = coords.ndim == 1
        if single:
            coords = coords[None, :]
            zone_ids = np.atleast_1d(zone_ids)
        out = np.zeros_like(coords)
        for zid in np.unique(zone_ids):
            if zid < 0:
                continue
            mask = zone_ids == zid
            out[mask] = self.zones[zid].to_physical(coords[mask])
        return out[0] if single else out

    def rehome(
        self, zone_ids: np.ndarray, coords: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Re-locate particles whose coordinates left their current zone.

        Particles still inside their zone are untouched (no search cost);
        escapees are converted to physical space and re-located across all
        zones.  Returns updated ``(zone_ids, coords, alive)`` where
        ``alive`` is False for particles that left the composite domain.
        """
        zone_ids = np.array(zone_ids, copy=True)
        coords = np.array(coords, dtype=np.float64, copy=True)
        alive = zone_ids >= 0
        escaped = np.zeros(len(coords), dtype=bool)
        for zid in np.unique(zone_ids[alive]):
            mask = zone_ids == zid
            inside = self.zones[zid].contains(coords[mask])
            esc = np.nonzero(mask)[0][~inside]
            escaped[esc] = True
        if escaped.any():
            idx = np.nonzero(escaped)[0]
            # The escape position in physical space: clamp to the zone
            # boundary, then extrapolate with the boundary cell's Jacobian
            # (first order — escapees are a fraction of a cell outside).
            from repro.grid.jacobian import jacobian_at

            phys = np.empty((len(idx), 3))
            for zid in np.unique(zone_ids[idx]):
                sub = zone_ids[idx] == zid
                zone = self.zones[zid]
                dims = np.asarray(zone.shape, dtype=np.float64) - 1.0
                c = coords[idx[sub]]
                clamped = np.clip(c, 0.0, dims)
                jac = jacobian_at(zone.xyz, clamped)
                phys[sub] = zone.to_physical(clamped) + np.einsum(
                    "nij,nj->ni", jac, c - clamped
                )
            new_zone, new_coords, found = self.locate(phys)
            zone_ids[idx] = np.where(found, new_zone, -1)
            coords[idx[found]] = new_coords[found]
            alive[idx] = found
        return zone_ids, coords, alive
