"""Common result container for tracer computations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grid.curvilinear import CurvilinearGrid
from repro.grid.interpolation import TrilinearScratch

__all__ = ["TracerResult"]


@dataclass
class TracerResult:
    """Paths produced by a tracer tool.

    Attributes
    ----------
    grid_paths
        Path vertices in grid coordinates, shape ``(S, L, 3)`` for S seeds
        and up to L points per path.
    lengths
        Valid point count per path, shape ``(S,)``.  A particle that left
        the domain has a shorter path; vertices beyond ``lengths[s]`` hold
        the last valid position (frozen, safe to render but redundant).
    grid
        The grid the coordinates refer to, used for physical conversion.
    """

    grid_paths: np.ndarray
    lengths: np.ndarray
    grid: CurvilinearGrid

    @property
    def n_paths(self) -> int:
        return self.grid_paths.shape[0]

    @property
    def n_points(self) -> int:
        """Total valid points — the paper's particle count (Tables 1, 3)."""
        return int(self.lengths.sum())

    def physical(self, dtype=np.float32) -> np.ndarray:
        """Convert all paths to physical coordinates.

        Returns ``(S, L, 3)`` in ``dtype``; float32 by default, making each
        point exactly the 12 bytes per point the paper ships over the
        network (section 5.1, Table 1).
        """
        s, l, _ = self.grid_paths.shape
        flat = self.grid.to_physical(self.grid_paths.reshape(-1, 3))
        return flat.reshape(s, l, 3).astype(dtype)

    def physical_polylines(self, dtype=np.float32) -> list[np.ndarray]:
        """Physical paths trimmed to their valid lengths (list of (Li, 3))."""
        full = self.physical(dtype)
        return [full[i, : self.lengths[i]] for i in range(self.n_paths)]

    def wire_arrays(self, dtype=np.float32) -> tuple[np.ndarray, np.ndarray]:
        """One-shot wire conversion: ``(vertices, lengths)`` ready to ship.

        The grid->physical conversion and the dtype narrowing run exactly
        once here; both arrays come back contiguous and *read-only*, so a
        published frame can hand the same buffers to every consumer
        without risking cross-client corruption.  This is the plain,
        per-result path; the frame pipeline's encode stage converts a
        whole frame at once through :func:`wire_arrays_batch`.
        """
        return self._frozen(np.ascontiguousarray(self.physical(dtype)))

    def _frozen(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(vertices, int64 lengths)``, both read-only."""
        lengths = np.ascontiguousarray(self.lengths.astype(np.int64))
        vertices.setflags(write=False)
        lengths.setflags(write=False)
        return vertices, lengths

    @property
    def nbytes_wire(self) -> int:
        """Bytes this result occupies on the wire at 12 bytes/point."""
        return self.n_points * 12


def wire_arrays_batch(results: dict, scratch: TrilinearScratch) -> dict:
    """:meth:`TracerResult.wire_arrays` for a whole frame, converted at once.

    ``{rid: (vertices, lengths)}`` in the order of ``results``.  Every
    :class:`TracerResult` on the frame's grid goes grid -> physical
    through **one** component-major sample on ``scratch`` (the encode
    thread's), cast straight into its float32 wire array — bit-identical
    to converting each result alone, without the per-rake launches and
    temporaries.  Anything else (a result on another grid, a stand-in
    that only knows ``wire_arrays``) converts itself.
    """
    batch = {rid: r for rid, r in results.items() if isinstance(r, TracerResult)}
    grid = next(iter(batch.values())).grid if batch else None
    wire = {
        rid: np.empty(r.grid_paths.shape, dtype=np.float32)
        for rid, r in batch.items()
        if r.grid is grid
    }
    if wire:
        scratch.sample_blocks(
            grid.xyz, [batch[rid].grid_paths for rid in wire], list(wire.values())
        )
    return {
        rid: r._frozen(wire[rid]) if rid in wire else r.wire_arrays()
        for rid, r in results.items()
    }
