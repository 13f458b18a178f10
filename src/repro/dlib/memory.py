"""Remote memory segments.

Section 4: "Due to the persistent nature of the remote environment, dlib
is able to coordinate allocation and use of remote memory segments" — the
mechanism that lets a workstation client park a gigabyte-scale dataset in
the Convex's memory and operate on it by handle.  A
:class:`MemoryManager` lives inside the server context; clients hold
opaque :class:`SegmentHandle` ids and read/write slices by offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MemoryManager", "SegmentHandle"]


@dataclass(frozen=True)
class SegmentHandle:
    """Opaque reference to a remote memory segment."""

    segment_id: int
    nbytes: int

    def to_wire(self) -> dict:
        return {"segment_id": self.segment_id, "nbytes": self.nbytes}

    @classmethod
    def from_wire(cls, data: dict) -> "SegmentHandle":
        return cls(int(data["segment_id"]), int(data["nbytes"]))


class MemoryManager:
    """Server-side pool of byte segments with an allocation budget.

    The budget models the remote machine's physical memory (the paper's
    Convex had 1 GB); exceeding it raises ``MemoryError``, which surfaces
    to the client as a remote error.
    """

    def __init__(self, budget_bytes: int | None = None) -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError("budget must be positive (or None for unlimited)")
        self.budget_bytes = budget_bytes
        self._segments: dict[int, np.ndarray] = {}
        self._next_id = 1
        self.allocated_bytes = 0

    def alloc(self, nbytes: int) -> SegmentHandle:
        """Allocate a zeroed segment of ``nbytes`` bytes."""
        if nbytes <= 0:
            raise ValueError("segment size must be positive")
        if (
            self.budget_bytes is not None
            and self.allocated_bytes + nbytes > self.budget_bytes
        ):
            raise MemoryError(
                f"allocation of {nbytes} bytes exceeds remote budget "
                f"({self.allocated_bytes}/{self.budget_bytes} in use)"
            )
        seg = np.zeros(nbytes, dtype=np.uint8)
        handle = SegmentHandle(self._next_id, nbytes)
        self._segments[handle.segment_id] = seg
        self._next_id += 1
        self.allocated_bytes += nbytes
        return handle

    def _get(self, segment_id: int) -> np.ndarray:
        seg = self._segments.get(int(segment_id))
        if seg is None:
            raise KeyError(f"no such segment {segment_id}")
        return seg

    def write(self, segment_id: int, offset: int, data: bytes) -> None:
        """Write ``data`` into a segment at ``offset``."""
        seg = self._get(segment_id)
        data = np.frombuffer(bytes(data), dtype=np.uint8)
        if offset < 0 or offset + len(data) > seg.size:
            raise ValueError(
                f"write of {len(data)} bytes at offset {offset} overruns "
                f"segment of {seg.size} bytes"
            )
        seg[offset : offset + len(data)] = data

    def read(self, segment_id: int, offset: int = 0, nbytes: int | None = None) -> bytes:
        """Read ``nbytes`` (default: to the end) from a segment."""
        seg = self._get(segment_id)
        if nbytes is None:
            nbytes = seg.size - offset
        if offset < 0 or nbytes < 0 or offset + nbytes > seg.size:
            raise ValueError(
                f"read of {nbytes} bytes at offset {offset} overruns "
                f"segment of {seg.size} bytes"
            )
        return seg[offset : offset + nbytes].tobytes()

    def free(self, segment_id: int) -> None:
        """Release a segment; freeing twice is an error."""
        seg = self._segments.pop(int(segment_id), None)
        if seg is None:
            raise KeyError(f"no such segment {segment_id}")
        self.allocated_bytes -= seg.size
