"""Analytic wire model for v2 frame delivery (docs/network.md).

Table 1 priced the paper's delivery at 12 bytes per point per frame,
every frame, to every client.  The v2 layer cuts that two ways —
quantization (6 bytes/point) and deltas (only rakes whose geometry
changed ship at all) — and this module prices the combination, so
benchmarks can check the measured reduction against what the encoding
arithmetic predicts.

For ``q16`` the prediction is an upper bound: the wire form packs the
int16 grid losslessly (``repro.dlib.pack_q16``) by an amount that
depends on how smooth the paths are and on how few of the int16 levels
each axis's error-budget step uses (``quantize_points``), which
arithmetic cannot know.  6 bytes/point stays the bound whatever the
step.  ``benchmarks/test_wire_efficiency.py`` gates measured <= model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netsim.model import BYTES_PER_POINT, BYTES_PER_POINT_QUANTIZED

__all__ = ["SessionWireModel", "frame_payload_bytes"]

#: Approximate per-rake envelope overhead of a keyframe paths-dict
#: entry beyond the point payload: the rake key, the entry dict header,
#: the ``kind`` string, array headers, and the int64 lengths array.  A
#: predicted ``q16`` entry leaves out the ``kind`` and ``lengths`` the
#: reader holds, so there it over-counts, as an upper bound may.  Small
#: against thousands of points; counted so tiny-frame predictions stay
#: honest.
RAKE_OVERHEAD_BYTES = 120


def frame_payload_bytes(
    n_points: int,
    *,
    encoding: str = "v1",
    n_rakes: int = 1,
) -> int:
    """Predicted ``paths`` payload bytes for one full (keyframe) frame.

    Exact arithmetic for ``v1``.  For ``q16`` it is the
    unpacked 6 bytes/point: the packed form undercuts it on any smooth
    path, and on incompressible input exceeds it only by deflate's
    stored-block framing (tens of bytes per entry).
    """
    if n_points < 0:
        raise ValueError("n_points must be non-negative")
    per_point = BYTES_PER_POINT if encoding == "v1" else BYTES_PER_POINT_QUANTIZED
    return n_points * per_point + n_rakes * RAKE_OVERHEAD_BYTES


@dataclass(frozen=True)
class SessionWireModel:
    """Wire cost of an interactive session, v1 versus v2.

    Parameters describe the session shape: ``n_frames`` fetches of a
    scene with ``n_points`` path points across ``n_rakes`` rakes, where
    on average ``changed_fraction`` of the rakes (by point count) differ
    from the client's previous frame — e.g. dragging one of eight rakes
    under a paused clock gives 1/8.
    """

    n_frames: int
    n_points: int
    n_rakes: int = 8
    changed_fraction: float = 0.125

    def v1_bytes(self) -> int:
        """Total ``paths`` bytes the pre-PR protocol ships."""
        per_frame = frame_payload_bytes(self.n_points, n_rakes=self.n_rakes)
        return self.n_frames * per_frame

    def v2_bytes(self, *, encoding: str = "q16") -> int:
        """Total ``paths`` bytes with deltas plus the given encoding.

        Frame one is a keyframe; every later frame ships only the
        changed fraction of the scene.
        """
        key = frame_payload_bytes(
            self.n_points,
            encoding=encoding,
            n_rakes=self.n_rakes,
        )
        changed_points = int(self.n_points * self.changed_fraction)
        changed_rakes = max(1, int(round(self.n_rakes * self.changed_fraction)))
        delta = frame_payload_bytes(
            changed_points,
            encoding=encoding,
            n_rakes=changed_rakes,
        )
        return key + (self.n_frames - 1) * delta

    def reduction(self, *, encoding: str = "q16") -> float:
        """v1 bytes over v2 bytes — the wire bench's headline ratio."""
        v2 = self.v2_bytes(encoding=encoding)
        return self.v1_bytes() / v2 if v2 else float("inf")
