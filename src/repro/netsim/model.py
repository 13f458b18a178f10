"""Analytic network models — the accounting behind Table 1.

The paper ships each path vertex as three 4-byte floats: "the transfer of
12 bytes per point in each array" (section 5.1), having rejected remote
screen-space projection because stereo would need two projections
(16 bytes/point).  Table 1 then tabulates the bandwidth needed to sustain
ten frames per second; the paper's megabyte is binary (2^20 bytes), which
is how 120,000 bytes * 10/s comes out at 1.144 MB/s.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "NetworkModel",
    "BYTES_PER_POINT",
    "BYTES_PER_POINT_QUANTIZED",
    "ULTRANET_RATED",
    "ULTRANET_VME",
    "ULTRANET_ACTUAL",
    "HIPPI",
    "ETHERNET_10",
    "bytes_per_frame",
    "required_bandwidth_mbps",
    "max_particles_for_bandwidth",
    "table1_rows",
]

MB = float(1 << 20)  # the paper's (binary) megabyte

#: Bytes shipped per path vertex: three IEEE float32 components.
BYTES_PER_POINT = 12

#: Bytes per point if the remote projected to stereo screen space instead
#: (two projections x two 4-byte coords) — the alternative section 5.1
#: rejects.
BYTES_PER_POINT_STEREO_PROJECTED = 16

#: Bytes per point under the v2 quantized encoding (three int16
#: fixed-point components) — half the paper's 12 (docs/network.md).  An
#: *upper bound* for ``q16``, whose int16 grid ships losslessly packed
#: and lands well below it on smooth paths (about 2 bytes/point at paper
#: scale).  How far below depends on the data, so no packed constant is
#: fitted here.  The q16 per-rake scale/offset header (24 bytes) is
#: amortized across the rake's points and ignored here.
BYTES_PER_POINT_QUANTIZED = 6


@dataclass(frozen=True)
class NetworkModel:
    """A network characterized by bandwidth and per-message latency."""

    name: str
    bandwidth: float  # bytes/second
    latency: float = 0.0  # seconds per message

    def transfer_time(self, nbytes: int) -> float:
        """Wall-clock seconds to move ``nbytes`` one way."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.latency + nbytes / self.bandwidth

    def sustainable_fps(self, nbytes_per_frame: int) -> float:
        """Frame rate this network alone can sustain for a given payload."""
        t = self.transfer_time(nbytes_per_frame)
        return 1.0 / t if t > 0 else float("inf")

    def supports(self, particles: int, fps: float = 10.0) -> bool:
        """Can this network carry ``particles`` at ``fps``? (Table 1 test)"""
        return self.sustainable_fps(bytes_per_frame(particles)) >= fps


# The paper's network tiers (section 5.1).
ULTRANET_RATED = NetworkModel("UltraNet (rated)", 100.0 * MB)
ULTRANET_VME = NetworkModel("UltraNet via SGI VME interface", 13.0 * MB)
ULTRANET_ACTUAL = NetworkModel("UltraNet (measured, 1992 software)", 1.0 * MB)
HIPPI = NetworkModel("HIPPI", 100.0 * MB)
ETHERNET_10 = NetworkModel("10 Mb/s Ethernet", 10e6 / 8.0)


def bytes_per_frame(particles: int, bytes_per_point: int = BYTES_PER_POINT) -> int:
    """Bytes transferred per visualization update for ``particles``."""
    if particles < 0:
        raise ValueError("particle count must be non-negative")
    return particles * bytes_per_point


def required_bandwidth_mbps(
    particles: int, fps: float = 10.0, bytes_per_point: int = BYTES_PER_POINT
) -> float:
    """Bandwidth (binary MB/s) needed for ``particles`` at ``fps``.

    Table 1's third column: 10,000 particles at 10 fps -> 1.144 MB/s.
    """
    if fps <= 0:
        raise ValueError("fps must be positive")
    return bytes_per_frame(particles, bytes_per_point) * fps / MB


def max_particles_for_bandwidth(
    bandwidth_bytes: float, fps: float = 10.0, bytes_per_point: int = BYTES_PER_POINT
) -> int:
    """Largest particle count a given bandwidth sustains at ``fps``."""
    if fps <= 0:
        raise ValueError("fps must be positive")
    return int(bandwidth_bytes / (fps * bytes_per_point))


def table1_rows(
    particle_counts=(10_000, 50_000, 100_000), fps: float = 10.0
) -> list[dict]:
    """Regenerate Table 1: particle count, bytes/frame, required MB/s."""
    return [
        {
            "particles": n,
            "bytes_transferred": bytes_per_frame(n),
            "required_mbps": required_bandwidth_mbps(n, fps),
        }
        for n in particle_counts
    ]
