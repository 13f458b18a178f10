"""Table 2 — disk bandwidth constraints.

Paper: bytes per timestep, timesteps per gigabyte, and required disk
bandwidth at 10 fps for five grid sizes; the Convex's 30-50 MB/s disk
handles the tapered cylinder (1.5 MB/timestep) but not the 36 MB/timestep
Harrier (section 5.1).

We reproduce (a) the analytic table, (b) *measured* timestep reads from a
real on-disk dataset, and (c) the modeled Convex read times with the
feasibility crossover.
"""

import numpy as np
import pytest

from repro.diskio import (
    CONVEX_DISK,
    required_disk_bandwidth_mbps,
    table2_rows,
    timesteps_per_gigabyte,
)
from repro.flow import DiskDataset

MB = 1 << 20

# (points, paper's printed bytes/timestep, paper timesteps/GB, paper MB/s)
PAPER_ROWS = [
    (131_072, 1_572_864, 682, 15.0),
    (436_906, 5_242_880, 204, 50.0),
    (1_000_000, 12_000_000, 89, 114.4),
    (3_000_000, 36_000_000, 29, 343.32),
    (10_000_000, 360_000_000, 2, 3433.2),  # paper used 36 B/pt here
]


def test_table2_analytic(record, benchmark):
    rows = benchmark(table2_rows)
    lines = ["points      bytes/step   steps/GB  required MB/s   paper MB/s"]
    for r, (pts, pbytes, psteps, pmbps) in zip(rows, PAPER_ROWS):
        lines.append(
            f"{r['points']:>10,}  {r['bytes_per_timestep']:>11,}  "
            f"{r['timesteps_per_gb']:>8}  {r['required_mbps']:>12.2f}   {pmbps:>9.2f}"
        )
    lines.append("")
    lines.append("note: the paper's 10M-point row uses 360,000,000 bytes/step")
    lines.append("(36 B/pt), inconsistent with the 12 B/pt of every other row;")
    lines.append("we report the self-consistent 120,000,000 B (1144.4 MB/s).")
    record("table2_analytic", lines)

    # Rows 1-4 match the paper exactly (row 2 differs by 8 bytes: the
    # paper rounded 436,906 x 12 = 5,242,872 up to 5,242,880).
    assert rows[0]["bytes_per_timestep"] == 1_572_864
    assert rows[0]["timesteps_per_gb"] == 682
    assert rows[0]["required_mbps"] == pytest.approx(15.0)
    assert rows[1]["timesteps_per_gb"] == 204
    assert rows[1]["required_mbps"] == pytest.approx(50.0, abs=0.01)
    assert rows[2]["timesteps_per_gb"] == 89
    assert rows[2]["required_mbps"] == pytest.approx(114.4, abs=0.05)
    assert rows[3]["bytes_per_timestep"] == 36_000_000
    assert rows[3]["timesteps_per_gb"] == 29
    assert rows[3]["required_mbps"] == pytest.approx(343.32, abs=0.01)


def test_table2_measured_disk_read(cylinder_dataset, tmp_path_factory, benchmark, record):
    """Measure real timestep reads from an on-disk dataset."""
    path = cylinder_dataset.save(tmp_path_factory.mktemp("table2") / "ds")
    disk = DiskDataset(path)
    state = {"t": 0}

    def read_next():
        v = disk.velocity(state["t"] % disk.n_timesteps)
        state["t"] += 1
        return v

    v = benchmark(read_next)
    assert v.shape == disk.grid.shape + (3,)
    per = disk.timestep_nbytes
    record(
        "table2_measured",
        [
            f"timestep size: {per:,} bytes",
            f"this machine reads one timestep with one positional read; the Convex",
            f"needed {required_disk_bandwidth_mbps(disk.grid.n_points):.1f} MB/s "
            f"sustained for 10 fps at this size",
        ],
    )


def test_table2_convex_feasibility(record, benchmark):
    """The paper's crossover: which rows the Convex disk can stream."""
    times = benchmark(
        lambda: [CONVEX_DISK.read_time(pts * 12) for pts, _, _, _ in PAPER_ROWS[:4]]
    )
    lines = ["points      modeled Convex read (ms)  fits 1/8 s budget?"]
    feasible = []
    for (pts, _, _, _), t in zip(PAPER_ROWS[:4], times):
        ok = t <= 0.125
        feasible.append(ok)
        lines.append(f"{pts:>10,}  {t * 1e3:>22.1f}  {'yes' if ok else 'NO'}")
    record("table2_feasibility", lines)
    # Tapered cylinder streams fine; million-point and larger do not.
    assert feasible[0] is True
    assert feasible[2] is False and feasible[3] is False
    # Section 5.1's headline numbers:
    assert CONVEX_DISK.max_timestep_bytes(0.125) > 3 * MB  # "~3.25 MB in 1/8 s"
    assert timesteps_per_gigabyte(131_072) == 682
