"""Disk-resident datasets: residency planning and prefetched streaming.

Section 5.1-5.2: datasets that exceed the remote machine's memory stream
from disk, one timestep per frame, with the next timestep prefetched
while the current one is computed on (figure 8).  This example saves a
dataset to disk, plans its residency against a deliberately tiny memory
budget, sweeps through playback with a double-buffered loader under the
modeled Convex disk, and prints the Table 2 feasibility story.

Run:  python examples/large_dataset_streaming.py
"""

import tempfile
import time
from pathlib import Path

from repro import WindtunnelServer, WindtunnelClient, tapered_cylinder_dataset
from repro.core import ToolSettings
from repro.diskio import CONVEX_DISK, TimestepLoader, plan_residency, table2_rows
from repro.flow import DiskDataset
from repro.util import look_at

dataset = tapered_cylinder_dataset(shape=(32, 32, 16), n_timesteps=24, dt=0.25)

with tempfile.TemporaryDirectory() as tmp:
    path = dataset.save(Path(tmp) / "cylinder")
    disk_ds = DiskDataset(path)
    print(f"dataset on disk: {disk_ds.total_nbytes / 2**20:.1f} MB "
          f"({disk_ds.n_timesteps} x {disk_ds.timestep_nbytes:,} B)")

    # --- residency planning against a tiny 'remote memory' ----------------
    budget = disk_ds.timestep_nbytes * 6  # room for only 6 timesteps
    plan = plan_residency(disk_ds, memory_bytes=budget)
    print(f"memory budget {budget / 2**20:.1f} MB -> "
          f"fits_in_memory={plan.fits_in_memory}, "
          f"window={plan.window_timesteps} timesteps, "
          f"max particle path={plan.max_particle_path_steps} steps, "
          f"needs {plan.required_disk_mbps:.1f} MB/s of disk")
    print(f"feasible on the Convex disk (30-50 MB/s)? "
          f"{plan.feasible_at(CONVEX_DISK.min_bandwidth)}")

    # --- streaming playback with prefetch (figure 8) -----------------------
    loader = TimestepLoader(disk_ds, disk_model=CONVEX_DISK)
    server = WindtunnelServer(
        disk_ds,
        settings=ToolSettings(streamline_steps=80,
                              max_window=plan.window_timesteps),
        loader=loader,
        time_speed=8.0,
    )
    server.start()
    try:
        client = WindtunnelClient(*server.address, width=320, height=240)
        client.add_rake([1.2, -1.5, 1.0], [1.2, 1.5, 3.0], n_seeds=8)
        head = look_at([2, -9, 2], [3, 0, 2], up=[0, 0, 1])
        t0 = time.perf_counter()
        frames = 0
        while time.perf_counter() - t0 < 3.0:
            client.frame(head, hand_position=[1.2, 0, 2])
            frames += 1
        print(f"\nstreamed {frames} frames in 3 s "
              f"({frames / 3.0:.1f} fps) with modeled Convex disk timing")
        print(f"loader: hits={loader.hits.value} misses={loader.misses.value} "
              f"prefetches={loader.prefetch_issued.value} "
              f"stall={loader.cache.l1.stats.stall_seconds.value * 1e3:.1f} ms "
              f"modeled read time="
              f"{loader.cache.source.stats.stall_seconds.value:.2f} s")
        client.close()
    finally:
        server.stop()

# --- the Table 2 story -------------------------------------------------------
print("\nTable 2 (disk bandwidth constraints at 10 fps, 12 B/point):")
print(f"{'points':>12} {'bytes/step':>13} {'steps/GB':>9} {'MB/s':>9} "
      f"{'Convex?':>8}")
for row in table2_rows():
    ok = CONVEX_DISK.read_time(row["bytes_per_timestep"]) <= 0.125
    print(f"{row['points']:>12,} {row['bytes_per_timestep']:>13,} "
          f"{row['timesteps_per_gb']:>9} {row['required_mbps']:>9.1f} "
          f"{'yes' if ok else 'NO':>8}")
