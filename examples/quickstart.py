"""Quickstart: a distributed virtual windtunnel in ~30 lines.

Builds a small synthetic tapered-cylinder dataset, starts the remote
system (server) and a workstation (client) connected over loopback TCP,
drops a streamline rake into the wake, runs one full interaction cycle,
and writes the stereo frame to ``examples/output/quickstart.ppm``.

Run:  python examples/quickstart.py [output-dir]
"""

import sys
from pathlib import Path

from repro import WindtunnelClient, WindtunnelServer, tapered_cylinder_dataset
from repro.util import look_at

OUT = Path(
    sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent / "output"
)
OUT.mkdir(exist_ok=True)

# 1. The dataset: unsteady flow past a tapered cylinder (the paper's demo
#    case, synthesized — see DESIGN.md).  16k grid points, 12 timesteps.
dataset = tapered_cylinder_dataset(shape=(24, 24, 12), n_timesteps=12, dt=0.25)
print(f"dataset: {dataset.grid} x {dataset.n_timesteps} timesteps "
      f"({dataset.total_nbytes / 2**20:.1f} MB)")

# 2. The remote system (the paper's Convex C3240).
with WindtunnelServer(dataset, time_speed=2.0) as server:
    host, port = server.address
    print(f"server listening on {host}:{port}")

    # 3. A workstation client (the paper's SGI Iris + BOOM + glove).
    with WindtunnelClient(host, port, name="quickstart", width=640, height=480) as client:
        # A rake of 10 streamline seeds spanning the near wake.
        rake_id = client.add_rake(
            [1.2, -1.5, 0.8], [1.2, 1.5, 2.8], n_seeds=10, kind="streamline"
        )
        print(f"added rake {rake_id}")

        # One full interaction cycle: send input, fetch the computed
        # visualization, render head-tracked anaglyph stereo.
        head = look_at([2.0, -9.0, 2.0], [3.0, 0.0, 2.0], up=[0, 0, 1])
        fb = client.frame(head, hand_position=[1.2, 0.0, 1.8])
        path = fb.save_ppm(OUT / "quickstart.ppm")
        print(f"wrote {path} ({fb.nonblack_pixels()} lit pixels)")
        print(client.timer.report())
