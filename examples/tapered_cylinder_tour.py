"""A tour of the tapered-cylinder flow with all three tools.

Reproduces the investigation the paper demonstrates (figures 1-3): smoke
(streaklines) revealing the shed vortices, streamlines showing the
instantaneous wake geometry at two different times, and particle paths
tracing fluid elements through the unsteady flow — with the time controls
exercised (speed up, pause, step, reverse).

Writes an image sequence to ``examples/output/tour_*.ppm``.

Run:  python examples/tapered_cylinder_tour.py [output-dir]
"""

import sys
from pathlib import Path

import numpy as np

from repro import WindtunnelClient, WindtunnelServer, tapered_cylinder_dataset
from repro.core import ToolSettings
from repro.util import look_at

OUT = Path(
    sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent / "output"
)
OUT.mkdir(exist_ok=True)

print("synthesizing the tapered-cylinder dataset...")
dataset = tapered_cylinder_dataset(shape=(32, 32, 16), n_timesteps=20, dt=0.25)
print(f"  {dataset.grid}, {dataset.n_timesteps} timesteps, "
      f"{dataset.timestep_nbytes:,} bytes/timestep")

head = look_at([2.0, -10.0, 2.5], [3.0, 0.0, 2.0], up=[0, 0, 1])

with WindtunnelServer(
    dataset,
    settings=ToolSettings(streamline_steps=150, streakline_length=20),
    time_speed=4.0,  # four timesteps per wall second
) as server:
    with WindtunnelClient(*server.address, width=640, height=480) as client:
        # --- smoke: a streakline rake spanning the span of the body -----
        smoke = client.add_rake(
            [1.2, -1.2, 0.8], [1.2, 1.2, 3.2], n_seeds=12, kind="streakline"
        )
        # --- instantaneous geometry: a streamline rake -------------------
        lines = client.add_rake(
            [0.9, -2.0, 1.0], [0.9, 2.0, 3.0], n_seeds=10, kind="streamline"
        )
        # --- history: particle paths from a few seeds ---------------------
        paths = client.add_rake(
            [1.0, -0.8, 1.5], [1.0, 0.8, 2.5], n_seeds=5, kind="particle_path"
        )

        # Let the smoke develop: step frame by frame through the flow.
        client.time_control("pause")
        for step in range(16):
            client.time_control("step", 1)
            client.fetch_frame()
            if step % 4 == 0:
                fb = client.render(head)
                p = fb.save_ppm(OUT / f"tour_smoke_{step:02d}.ppm")
                state = client.latest_state
                n_pts = sum(int(x["lengths"].sum()) for x in state["paths"].values())
                print(f"  t={state['timestep']:>2}  {n_pts:>6,} particles  -> {p.name}")

        # The paper's figure 2/3 pair: same rake, two times.
        for label, t in (("fig2", 4), ("fig3", 12)):
            client.time_control("scrub", t)
            client.fetch_frame()
            fb = client.render(head)
            fb.save_ppm(OUT / f"tour_{label}_t{t}.ppm")
            print(f"  streamlines at t={t} -> tour_{label}_t{t}.ppm")

        # Run time backwards — "run backwards, or stopped completely".
        client.time_control("resume")
        client.time_control("reverse")
        snap = client.time_control("pause")
        print(f"  clock after reverse+pause: position={snap['position']:.2f}")

        stats = client.server_stats()
        print(
            f"server computed {stats['frames_computed']} frames, "
            f"{stats['points_computed']:,} total particle positions"
        )
print("done; images in", OUT)
