"""From Navier-Stokes solve to windtunnel: real simulated data end to end.

The paper visualizes *pre-computed* Navier-Stokes solutions.  This
example closes the loop inside this repository: run the 2-D projection
solver past a penalized cylinder until the wake destabilizes, package the
history as a windtunnel dataset, and explore it with streaklines — smoke
in genuinely simulated unsteady flow rather than the analytic wake model.

Run:  python examples/solver_to_windtunnel.py [output-dir]   (takes ~1-2 minutes)
"""

import sys
from pathlib import Path

import numpy as np

from repro import WindtunnelClient, WindtunnelServer
from repro.core import ToolSettings
from repro.flow import SolverConfig, cylinder_mask, solver_dataset
from repro.util import look_at

OUT = Path(
    sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent / "output"
)
OUT.mkdir(exist_ok=True)

# Cubic semi-Lagrangian advection keeps numerical diffusion low enough
# for the wake to destabilize; the slightly off-center body seeds the
# asymmetry (as free-stream turbulence would in a real tunnel).
config = SolverConfig(
    nx=128, ny=64, lx=8.0, ly=4.0, nu=1e-3, dt=0.02,
    penalization=5e-3, advection_order=3,
)
obstacle = cylinder_mask(config, center=(2.0, 1.95), radius=0.35)
print(f"solving 2-D Navier-Stokes at Re={config.reynolds:.0f} "
      f"on a {config.nx}x{config.ny} grid...")

# Spin the wake up past shedding onset, then record 24 timesteps.
dataset = solver_dataset(
    config,
    obstacle=obstacle,
    spinup_steps=1400,
    n_timesteps=24,
    sample_every=15,
    nk=4,
    height=0.5,
)
print(f"dataset: {dataset.grid}, {dataset.n_timesteps} timesteps, "
      f"dt={dataset.dt:.2f}")

# Confirm the recorded flow is actually unsteady in the wake: v at a
# centerline probe 1.5 diameters downstream of the body, over time.
i_probe = int(3.5 / config.dx)
wake = dataset.velocities[:, i_probe, config.ny // 2, 0, 1]
print(f"wake v-velocity range over time: [{wake.min():.3f}, {wake.max():.3f}]")
assert wake.max() - wake.min() > 0.3, "no vortex shedding?"

with WindtunnelServer(
    dataset,
    settings=ToolSettings(streakline_length=22, streamline_steps=120),
    time_speed=0.0,
) as server:
    with WindtunnelClient(*server.address, width=640, height=320) as client:
        client.add_rake(
            [2.45, 1.6, 0.25], [2.45, 2.4, 0.25], n_seeds=10, kind="streakline"
        )
        client.add_rake(
            [1.0, 1.0, 0.25], [1.0, 3.0, 0.25], n_seeds=8, kind="streamline"
        )
        head = look_at([4.0, 2.0, 6.0], [4.0, 2.0, 0.25], up=[0, 1, 0])
        client.time_control("pause")
        for step in range(dataset.n_timesteps - 1):
            client.time_control("step", 1)
            client.fetch_frame()
        fb = client.render(head)
        path = fb.save_ppm(OUT / "solver_smoke.ppm")
        n_pts = sum(
            int(p["lengths"].sum()) for p in client.latest_state["paths"].values()
        )
        print(f"streaklines in the computed vortex street "
              f"({n_pts} particles) -> {path}")
