"""The conventional screen-and-mouse windtunnel.

The paper's conclusion: the distributed architecture "is also interesting
to those using conventional screen and mouse interfaces."  This example
drives the same client with :class:`~repro.vr.desktop.DesktopInput` —
mouse position maps to a hand in a working volume, the wheel sets depth,
left button grabs — and renders mono (no stereo writemasks).

Run:  python examples/desktop_windtunnel.py [output-dir]
"""

import sys
from pathlib import Path

import numpy as np

from repro import WindtunnelClient, WindtunnelServer, tapered_cylinder_dataset
from repro.vr import DesktopInput, MouseState
from repro.util import look_at

OUT = Path(
    sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent / "output"
)
OUT.mkdir(exist_ok=True)

dataset = tapered_cylinder_dataset(shape=(24, 24, 12), n_timesteps=12, dt=0.25)

# The mouse works in a volume spanning the near wake.
desktop = DesktopInput(volume_lo=(0.5, -2.0, 0.5), volume_hi=(3.0, 2.0, 3.0))

# A scripted mouse session: move to the rake end, press, drag up-right,
# release.  (An interactive front-end would feed real events here.)
mouse_events = (
    [MouseState(0.28, 0.15)] * 3
    + [MouseState(0.28, 0.15, left=True)] * 2
    + [MouseState(0.28 + f, 0.15 + f, left=True) for f in np.linspace(0, 0.4, 8)]
    + [MouseState(0.68, 0.55)] * 2
)

with WindtunnelServer(dataset, time_speed=2.0) as server:
    with WindtunnelClient(
        *server.address, name="desktop", width=640, height=480, stereo=False
    ) as client:
        a = desktop.hand_position(mouse_events[0])
        rake_id = client.add_rake(a, a + [0.0, 0.0, 1.0], n_seeds=8)
        head = look_at([2.0, -9.0, 2.0], [2.0, 0.0, 1.8], up=[0, 0, 1])

        for i, mouse in enumerate(mouse_events):
            hand = desktop.hand_position(mouse)
            gesture = desktop.gesture(mouse)
            client.frame(head, hand, gesture.value)
        fb = client.render(head)
        fb.save_ppm(OUT / "desktop_windtunnel.ppm")

        rake = server.env.rakes[rake_id]
        print(f"rake dragged by mouse to end A = {rake.end_a.round(2).tolist()}")
        print(f"mono frame written to {OUT / 'desktop_windtunnel.ppm'}")
        print(client.timer.report())
