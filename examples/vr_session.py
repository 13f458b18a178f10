"""A scripted VR session: BOOM + DataGlove driving the windtunnel.

The full section-3 interface, with the human replaced by a motion script:
boom joint angles (quantized by the optical encoders) produce the
head-tracked viewpoint; the glove's Polhemus tracker and calibrated bend
sensors produce hand position and gestures; a fist near the rake grabs
it and sweeps it through the wake while the BOOM orbits.

Writes frames to ``examples/output/vr_*.ppm``.

Run:  python examples/vr_session.py [output-dir]
"""

import sys
from pathlib import Path

import numpy as np

from repro import WindtunnelClient, WindtunnelServer, tapered_cylinder_dataset
from repro.core import ToolSettings
from repro.vr import (
    Boom,
    Calibration,
    DataGlove,
    GestureRecognizer,
    Keyframe,
    MotionScript,
    PolhemusTracker,
)
from repro.vr.gestures import CANONICAL_BENDS, Gesture

OUT = Path(
    sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent / "output"
)
OUT.mkdir(exist_ok=True)

OPEN = tuple(CANONICAL_BENDS[Gesture.OPEN] * 0.9 + 0.05)
FIST = tuple(CANONICAL_BENDS[Gesture.FIST] * 0.9 + 0.05)

# The operator: reach to the rake end at (1.2, -1.5, 1.0), grab, sweep it
# across the wake, release — while slowly swinging the boom.
script = MotionScript(
    [
        Keyframe(0.0, hand_position=(1.2, -2.5, 1.0), bends=OPEN,
                 boom_angles=(0.0, 0.15, -0.3, 0.0, -0.1, 0.0)),
        Keyframe(1.0, hand_position=(1.2, -1.5, 1.0), bends=OPEN,
                 boom_angles=(0.05, 0.15, -0.3, 0.0, -0.1, 0.0)),
        Keyframe(1.2, hand_position=(1.2, -1.5, 1.0), bends=FIST,
                 boom_angles=(0.05, 0.15, -0.3, 0.0, -0.1, 0.0)),
        Keyframe(3.5, hand_position=(1.2, 1.5, 2.0), bends=FIST,
                 boom_angles=(0.25, 0.2, -0.35, 0.0, -0.1, 0.0)),
        Keyframe(3.7, hand_position=(1.2, 1.5, 2.0), bends=OPEN,
                 boom_angles=(0.25, 0.2, -0.35, 0.0, -0.1, 0.0)),
    ]
)

# Devices: per-user glove calibration + a noisy Polhemus with the scene
# inside its working radius.
glove = DataGlove(
    tracker=PolhemusTracker(source=(1.0, 0.0, 1.5), noise_std=0.002,
                            max_range=4.0, seed=42),
    calibration=Calibration.fit(np.full(10, 0.05), np.full(10, 0.95)),
)
recognizer = GestureRecognizer(hold_frames=2)
boom = Boom()

# The windtunnel itself.
dataset = tapered_cylinder_dataset(shape=(24, 24, 12), n_timesteps=16, dt=0.25)
with WindtunnelServer(
    dataset, settings=ToolSettings(streamline_steps=100), time_speed=4.0
) as server:
    with WindtunnelClient(*server.address, width=480, height=360) as client:
        rake_id = client.add_rake(
            [1.2, -1.5, 1.0], [1.2, -1.5, 2.5], n_seeds=8, kind="streamline"
        )
        # Offset the boom's world so its reach envelope covers the scene:
        # mount the boom base at (1.5, -8, 0) facing the cylinder.
        from repro.util.transforms import compose, rotation_z, translation

        mount = compose(translation([1.5, -8.0, 0.0]), rotation_z(np.pi / 2))

        saved = 0
        for i, t in enumerate(script.sample_times(fps=20)):
            sample = glove.read(script.hand_pose(t), np.array(script.bends(t)))
            gesture = recognizer.update(sample.bends)
            head_pose = mount @ boom.head_pose(script.boom_angles(t))
            fb = client.frame(head_pose, sample.position, gesture.value)
            if i % 15 == 0:
                fb.save_ppm(OUT / f"vr_{saved:02d}.ppm")
                saved += 1
        final = server.env.rakes[rake_id].end_a
        print(f"rake end A after the scripted sweep: {final.round(2).tolist()}")
        print(f"tracker in range throughout: {sample.in_range}")
        print(client.timer.report())
print(f"{saved} frames written to", OUT)
