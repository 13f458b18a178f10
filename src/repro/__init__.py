"""repro — The Distributed Virtual Windtunnel, reproduced in Python.

A faithful implementation of Bryson & Gerald-Yamasaki, "The Distributed
Virtual Windtunnel" (RNR-92-010 / SC 1992): a client/server virtual
environment for shared interactive visualization of large unsteady 3-D
flowfields, plus every substrate the paper depends on — curvilinear-grid
tracer integration, the dlib RPC library, network and disk performance
models, BOOM/DataGlove device models, and a software stereo renderer.

Quick start::

    from repro import tapered_cylinder_dataset, WindtunnelServer, WindtunnelClient

    dataset = tapered_cylinder_dataset(shape=(32, 32, 16), n_timesteps=16)
    with WindtunnelServer(dataset) as server:
        with WindtunnelClient(*server.address) as client:
            client.add_rake([1, -2, 1], [1, 2, 1], n_seeds=10, kind="streamline")
            fb = client.frame(head_pose=..., hand_position=[0, 0, 1])
            fb.save_ppm("frame.ppm")

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.core import (
    ComputeEngine,
    Environment,
    TimeControl,
    ToolSettings,
    WindtunnelClient,
    WindtunnelServer,
)
from repro.gateway import SessionGateway
from repro.flow import (
    DiskDataset,
    MemoryDataset,
    NavierStokes2D,
    SolverConfig,
    TaperedCylinderFlow,
    UnsteadyDataset,
    tapered_cylinder_dataset,
)
from repro.tracers import (
    GrabPoint,
    Rake,
    TracerResult,
    compute_streaklines,
)
from repro.render import Camera, Framebuffer, Scene, render_anaglyph

__version__ = "1.0.0"

__all__ = [
    "WindtunnelServer",
    "WindtunnelClient",
    "SessionGateway",
    "Environment",
    "ComputeEngine",
    "ToolSettings",
    "TimeControl",
    "UnsteadyDataset",
    "MemoryDataset",
    "DiskDataset",
    "TaperedCylinderFlow",
    "tapered_cylinder_dataset",
    "NavierStokes2D",
    "SolverConfig",
    "Rake",
    "GrabPoint",
    "TracerResult",
    "compute_streaklines",
    "Camera",
    "Framebuffer",
    "Scene",
    "render_anaglyph",
    "__version__",
]
