"""The distributed virtual windtunnel itself.

This package composes every substrate into the paper's system (section 5):

* :mod:`~repro.core.timectrl` — interactive control over dataset time
  ("sped up, slowed down, run backwards, or stopped completely").
* :mod:`~repro.core.environment` — the shared virtual environment state
  (rakes, users, grab locks, clock) that lives on the remote system so
  "several workstations ... can access the same data on the host".
* :mod:`~repro.core.engine` — the visualization compute engine (rake
  seeds -> grid coordinates -> tracer tools) on the vectorised kernel.
* :mod:`~repro.core.server` — the remote system: a dlib server exposing
  the windtunnel procedures, computing one shared visualization per
  (environment, timestep) and shipping 12-byte points to every client.
* :mod:`~repro.core.client` — the workstation: devices in, commands out,
  path arrays in, head-tracked stereo frames out, with the rendering loop
  decoupled from network traffic (figure 9).
* :mod:`~repro.core.pipeline` / :mod:`~repro.core.framestore` — figure 8
  made real: the staged load -> compute -> publish producer pipeline and
  the immutable, pre-encoded frame store it publishes into.
"""

from repro.core.timectrl import TimeControl
from repro.core.environment import Environment, UserState
from repro.core.session import SessionExpiredError, SessionLease, SessionTable
from repro.core.engine import ComputeEngine, ToolSettings
from repro.core.framestore import FrameStore, PublishedFrame
from repro.core.pipeline import FramePipeline
from repro.core.server import WindtunnelServer
from repro.core.client import WindtunnelClient

__all__ = [
    "FramePipeline",
    "FrameStore",
    "PublishedFrame",
    "TimeControl",
    "Environment",
    "UserState",
    "SessionExpiredError",
    "SessionLease",
    "SessionTable",
    "ComputeEngine",
    "ToolSettings",
    "WindtunnelServer",
    "WindtunnelClient",
]
