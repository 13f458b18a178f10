"""The start method for the repo's child processes.

``fork`` is preferred where the platform offers it: a forked child skips
a full interpreter boot and re-import, which is what a gateway's respawn
latency and a live tunnel's first timestep are measured against.
``spawn`` works too — every child entrypoint takes a self-contained,
picklable spec.
"""

from __future__ import annotations

import multiprocessing

__all__ = ["mp_context"]


def mp_context() -> multiprocessing.context.BaseContext:
    """``fork`` when available, else the platform default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()
