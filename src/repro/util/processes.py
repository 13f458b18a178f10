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


def mp_context(prefer: str | None = None) -> multiprocessing.context.BaseContext:
    """``prefer`` when available, else ``fork``, else the platform default."""
    methods = multiprocessing.get_all_start_methods()
    if prefer and prefer in methods:
        return multiprocessing.get_context(prefer)
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()
