"""Worker processes: one windtunnel server per OS process.

Process isolation is the fault boundary — a worker that segfaults, gets
OOM-killed, or wedges takes only its own sessions down, and those come
back via the journal.  The child entrypoint (:func:`run_worker`) builds
its dataset from a plain picklable *spec* dict, starts an ordinary
:class:`~repro.core.server.WindtunnelServer` (figure-8 producer pipeline
and all) on an ephemeral port, and reports the bound address back over
a pipe; :class:`WorkerHandle` is the parent-side wrapper (spawn,
liveness, graceful stop, SIGKILL).

The ``fork`` start method is preferred when the platform offers it:
respawn latency is part of the recovery time objective (gated by
``benchmarks/test_gateway_capacity.py``), and forking skips a full
interpreter boot and re-import.  ``spawn`` works too — the spec is
self-contained.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from multiprocessing.connection import Connection

from repro.diskio.cache import timesteps_key
from repro.util.processes import mp_context

__all__ = ["DEFAULT_SPEC", "WorkerHandle", "default_worker_spec", "run_worker"]

#: Baseline worker spec, and the closed set of spec keys: a small
#: tapered-cylinder dataset that computes frames well inside the
#: interaction budget, and a short frame wait so a routed call cannot
#: park the gateway's service loop for long.
DEFAULT_SPEC = {
    "shape": (12, 12, 6),
    "n_timesteps": 4,
    "dt": 0.25,
    "time_speed": 2.0,
    "frame_wait": 5.0,
    "lease_seconds": 30.0,
    "reap_interval": 1.0,
    "allow_chaos": False,
    # Set by the gateway: the name of the tier-2 shared-memory segment
    # workers attach so co-located sessions share decoded timesteps.
    "timestep_cache": None,
}


def default_worker_spec(**overrides) -> dict:
    """A fresh copy of :data:`DEFAULT_SPEC` with ``overrides`` applied.

    An unknown key raises ``ValueError``: a typo is never dropped silently.
    """
    for key in overrides:
        if key not in DEFAULT_SPEC:
            raise ValueError(
                f"unknown worker spec key {key!r}; known: {sorted(DEFAULT_SPEC)}"
            )
    return {**DEFAULT_SPEC, **overrides}


def spec_slot_shape(spec: dict) -> tuple[int, ...]:
    """Decoded-timestep shape for a spec's dataset, without building it."""
    return tuple(spec["shape"]) + (3,)


def spec_dataset_key(spec: dict) -> str:
    """The :func:`repro.diskio.dataset_key` a spec's dataset will have.

    Computed from the spec so the gateway can size and name the shared
    segment *before* any worker builds the dataset.  Assumes
    ``tapered_cylinder_dataset``'s default float32 storage (12 bytes per
    point, the paper's Table 2 accounting).
    """
    shape = tuple(spec["shape"])
    return timesteps_key(
        shape, spec["n_timesteps"], spec["dt"], 12 * math.prod(shape)
    )


def run_worker(spec: dict, conn: Connection) -> None:
    """Child-process entrypoint: serve a windtunnel until told to stop.

    Sends ``("ready", (host, port))`` once the server is listening, then
    blocks on the pipe; any message (or the parent vanishing, surfacing
    as ``EOFError``) shuts the server down.  Imports happen here, not at
    module top, so a ``spawn``-start child pays them exactly once.
    """
    from repro.core.server import WindtunnelServer
    from repro.diskio.cache import TieredTimestepCache
    from repro.diskio.loader import TimestepLoader
    from repro.diskio.shmcache import SharedTimestepCache
    from repro.flow.taperedcylinder import tapered_cylinder_dataset
    from repro.obs import MetricsRegistry

    spec = default_worker_spec(**spec)
    dataset = tapered_cylinder_dataset(
        shape=tuple(spec["shape"]),
        n_timesteps=int(spec["n_timesteps"]),
        dt=float(spec["dt"]),
    )
    # Tier-2 attach: co-located workers read decoded timesteps from the
    # gateway's shared segment instead of each paying the full load, so
    # the fleet performs ≈1x aggregate disk reads (docs/caching.md).
    # Only a platform without shared memory (no segment in the spec, or
    # an attach that fails) leaves this worker on a private tier 1.
    registry = MetricsRegistry()
    shared = None
    if spec["timestep_cache"]:
        try:
            shared = SharedTimestepCache.for_dataset(
                dataset, name=spec["timestep_cache"], create="never",
                registry=registry,
            )
        except (OSError, ValueError):
            pass
    # The attachment dies with this worker's cache; one registry holds
    # every tier, so ``cache.l2.*`` reports through ``wt.metrics`` too.
    loader = TimestepLoader(
        dataset,
        cache=TieredTimestepCache(dataset, l2=shared, registry=registry),
        prefetch=False,
    )
    server = WindtunnelServer(
        dataset,
        host="127.0.0.1",
        port=0,
        loader=loader,
        time_speed=float(spec["time_speed"]),
        frame_wait=float(spec["frame_wait"]),
        lease_seconds=float(spec["lease_seconds"]),
        reap_interval=float(spec["reap_interval"]),
        allow_chaos=bool(spec["allow_chaos"]),
    )
    server.start()
    try:
        conn.send(("ready", server.address))
        try:
            conn.recv()  # blocks until "stop" or the parent dies
        except (EOFError, OSError):
            pass
    finally:
        server.stop()


class WorkerHandle:
    """Parent-side handle on one worker process.

    Attributes
    ----------
    name
        Stable pool slot name (``w0`` .. ``wN``) — identity survives
        respawns; the process does not.
    address
        The worker's listening ``(host, port)``, fresh per incarnation.
    """

    def __init__(
        self,
        name: str,
        spec: dict,
        process: multiprocessing.Process,
        conn: Connection,
        address: tuple[str, int],
    ) -> None:
        self.name = name
        self.spec = spec
        self.process = process
        self.conn = conn
        self.address = address

    @classmethod
    def spawn(
        cls,
        name: str,
        spec: dict,
        *,
        ready_timeout: float = 30.0,
    ) -> "WorkerHandle":
        """Start a worker process and wait for its listening address."""
        ctx = mp_context()
        parent, child = ctx.Pipe()
        process = ctx.Process(
            target=run_worker, args=(spec, child), daemon=True,
            name=f"wt-worker-{name}",
        )
        process.start()
        child.close()
        deadline = time.monotonic() + ready_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not process.is_alive() and not parent.poll():
                process.kill()
                raise TimeoutError(f"worker {name} did not become ready")
            if parent.poll(min(remaining, 0.2)):
                break
        tag, address = parent.recv()
        if tag != "ready":
            process.kill()
            raise RuntimeError(f"worker {name} sent {tag!r} instead of ready")
        return cls(name, spec, process, parent, tuple(address))

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def kill(self) -> None:
        """SIGKILL — the crash injector's hammer and the hang remedy."""
        self.process.kill()

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful shutdown; escalates to SIGKILL at the deadline."""
        try:
            self.conn.send("stop")
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout)
        self.conn.close()
