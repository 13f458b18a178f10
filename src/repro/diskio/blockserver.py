"""Tier 3: a timestep block server on the dlib event loop.

Bethel/Tierney's DPSS block servers (PAPERS.md) decouple *where data
lives* from *where it is rendered*: consumers fetch named blocks from a
staging cache over the network, and the cache pre-stages blocks it
expects to be asked for.  :class:`TimestepBlockServer` is that component
for decoded grid-velocity timesteps:

* ``block.read(dataset_id, t)`` — one decoded timestep, served from the
  server's own :class:`~repro.diskio.loader.TimestepLoader` (so repeat
  reads from a fleet hit the server's tier-1 LRU, not its disk).
* ``block.prefetch(dataset_id, [t, ...])`` — a *hint*: stage these
  timesteps in the background and return immediately.  The frame
  pipeline's ``_predict_next`` prediction is forwarded here (through
  :meth:`TieredTimestepCache.prefetch_hint`) so the server's disk read
  overlaps the client's round trip — upcoming timesteps are in staging
  before any worker asks for them.
* ``block.meta`` / ``block.stats`` — dataset identity + cache counters.

Windtunnel workers consume a *fleet* of block servers through
:class:`RemoteTimestepSource`, which stripes timestep ``t`` to server
``t mod N`` — N servers' disks (and staging buffers) in parallel behind
one ``read()`` API, pluggable as the ``source`` of a
:class:`~repro.diskio.cache.TieredTimestepCache`.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.diskio.cache import TIER_SOURCE, TierCounters, dataset_key
from repro.diskio.loader import TimestepLoader
from repro.diskio.model import DiskModel
from repro.dlib.client import DlibClient
from repro.dlib.server import DlibServer

__all__ = ["TimestepBlockServer", "RemoteTimestepSource"]


class TimestepBlockServer:
    """Serve one dataset's decoded timesteps over dlib.

    The server keeps its own :class:`TimestepLoader` (tier-1 LRU +
    background stager), so its cache counters appear in the dlib
    registry as ``cache.*`` and ``block.*`` procedure metrics come for
    free from the event loop.
    """

    def __init__(
        self,
        dataset,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        disk_model: DiskModel | None = None,
        stage_timesteps: int = 8,
        dataset_id: str | None = None,
        registry=None,
        sleep=time.sleep,
    ) -> None:
        self.dataset = dataset
        self.dataset_id = dataset_id or dataset_key(dataset)
        self.loader = TimestepLoader(
            dataset,
            disk_model,
            capacity=stage_timesteps,
            prefetch=True,
            sleep=sleep,
        )
        self.dlib = DlibServer(host, port, registry=registry)
        self.registry = self.dlib.registry
        self.registry.adopt(self.loader.registry)
        self.hints_received = self.registry.counter("block.hints_received")
        self.blocks_served = self.registry.counter("block.blocks_served")
        self.dlib.register("block.meta", self._meta)
        self.dlib.register("block.read", self._read)
        self.dlib.register("block.prefetch", self._prefetch)
        self.dlib.register("block.stats", self._stats)

    # -- procedures ------------------------------------------------------------

    def _check_id(self, dataset_id: str) -> None:
        if dataset_id != self.dataset_id:
            raise KeyError(
                f"unknown dataset {dataset_id!r} (serving {self.dataset_id!r})"
            )

    def _meta(self, ctx) -> dict:
        return {
            "dataset_id": self.dataset_id,
            "shape": list(self.dataset.grid.shape),
            "n_timesteps": self.dataset.n_timesteps,
            "dt": self.dataset.dt,
            "timestep_nbytes": self.dataset.timestep_nbytes,
        }

    def _read(self, ctx, dataset_id: str, t: int) -> np.ndarray:
        self._check_id(dataset_id)
        gv = self.loader.load(int(t))
        self.blocks_served.inc()
        return np.asarray(gv)

    def _prefetch(self, ctx, dataset_id: str, timesteps) -> int:
        self._check_id(dataset_id)
        self.hints_received.inc()
        issued = 0
        for t in timesteps:
            if self.loader.prefetch(int(t)):
                issued += 1
        return issued

    def _stats(self, ctx) -> dict:
        out = self.loader.cache.stats_snapshot()
        out["hints_received"] = self.hints_received.value
        out["blocks_served"] = self.blocks_served.value
        return out

    # -- lifecycle -------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return self.dlib.address

    def start(self) -> "TimestepBlockServer":
        self.dlib.start()
        return self

    def stop(self) -> None:
        self.dlib.stop()
        self.loader.close()

    def __enter__(self) -> "TimestepBlockServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class RemoteTimestepSource:
    """A tiered-cache ``source`` that stripes reads across block servers.

    Timestep ``t`` belongs to server ``t mod N`` — the windtunnel
    worker's prefetch stream fans out over every server's staging buffer
    and disk, which is how a fleet outreads a single spindle.  Each
    underlying :class:`DlibClient` is guarded by a lock (the demand path
    and the loader's background prefetch worker share them).

    ``read`` raises on transport failure (a frame must not silently get
    wrong data); ``hint`` is best-effort by contract and swallows
    transport errors after counting them.
    """

    def __init__(
        self,
        addresses,
        dataset_id: str,
        *,
        timeout: float | None = 10.0,
        clients=None,
        registry=None,
    ) -> None:
        if clients is None:
            clients = [
                DlibClient(host, port, timeout=timeout)
                for host, port in addresses
            ]
        if not clients:
            raise ValueError("need at least one block server")
        self._clients = [(c, threading.Lock()) for c in clients]
        self.dataset_id = dataset_id
        self.stats = TierCounters(TIER_SOURCE, registry)
        self.hints_sent = 0
        self.hint_errors = 0

    def _owner(self, t: int):
        return self._clients[int(t) % len(self._clients)]

    def meta(self) -> dict:
        client, lock = self._clients[0]
        with lock:
            return client.call("block.meta")

    def read(self, t: int) -> np.ndarray:
        client, lock = self._owner(t)
        with lock:
            arr = client.call("block.read", self.dataset_id, int(t))
        arr = np.asarray(arr)
        arr.flags.writeable = False
        self.stats.hit(arr.nbytes)
        return arr

    def hint(self, timesteps) -> None:
        by_owner: dict[int, list[int]] = {}
        for t in timesteps:
            by_owner.setdefault(int(t) % len(self._clients), []).append(int(t))
        for owner, ts in by_owner.items():
            client, lock = self._clients[owner]
            try:
                with lock:
                    client.call("block.prefetch", self.dataset_id, ts)
                self.hints_sent += 1
            except Exception:
                self.hint_errors += 1

    def close(self) -> None:
        for client, lock in self._clients:
            with lock:
                try:
                    client.close()
                except OSError:  # pragma: no cover
                    pass
