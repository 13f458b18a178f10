"""Prefetching timestep loading over the tiered cache.

Figure 8's rightmost process: "The timestep required for the next
computation is loaded into a buffer" while the current computation runs.
:class:`TimestepLoader` reproduces that overlap with a single background
worker.  Storage and reads live in a
:class:`~repro.diskio.cache.TieredTimestepCache` (per-process LRU →
optional shared-memory segment → dataset), so the historical double
buffer is now just a 2-slot tier-1; the modeled disk
read time (from a :class:`~repro.diskio.model.DiskModel`) is charged by
the source tier against whichever thread performs the read, so a
well-hidden load costs the frame nothing and an unhidden one stalls it —
exactly the trade Table 2 quantifies.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait

import numpy as np

from repro.diskio.cache import TIER_SOURCE, TieredTimestepCache
from repro.diskio.model import DiskModel
from repro.flow.dataset import UnsteadyDataset

__all__ = ["TimestepLoader"]


class TimestepLoader:
    """Loads grid-coordinate velocity timesteps with modeled disk timing.

    :meth:`load` reads, :meth:`prefetch` stages, and the loader guesses
    nothing: each driver owns its one prefetch policy — the pipeline aims
    where the clock is going, a playback loop says
    ``loader.prefetch(t + 1)`` (Figure 8 read aloud).

    Parameters
    ----------
    dataset
        The dataset to serve; source reads go through
        ``dataset.grid_velocity`` (one positional read for a disk-backed
        dataset, plus the physical->grid conversion).  The dataset keeps
        no timestep of its own, so tier 1 bounds what a replay holds.
    disk_model
        Optional bandwidth model; each *source* load sleeps for the
        modeled read time of one raw timestep, emulating the Convex disk.
    prefetch
        Whether :meth:`prefetch` stages timesteps on the background
        worker; ``False`` builds no worker and makes it a no-op.
    capacity
        Timesteps retained in the tier-1 buffer (2 = classic double
        buffering).
    sleep
        Injectable sleep function (e.g. a ``VirtualClock.sleep``) so tests
        and analytic benchmarks don't spend real wall-clock time.
    cache
        A pre-built :class:`TieredTimestepCache` (gateway workers and
        the live tunnel pass one, as does anyone attaching a tier-2
        segment); when omitted a tier-1-only stack of ``capacity``
        timesteps is built.
    registry
        The :class:`~repro.obs.registry.MetricsRegistry` holding the
        ``loader.*`` counters (and, for the internally-built tier stack,
        the per-tier ``cache.*`` ones).  Defaults to the cache's own —
        private unless one was passed — which a server built later
        adopts (:meth:`~repro.obs.registry.MetricsRegistry.adopt`).

    All arrays returned by :meth:`load`/:meth:`peek` are read-only views;
    mutating one raises, so a cached timestep can never be poisoned by a
    downstream consumer.
    """

    def __init__(
        self,
        dataset: UnsteadyDataset,
        disk_model: DiskModel | None = None,
        *,
        prefetch: bool = True,
        capacity: int = 2,
        sleep=time.sleep,
        cache: TieredTimestepCache | None = None,
        registry=None,
    ) -> None:
        if cache is None:
            cache = TieredTimestepCache(
                dataset,
                disk_model=disk_model,
                l1_timesteps=capacity,
                sleep=sleep,
                registry=registry,
            )
        self.cache = cache
        self.registry = registry if registry is not None else cache.registry
        self.dataset = cache.dataset
        self.disk_model = disk_model
        self.capacity = cache.l1.capacity_timesteps
        self._pending: dict[int, Future] = {}
        self._prefetch_error: Exception | None = None
        self._lock = threading.Lock()
        self._pool = ThreadPoolExecutor(max_workers=1) if prefetch else None
        # Loader-level counters (per-tier counts live on cache.*.stats).
        self.hits = self.registry.counter("loader.hits")
        self.misses = self.registry.counter("loader.misses")
        self.prefetch_issued = self.registry.counter("loader.prefetch_issued")
        self.prefetch_errors = self.registry.counter("loader.prefetch_errors")

    # -- internals -------------------------------------------------------------

    def _prefetch_job(self, t: int) -> np.ndarray:
        try:
            gv, _tier = self.cache.get(t)
            return gv
        except Exception as exc:
            # Nobody asked for ``t`` yet: the failure is counted and kept
            # for drain(), never left behind as a failed future — the
            # next load(t) or prefetch(t) starts clean.
            self.prefetch_errors.inc()
            with self._lock:
                self._prefetch_error = exc
            raise
        finally:
            with self._lock:
                self._pending.pop(t, None)

    # -- public API --------------------------------------------------------------

    def load(self, t: int) -> np.ndarray:
        """Load timestep ``t`` — from an in-flight prefetch, else the
        tiers — and nothing else: the driver calls :meth:`prefetch`."""
        t = int(t)
        with self._lock:
            pending = self._pending.get(t)
        gv = None
        if pending is not None:
            # The prefetch got there first but hasn't finished: the frame
            # stalls for the remainder — partially hidden latency.
            start = time.perf_counter()
            try:
                gv = pending.result()
            except Exception:
                # The speculative read failed (its job counted it); the
                # demand read below raises its own error if the fault
                # persists.
                pass
            self.cache.l1.stats.stall(time.perf_counter() - start)
        if gv is not None:
            self.hits.inc()
        else:
            gv, tier = self.cache.get(t)
            (self.misses if tier == TIER_SOURCE else self.hits).inc()
        return gv

    def prefetch(self, t: int) -> bool:
        """Hint: stage timestep ``t`` in the background.

        The driver calls this with the timestep it will need next (for
        the pipeline a *prediction*, which may not be ``t ± 1`` when the
        clock outruns the compute), so the background read overlaps the
        current frame's integration.  Returns ``True`` if a background
        load was actually issued; already-buffered, already-pending, or
        out-of-range timesteps are a cheap no-op.
        """
        if self._pool is None:
            return False
        t = int(t)
        if not (0 <= t < self.dataset.n_timesteps):
            return False
        with self._lock:
            if self.cache.peek(t) is not None or t in self._pending:
                return False
            self._pending[t] = self._pool.submit(self._prefetch_job, t)
            self.prefetch_issued.inc()
            return True

    def peek(self, t: int) -> np.ndarray | None:
        """The tier-1 array for timestep ``t``, or ``None`` (no charge)."""
        return self.cache.peek(t)

    @property
    def buffered_timesteps(self) -> list[int]:
        return self.cache.l1.keys

    def drain(self) -> None:
        """Wait for every in-flight prefetch (for deterministic tests).

        Blocks on the futures themselves rather than re-polling the
        pending map, so draining costs one wait per generation of
        in-flight work instead of a busy-spin on the lock.  Raises (once)
        the latest prefetch failure since the previous drain.
        """
        while True:
            with self._lock:
                futures = list(self._pending.values())
                if not futures:
                    error, self._prefetch_error = self._prefetch_error, None
                    break
            wait(futures)
        if error is not None:
            raise error

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self.cache.close()

    def __enter__(self) -> "TimestepLoader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
