"""The tiered timestep cache — one read API over two cache tiers and a source.

The paper's Table 2 says the windtunnel is ultimately disk-bandwidth
bound: every session replaying an unsteady dataset pays the full read
cost of every timestep, and a fleet of N co-located sessions pays it N
times.  Bethel/Tierney's WAN visualization work (PAPERS.md) answers with
DPSS-style tiered data caches: each block is paid for once, then served
from progressively closer tiers.  This module is that ladder for decoded
grid-velocity timesteps:

* **Tier 1** (:class:`TimestepCache`) — a per-process LRU of decoded
  arrays, budgeted in timesteps.  Entries are read-only views; a caller
  can never poison a cached timestep.
* **Tier 2** — a :class:`~repro.diskio.shmcache.SharedTimestepCache`
  segment that co-located sessions attach read-only, so N workers on one
  dataset hold one copy and perform ≈1× aggregate disk reads.
* **Source** — the dataset itself, charged the modeled disk cost of
  each read.

:class:`TieredTimestepCache` is the single read API: ``get(t)`` falls
through L1 → L2 → source (a tier-2 fill reads the source once), and
every tier records ``cache.<tier>.{hits,misses,bytes,evictions,appends,
stall_seconds}`` into the :class:`~repro.obs.registry.MetricsRegistry`
it was built with (a private one when none is passed) — the numbers
``wt.metrics`` and ``wt.pipeline_stats`` read.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict

import numpy as np

from repro.diskio.model import DiskModel
from repro.flow.dataset import UnsteadyDataset
from repro.obs import MetricsRegistry

__all__ = [
    "TimestepCache",
    "DatasetSource",
    "TieredTimestepCache",
    "dataset_key",
    "decoded_timestep_nbytes",
    "timesteps_key",
]

#: Tier labels returned by :meth:`TieredTimestepCache.get`.
TIER_L1 = "l1"
TIER_L2 = "l2"
TIER_SOURCE = "source"


def decoded_timestep_nbytes(dataset: UnsteadyDataset) -> int:
    """Bytes of one *decoded* (grid-coordinate, float64) timestep."""
    return int(dataset.grid.n_points) * 3 * 8


def timesteps_key(
    shape, n_timesteps: int, dt: float, timestep_nbytes: int, extra: str = ""
) -> str:
    """A short stable identity for a dataset's decoded timesteps.

    Keys tier-2 segments: two processes agree on a segment only if
    their datasets have the same grid shape, timestep count, dt, and raw
    per-timestep size.  Content is *not* hashed (that would read the
    whole dataset); callers that co-locate different datasets with
    identical geometry must pass a distinguishing ``extra`` string.
    Takes the identity's parts, not a dataset, so a gateway can name a
    segment before any worker builds the dataset it describes.
    """
    h = hashlib.blake2b(digest_size=8)
    ident = (
        tuple(int(s) for s in shape),
        int(n_timesteps),
        float(dt),
        int(timestep_nbytes),
        str(extra),
    )
    h.update(repr(ident).encode())
    return h.hexdigest()


def dataset_key(dataset: UnsteadyDataset, extra: str = "") -> str:
    """:func:`timesteps_key` of ``dataset``."""
    return timesteps_key(
        dataset.grid.shape, dataset.n_timesteps, dataset.dt,
        dataset.timestep_nbytes, extra,
    )


_TIER_COUNTERS = ("hits", "misses", "bytes", "evictions", "appends", "stall_seconds")


class TierCounters:
    """One tier's ``cache.<tier>.*`` instruments, bound once at construction.

    Holds no numbers of its own: each attribute *is* the registry
    instrument (read it with ``.value``), so every reply that reports a
    tier and every ``wt.metrics`` snapshot read the same store.

    ``bytes`` is cumulative bytes served from (or appended to) the tier;
    ``appends`` counts producer write-throughs (in situ solver output);
    ``stall_seconds`` is the tier's wait cost: for L1 it is time a demand
    load spent blocked on an in-flight prefetch; for L2 the writer-lock
    wait, a sibling's fill included; for the source tier the (modeled)
    read seconds.
    """

    def __init__(self, tier: str, registry: MetricsRegistry | None = None) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        self.tier = tier
        for name in _TIER_COUNTERS:
            setattr(self, name, registry.counter(f"cache.{tier}.{name}"))
        self.resident_bytes = registry.gauge(f"cache.{tier}.resident_bytes")

    def hit(self, nbytes: int = 0) -> None:
        self.hits.inc()
        self.bytes.inc(nbytes)

    def append(self, nbytes: int = 0) -> None:
        self.appends.inc()
        self.bytes.inc(nbytes)

    def stall(self, seconds: float) -> None:
        self.stall_seconds.inc(max(0.0, seconds))

    def snapshot(self) -> dict:
        out = {name: getattr(self, name).value for name in _TIER_COUNTERS}
        out["tier"] = self.tier
        out["resident_bytes"] = self.resident_bytes.value
        return out


class TimestepCache:
    """Tier 1: a thread-safe LRU of decoded grid-velocity timesteps.

    The generalization of :class:`~repro.diskio.loader.TimestepLoader`'s
    historical 2-slot double buffer: holding more than
    ``capacity_timesteps`` evicts the least-recently-used entry.

    Every stored array is kept (and returned) as a read-only view:
    mutating a cached timestep raises, so the cache can hand the same
    array to the pipeline, the integrator pool, and the encoder without
    defensive copies.
    """

    def __init__(
        self,
        *,
        capacity_timesteps: int = 2,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if capacity_timesteps < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity_timesteps = capacity_timesteps
        self.stats = TierCounters(TIER_L1, registry)
        self._entries: OrderedDict[int, np.ndarray] = OrderedDict()
        self._nbytes = 0
        self._lock = threading.Lock()

    # -- access ----------------------------------------------------------------

    def get(self, t: int) -> np.ndarray | None:
        """The cached array for ``t`` (refreshing LRU order), or ``None``."""
        t = int(t)
        with self._lock:
            arr = self._entries.get(t)
            if arr is not None:
                self._entries.move_to_end(t)
        if arr is not None:
            self.stats.hit(arr.nbytes)
        else:
            self.stats.misses.inc()
        return arr

    def peek(self, t: int) -> np.ndarray | None:
        """Like :meth:`get` but without LRU refresh or accounting."""
        with self._lock:
            return self._entries.get(int(t))

    def put(self, t: int, arr: np.ndarray) -> np.ndarray:
        """Insert ``t`` and return the (read-only) stored view."""
        t = int(t)
        view = np.asarray(arr).view()
        view.flags.writeable = False
        evicted = 0
        with self._lock:
            old = self._entries.pop(t, None)
            if old is not None:
                self._nbytes -= old.nbytes
            self._entries[t] = view
            self._nbytes += view.nbytes
            while len(self._entries) > self.capacity_timesteps:
                _, dropped = self._entries.popitem(last=False)
                self._nbytes -= dropped.nbytes
                evicted += 1
            self.stats.resident_bytes.set(self._nbytes)
        if evicted:
            self.stats.evictions.inc(evicted)
        return view

    def pop(self, t: int) -> None:
        """Drop ``t`` without counting an eviction (explicit invalidation)."""
        with self._lock:
            arr = self._entries.pop(int(t), None)
            if arr is not None:
                self._nbytes -= arr.nbytes
            self.stats.resident_bytes.set(self._nbytes)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._nbytes = 0
            self.stats.resident_bytes.set(0)

    # -- introspection ---------------------------------------------------------

    @property
    def keys(self) -> list[int]:
        with self._lock:
            return list(self._entries)

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._nbytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, t: int) -> bool:
        with self._lock:
            return int(t) in self._entries


class DatasetSource:
    """The bottom tier: read a decoded timestep from the dataset itself.

    ``dataset.grid_velocity`` reads and decodes; it shares a decode that
    some tier or caller still holds, and otherwise keeps nothing, so what
    stays resident is what the tiers above keep.  Charges the modeled
    disk cost of one raw timestep per read through
    the injectable ``sleep`` (a ``VirtualClock.sleep`` or a plain list
    append in tests), exactly as the historical loader did.  The modeled
    charge — not wall time — is ``cache.source.stall_seconds``, so the
    source tier's accounting is deterministic.
    """

    def __init__(
        self,
        dataset: UnsteadyDataset,
        disk_model: DiskModel | None = None,
        *,
        sleep=time.sleep,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.dataset = dataset
        self.disk_model = disk_model
        self._sleep = sleep
        self.stats = TierCounters(TIER_SOURCE, registry)

    def read(self, t: int) -> np.ndarray:
        if self.disk_model is not None:
            d = self.disk_model.read_time(self.dataset.timestep_nbytes)
            self.stats.stall(d)
            self._sleep(d)
        gv = self.dataset.grid_velocity(t)
        self.stats.hit(gv.nbytes)
        return gv

    def close(self) -> None:
        pass


class TieredTimestepCache:
    """One read API over the L1 → L2 → source ladder.

    ``get(t)`` returns ``(array, tier)`` where ``tier`` names the level
    that satisfied the read; the array is always a read-only view.  An
    L1 miss is tier 2's
    :meth:`~repro.diskio.shmcache.SharedTimestepCache.fill`: a private
    copy out of the segment, or one source read written to it.  Tier 1
    holds nothing that tier 2 must keep alive.

    ``l1_timesteps`` is tier 1's budget, in timesteps.  The ``l2``
    object is duck-typed (``get``/``fill``/``append``/``stats``/``close``);
    ``source`` needs ``read``/``stats``/``close``.  This cache
    owns its tier-2 attachment — :meth:`close` closes it — while the
    segment itself outlives the attachment when another process created
    it (a gateway's segment outlives its workers).

    Tiers built here record into ``registry`` (a private one when
    omitted); a pre-built ``l2``/``source`` keeps the registry it was
    built with, so a tier shared between caches is counted once.
    """

    def __init__(
        self,
        dataset: UnsteadyDataset,
        *,
        disk_model: DiskModel | None = None,
        l1_timesteps: int = 2,
        l2=None,
        source=None,
        sleep=time.sleep,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.dataset = dataset
        self.registry = registry if registry is not None else MetricsRegistry()
        if source is None:
            source = DatasetSource(
                dataset, disk_model, sleep=sleep, registry=self.registry
            )
        self.source = source
        self.l1 = TimestepCache(
            capacity_timesteps=l1_timesteps, registry=self.registry
        )
        self.l2 = l2

    # -- the read API ----------------------------------------------------------

    def get(self, t: int) -> tuple[np.ndarray, str]:
        """Read timestep ``t``, falling through the tiers."""
        t = int(t)
        arr = self.l1.get(t)
        if arr is not None:
            return arr, TIER_L1
        if self.l2 is None:
            arr, tier = self.source.read(t), TIER_SOURCE
        else:
            arr, tier = self.l2.fill(t, self.source.read)
        return self.l1.put(t, arr), tier

    def peek(self, t: int) -> np.ndarray | None:
        """Tier-1 resident view for ``t`` (no fills, no accounting)."""
        return self.l1.peek(t)

    # -- the write API ---------------------------------------------------------

    def append(self, t: int, arr: np.ndarray) -> np.ndarray:
        """Write a freshly *produced* timestep into the ladder.

        The in situ producer's path: a live solver mints timesteps that
        exist nowhere downstream, so they enter at the top.  The decoded
        array is write-through — appended to tier 2 when attached
        (:meth:`~repro.diskio.shmcache.SharedTimestepCache.append`) and
        installed in tier 1, so the very next ``get(t)`` is an L1 hit.
        Counted as ``cache.{tier}.appends`` rather than hits/misses:
        appends are producer pushes, not reader demand, and the
        reconciliation ``hits + misses == reads`` must stay exact.

        Returns the read-only tier-1 view (the array the pipeline should
        hand out).
        """
        t = int(t)
        gv = np.asarray(arr)
        if self.l2 is not None:
            try:
                self.l2.append(t, gv)
            except Exception:
                # A failing segment must never stop the solver; tier 2
                # is an optimization, the L1 copy is authoritative.
                pass
            else:
                self.l2.stats.append(gv.nbytes)
        view = self.l1.put(t, gv)
        self.l1.stats.append(gv.nbytes)
        return view

    # -- introspection / lifecycle ---------------------------------------------

    def stats_snapshot(self) -> dict:
        out = {
            "l1": self.l1.stats.snapshot(),
            "source": self.source.stats.snapshot(),
        }
        if self.l2 is not None:
            out["l2"] = self.l2.stats.snapshot()
        return out

    def close(self) -> None:
        if self.l2 is not None:
            self.l2.close()
        self.source.close()
