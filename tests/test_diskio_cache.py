"""The tiered timestep cache: tier 1, the source, the ladder, and wt.metrics.

Tier 2's shared-memory protocol has its own suite
(test_diskio_shmcache.py).  This file covers the pure-Python pieces — the
per-tier accounting contract (exact reconciliation, one store per
number), the L1 LRU's budget and read-only discipline, the modeled source tier,
the L1→L2→source fall-through, and the end-to-end guarantee that
``wt.metrics`` reports cache counters that reconcile exactly with the
loads a deterministic session injected.
"""

import numpy as np
import pytest

from repro.diskio import CONVEX_DISK, TieredTimestepCache, TimestepLoader
from repro.diskio.cache import (
    TIER_L1,
    TIER_L2,
    TIER_SOURCE,
    DatasetSource,
    TierCounters,
    TimestepCache,
    dataset_key,
)
from repro.flow import tapered_cylinder_dataset
from repro.obs import MetricsRegistry

SHAPE = (8, 8, 4)
TIMESTEPS = 5


@pytest.fixture(scope="module")
def dataset():
    return tapered_cylinder_dataset(shape=SHAPE, n_timesteps=TIMESTEPS, dt=0.25)


class TestTierStats:
    def test_exact_accounting(self):
        registry = MetricsRegistry()
        s = TierCounters("l1", registry)
        s.hit(100)
        s.hit(50)
        s.misses.inc()
        s.evictions.inc(2)
        s.append(6)
        s.stall(0.5)
        s.resident_bytes.set(156)
        # The attributes *are* the registry's instruments: the snapshot a
        # reply carries and the one wt.metrics carries cannot disagree.
        assert registry.snapshot()["counters"] == {
            "cache.l1.hits": 2,
            "cache.l1.misses": 1,
            "cache.l1.bytes": 156,
            "cache.l1.evictions": 2,
            "cache.l1.appends": 1,
            "cache.l1.stall_seconds": 0.5,
        }
        assert s.snapshot() == {
            "tier": "l1", "hits": 2, "misses": 1, "bytes": 156,
            "evictions": 2, "appends": 1, "stall_seconds": 0.5,
            "resident_bytes": 156.0,
        }

    def test_negative_stall_clamped(self):
        s = TierCounters("source")
        s.stall(-1.0)
        assert s.stall_seconds.value == 0.0


class TestTimestepCache:
    def _arr(self, fill, nbytes=None, n=8):
        return np.full(n, float(fill))

    def test_lru_eviction_order(self):
        c = TimestepCache(capacity_timesteps=2)
        c.put(0, self._arr(0))
        c.put(1, self._arr(1))
        c.get(0)  # refresh 0: next eviction takes 1
        c.put(2, self._arr(2))
        assert c.keys == [0, 2]
        assert c.stats.evictions.value == 1

    def test_oversized_entry_still_flows(self):
        """The budget counts timesteps, not bytes: an entry of any size is
        cached, and the newest insert is always resident."""
        c = TimestepCache(capacity_timesteps=1)
        c.put(0, self._arr(0))
        big = np.zeros(1 << 16)
        view = c.put(1, big)
        assert c.keys == [1] and view.nbytes == big.nbytes
        assert c.resident_bytes == big.nbytes

    def test_entries_are_read_only(self):
        c = TimestepCache(capacity_timesteps=2)
        view = c.put(0, np.arange(4.0))
        with pytest.raises(ValueError):
            view[0] = 99.0
        with pytest.raises(ValueError):
            c.get(0)[1] = 99.0

    def test_get_counts_peek_does_not(self):
        c = TimestepCache(capacity_timesteps=2)
        c.put(0, self._arr(0))
        c.get(0)
        c.get(1)
        c.peek(0)
        c.peek(1)
        assert (c.stats.hits.value, c.stats.misses.value) == (1, 1)

    def test_pop_is_not_an_eviction(self):
        c = TimestepCache(capacity_timesteps=2)
        c.put(0, self._arr(0))
        c.pop(0)
        assert c.stats.evictions.value == 0
        assert len(c) == 0 and c.resident_bytes == 0

    def test_invalid_budgets(self):
        with pytest.raises(ValueError):
            TimestepCache(capacity_timesteps=0)


class TestDatasetSource:
    def test_modeled_charge_accumulates_without_sleeping(self, dataset):
        charges = []
        src = DatasetSource(dataset, CONVEX_DISK, sleep=charges.append)
        src.read(0)
        src.read(1)
        expected = 2 * CONVEX_DISK.read_time(dataset.timestep_nbytes)
        assert sum(charges) == pytest.approx(expected)
        assert src.stats.stall_seconds.value == pytest.approx(expected)
        assert src.stats.hits.value == 2

    def test_no_disk_model_no_charge(self, dataset):
        charges = []
        src = DatasetSource(dataset, None, sleep=charges.append)
        src.read(0)
        assert charges == [] and src.stats.stall_seconds.value == 0


class _FakeL2:
    """Duck-typed tier 2: a plain dict with the shm cache's protocol."""

    def __init__(self):
        self.stats = TierCounters(TIER_L2)
        self.entries = {}
        self.closed = False

    def get(self, t):
        arr = self.entries.get(t)
        if arr is None:
            self.stats.misses.inc()
            return None
        self.stats.hit(arr.nbytes)
        return arr

    def fill(self, t, read):
        arr = self.get(t)
        if arr is not None:
            return arr, TIER_L2
        arr = read(t)
        self.append(t, arr)
        return arr, TIER_SOURCE

    def append(self, t, arr):
        self.entries[t] = np.asarray(arr).copy()

    def close(self):
        self.closed = True


class TestTieredTimestepCache:
    def test_fall_through_and_promotion(self, dataset):
        l2 = _FakeL2()
        tiers = TieredTimestepCache(dataset, l1_timesteps=2, l2=l2)
        arr, tier = tiers.get(0)
        assert tier == TIER_SOURCE
        assert 0 in l2.entries  # source fill published to the segment
        _, tier = tiers.get(0)
        assert tier == TIER_L1
        tiers.l1.pop(0)  # drop from L1 only: next read is an L2 hit
        arr2, tier = tiers.get(0)
        assert tier == TIER_L2
        np.testing.assert_array_equal(arr, arr2)
        assert not arr2.flags.writeable

    def test_close_closes_l2(self, dataset):
        l2 = _FakeL2()
        tiers = TieredTimestepCache(dataset, l1_timesteps=2, l2=l2)
        tiers.get(0)
        tiers.l1.pop(0)
        tiers.get(0)  # an L2 hit holds nothing open
        tiers.close()
        assert l2.closed

    def test_stats_snapshot_shape(self, dataset):
        tiers = TieredTimestepCache(dataset, l2=_FakeL2())
        tiers.get(0)
        snap = tiers.stats_snapshot()
        assert set(snap) == {"l1", "l2", "source"}
        assert snap["source"]["hits"] == 1
        assert snap["l1"]["misses"] == 1


class TestDatasetKey:
    def test_matches_gateway_analytic_key(self, dataset):
        from repro.gateway.worker import spec_dataset_key

        spec = {"shape": SHAPE, "n_timesteps": TIMESTEPS, "dt": 0.25}
        assert dataset_key(dataset) == spec_dataset_key(spec)

    def test_extra_distinguishes(self, dataset):
        assert dataset_key(dataset) != dataset_key(dataset, extra="other")


class TestLoaderRegressions:
    """Satellites: read-only views out of the loader, and a drain() that
    waits instead of spinning (and still propagates errors)."""

    def test_load_and_peek_return_read_only_views(self, dataset):
        with TimestepLoader(dataset, prefetch=False) as loader:
            gv = loader.load(0)
            with pytest.raises(ValueError):
                gv[0, 0, 0, 0] = 1.0
            with pytest.raises(ValueError):
                loader.peek(0)[0, 0, 0, 0] = 1.0

    def test_drain_waits_out_pending_prefetches(self, dataset):
        import threading

        gate = threading.Event()

        def slow_sleep(_):
            gate.wait(5.0)

        loader = TimestepLoader(dataset, CONVEX_DISK, sleep=slow_sleep)
        try:
            assert loader.prefetch(1)
            gate.set()
            loader.drain()
            assert loader.peek(1) is not None
            assert not loader._pending
        finally:
            loader.close()

    def test_drain_propagates_prefetch_errors(self, dataset):
        class Source(DatasetSource):
            def read(self, t):
                raise RuntimeError("disk on fire")

        cache = TieredTimestepCache(dataset, source=Source(dataset))
        loader = TimestepLoader(dataset, cache=cache)
        try:
            assert loader.prefetch(1)
            with pytest.raises(RuntimeError, match="disk on fire"):
                loader.drain()
        finally:
            loader.close()


class TestMetricsReconciliation:
    """The acceptance soak: wt.metrics cache counters reconcile exactly
    with a deterministic injected load schedule."""

    # Schedule over a 3-deep L1: analytic hit/miss counts.
    SCHEDULE = [0, 1, 2, 0, 1, 2, 3, 1, 3, 4, 0, 4]

    def _expected(self, capacity):
        resident, hits, misses = [], 0, 0
        for t in self.SCHEDULE:
            if t in resident:
                hits += 1
                resident.remove(t)
            else:
                misses += 1
                if len(resident) == capacity:
                    resident.pop(0)
            resident.append(t)
        return hits, misses

    def test_registry_counters_reconcile_exactly(self, dataset):
        registry = MetricsRegistry()
        loader = TimestepLoader(
            dataset, prefetch=False, capacity=3, registry=registry
        )
        try:
            for t in self.SCHEDULE:
                loader.load(t)
        finally:
            loader.close()
        hits, misses = self._expected(3)
        counters = registry.snapshot()["counters"]
        assert counters["cache.l1.hits"] == hits
        assert counters["cache.l1.misses"] == misses
        assert counters["cache.source.hits"] == misses  # every miss reads
        assert counters["loader.hits"] == hits
        assert counters["loader.misses"] == misses
        # The attributes are reads of the same instruments.
        assert loader.hits.value == hits and loader.misses.value == misses
        assert loader.cache.l1.stats.hits.value == hits

    def test_wt_metrics_exposes_cache_tiers(self, dataset):
        from repro.core import WindtunnelClient
        from repro.core.server import WindtunnelServer

        loader = TimestepLoader(dataset, prefetch=False)
        with WindtunnelServer(
            dataset,
            loader=loader,
            time_fn=lambda: 0.0,
        ) as srv:
            with WindtunnelClient(*srv.address) as c:
                c.add_rake([2, 2, 2], [2, 6, 2], n_seeds=4)
                c.fetch_frame()
                counters = c.metrics()["registry"]["counters"]
        stats = loader.cache.l1.stats
        assert counters["cache.l1.hits"] == stats.hits.value
        assert counters["cache.l1.misses"] == stats.misses.value
        source = loader.cache.source.stats
        assert counters["cache.source.hits"] == source.hits.value
        # The session actually drove the cache.
        assert stats.hits.value + stats.misses.value > 0
