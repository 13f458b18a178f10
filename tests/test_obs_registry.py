"""Unit tests for the metrics registry (repro.obs.registry)."""

import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_counts(self):
        c = Counter("c")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            Counter("c").inc(-1)

    def test_concurrent_increments_are_exact(self):
        c = Counter("c")
        threads = [
            threading.Thread(target=lambda: [c.inc() for _ in range(1000)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("g")
        g.set(2.5)
        assert g.value == 2.5
        g.inc()
        g.dec(0.5)
        assert g.value == 3.0


class TestHistogram:
    def test_empty_snapshot_is_all_zero(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0
        assert snap["p50"] == snap["p95"] == snap["p99"] == 0.0
        assert snap["min"] == 0.0 and snap["max"] == 0.0

    def test_quantile_of_empty_is_zero(self):
        assert Histogram("h").quantile(0.5) == 0.0

    def test_streaming_stats_are_exact_over_full_history(self):
        h = Histogram("h", window=4)
        for v in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 6
        assert snap["mean"] == pytest.approx(3.5)
        assert snap["min"] == 1.0 and snap["max"] == 6.0
        assert snap["total"] == pytest.approx(21.0)

    def test_quantiles_describe_the_recent_window_only(self):
        # One early catastrophe must age out of the ring: after `window`
        # fresh samples, p50/p99 describe now, not the process's life.
        h = Histogram("h", window=8)
        h.observe(1000.0)
        for _ in range(8):
            h.observe(0.01)
        assert h.quantile(0.99) == pytest.approx(0.01)
        assert h.snapshot()["max"] == 1000.0  # history keeps the peak

    def test_window_keeps_the_newest_samples(self):
        h = Histogram("h", window=3)
        for v in range(5):
            h.observe(float(v))
        assert h.quantile(0.0) == 2.0 and h.quantile(1.0) == 4.0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            Histogram("h", window=0)

    @given(st.integers(1, 6), st.lists(st.integers(0, 50), min_size=1, max_size=30))
    def test_window_quantiles_match_reference_model(self, window, values):
        """Property: the quantiles are NumPy's over the trailing
        ``window`` samples of everything observed."""
        h = Histogram("h", window=window)
        for i, v in enumerate(values):
            h.observe(v / 8.0)
            recent = [x / 8.0 for x in values[: i + 1]][-window:]
            snap = h.snapshot()
            for q in (0.5, 0.95, 0.99):
                assert snap[f"p{int(q * 100)}"] == np.quantile(recent, q)
            assert h.quantile(0.5) == np.quantile(recent, 0.5)

    def test_quantile_ordering(self):
        h = Histogram("h")
        for v in range(100):
            h.observe(v / 100.0)
        snap = h.snapshot()
        assert snap["p50"] <= snap["p95"] <= snap["p99"]
        assert snap["p50"] == pytest.approx(0.495, abs=0.02)


class TestMetricsRegistry:
    def test_instruments_are_shared_by_name(self):
        r = MetricsRegistry()
        assert r.counter("x") is r.counter("x")
        assert r.gauge("y") is r.gauge("y")
        assert r.histogram("z") is r.histogram("z")

    def test_kind_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("dual")
        with pytest.raises(ValueError, match="different kind"):
            r.gauge("dual")
        with pytest.raises(ValueError, match="different kind"):
            r.histogram("dual")

    def test_snapshot_is_plain_sorted_data(self):
        r = MetricsRegistry()
        r.counter("b.count").inc(2)
        r.counter("a.count").inc(1)
        r.gauge("level").set(0.5)
        r.histogram("lat").observe(0.1)
        snap = r.snapshot()
        assert list(snap["counters"]) == ["a.count", "b.count"]
        assert snap["counters"]["b.count"] == 2
        assert snap["gauges"]["level"] == 0.5
        assert snap["histograms"]["lat"]["count"] == 1

    def test_snapshot_crosses_the_wire(self):
        from repro.dlib.protocol import decode_value, encode_value

        r = MetricsRegistry()
        r.counter("c").inc()
        r.histogram("h").observe(0.25)
        snap = r.snapshot()
        assert decode_value(encode_value(snap)) == snap

    def test_registries_are_isolated(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc()
        assert b.counter("n").value == 0

    def test_adopt_rehomes_the_instrument_objects(self):
        owner, part = MetricsRegistry(), MetricsRegistry()
        owner.counter("owner.n").inc()
        hits = part.counter("part.hits")
        hits.inc(3)
        part.gauge("part.level").set(0.5)
        part.histogram("part.lat").observe(0.25)
        owner.adopt(part)
        assert owner.counter("part.hits") is hits  # moved, not replayed
        hits.inc()
        snap = owner.snapshot()
        assert snap["counters"] == {"owner.n": 1, "part.hits": 4}
        assert snap["gauges"] == {"part.level": 0.5}
        assert snap["histograms"]["part.lat"]["count"] == 1
        # The adopted registry is an alias now: no handle goes stale.
        part.counter("part.late").inc()
        assert owner.snapshot() == part.snapshot()
        assert owner.snapshot()["counters"]["part.late"] == 1
        owner.adopt(part)  # idempotent
        owner.adopt(owner)
        assert owner.counter("part.hits").value == 4

    def test_adopt_refuses_a_name_already_present(self):
        owner, part = MetricsRegistry(), MetricsRegistry()
        owner.gauge("shared.name").set(1.0)
        part.counter("shared.name").inc(2)
        part.counter("part.only").inc()
        with pytest.raises(ValueError, match="shared.name"):
            owner.adopt(part)
        # Nothing moved: both registries read as before.
        assert owner.snapshot()["counters"] == {}
        assert part.snapshot()["counters"] == {"part.only": 1, "shared.name": 2}
