"""One store per number: every stats reply is a projection of the registry.

``wt.stats``, ``wt.pipeline_stats`` and ``wt.health`` predate
``wt.metrics`` and used to keep their own plain-int copies beside it;
the copies drifted.  These tests pin the replacement: each numeric
key a reply carries that has a registry name *is* that instrument's
value — including numbers accrued before the server (and its registry)
existed, which are re-homed by :meth:`MetricsRegistry.adopt`, not
replayed.
"""

import numpy as np
import pytest

from repro.core import WindtunnelClient
from repro.core.server import WindtunnelServer
from repro.diskio import CONVEX_DISK, TimestepLoader
from repro.dlib import DlibClient
from repro.flow import tapered_cylinder_dataset
from repro.obs import MetricsRegistry

TIER_KEYS = ("hits", "misses", "bytes", "evictions", "appends", "stall_seconds")


@pytest.fixture(scope="module")
def dataset():
    return tapered_cylinder_dataset(shape=(16, 16, 8), n_timesteps=6, dt=0.25)


def _named(snapshot: dict, name: str):
    """The value ``wt.metrics`` reports under ``name`` (any instrument kind)."""
    for kind in ("counters", "gauges", "histograms"):
        if name in snapshot[kind]:
            return snapshot[kind][name]
    raise KeyError(name)


def _tier_names(tier: str) -> dict:
    names = {key: f"cache.{tier}.{key}" for key in TIER_KEYS}
    names["resident_bytes"] = f"cache.{tier}.resident_bytes"
    return names


def _assert_projects(reply: dict, names: dict, snapshot: dict, where: str):
    for key, name in names.items():
        assert reply[key] == _named(snapshot, name), (where, key, name)


class TestRepliesAreProjections:
    def test_wt_replies_equal_the_metrics_snapshot(self, dataset):
        """A scripted session — loader-backed replay, a q16 subscriber,
        one write — then the pipeline is stopped so nothing moves between
        the three reads."""
        loader = TimestepLoader(dataset, CONVEX_DISK, sleep=lambda s: None)
        with WindtunnelServer(dataset, loader=loader, time_fn=lambda: 0.0) as srv:
            with WindtunnelClient(*srv.address) as c:
                c.add_rake([-1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], n_seeds=4)
                c.subscribe(encoding="q16")
                c.fetch_frame()
                c.time_control("step", 1)  # the write
                c.fetch_frame()
                c.fetch_frame()  # a frame-cache hit
                srv.pipeline.stop()
                loader.drain()
                stats = c.server_stats()
                pipeline = c.pipeline_stats()
                snapshot = c.metrics()["registry"]

        _assert_projects(
            stats,
            {
                "frames_served": "wt.frames_served",
                "frames_computed": "pipeline.frames_produced",
                "frames_published": "framestore.frames_published",
                "points_computed": "engine.points_computed",
                "push_frames": "net.push_frames",
                "disconnects": "dlib.disconnects",
                "protocol_errors": "dlib.protocol_errors",
            },
            snapshot,
            "wt.stats",
        )
        compute = snapshot["histograms"]["pipeline.compute_seconds"]
        assert stats["compute_mean_seconds"] == compute["mean"]
        assert stats["frames_served"] == 3 and stats["frames_computed"] == 2

        _assert_projects(
            pipeline,
            {
                key: f"pipeline.{key}"
                for key in (
                    "frames_produced", "frames_encoded", "frames_anticipated",
                    "requests", "invalidations", "produce_errors", "idle_cycles",
                )
            },
            snapshot,
            "wt.pipeline_stats",
        )
        assert pipeline["frames_published"] == _named(
            snapshot, "framestore.frames_published"
        )
        for stage, reply in pipeline["stages"].items():
            assert reply == _named(snapshot, f"pipeline.stage.{stage}_seconds")
            assert reply["count"] == 2
        _assert_projects(
            pipeline["compute"],
            {
                "fused_batch_size": "engine.fused_batch_size",
                "points_per_second": "engine.points_per_second",
            },
            snapshot,
            "compute",
        )
        cache = pipeline["cache"]
        for tier in ("l1", "source"):
            _assert_projects(cache[tier], _tier_names(tier), snapshot, tier)
        _assert_projects(
            cache["loader"],
            {
                "hits": "loader.hits",
                "misses": "loader.misses",
                "prefetch_issued": "loader.prefetch_issued",
                "stall_seconds": "cache.l1.stall_seconds",
                "modeled_read_seconds": "cache.source.stall_seconds",
            },
            snapshot,
            "cache.loader",
        )
        # The session really drove every layer the table names.
        assert cache["source"]["hits"] >= 2 and cache["loader"]["misses"] >= 1
        assert cache["loader"]["modeled_read_seconds"] > 0
        assert snapshot["counters"]["net.keyframes"] >= 1

    def test_a_bare_server_reports_its_tier_1(self, dataset):
        """No loader passed: the server's reads still go through a tier 1
        that ``wt.pipeline_stats`` reports."""
        with WindtunnelServer(dataset) as srv:
            with WindtunnelClient(*srv.address) as c:
                c.add_rake([-1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], n_seeds=4)
                c.fetch_frame()
                cache = c.pipeline_stats()["cache"]
        assert isinstance(cache, dict)
        assert cache["l1"]["hits"] + cache["l1"]["misses"] > 0


class TestLateBinding:
    def test_reads_made_before_the_server_existed_are_reported(self, dataset):
        """The frozen ``replay_paper`` order: loader first, server second."""
        loader = TimestepLoader(dataset, prefetch=False, capacity=4)
        for t in range(3):
            loader.load(t)
        with WindtunnelServer(dataset, loader=loader) as srv:
            with WindtunnelClient(*srv.address) as c:
                counters = c.metrics()["registry"]["counters"]
                assert counters["cache.source.hits"] == 3
                assert counters["cache.l1.misses"] == 3
                assert counters["loader.misses"] == 3
                # ...and what happens next lands in the same instruments.
                loader.load(0)
                counters = c.metrics()["registry"]["counters"]
                assert counters["cache.l1.hits"] == 1 == counters["loader.hits"]
                assert counters["cache.source.hits"] == 3
        assert loader.registry.snapshot() == srv.registry.snapshot()

    def test_a_second_store_for_one_name_is_refused(self, dataset):
        registry = MetricsRegistry()
        registry.counter("cache.l1.hits").inc(7)  # somebody else's number
        loader = TimestepLoader(dataset, prefetch=False)
        try:
            with pytest.raises(ValueError, match="cache.l1.hits"):
                WindtunnelServer(dataset, loader=loader, registry=registry)
        finally:
            loader.close()
        assert registry.counter("cache.l1.hits").value == 7


class TestPointsAgree:
    def test_wt_stats_and_wt_metrics_count_the_same_points(self, dataset):
        """Streaklines are computed per rake, outside the megabatch; they
        are still points the engine produced (the counter used to miss them).

        Each frame is read twice: a session that re-reads frames never
        has the next one speculated, so every point computed is served."""
        clock = {"now": 0.0}
        with WindtunnelServer(
            dataset, time_fn=lambda: clock["now"], time_speed=1.0
        ) as srv:
            with WindtunnelClient(*srv.address) as c:
                c.add_rake([-1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], n_seeds=4)
                c.add_rake(
                    [-1.5, -1.0, 2.0], [-1.5, 1.0, 2.0], n_seeds=4, kind="streakline"
                )
                c.time_control("pause")
                served = 0
                for _ in range(3):
                    state = c.fetch_frame()
                    assert c.fetch_frame()["cached"]
                    served += sum(
                        int(np.sum(path["lengths"]))
                        for path in state["paths"].values()
                    )
                    c.time_control("step", 1)
                stats = c.server_stats()
                counters = c.metrics()["registry"]["counters"]
        assert stats["frames_computed"] == 3
        assert counters["pipeline.frames_anticipated"] == 0
        assert served > 0
        assert stats["points_computed"] == counters["engine.points_computed"] == served


class TestHealthSeesOnset:
    def test_saturation_follows_the_recent_window(self, dataset):
        """An hour of cheap frames must not hide a worker that is
        saturated *now* from the admission ladder (reject at 0.85)."""
        with WindtunnelServer(dataset) as srv:
            hist = srv.registry.histogram("pipeline.compute_seconds")
            for _ in range(5000):
                hist.observe(0.002)
            for _ in range(300):
                hist.observe(0.200)
            probe = DlibClient(*srv.address, timeout=10.0)
            try:
                health = probe.call("wt.health")
            finally:
                probe.close()
        assert health["saturation"] >= 0.85
        lifetime = (5000 * 0.002 + 300 * 0.200) / 5300
        assert health["compute_mean_seconds"] == pytest.approx(lifetime)
