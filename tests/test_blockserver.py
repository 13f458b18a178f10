"""Tier 3 of the cache ladder: the timestep block server fleet.

A :class:`TimestepBlockServer` serves decoded timesteps over the dlib
event loop; :class:`RemoteTimestepSource` stripes a fleet of them behind
the tiered cache's ``source`` seam (docs/caching.md).  Servers run
in-process on their event-loop thread, so staging can be drained
deterministically through the server object.
"""

import numpy as np
import pytest

from repro.diskio import TieredTimestepCache, TimestepLoader, dataset_key
from repro.diskio.blockserver import RemoteTimestepSource, TimestepBlockServer
from repro.dlib import DlibClient, DlibRemoteError
from repro.flow import tapered_cylinder_dataset

SHAPE = (6, 6, 4)
TIMESTEPS = 4


@pytest.fixture(scope="module")
def dataset():
    return tapered_cylinder_dataset(shape=SHAPE, n_timesteps=TIMESTEPS, dt=0.25)


@pytest.fixture
def server(dataset):
    srv = TimestepBlockServer(dataset, stage_timesteps=TIMESTEPS).start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    c = DlibClient(*server.address, timeout=10.0)
    yield c
    c.close()


class TestTimestepBlockServer:
    def test_meta_describes_the_dataset(self, dataset, server, client):
        meta = client.call("block.meta")
        assert meta["dataset_id"] == dataset_key(dataset)
        assert tuple(meta["shape"]) == SHAPE
        assert meta["n_timesteps"] == TIMESTEPS
        assert meta["dt"] == dataset.dt
        assert meta["timestep_nbytes"] == dataset.timestep_nbytes

    def test_read_serves_decoded_timesteps(self, dataset, server, client):
        for t in (0, 3):
            arr = client.call("block.read", server.dataset_id, t)
            np.testing.assert_array_equal(arr, dataset.grid_velocity(t))
        assert server.blocks_served.value == 2

    def test_read_rejects_unknown_dataset(self, server, client):
        with pytest.raises(DlibRemoteError, match="unknown dataset"):
            client.call("block.read", "deadbeef00000000", 0)

    def test_prefetch_stages_in_background(self, dataset, server, client):
        issued = client.call("block.prefetch", server.dataset_id, [1, 2])
        assert issued == 2
        server.loader.drain()  # in-process: wait out the stager
        assert server.loader.cache.peek(1) is not None
        assert server.loader.cache.peek(2) is not None
        # A staged read is a tier-1 hit on the server, not a disk read.
        client.call("block.read", server.dataset_id, 1)
        stats = client.call("block.stats")
        assert stats["hints_received"] == 1
        assert stats["blocks_served"] == 1
        assert stats["l1"]["hits"] >= 1

    def test_stats_carry_tier_counters(self, server, client):
        client.call("block.read", server.dataset_id, 0)
        stats = client.call("block.stats")
        for tier in ("l1", "source"):
            assert {"hits", "misses", "bytes"} <= set(stats[tier])


class TestRemoteTimestepSource:
    @pytest.fixture
    def fleet(self, dataset):
        servers = [
            TimestepBlockServer(dataset, stage_timesteps=TIMESTEPS).start()
            for _ in range(2)
        ]
        source = RemoteTimestepSource(
            [s.address for s in servers], dataset_key(dataset)
        )
        yield servers, source
        source.close()
        for s in servers:
            s.stop()

    def test_reads_stripe_across_servers(self, dataset, fleet):
        servers, source = fleet
        for t in range(TIMESTEPS):
            arr = source.read(t)
            assert not arr.flags.writeable
            np.testing.assert_array_equal(arr, dataset.grid_velocity(t))
        # t mod N ownership: each server saw exactly its half.
        assert servers[0].blocks_served.value == 2
        assert servers[1].blocks_served.value == 2
        assert source.stats.hits.value == TIMESTEPS

    def test_meta_comes_from_the_first_server(self, dataset, fleet):
        _, source = fleet
        assert source.meta()["dataset_id"] == dataset_key(dataset)

    def test_hints_fan_out_by_owner(self, fleet):
        servers, source = fleet
        source.hint([0, 1, 2, 3])
        assert source.hints_sent == 2  # one batched call per owner
        for s in servers:
            s.loader.drain()
            assert s.hints_received.value == 1
        assert servers[0].loader.cache.peek(2) is not None
        assert servers[1].loader.cache.peek(3) is not None

    def test_hint_swallows_transport_failure(self, fleet):
        servers, source = fleet
        servers[1].stop()  # odd timesteps' owner goes away
        source.hint([1])
        assert source.hint_errors == 1

    def test_read_raises_on_transport_failure(self, fleet):
        servers, source = fleet
        servers[0].stop()
        with pytest.raises((ConnectionError, OSError)):
            source.read(0)

    def test_needs_at_least_one_server(self):
        with pytest.raises(ValueError, match="at least one"):
            RemoteTimestepSource([], "cafe")


class TestLoaderThroughRemoteSource:
    def test_tiered_cache_plugs_in_a_remote_source(self, dataset, server):
        source = RemoteTimestepSource([server.address], server.dataset_id)
        tiers = TieredTimestepCache(dataset, l1_timesteps=2, source=source)
        loader = TimestepLoader(dataset, cache=tiers, prefetch=False)
        try:
            gv = loader.load(1)
            np.testing.assert_array_equal(gv, dataset.grid_velocity(1))
            # Repeat reads hit the worker's private L1, not the network.
            loader.load(1)
            assert tiers.l1.stats.hits.value == 1
            assert source.stats.hits.value == 1
            # Remote reads carry no local modeled-disk charge.
            assert source.stats.stall_seconds.value == 0
        finally:
            loader.close()

    def test_prediction_forwards_to_the_server_stager(self, dataset, server):
        source = RemoteTimestepSource([server.address], server.dataset_id)
        tiers = TieredTimestepCache(dataset, l1_timesteps=2, source=source)
        try:
            tiers.prefetch_hint([2, 3])
            server.loader.drain()
            assert server.loader.cache.peek(2) is not None
            assert server.loader.cache.peek(3) is not None
            assert server.hints_received.value == 1
        finally:
            tiers.close()
