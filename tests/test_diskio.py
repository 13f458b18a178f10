"""Tests for disk models, prefetching loader, and residency planning."""

import numpy as np
import pytest

from repro.diskio import (
    CONVEX_DISK,
    DatasetSource,
    DiskModel,
    ResidencyPlan,
    TieredTimestepCache,
    TimestepLoader,
    plan_residency,
    required_disk_bandwidth_mbps,
    table2_rows,
    timesteps_per_gigabyte,
)
from repro.flow import MemoryDataset, UniformFlow, sample_on_grid
from repro.grid import cartesian_grid

MB = 1 << 20


def small_dataset(n_times=6):
    grid = cartesian_grid((4, 4, 4))
    vel = sample_on_grid(UniformFlow(), grid, np.arange(n_times) * 0.1)
    return MemoryDataset(grid, vel, dt=0.1)


class TestTable2Accounting:
    def test_paper_rows(self):
        """Table 2 columns at the self-consistent 12 bytes/point."""
        rows = table2_rows()
        by_points = {r["points"]: r for r in rows}
        # Row 1: the tapered cylinder.
        tc = by_points[131_072]
        assert tc["bytes_per_timestep"] == 1_572_864
        assert tc["timesteps_per_gb"] == 682
        assert tc["required_mbps"] == pytest.approx(15.0)
        # Row 2: "current max".
        cm = by_points[436_906]
        assert cm["bytes_per_timestep"] == 5_242_872
        assert cm["timesteps_per_gb"] == 204
        assert cm["required_mbps"] == pytest.approx(50.0, abs=0.01)
        # Row 3: one million points.
        m1 = by_points[1_000_000]
        assert m1["timesteps_per_gb"] == 89
        assert m1["required_mbps"] == pytest.approx(114.4, abs=0.05)
        # Row 4: the Harrier-scale 3M points / 36 MB timesteps.
        m3 = by_points[3_000_000]
        assert m3["bytes_per_timestep"] == 36_000_000
        assert m3["timesteps_per_gb"] == 29
        assert m3["required_mbps"] == pytest.approx(343.32, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            timesteps_per_gigabyte(0)
        with pytest.raises(ValueError):
            required_disk_bandwidth_mbps(100, fps=0)


class TestDiskModel:
    def test_convex_range(self):
        assert CONVEX_DISK.sustained_bandwidth(100 * MB) == pytest.approx(50 * MB)
        assert CONVEX_DISK.sustained_bandwidth(512 * 1024) == pytest.approx(30 * MB)

    def test_bandwidth_monotone_in_size(self):
        sizes = [MB, 4 * MB, 16 * MB, 64 * MB]
        bws = [CONVEX_DISK.sustained_bandwidth(s) for s in sizes]
        assert bws == sorted(bws)

    def test_paper_eighth_second_capacity(self):
        """Section 5.1: ~3.25 MB loads in 1/8 s at 30 MB/s."""
        cap = CONVEX_DISK.max_timestep_bytes(0.125)
        assert 3.0 * MB < cap < 5.5 * MB

    def test_tapered_cylinder_loads_in_budget(self):
        assert CONVEX_DISK.read_time(1_572_864) < 0.125

    def test_harrier_does_not(self):
        """The 36 MB/timestep Harrier dataset busts the budget (sec 5.1)."""
        assert CONVEX_DISK.read_time(36_000_000) > 0.125

    def test_latency_in_read_time(self):
        m = DiskModel("seeky", 10 * MB, 20 * MB, latency=0.01)
        assert m.read_time(MB) > 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskModel("bad", 0.0, 10.0)
        with pytest.raises(ValueError):
            DiskModel("bad", 10.0, 5.0)
        with pytest.raises(ValueError):
            DiskModel("bad", 10.0, 20.0, small_size=5.0, large_size=5.0)
        with pytest.raises(ValueError):
            CONVEX_DISK.sustained_bandwidth(0)

    def test_budget_below_latency(self):
        m = DiskModel("seeky", 10 * MB, 20 * MB, latency=0.2)
        assert m.max_timestep_bytes(0.125) == 0


class TestTimestepLoader:
    def test_basic_load(self):
        ds = small_dataset()
        with TimestepLoader(ds, prefetch=False) as loader:
            gv = loader.load(0)
            np.testing.assert_allclose(gv, ds.grid_velocity(0))
            assert loader.misses.value == 1

    def test_buffer_hit(self):
        ds = small_dataset()
        with TimestepLoader(ds, prefetch=False) as loader:
            loader.load(2)
            loader.load(2)
            assert loader.hits.value == 1 and loader.misses.value == 1

    def test_prefetch_hides_next_load(self):
        ds = small_dataset()
        with TimestepLoader(ds) as loader:
            loader.load(0)
            assert loader.prefetch(1)
            loader.drain()
            assert 1 in loader.buffered_timesteps
            loader.load(1)
            assert loader.hits.value == 1
            assert loader.prefetch_issued.value == 1

    def test_load_issues_no_prefetch_of_its_own(self):
        ds = small_dataset()
        with TimestepLoader(ds) as loader:
            loader.load(0)
            loader.drain()
            assert loader.prefetch_issued.value == 0
            assert loader.buffered_timesteps == [0]

    def test_backward_direction_prefetches_upstream(self):
        """Time can run backwards (section 2): the driver stages t - 1."""
        ds = small_dataset()
        with TimestepLoader(ds) as loader:
            loader.load(3)
            assert loader.prefetch(3 - 1)
            loader.drain()
            assert 2 in loader.buffered_timesteps

    def test_no_prefetch_past_end(self):
        ds = small_dataset(n_times=3)
        with TimestepLoader(ds) as loader:
            loader.load(2)
            assert not loader.prefetch(3)
            assert not loader.prefetch(-1)
            loader.drain()
            assert loader.prefetch_issued.value == 0

    def test_modeled_disk_time_accumulates(self):
        ds = small_dataset()
        clock_time = []
        with TimestepLoader(
            ds,
            disk_model=DiskModel("tiny", 10 * MB, 20 * MB),
            prefetch=False,
            sleep=clock_time.append,
        ) as loader:
            loader.load(0)
            loader.load(1)
        modeled = loader.cache.source.stats.stall_seconds.value
        assert modeled == pytest.approx(sum(clock_time))
        assert modeled > 0

    def test_capacity_eviction(self):
        ds = small_dataset()
        with TimestepLoader(ds, prefetch=False, capacity=2) as loader:
            for t in range(4):
                loader.load(t)
            assert len(loader.buffered_timesteps) == 2
            assert loader.buffered_timesteps == [2, 3]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TimestepLoader(small_dataset(), capacity=0)

    def test_failed_prefetch_does_not_poison_its_timestep(self):
        """A speculative read that fails is counted and forgotten: the
        next load of that timestep reads on demand."""
        ds = small_dataset()
        faults = [ConnectionError("transient")]

        class FlakySource(DatasetSource):
            def read(self, t):
                if t == 1 and faults:
                    raise faults.pop()
                return super().read(t)

        cache = TieredTimestepCache(ds, source=FlakySource(ds))
        with TimestepLoader(ds, cache=cache) as loader:
            loader.load(0)
            assert loader.prefetch(1)  # which fails
            with pytest.raises(ConnectionError, match="transient"):
                loader.drain()
            loader.drain()  # reported once, not forever
            assert loader.prefetch_errors.value == 1
            np.testing.assert_allclose(
                loader.load(1), ds.grid_velocity(1)
            )
            assert loader.misses.value == 2
            # A persisting fault is the demand read's own error, and the
            # timestep can be staged again once it clears.
            faults.append(ConnectionError("still down"))
            cache.l1.clear()
            with pytest.raises(ConnectionError, match="still down"):
                loader.load(1)
            assert loader.prefetch(1)
            loader.drain()
            assert 1 in loader.buffered_timesteps


class TestResidency:
    def test_fully_resident(self):
        ds = small_dataset()
        plan = plan_residency(ds, memory_bytes=ds.total_nbytes)
        assert plan.fits_in_memory
        assert plan.window_timesteps == ds.n_timesteps
        assert plan.required_disk_mbps == 0.0
        assert plan.max_particle_path_steps == ds.n_timesteps - 1

    def test_streaming_window(self):
        ds = small_dataset(n_times=6)
        plan = plan_residency(ds, memory_bytes=ds.timestep_nbytes * 3)
        assert not plan.fits_in_memory
        assert plan.window_timesteps == 3
        assert plan.max_particle_path_steps == 2
        assert plan.required_disk_mbps > 0

    def test_nothing_fits(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            plan_residency(ds, memory_bytes=ds.timestep_nbytes - 1)

    def test_feasibility_against_disk(self):
        ds = small_dataset(n_times=6)
        plan = plan_residency(ds, memory_bytes=ds.timestep_nbytes * 2)
        assert plan.feasible_at(CONVEX_DISK.min_bandwidth)

    def test_paper_scaling_convex_vs_workstation(self):
        """Section 5.1: the Convex's 1 GB holds datasets 'four times as
        large as in the stand-alone virtual windtunnel case'."""
        from repro.diskio.residency import CONVEX_C3240_MEMORY, SGI_380GT_MEMORY

        assert CONVEX_C3240_MEMORY == 4 * SGI_380GT_MEMORY

    def test_validation(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            plan_residency(ds, memory_bytes=0)
        with pytest.raises(ValueError):
            plan_residency(ds, memory_bytes=ds.total_nbytes, fps=0)

    def test_plan_is_frozen(self):
        ds = small_dataset()
        plan = plan_residency(ds, memory_bytes=ds.total_nbytes)
        with pytest.raises(AttributeError):
            plan.fits_in_memory = False
