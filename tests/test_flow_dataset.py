"""Tests for dataset containers, residency, and the grid-velocity decode."""

import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import repro.flow.dataset as dataset_module
from repro.diskio import TimestepCache, TimestepLoader
from repro.flow import (
    DiskDataset,
    MemoryDataset,
    UniformFlow,
    sample_on_grid,
    tapered_cylinder_dataset,
)
from repro.flow.dataset import TruncatedDatasetError
from repro.grid import cartesian_grid
from repro.grid.jacobian import physical_to_grid_velocity


@pytest.fixture()
def decodes(monkeypatch):
    """Count the dataset's physical->grid decodes."""
    calls = []

    def counted(grid, velocity):
        calls.append(1)
        return physical_to_grid_velocity(grid, velocity)

    monkeypatch.setattr(dataset_module, "physical_to_grid_velocity", counted)
    return calls


@pytest.fixture()
def small_dataset():
    grid = cartesian_grid((4, 4, 4), hi=(3.0, 6.0, 9.0))
    times = np.arange(5) * 0.1
    vel = sample_on_grid(UniformFlow([1.0, 2.0, 3.0]), grid, times)
    return MemoryDataset(grid, vel, dt=0.1)


class TestMemoryDataset:
    def test_shapes_and_counts(self, small_dataset):
        ds = small_dataset
        assert ds.n_timesteps == 5
        assert ds.velocity(0).shape == (4, 4, 4, 3)
        assert ds.timestep_nbytes == 4 * 4 * 4 * 3 * 4  # float32
        assert ds.total_nbytes == 5 * ds.timestep_nbytes

    def test_shape_validation(self):
        grid = cartesian_grid((4, 4, 4))
        with pytest.raises(ValueError):
            MemoryDataset(grid, np.zeros((5, 3, 3, 3, 3)))
        with pytest.raises(ValueError):
            MemoryDataset(grid, np.zeros((4, 4, 4, 3)))

    def test_parameter_validation(self, small_dataset):
        grid = cartesian_grid((4, 4, 4))
        vel = np.zeros((2, 4, 4, 4, 3))
        with pytest.raises(ValueError):
            MemoryDataset(grid, vel, dt=0.0)
        # The dataset keeps no timesteps of its own, so it takes no budget.
        with pytest.raises(TypeError):
            MemoryDataset(grid, vel, cache_timesteps=0)

    def test_timestep_bounds(self, small_dataset):
        with pytest.raises(IndexError):
            small_dataset.velocity(5)
        with pytest.raises(IndexError):
            small_dataset.velocity(-1)

    def test_times(self, small_dataset):
        np.testing.assert_allclose(small_dataset.times(), [0, 0.1, 0.2, 0.3, 0.4])

    def test_grid_velocity_converts_with_jacobian(self, small_dataset):
        # Grid spacing (1, 2, 3) => grid velocity (1, 1, 1) for v=(1,2,3).
        gv = small_dataset.grid_velocity(0)
        np.testing.assert_allclose(gv, 1.0, atol=1e-12)

    def test_grid_velocity_freed_when_nothing_holds_it(self, small_dataset, decodes):
        ds = small_dataset
        gv = ds.grid_velocity(0)
        owner = weakref.ref(gv.base)
        del gv
        gc.collect()
        assert owner() is None
        ds.grid_velocity(0)
        assert len(decodes) == 2

    def test_grid_velocity_shared_while_held(self, small_dataset, decodes):
        ds = small_dataset
        a = ds.grid_velocity(0)
        b = ds.grid_velocity(0)
        assert np.shares_memory(a, b) and len(decodes) == 1
        # A tier holding only its own view of the decode keeps it shared.
        tier = TimestepCache(capacity_timesteps=1)
        tier.put(1, ds.grid_velocity(1))
        del a, b
        gc.collect()
        c = ds.grid_velocity(1)
        assert np.shares_memory(c, tier.peek(1)) and len(decodes) == 2

    def test_concurrent_decodes_hand_out_one_array(self, small_dataset, monkeypatch):
        """Threads racing to decode a timestep may each solve, but every
        caller ends up holding the one array the memo kept."""

        def slow_decode(grid, velocity):
            time.sleep(0.001)  # every racer misses before any stores
            return physical_to_grid_velocity(grid, velocity)

        monkeypatch.setattr(dataset_module, "physical_to_grid_velocity", slow_decode)
        held = [[] for _ in range(8)]
        barrier = threading.Barrier(len(held))

        def worker(out):
            barrier.wait()
            for t in range(small_dataset.n_timesteps):
                out.append(small_dataset.grid_velocity(t))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(h,)) for h in held]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        for t in range(small_dataset.n_timesteps):
            assert all(np.shares_memory(h[t], held[0][t]) for h in held)

    def test_grid_velocity_readonly(self, small_dataset):
        gv = small_dataset.grid_velocity(0)
        shared = small_dataset.grid_velocity(0)
        for arr in (gv, shared):
            with pytest.raises(ValueError):
                arr[0, 0, 0, 0] = 1.0


class TestTimestepNbytes:
    """``timestep_nbytes`` is the stored size (shape x stored dtype),
    recorded at construction: asking for it reads no data."""

    @pytest.mark.parametrize("kind", ["memory32", "memory64", "disk", "live"])
    def test_equals_stored_size_without_a_read(self, kind, tmp_path, monkeypatch):
        from repro.insitu import LiveFlowSource

        grid = cartesian_grid((4, 5, 6))
        dtype = np.float64 if kind == "memory64" else np.float32
        vel = sample_on_grid(UniformFlow(), grid, np.arange(3) * 0.1, dtype=dtype)
        ds = MemoryDataset(grid, vel, dt=0.1)
        if kind == "disk":
            ds = DiskDataset(ds.save(tmp_path / "ds"))
        elif kind == "live":
            ds = LiveFlowSource(grid, vel[0], dt=0.1)
        expected = ds.velocity(0).nbytes
        assert expected == 4 * 5 * 6 * 3 * np.dtype(dtype).itemsize

        def no_read(t):
            raise AssertionError("timestep_nbytes must not read a timestep")

        monkeypatch.setattr(ds, "velocity", no_read)
        assert ds.timestep_nbytes == expected
        assert ds.total_nbytes == expected * ds.n_timesteps


class TestDiskDataset:
    def test_save_load_roundtrip(self, small_dataset, tmp_path):
        path = small_dataset.save(tmp_path / "ds")
        disk = DiskDataset(path)
        assert disk.n_timesteps == small_dataset.n_timesteps
        assert disk.dt == small_dataset.dt
        np.testing.assert_allclose(disk.grid.xyz, small_dataset.grid.xyz)
        for t in range(disk.n_timesteps):
            np.testing.assert_allclose(disk.velocity(t), small_dataset.velocity(t))

    def test_velocity_is_materialized_copy(self, small_dataset, tmp_path):
        disk = DiskDataset(small_dataset.save(tmp_path / "ds"))
        v = disk.velocity(0)
        assert isinstance(v, np.ndarray) and not isinstance(v, np.memmap)

    def test_grid_velocity_on_disk_dataset(self, small_dataset, tmp_path):
        disk = DiskDataset(small_dataset.save(tmp_path / "ds"))
        np.testing.assert_allclose(disk.grid_velocity(2), 1.0, atol=1e-12)

    def test_corrupt_metadata_detected(self, small_dataset, tmp_path):
        path = small_dataset.save(tmp_path / "ds")
        meta = path / "meta.json"
        meta.write_text(meta.read_text().replace('"n_timesteps": 5', '"n_timesteps": 9'))
        with pytest.raises(ValueError):
            DiskDataset(path)

    def test_degenerate_grid_file_is_a_typed_rejection(self, small_dataset, tmp_path):
        """Coincident planes in ``grid.npy`` used to surface as
        ``LinAlgError`` from whichever thread decoded first."""
        path = small_dataset.save(tmp_path / "ds")
        nodes = np.load(path / "grid.npy")
        nodes[:, :, -1] = nodes[:, :, -2]
        np.save(path / "grid.npy", nodes)
        disk = DiskDataset(path)
        # A failed decode leaves nothing behind: a retry raises again.
        for _ in range(2):
            with pytest.raises(ValueError, match="singular at 16 of 64 nodes"):
                disk.grid_velocity(0)


class TestReplayHoldsOnlyItsTiers:
    """A disk replay holds what its tier stack holds: no decoded timestep
    outlives the tiers, and no read leaves the file mapped."""

    N_TIMESTEPS = 12

    @pytest.fixture()
    def disk(self, tmp_path):
        path = tapered_cylinder_dataset(
            shape=(8, 8, 4), n_timesteps=self.N_TIMESTEPS
        ).save(tmp_path / "ds")
        return DiskDataset(path)

    def test_looped_replay_keeps_tier_one_plus_one_in_flight(self, disk):
        stored = np.load(disk.path / "velocity.npy")
        loader = TimestepLoader(disk, capacity=2, prefetch=True)
        try:
            for t in [*range(self.N_TIMESTEPS)] * 2:
                gv = loader.load(t)
                loader.prefetch((t + 1) % self.N_TIMESTEPS)
                expected = physical_to_grid_velocity(disk.grid, stored[t])
                assert gv.tobytes() == expected.tobytes()
                assert len(disk._decoded) <= loader.capacity + 1
                del gv
            loader.drain()
        finally:
            loader.close()
        assert not any(isinstance(v, np.memmap) for v in vars(disk).values())
        for t in range(self.N_TIMESTEPS):
            v = disk.velocity(t)
            assert type(v) is np.ndarray
            assert v.dtype == stored.dtype and v.tobytes() == stored[t].tobytes()

    def test_truncated_velocity_file_is_a_typed_short_read(self, disk):
        velocity = disk.path / "velocity.npy"
        velocity.write_bytes(velocity.read_bytes()[:-5])
        disk = DiskDataset(disk.path)
        disk.velocity(0)
        last = self.N_TIMESTEPS - 1
        with pytest.raises(TruncatedDatasetError, match=f"timestep {last}"):
            disk.velocity(last)
        with TimestepLoader(disk, capacity=2, prefetch=False) as loader:
            with pytest.raises(TruncatedDatasetError):
                loader.load(last)
