"""Tests for dataset containers, residency, and grid-velocity caching."""

import numpy as np
import pytest

from repro.flow import DiskDataset, MemoryDataset, UniformFlow, sample_on_grid
from repro.grid import cartesian_grid


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
        with pytest.raises(ValueError):
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

    def test_grid_velocity_cache_lru(self, small_dataset):
        ds = small_dataset
        ds.cache_timesteps = 2
        ds.grid_velocity(0)
        ds.grid_velocity(1)
        ds.grid_velocity(2)
        assert ds.cached_timesteps == [1, 2]
        # Touch 1 -> becomes most recent; loading 3 evicts 2.
        ds.grid_velocity(1)
        ds.grid_velocity(3)
        assert ds.cached_timesteps == [1, 3]

    def test_grid_velocity_cached_identity(self, small_dataset):
        a = small_dataset.grid_velocity(0)
        b = small_dataset.grid_velocity(0)
        assert a is b

    def test_grid_velocity_readonly(self, small_dataset):
        gv = small_dataset.grid_velocity(0)
        with pytest.raises(ValueError):
            gv[0, 0, 0, 0] = 1.0


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
        with pytest.raises(ValueError, match="singular at 16 of 64 nodes"):
            disk.grid_velocity(0)
        assert disk.cached_timesteps == []
