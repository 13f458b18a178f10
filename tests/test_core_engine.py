"""Tests for the ComputeEngine and its tool settings."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import ComputeEngine, Environment, ToolSettings
from repro.diskio import (
    CONVEX_DISK,
    DatasetSource,
    TieredTimestepCache,
    TimestepLoader,
)
from repro.flow import MemoryDataset, RigidRotation, UniformFlow, sample_on_grid
from repro.grid import cartesian_grid
from repro.tracers import Rake, integrate_paths


@pytest.fixture(scope="module")
def dataset():
    grid = cartesian_grid((9, 9, 5), lo=(0, 0, 0), hi=(8, 8, 4))
    field = RigidRotation(omega=[0, 0, 1.0], center=[4, 4, 0]) + UniformFlow(
        [0.05, 0, 0]
    )
    vel = sample_on_grid(field, grid, np.arange(6) * 0.2, dtype=np.float64)
    return MemoryDataset(grid, vel, dt=0.2)


@pytest.fixture()
def engine(dataset):
    return ComputeEngine(dataset, ToolSettings(streamline_steps=20, streakline_length=8))


class TestSeedConversion:
    def test_seeds_convert_to_grid_coords(self, engine):
        rake = Rake([2.0, 4.0, 2.0], [6.0, 4.0, 2.0], n_seeds=5, rake_id=1)
        seeds = engine.rake_seeds_grid(rake)
        assert seeds.shape == (5, 3)
        # Cartesian unit grid: physical == grid coords.
        np.testing.assert_allclose(seeds[:, 0], np.linspace(2, 6, 5), atol=1e-8)

    def test_seed_cache_hit(self, engine):
        rake = Rake([2, 4, 2], [6, 4, 2], n_seeds=5, rake_id=2)
        a = engine.rake_seeds_grid(rake)
        b = engine.rake_seeds_grid(rake)
        assert a is b  # cached, no re-search

    def test_moved_rake_recomputes(self, engine):
        rake = Rake([2, 4, 2], [6, 4, 2], n_seeds=5, rake_id=3)
        a = engine.rake_seeds_grid(rake).copy()
        rake.move_to = None
        from repro.tracers import GrabPoint

        rake.move(GrabPoint.CENTER, [4.0, 5.0, 2.0])
        b = engine.rake_seeds_grid(rake)
        assert not np.allclose(a, b)

    def test_out_of_domain_seeds_dropped(self, engine):
        rake = Rake([-10, 4, 2], [6, 4, 2], n_seeds=5, rake_id=4)
        seeds = engine.rake_seeds_grid(rake)
        assert seeds.shape[0] < 5


class TestComputeRake:
    def test_streamline(self, engine):
        rake = Rake([2, 4, 2], [6, 4, 2], n_seeds=4, kind="streamline", rake_id=10)
        res = engine.compute_rake(rake, 0)
        assert res.n_paths == 4
        assert res.grid_paths.shape[1] == 21

    def test_particle_path(self, engine):
        rake = Rake([2, 4, 2], [6, 4, 2], n_seeds=3, kind="particle_path", rake_id=11)
        res = engine.compute_rake(rake, 0)
        assert res.n_paths == 3
        assert res.grid_paths.shape[1] <= 6  # clamped by dataset length

    def test_streakline_persists_across_frames(self, engine):
        """The filament at a timestep is the same however the clock got
        there: played, scrubbed, or stepped back."""
        rake = Rake([2, 4, 2], [6, 4, 2], n_seeds=3, kind="streakline", rake_id=12)
        played = [engine.compute_rake(rake, t) for t in range(4)]
        assert [r.grid_paths.shape[1] for r in played] == [1, 2, 3, 4]
        # The same timestep twice reuses the filament.
        assert engine.compute_rake(rake, 3) is played[3]
        for path in ([1], [3, 2, 1]):  # a fresh scrub, a reverse step
            fresh = ComputeEngine(engine.dataset, engine.settings)
            for t in path:
                got = fresh.compute_rake(rake, t)
            np.testing.assert_array_equal(got.grid_paths, played[1].grid_paths)
            np.testing.assert_array_equal(got.lengths, played[1].lengths)

    def test_points_computed_accumulates(self, engine):
        rake = Rake([2, 4, 2], [6, 4, 2], n_seeds=2, rake_id=13)
        points = engine.registry.counter("engine.points_computed")
        before = points.value
        result = engine.compute_rake(rake, 0)
        assert points.value == before + result.n_points > before


class TestComputeEnvironment:
    def test_all_rakes_computed(self, dataset):
        engine = ComputeEngine(dataset, ToolSettings(streamline_steps=10))
        env = Environment(dataset.n_timesteps)
        id1 = env.add_rake(Rake([2, 4, 2], [6, 4, 2], n_seeds=3))
        id2 = env.add_rake(Rake([4, 2, 2], [4, 6, 2], n_seeds=4, kind="streakline"))
        results = engine.compute_rakes(env.rakes, 0)
        assert set(results) == {id1, id2}

    def test_removed_rake_state_gc(self, dataset):
        engine = ComputeEngine(dataset, ToolSettings(streakline_length=4))
        env = Environment(dataset.n_timesteps)
        rid = env.add_rake(Rake([2, 4, 2], [6, 4, 2], n_seeds=3, kind="streakline"))
        engine.compute_rakes(env.rakes, 0)
        assert rid in engine._streaks and rid in engine._seed_cache
        env.remove_rake(rid)
        engine.compute_rakes(env.rakes, 1)
        assert rid not in engine._streaks and rid not in engine._seed_cache

    def test_quality_scales_path_length(self, dataset):
        engine = ComputeEngine(dataset, ToolSettings(streamline_steps=100))
        env = Environment(dataset.n_timesteps)
        rid = env.add_rake(Rake([2, 4, 2], [6, 4, 2], n_seeds=2))
        full = engine.compute_rakes(env.rakes, 0)[rid]
        low = engine.compute_rakes(
            env.rakes, 0, settings=replace(engine.settings, streamline_steps=25)
        )[rid]
        assert low.grid_paths.shape[1] < full.grid_paths.shape[1]

    def test_engine_with_loader(self, dataset):
        loader = TimestepLoader(dataset, prefetch=False)
        engine = ComputeEngine(
            dataset, ToolSettings(streamline_steps=5), loader=loader
        )
        env = Environment(dataset.n_timesteps)
        env.add_rake(Rake([2, 4, 2], [6, 4, 2], n_seeds=2))
        engine.compute_rakes(env.rakes, 0)
        assert loader.misses.value == 1


class TestEveryToolReadsThroughTheLoader:
    """Particle paths and streaklines used to call ``dataset.grid_velocity``
    behind the loader's back: uncharged, uncounted, and local even when
    the loader's source was remote."""

    T0, STEPS = 1, 3  # a particle path over timesteps 1..4
    # … and a streakline over 0..1: a particle released at each.
    WINDOW = [0, 1, 2, 3, 4]
    SETTINGS = ToolSettings(particle_path_steps=STEPS, streakline_length=4)

    def rakes(self):
        return {
            1: Rake([2, 4, 2], [6, 4, 2], n_seeds=3, kind="particle_path", rake_id=1),
            2: Rake([2, 3, 2], [6, 3, 2], n_seeds=2, kind="streakline", rake_id=2),
        }

    def drive(self, engine, monkeypatch):
        """One frame at T0; returns (results, timesteps the tools read)."""
        reads = []
        load = engine.loader.load
        monkeypatch.setattr(
            engine.loader, "load", lambda t: (reads.append(t), load(t))[1]
        )
        return engine.compute_rakes(self.rakes(), self.T0), reads

    def reference(self, dataset, engine):
        seeds = engine.rake_seeds_grid(self.rakes()[1])
        return integrate_paths(
            dataset.grid_velocity, seeds, self.T0, self.STEPS,
            dataset.n_timesteps, dataset.dt,
        )

    def test_every_read_is_charged_and_counted(self, dataset, monkeypatch):
        charged = []
        loader = TimestepLoader(
            dataset, CONVEX_DISK, prefetch=False, capacity=len(self.WINDOW),
            sleep=charged.append,
        )
        engine = ComputeEngine(dataset, self.SETTINGS, loader=loader)
        out, reads = self.drive(engine, monkeypatch)
        # Exactly the windows are paid for, once each, on the modeled disk …
        assert sorted(loader.buffered_timesteps) == self.WINDOW
        assert len(charged) == len(self.WINDOW)
        assert loader.misses.value == len(self.WINDOW)
        # … and every read of the frame went through the counted ladder.
        assert set(reads) == set(self.WINDOW)
        assert loader.hits.value + loader.misses.value == len(reads)
        paths, lengths = self.reference(dataset, engine)
        np.testing.assert_array_equal(out[1].grid_paths, paths)
        np.testing.assert_array_equal(out[1].lengths, lengths)
        assert out[2].n_points == 4  # two particles for each of two seeds

    def test_a_loaderless_engine_reads_through_its_own_loader(
        self, dataset, monkeypatch
    ):
        """No loader passed: the engine builds one, and every read of the
        frame still goes through it, with the reference's results."""
        engine = ComputeEngine(dataset, self.SETTINGS)
        out, reads = self.drive(engine, monkeypatch)
        assert set(reads) == set(self.WINDOW)
        assert engine.loader.hits.value + engine.loader.misses.value == len(reads)
        paths, lengths = self.reference(dataset, engine)
        np.testing.assert_array_equal(out[1].grid_paths, paths)
        np.testing.assert_array_equal(out[1].lengths, lengths)
        assert out[2].n_points == 4

    def test_no_read_reaches_the_local_dataset(self, dataset, monkeypatch):
        """With a (stub) remote source the local dataset is never decoded."""
        local = MemoryDataset(dataset.grid, dataset.velocities, dt=dataset.dt)

        def bypass(t):
            raise AssertionError(f"timestep {t} read behind the loader's back")

        monkeypatch.setattr(local, "grid_velocity", bypass)
        cache = TieredTimestepCache(
            local, source=DatasetSource(dataset), l1_timesteps=len(self.WINDOW)
        )
        loader = TimestepLoader(local, cache=cache, prefetch=False)
        engine = ComputeEngine(local, self.SETTINGS, loader=loader)
        out, reads = self.drive(engine, monkeypatch)
        assert cache.source.stats.hits.value == len(self.WINDOW)
        paths, _ = self.reference(dataset, engine)
        np.testing.assert_array_equal(out[1].grid_paths, paths)
        # The next frame's streakline step is one more counted read.
        n_reads = len(reads)
        engine.compute_rakes({2: self.rakes()[2]}, self.T0 + 1)
        assert reads[n_reads:] == [self.T0 + 1]
        assert loader.hits.value + loader.misses.value == len(reads)
