"""The visualization compute engine.

The remote system's job each frame (section 5.2): take the current
environment state, locate every rake's seed points in the grid (once per
interaction, not per integration step), run the tracer tools in grid
coordinates on the vectorised kernel (section 5.3's production code), and
emit physical-space float32 path arrays — 12 bytes per point — ready for
the network.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.diskio.loader import TimestepLoader
from repro.flow.dataset import UnsteadyDataset
from repro.grid.search import GridLocator
from repro.obs import MetricsRegistry
from repro.tracers.integrate import (
    IntegratorWorkspace,
    integrate_paths,
    integrate_steady,
)
from repro.tracers.rake import Rake
from repro.tracers.result import TracerResult
from repro.tracers.streakline import compute_streaklines

__all__ = ["ToolSettings", "ComputeEngine"]


def window_steps(n_steps: int, max_window: int | None) -> int:
    """``n_steps`` clamped to a window of ``max_window`` timesteps: the
    number of timesteps that fit in memory bounds a particle path's
    length (section 5.2)."""
    if max_window is None:
        return n_steps
    if max_window < 1:
        raise ValueError("max_window must be at least 1 timestep")
    return min(n_steps, max_window - 1)


@dataclass
class ToolSettings:
    """Per-environment tracer parameters (user adjustable)."""

    streamline_steps: int = 200
    streamline_dt: float = 0.05
    particle_path_steps: int = 100
    streakline_length: int = 64
    max_window: int | None = None  # particle-path timestep window (sec 5.2)


class ComputeEngine:
    """Computes every rake's tool for a given timestep.

    Every result is a function of its rake, timestep and settings.  Two
    per-rake memos only make that function cheap: the grid coordinates of
    each rake's seeds, and each streakline rake's last filament, keyed on
    its arguments so the next timestep costs one field read.  Every field
    read goes through ``loader`` (when omitted, a tier-1-only one with no
    prefetch worker, recording into ``registry``).  Records
    ``engine.*`` into ``registry`` (a private one when omitted;
    the frame pipeline adopts it): ``engine.points_computed`` counts every
    point produced, and the last megabatch's size and rate are the
    ``engine.fused_batch_size`` / ``engine.points_per_second`` gauges.
    """

    def __init__(
        self,
        dataset: UnsteadyDataset,
        settings: ToolSettings | None = None,
        *,
        loader: TimestepLoader | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.dataset = dataset
        self.settings = settings or ToolSettings()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.loader = loader or TimestepLoader(
            dataset, prefetch=False, registry=self.registry
        )
        self._points_computed = self.registry.counter("engine.points_computed")
        self._fused_frames = self.registry.counter("engine.fused_frames")
        self._batch_size = self.registry.gauge("engine.fused_batch_size")
        self._points_per_second = self.registry.gauge("engine.points_per_second")
        self._locator = GridLocator(dataset.grid)
        self._streaks: dict[int, tuple[tuple, TracerResult]] = {}
        self._seed_cache: dict[int, tuple[bytes, np.ndarray]] = {}
        # Rakes located since the last compute_rakes: the ones whose memos
        # that call keeps.
        self._located: set[int] = set()
        # Zero-allocation scratch for the fused vector kernels.  Owned by
        # whichever single thread calls the compute methods (the producer
        # thread under the frame pipeline) — not thread-safe.
        self.workspace = IntegratorWorkspace()

    # -- seeds --------------------------------------------------------------

    def rake_seeds_grid(self, rake: Rake) -> np.ndarray:
        """Rake seed positions converted to grid coordinates.

        Cached on the rake's geometry so an unmoved rake costs nothing; a
        moved rake warm-starts the Newton search from its previous
        location (the paper's 'search ... once per interaction' economy).
        """
        seeds_phys = rake.seeds()
        key = seeds_phys.tobytes()
        rid = rake.rake_id if rake.rake_id is not None else id(rake)
        self._located.add(rid)
        cached = self._seed_cache.get(rid)
        if cached is not None and cached[0] == key:
            return cached[1]
        guess = None
        if cached is not None and cached[1].shape == seeds_phys.shape:
            guess = cached[1]
        coords, found = self._locator.locate(seeds_phys, guess=guess)
        coords = coords[found]
        self._seed_cache[rid] = (key, coords)
        return coords

    # -- per-frame compute ------------------------------------------------------

    def cache_stats(self) -> dict:
        """Per-tier timestep-cache counters.

        Surfaced by ``wt.pipeline_stats`` (the ``"cache"`` block) so an
        operator can read tier hit rates without a metrics scrape.
        """
        out = self.loader.cache.stats_snapshot()
        out["loader"] = {
            "hits": self.loader.hits.value,
            "misses": self.loader.misses.value,
            "prefetch_issued": self.loader.prefetch_issued.value,
            "stall_seconds": out["l1"]["stall_seconds"],
            "modeled_read_seconds": out["source"]["stall_seconds"],
        }
        return out

    def _field_at(self, timestep: int) -> np.ndarray:
        """The one way any tool reads a field: through the loader, so a
        particle path's whole window is charged, counted and served by
        the same tiers as a streamline's field."""
        return self.loader.load(timestep)

    def _particle_paths(
        self, seeds: np.ndarray, timestep: int, s: ToolSettings,
        workspace: IntegratorWorkspace | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Particle paths from ``timestep``, at most ``s.max_window`` wide."""
        return integrate_paths(
            self._field_at, seeds, timestep,
            window_steps(s.particle_path_steps, s.max_window),
            self.dataset.n_timesteps, self.dataset.dt, workspace=workspace,
        )

    def _streakline(
        self, rid: int, seeds: np.ndarray, timestep: int, length: int
    ) -> TracerResult:
        """The streakline at ``timestep``, memoized per rake on the
        function's arguments: the same key reuses the filament, the same
        seeds, ``dt`` and length one timestep on advance it once, and
        anything else (scrub, reverse step, moved rake, new length, a
        fresh engine) rebuilds it.  All three give the same result."""
        key = (seeds.tobytes(), self.dataset.dt, length, timestep)
        memo_key, memo = self._streaks.get(rid, (None, None))
        if memo_key == key:
            return memo
        resumable = (
            memo_key is not None
            and memo_key[:3] == key[:3]
            and memo_key[3] == timestep - 1
        )
        result = compute_streaklines(
            self.dataset, timestep, seeds, length,
            field_at=self._field_at, previous=memo if resumable else None,
        )
        self._streaks[rid] = (key, result)
        return result

    def compute_rake(
        self, rake: Rake, timestep: int, *, settings: ToolSettings | None = None
    ) -> TracerResult:
        """Run one rake's tool at ``timestep``; returns its paths.

        The per-rake reference the megabatch of :meth:`compute_rakes` is
        tested against, and the path streaklines always take.
        """
        s = settings or self.settings
        seeds = self.rake_seeds_grid(rake)
        rid = rake.rake_id if rake.rake_id is not None else id(rake)
        grid = self.dataset.grid
        if rake.kind == "streamline":
            paths, lengths = integrate_steady(
                self._field_at(timestep), seeds,
                s.streamline_steps, s.streamline_dt,
            )
            result = TracerResult(paths, lengths, grid)
        elif rake.kind == "particle_path":
            result = TracerResult(*self._particle_paths(seeds, timestep, s), grid)
        elif rake.kind == "streakline":
            result = self._streakline(rid, seeds, timestep, s.streakline_length)
        else:  # pragma: no cover - Rake validates kinds
            raise ValueError(f"unknown tool kind {rake.kind!r}")
        self._points_computed.inc(result.n_points)
        return result

    def _slice_back(self, rids, seeds, paths, lengths, out: dict) -> int:
        """Hand each rake its rows of a megabatch; returns the points."""
        offset = points = 0
        for rid, rake_seeds in zip(rids, seeds):
            n = rake_seeds.shape[0]
            out[rid] = TracerResult(
                paths[offset : offset + n], lengths[offset : offset + n],
                self.dataset.grid,
            )
            offset += n
            points += out[rid].n_points
        return points

    def compute_rakes(
        self,
        rakes: dict[int, Rake],
        timestep: int,
        *,
        settings: ToolSettings | None = None,
    ) -> dict[int, TracerResult]:
        """Compute a rake set (usually an environment snapshot, or the
        part of one the frame pipeline's entry memo lacks).

        One megabatch integration per rake kind, sliced back by offset.
        All streamline rakes' seeds concatenate into one
        :func:`integrate_steady` call (and likewise all particle-path
        rakes into one :func:`integrate_paths` call), so the
        kernel-launch overhead and the per-step trilinear gathers are
        paid once per frame instead of once per rake, and active-particle
        compaction amortizes over the whole environment.  Streaklines
        stay per-rake, each advancing its own memoized filament.

        Slicing is exact: the kernel computes each particle independently
        (elementwise operations), so the union batch is bit-identical to
        per-rake calls.
        The sliced ``grid_paths`` are views into the engine workspace's
        rotating buffer pool — valid while the frame pipeline encodes
        them (which copies), overwritten a few frames later.

        The frame pipeline's producer thread calls this with a *copied*
        rake dict taken under the environment lock, so the service thread
        can keep mutating the live environment mid-compute.  The per-rake
        memos of rakes neither in ``rakes`` nor located
        (:meth:`rake_seeds_grid`) since the previous call are dropped here:
        the pipeline locates its whole snapshot, then computes only the
        rakes its entry memo lacks.
        """
        s = settings or self.settings
        out: dict[int, TracerResult] = {}
        stream_ids: list[int] = []
        stream_seeds: list[np.ndarray] = []
        ppath_ids: list[int] = []
        ppath_seeds: list[np.ndarray] = []
        for rid, rake in rakes.items():
            if rake.kind == "streamline":
                stream_ids.append(rid)
                stream_seeds.append(self.rake_seeds_grid(rake))
            elif rake.kind == "particle_path":
                ppath_ids.append(rid)
                ppath_seeds.append(self.rake_seeds_grid(rake))
            else:
                out[rid] = self.compute_rake(rake, timestep, settings=s)
        batch = 0
        points = 0
        start = time.perf_counter()
        if stream_ids:
            gv = self._field_at(timestep)
            cat = (
                np.concatenate(stream_seeds, axis=0)
                if len(stream_seeds) > 1
                else stream_seeds[0]
            )
            batch += cat.shape[0]
            paths, lengths = integrate_steady(
                gv, cat, s.streamline_steps, s.streamline_dt,
                workspace=self.workspace,
            )
            points += self._slice_back(stream_ids, stream_seeds, paths, lengths, out)
        if ppath_ids:
            cat = (
                np.concatenate(ppath_seeds, axis=0)
                if len(ppath_seeds) > 1
                else ppath_seeds[0]
            )
            batch += cat.shape[0]
            paths, lengths = self._particle_paths(cat, timestep, s, self.workspace)
            points += self._slice_back(ppath_ids, ppath_seeds, paths, lengths, out)
        elapsed = time.perf_counter() - start
        self._points_computed.inc(points)
        self._fused_frames.inc()
        self._batch_size.set(batch)
        self._points_per_second.set(points / elapsed if elapsed > 0 else 0.0)
        # Drop the memos of rakes that no longer exist.
        live, self._located = self._located, set()
        for memo in (self._streaks, self._seed_cache):
            for rid in set(memo) - live:
                del memo[rid]
        return out
