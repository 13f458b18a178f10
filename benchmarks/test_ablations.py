"""Ablations of the paper's explicit design choices.

Two of the paper's claims are *negative* results that shaped the design:

1.  Section 2.1: locating a physical point in the curvilinear grid per
    integration step "involves unacceptable performance overhead", which
    is why velocities are pre-converted and integration runs in grid
    coordinates.  We measure both integration modes.

2.  Section 1.2: "interactive streamlines ... can be used, but
    interactive isosurfaces, which require computationally intensive
    algorithms such as marching cubes, can not."  We extract a marching-
    tetrahedra isosurface of |v| on the full grid and compare it to the
    streamline scenario against the 1/8 s budget.

Plus the double-buffering ablation: prefetch on vs off under the modeled
Convex disk.
"""

import numpy as np
import pytest

from table3_scenario import run_benchmark

from repro.diskio import CONVEX_DISK, TimestepLoader
from repro.grid import GridLocator, trilinear_interpolate
from repro.tracers.isosurface import extract_isosurface, velocity_magnitude

BUDGET = 0.125


# ---------------------------------------------------------------------------
# 1. grid-coordinate integration vs per-step physical search (section 2.1)
# ---------------------------------------------------------------------------


def _integrate_physical_search(dataset, seeds_phys, n_steps, dt):
    """RK2 in *physical* space: every stage locates its point in the grid.

    This is the naive design the paper rejects.  Warm-started Newton makes
    it as fast as it can honestly be; the per-step search still dominates.
    """
    locator = GridLocator(dataset.grid)
    vel = np.asarray(dataset.velocity(0), dtype=np.float64)
    pos = np.array(seeds_phys, dtype=np.float64)
    coords, _ = locator.locate(pos)

    def sample(p, guess):
        c, found = locator.locate(p, guess=guess)
        v = trilinear_interpolate(vel, c)
        v[~found] = 0.0
        return v, c

    for _ in range(n_steps):
        v1, coords = sample(pos, coords)
        v2, _ = sample(pos + dt * v1, coords)
        pos = pos + (0.5 * dt) * (v1 + v2)
    return pos


@pytest.mark.parametrize("mode", ["grid-coordinates", "physical-search"])
def test_ablation_integration_mode(cylinder_dataset, benchmark, mode, record):
    ds = cylinder_dataset
    ds.grid_velocity(0)
    rng = np.random.default_rng(0)
    # 20 streamlines x 50 steps keeps the slow arm tolerable.
    ni, nj, nk = ds.grid.shape
    seeds_grid = rng.uniform([4, 4, 3], [ni - 5, nj - 5, nk - 4], (20, 3))
    seeds_phys = ds.grid.to_physical(seeds_grid)

    if mode == "grid-coordinates":
        from repro.tracers import integrate_steady

        def run():
            return integrate_steady(ds.grid_velocity(0), seeds_grid, 50, 0.05)

    else:

        def run():
            return _integrate_physical_search(ds, seeds_phys, 50, 0.02)

    benchmark(run)
    _ablation1[mode] = benchmark.stats["mean"]


_ablation1: dict = {}


def test_ablation_integration_mode_report(record, benchmark):
    benchmark(lambda: None)
    if len(_ablation1) == 2 and all(v for v in _ablation1.values()):
        g = _ablation1["grid-coordinates"]
        p = _ablation1["physical-search"]
        record(
            "ablation_integration_mode",
            [
                f"grid-coordinate integration:  {g * 1e3:9.2f} ms",
                f"per-step physical search:     {p * 1e3:9.2f} ms",
                f"search overhead factor:       {p / g:9.1f}x",
                "(section 2.1: the search 'involves unacceptable",
                " performance overhead' — confirmed)",
            ],
        )
        assert p > 3.0 * g, "physical search should be several times slower"


# ---------------------------------------------------------------------------
# 2. isosurfaces vs streamlines vs the budget (section 1.2)
# ---------------------------------------------------------------------------


def test_ablation_isosurface_vs_streamlines(paper_grid_dataset, benchmark, record):
    ds = paper_grid_dataset
    ds.grid_velocity(0)
    mag = velocity_magnitude(ds, 0)
    level = float(np.percentile(mag, 75))

    def isosurface():
        return extract_isosurface(mag, level, ds.grid.xyz)

    res = benchmark.pedantic(isosurface, rounds=3, iterations=1, warmup_rounds=1)
    iso_s = benchmark.stats["mean"]
    stream_s = run_benchmark(ds, "vector", repeats=3)
    # Work accounting: the streamline scenario performs 2 field samples
    # per point-step; the isosurface classifies every node and every
    # tetrahedron of the grid.
    stream_samples = 100 * 199 * 2
    ni, nj, nk = ds.grid.shape
    iso_tets = (ni - 1) * (nj - 1) * (nk - 1) * 6
    record(
        "ablation_isosurface",
        [
            f"streamline scenario (20k points): {stream_s * 1e3:9.2f} ms "
            f"{'(within budget)' if stream_s < BUDGET else '(OVER BUDGET)'}",
            f"|v| isosurface ({res.n_triangles:,} triangles on the "
            f"131,072-point grid): {iso_s * 1e3:9.2f} ms "
            f"{'(within budget)' if iso_s < BUDGET else '(OVER BUDGET)'}",
            f"work units: {stream_samples:,} field samples vs "
            f"{iso_tets:,} tetrahedra classified ({iso_tets / stream_samples:.0f}x)",
            "",
            "section 1.2 claimed isosurfaces cannot be interactive.  The",
            "underlying work ratio (~19x the streamline scenario) fully",
            "supports that on 1992 scalar hardware; our fully vectorized",
            "marching-tetrahedra pass amortizes it so well that both tools",
            "now fit the 1/8 s budget — a genuine (and documented) change",
            "in the trade-off since the paper.",
        ],
    )
    assert res.n_triangles > 1000
    # The durable part of the claim is the work ratio, not the wall clock:
    assert iso_tets > 10 * stream_samples
    # And our extractor is not mysteriously free:
    assert iso_s > 0.01


# ---------------------------------------------------------------------------
# 3. double-buffered prefetch on/off (figure 8's right process)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("prefetch", [True, False], ids=["prefetch", "serial"])
def test_ablation_prefetch(small_dataset, benchmark, prefetch):
    ds = small_dataset
    delays: list[float] = []

    def sweep():
        import time as _t

        with TimestepLoader(
            ds, disk_model=CONVEX_DISK, prefetch=prefetch
        ) as loader:
            for t in range(ds.n_timesteps):
                loader.load(t)
                loader.prefetch(t + 1)  # a no-op on the serial arm
                _t.sleep(0.004)  # stand-in for the frame's compute time
            loader.drain()
            return loader

    loader = benchmark.pedantic(sweep, rounds=3, iterations=1, warmup_rounds=0)
    if prefetch:
        assert loader.hits.value >= ds.n_timesteps - 2
    else:
        assert loader.misses.value == ds.n_timesteps
