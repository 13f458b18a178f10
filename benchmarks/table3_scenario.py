"""Table 3's kernels: the section 5.3 scenario timed five ways.

The paper's optimization study (section 5.3) ran one RK2 computation —
100 streamlines x 200 points — in several arrangements of the same
arithmetic.  The library keeps the one every frame runs
(:func:`repro.tracers.integrate_steady`, vectorized across streamlines);
the others live here, as benchmark code, so Table 3 still compares them:

``vector``
    The library kernel: one NumPy batch across all streamlines, the
    Convex's vectorization.
``vector-strip``
    The same, strip-mined into 128-seed calls — the Convex C3240's
    vector registers "can process vector arrays of up to 128 entries in
    length".
``scalar``
    A pure-Python per-point loop: the analogue of the optimized scalar C
    code "using pointer manipulation and striding" that defeats
    vectorization.
``parallel``
    The scalar loop over ``workers`` processes, one chunk of streamlines
    each — the Convex's 4-CPU parallelization.
``vector-group``
    The library kernel over ``workers`` processes — parallel across
    groups of streamlines, vectorized within each: the further
    optimization the paper leaves "under study".

``vector-strip`` is bit-identical to ``vector`` (each particle is
computed independently); ``scalar`` and ``parallel`` agree with it to
round-off (the operation order differs slightly).

The scenario behind ``benchmarks/test_table3_compute.py``, and the
compute stage of the Fig 8 and ablation benches.
"""

from __future__ import annotations

import multiprocessing as mp
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.flow.dataset import UnsteadyDataset  # noqa: E402
from repro.perf.scenario import (  # noqa: E402
    N_STREAMLINES,
    POINTS_PER_LINE,
    benchmark_seeds,
)
from repro.tracers import integrate_steady  # noqa: E402

KERNELS = ("vector", "vector-strip", "scalar", "parallel", "vector-group")

#: Convex C3240 vector register length (section 5), the strip size.
VECTOR_LENGTH = 128

Paths = tuple[np.ndarray, np.ndarray]


def integrate_scalar(
    gv: np.ndarray,
    seeds: np.ndarray,
    n_steps: int,
    dt: float,
    flat: list | None = None,
) -> Paths:
    """Per-point, per-step loop with scalar arithmetic throughout.

    The field is flattened to a Python list once so the inner loop performs
    honest scalar loads (the analogue of the paper's pointer-striding C).
    ``flat`` lets callers (the pool workers) reuse a flattening made once.
    """
    ni, nj, nk = gv.shape[:3]
    if flat is None:
        flat = np.ascontiguousarray(gv, dtype=np.float64).ravel().tolist()
    sj = nk * 3
    si = nj * sj
    hi_i, hi_j, hi_k = ni - 1.0, nj - 1.0, nk - 1.0

    def sample(x: float, y: float, z: float) -> tuple[float, float, float]:
        # Clamp, split into cell + fraction (matches the vector kernel).
        if x < 0.0:
            x = 0.0
        elif x > hi_i:
            x = hi_i
        if y < 0.0:
            y = 0.0
        elif y > hi_j:
            y = hi_j
        if z < 0.0:
            z = 0.0
        elif z > hi_k:
            z = hi_k
        i = int(x)
        if i > ni - 2:
            i = ni - 2
        j = int(y)
        if j > nj - 2:
            j = nj - 2
        k = int(z)
        if k > nk - 2:
            k = nk - 2
        fx, fy, fz = x - i, y - j, z - k
        base = i * si + j * sj + k * 3
        out = []
        for c in range(3):
            b = base + c
            c000 = flat[b]
            c001 = flat[b + 3]
            c010 = flat[b + sj]
            c011 = flat[b + sj + 3]
            c100 = flat[b + si]
            c101 = flat[b + si + 3]
            c110 = flat[b + si + sj]
            c111 = flat[b + si + sj + 3]
            c00 = c000 + (c001 - c000) * fz
            c01 = c010 + (c011 - c010) * fz
            c10 = c100 + (c101 - c100) * fz
            c11 = c110 + (c111 - c110) * fz
            c0 = c00 + (c01 - c00) * fy
            c1 = c10 + (c11 - c10) * fy
            out.append(c0 + (c1 - c0) * fx)
        return out[0], out[1], out[2]

    s = seeds.shape[0]
    paths = np.empty((s, n_steps + 1, 3), dtype=np.float64)
    lengths = np.empty(s, dtype=np.intp)
    half_dt = 0.5 * dt
    for p in range(s):
        x, y, z = float(seeds[p, 0]), float(seeds[p, 1]), float(seeds[p, 2])
        paths[p, 0] = (x, y, z)
        length = 1
        alive = 0.0 <= x <= hi_i and 0.0 <= y <= hi_j and 0.0 <= z <= hi_k
        for step in range(1, n_steps + 1):
            if alive:
                u1, v1, w1 = sample(x, y, z)
                u2, v2, w2 = sample(x + dt * u1, y + dt * v1, z + dt * w1)
                nx = x + half_dt * (u1 + u2)
                ny = y + half_dt * (v1 + v2)
                nz = z + half_dt * (w1 + w2)
                if 0.0 <= nx <= hi_i and 0.0 <= ny <= hi_j and 0.0 <= nz <= hi_k:
                    x, y, z = nx, ny, nz
                    length += 1
                else:
                    alive = False
            paths[p, step] = (x, y, z)
        lengths[p] = length
    return paths, lengths


def _concat(parts: list[Paths]) -> Paths:
    paths, lengths = zip(*parts)
    return np.concatenate(paths), np.concatenate(lengths)


def integrate_strips(
    gv: np.ndarray,
    seeds: np.ndarray,
    n_steps: int,
    dt: float,
    strip: int = VECTOR_LENGTH,
) -> Paths:
    """The library kernel on ``strip``-seed slices, one call each."""
    return _concat([
        integrate_steady(gv, seeds[i : i + strip], n_steps, dt)
        for i in range(0, seeds.shape[0], strip)
    ])


_IN_PROCESS = {
    "vector": integrate_steady,
    "vector-strip": integrate_strips,
    "scalar": integrate_scalar,
}

# Worker side: the field the pool was opened around, and the scalar
# loop's flattening of it, both made once per worker by the initializer.
_FIELD: np.ndarray | None = None
_FLAT: list | None = None


def _init_worker(gv: np.ndarray) -> None:
    global _FIELD, _FLAT
    _FIELD = gv
    _FLAT = np.ascontiguousarray(gv, dtype=np.float64).ravel().tolist()


def _run_chunk(args) -> Paths:
    seeds, n_steps, dt, kernel = args
    if kernel == "parallel":
        return integrate_scalar(_FIELD, seeds, n_steps, dt, flat=_FLAT)
    return integrate_steady(_FIELD, seeds, n_steps, dt)


@contextmanager
def open_kernel(
    kernel: str, gv: np.ndarray, workers: int = 4
) -> Iterator[Callable[[np.ndarray, int, float], Paths]]:
    """``run(seeds, n_steps, dt)`` for one of :data:`KERNELS` on ``gv``.

    The process kernels open their pool here, around the field — each
    worker receives it once, through the initializer — and close it on
    exit, so a pool lives exactly as long as its field's benchmark.
    Workers are spawned, not forked: a bench process may hold threads.
    """
    if kernel in _IN_PROCESS:
        yield partial(_IN_PROCESS[kernel], gv)
        return
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    with mp.get_context("spawn").Pool(workers, _init_worker, (gv,)) as pool:

        def run(seeds: np.ndarray, n_steps: int, dt: float) -> Paths:
            chunks = np.array_split(seeds, workers)
            return _concat(
                pool.map(_run_chunk, [(c, n_steps, dt, kernel) for c in chunks])
            )

        yield run


def run_benchmark(
    dataset: UnsteadyDataset,
    kernel: str,
    *,
    n_streamlines: int = N_STREAMLINES,
    points_per_line: int = POINTS_PER_LINE,
    dt: float = 0.05,
    workers: int = 4,
    repeats: int = 1,
) -> float:
    """Best-of-``repeats`` seconds of the section 5.3 scenario on one kernel.

    The grid-velocity conversion and one warm-up run (which a process
    kernel's pool also needs to finish its initializers) are untimed: on
    the Convex the data was pre-converted and resident.
    """
    gv = dataset.grid_velocity(0)
    seeds = benchmark_seeds(dataset, n_streamlines)
    n_steps = points_per_line - 1
    best = float("inf")
    with open_kernel(kernel, gv, workers) as run:
        run(seeds, n_steps, dt)
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            run(seeds, n_steps, dt)
            best = min(best, time.perf_counter() - start)
    return best
