"""Second-order Runge-Kutta particle integration with multiple backends.

The computational core of the windtunnel.  The paper (section 5.3): "The
integration algorithm for the computation is second-order Runge-Kutta,
which requires two accesses of the vector field data from memory each
involving eight floating point loads to set up for trilinear
interpolation, two trilinear interpolations, and two simple computations
per component per point integrated."  That is exactly the inner loop here.

Backends reproduce the paper's optimization trade space:

``vector``
    One NumPy batch across *all* streamlines — vectorizing across
    streamlines, the approach the Convex used ("This is the only
    possibility, as the computation of an individual streamline is an
    iterative process").
``vector-strip``
    The same, strip-mined into chunks of 128 seeds — the Convex C3240's
    vector registers "can process vector arrays of up to 128 entries in
    length".
``scalar``
    A pure-Python per-point loop: the analogue of the optimized scalar C
    code "using pointer manipulation and striding" that defeats
    vectorization.
``parallel``
    The scalar kernel distributed across worker processes, one chunk of
    streamlines each — the paper's 4-CPU parallelization of the
    non-vectorized code.
``vector-group``
    Processes across groups of streamlines, NumPy-vectorized within each
    group — the further optimization the paper leaves "under study".

All backends produce bit-identical trajectories for the same inputs
except ``scalar``/``parallel``, which agree with ``vector`` to floating-
point round-off (operation order differs slightly).

Two orthogonal optimizations sit under the backends:

* **Zero-allocation kernels** — an :class:`IntegratorWorkspace`
  preallocates the coords/paths/corner-gather/blend scratch once per
  (field shape, seed count) and the ``vector`` kernel threads ``out=``
  through every step, so the steady-state RK2 loop performs no per-step
  array allocations (the Convex did not call ``malloc`` per vector op
  either).  Pass ``workspace=`` to :func:`integrate_steady` /
  :func:`integrate_paths`; results are bit-identical to the plain path.
* **One pool per field** — the process backends run on one persistent
  pool *built around the field it integrates*: the field reaches each
  worker once, through the pool initializer, and a call on another
  field object (or worker count) rebuilds the pool (the Convex kept its
  1 GB dataset resident; our workers do too).
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
from collections.abc import Callable

import numpy as np

from repro.grid.interpolation import (
    TrilinearScratch,
    in_domain_mask,
    trilinear_interpolate,
)

__all__ = [
    "BACKENDS",
    "IntegratorWorkspace",
    "advance_rk2",
    "integrate_steady",
    "integrate_paths",
    "shutdown_pools",
]

BACKENDS = ("vector", "vector-strip", "scalar", "parallel", "vector-group")

#: Convex C3240 vector register length (section 5), the default strip size.
VECTOR_LENGTH = 128

#: Rotating ``paths`` buffers an :class:`IntegratorWorkspace` keeps per
#: ``(seeds, steps)`` shape.
PATHS_POOL = 4


# ---------------------------------------------------------------------------
# the zero-allocation workspace
# ---------------------------------------------------------------------------


class IntegratorWorkspace:
    """Preallocated scratch for the vectorized RK2 kernels.

    Holds every buffer the ``vector`` kernel touches per step — current
    coordinates, the two RK2 stage samples, the midpoint, the candidate
    positions, the active-particle index prefix, the in-domain masks, and
    (via an embedded :class:`~repro.grid.interpolation.TrilinearScratch`)
    the corner-gather/blend scratch — sized to the largest seed count
    seen and reused across frames.  In steady state (no particle deaths)
    an integration step allocates nothing.

    Output ``paths`` arrays come from a small rotating pool
    (:data:`PATHS_POOL` buffers per ``(seeds, steps)`` shape), so a result
    stays valid while the frame pipeline's encode stage reads it
    concurrently with the next frame's production — but is overwritten
    after ``PATHS_POOL`` further calls of the same shape.  Callers that
    need longer-lived results copy them (the pipeline converts to wire
    float32 at publish, which already copies).

    One workspace serves one thread; the compute engine owns one for the
    producer thread.
    """

    def __init__(self) -> None:
        self.scratch = TrilinearScratch()
        self._cap = 0
        self._coords = None
        self._cur = None
        self._mid = None
        self._k1 = None
        self._k2 = None
        self._new = None
        self._active = None
        self._inside = None
        self._b3a = None
        self._b3b = None
        self._bound_n = -1
        self._views: tuple | None = None
        self._paths_pools: dict[tuple[int, int], list] = {}
        self._paths_next: dict[tuple[int, int], int] = {}

    def _grow(self, n: int) -> None:
        cap = max(n, self._cap)
        self._coords = np.empty((cap, 3), dtype=np.float64)
        self._cur = np.empty((cap, 3), dtype=np.float64)
        self._mid = np.empty((cap, 3), dtype=np.float64)
        self._k1 = np.empty((cap, 3), dtype=np.float64)
        self._k2 = np.empty((cap, 3), dtype=np.float64)
        self._new = np.empty((cap, 3), dtype=np.float64)
        self._active = np.empty(cap, dtype=np.intp)
        self._inside = np.empty(cap, dtype=bool)
        self._b3a = np.empty((cap, 3), dtype=bool)
        self._b3b = np.empty((cap, 3), dtype=bool)
        self._cap = cap
        self._bound_n = -1

    def bind_seeds(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-call views sized by the total seed count: (coords, active)."""
        if s > self._cap or self._coords is None:
            self._grow(s)
        return self._coords[:s], self._active[:s]

    def bind_active(self, n: int) -> tuple:
        """Per-step views sized by the live-particle count (cached per n)."""
        if n > self._cap or self._coords is None:
            self._grow(n)
        if n != self._bound_n:
            self._views = (
                self._cur[:n],
                self._mid[:n],
                self._k1[:n],
                self._k2[:n],
                self._new[:n],
                self._inside[:n],
                self._b3a[:n],
                self._b3b[:n],
            )
            self._bound_n = n
        return self._views

    def paths_buffer(self, s: int, cols: int) -> np.ndarray:
        """A ``(s, cols, 3)`` output buffer from the rotating pool."""
        key = (s, cols)
        pool = self._paths_pools.get(key)
        if pool is None:
            if len(self._paths_pools) > 8:
                # Environments with churning shapes: cap the pool table.
                self._paths_pools.clear()
                self._paths_next.clear()
            pool = []
            self._paths_pools[key] = pool
            self._paths_next[key] = 0
        if len(pool) < PATHS_POOL:
            buf = np.empty((s, cols, 3), dtype=np.float64)
            pool.append(buf)
            return buf
        i = self._paths_next[key]
        self._paths_next[key] = (i + 1) % len(pool)
        return pool[i]


def advance_rk2(gv: np.ndarray, coords: np.ndarray, dt: float) -> np.ndarray:
    """One RK2 (Heun) step for all ``coords`` in a frozen field ``gv``.

    ``gv`` is grid-coordinate velocity ``(ni, nj, nk, 3)``; ``coords`` is
    ``(N, 3)`` fractional grid coordinates.  Out-of-domain samples clamp to
    the boundary; callers decide particle death via
    :func:`~repro.grid.interpolation.in_domain_mask`.
    """
    k1 = trilinear_interpolate(gv, coords)
    k2 = trilinear_interpolate(gv, coords + dt * k1)
    return coords + (0.5 * dt) * (k1 + k2)


# ---------------------------------------------------------------------------
# vector backends
# ---------------------------------------------------------------------------


def _integrate_vector(
    gv: np.ndarray, seeds: np.ndarray, n_steps: int, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    dims = gv.shape[:3]
    s = seeds.shape[0]
    coords = np.array(seeds, dtype=np.float64, copy=True)
    paths = np.empty((s, n_steps + 1, 3), dtype=np.float64)
    paths[:, 0] = coords
    alive = in_domain_mask(coords, dims)
    lengths = np.ones(s, dtype=np.intp)
    for step in range(1, n_steps + 1):
        if alive.any():
            sel = np.nonzero(alive)[0]
            new = advance_rk2(gv, coords[sel], dt)
            inside = in_domain_mask(new, dims)
            good = sel[inside]
            coords[good] = new[inside]
            lengths[good] += 1
            alive[sel[~inside]] = False
            paths[:, step] = coords
        else:
            # Everyone is dead: freeze the remaining columns and stop.
            paths[:, step:] = coords[:, None, :]
            break
    return paths, lengths


def _integrate_vector_ws(
    gv: np.ndarray,
    seeds: np.ndarray,
    n_steps: int,
    dt: float,
    ws: IntegratorWorkspace,
) -> tuple[np.ndarray, np.ndarray]:
    """The vector kernel on preallocated workspace storage.

    Bit-identical to :func:`_integrate_vector` — same expression tree,
    same compaction semantics — but every per-step temporary lives in
    ``ws``.  The live particles occupy the prefix of an index buffer;
    a step with no deaths (the steady state) allocates nothing.
    """
    meta = ws.scratch.bind_field(gv)
    if meta is None:
        # Ineligible field layout: the plain kernel handles it.
        return _integrate_vector(gv, seeds, n_steps, dt)
    hi = meta[1]
    dims = gv.shape[:3]
    s = seeds.shape[0]
    coords, active = ws.bind_seeds(s)
    coords[...] = seeds
    paths = ws.paths_buffer(s, n_steps + 1)
    paths[:, 0] = coords
    lengths = np.ones(s, dtype=np.intp)
    idx0 = np.nonzero(in_domain_mask(coords, dims))[0]
    n = idx0.size
    active[:n] = idx0
    for step in range(1, n_steps + 1):
        if n == 0:
            paths[:, step:] = coords[:, None, :]
            break
        act = active[:n]
        cur, mid, k1, k2, new, inside, b3a, b3b = ws.bind_active(n)
        np.take(coords, act, axis=0, out=cur, mode="clip")
        # RK2, the plain kernel's exact expression tree:
        #   new = cur + (0.5*dt) * (k1 + k2)
        ws.scratch.sample(meta, cur, k1)
        np.multiply(k1, dt, out=mid)
        np.add(mid, cur, out=mid)  # cur + dt*k1
        ws.scratch.sample(meta, mid, k2)
        np.add(k1, k2, out=k2)
        np.multiply(k2, 0.5 * dt, out=k2)
        np.add(cur, k2, out=new)
        # In-domain test, out=-threaded: (new >= 0) & (new <= hi) all-axis.
        np.greater_equal(new, 0.0, out=b3a)
        np.less_equal(new, hi, out=b3b)
        np.logical_and(b3a, b3b, out=b3a)
        np.all(b3a, axis=1, out=inside)
        if inside.all():
            # Steady state: scatter every particle back, no allocation.
            coords[act] = new
        else:
            good = act[inside]
            coords[good] = new[inside]
            # A particle that failed at `step` kept lengths == step:
            # the seed plus the step-1 steps it survived.
            lengths[act[~inside]] = step
            k = good.size
            active[:k] = good
            n = k
        paths[:, step] = coords
    if n > 0:
        lengths[active[:n]] = n_steps + 1
    return paths, lengths


def _integrate_vector_strip(
    gv: np.ndarray, seeds: np.ndarray, n_steps: int, dt: float, strip: int
) -> tuple[np.ndarray, np.ndarray]:
    s = seeds.shape[0]
    paths = np.empty((s, n_steps + 1, 3), dtype=np.float64)
    lengths = np.empty(s, dtype=np.intp)
    for start in range(0, s, strip):
        stop = min(start + strip, s)
        p, l = _integrate_vector(gv, seeds[start:stop], n_steps, dt)
        paths[start:stop] = p
        lengths[start:stop] = l
    return paths, lengths


# ---------------------------------------------------------------------------
# scalar backend (pure-Python kernel)
# ---------------------------------------------------------------------------


def _integrate_scalar(
    gv: np.ndarray,
    seeds: np.ndarray,
    n_steps: int,
    dt: float,
    flat: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point, per-step loop with scalar arithmetic throughout.

    The field is flattened to a Python list once so the inner loop performs
    honest scalar loads (the analogue of the paper's pointer-striding C).
    ``flat`` lets callers (the parallel workers) reuse a cached flattening.
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


# ---------------------------------------------------------------------------
# process-parallel backends
# ---------------------------------------------------------------------------

# One worker pool persists across calls (the Convex's processors did not
# reboot between frames), built around the field it integrates:
# ``(workers, field, pool)``.  Holding the field keeps its ``id`` from
# being recycled, so ``is`` identifies it; a field is assumed not to be
# mutated in place between calls, which holds for the loader/dataset
# caches (cache entries are read-only views).
_POOL: tuple | None = None

# Worker side: the pool's field, and the scalar kernel's flattening of it
# (made on the first scalar chunk, kept for every later one).
_FIELD: np.ndarray | None = None
_FLAT: list | None = None


def _init_worker(gv: np.ndarray) -> None:  # pragma: no cover - subprocess
    global _FIELD
    _FIELD = gv


def _run_chunk(args):  # pragma: no cover - executes in subprocess
    global _FLAT
    seeds_chunk, n_steps, dt, kernel = args
    if kernel != "scalar":
        return _integrate_vector(_FIELD, seeds_chunk, n_steps, dt)
    if _FLAT is None:
        _FLAT = np.ascontiguousarray(_FIELD, dtype=np.float64).ravel().tolist()
    return _integrate_scalar(_FIELD, seeds_chunk, n_steps, dt, flat=_FLAT)


def _get_pool(workers: int, gv: np.ndarray):
    global _POOL
    if _POOL is None or _POOL[0] != workers or _POOL[1] is not gv:
        shutdown_pools()
        _POOL = (workers, gv, mp.get_context().Pool(workers, _init_worker, (gv,)))
    return _POOL[2]


def shutdown_pools() -> None:
    """Terminate the persistent worker pool (the next call rebuilds it)."""
    global _POOL
    if _POOL is not None:
        _POOL[2].terminate()
        _POOL[2].join()
        _POOL = None


atexit.register(shutdown_pools)


def _integrate_parallel(
    gv: np.ndarray,
    seeds: np.ndarray,
    n_steps: int,
    dt: float,
    workers: int,
    kernel: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Distribute streamline chunks across ``workers`` processes.

    ``kernel='scalar'`` mirrors the Convex's parallelized scalar code;
    ``kernel='vector'`` is the vector-group scheme (parallel across
    groups, vectorized within).  The field reached the workers when their
    pool was built; a chunk carries only its seeds.
    """
    s = seeds.shape[0]
    workers = max(1, min(workers, s))
    if workers == 1:
        kern = _integrate_scalar if kernel == "scalar" else _integrate_vector
        return kern(gv, seeds, n_steps, dt)
    chunks = np.array_split(np.asarray(seeds, dtype=np.float64), workers)
    results = _get_pool(workers, gv).map(
        _run_chunk, [(chunk, n_steps, dt, kernel) for chunk in chunks]
    )
    paths = np.concatenate([r[0] for r in results], axis=0)
    lengths = np.concatenate([r[1] for r in results], axis=0)
    return paths, lengths


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def integrate_steady(
    gv: np.ndarray,
    seeds: np.ndarray,
    n_steps: int,
    dt: float,
    *,
    backend: str = "vector",
    workers: int = 4,
    strip: int = VECTOR_LENGTH,
    workspace: IntegratorWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate seeds through a frozen (single-timestep) field.

    This is the streamline computation.  Returns ``(paths, lengths)``:
    paths of shape ``(S, n_steps+1, 3)`` in grid coordinates (dead
    particles frozen at their last valid vertex) and per-path valid vertex
    counts.

    Parameters
    ----------
    backend
        One of :data:`BACKENDS`; see module docstring.
    workers
        Process count for the ``parallel``/``vector-group`` backends
        (the Convex had 4 CPUs, the SGI 8).
    strip
        Strip length for ``vector-strip`` (Convex vector length, 128).
    workspace
        Optional :class:`IntegratorWorkspace`.  Honored by the ``vector``
        backend: the kernel runs on preallocated scratch with zero
        per-step allocations and the returned ``paths`` array comes from
        the workspace's rotating buffer pool (see the class docstring for
        the reuse contract).  Other backends ignore it.
    """
    seeds = np.asarray(seeds, dtype=np.float64)
    if seeds.ndim != 2 or seeds.shape[1] != 3:
        raise ValueError(f"seeds must have shape (S, 3), got {seeds.shape}")
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    gv = np.asarray(gv, dtype=np.float64)
    if backend == "vector":
        if workspace is not None:
            return _integrate_vector_ws(gv, seeds, n_steps, dt, workspace)
        return _integrate_vector(gv, seeds, n_steps, dt)
    if backend == "vector-strip":
        if strip < 1:
            raise ValueError("strip must be positive")
        return _integrate_vector_strip(gv, seeds, n_steps, dt, strip)
    if backend == "scalar":
        return _integrate_scalar(gv, seeds, n_steps, dt)
    if backend == "parallel":
        return _integrate_parallel(gv, seeds, n_steps, dt, workers, "scalar")
    if backend == "vector-group":
        return _integrate_parallel(gv, seeds, n_steps, dt, workers, "vector")
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")


def integrate_paths(
    field_at: Callable[[int], np.ndarray],
    seeds: np.ndarray,
    t0: int,
    n_steps: int,
    n_timesteps: int,
    dt: float,
    *,
    workspace: IntegratorWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate seeds through an *unsteady* field, advancing time each step.

    This is the particle-path computation: "iteratively integrate the
    particle position, incrementing the timestep with each integration"
    (section 2.1).  Step ``n`` takes its RK2 stages from timesteps
    ``t0+n`` and ``t0+n+1`` (Heun across the time interval); integration
    stops when the dataset runs out of timesteps, so path length is bounded
    by the available (in-memory) timestep window, exactly the constraint of
    section 5.2.

    Parameters
    ----------
    field_at
        Maps a timestep index to its grid-coordinate velocity array.
    t0
        Starting timestep.
    n_timesteps
        Total timesteps available; the path uses at most
        ``n_timesteps - t0 - 1`` steps.
    workspace
        Optional :class:`IntegratorWorkspace`; same zero-allocation and
        buffer-pool semantics as :func:`integrate_steady`.
    """
    seeds = np.asarray(seeds, dtype=np.float64)
    if seeds.ndim != 2 or seeds.shape[1] != 3:
        raise ValueError(f"seeds must have shape (S, 3), got {seeds.shape}")
    if not (0 <= t0 < n_timesteps):
        raise IndexError(f"t0 {t0} out of range [0, {n_timesteps})")
    usable_steps = min(n_steps, n_timesteps - t0 - 1)
    if workspace is not None:
        return _integrate_paths_ws(field_at, seeds, t0, usable_steps, dt, workspace)
    s = seeds.shape[0]
    coords = np.array(seeds, copy=True)
    paths = np.empty((s, usable_steps + 1, 3), dtype=np.float64)
    paths[:, 0] = coords
    lengths = np.ones(s, dtype=np.intp)
    gv_now = field_at(t0)
    dims = gv_now.shape[:3]
    alive = in_domain_mask(coords, dims)
    for step in range(1, usable_steps + 1):
        gv_next = field_at(t0 + step)
        if alive.any():
            sel = np.nonzero(alive)[0]
            cur = coords[sel]
            k1 = trilinear_interpolate(gv_now, cur)
            k2 = trilinear_interpolate(gv_next, cur + dt * k1)
            new = cur + (0.5 * dt) * (k1 + k2)
            inside = in_domain_mask(new, dims)
            good = sel[inside]
            coords[good] = new[inside]
            lengths[good] += 1
            alive[sel[~inside]] = False
        paths[:, step] = coords
        gv_now = gv_next
    return paths, lengths


def _integrate_paths_ws(
    field_at: Callable[[int], np.ndarray],
    seeds: np.ndarray,
    t0: int,
    usable_steps: int,
    dt: float,
    ws: IntegratorWorkspace,
) -> tuple[np.ndarray, np.ndarray]:
    """The unsteady (particle-path) kernel on workspace storage.

    Bit-identical to the plain loop in :func:`integrate_paths`.  The Heun
    stencil reads two fields per step (t and t+1); the embedded scratch
    caches both flattened views, so alternating between them costs no
    rebinding in steady playback.
    """
    gv_now = field_at(t0)
    meta_now = ws.scratch.bind_field(gv_now)
    dims = gv_now.shape[:3]
    s = seeds.shape[0]
    coords, active = ws.bind_seeds(s)
    coords[...] = seeds
    paths = ws.paths_buffer(s, usable_steps + 1)
    paths[:, 0] = coords
    lengths = np.ones(s, dtype=np.intp)
    idx0 = np.nonzero(in_domain_mask(coords, dims))[0]
    n = idx0.size
    active[:n] = idx0
    hi = None if meta_now is None else meta_now[1]
    for step in range(1, usable_steps + 1):
        gv_next = field_at(t0 + step)
        meta_next = ws.scratch.bind_field(gv_next)
        if n > 0:
            act = active[:n]
            cur, mid, k1, k2, new, inside, b3a, b3b = ws.bind_active(n)
            np.take(coords, act, axis=0, out=cur, mode="clip")
            #   new = cur + (0.5*dt) * (k1 + k2), stages from t and t+1
            if meta_now is not None:
                ws.scratch.sample(meta_now, cur, k1)
            else:  # ineligible layout: correct, allocating sample
                trilinear_interpolate(gv_now, cur, out=k1)
            np.multiply(k1, dt, out=mid)
            np.add(mid, cur, out=mid)
            if meta_next is not None:
                ws.scratch.sample(meta_next, mid, k2)
            else:
                trilinear_interpolate(gv_next, mid, out=k2)
            np.add(k1, k2, out=k2)
            np.multiply(k2, 0.5 * dt, out=k2)
            np.add(cur, k2, out=new)
            if hi is None:
                hi = np.asarray(dims, dtype=np.float64) - 1.0
            np.greater_equal(new, 0.0, out=b3a)
            np.less_equal(new, hi, out=b3b)
            np.logical_and(b3a, b3b, out=b3a)
            np.all(b3a, axis=1, out=inside)
            if inside.all():
                coords[act] = new
            else:
                good = act[inside]
                coords[good] = new[inside]
                lengths[act[~inside]] = step
                k = good.size
                active[:k] = good
                n = k
        paths[:, step] = coords
        gv_now, meta_now = gv_next, meta_next
    if n > 0:
        lengths[active[:n]] = usable_steps + 1
    return paths, lengths
