"""Second-order Runge-Kutta particle integration with multiple backends.

The computational core of the windtunnel.  The paper (section 5.3): "The
integration algorithm for the computation is second-order Runge-Kutta,
which requires two accesses of the vector field data from memory each
involving eight floating point loads to set up for trilinear
interpolation, two trilinear interpolations, and two simple computations
per component per point integrated."  That is exactly the inner loop here
— on the workspace kernel literally so: each access is *one* gather of
the eight corners of every component of every particle, each
interpolation nine calls, and the whole step under fifty NumPy calls
whatever the particle count.

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

* **The workspace kernel** — with an :class:`IntegratorWorkspace` the
  ``vector`` kernel and the particle-path kernel are one component-major
  stepping loop (:func:`_integrate_ws`) that threads ``out=`` through
  every call: no per-step array allocations (the Convex did not call
  ``malloc`` per vector op either) and, because a NumPy call costs more
  to launch than to run at interactive particle counts, as few calls as
  the arithmetic allows.  Pass ``workspace=`` to :func:`integrate_steady`
  / :func:`integrate_paths`; results are bit-identical to the plain
  path, which stays as the readable oracle.
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

#: Rotating output buffers an :class:`IntegratorWorkspace` keeps per
#: kernel and ``(seeds, steps)`` shape.
PATHS_POOL = 4


# ---------------------------------------------------------------------------
# the zero-allocation workspace
# ---------------------------------------------------------------------------


class IntegratorWorkspace:
    """Preallocated scratch for the vectorized RK2 kernels.

    Holds every buffer the workspace kernel touches per step — the two
    RK2 stage samples, the midpoint, the in-domain masks, the gather and
    candidate blocks and the active-particle index prefix used once
    somebody has died, and (via an embedded
    :class:`~repro.grid.interpolation.TrilinearScratch`) the corner
    gather and blend scratch — all component-major ``(3, n)``, sized to
    the largest seed count seen and reused across frames.  In steady
    state (no particle deaths) an integration step allocates nothing.

    The kernel writes **step-major**: one ``(steps, 3, seeds)`` buffer in
    which step *k* reads row *k* - 1 and writes row *k* in place, and the
    ``(seeds, steps, 3)`` array it returns is a transposed view of that
    buffer.  The buffers rotate, :data:`PATHS_POOL` per kernel
    (streamline, particle path) and shape, so **a result outlives the**
    ``PATHS_POOL - 1`` **calls of the same kernel that follow it** — and
    the engine calls each kernel once per frame, so a frame's results
    survive the three productions after it however many kernels a frame
    runs, which covers the frame in the encode queue plus the one the
    encoder still holds.  Callers that need longer-lived results copy
    them (the pipeline converts to wire float32 at publish, which
    already copies).

    One workspace serves one thread; the compute engine owns one for the
    producer thread.
    """

    def __init__(self) -> None:
        self.scratch = TrilinearScratch()
        self._cap = 0
        self._f8 = None
        self._b1 = None
        self._active = None
        self._bound_n = -1
        self._views: tuple | None = None
        self._paths_pools: dict[tuple, list] = {}
        self._paths_next: dict[tuple, int] = {}

    def bind_seeds(self, s: int) -> np.ndarray:
        """The live-particle index buffer, sized by the total seed count."""
        if s > self._cap or self._f8 is None:
            self._cap = max(s, self._cap)
            self._f8 = np.empty((5, 3, self._cap), dtype=np.float64)
            self._b1 = np.empty((7, self._cap), dtype=bool)
            self._active = np.empty(self._cap, dtype=np.intp)
            self._bound_n = -1
        return self._active[:s]

    def bind_active(self, n: int) -> tuple:
        """Per-step views sized by the live-particle count (cached per n).

        ``(k1, k2, mid, cur, new, ok, ok2, inside)``: float64 ``(3, n)``
        blocks, two ``(3, n)`` masks and one ``(n,)`` mask.
        """
        if n != self._bound_n:
            masks = self._b1[:, :n]
            self._views = (
                *self._f8[:, :, :n], masks[0:3], masks[3:6], masks[6]
            )
            self._bound_n = n
        return self._views

    def paths_buffer(self, s: int, cols: int, kernel: str = "steady") -> np.ndarray:
        """A step-major ``(cols, 3, s)`` buffer from ``kernel``'s rotating pool."""
        key = (kernel, s, cols)
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
            buf = np.empty((cols, 3, s), dtype=np.float64)
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


def _integrate_ws(
    field_at: Callable[[int], np.ndarray],
    seeds: np.ndarray,
    t0: int,
    n_steps: int,
    dt: float,
    ws: IntegratorWorkspace,
    kernel: str,
) -> tuple[np.ndarray, np.ndarray]:
    """The one RK2 stepping loop on workspace storage, steady and unsteady.

    Step ``n`` takes its two stages from ``field_at(t0 + n - 1)`` and
    ``field_at(t0 + n)``; the streamline kernel is the case where both
    are the same frozen field.  Bit-identical to :func:`_integrate_vector`
    and to the plain loop of :func:`integrate_paths` — same expression
    per element, same death semantics — on component-major storage:
    while nobody has died, step ``n`` samples row ``n - 1`` of the
    step-major buffer and writes row ``n`` in place (no gather, no
    scatter, no allocation); after a death the live particles are the
    prefix of an index buffer and are gathered and scattered per step.
    Every field must satisfy :meth:`TrilinearScratch.bind_field`.
    """
    bind_field, sample = ws.scratch.bind_field, ws.scratch.sample
    gv = field_at(t0)
    now = nxt = bind_field(gv)
    hi = now[1]
    s = seeds.shape[0]
    active = ws.bind_seeds(s)
    steps = ws.paths_buffer(s, n_steps + 1, kernel)
    here = steps[0]
    here[...] = seeds.T
    lengths = np.ones(s, dtype=np.intp)
    alive = np.nonzero(in_domain_mask(seeds, gv.shape[:3]))[0]
    n = alive.size
    active[:n] = alive
    k1, k2, mid, cur, new, ok, ok2, inside = ws.bind_active(n)
    for step in range(1, n_steps + 1):
        gv_next = field_at(t0 + step)
        if gv_next is not gv:
            gv, nxt = gv_next, bind_field(gv_next)
            if nxt is None:
                raise ValueError(f"field at timestep {t0 + step} changed layout")
        prev, here = here, steps[step]
        if n == 0:
            # Everyone is dead: freeze the remaining rows and stop.
            steps[step:] = prev
            break
        if n == s:
            cur, new = prev, here
        else:
            np.take(prev, active[:n], axis=1, out=cur, mode="clip")
        # RK2, the plain kernel's exact expression tree:
        #   new = cur + (0.5*dt) * (k1 + k2)
        sample(now, cur, k1)
        np.multiply(k1, dt, out=mid)
        np.add(mid, cur, out=mid)  # cur + dt*k1
        sample(nxt, mid, k2)
        np.add(k1, k2, out=k2)
        np.multiply(k2, 0.5 * dt, out=k2)
        np.add(cur, k2, out=new)
        # In-domain test: (new >= 0) & (new <= hi) on every axis.
        np.greater_equal(new, 0.0, out=ok)
        np.less_equal(new, hi, out=ok2)
        np.logical_and(ok, ok2, out=ok)
        if n < s:
            here[...] = prev  # the dead stay frozen
        if ok.all():
            if n < s:
                here[:, active[:n]] = new
        else:
            np.all(ok, axis=0, out=inside)
            act = active[:n]
            good, lost = act[inside], act[~inside]
            if n == s:
                here[:, lost] = prev[:, lost]
            else:
                here[:, good] = new[:, inside]
            # A particle that failed at `step` keeps lengths == step:
            # the seed plus the step-1 steps it survived.
            lengths[lost] = step
            n = good.size
            active[:n] = good
            k1, k2, mid, cur, new, ok, ok2, inside = ws.bind_active(n)
        now = nxt
    lengths[active[:n]] = n_steps + 1
    return steps.transpose(2, 0, 1), lengths


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
        per-step allocations and the returned ``paths`` array is a view
        of one of the workspace's rotating buffers (see the class
        docstring for the reuse contract).  Other backends ignore it.
    """
    seeds = np.asarray(seeds, dtype=np.float64)
    if seeds.ndim != 2 or seeds.shape[1] != 3:
        raise ValueError(f"seeds must have shape (S, 3), got {seeds.shape}")
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    gv = np.asarray(gv, dtype=np.float64)
    if backend == "vector":
        if workspace is not None and workspace.scratch.bind_field(gv) is not None:
            return _integrate_ws(
                lambda t: gv, seeds, 0, n_steps, dt, workspace, "steady"
            )
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
    if (
        workspace is not None
        and workspace.scratch.bind_field(field_at(t0)) is not None
    ):
        return _integrate_ws(
            field_at, seeds, t0, usable_steps, dt, workspace, "paths"
        )
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
