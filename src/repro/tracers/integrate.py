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
* **Shared-memory field residency** — the process backends keep the
  velocity field resident in workers via ``multiprocessing.shared_memory``
  keyed by a memoized content token, so the field crosses the process
  boundary at most once per timestep instead of once per chunk per frame
  (the Convex kept its 1 GB dataset resident; our workers do too).
  Accounted as ``integrate.*`` counters in the calling thread's
  :func:`~repro.obs.get_registry`.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import weakref
import zlib
from collections import OrderedDict
from collections.abc import Callable
from multiprocessing import shared_memory

import numpy as np

from repro.grid.interpolation import (
    TrilinearScratch,
    in_domain_mask,
    trilinear_interpolate,
)
from repro.obs import get_registry

__all__ = [
    "BACKENDS",
    "IntegratorWorkspace",
    "advance_rk2",
    "integrate_steady",
    "integrate_paths",
    "configure_pools",
    "pool_start_method",
    "shutdown_pools",
]

BACKENDS = ("vector", "vector-strip", "scalar", "parallel", "vector-group")

#: Convex C3240 vector register length (section 5), the default strip size.
VECTOR_LENGTH = 128


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

    Output ``paths`` arrays come from a small rotating pool (default 4
    buffers per ``(seeds, steps)`` shape), so a result stays valid while
    the frame pipeline's encode stage reads it concurrently with the next
    frame's production — but is overwritten after ``paths_pool`` further
    calls of the same shape.  Callers that need longer-lived results copy
    them (the pipeline converts to wire float32 at publish, which already
    copies).

    One workspace serves one thread; the compute engine owns one for the
    producer thread.
    """

    def __init__(self, paths_pool: int = 4) -> None:
        if paths_pool < 1:
            raise ValueError("paths_pool must be at least 1")
        self.paths_pool = int(paths_pool)
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
        if len(pool) < self.paths_pool:
            buf = np.empty((s, cols, 3), dtype=np.float64)
            pool.append(buf)
            return buf
        i = self._paths_next[key]
        self._paths_next[key] = (i + 1) % len(pool)
        return pool[i]


def advance_rk2(
    gv: np.ndarray,
    coords: np.ndarray,
    dt: float,
    *,
    out: np.ndarray | None = None,
    workspace: IntegratorWorkspace | None = None,
) -> np.ndarray:
    """One RK2 (Heun) step for all ``coords`` in a frozen field ``gv``.

    ``gv`` is grid-coordinate velocity ``(ni, nj, nk, 3)``; ``coords`` is
    ``(N, 3)`` fractional grid coordinates.  Out-of-domain samples clamp to
    the boundary; callers decide particle death via
    :func:`~repro.grid.interpolation.in_domain_mask`.

    With ``workspace`` (and ``out``), the stage samples and the midpoint
    live in preallocated scratch and the step allocates nothing; results
    are bit-identical to the plain path.
    """
    if workspace is not None and out is not None:
        if (
            isinstance(coords, np.ndarray)
            and coords.ndim == 2
            and coords.shape[1] == 3
            and coords.dtype == np.float64
        ):
            meta = workspace.scratch.bind_field(gv)
            if meta is not None:
                n = coords.shape[0]
                _, mid, k1, k2, _, _, _, _ = workspace.bind_active(n)
                workspace.scratch.sample(meta, coords, k1)
                np.multiply(k1, dt, out=mid)
                np.add(mid, coords, out=mid)
                workspace.scratch.sample(meta, mid, k2)
                np.add(k1, k2, out=k2)
                np.multiply(k2, 0.5 * dt, out=k2)
                np.add(coords, k2, out=out)
                return out
    k1 = trilinear_interpolate(gv, coords)
    k2 = trilinear_interpolate(gv, coords + dt * k1)
    result = coords + (0.5 * dt) * (k1 + k2)
    if out is not None:
        out[...] = result
        return out
    return result


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

# Worker pools persist across calls (the Convex's processors did not
# reboot between frames); one pool per (start method, worker count),
# created lazily.
_POOLS: dict[tuple[str, int], "mp.pool.Pool"] = {}

#: Explicit start-method preference (None = auto; see pool_start_method).
_START_METHOD_PREF: str | None = None

#: Parent-side shared-memory exports kept alive, newest last.  Two covers
#: the unsteady t/t+1 stencil without re-exporting on alternation.
_SHM_KEEP = 2
_SHM_EXPORTS: "OrderedDict[tuple, shared_memory.SharedMemory]" = OrderedDict()
#: Flipped when the platform refuses a segment: from then on the field
#: rides pickled in every chunk's arguments instead.
_SHM_BROKEN = False

# Per-worker field residency: token -> [gv_view, flat_list | None, shm | None].
# Workers keep at most one field resident (the Convex kept its dataset
# resident too); a new token evicts the old mapping.
_WORKER_FIELDS: dict = {}

# Memoized content tokens keyed by array identity, so steady-state frames
# checksum nothing (satellite: _field_token used to adler32 the whole
# field on every parallel call).
_TOKEN_MEMO: dict[int, tuple] = {}

def pool_start_method() -> str:
    """The multiprocessing start method the next pool will use.

    Resolution order: :func:`configure_pools` preference, the
    ``REPRO_POOL_START_METHOD`` environment variable, then ``fork`` where
    available with a ``spawn`` fallback (fork is missing on some
    platforms and deprecated as a default in newer CPython).
    """
    if _START_METHOD_PREF is not None:
        return _START_METHOD_PREF
    available = mp.get_all_start_methods()
    env = os.environ.get("REPRO_POOL_START_METHOD", "").strip()
    if env and env in available:
        return env
    return "fork" if "fork" in available else "spawn"


def configure_pools(*, start_method: str | None) -> dict:
    """Set the worker pools' start method; returns the active config.

    ``start_method`` is ``"fork"``, ``"spawn"``, ``"forkserver"``, or
    ``None`` to restore the automatic choice.  On a change, existing
    pools are shut down so the next parallel call rebuilds them under
    the new method.
    """
    global _START_METHOD_PREF
    if start_method is not None and start_method not in mp.get_all_start_methods():
        raise ValueError(
            f"start method {start_method!r} not available; "
            f"expected one of {mp.get_all_start_methods()} or None"
        )
    if start_method != _START_METHOD_PREF:
        _START_METHOD_PREF = start_method
        shutdown_pools()
    return {"start_method": pool_start_method()}


def _field_token(gv: np.ndarray) -> tuple:
    """Content token for worker-side field residency, memoized by identity.

    The token itself is content-based (shape + adler32) so equal fields
    share residency; computing it is memoized on the array *object* so a
    steady-state frame — same field array every call — checksums nothing.
    The memo assumes fields are not mutated in place between calls, which
    holds for the loader/dataset caches (published frames are read-only).
    """
    key = id(gv)
    memo = _TOKEN_MEMO.get(key)
    if memo is not None and memo[0]() is gv and memo[1] == gv.shape:
        return memo[2]
    head = np.ascontiguousarray(gv).view(np.uint8)
    token = (gv.shape, zlib.adler32(head), int(gv.size))
    get_registry().counter("integrate.field_checksums").inc()
    try:
        ref = weakref.ref(gv, lambda _r, _k=key: _TOKEN_MEMO.pop(_k, None))
    except TypeError:  # pragma: no cover - ndarrays support weakrefs
        return token
    _TOKEN_MEMO[key] = (ref, gv.shape, token)
    return token


def _export_field(gv: np.ndarray, token: tuple):
    """Make ``gv`` reachable by the workers; return the per-chunk reference.

    Returns a small descriptor dict (name, shape, dtype) — the field's
    bytes cross the process boundary once, when the shared-memory segment
    is created, and workers attach read-only views.  If the platform
    refuses a segment, the array itself is returned (now and from then
    on) and rides pickled in each chunk's args.
    """
    global _SHM_BROKEN
    if _SHM_BROKEN:
        return gv
    seg = _SHM_EXPORTS.get(token)
    if seg is None:
        try:
            seg = shared_memory.SharedMemory(create=True, size=int(gv.nbytes))
        except Exception:
            _SHM_BROKEN = True
            return gv
        np.ndarray(gv.shape, dtype=gv.dtype, buffer=seg.buf)[...] = gv
        while len(_SHM_EXPORTS) >= _SHM_KEEP:
            _, old = _SHM_EXPORTS.popitem(last=False)
            _release_segment(old)
        _SHM_EXPORTS[token] = seg
        registry = get_registry()
        registry.counter("integrate.fields_exported").inc()
        registry.counter("integrate.field_bytes_shipped").inc(int(gv.nbytes))
    else:
        _SHM_EXPORTS.move_to_end(token)
    return {"shm": seg.name, "shape": gv.shape, "dtype": str(gv.dtype)}


def _release_segment(seg: shared_memory.SharedMemory) -> None:
    try:
        seg.close()
    except BufferError:  # pragma: no cover - exported view still alive
        pass
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


def _resolve_field(field_ref, token: tuple) -> np.ndarray:  # pragma: no cover
    """Worker side: turn a chunk's field reference into the resident array.

    Executes in pool workers (subprocesses), invisible to coverage.
    """
    if isinstance(field_ref, np.ndarray):
        return field_ref
    entry = _WORKER_FIELDS.get(token)
    if entry is not None:
        return entry[0]
    # New field: evict the previous residency, then attach read-only.
    for old in list(_WORKER_FIELDS.values()):
        shm = old[2]
        old[0] = old[1] = None
        if shm is not None:
            try:
                shm.close()
            except BufferError:  # pragma: no cover
                pass
    _WORKER_FIELDS.clear()
    # The parent owns the segment's lifetime; attaching must not enroll
    # it with this process's resource tracker (which would unlink it at
    # worker exit and spam KeyErrors when several workers attach).
    # Python 3.13 has SharedMemory(track=False); until then, suppress the
    # registration around the attach.
    from multiprocessing import resource_tracker

    orig_register = resource_tracker.register

    def _no_shm_register(name, rtype):  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            orig_register(name, rtype)

    resource_tracker.register = _no_shm_register
    try:
        shm = shared_memory.SharedMemory(name=field_ref["shm"])
    finally:
        resource_tracker.register = orig_register
    gv = np.ndarray(
        tuple(field_ref["shape"]), dtype=np.dtype(field_ref["dtype"]), buffer=shm.buf
    )
    gv.flags.writeable = False
    _WORKER_FIELDS[token] = [gv, None, shm]
    return gv


def _worker_flat(gv: np.ndarray, token: tuple) -> list:  # pragma: no cover
    """Per-worker cache of the scalar kernel's flattened field.

    Executes in pool workers (subprocesses), invisible to coverage.
    Repeated frames over the same timestep do not re-pay the flattening
    (the Convex kept its converted data resident too).
    """
    entry = _WORKER_FIELDS.get(token)
    if entry is None:
        entry = [gv, None, None]
        _WORKER_FIELDS.clear()  # keep at most one field resident per worker
        _WORKER_FIELDS[token] = entry
    if entry[1] is None:
        entry[1] = np.ascontiguousarray(gv, dtype=np.float64).ravel().tolist()
    return entry[1]


def _run_chunk(args):  # pragma: no cover - executes in subprocess
    field_ref, seeds_chunk, n_steps, dt, kernel, token = args
    gv = _resolve_field(field_ref, token)
    if kernel != "scalar":
        return _integrate_vector(gv, seeds_chunk, n_steps, dt)
    return _integrate_scalar(
        gv, seeds_chunk, n_steps, dt, flat=_worker_flat(gv, token)
    )


def _get_pool(workers: int):
    method = pool_start_method()
    key = (method, workers)
    pool = _POOLS.get(key)
    if pool is None:
        ctx = mp.get_context(method)
        pool = ctx.Pool(workers)
        _POOLS[key] = pool
    return pool


def shutdown_pools() -> None:
    """Terminate persistent pools and release shared-memory exports."""
    for pool in _POOLS.values():
        pool.terminate()
        pool.join()
    _POOLS.clear()
    while _SHM_EXPORTS:
        _, seg = _SHM_EXPORTS.popitem()
        _release_segment(seg)


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
    groups, vectorized within).  The field array crosses the process
    boundary once per timestep — workers attach read-only shared-memory
    views keyed by the (memoized) content token — instead of being
    re-pickled into every chunk.
    """
    s = seeds.shape[0]
    workers = max(1, min(workers, s))
    if workers == 1:
        kern = _integrate_scalar if kernel == "scalar" else _integrate_vector
        return kern(gv, seeds, n_steps, dt)
    chunks = np.array_split(np.asarray(seeds, dtype=np.float64), workers)
    pool = _get_pool(workers)
    token = _field_token(gv)
    field_ref = _export_field(gv, token)
    registry = get_registry()
    if field_ref is gv:
        # Pickle fallback: a full copy of the field rides in every chunk.
        registry.counter("integrate.field_bytes_shipped").inc(
            int(gv.nbytes) * len(chunks)
        )
    registry.counter("integrate.parallel_calls").inc()
    results = pool.map(
        _run_chunk,
        [(field_ref, chunk, n_steps, dt, kernel, token) for chunk in chunks],
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
