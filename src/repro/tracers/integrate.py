"""Second-order Runge-Kutta particle integration: the one kernel.

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

The kernel vectorizes across streamlines, as the Convex did ("This is
the only possibility, as the computation of an individual streamline is
an iterative process"), and it is the only one the library has.
Streamlines (:func:`integrate_steady`) and particle paths
(:func:`integrate_paths`) share it: a streamline is a particle path
through a field that does not change with time.  It runs in two forms,
bit-identical to each other:

* **The plain loop** (:func:`_integrate_plain`) — the readable oracle,
  taken when no workspace is passed.
* **The workspace kernel** (:func:`_integrate_ws`) — with an
  :class:`IntegratorWorkspace` the stepping loop is component-major and
  threads ``out=`` through every call: no per-step array allocations
  (the Convex did not call ``malloc`` per vector op either) and, because
  a NumPy call costs more to launch than to run at interactive particle
  counts, as few calls as the arithmetic allows.

The paper's other arrangements of the same arithmetic — scalar C, strip
mining to 128-lane vector registers, the 4-CPU parallel scalar code and
the proposed parallel-across-groups scheme — are Table 3's comparison,
not a frame path, and live with the Table 3 benchmark.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.grid.interpolation import (
    TrilinearScratch,
    in_domain_mask,
    trilinear_interpolate,
)

__all__ = [
    "IntegratorWorkspace",
    "advance_rk2",
    "integrate_steady",
    "integrate_paths",
]

#: Rotating output buffers an :class:`IntegratorWorkspace` keeps per
#: kernel and ``(seeds, steps)`` shape.
PATHS_POOL = 4


# ---------------------------------------------------------------------------
# the zero-allocation workspace
# ---------------------------------------------------------------------------


class IntegratorWorkspace:
    """Preallocated scratch for the workspace RK2 kernel.

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
# the stepping loop, plain and on a workspace
# ---------------------------------------------------------------------------


def _integrate_plain(
    field_at: Callable[[int], np.ndarray],
    seeds: np.ndarray,
    t0: int,
    n_steps: int,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The readable RK2 stepping loop, steady and unsteady.

    Step ``n`` takes its two stages from ``field_at(t0 + n - 1)`` and
    ``field_at(t0 + n)``; a streamline is the case where both are the
    same frozen field.  A particle that leaves the domain freezes at its
    last inside vertex.
    """
    s = seeds.shape[0]
    coords = seeds.copy()
    paths = np.empty((s, n_steps + 1, 3), dtype=np.float64)
    paths[:, 0] = coords
    lengths = np.ones(s, dtype=np.intp)
    gv_now = field_at(t0)
    dims = gv_now.shape[:3]
    alive = in_domain_mask(coords, dims)
    for step in range(1, n_steps + 1):
        # Read before the death check: the fields the workspace kernel reads.
        gv_next = field_at(t0 + step)
        if not alive.any():
            # Everyone is dead: freeze the remaining columns and stop.
            paths[:, step:] = coords[:, None, :]
            break
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
    are the same frozen field.  Bit-identical to :func:`_integrate_plain`
    — same expression per element, same death semantics, same fields
    read — on component-major storage:
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


def _integrate(
    field_at: Callable[[int], np.ndarray],
    seeds: np.ndarray,
    t0: int,
    n_steps: int,
    dt: float,
    workspace: IntegratorWorkspace | None,
    kernel: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Validate, then step on ``workspace`` when it can take the field at
    ``t0`` and in the plain loop otherwise."""
    seeds = np.asarray(seeds, dtype=np.float64)
    if seeds.ndim != 2 or seeds.shape[1] != 3:
        raise ValueError(f"seeds must have shape (S, 3), got {seeds.shape}")
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    if (
        workspace is not None
        and workspace.scratch.bind_field(field_at(t0)) is not None
    ):
        return _integrate_ws(field_at, seeds, t0, n_steps, dt, workspace, kernel)
    return _integrate_plain(field_at, seeds, t0, n_steps, dt)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def integrate_steady(
    gv: np.ndarray,
    seeds: np.ndarray,
    n_steps: int,
    dt: float,
    *,
    workspace: IntegratorWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate seeds through a frozen (single-timestep) field.

    This is the streamline computation.  Returns ``(paths, lengths)``:
    paths of shape ``(S, n_steps+1, 3)`` in grid coordinates (dead
    particles frozen at their last valid vertex) and per-path valid vertex
    counts.

    Parameters
    ----------
    workspace
        Optional :class:`IntegratorWorkspace`: the kernel runs on
        preallocated scratch with zero per-step allocations and the
        returned ``paths`` array is a view of one of the workspace's
        rotating buffers (see the class docstring for the reuse
        contract).  Results are bit-identical either way.
    """
    gv = np.asarray(gv, dtype=np.float64)
    return _integrate(lambda t: gv, seeds, 0, n_steps, dt, workspace, "steady")


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
    if not (0 <= t0 < n_timesteps):
        raise IndexError(f"t0 {t0} out of range [0, {n_timesteps})")
    usable_steps = min(n_steps, n_timesteps - t0 - 1)
    return _integrate(field_at, seeds, t0, usable_steps, dt, workspace, "paths")
