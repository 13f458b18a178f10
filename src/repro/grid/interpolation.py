"""Vectorized trilinear interpolation on structured grids.

The paper counts "eight floating point loads to set up for trilinear
interpolation" per access (section 5.3); this module is the NumPy analogue —
a gather of the eight cell corners followed by the blend, batched over all
query points at once so it vectorizes the way the Convex code did across
streamlines.

Two execution paths share the same arithmetic (and therefore produce
bit-identical results):

* the plain path — point-major, every call allocates its own corner and
  blend temporaries; simple, safe, what casual callers get, and the
  readable oracle the other path is tested against;
* the scratch path — :class:`TrilinearScratch`, component-major
  (``(3, n)`` in, ``(C, n)`` out): all eight corners of every component
  come from **one** gather and each blend level is three calls, 16 NumPy
  calls a sample instead of the plain path's several dozen, every one
  ``out=``-threaded through storage allocated once and every operand
  the full contiguous size of the call.  At a few hundred points a NumPy
  call costs more to launch than to run, so the calls — how many, and
  whether any broadcasts — *are* the cost: the RK2 inner loop of
  :mod:`repro.tracers.integrate` and the encode stage's grid -> physical
  conversion both run on it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = ["trilinear_interpolate", "in_domain_mask", "TrilinearScratch"]


def in_domain_mask(coords: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """Boolean mask of which fractional grid coords lie inside the grid.

    A point is in-domain when every component is within ``[0, n-1]`` for the
    corresponding grid extent ``n``.
    """
    coords = np.asarray(coords)
    hi = np.asarray(dims, dtype=np.float64) - 1.0
    return np.all((coords >= 0.0) & (coords <= hi), axis=-1)


def _carve(store: np.ndarray, *shapes: tuple) -> list[np.ndarray]:
    """Consecutive contiguous blocks of the flat ``store``, one per shape."""
    blocks, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        blocks.append(store[at : at + size].reshape(shape))
        at += size
    return blocks


class TrilinearScratch:
    """Preallocated scratch buffers for repeated trilinear sampling.

    The sampler is **component-major**: coordinates arrive as ``(3, n)``,
    values leave as ``(C, n)``, and every intermediate keeps the point
    axis last, so each NumPy call runs one long contiguous inner loop and
    the whole sample is 16 calls whatever ``n`` is — two for the clamp,
    the cell clamp, the fraction, an integer ``dot`` for the base index,
    an add for the ``(8 C, n)`` corner indices, **one** ``take`` of all
    eight corners of every component from the flat field, and three calls
    for each of the z / y / x blends (the cast to the cell index and the
    tile of the base index are assignments, not calls).  The blend is
    term for term the plain :func:`trilinear_interpolate` expression
    ``c0 + (c1 - c0) * f``, so results are bit-identical to it; only the
    layout and the storage differ.

    At interactive ``n`` a call costs what its operands make it cost, not
    only what it computes: a ``(3, 1)`` bound or a scalar broadcast
    against ``(3, n)`` takes NumPy's broadcasting iterator, and that
    doubles a 16-point call.  So :meth:`bind` builds the sampler for one
    point count and field shape with **every** constant operand — the
    bounds, the last cell, the corner offsets, a zero block — carved at
    the full ``(…, n)`` size of the views it meets: no call in a sample
    broadcasts.

    One scratch serves one thread.  Buffers grow to the largest point
    count ever requested and are reused thereafter; the exact-size views
    and the constants are built once per ``(n, field shape)`` and kept
    (:data:`BINDINGS` of them), so in steady state a sample touches no
    allocator at all.

    The sampler requires a C-contiguous float64 field of shape
    ``(ni, nj, nk, C)``; :meth:`bind_field` returns ``None`` for anything
    else and callers fall back to the allocating path.  The field is read
    through a flat *view* — binding a new field (every frame, for an
    unsteady or live dataset) copies nothing.
    """

    #: Bound samplers, one per ``(n, field shape)``, kept before the
    #: cache is cleared.
    BINDINGS = 4
    #: Points per sample inside :meth:`sample_blocks`.  The sampler's own
    #: storage and constants are ~130 words a point; a frame-sized batch
    #: sampled whole would hold 25 MB of it for nothing — past a thousand
    #: points a sample is memory-bound, not launch-bound, and a block that
    #: stays in cache samples as fast as a larger one.
    BLOCK = 1024

    def __init__(self) -> None:
        self._cap = 0
        self._nc = 0
        # Flat capacity-sized stores; ``_bind`` carves exact-size,
        # contiguous ``(…, n)`` views out of them (``take`` copies a
        # non-contiguous index or output block behind our back, and a
        # ufunc on a strided ``(3, n)`` view costs twice a contiguous one).
        self._f8 = None  # float64: clamped, cell, fractions, corners, blends
        self._i8 = None  # intp: cell, base, corner indices
        self._zeros = None  # float64 zeros: any prefix is a zero block
        self._staged = np.empty(0)  # sample_blocks' (3 + nc, n) staging
        # (n, field shape) -> (sample, hi, zero); see :meth:`bind`.
        self._bindings: dict[tuple, tuple] = {}

    # -- binding ------------------------------------------------------------

    def bind_field(self, field: np.ndarray) -> tuple | None:
        """``(flat, shape)``: the flat view of ``field`` and its shape.

        ``None`` when the field is not eligible for the sampler (wrong
        dtype/layout/shape).  Binding the next timestep of a dataset costs
        one ``reshape`` view; a caller sampling one field many times binds
        it once and keeps the tuple.
        """
        if (
            not isinstance(field, np.ndarray)
            or field.ndim != 4
            or field.dtype != np.float64
            or not field.flags.c_contiguous
            or min(field.shape[:3]) < 2
        ):
            return None
        return field.reshape(-1), field.shape

    def bind(self, n: int, shape: tuple) -> tuple:
        """``(sample, hi, zero)`` for ``n`` points of fields shaped ``shape``.

        ``sample(flat, coords, out, clamp=True)`` is the sampler:
        ``flat`` is :meth:`bind_field`'s flat view of a field of this
        ``shape``, ``coords`` is ``(3, n)`` float64 and ``out`` is
        ``(C, n)`` float64 (neither need be contiguous — transposed views
        of point-major arrays are fine).  With ``clamp`` the coordinates
        are clamped to the domain (the integrator's contract); without
        it they must already lie in it, as the integrator's live
        particles do — the clamp could then change only the sign of a
        zero coordinate.  ``hi`` and ``zero`` are the ``(3, n)`` bounds
        the sampler clamps to, full-size for the caller's own domain
        test.
        """
        binding = self._bindings.get((n, shape))
        if binding is None:
            binding = self._bind(n, shape)
        return binding

    def _bind(self, n: int, shape: tuple) -> tuple:
        """Carve the views, build the constants and close the sampler."""
        ni, nj, nk, nc = shape
        if n > self._cap or nc > self._nc:
            cap, cnc = max(n, self._cap), max(nc, self._nc)
            self._f8 = np.empty((9 + 22 * cnc) * cap, dtype=np.float64)
            self._i8 = np.empty((4 + 8 * cnc) * cap, dtype=np.intp)
            self._zeros = np.zeros(3 * cap)
            self._cap, self._nc = cap, cnc
            self._bindings.clear()  # they hold views of the old stores
        elif len(self._bindings) >= self.BINDINGS:
            self._bindings.clear()
        clamped, cellf, frac, fz, fy, fx, corners, bz, by, bx = _carve(
            self._f8, (3, n), (3, n), (3, n), (4 * nc, n), (2 * nc, n), (nc, n),
            (8 * nc, n), (4 * nc, n), (2 * nc, n), (nc, n),
        )
        cell, base, idx = _carve(self._i8, (3, n), (n,), (8 * nc, n))
        # Corner rows run (dk, dj, di, component), dk slowest, so the lower
        # and upper operand of every blend level is one contiguous half.
        z0, z1 = corners[: 4 * nc], corners[4 * nc :]
        y0, y1 = bz[: 2 * nc], bz[2 * nc :]
        x0, x1 = by[:nc], by[nc:]
        frac_x, frac_y, frac_z = frac

        # The constants, each the full size of the view it meets.
        zero = self._zeros[: 3 * n].reshape(3, n)
        hi = np.repeat([[ni - 1.0], [nj - 1.0], [nk - 1.0]], n, axis=1)
        maxcell = np.repeat([[ni - 2], [nj - 2], [nk - 2]], n, axis=1).astype(np.intp)
        # Element strides of the flat field, and the offset from a cell's
        # base element of each corner row (dk, dj, di, component).
        strides = np.array([nj * nk * nc, nk * nc, nc], dtype=np.intp)
        dk, dj, di = np.indices((2, 2, 2), dtype=np.intp).reshape(3, 8)
        corner = di * strides[0] + dj * strides[1] + dk * strides[2]
        offsets = np.repeat(
            (corner[:, None] + np.arange(nc, dtype=np.intp)).reshape(-1, 1), n, axis=1
        )

        def sample(flat, coords, out, clamp=True):
            if clamp:
                np.maximum(coords, zero, out=clamped)
                np.minimum(clamped, hi, out=clamped)
                coords = clamped
            # Int-cast assignment truncates toward zero — same values the
            # plain path's astype(intp) produces for these non-negative
            # coords.
            cell[...] = coords
            np.minimum(cell, maxcell, out=cell)
            cellf[...] = cell  # a float operand: no mixed-type subtract
            np.subtract(coords, cellf, out=frac)
            # Each level's fraction, tiled to the rows it scales.
            fz[...] = frac_z
            fy[...] = frac_y
            fx[...] = frac_x

            # The 'eight floating point loads', for every component of
            # every point, as one gather.  (Tiling the base first keeps
            # the add free of a broadcast operand.)  mode="clip" selects
            # take's unbuffered path; the clamped cells keep every index in
            # range already (a NaN coordinate casts to garbage, is clipped,
            # and blends to NaN).
            np.dot(strides, cell, out=base)
            idx[...] = base
            np.add(idx, offsets, out=idx)
            flat.take(idx, out=corners, mode="clip")

            # c0 + (c1 - c0) * f along z, then y, then x.
            np.subtract(z1, z0, out=bz)
            np.multiply(bz, fz, out=bz)
            np.add(z0, bz, out=bz)
            np.subtract(y1, y0, out=by)
            np.multiply(by, fy, out=by)
            np.add(y0, by, out=by)
            np.subtract(x1, x0, out=bx)
            np.multiply(bx, fx, out=bx)
            np.add(x0, bx, out=out)
            return out

        binding = (sample, hi, zero)
        self._bindings[(n, shape)] = binding
        return binding

    # -- sampling -----------------------------------------------------------

    def sample(
        self, field_meta: tuple, coords: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Trilinear sample of ``coords`` into ``out``, clamped.

        ``field_meta`` comes from :meth:`bind_field`; ``coords`` and
        ``out`` are as for :meth:`bind`'s sampler.  A caller sampling
        many times at one ``n`` calls :meth:`bind` once instead.
        """
        flat, shape = field_meta
        return self.bind(coords.shape[1], shape)[0](flat, coords, out)

    def sample_blocks(self, field: np.ndarray, blocks: list, outs: list) -> None:
        """Sample many point-major blocks as **one** batch.

        ``blocks[i]`` is any ``(..., 3)`` float array of coordinates (any
        strides) and ``outs[i]`` the matching ``(..., nc)`` array the
        values are cast into (any dtype — the encode stage hands float32
        wire arrays).  The blocks are staged side by side into one
        component-major ``(3, n)`` block, sampled :data:`BLOCK` points a
        call, and scattered back; the staging store (six words a point)
        is the scratch's own, so a warmed call allocates nothing.
        """
        meta = self.bind_field(field)
        if meta is None:
            raise ValueError(
                "sample_blocks needs a C-contiguous float64 (ni, nj, nk, C) field"
            )
        flat, shape = meta
        nc = shape[3]
        ends = list(itertools.accumulate(block.size // 3 for block in blocks))
        n = ends[-1] if ends else 0
        if n == 0:
            return
        if self._staged.size < (3 + nc) * n:
            self._staged = np.empty((3 + nc) * n, dtype=np.float64)
        coords, values = _carve(self._staged, (3, n), (nc, n))
        spans = list(zip([0, *ends], ends))
        for block, (a, b) in zip(blocks, spans):
            staged = coords[:, a:b].reshape(3, *block.shape[:-1])
            staged[...] = block.transpose(-1, *range(block.ndim - 1))
        for a in range(0, n, self.BLOCK):
            b = min(a + self.BLOCK, n)
            self.bind(b - a, shape)[0](flat, coords[:, a:b], values[:, a:b])
        for out, (a, b) in zip(outs, spans):
            sampled = values[:, a:b].reshape(nc, *out.shape[:-1])
            out.transpose(-1, *range(out.ndim - 1))[...] = sampled


def trilinear_interpolate(
    field: np.ndarray,
    coords: np.ndarray,
    *,
    clamp: bool = True,
    out: np.ndarray | None = None,
    scratch: TrilinearScratch | None = None,
) -> np.ndarray:
    """Sample ``field`` at fractional grid coordinates.

    Parameters
    ----------
    field
        Node data of shape ``(ni, nj, nk)`` or ``(ni, nj, nk, C)``.
    coords
        Fractional grid coordinates, shape ``(N, 3)`` (or ``(3,)`` for a
        single point), component order matching the field axes.
    clamp
        When True (the default), coordinates outside the grid are clamped to
        the boundary — the behaviour the integrator relies on, paired with
        :func:`in_domain_mask` to retire escaped particles.  When False,
        out-of-domain coordinates raise ``ValueError``.
    out
        Optional preallocated output of shape ``(N, C)`` (or ``(N,)`` for a
        scalar field) to avoid per-frame allocation.
    scratch
        Optional :class:`TrilinearScratch` holding preallocated
        clamp/cell/corner/blend buffers.  With ``scratch`` (and ``out``),
        an eligible call — C-contiguous float64 4-d field, ``(N, 3)``
        float64 coords, ``clamp=True`` — allocates nothing; ineligible
        calls silently use the plain path.

    Returns
    -------
    Sampled values, shape ``(N,)`` for scalar fields or ``(N, C)``.
    """
    # Zero-allocation fast path: scratch + out + eligible inputs.
    if (
        scratch is not None
        and out is not None
        and clamp
        and isinstance(coords, np.ndarray)
        and coords.ndim == 2
        and coords.shape[1] == 3
        and coords.dtype == np.float64
        and isinstance(field, np.ndarray)
        and field.ndim == 4
    ):
        meta = scratch.bind_field(field)
        if meta is not None and out.shape == (coords.shape[0], field.shape[3]):
            scratch.sample(meta, coords.T, out.T)
            return out

    field = np.asarray(field)
    coords = np.asarray(coords, dtype=np.float64)
    single = coords.ndim == 1
    if single:
        coords = coords[None, :]
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError(f"coords must have shape (N, 3), got {coords.shape}")
    scalar_field = field.ndim == 3
    if scalar_field:
        field = field[..., None]
    if field.ndim != 4:
        raise ValueError(
            f"field must have shape (ni, nj, nk[, C]), got {np.asarray(field).shape}"
        )
    ni, nj, nk, nc = field.shape
    if min(ni, nj, nk) < 2:
        raise ValueError("grid must have at least 2 nodes along each axis")

    dims = np.array([ni, nj, nk], dtype=np.float64)
    if clamp:
        coords = np.clip(coords, 0.0, dims - 1.0)
    elif not np.all(in_domain_mask(coords, (ni, nj, nk))):
        raise ValueError("coordinates outside the grid with clamp=False")

    # Cell index and fractional offset.  Clip the index so points exactly on
    # the upper face use the last cell with frac == 1.
    cell = np.minimum(coords.astype(np.intp), (ni - 2, nj - 2, nk - 2))
    np.maximum(cell, 0, out=cell)
    frac = coords - cell

    # Flattened gather of the 8 corners: the 'eight floating point loads'.
    flat = field.reshape(-1, nc)
    base = (cell[:, 0] * nj + cell[:, 1]) * nk + cell[:, 2]
    sj, si = nk, nj * nk
    c000 = flat[base]
    c001 = flat[base + 1]
    c010 = flat[base + sj]
    c011 = flat[base + sj + 1]
    c100 = flat[base + si]
    c101 = flat[base + si + 1]
    c110 = flat[base + si + sj]
    c111 = flat[base + si + sj + 1]

    fx = frac[:, 0:1]
    fy = frac[:, 1:2]
    fz = frac[:, 2:3]

    c00 = c000 + (c001 - c000) * fz
    c01 = c010 + (c011 - c010) * fz
    c10 = c100 + (c101 - c100) * fz
    c11 = c110 + (c111 - c110) * fz
    c0 = c00 + (c01 - c00) * fy
    c1 = c10 + (c11 - c10) * fy
    result = c0 + (c1 - c0) * fx

    if out is not None:
        target = out if not scalar_field else out[..., None]
        target[...] = result
        result = target
    if scalar_field:
        result = result[..., 0]
    if single:
        result = result[0]
    return result
