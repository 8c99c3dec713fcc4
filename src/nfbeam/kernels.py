"""Numeric kernels: the nearest-foot solve and the field sum.

* ``nearest_feet``: each element's foot on a canonical surface, the one
  place a wavefront kind picks its distance method and the only solver.
  The plane and the cone take the cone's closed form (:func:`cone_feet`;
  the plane is the cone of slope 0); custom surfaces take one numpy Newton
  solve, vectorized over elements.  It runs once per phase map and is a
  small part of a run.
* ``field_sum``: the per-point phasor superposition when mapping the
  vector field, for one current vector or for K of them at once.  It
  dominates runtime: the field grid and the direction scan are its calls.
  The K excitations share each element-point distance, phase and
  polarization, so K = 4 costs well under four single calls;
  ``field.total_field`` uses this to evaluate mirror images of points with
  mirrored currents.  It is vectorized numpy and builds each pair's phasor
  exp(-jkr) from one tangent, s = tan(kr/2), as (1 - js)^2 / (1 + s^2).
  Points on z = 0 may give Ex and Ey current rows of their own (see
  below), which ``field.total_field`` uses for the sums of its mirror pairs.

Each point and each current row is summed on its own, so results are
deterministic and rerun-identical, and a point's value in a row of a
K-current call equals the one-current, one-point call bit for bit.  The
kernel factors the sum over element columns: maximal runs of consecutive
elements with equal x and y.  A lattice stored row-major with z fastest, as
``field.total_field`` passes it, has one column per lattice column; if the
runs differ in length, or there is only one run, every element is its own
column.  All elements of a column see a point at the same horizontal
distance rho and azimuth phi, so with w = I exp(-jkr) / r^2 and dz the
point's z minus the element's,

    Ex = sum_c cos(phi_c) S_c,  Ey = sum_c sin(phi_c) S_c,  S_c = sum_z w dz,
    Ez = -sum_c rho_c sum_z w.

rho, cos and sin are computed once per (point, column); a point at rho = 0
takes azimuth 0 for that column, so its u is (dz/r, 0, 0).  dz and dz^2 are
computed once per (z, point) when every column has the first column's z
values, as every ``ArrayGeometry`` lattice does, and once per pair
otherwise.  Each column is summed over z in ascending element order, then
the weighted column sums over the columns pairwise (``np.add.reduce`` along
the row of columns).

On z = 0, dz = 0.0 - z_j depends on the element alone.  A call whose points
all lie there may pass transverse rows B for Ex and Ey beside the rows A
that then drive Ez alone: the kernel multiplies B by dz once per call and
sums S_c = sum_z (B dz) w, so it never forms w dz.  It raises if a point is
off z = 0, and never decides this from the call's other points.

The kernel works in tiles of at most :data:`TILE_PAIRS` (point, element)
pairs, which share each phasor and azimuth across the K current rows.  A
call splits its tiles into up to :data:`WORKERS` contiguous shares, one per
CPU in the process's affinity mask: it starts a thread for each share but
the last, runs the last itself and joins the threads before it returns, so
no thread outlives a call.  The shares run in parallel only while numpy
has released the GIL, and numpy holds it for each call's dispatch and for
every loop of 500 elements or fewer.  The per-(point, column) calls run
on the tile's points times its columns: at 32,768 pairs, 8 x 64 = 512
elements on a 64 x 64 lattice, above that threshold, and 20 x 40 = 800 on
a 40 x 40 one.  Larger tiles also make fewer calls per pair, and each
share builds its buffers' views once, so a tile's Python work is its numpy
calls, about 41 of them at K = 4.
Each call copies its current rows once, (row, z, point, column), repeated
down a tile's points, so every current product runs numpy's vector loop
over the tile's whole (point, column) plane, not over one row of columns; a
multiply is elementwise, so the copy changes no bit.  The copy takes 16
bytes per row and pair of a tile (512 KiB per row at 32,768 pairs, 2 MiB
for 4 rows; twice that with transverse rows) and is read by every share.
Each share computes in place in its own buffers and writes only its own
points, so results do not depend on the number of workers.  The buffers
take 56 bytes per (point, element) pair of a tile (1.75 MiB at 32,768
pairs; 40 in transverse calls, which form no w dz), the current products
reusing the buffers of spent temporaries; 8 bytes per dz, one per (z,
point) on a shared-z lattice and one per pair otherwise; and 72 + 48 K
bytes per (point, column) for K current rows.  The copy and every share's
buffers are views of the calling thread's :func:`scratch` buffer, which
stays between calls at the size of the largest request that thread made:
5.8 MiB at 32,768 pairs, four current rows and two workers on a 40 x 40
lattice, 6.8 MiB with transverse rows.  So a repeated call of the same
size allocates no work buffer; only the returned arrays are new.
Every share runs to its end; the first fault that any share records is
then raised to the caller.
"""

from __future__ import annotations

import os
import threading
from typing import NamedTuple

import numpy as np

from .wavefront import CUSTOM, Wavefront, surface_eval, surface_gradient, surface_hessian

# Newton's iteration cap and residual tolerance; read at each call
MAX_ITERATIONS = 50
RESIDUAL_TOL = 1e-12

# (point, element) pairs per tile of the numpy kernel; read at each call
TILE_PAIRS = 32768

# Threads of the numpy kernel: the CPUs this process may run on
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# Each thread's scratch buffer, see scratch(); its views start at multiples
# of _ALIGN bytes
_SCRATCH = threading.local()
_ALIGN = 64


def scratch(*specs):
    """Views of the calling thread's scratch buffer, one per (shape, dtype).

    The views are laid end to end, each at a 64-byte boundary, and hold
    whatever the buffer last held, so the caller sets what it reads.  They
    are valid until the thread's next request, which hands out the same
    bytes again.  The buffer only grows, to the largest request the thread
    has made, and stays between calls, so a repeated request allocates
    nothing and touches no new page.
    """
    layout, size = [], 0
    for shape, dtype in specs:
        dtype = np.dtype(dtype)
        start = -(-size // _ALIGN) * _ALIGN
        size = start + int(np.prod(shape)) * dtype.itemsize
        layout.append((start, size, shape, dtype))
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.size < size + _ALIGN - 1:
        buf = _SCRATCH.buf = np.empty(size + _ALIGN - 1, np.uint8)
    base = -buf.ctypes.data % _ALIGN
    return [buf[base + a : base + b].view(dtype).reshape(shape) for a, b, shape, dtype in layout]


# Placeholders read by perfbench's provenance and warm-up until the benchmark
# next changes: numpy is the only field kernel, numba is never imported
HAVE_NUMBA = False


def resolve_backend() -> str:
    """Placeholder: the field kernel, always ``"numpy"``."""
    return "numpy"


class FootBatch(NamedTuple):
    """Batch nearest-foot results in the steered frame (one row per element)."""

    signed_distance: np.ndarray
    foot_x: np.ndarray
    foot_z: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


# ---------------------------------------------------------------------------
# nearest-foot solve: closed form for plane and cone, Newton for custom ones
#
# Newton's unknowns are the foot coordinates (x, z) on the canonical surface
# y = f(x, z); the line parameter t = f(x, z) - y_e is eliminated via the
# y-component of the normal-line equation, leaving the 2x2 system
#   g1 = x - x_e + t*df/dx = 0,   g2 = z - z_e + t*df/dz = 0.
# Signed distance is t * ||(df/dx, -1, df/dz)||.
# ---------------------------------------------------------------------------


def _newton(w: Wavefront, xe, ye, ze) -> FootBatch:
    """Newton iteration from below each element; only unsettled rows iterate.

    A row settles when its residual drops to :data:`RESIDUAL_TOL`
    (converged), when it runs out of :data:`MAX_ITERATIONS`, or when its
    Jacobian turns singular.
    """
    n = xe.shape[0]
    x = xe.copy()
    z = ze.copy()
    dist = np.full(n, np.nan)
    iters = np.zeros(n, np.int64)
    conv = np.zeros(n, bool)
    act = np.arange(n)
    for step in range(MAX_ITERATIONS + 1):
        if act.size == 0:
            break
        xa, za = x[act], z[act]
        fx, fz = (np.broadcast_to(g, xa.shape) for g in surface_gradient(w, xa, za))
        ta = surface_eval(w, xa, za) - ye[act]
        g1 = xa - xe[act] + ta * fx
        g2 = za - ze[act] + ta * fz
        done = (np.abs(g1) <= RESIDUAL_TOL) & (np.abs(g2) <= RESIDUAL_TOL)
        hit = act[done]
        dist[hit] = ta[done] * np.sqrt(1.0 + fx[done] * fx[done] + fz[done] * fz[done])
        conv[hit] = True
        if step == MAX_ITERATIONS:
            break
        go = ~done
        act, xa, za, ta, fx, fz, g1, g2 = (v[go] for v in (act, xa, za, ta, fx, fz, g1, g2))
        fxx, fxz, fzz = surface_hessian(w, xa, za)
        j11 = 1.0 + fx * fx + ta * fxx
        j12 = fx * fz + ta * fxz
        j22 = 1.0 + fz * fz + ta * fzz
        det = j11 * j22 - j12 * j12
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = (-g1 * j22 + g2 * j12) / det
            dz = (-g2 * j11 + g1 * j12) / det
        go = (det != 0.0) & np.isfinite(det)
        act = act[go]
        x[act] = xa[go] + dx[go]
        z[act] = za[go] + dz[go]
        iters[act] += 1
    return FootBatch(dist, x, z, iters, conv)


def cone_feet(h_over_r: float, elem_primed):
    """Signed distance and foot (x, z) on the canonical cone, in closed form.

    The cone is axisymmetric, so the problem collapses to the distance from
    (rho, y) to the ray y = (h/r) * rho, rho >= 0, in the element's meridian
    half-plane, with the apex taken as the nearest point when the
    perpendicular foot would fall at rho < 0.  An element on the axis takes
    its foot on the +x meridian.  Slope 0 is the plane y = 0: distance
    0.0 - y, foot (x, z), no apex.  ``elem_primed`` is (..., 3); each result
    has its leading shape.
    """
    m = float(h_over_r)
    p = np.asarray(elem_primed, dtype=float)
    y = p[..., 1]
    rho = np.hypot(p[..., 0], p[..., 2])
    foot_rho = (rho + m * y) / (1.0 + m * m)
    apex = foot_rho < 0.0
    d = np.where(apex, np.sqrt(rho * rho + y * y), (m * rho - y) / np.sqrt(1.0 + m * m))
    foot_rho = np.where(apex, 0.0, foot_rho)
    off_axis = rho > 0.0
    scale = foot_rho / np.where(off_axis, rho, 1.0)
    return d, np.where(off_axis, p[..., 0] * scale, foot_rho), p[..., 2] * scale


def nearest_feet(elem_primed: np.ndarray, wavefront: Wavefront) -> FootBatch:
    """Nearest foot on the canonical ``wavefront`` for each steered-frame element.

    ``elem_primed`` is (M, 3).  The plane and the cone take the closed form
    (:func:`cone_feet` with slope ``h_over_r``, 0 for the plane, whose
    distance is then 0.0 - y' and foot (x', z')), zero iterations.  Custom
    surfaces run Newton from directly below the element.  Rows that do not
    converge come back with ``converged=False`` and NaN distance; the caller
    decides how to fall back.
    """
    pe = np.ascontiguousarray(elem_primed, dtype=np.float64)
    if pe.ndim != 2 or pe.shape[1] != 3:
        raise ValueError(f"elem_primed must have shape (M, 3), got {pe.shape}")
    if wavefront.kind != CUSTOM:
        d, x, z = cone_feet(wavefront.h_over_r, pe)
        return FootBatch(d, x, z, np.zeros(d.shape, np.int64), np.isfinite(d))
    return _newton(wavefront, pe[:, 0], pe[:, 1], pe[:, 2])


def _column_length(pos):
    # elements per column: the common length of the maximal runs of
    # consecutive elements with equal x and y when there are two runs or
    # more, else 1
    nelem = pos.shape[0]
    first = np.ones(nelem, bool)
    first[1:] = (pos[1:, :2] != pos[:-1, :2]).any(axis=1)
    runs = np.diff(np.append(np.flatnonzero(first), nelem))
    return int(runs[0]) if runs.size > 1 and (runs == runs[0]).all() else 1


def _column_z(pos, nz):
    # the elements' z as (z, 1, column) for columns of nz elements, or as
    # (z, 1, 1) when every column has the first column's z values to the
    # bit (-0.0 and 0.0 would give dz different signs of zero)
    ze = pos[:, 2].reshape(-1, nz).T
    shared = (ze.view(np.int64) == ze[:, :1].view(np.int64)).all()
    return np.ascontiguousarray((ze[:, :1] if shared else ze)[:, None, :])


def _tile_rows(rows, cur, dz=None):
    # (K, column, z) current rows into ``rows``, (K, z, point, column), times
    # dz (column, z) when given, repeated down a tile's points: each
    # product's operands are contiguous over the tile's (point, column) plane
    first, cur = rows[:, :, 0], cur.transpose(0, 2, 1)
    if dz is None:
        np.copyto(first, cur)
    else:
        # B dz as two real products, like w dz
        np.multiply(cur.real, dz.T, out=first.real)
        np.multiply(cur.imag, dz.T, out=first.imag)
    rows[:, :, 1:] = first[:, :, None]


def _tiles(cols, rows, pts, k, out, starts, *buffers):
    # One worker's share: the tiles that begin at ``starts``, computed in
    # place in its own buffers.  Every operation sees the operand layout of
    # the fresh temporary it replaces (np.tan runs on the contiguous t; only
    # exactly rounded arithmetic writes into the strided halves of the
    # complex w), so the buffers change no rounding.  Pair arrays are
    # (z, point, column): the column sums reduce the leading axis, one z
    # after the other, with numpy's vector loop over the (point, column)
    # plane.  Two columns or more keep that plane from collapsing into the
    # reduced axis, where numpy would sum pairwise instead.  ze is (z, 1, 1)
    # when the columns share their z values, so dz and dz^2 are (z, point,
    # 1), else (z, 1, column).
    xy, ze = cols
    axial, transverse = rows
    floats, dz_buf, cplx, col_floats, col_weights, col_cplx = buffers
    nz, ncol, zcol = ze.shape[0], xy.shape[2], ze.shape[2]
    npts = pts.shape[0]
    step = col_floats.shape[1]
    pts_xy, pts_z = pts[:, :2].T[:, :, None], pts[:, 2, None]

    def views(n):
        # the buffers' views for a tile of n points, made once per share for
        # its full tiles, so a tile's Python work is its numpy calls.
        # Per (point, column): rho^2 and the weights (cos, sin, -rho) of the
        # column sums, complex with imaginary parts 0, so that one complex
        # product weights the three sums with the roundings of real ones;
        # per current row and (point, column): the sums of I wz (twice) and
        # of I w.  Per pair: dz^2 is held in s2's buffer until s2 is
        # computed, and the current products in t's and s2's, side by side,
        # once w is.  cplx holds w and wz, or w alone in transverse calls:
        # their rows carry dz already, so they take w.
        weights = col_weights[:, :n]
        sums = col_cplx[:, :, :n]
        size = nz * n * ncol
        r2, t, s2 = (f[:size].reshape(nz, n, ncol) for f in floats)
        prod = floats[1:].reshape(-1).view(np.complex128)[:size].reshape(nz, n, ncol)
        w, wz = (c[:size].reshape(nz, n, ncol) for c in (cplx[0], cplx[-1]))
        across = axial if transverse is None else transverse
        products = [
            (across[q, :, :n], axial[q, :, :n], sums[0, q], sums[2, q])
            for q in range(axial.shape[0])
        ]
        dz, dz2 = (f[: nz * n * zcol].reshape(nz, n, zcol) for f in (dz_buf, floats[2]))
        return (
            weights.real[:2], weights.real[2], col_floats[:2, :n], col_floats[2, :n],
            weights[:, None], sums, dz, dz2, r2, t, s2, w, w.real, w.imag, wz,
            wz.real, wz.imag, prod, products,
        )

    full = views(step)
    for s in starts:
        e = min(s + step, npts)
        (cs, rho, sq, rho2, weights, sums, dz, dz2, r2, t, s2, w, wr, wi, wz,
         wzr, wzi, prod, products) = full if e - s == step else views(e - s)
        np.subtract(pts_xy[:, s:e], xy, out=cs)
        np.multiply(cs, cs, out=sq)
        np.add(sq[0], sq[1], out=rho2)
        np.sqrt(rho2, out=rho)
        on_axis = None if rho.all() else rho == 0.0
        np.divide(cs, rho if on_axis is None else np.where(on_axis, 1.0, rho), out=cs)
        if on_axis is not None:
            # rho == 0: azimuth 0
            cs[0][on_axis] = 1.0
            cs[1][on_axis] = 0.0
        np.negative(rho, out=rho)
        # per pair: w = exp(-jkr) / r^2 from s = tan(kr/2), and wz = w dz;
        # exp(-jkr) = (1 - js)^2 / (1 + s^2), so w.real = (1 - s^2) / d and
        # w.imag = -2s / d with d = (1 + s^2) r^2
        np.subtract(pts_z[s:e], ze, out=dz)
        np.multiply(dz, dz, out=dz2)
        np.add(rho2, dz2, out=r2)
        np.sqrt(r2, out=t)
        np.multiply(t, 0.5 * k, out=t)
        np.tan(t, out=t)
        np.multiply(t, t, out=s2)
        np.add(s2, 1.0, out=wr)
        np.multiply(wr, r2, out=r2)
        np.subtract(1.0, s2, out=s2)
        np.divide(s2, r2, out=wr)
        np.multiply(t, -2.0, out=t)
        np.divide(t, r2, out=wi)
        if transverse is None:
            np.multiply(wr, dz, out=wzr)
            np.multiply(wi, dz, out=wzi)
        # Ex and Ey are the column sums of I wz weighted by cos and sin, Ez
        # the column sums of I w weighted by -rho, each then summed over the
        # columns, for all current rows at once
        for across, along, sum_xy, sum_z in products:
            np.multiply(across, wz, out=prod)
            np.add.reduce(prod, axis=0, out=sum_xy)
            np.multiply(along, w, out=prod)
            np.add.reduce(prod, axis=0, out=sum_z)
        np.copyto(sums[1], sums[0])
        np.multiply(sums, weights, out=sums)
        np.add.reduce(sums, axis=3, out=out[:, :, s:e])


def field_sum(
    positions: np.ndarray,
    currents: np.ndarray,
    points: np.ndarray,
    k: float,
    transverse: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Superpose per-element spherical-wave contributions at each point.

    ``currents`` is one excitation, shape (M,), or K of them, shape (K, M);
    the complex (Ex, Ey, Ez) arrays come back as (P,) or (K, P) to match.
    The K excitations share every distance, phase and polarization
    evaluation, and each row equals a call with that row alone, bit for
    bit.  Points must not coincide with element positions (guaranteed by
    the caller's clearance check).

    ``transverse``, of the same shape as ``currents``, gives Ex and Ey their
    own currents, and ``currents`` then drives Ez alone.  It is for points
    on z = 0, where each pair's dz = 0.0 - z of the element depends on the
    element only: the kernel folds dz into the transverse currents once per
    call, instead of forming w dz per pair.  A point off z = 0 raises
    ``ValueError``.
    """
    pos = np.ascontiguousarray(positions, dtype=np.float64)
    cur = np.ascontiguousarray(currents, dtype=np.complex128)
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"positions must have shape (M, 3), got {pos.shape}")
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (P, 3), got {pts.shape}")
    if cur.ndim not in (1, 2) or cur.shape[-1] != pos.shape[0]:
        raise ValueError("currents must have shape (M,) or (K, M): one entry per element")
    if transverse is not None:
        transverse = np.asarray(transverse, dtype=np.complex128)
        if transverse.shape != cur.shape:
            raise ValueError(f"transverse must have the shape of currents, {cur.shape}")
        if (pts[:, 2] != 0.0).any():
            raise ValueError("transverse currents need every point on z = 0")
    # Tiles of TILE_PAIRS // M points each take the whole element row, so no
    # point's sum is split and a point's value does not depend on which
    # points share its tile, nor on which worker runs it.  The current rows
    # are copied once, contiguous over a tile's points, so each product runs
    # numpy's vector loop over the tile's (point, column) plane.
    k = float(k)
    nk = cur.shape[0] if cur.ndim == 2 else 1
    nelem = pos.shape[0]
    npts = pts.shape[0]
    nz = _column_length(pos)
    ncol = nelem // nz
    step = max(1, min(npts, TILE_PAIRS // max(nelem, 1)))
    out = np.empty((3, nk, npts), np.complex128)
    cols = (np.ascontiguousarray(pos[::nz, :2].T[:, None, :]), _column_z(pos, nz))
    starts = range(0, npts, step)
    nw = max(1, min(WORKERS, len(starts)))
    shares = [starts[w * len(starts) // nw : (w + 1) * len(starts) // nw] for w in range(nw)]
    # Every work buffer is a view of the calling thread's scratch buffer, the
    # shares' buffers first, then the current rows.  The workers are new
    # threads on every call, so buffers of their own would be new pages on
    # every call.
    zcol = cols[1].shape[2]
    row_shape = (nk, nz, step, ncol)
    *buffers, axial, across = scratch(
        ((nw, 3, step * nelem), np.float64),
        ((nw, step * nz * zcol), np.float64),
        ((nw, 1 if transverse is not None else 2, step * nelem), np.complex128),
        ((nw, 3, step, ncol), np.float64),
        ((nw, 3, step, ncol), np.complex128),
        ((nw, 3, nk, step, ncol), np.complex128),
        (row_shape, np.complex128),
        (row_shape if transverse is not None else (0,), np.complex128),
    )
    # the column weights are real: their imaginary parts start at 0
    buffers[4].imag.fill(0.0)
    _tile_rows(axial, cur.reshape(nk, ncol, nz))
    if transverse is not None:
        _tile_rows(across, transverse.reshape(nk, ncol, nz), 0.0 - pos[:, 2].reshape(ncol, nz))
    rows = (axial, None if transverse is None else across)
    faults = []

    def share(w):
        try:
            _tiles(cols, rows, pts, k, out, shares[w], *(b[w] for b in buffers))
        except BaseException as exc:  # raised once every share has ended
            faults.append(exc)

    threads = [threading.Thread(target=share, args=(w,)) for w in range(nw - 1)]
    for t in threads:
        t.start()
    # the calling thread runs the last share, then joins the others
    share(nw - 1)
    for t in threads:
        t.join()
    if faults:
        raise faults[0]
    ex, ey, ez = out if cur.ndim == 2 else out[:, 0]
    return ex, ey, ez
