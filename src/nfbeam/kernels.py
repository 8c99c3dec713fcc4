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
elements are the lattice of n_x columns and n_z rows that
:func:`field_sum` takes as its two axes, and the kernel factors the sum
over its columns.  All elements of a column see a point at the same
horizontal distance rho and azimuth phi, so with w_j = exp(-jkr_j) / r_j^2,
the point's z_p and the element's z_j,

    Ex = sum_c cos(phi_c) S_c,  Ey = sum_c sin(phi_c) S_c,  Ez = -sum_c rho_c P_c,
    S_c = sum_z X_j (0 - z_j) w_j + z_p P_c,  P_c = sum_z I_j w_j,

the column sum of I w (z_p - z_j) split in two, with X = I.  The rows
X (0 - z_j) are formed once per call, so no pair forms w dz, and z_p P_c
takes two real products and an add per (row, point, column).  The split
rounds each part on its own scale: where z_p lies near an element row, or
far from the array, both parts are much larger than S_c, and the tests hold
Ex and Ey within (n_z + 3) eps sum_j |I_j| (|z_p| + |z_j|) / r_j^2 of the
per-pair sum.  rho, cos and sin are computed once per (point, column); a
point at rho = 0 takes azimuth 0 for that column, so its u is (dz/r, 0, 0).
dz^2 is computed once per (z, point).  Each column is summed over z in
ascending element order by numpy's vector loop over the tile's
(point, column) plane, then the weighted column sums over the columns
pairwise (``np.add.reduce`` along the row of columns).

A call whose points all lie on z = 0 may pass transverse rows B for Ex and
Ey beside the rows A that then drive Ez alone: X = B, and the call skips
z_p P_c, which is 0 for each of its points.  It raises if a point is off
z = 0, and never decides this from the call's other points.

The kernel works in tiles of TILE_PAIRS // M points, at most the call's
points and at least two, so a tile holds at most :data:`TILE_PAIRS` (point,
element) pairs unless two points take more; its points share each phasor
and azimuth across the K current rows.  Every tile is full: a call pads its
points to a multiple of the tile width with copies of its last point, whose
values it drops.  numpy would sum a (point, column) plane of one entry
along z pairwise, so the width of at least two keeps a lone point on one
column (n_x = 1) equal to itself in a tile.  A call splits its tiles into
up to :data:`WORKERS` contiguous shares, one per CPU in the process's
affinity mask: it starts a thread for each share but the last, runs the
last itself and joins the threads before it returns, so no thread outlives
a call.  The shares run in parallel only while numpy has released the GIL,
and numpy holds it for each call's dispatch and for every loop of 500
elements or fewer.  The per-(point, column) calls run on the tile's points
times its columns: at 32,768 pairs, 8 x 64 = 512 elements on a 64 x 64
lattice, above that threshold, and 20 x 40 = 800 on a 40 x 40 one.  Larger
tiles also make fewer calls per pair, and each share builds its buffers'
views once, so a tile's Python work is its numpy calls, about 42 of them at
K = 4.
Each call copies its current rows once, (row, z, point, column), repeated
down a tile's points, so every current product runs numpy's vector loop
over the tile's whole (point, column) plane, not over one row of columns; a
multiply is elementwise, so the copy changes no bit.  The copies of I and
of X (0 - z_j) take 32 bytes per row and pair of a tile (1 MiB per row at
32,768 pairs, 4 MiB for 4 rows) and are read by every share.  Each share
computes in place in its own buffers and writes only its own points, so
results do not depend on the number of workers.  The buffers take 40 bytes
per (point, element) pair of a tile (1.25 MiB at 32,768 pairs), dz^2 and
the current products reusing the buffers of spent temporaries, and
72 + 48 K bytes per (point, column) for K current rows.  The copies and
every share's buffers are views of the calling thread's :func:`scratch`
buffer, which stays between calls at the size of the largest request that
thread made: 6.75 MiB at 32,768 pairs, four current rows and two workers
on a 40 x 40 lattice, with transverse rows or without.  So a repeated call
of the same size allocates no work buffer; only the returned arrays are new.
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


def _tile_rows(rows, cur, dz=None):
    # (K, column, z) current rows into ``rows``, (K, z, point, column), times
    # dz (z, 1) when given, repeated down a tile's points: each product's
    # operands are contiguous over the tile's (point, column) plane
    first, cur = rows[:, :, 0], cur.transpose(0, 2, 1)
    if dz is None:
        np.copyto(first, cur)
    else:
        # X dz as two real products
        np.multiply(cur.real, dz, out=first.real)
        np.multiply(cur.imag, dz, out=first.imag)
    rows[:, :, 1:] = first[:, :, None]


def _tiles(cols, rows, pts, k, out, starts, *buffers):
    # One worker's share: the tiles that begin at ``starts``, each as wide as
    # the buffers, computed in place in its own buffers.  Every operation
    # sees the operand layout of the fresh temporary it replaces (np.tan runs
    # on the contiguous t; only exactly rounded arithmetic writes into the
    # strided halves of the complex w), so the buffers change no rounding.
    # Pair arrays are (z, point, column), the column sums reducing the
    # leading axis, and dz^2 is (z, point, 1).  lift is the points' z as
    # (point, 1), or None in transverse calls, whose points are all on z = 0.
    xy, ze = cols
    axial, across, lift = rows
    floats, cplx, col_floats, col_weights, col_cplx = buffers
    nz, (width, ncol) = ze.shape[0], col_floats.shape[1:]
    pts_xy, pts_z = pts[:, :2].T[:, :, None], pts[:, 2, None]
    # The buffers' views, made once per share, so a tile's Python work is
    # its numpy calls.  Per (point, column): rho^2 and the weights
    # (cos, sin, -rho) of the column sums, complex with imaginary parts 0, so
    # that one complex product weights the three sums with the roundings of
    # real ones; per current row and (point, column): the sums of
    # X (0 - z_j) w (twice) and of I w.  Per pair: dz^2 is held in s2's
    # buffer until s2 is computed, and the current products in t's and s2's,
    # side by side, once w is.
    cs, rho, weights = col_weights.real[:2], col_weights.real[2], col_weights[:, None]
    sq, rho2, sums = col_floats[:2], col_floats[2], col_cplx
    pairs = (nz, width, ncol)
    r2, t, s2 = (f[: cplx.size].reshape(pairs) for f in floats)
    prod = floats[1:].reshape(-1).view(np.complex128)[: cplx.size].reshape(pairs)
    w = cplx.reshape(pairs)
    wr, wi = w.real, w.imag
    dz2 = floats[2, : nz * width].reshape(nz, width, 1)
    products = [(across[q], axial[q], sums[0, q], sums[2, q]) for q in range(axial.shape[0])]
    for s in starts:
        at = slice(s, s + width)
        np.subtract(pts_xy[:, at], xy, out=cs)
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
        # per pair: w = exp(-jkr) / r^2 from s = tan(kr/2);
        # exp(-jkr) = (1 - js)^2 / (1 + s^2), so w.real = (1 - s^2) / d and
        # w.imag = -2s / d with d = (1 + s^2) r^2
        np.subtract(pts_z[at], ze, out=dz2)
        np.multiply(dz2, dz2, out=dz2)
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
        # the column sums of X (0 - z_j) w and of I w, for all current rows
        # at once; S_c = sum_z X (0 - z_j) w + z_p sum_z I w, whose second
        # term is 0 in transverse calls
        for cross, along, sum_xy, sum_z in products:
            np.multiply(cross, w, out=prod)
            np.add.reduce(prod, axis=0, out=sum_xy)
            np.multiply(along, w, out=prod)
            np.add.reduce(prod, axis=0, out=sum_z)
        if lift is not None:
            np.multiply(sums[2].real, lift[at], out=sums[1].real)
            np.multiply(sums[2].imag, lift[at], out=sums[1].imag)
            np.add(sums[0], sums[1], out=sums[0])
        # Ex and Ey weight S_c by cos and sin, Ez the sums of I w by -rho,
        # each then summed over the columns
        np.copyto(sums[1], sums[0])
        np.multiply(sums, weights, out=sums)
        np.add.reduce(sums, axis=3, out=out[:, :, at])


def field_sum(
    column_x: np.ndarray,
    row_z: np.ndarray,
    currents: np.ndarray,
    points: np.ndarray,
    k: float,
    transverse: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Superpose per-element spherical-wave contributions at each point.

    The elements are the lattice of the columns x = ``column_x`` (n_x,) and
    the rows z = ``row_z`` (n_z,) on the plane y = 0, element (i, j) at
    index i n_z + j, z fastest, as ``ArrayGeometry`` stores them.
    ``currents`` is one excitation, shape (M,), or K of them, shape (K, M),
    M = n_x n_z; the complex (Ex, Ey, Ez) arrays come back as (P,) or
    (K, P) to match.  The K excitations share every distance, phase and
    polarization evaluation, and each row equals a call with that row
    alone, bit for bit.  ``points`` is only read, so it may be read-only.
    Points must not coincide with elements (guaranteed by the caller's
    clearance check).

    ``transverse``, of the same shape as ``currents``, gives Ex and Ey their
    own currents, and ``currents`` then drives Ez alone.  It is for points
    on z = 0, where the z_p sum of I w that Ex and Ey take is 0 (see the
    module docstring), so the call skips it.  A point off z = 0 raises
    ``ValueError``.
    """
    x = np.ascontiguousarray(column_x, dtype=np.float64)
    z = np.ascontiguousarray(row_z, dtype=np.float64)
    cur = np.ascontiguousarray(currents, dtype=np.complex128)
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if x.ndim != 1 or z.ndim != 1:
        raise ValueError(f"column_x and row_z must be 1-D, got shapes {x.shape} and {z.shape}")
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (P, 3), got {pts.shape}")
    ncol, nz = x.size, z.size
    nelem = ncol * nz
    if cur.ndim not in (1, 2) or cur.shape[-1] != nelem:
        raise ValueError("currents must have shape (M,) or (K, M): one entry per element")
    # Tiles take the whole element row, so no point's sum is split and a
    # point's value does not depend on which points share its tile, nor on
    # which worker runs it.  Every tile is full: the points are padded with
    # copies of the last one (see the module docstring).  The current rows
    # are copied once, contiguous over a tile's points, so each product runs
    # numpy's vector loop over the tile's (point, column) plane.
    npts = pts.shape[0]
    width = max(2, min(npts, TILE_PAIRS // max(nelem, 1)))
    pts = np.concatenate([pts, np.repeat(pts[-1:], -npts % width, axis=0)])
    # Ex and Ey sum X (0 - z_j) w, X the transverse rows or the currents,
    # and add z_p sum I w, except in transverse calls: there every z_p is 0
    across_cur, lift = cur, pts[:, 2, None]
    if transverse is not None:
        across_cur, lift = np.asarray(transverse, dtype=np.complex128), None
        if across_cur.shape != cur.shape:
            raise ValueError(f"transverse must have the shape of currents, {cur.shape}")
        if (pts[:, 2] != 0.0).any():
            raise ValueError("transverse currents need every point on z = 0")
    k = float(k)
    nk = cur.shape[0] if cur.ndim == 2 else 1
    out = np.empty((3, nk, len(pts)), np.complex128)
    # the columns' x and y = 0 as (2, 1, column), the rows' z as (z, 1, 1)
    cols = (np.stack([x, np.zeros_like(x)])[:, None], z[:, None, None])
    starts = range(0, len(pts), width)
    nw = max(1, min(WORKERS, len(starts)))
    shares = [starts[w * len(starts) // nw : (w + 1) * len(starts) // nw] for w in range(nw)]
    # Every work buffer is a view of the calling thread's scratch buffer, the
    # shares' buffers first, then the current rows.  The workers are new
    # threads on every call, so buffers of their own would be new pages on
    # every call.  dz^2 takes n_z entries per point, more than M only on a
    # lattice without columns.
    row_shape = (nk, nz, width, ncol)
    *buffers, axial, across = scratch(
        ((nw, 3, width * max(nelem, nz)), np.float64),
        ((nw, width * nelem), np.complex128),
        ((nw, 3, width, ncol), np.float64),
        ((nw, 3, width, ncol), np.complex128),
        ((nw, 3, nk, width, ncol), np.complex128),
        (row_shape, np.complex128),
        (row_shape, np.complex128),
    )
    # the column weights are real: their imaginary parts start at 0
    buffers[3].imag.fill(0.0)
    _tile_rows(axial, cur.reshape(nk, ncol, nz))
    _tile_rows(across, across_cur.reshape(nk, ncol, nz), (0.0 - z)[:, None])
    rows = (axial, across, lift)
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
    return tuple(out[..., :npts] if cur.ndim == 2 else out[:, 0, :npts])
