"""Numeric kernels: the nearest-foot solve and the field sum.

* ``nearest_feet``: each element's foot on a canonical surface, the one
  place a wavefront kind picks its distance method and the only solver.
  The cone takes its closed form (:func:`cone_feet`); every other surface,
  the plane included, takes one numpy Newton solve, vectorized over
  elements.  It runs once per phase map and is a small part of a run.
* ``field_sum``: the per-point phasor superposition when mapping the
  vector field, for one current vector or for K of them at once.  It
  dominates runtime: the field grid and the direction scan are its calls.
  The K excitations share each element-point distance, phase and
  polarization, so K = 4 costs well under four single calls;
  ``field.total_field`` uses this to evaluate mirror images of points with
  mirrored currents.  It is vectorized numpy and builds each pair's phasor
  exp(-jkr) from one tangent, s = tan(kr/2), as (1 - js)^2 / (1 + s^2).

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
takes azimuth 0 for that column, so its u is (dz/r, 0, 0).  Each column is
summed over z in ascending element order, then the weighted column sums
over the columns pairwise (``np.add.reduce`` along the row of columns).

The kernel works in tiles of at most :data:`TILE_PAIRS` (point, element)
pairs, which share each phasor and azimuth across the K current rows.  A
call splits its tiles into up to :data:`WORKERS` contiguous shares, one per
CPU in the process's affinity mask: it starts a thread for each share but
the last, runs the last itself and joins the threads before it returns, so
no thread outlives a call.  numpy releases the GIL inside each operation on
a tile, so the shares run in parallel.  Each share computes in place in its
own buffers, 80 bytes per (point, element) pair of a tile (1.25 MiB at
16,384 pairs) and 72 + 48 K bytes per (point, column) for K current rows,
and writes only its own points, so results do not depend on the number of
workers.  A fault in any share is raised to the caller.
"""

from __future__ import annotations

import os
import threading
from typing import NamedTuple

import numpy as np

from .wavefront import CONE, Wavefront, surface_eval, surface_gradient, surface_hessian

# Newton's iteration cap and residual tolerance; read at each call
MAX_ITERATIONS = 50
RESIDUAL_TOL = 1e-12

# (point, element) pairs per tile of the numpy kernel; read at each call
TILE_PAIRS = 16384

# Threads of the numpy kernel: the CPUs this process may run on
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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
# nearest-foot solve: closed form for the cone, Newton for the rest
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
    its foot on the +x meridian.  ``elem_primed`` is (..., 3); each result
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

    ``elem_primed`` is (M, 3).  The cone takes its closed form
    (:func:`cone_feet`, zero iterations); every other surface runs Newton
    from directly below the element.  On the plane that start is the foot,
    so it converges in zero iterations with distance exactly -y'.  Rows that
    do not converge come back with ``converged=False`` and NaN distance; the
    caller decides how to fall back.
    """
    pe = np.ascontiguousarray(elem_primed, dtype=np.float64)
    if pe.ndim != 2 or pe.shape[1] != 3:
        raise ValueError(f"elem_primed must have shape (M, 3), got {pe.shape}")
    if wavefront.kind == CONE:
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


def _tiles(cols, rows, pts, k, out, starts, *buffers):
    # One worker's share: the tiles that begin at ``starts``, computed in
    # place in its own buffers.  Every operation sees the operand layout of
    # the fresh temporary it replaces (np.tan runs on the contiguous t; only
    # exactly rounded arithmetic writes into the strided halves of the
    # complex w), so the buffers change no rounding.  Pair arrays are
    # (z, point, column): the column sums reduce the leading axis, one z
    # after the other, with numpy's vector loop over the (point, column)
    # plane.  Two columns or more keep that plane from collapsing into the
    # reduced axis, where numpy would sum pairwise instead.
    xy, ze = cols
    floats, cplx, col_floats, col_weights, col_cplx = buffers
    nz, _, ncol = ze.shape
    npts = pts.shape[0]
    step = col_floats.shape[1]
    for s in starts:
        e = min(s + step, npts)
        n = e - s
        # per (point, column): rho^2 and the weights (cos, sin, -rho) of the
        # column sums, complex with imaginary parts 0, so that one complex
        # product weights the three sums with the roundings of real ones;
        # per current row and (point, column): the sums of I wz (twice) and
        # of I w
        weights = col_weights[:, :n]
        cs, rho = weights.real[:2], weights.real[2]
        sq, rho2 = col_floats[:2, :n], col_floats[2, :n]
        sums = col_cplx[:, :, :n]
        np.subtract(pts[s:e, :2].T[:, :, None], xy, out=cs)
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
        size = nz * n * ncol
        dz, r2, t, s2 = (f[:size].reshape(nz, n, ncol) for f in floats)
        w, wz, prod = (c[:size].reshape(nz, n, ncol) for c in cplx)
        np.subtract(pts[s:e, 2, None], ze, out=dz)
        np.multiply(dz, dz, out=t)
        np.add(rho2, t, out=r2)
        np.sqrt(r2, out=t)
        np.multiply(t, 0.5 * k, out=t)
        np.tan(t, out=t)
        np.multiply(t, t, out=s2)
        np.add(s2, 1.0, out=w.real)
        np.multiply(w.real, r2, out=r2)
        np.subtract(1.0, s2, out=s2)
        np.divide(s2, r2, out=w.real)
        np.multiply(t, -2.0, out=t)
        np.divide(t, r2, out=w.imag)
        np.multiply(w.real, dz, out=wz.real)
        np.multiply(w.imag, dz, out=wz.imag)
        # Ex and Ey are the column sums of I wz weighted by cos and sin, Ez
        # the column sums of I w weighted by -rho, each then summed over the
        # columns, for all current rows at once
        for q in range(rows.shape[0]):
            np.multiply(rows[q, :, :n], wz, out=prod)
            np.add.reduce(prod, axis=0, out=sums[0, q])
            np.multiply(rows[q, :, :n], w, out=prod)
            np.add.reduce(prod, axis=0, out=sums[2, q])
        np.copyto(sums[1], sums[0])
        np.multiply(sums, weights[:, None], out=sums)
        np.add.reduce(sums, axis=3, out=out[:, :, s:e])


def field_sum(
    positions: np.ndarray,
    currents: np.ndarray,
    points: np.ndarray,
    k: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Superpose per-element spherical-wave contributions at each point.

    ``currents`` is one excitation, shape (M,), or K of them, shape (K, M);
    the complex (Ex, Ey, Ez) arrays come back as (P,) or (K, P) to match.
    The K excitations share every distance, phase and polarization
    evaluation, and each row equals a call with that row alone, bit for
    bit.  Points must not coincide with element positions (guaranteed by
    the caller's clearance check).
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
    # Tiles of TILE_PAIRS // M points each take the whole element row, so no
    # point's sum is split and a point's value does not depend on which
    # points share its tile, nor on which worker runs it.  Each current
    # product runs numpy's vector loop over a row of columns; at M = 1 the
    # currents are repeated down the tile, since numpy multiplies by a
    # broadcast single element in its scalar complex loop, which rounds
    # differently.
    k = float(k)
    nk = cur.shape[0] if cur.ndim == 2 else 1
    nelem = pos.shape[0]
    npts = pts.shape[0]
    nz = _column_length(pos)
    ncol = nelem // nz
    step = max(1, min(npts, TILE_PAIRS // max(nelem, 1)))
    out = np.empty((3, nk, npts), np.complex128)
    rows = cur.reshape(nk, ncol, nz).transpose(0, 2, 1)[:, :, None, :]
    rows = np.repeat(rows, step if nelem == 1 else 1, axis=2)
    cols = (
        np.ascontiguousarray(pos[::nz, :2].T[:, None, :]),
        np.ascontiguousarray(pos[:, 2].reshape(ncol, nz).T[:, None, :]),
    )
    starts = range(0, npts, step)
    nw = max(1, min(WORKERS, len(starts)))
    shares = [starts[w * len(starts) // nw : (w + 1) * len(starts) // nw] for w in range(nw)]
    # the shares' buffers come from the calling thread: allocated in the
    # workers, they land in per-thread malloc arenas that stay resident
    buffers = (
        np.empty((nw, 4, step * nelem)),
        np.empty((nw, 3, step * nelem), np.complex128),
        np.empty((nw, 3, step, ncol)),
        np.zeros((nw, 3, step, ncol), np.complex128),
        np.empty((nw, 3, nk, step, ncol), np.complex128),
    )
    faults = [None] * (nw - 1)

    def share(w):
        try:
            _tiles(cols, rows, pts, k, out, shares[w], *(b[w] for b in buffers))
        except BaseException as exc:  # re-raised by the calling thread
            faults[w] = exc

    threads = [threading.Thread(target=share, args=(w,)) for w in range(nw - 1)]
    for t in threads:
        t.start()
    # the calling thread runs the last share and joins the others, even when
    # its own share raises
    try:
        _tiles(cols, rows, pts, k, out, shares[-1], *(b[-1] for b in buffers))
    finally:
        for t in threads:
            t.join()
    for exc in faults:
        if exc is not None:
            raise exc
    ex, ey, ez = out if cur.ndim == 2 else out[:, 0]
    return ex, ey, ez
