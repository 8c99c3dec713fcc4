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
  mirrored currents.  It has two backends with identical semantics:
  ``numba`` (@njit, parallel over points, a loop over K inside) and
  ``numpy`` (vectorized, no compilation required, and the reference for
  the numba kernel).  The numpy kernel builds each pair's phasor exp(-jkr)
  from one tangent, s = tan(kr/2), as (1 - js)^2 / (1 + s^2); the numba
  kernel takes cos and sin.  The two agree to a relative 1e-11.

``field_sum`` runs numba whenever numba imports and numpy otherwise;
:func:`resolve_backend` reports which.

Each point and each current row is summed on its own: the numpy kernel
sums a point's element row pairwise (``np.add.reduce`` along the row), the
numba kernel in ascending element order.  So results are deterministic and
rerun-identical, and a point's value in a row of a K-current call equals
the one-current, one-point call bit for bit.

The numpy kernel works in tiles of at most :data:`TILE_PAIRS` (point,
element) pairs, which share each phasor and polarization across the K
current rows.  A call splits its tiles into up to :data:`WORKERS`
contiguous shares, one per CPU in the process's affinity mask
(:func:`resolve_threads` reports the count): it starts a thread for
each share but the last, runs the last itself and joins the threads before
it returns, so no thread outlives a call.  numpy releases the GIL inside
each operation on a tile, so the shares run in parallel.  Each share
computes in place in its own buffers, 96 bytes per (point, element) pair
of a tile (1.5 MiB at 16,384 pairs), and writes only its own points,
so results do not depend on the number of workers.  A fault in any share is
raised to the caller.
"""

from __future__ import annotations

import os
import threading
from typing import NamedTuple

import numpy as np

from .wavefront import CONE, Wavefront, surface_eval, surface_gradient, surface_hessian

try:
    from numba import get_num_threads, njit, prange

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    HAVE_NUMBA = False

# Newton's iteration cap and residual tolerance; read at each call
MAX_ITERATIONS = 50
RESIDUAL_TOL = 1e-12

# (point, element) pairs per tile of the numpy kernel; read at each call
TILE_PAIRS = 16384

# Threads of the numpy kernel: the CPUs this process may run on
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def resolve_backend() -> str:
    """The ``field_sum`` backend: ``"numba"`` when numba imports, else ``"numpy"``."""
    return "numba" if HAVE_NUMBA else "numpy"


def resolve_threads() -> int:
    """Threads a ``field_sum`` call runs on: numba's count, or :data:`WORKERS`."""
    return get_num_threads() if HAVE_NUMBA else WORKERS


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


def _tiles(elems, rows, pts, k, out, starts, floats, cplx):
    # One worker's share: the tiles that begin at ``starts``, computed in
    # place in its own buffers.  Every operation sees the operand layout of
    # the fresh temporary it replaces (np.tan runs on the contiguous t; only
    # exactly rounded arithmetic writes into the strided halves of the
    # complex g), so the buffers change no rounding.
    xe, ye, ze = elems
    npts = pts.shape[0]
    step = floats.shape[1]
    for s in starts:
        e = min(s + step, npts)
        dx, dy, dz, rho, r, t = floats[:, : e - s]
        g, gu, prod = cplx[:, : e - s]
        np.subtract(pts[s:e, 0, None], xe, out=dx)
        np.subtract(pts[s:e, 1, None], ye, out=dy)
        np.subtract(pts[s:e, 2, None], ze, out=dz)
        np.multiply(dx, dx, out=rho)
        np.multiply(dy, dy, out=t)
        np.add(rho, t, out=rho)
        np.multiply(dz, dz, out=t)
        np.add(rho, t, out=r)
        np.sqrt(r, out=r)
        np.sqrt(rho, out=rho)
        on_axis = None if rho.all() else rho == 0.0
        np.multiply(r, rho if on_axis is None else np.where(on_axis, 1.0, rho), out=t)
        np.divide(dz, t, out=t)
        # dx, dy and rho become the polarization u = (ux, uy, uz)
        np.multiply(dx, t, out=dx)
        np.multiply(dy, t, out=dy)
        np.divide(rho, r, out=rho)
        np.negative(rho, out=rho)
        if on_axis is not None:
            # rho == 0: azimuth 0, so u = (dz/r, 0, 0)
            dx[on_axis] = dz[on_axis] / r[on_axis]
            dy[on_axis] = 0.0
        # g = exp(-jkr) / r from s = tan(kr/2), with dz as scratch:
        # exp(-jkr) = (1 - js)^2 / (1 + s^2), so g.real = (1 - s^2) / ((1 + s^2) r)
        # and g.imag = -2s / ((1 + s^2) r)
        np.multiply(r, 0.5 * k, out=t)
        np.tan(t, out=t)
        np.multiply(t, t, out=dz)
        np.subtract(1.0, dz, out=g.real)
        np.add(dz, 1.0, out=dz)
        np.multiply(dz, r, out=dz)
        np.divide(g.real, dz, out=g.real)
        np.multiply(t, -2.0, out=t)
        np.divide(t, dz, out=g.imag)
        for c, u in enumerate((dx, dy, rho)):
            np.multiply(g.real, u, out=gu.real)
            np.multiply(g.imag, u, out=gu.imag)
            for q in range(rows.shape[0]):
                np.multiply(rows[q, : e - s], gu, out=prod)
                np.add.reduce(prod, axis=1, out=out[c, q, s:e])


def _field_sum_numpy(pos, cur, pts, k):
    # cur is (K, M).  Tiles of TILE_PAIRS // M points each take the whole
    # element row, so no point's sum is split and a point's value does not
    # depend on which points share its tile, nor on which worker runs it.  Each
    # current product runs numpy's vector loop over one element row; at M = 1
    # the rows are repeated down the tile, since numpy multiplies by a
    # broadcast single element in its scalar complex loop, which rounds
    # differently.
    nk, nelem = cur.shape
    npts = pts.shape[0]
    step = max(1, min(npts, TILE_PAIRS // max(nelem, 1)))
    out = np.empty((3, nk, npts), np.complex128)
    rows = np.repeat(cur[:, None, :], step if nelem == 1 else 1, axis=1)
    elems = tuple(np.ascontiguousarray(c) for c in pos.T)
    starts = range(0, npts, step)
    nw = max(1, min(WORKERS, len(starts)))
    shares = [starts[w * len(starts) // nw : (w + 1) * len(starts) // nw] for w in range(nw)]
    # the shares' buffers come from the calling thread: allocated in the
    # workers, they land in per-thread malloc arenas that stay resident
    floats = np.empty((nw, 6, step, nelem))
    cplx = np.empty((nw, 3, step, nelem), np.complex128)
    faults = [None] * (nw - 1)

    def share(w):
        try:
            _tiles(elems, rows, pts, k, out, shares[w], floats[w], cplx[w])
        except BaseException as exc:  # re-raised by the calling thread
            faults[w] = exc

    threads = [threading.Thread(target=share, args=(w,)) for w in range(nw - 1)]
    for t in threads:
        t.start()
    # the calling thread runs the last share and joins the others, even when
    # its own share raises
    try:
        _tiles(elems, rows, pts, k, out, shares[-1], floats[-1], cplx[-1])
    finally:
        for t in threads:
            t.join()
    for exc in faults:
        if exc is not None:
            raise exc
    return out[0], out[1], out[2]


if HAVE_NUMBA:

    @njit(parallel=True, cache=True)
    def _field_sum_nb(pos, cur, pts, k):
        nk = cur.shape[0]
        npts = pts.shape[0]
        nelem = pos.shape[0]
        ex = np.empty((nk, npts), np.complex128)
        ey = np.empty((nk, npts), np.complex128)
        ez = np.empty((nk, npts), np.complex128)
        for p in prange(npts):
            px = pts[p, 0]
            py = pts[p, 1]
            pz = pts[p, 2]
            ax = np.zeros(nk, np.complex128)
            ay = np.zeros(nk, np.complex128)
            az = np.zeros(nk, np.complex128)
            for n in range(nelem):
                dx = px - pos[n, 0]
                dy = py - pos[n, 1]
                dz = pz - pos[n, 2]
                rr = dx * dx + dy * dy
                r = np.sqrt(rr + dz * dz)
                rho = np.sqrt(rr)
                ph = k * r
                e = complex(np.cos(ph), -np.sin(ph))
                if rho > 0.0:
                    scale = dz / (r * rho)
                    ux = dx * scale
                    uy = dy * scale
                    uz = -rho / r
                else:
                    ux = dz / r
                    uy = 0.0
                    uz = 0.0
                for q in range(nk):
                    c = cur[q, n] * e / r
                    ax[q] += c * ux
                    ay[q] += c * uy
                    az[q] += c * uz
            for q in range(nk):
                ex[q, p] = ax[q]
                ey[q, p] = ay[q]
                ez[q, p] = az[q]
        return ex, ey, ez


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
    rows = cur if cur.ndim == 2 else cur[None]
    if HAVE_NUMBA:
        ex, ey, ez = _field_sum_nb(pos, rows, pts, float(k))
    else:
        ex, ey, ez = _field_sum_numpy(pos, rows, pts, float(k))
    if cur.ndim == 1:
        return ex[0], ey[0], ez[0]
    return ex, ey, ez
