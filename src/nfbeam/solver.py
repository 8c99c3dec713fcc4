"""Minimum signed distance from an antenna element to a steered wavefront.

The element is mapped into the steered frame, where the wavefront is its
canonical surface y = f(x, z).  :func:`kernels.nearest_feet` is the only
solver.  The plane and the cone take the cone's closed form (the plane is
the cone of slope 0); a custom surface's foot of the perpendicular is found
by Newton iteration on the two-variable system obtained by eliminating the
line parameter t:

    g1(x, z) = x - x_e + t * df/dx = 0
    g2(x, z) = z - z_e + t * df/dz = 0      with  t = f(x, z) - y_e.

The signed distance is t * ||(df/dx, -1, df/dz)|| at the foot: positive
when the element must advance its phase to reach the wavefront (element
below the surface), negative when it sits beyond it.  For the plane this
reduces to the classical far-field steering phase, sign included.

This module holds the solver's references: the plane's angle form
(:func:`plane_distance_closed_form`), the cone's meridian reduction
(:func:`cone_distance_closed_form`) and a brute-force squared-distance
minimizer over a dense grid (:func:`oracle_signed_min_distance`), which
also backs :func:`synthesis.synthesize` up where Newton does not converge.
It evaluates only the block of the grid that can hold the minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .geometry import SteeringAngles, to_primed
from .wavefront import SteeredWavefront, surface_eval

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class SolverFailure(RuntimeError):
    """Both the Newton solve and the oracle fallback failed."""


# points per axis of the oracle's search grid; read at each call
ORACLE_GRID = 2001


@dataclass(frozen=True)
class SolverConfig:
    """Search box of the brute-force oracle.

    ``oracle_halfwidth`` defaults to four times the element's distance from
    the steered-frame origin (callers that know the array pass four times
    the aperture instead).
    """

    oracle_halfwidth: float | None = None

    def __post_init__(self) -> None:
        if self.oracle_halfwidth is not None and not 0.0 < self.oracle_halfwidth < math.inf:
            raise ValueError("oracle_halfwidth must be positive and finite when given")


def _golden_min(fun, lo: float, hi: float, iterations: int = 80) -> float:
    """Golden-section argmin of a unimodal scalar function on [lo, hi]."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(iterations):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fun(x2)
    return x1 if f1 <= f2 else x2


def _grid_argmin(base, xs: np.ndarray, zs: np.ndarray, xe, ye, ze) -> tuple[int, int, float]:
    """Row, column and value of the first minimum, row-major, of the squared
    distance on the grid xs x zs.  Rounding is monotone, so a cell's value is
    at least fl(dx^2 + dz^2); the rows and columns where that exceeds the
    minimum over every 50th row and column, plus four ulps for a ufunc's last
    bits, are skipped.  The block left keeps row-major order, so the result
    is the full grid's, bit for bit; a NaN bound keeps the whole grid."""

    def squared_distances(x, z):
        fvals = surface_eval(base, x[:, None], z[None, :])
        return (x[:, None] - xe) ** 2 + (fvals - ye) ** 2 + (z[None, :] - ze) ** 2

    bound = np.min(squared_distances(xs[::50], zs[::50]))
    bound += 4 * np.spacing(bound)
    dx2, dz2 = (xs - xe) ** 2, (zs - ze) ** 2
    rows = np.flatnonzero(~(dx2 + np.min(dz2) > bound))
    cols = np.flatnonzero(~(dz2 + np.min(dx2) > bound))
    r0, c0 = rows[0], cols[0]
    fd = squared_distances(xs[r0 : rows[-1] + 1], zs[c0 : cols[-1] + 1])
    i, j = np.unravel_index(np.argmin(fd), fd.shape)
    return r0 + i, c0 + j, float(fd[i, j])


def oracle_signed_min_distance(
    w: SteeredWavefront, element_pos: np.ndarray, cfg: SolverConfig | None = None
) -> float:
    """Brute-force signed distance, used when Newton declines on a surface.

    Minimizes (x - x_e)^2 + (f(x, z) - y_e)^2 + (z - z_e)^2 over an
    :data:`ORACLE_GRID`-squared lattice on the search box in the steered
    frame, then refines with one golden-section pass per axis around the
    best cell; the grid stage alone is within one cell diagonal of the true
    minimum.  The box sets that diagonal; the block of cells that can hold
    the minimum (:func:`_grid_argmin`) sets the cost.  The sign is read off
    the line parameter t = f(x*, z*) - y_e at the argmin, matching the
    :func:`kernels.nearest_feet` convention.
    """
    base = w.base
    pe = to_primed(w.rotation, element_pos)
    xe, ye, ze = float(pe[0]), float(pe[1]), float(pe[2])

    hw = (cfg or SolverConfig()).oracle_halfwidth
    if hw is None:
        hw = 4.0 * max(0.01, math.sqrt(xe * xe + ye * ye + ze * ze))
    n = ORACLE_GRID
    xs = np.linspace(xe - hw, xe + hw, n)
    zs = np.linspace(ze - hw, ze + hw, n)

    i, j, best = _grid_argmin(base, xs, zs, xe, ye, ze)

    def fd_at(x: float, z: float) -> float:
        f = surface_eval(base, x, z)
        return (x - xe) ** 2 + (f - ye) ** 2 + (z - ze) ** 2

    z_star = float(zs[j])
    x_lo, x_hi = xs[max(i - 1, 0)], xs[min(i + 1, n - 1)]
    x_star = _golden_min(lambda x: fd_at(x, z_star), float(x_lo), float(x_hi))
    z_lo, z_hi = zs[max(j - 1, 0)], zs[min(j + 1, n - 1)]
    z_star = _golden_min(lambda z: fd_at(x_star, z), float(z_lo), float(z_hi))
    refined = fd_at(x_star, z_star)
    if refined <= best:
        best = refined
    else:
        x_star, z_star = float(xs[i]), float(zs[j])
    d = math.sqrt(best)
    return d if surface_eval(base, x_star, z_star) - ye >= 0.0 else -d


def oracle_cell_diagonal(cfg: SolverConfig) -> float:
    """Worst-case gap between the oracle's grid stage and the true minimum."""
    if cfg.oracle_halfwidth is None:
        raise ValueError("the oracle's cell diagonal needs cfg.oracle_halfwidth")
    cell = 2.0 * cfg.oracle_halfwidth / (ORACLE_GRID - 1)
    return math.sqrt(2.0) * cell


def plane_distance_closed_form(angles: SteeringAngles, element_pos: np.ndarray):
    """Signed element-to-tilted-plane distance: x_a cos(el) sin(az) + z_a sin(el).

    ``element_pos`` is one (3,) position (float result) or an (M, 3) stack.
    """
    p = np.asarray(element_pos, dtype=float)
    x_a, z_a = p[..., 0], p[..., 2]
    d = x_a * math.cos(angles.elevation) * math.sin(angles.azimuth) + z_a * math.sin(
        angles.elevation
    )
    return d if d.ndim else float(d)


def cone_distance_closed_form(h_over_r: float, element_primed: np.ndarray):
    """Signed distance to the canonical cone via the meridian-plane reduction.

    The distance part of :func:`kernels.cone_feet`.  Sign matches
    :func:`kernels.nearest_feet` (positive below the surface).
    ``element_primed`` is one (3,) position (float result) or an (M, 3) stack.
    """
    d, _, _ = kernels.cone_feet(h_over_r, element_primed)
    return d if d.ndim else float(d)

