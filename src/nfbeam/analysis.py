"""Beam diagnostics: polarization power split, peak-direction estimation,
transverse profiles and the geometric propagation-range estimate.

Direction estimation scans field magnitude over a dense hemisphere grid
of directions rather than hill-climbing: conical-wavefront beams carry
ring sidelobes that trap local searches, and the grids involved are small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.signal import find_peaks

from .field import AXIS_INDEX, PLANE_AXES, FieldGrid, ObservationGrid, total_field
from .synthesis import ArrayGeometry, Excitation


class EmptyGrid(ValueError):
    """Analysis requested on a grid with no points."""


class RadiusOutOfRange(ValueError):
    """Scan radius violates the clearance needed around the array."""


class LineOutsideGrid(ValueError):
    """Requested profile line is not contained in the field grid."""


@dataclass(frozen=True)
class PolarizationReport:
    """Power split between the three field components over a grid."""

    powers: tuple[float, float, float]
    fractions: tuple[float, float, float]
    peak_cross_pol_ratio: float
    num_points: int


@dataclass(frozen=True)
class BeamMetrics:
    peak_point: np.ndarray
    estimated_azimuth: float
    estimated_elevation: float
    first_null_radius: float | None = None
    propagation_range_estimate: float | None = None


@dataclass(frozen=True)
class TransverseProfile:
    """|E| sampled along a straight cut, offsets centered on the beam axis."""

    offsets: np.ndarray
    magnitudes: np.ndarray
    first_null_radius: float | None

    def pairs(self) -> list[tuple[float, float]]:
        return list(zip(self.offsets.tolist(), self.magnitudes.tolist()))


def polarization_report(fg: FieldGrid) -> PolarizationReport:
    """Component powers, fractions, and the worst cross-polarization ratio.

    Points with |Ez| below 1e-15 are excluded from the peak ratio (the ratio
    is NaN when every point is excluded).
    """
    n = fg.grid.num_points
    if n == 0:
        raise EmptyGrid("polarization report requested on an empty grid")
    px = float(np.sum(np.abs(fg.ex) ** 2))
    py = float(np.sum(np.abs(fg.ey) ** 2))
    pz = float(np.sum(np.abs(fg.ez) ** 2))
    total = px + py + pz
    if total > 0.0:
        fractions = (px / total, py / total, pz / total)
    else:
        fractions = (0.0, 0.0, 0.0)
    abs_ez = np.abs(fg.ez)
    mask = abs_ez >= 1e-15
    if mask.any():
        cross = np.maximum(np.abs(fg.ex), np.abs(fg.ey))[mask] / abs_ez[mask]
        peak = float(np.max(cross))
    else:
        peak = float("nan")
    return PolarizationReport(
        powers=(px, py, pz),
        fractions=fractions,
        peak_cross_pol_ratio=peak,
        num_points=n,
    )


def steering_unit_vector(azimuth: float, elevation: float) -> np.ndarray:
    """Beam direction for given steering angles (radians)."""
    ce = math.cos(elevation)
    return np.array(
        [-ce * math.sin(azimuth), ce * math.cos(azimuth), -math.sin(elevation)]
    )


def direction_to_angles(u: np.ndarray) -> tuple[float, float]:
    """Invert :func:`steering_unit_vector` for a unit direction."""
    elevation = math.asin(max(-1.0, min(1.0, -float(u[2]))))
    azimuth = math.atan2(-float(u[0]), float(u[1]))
    return azimuth, elevation


def _scan_magnitude(
    array: ArrayGeometry,
    exc: Excitation,
    radius: float,
    az_deg: np.ndarray,
    el_deg: np.ndarray,
    backend: str | None,
) -> np.ndarray:
    az = np.radians(az_deg)[:, None]
    el = np.radians(el_deg)[None, :]
    ce = np.cos(el)
    pts = np.empty((az.shape[0], el.shape[1], 3))
    pts[:, :, 0] = -ce * np.sin(az)
    pts[:, :, 1] = ce * np.cos(az)
    pts[:, :, 2] = -np.sin(el) * np.ones_like(az)
    pts = radius * pts.reshape(-1, 3)
    fg = total_field(array, exc, ObservationGrid.from_points(pts), backend=backend)
    return fg.magnitude().reshape(len(az_deg), len(el_deg))


def estimate_direction(
    array: ArrayGeometry,
    exc: Excitation,
    radius: float,
    backend: str | None = None,
) -> BeamMetrics:
    """Direction of maximum |E| on a hemisphere of given radius.

    Scans the forward hemisphere at one-degree resolution and refines the
    winning cell at a tenth of a degree.  The radius must exceed the array's
    aperture radius by the ten-wavelength element clearance.
    """
    min_radius = array.aperture_radius + 10.0 * array.wavelength
    if radius < min_radius:
        raise RadiusOutOfRange(
            f"scan radius {radius:.6g} m must be at least {min_radius:.6g} m "
            "(aperture radius plus ten-wavelength clearance)"
        )
    coarse = np.arange(-90.0, 90.0 + 0.5, 1.0)
    mag = _scan_magnitude(array, exc, radius, coarse, coarse, backend)
    i, j = np.unravel_index(int(np.argmax(mag)), mag.shape)
    az_fine = np.clip(coarse[i] + np.arange(-10, 11) * 0.1, -90.0, 90.0)
    el_fine = np.clip(coarse[j] + np.arange(-10, 11) * 0.1, -90.0, 90.0)
    mag = _scan_magnitude(array, exc, radius, az_fine, el_fine, backend)
    i, j = np.unravel_index(int(np.argmax(mag)), mag.shape)
    az = math.radians(float(az_fine[i]))
    el = math.radians(float(el_fine[j]))
    return BeamMetrics(
        peak_point=radius * steering_unit_vector(az, el),
        estimated_azimuth=az,
        estimated_elevation=el,
    )


def transverse_profile(
    fg: FieldGrid, axis_point: np.ndarray, direction: np.ndarray
) -> TransverseProfile:
    """|E| along a straight cut through ``axis_point``, with first-null search.

    The cut must lie inside the grid's plane and bounds; samples are taken
    at the grid's own resolution by bilinear interpolation.  The first null
    is the first strict local minimum at positive offset whose prominence
    exceeds 5% of the main-lobe peak.
    """
    grid = fg.grid
    if grid.plane is None or grid.shape is None:
        raise LineOutsideGrid("transverse profiles require a plane grid")
    name1, name2 = PLANE_AXES[grid.plane]
    i1, i2 = AXIS_INDEX[name1], AXIS_INDEX[name2]
    const_axis = ({"x", "y", "z"} - {name1, name2}).pop()
    ic = AXIS_INDEX[const_axis]

    point = np.asarray(axis_point, dtype=float)
    d = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(d))
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    d = d / norm
    if abs(d[ic]) > 1e-12:
        raise LineOutsideGrid(
            f"direction {direction!r} leaves the {grid.plane} grid plane"
        )
    if abs(point[ic] - grid.offset) > 1e-9:
        raise LineOutsideGrid(
            f"axis point {axis_point!r} is off the {grid.plane} plane at "
            f"{const_axis} = {grid.offset}"
        )

    c = np.array([point[i1], point[i2]])
    dv = np.array([d[i1], d[i2]])
    axes = (grid.axis1, grid.axis2)
    s_lo, s_hi = -math.inf, math.inf
    for comp in range(2):
        lo, hi = float(axes[comp][0]), float(axes[comp][-1])
        if dv[comp] == 0.0:
            if not lo <= c[comp] <= hi:
                raise LineOutsideGrid("axis point outside grid bounds")
            continue
        t1 = (lo - c[comp]) / dv[comp]
        t2 = (hi - c[comp]) / dv[comp]
        s_lo = max(s_lo, min(t1, t2))
        s_hi = min(s_hi, max(t1, t2))
    extent = min(-s_lo, s_hi)
    step = min(
        float(grid.axis1[1] - grid.axis1[0]), float(grid.axis2[1] - grid.axis2[0])
    )
    n_half = int(math.floor(extent / step + 1e-12))
    if not math.isfinite(extent) or n_half < 1:
        raise LineOutsideGrid("profile line has no room inside the grid bounds")

    offsets = np.arange(-n_half, n_half + 1) * step
    samples = c[None, :] + offsets[:, None] * dv[None, :]
    for comp in range(2):
        # the outermost sample can overshoot the grid edge by rounding
        samples[:, comp] = np.clip(
            samples[:, comp], float(axes[comp][0]), float(axes[comp][-1])
        )
    interp = RegularGridInterpolator(
        axes, fg.magnitude().reshape(grid.shape), method="linear"
    )
    mags = interp(samples)

    positive = mags[n_half:]
    peaks, _ = find_peaks(-positive, prominence=0.05 * float(np.max(positive)))
    first_null = float(offsets[n_half + peaks[0]]) if len(peaks) else None
    return TransverseProfile(
        offsets=offsets, magnitudes=mags, first_null_radius=first_null
    )


def propagation_range(array: ArrayGeometry, h_over_r: float) -> float:
    """Geometric persistence length of a cone-wavefront beam.

    Aperture radius divided by the axicon slope; a placement heuristic for
    evaluation planes, not a precision quantity.
    """
    if h_over_r <= 0:
        raise ValueError("h_over_r must be positive")
    return array.aperture_radius / h_over_r


def export_report_text(entries: list[tuple[str, object]], path: str | Path) -> None:
    Path(path).write_text("".join(f"{k}: {v}\n" for k, v in entries))


def export_report_csv(entries: list[tuple[str, object]], path: str | Path) -> None:
    lines = ["key,value"]
    for k, v in entries:
        if isinstance(v, float):
            lines.append(f"{k},{v:.17g}")
        else:
            lines.append(f"{k},{v}")
    Path(path).write_text("\n".join(lines) + "\n")
