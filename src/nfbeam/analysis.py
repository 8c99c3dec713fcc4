"""Beam diagnostics: polarization power split, peak-direction estimation,
transverse profiles and the geometric propagation-range estimate.

A transverse profile evaluates |E| directly at points along a straight cut,
so the cut may take any direction, such as across a steered beam's axis.

Direction estimation scans field magnitude over the hemisphere rather
than hill-climbing, because conical-wavefront beams carry ring sidelobes
that trap local searches.  The scan works on a one-degree (azimuth,
elevation) lattice over [-90, 90] on both axes, in three stages:

1. coarse: every third lattice direction on both axes, 61 x 61;
2. one degree: every lattice direction within three degrees, on both
   axes, of a coarse direction whose |E| is at least half the coarse
   maximum, evaluated in one batch;
3. refine: the 21 x 21 tenth-of-a-degree cell around the stage-2 peak.

Every direction is built from the same degree values by the same
expressions in every stage, and the field at a point depends only on the
point (mirror folding included, see :mod:`nfbeam.field`), so a lattice
direction gets the same |E| whichever stage evaluates it.
The estimate therefore equals an exhaustive one-degree scan's whenever the
exhaustive peak lies among the marked directions.  If |E| were flat every
coarse cell would be marked: 3,721 + 32,761 + 441 directions in the worst
case, 1.11 times an exhaustive scan's 33,202.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .field import FAR_FIELD_CLEARANCE_WAVELENGTHS, FieldGrid, ObservationGrid, total_field
from .synthesis import ArrayGeometry, Excitation


class EmptyGrid(ValueError):
    """Analysis requested on a grid with no points."""


class RadiusOutOfRange(ValueError):
    """Scan radius violates the clearance needed around the array."""


@dataclass(frozen=True)
class PolarizationReport:
    """Power split between the three field components over a grid."""

    fractions: tuple[float, float, float]
    peak_cross_pol_ratio: float


@dataclass(frozen=True)
class BeamMetrics:
    peak_point: np.ndarray
    estimated_azimuth: float
    estimated_elevation: float


@dataclass(frozen=True)
class TransverseProfile:
    """|E| sampled along a straight cut, offsets centered on the beam axis."""

    offsets: np.ndarray
    magnitudes: np.ndarray
    first_null_radius: float | None


def polarization_report(fg: FieldGrid) -> PolarizationReport:
    """Component power fractions and the worst cross-polarization ratio.

    Points with |Ez| below 1e-15 are excluded from the peak ratio (the ratio
    is NaN when every point is excluded).
    """
    if fg.grid.num_points == 0:
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
    return PolarizationReport(fractions=fractions, peak_cross_pol_ratio=peak)


def steering_unit_vector(azimuth: float, elevation: float) -> np.ndarray:
    """Beam direction for given steering angles (radians)."""
    ce = math.cos(elevation)
    return np.array(
        [-ce * math.sin(azimuth), ce * math.cos(azimuth), -math.sin(elevation)]
    )


# the one-degree direction lattice on both axes, and the coarse stage's
# stride over it and marking threshold
SCAN_LATTICE_DEG = np.arange(-90.0, 90.0 + 0.5, 1.0)
COARSE_STRIDE = 3
MARK_FRACTION = 0.5


def _scan_magnitude(
    array: ArrayGeometry,
    exc: Excitation,
    radius: float,
    az_deg: np.ndarray,
    el_deg: np.ndarray,
) -> np.ndarray:
    """|E| at ``radius`` in the directions (az_deg[n], el_deg[n]), degrees."""
    az = np.radians(az_deg)
    el = np.radians(el_deg)
    ce = np.cos(el)
    pts = radius * np.column_stack([-ce * np.sin(az), ce * np.cos(az), -np.sin(el)])
    fg = total_field(array, exc, ObservationGrid.from_points(pts))
    return fg.magnitude()


def _tensor(az_deg: np.ndarray, el_deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat (az, el) pairs of the tensor grid, row-major with el fastest."""
    return np.repeat(az_deg, len(el_deg)), np.tile(el_deg, len(az_deg))


def min_scan_radius(array: ArrayGeometry) -> float:
    """Smallest scan radius: the aperture radius plus the element clearance."""
    return array.aperture_radius + FAR_FIELD_CLEARANCE_WAVELENGTHS * array.wavelength


def check_scan_radius(array: ArrayGeometry, radius: float) -> None:
    """Raise :class:`RadiusOutOfRange` unless ``radius`` is finite and at
    least :func:`min_scan_radius`."""
    if not math.isfinite(radius):
        raise RadiusOutOfRange(f"scan radius {radius!r} m must be finite")
    min_radius = min_scan_radius(array)
    if radius < min_radius:
        raise RadiusOutOfRange(
            f"scan radius {radius:.6g} m must be at least {min_radius:.6g} m (aperture "
            f"radius plus {FAR_FIELD_CLEARANCE_WAVELENGTHS:g}-wavelength clearance)"
        )


def estimate_direction(array: ArrayGeometry, exc: Excitation, radius: float) -> BeamMetrics:
    """Direction of maximum |E| on a hemisphere of given radius.

    Scans a three-degree coarse lattice, then every one-degree direction
    within three degrees of a coarse direction holding at least half the
    coarse peak, and refines the winner at a tenth of a degree (see the
    module docstring).  Ties go to the first direction in row-major
    (azimuth, elevation) order.  At most 36,923 directions are evaluated;
    a focused beam takes about 4,300.  The radius must be at least
    :func:`min_scan_radius` (:func:`check_scan_radius`).
    """
    check_scan_radius(array, radius)
    lattice = SCAN_LATTICE_DEG
    coarse = lattice[::COARSE_STRIDE]
    mag = _scan_magnitude(array, exc, radius, *_tensor(coarse, coarse))
    marked = (mag >= MARK_FRACTION * np.max(mag)).reshape(len(coarse), len(coarse))
    # near[i, c]: lattice index i lies within one stride of coarse direction c
    offsets = np.arange(len(lattice))[:, None] - COARSE_STRIDE * np.arange(len(coarse))
    near = (np.abs(offsets) <= COARSE_STRIDE).astype(np.int64)
    # np.nonzero lists the marked directions row-major, so argmax keeps the
    # first maximum in (azimuth, elevation) order
    ii, jj = np.nonzero(near @ marked.astype(np.int64) @ near.T)
    mag = _scan_magnitude(array, exc, radius, lattice[ii], lattice[jj])
    best = int(np.argmax(mag))
    steps = np.arange(-10, 11) * 0.1
    az_fine = np.clip(lattice[ii[best]] + steps, -90.0, 90.0)
    el_fine = np.clip(lattice[jj[best]] + steps, -90.0, 90.0)
    mag = _scan_magnitude(array, exc, radius, *_tensor(az_fine, el_fine))
    i, j = np.unravel_index(int(np.argmax(mag)), (len(az_fine), len(el_fine)))
    az = math.radians(float(az_fine[i]))
    el = math.radians(float(el_fine[j]))
    return BeamMetrics(
        peak_point=radius * steering_unit_vector(az, el),
        estimated_azimuth=az,
        estimated_elevation=el,
    )


def first_null(offsets: np.ndarray, magnitudes: np.ndarray) -> float | None:
    """Offset of the first null among the samples at non-negative offsets.

    The null is the first strict local minimum there whose prominence is at
    least 5% of the largest |E| there; None if there is none.  Neither end
    sample can be a minimum.  A minimum's prominence is its depth below the
    lower of the highest samples on its two sides, each side running up to
    the first sample lower than the minimum or to the end.
    """
    keep = offsets >= 0
    x, s = magnitudes[keep], offsets[keep]
    floor = 0.05 * np.max(x, initial=0.0)
    for i in np.flatnonzero((x[1:-1] < x[:-2]) & (x[1:-1] < x[2:])) + 1:
        # the samples below x[i], with sentinels at -1 and len(x)
        lower = np.flatnonzero(np.r_[True, x < x[i], True]) - 1
        j = np.searchsorted(lower, i)
        base = min(np.max(x[lower[j - 1] + 1 : i]), np.max(x[i + 1 : lower[j]]))
        if base - x[i] >= floor:
            return float(s[i])
    return None


def transverse_profile(
    array: ArrayGeometry,
    exc: Excitation,
    axis_point: np.ndarray,
    direction: np.ndarray,
    offsets: np.ndarray,
) -> TransverseProfile:
    """|E| at ``axis_point + offsets * d``, d the unit ``direction``, with
    first-null search (see :func:`first_null`).

    ``offsets`` must be strictly increasing and ``direction`` nonzero; the
    samples are evaluated directly, so the cut may take any direction.
    """
    offsets = np.asarray(offsets, dtype=float)
    if offsets.ndim != 1 or not np.all(np.diff(offsets) > 0):
        raise ValueError("offsets must be a strictly increasing 1-D array")
    d = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(d))
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    points = np.asarray(axis_point, dtype=float) + offsets[:, None] * (d / norm)
    mags = total_field(array, exc, ObservationGrid.from_points(points)).magnitude()
    return TransverseProfile(
        offsets=offsets, magnitudes=mags, first_null_radius=first_null(offsets, mags)
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
