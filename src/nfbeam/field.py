"""Vector near-field maps: spherical-wave superposition with dipole-type
polarization over observation grids.

Each element radiates E = I_n * exp(-j*k*||r_n||) / ||r_n|| * u_theta with
the theta-oriented unit polarization of a z-aligned dipole, evaluated in
the element's own far field.  Observation points must be finite and keep a
clearance of ten wavelengths from every element; other points are rejected
rather than approximated.  Per-point sums run over elements in ascending
index order, so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .synthesis import ArrayGeometry, Excitation

SPEED_OF_LIGHT = 299_792_458.0

PLANE_AXES = {"xy": ("x", "y"), "yz": ("y", "z"), "xz": ("x", "z")}
AXIS_INDEX = {"x": 0, "y": 1, "z": 2}
FAR_FIELD_CLEARANCE_WAVELENGTHS = 10.0


class CoincidentPoint(ValueError):
    """Observation point coincides with an antenna element."""


class ClearanceViolation(ValueError):
    """Observation point closer than the far-field clearance to an element."""


def wavenumber(wavelength: float) -> float:
    return 2.0 * math.pi / wavelength


def frequency_to_wavelength(frequency_hz: float) -> float:
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    return SPEED_OF_LIGHT / frequency_hz


@dataclass(frozen=True)
class ObservationGrid:
    """Observation points: a coordinate plane slice or a custom point list.

    Plane grids are row-major over (axis1, axis2) with axis2 fastest, e.g.
    an ``xy`` grid at z = offset stores point (i1, i2) at index i1*n2 + i2.
    """

    points: np.ndarray
    plane: str | None = None
    axis1: np.ndarray | None = None
    axis2: np.ndarray | None = None
    offset: float | None = None

    @classmethod
    def plane_grid(
        cls,
        plane: str,
        bounds1: tuple[float, float],
        bounds2: tuple[float, float],
        n1: int,
        n2: int,
        offset: float = 0.0,
    ) -> "ObservationGrid":
        if plane not in PLANE_AXES:
            raise ValueError(f"plane must be one of {sorted(PLANE_AXES)}, got {plane!r}")
        if n1 < 2 or n2 < 2:
            raise ValueError("resolution must be at least 2 per axis")
        a1 = np.linspace(bounds1[0], bounds1[1], n1)
        a2 = np.linspace(bounds2[0], bounds2[1], n2)
        name1, name2 = PLANE_AXES[plane]
        pts = np.empty((n1 * n2, 3))
        pts[:, AXIS_INDEX[name1]] = np.repeat(a1, n2)
        pts[:, AXIS_INDEX[name2]] = np.tile(a2, n1)
        const_axis = ({"x", "y", "z"} - {name1, name2}).pop()
        pts[:, AXIS_INDEX[const_axis]] = offset
        pts.setflags(write=False)
        return cls(points=pts, plane=plane, axis1=a1, axis2=a2, offset=float(offset))

    @classmethod
    def from_points(cls, points: np.ndarray) -> "ObservationGrid":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (P, 3), got {pts.shape}")
        pts = pts.copy()
        pts.setflags(write=False)
        return cls(points=pts)

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    @property
    def shape(self) -> tuple[int, int] | None:
        if self.axis1 is None or self.axis2 is None:
            return None
        return len(self.axis1), len(self.axis2)


@dataclass(frozen=True)
class FieldGrid:
    """Complex vector field samples on an observation grid."""

    grid: ObservationGrid
    ex: np.ndarray
    ey: np.ndarray
    ez: np.ndarray

    def magnitude(self) -> np.ndarray:
        """Total |E| per point."""
        return np.sqrt(
            np.abs(self.ex) ** 2 + np.abs(self.ey) ** 2 + np.abs(self.ez) ** 2
        )


def min_element_distances(array: ArrayGeometry, points: np.ndarray) -> np.ndarray:
    """Exact distance from each point to its nearest element.

    The element lattice is regular, so the nearest element index follows
    from rounding the point's in-plane coordinates; no pairwise scan needed.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    half_x = (array.n_x - 1) / 2.0
    half_z = (array.n_z - 1) / 2.0
    ix = np.clip(np.round(pts[:, 0] / array.spacing + half_x), 0, array.n_x - 1)
    iz = np.clip(np.round(pts[:, 2] / array.spacing + half_z), 0, array.n_z - 1)
    ex = (ix - half_x) * array.spacing
    ez = (iz - half_z) * array.spacing
    return np.sqrt((pts[:, 0] - ex) ** 2 + pts[:, 1] ** 2 + (pts[:, 2] - ez) ** 2)


def validate_clearance(array: ArrayGeometry, grid: ObservationGrid) -> None:
    """Reject grids with non-finite points or points closer than ten
    wavelengths to any element, naming the first such point."""
    dists = min_element_distances(array, grid.points)
    limit = FAR_FIELD_CLEARANCE_WAVELENGTHS * array.wavelength
    finite = np.isfinite(grid.points).all(axis=1)
    bad = np.flatnonzero(~finite | (dists < limit))
    if bad.size:
        idx = int(bad[0])
        if not finite[idx]:
            raise ClearanceViolation(f"grid point {idx} at {grid.points[idx]} is not finite")
        if dists[idx] == 0.0:
            raise CoincidentPoint(
                f"grid point {idx} at {grid.points[idx]} coincides with an element"
            )
        raise ClearanceViolation(
            f"grid point {idx} at {grid.points[idx]} is {dists[idx]:.6g} m from the "
            f"nearest element; minimum clearance is {limit:.6g} m "
            f"({FAR_FIELD_CLEARANCE_WAVELENGTHS:g} wavelengths)"
        )


def total_field(
    array: ArrayGeometry,
    exc: Excitation,
    grid: ObservationGrid,
) -> FieldGrid:
    """Superpose all element contributions at every grid point.

    Per point, element contributions accumulate in ascending element-index
    order; points are independent and may be evaluated in parallel.
    """
    if exc.currents.shape != (array.num_elements,):
        raise ValueError(
            f"excitation has {exc.currents.shape[0]} currents for "
            f"{array.num_elements} elements"
        )
    validate_clearance(array, grid)
    k = wavenumber(array.wavelength)
    ex, ey, ez = kernels.field_sum(array.element_positions, exc.currents, grid.points, k)
    return FieldGrid(grid=grid, ex=ex, ey=ey, ez=ez)


def export_field_csv(fg: FieldGrid, path: str | Path) -> None:
    """Write one row per grid point, row-major, 17 significant digits."""
    pts = fg.grid.points
    lines = ["px_m,py_m,pz_m,re_Ex,im_Ex,re_Ey,im_Ey,re_Ez,im_Ez"]
    for n in range(fg.grid.num_points):
        lines.append(
            f"{pts[n, 0]:.17g},{pts[n, 1]:.17g},{pts[n, 2]:.17g},"
            f"{fg.ex[n].real:.17g},{fg.ex[n].imag:.17g},"
            f"{fg.ey[n].real:.17g},{fg.ey[n].imag:.17g},"
            f"{fg.ez[n].real:.17g},{fg.ez[n].imag:.17g}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
