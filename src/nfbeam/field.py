"""Vector near-field maps: spherical-wave superposition with dipole-type
polarization over observation grids.

Each element radiates E = I_n * exp(-j*k*||r_n||) / ||r_n|| * u_theta with
the theta-oriented unit polarization of a z-aligned dipole, evaluated in
the element's own far field.  Observation points must be finite and keep a
clearance of ten wavelengths from every element; other points are rejected
rather than approximated.

The centred element lattice is its own mirror image in x and in z, so the
field obeys two exact identities, with I∘Mx and I∘Mz the currents of the
lattice reversed along x and along z:

    E(-x, y, z; I) = diag(-1, 1, 1) E(x, y, z; I∘Mx)
    E(x, y, -z; I) = diag(-1, -1, 1) E(x, y, z; I∘Mz)

:func:`total_field` uses them to evaluate every point at its representative
(|x|, y, |z|), once per mirror current that its family needs (the points
on z = 0, or the rest), in multi-current ``kernels.field_sum`` calls.  On
z = 0 a point is its own z mirror, so there the elements pair up across
z = 0 instead, and each pair's two currents are summed before the kernel:
over the z <= 0 half of the lattice, Ez takes A = I + I∘Mz and Ex and Ey
take B = I - I∘Mz, whose sign is the Ex and Ey sign flip of the z mirror.
One A row and one B row per mirror current replace the rows I and I∘Mz.  A
point's value depends only on the point, the array and the currents, never
on which other points share the call, and each point's sum over elements
runs in a fixed order (see ``kernels``), so repeated runs are
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .synthesis import ArrayGeometry, Excitation, write_csv

SPEED_OF_LIGHT = 299_792_458.0

PLANE_AXES = {"xy": ("x", "y"), "yz": ("y", "z"), "xz": ("x", "z")}
AXIS_INDEX = {"x": 0, "y": 1, "z": 2}
FAR_FIELD_CLEARANCE_WAVELENGTHS = 10.0

# (current row, point) pairs per kernels.field_sum call of total_field
BLOCK_PAIRS = 8192


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


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    """``n`` evenly spaced values from ``lo`` to ``hi``; exact negatives of
    each other, end for end, when ``lo == -hi``, so the grid folds."""
    a = np.linspace(lo, hi, n)
    return 0.5 * (a - a[::-1]) if lo == -hi else a


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
        a1 = _axis(*bounds1, n1)
        a2 = _axis(*bounds2, n2)
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


def _fold(points: np.ndarray):
    """Group the points by mirror representative (|x|, y, |z|).

    Returns the point order, each sorted point's flip code (bit 0: x < 0,
    bit 1: z < 0), the start of each representative's run of sorted points
    (closed by the point count) and the representatives, those on z = 0
    first.
    """
    # |z| leads the sort, so the representatives on z = 0 come first; y + 0.0
    # turns -0.0 into 0.0, so equal representatives are equal to the bit
    order = np.lexsort((np.abs(points[:, 0]), points[:, 1] + 0.0, np.abs(points[:, 2])))
    rep = points[order]
    flip = (rep[:, 0] < 0.0).view(np.uint8) | ((rep[:, 2] < 0.0).view(np.uint8) << 1)
    rep[:, 0::2] = np.abs(rep[:, 0::2])
    rep[:, 1] += 0.0
    first = np.ones(len(rep), bool)
    first[1:] = (rep[1:] != rep[:-1]).any(axis=1)
    starts = np.append(np.flatnonzero(first), len(rep))
    return order, flip, starts, rep[starts[:-1]]


def _mirrored(cur: np.ndarray, flip: int) -> np.ndarray:
    """The (n_x, n_z) currents reversed along x for bit 0 of ``flip`` and
    along z for bit 1: I, I∘Mx, I∘Mz or I∘Mx∘Mz."""
    return cur[:: -1 if flip & 1 else 1, :: -1 if flip & 2 else 1]


def total_field(
    array: ArrayGeometry,
    exc: Excitation,
    grid: ObservationGrid,
) -> FieldGrid:
    """Superpose all element contributions at every grid point.

    Each point is evaluated at its mirror representative (|x|, y, |z|) with
    the mirror current it needs, and signed back (see the module
    docstring).  The representatives form two families, those on z = 0 and
    the rest; each family carries one current row per flip code that its
    points need.  Points off z = 0 sum over the whole lattice with one of
    I, I∘Mx, I∘Mz and I∘Mx∘Mz.  Points on z = 0, -0.0 included, sum over
    the rows z <= 0 with the pair I and I∘Mz, or I∘Mx and I∘Mx∘Mz, summed
    before the kernel: A = I + I∘Mz for Ez and B = I - I∘Mz for Ex and Ey,
    passed as ``field_sum``'s axial and transverse rows.  The middle row of
    an odd n_z pairs with itself, so its mirror current is 0 and A = B = I
    there.  Each family is cut into ``field_sum`` calls of at most
    :data:`BLOCK_PAIRS` (current row, point) pairs, A and B rows both
    counted.
    """
    if exc.currents.shape != (array.num_elements,):
        raise ValueError(
            f"excitation currents have shape {exc.currents.shape}; "
            f"({array.num_elements},) needed, one per element"
        )
    validate_clearance(array, grid)
    ex, ey, ez = np.empty((3, grid.num_points), np.complex128)
    k = wavenumber(array.wavelength)
    order, flip, starts, reps = _fold(grid.points)
    cur = exc.currents.reshape(array.n_x, array.n_z)
    half = (array.n_z + 1) // 2
    positions = array.element_positions.reshape(array.n_x, array.n_z, 3)
    on_plane = int(np.searchsorted(reps[:, 2], 0.0, side="right"))
    for paired, lo, hi in ((True, 0, on_plane), (False, on_plane, len(reps))):
        if lo == hi:
            continue
        # the flip codes this family's points need, and each code's row
        needed = np.bincount(flip[starts[lo] : starts[hi]], minlength=4) > 0
        codes, slot = np.flatnonzero(needed), np.cumsum(needed) - 1
        rows = np.stack([_mirrored(cur, f) for f in codes])
        if paired:
            # the z mirror of rows I and I∘Mx is their z-reversed slice; the
            # middle row of an odd n_z has no mirror
            elems = positions[:, :half].reshape(-1, 3)
            own, has_mirror = rows[:, :, :half], np.arange(half) < array.n_z // 2
            mirror = np.where(has_mirror, rows[:, :, ::-1][:, :, :half], 0)
            currents, transverse = (c.reshape(len(c), -1) for c in (own + mirror, own - mirror))
        else:
            elems = positions.reshape(-1, 3)
            currents, transverse = rows.reshape(len(rows), -1), None
        block = max(1, BLOCK_PAIRS // (len(codes) * (2 if paired else 1)))
        for b0 in range(lo, hi, block):
            b1 = min(b0 + block, hi)
            fx, fy, fz = kernels.field_sum(elems, currents, reps[b0:b1], k, transverse)
            s0, s1 = starts[b0], starts[b1]
            point = np.repeat(np.arange(b1 - b0), np.diff(starts[b0 : b1 + 1]))
            f = flip[s0:s1]
            row = slot[f]
            vx, vy, vz = fx[row, point], fy[row, point], fz[row, point]
            # sign back: Ex flips under one of the two mirrors, Ey under z
            np.negative(vx, out=vx, where=(f == 1) | (f == 2))
            np.negative(vy, out=vy, where=f >= 2)
            idx = order[s0:s1]
            ex[idx], ey[idx], ez[idx] = vx, vy, vz
            del fx, fy, fz, vx, vy, vz  # free this block before the next call
    return FieldGrid(grid=grid, ex=ex, ey=ey, ez=ez)


def export_field_csv(fg: FieldGrid, path: str | Path) -> None:
    """Write one row per grid point, row-major: the point, then re/im of Ex, Ey, Ez.

    Written by :func:`synthesis.write_csv`: each value as ``'%.17g' % v``
    writes it (exact float64 round trip, -0.0 as ``-0``), CSV_BLOCK_ROWS rows
    at a time, so memory does not grow with the grid.  Coordinates and field
    values under 1e-4 in magnitude, other than 0, go through Python's ``%``,
    the rest through the numpy formatter.
    """
    pts = fg.grid.points
    columns = (pts[:, 0], pts[:, 1], pts[:, 2])
    for e in (fg.ex, fg.ey, fg.ez):
        columns += (e.real, e.imag)
    write_csv(path, "px_m,py_m,pz_m,re_Ex,im_Ex,re_Ey,im_Ey,re_Ez,im_Ez", columns)
