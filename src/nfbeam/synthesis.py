"""Per-element phase synthesis: distances to the steered wavefront become
phase shifts and unit-magnitude excitation currents.

Element (i, j) of the centered rectangular array sits at
x = (i - (n_x-1)/2) * spacing, z = (j - (n_z-1)/2) * spacing, y = 0, and
elements are indexed row-major as n = i * n_z + j.  The excitation
I_n = exp(+j * phase_n) cancels the phase progression over the element's
distance to the wavefront, co-phasing all contributions on the surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .solver import SolverConfig, SolverFailure, oracle_signed_min_distance
from .wavefront import SteeredWavefront

TWO_PI = 2.0 * math.pi

# Nothing calls this name: perfbench's tracer looks it up on this module in
# every traced run.  It goes when the benchmark next changes.
solve_foot = None


@dataclass(frozen=True)
class ArrayGeometry:
    """Planar rectangular array in the xz-plane, centered on the origin."""

    n_x: int
    n_z: int
    spacing: float
    wavelength: float
    element_positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_x < 1 or self.n_z < 1:
            raise ValueError("element counts must be positive")
        if self.spacing <= 0 or self.wavelength <= 0:
            raise ValueError("spacing and wavelength must be positive")
        xs = (np.arange(self.n_x) - (self.n_x - 1) / 2.0) * self.spacing
        zs = (np.arange(self.n_z) - (self.n_z - 1) / 2.0) * self.spacing
        pos = np.zeros((self.n_x * self.n_z, 3))
        pos[:, 0] = np.repeat(xs, self.n_z)
        pos[:, 2] = np.tile(zs, self.n_x)
        pos.setflags(write=False)
        object.__setattr__(self, "element_positions", pos)

    @classmethod
    def half_wave(cls, n_x: int, n_z: int, wavelength: float) -> "ArrayGeometry":
        return cls(n_x=n_x, n_z=n_z, spacing=wavelength / 2.0, wavelength=wavelength)

    @property
    def num_elements(self) -> int:
        return self.n_x * self.n_z

    @property
    def aperture_sides(self) -> tuple[float, float]:
        """Physical footprint per axis, counting one spacing cell per element."""
        return self.n_x * self.spacing, self.n_z * self.spacing

    @property
    def aperture_radius(self) -> float:
        """Half the diagonal of the array footprint."""
        sx, sz = self.aperture_sides
        return 0.5 * math.hypot(sx, sz)


@dataclass(frozen=True)
class PhaseDistribution:
    """Signed wavefront distances and unwrapped phase shifts per element."""

    array: ArrayGeometry
    signed_distances: np.ndarray
    phases: np.ndarray

    def phase_grid(self) -> np.ndarray:
        """Phases reshaped to (n_x, n_z)."""
        return self.phases.reshape(self.array.n_x, self.array.n_z)


@dataclass(frozen=True)
class Excitation:
    """Unit-magnitude complex excitation currents, one per element."""

    currents: np.ndarray


def phase_shift(distance, wavelength: float):
    """Phase progression over ``distance`` at the given wavelength: 2*pi*d/lambda."""
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    return TWO_PI * distance / wavelength


def synthesize(array: ArrayGeometry, w: SteeredWavefront) -> PhaseDistribution:
    """Solve every element's distance to the steered wavefront and phase it.

    One batch :func:`kernels.nearest_feet` call for every wavefront kind.
    Elements where Newton fails fall back to the brute-force oracle over a
    box four times the aperture's larger side; only if that also fails does
    :class:`SolverFailure` propagate.
    """
    cfg = SolverConfig(oracle_halfwidth=4.0 * max(array.aperture_sides))
    pos = array.element_positions
    batch = kernels.nearest_feet(pos @ w.rotation.T, w.base)
    dist = batch.signed_distance
    for n in np.flatnonzero(~batch.converged):
        dist[n] = oracle_signed_min_distance(w, pos[n], cfg)
    if not np.all(np.isfinite(dist)):
        raise SolverFailure("non-finite distance after Newton and oracle fallback")
    phases = phase_shift(dist, array.wavelength)
    return PhaseDistribution(array=array, signed_distances=dist, phases=phases)


def to_excitation(pd: PhaseDistribution) -> Excitation:
    """I_n = exp(+j * phase_n); magnitudes are exactly one."""
    return Excitation(currents=np.exp(1j * pd.phases))


def wrap_phase(pd: PhaseDistribution) -> PhaseDistribution:
    """Phases mapped into [0, 2*pi) for presentation; distances untouched."""
    return PhaseDistribution(
        array=pd.array,
        signed_distances=pd.signed_distances,
        phases=np.mod(pd.phases, TWO_PI),
    )


CSV_BLOCK_ROWS = 1024


def write_csv(path: str | Path, header: str, columns: tuple[np.ndarray, ...]) -> None:
    """Write ``header``, then row i of the equal-length float64 ``columns``.

    Values are ``%.17g`` (exact float64 round trip, -0.0 as ``-0``), written
    CSV_BLOCK_ROWS rows at a time.  A column whose block has at most half as
    many distinct bit patterns as rows formats each pattern once; keying on
    the bits keeps -0.0 apart from 0.0.
    """
    with open(path, "w") as f:
        f.write(header + "\n")
        for s in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            blocks = [c[s : s + CSV_BLOCK_ROWS] for c in columns]
            for j, block in enumerate(blocks):
                bits, inv = np.unique(block.view(np.int64), return_inverse=True)
                if 2 * len(bits) <= len(block):
                    text = ["%.17g" % v for v in bits.view(np.float64).tolist()]
                    blocks[j] = np.array(text, dtype=object)[inv]
            row = ",".join("%s" if b.dtype == object else "%.17g" for b in blocks) + "\n"
            f.write((row * len(blocks[0])) % tuple(np.column_stack(blocks).ravel().tolist()))


def export_phase_csv(pd: PhaseDistribution, path: str | Path) -> None:
    """Write the per-element phase map, one row per element in index order.

    Columns: x, z, phase wrapped into [0, 2*pi), unwrapped phase and signed
    distance, written by :func:`write_csv` (``%.17g``, CSV_BLOCK_ROWS at a time).
    """
    pos = pd.array.element_positions
    columns = (pos[:, 0], pos[:, 2], np.mod(pd.phases, TWO_PI), pd.phases, pd.signed_distances)
    write_csv(path, "x_m,z_m,phase_rad_wrapped,phase_rad_unwrapped,distance_m", columns)
