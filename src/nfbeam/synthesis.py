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
    """Planar rectangular array in the xz-plane, centered on the origin; its
    lattice axes are ``column_x`` (n_x,) and ``row_z`` (n_z,)."""

    n_x: int
    n_z: int
    spacing: float
    wavelength: float
    column_x: np.ndarray = field(init=False, repr=False, compare=False)
    row_z: np.ndarray = field(init=False, repr=False, compare=False)
    element_positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_x < 1 or self.n_z < 1:
            raise ValueError("element counts must be positive")
        for name, value in (("spacing", self.spacing), ("wavelength", self.wavelength)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        xs = (np.arange(self.n_x) - (self.n_x - 1) / 2.0) * self.spacing
        zs = (np.arange(self.n_z) - (self.n_z - 1) / 2.0) * self.spacing
        pos = np.zeros((self.n_x * self.n_z, 3))
        pos[:, 0] = np.repeat(xs, self.n_z)
        pos[:, 2] = np.tile(zs, self.n_x)
        for name, value in (("column_x", xs), ("row_z", zs), ("element_positions", pos)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

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

# Exact %.17g in numpy.  A value v with 1e-4 <= |v| < 1e16 has a decade
# x = floor(log10 |v|) in -4..15, and %.17g writes it in fixed notation from
# the 17-digit integer D = round-half-even(|v| 10^(16 - x)): the digits of D,
# a point after digit x (or "0." and -x - 1 zeros before them when x < 0),
# trailing zeros and a trailing point stripped.  |v| 10^(16 - x) is formed
# exactly as hi + lo by Dekker's product, since 10^p is a float64 for
# p <= 22.  D never rounds up to 10^17: the float64 just below each power of
# ten from 1e-4 to 1e16 lies at least 8.3e-17 of it below, and a carry needs
# 5e-18.  Every other value, +-0 aside, is formatted by Python's % one at a
# time.
_POW10 = np.multiply.accumulate(np.r_[1.0, np.full(22, 10.0)])
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI

# the four ASCII digits of 0..9999, one uint32 each, and their trailing zeros
_DIGIT = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1)  # most significant first
_DIGITS4 = np.ascontiguousarray((_DIGIT + np.uint8(ord("0"))).T).view(np.uint32)[:, 0]
_ZERO = _DIGIT == 0
_ZEROS4 = _ZERO[3] * (1 + _ZERO[2] * (1 + _ZERO[1] * (1 + _ZERO[0].astype(np.intp))))
_E8 = np.int64(10**8)
_E4 = np.int64(10**4)

# A value's text is laid out in a row of _WIDTH bytes, then cut from column
# `start` to its separator at column `end`.  _INT_PART[x + 5] is 0xff on the
# columns that hold leading zeros and the integer digits; _WINDOW[start *
# _WIDTH + end] is True on columns start..end.
_WIDTH = 28
_COLS = np.arange(_WIDTH)
_INT_PART = np.where(_COLS <= np.arange(23)[:, None], 255, 0).astype(np.uint8)
_WINDOW = (_COLS >= np.arange(6)[:, None, None]) & (_COLS <= _COLS[:, None])
_WINDOW = _WINDOW.reshape(-1, _WIDTH)


class _Formatter:
    """``%.17g`` text of up to ``size`` float64 values at a time.

    The values go into :attr:`values`; :meth:`text` returns their text, each
    followed by ``seps[i]``, as a view of a buffer that the next call
    overwrites.  Every buffer is a view of the calling thread's
    :func:`kernels.scratch` buffer, taken here and reused by every block
    with ``out=``, so blocks allocate no temporaries of their size.  The
    views are valid until the thread's next scratch request.
    """

    def __init__(self, size: int, seps: np.ndarray) -> None:
        self.seps = seps
        # D's digits go in words 1..5 of a row of seven: one, then four groups
        # of four.  Word 0 is set to 0, "0000", here; word 6 only pads the row
        # to _WIDTH bytes and no text reads it.  A spare row lets the layout
        # below read two bytes past the last row.  mask holds the integer-part
        # mask, then the window of each text.
        (
            self.values, self.floats, self.flags, self.ints, self.groups, self.digits,
            self.row, self.mask, self.out, self.row_base,
        ) = kernels.scratch(
            ((size,), np.float64),
            ((7, size), np.float64),
            ((4, size), bool),
            ((6, size), np.intp),
            ((size, 7), np.int64),
            ((size + 1, 7), np.uint32),
            ((size * _WIDTH,), np.uint8),
            ((size, _WIDTH), np.uint8),
            ((size * _WIDTH,), np.uint8),
            ((size,), np.intp),
        )
        self.groups[:, 0] = 0
        np.multiply(np.arange(size), _WIDTH, out=self.row_base)

    def _scale(self, n: int) -> None:
        # hi + lo = a 10^p exactly (Dekker's product)
        a, hi, lo, ph, pl, ah, al = self.floats[:, :n]
        p = self.ints[0, :n]
        np.take(_POW10, p, out=hi, mode="clip")
        np.multiply(a, hi, out=hi)
        np.take(_POW10_HI, p, out=ph, mode="clip")
        np.take(_POW10_LO, p, out=pl, mode="clip")
        np.multiply(a, _SPLIT, out=lo)
        np.subtract(lo, a, out=ah)
        np.subtract(lo, ah, out=ah)
        np.subtract(a, ah, out=al)
        np.multiply(ah, ph, out=lo)
        np.subtract(lo, hi, out=lo)
        np.multiply(ah, pl, out=ah)
        np.add(lo, ah, out=lo)
        np.multiply(al, ph, out=ah)
        np.add(lo, ah, out=lo)
        np.multiply(al, pl, out=ah)
        np.add(lo, ah, out=lo)

    def text(self, n: int) -> np.ndarray:
        """The text of ``values[:n]``, as uint8."""
        v = self.values[:n]
        a, hi, lo = self.floats[:3, :n]
        neg, fallback, flag, flag2 = self.flags[:, :n]
        p, q, start, end, zeros, tmp = self.ints[:, :n]
        g = self.groups[:n]
        row_base = self.row_base[:n]
        # |v| outside [1e-4, 1e16), nan included, goes to the fallback; its
        # arithmetic runs on 1.0
        np.abs(v, out=a)
        np.signbit(v, out=neg)
        np.greater_equal(a, 1e-4, out=fallback)
        np.less(a, 1e16, out=flag)
        np.logical_and(fallback, flag, out=fallback)
        np.logical_not(fallback, out=fallback)
        np.copyto(a, 1.0, where=fallback)
        # p = 16 - x; log10 can miss the decade by one next to a power of ten,
        # so p moves until 10^16 <= hi + lo < 10^17
        np.log10(a, out=hi)
        np.floor(hi, out=hi)
        np.subtract(16.0, hi, out=hi)
        np.copyto(p, hi, casting="unsafe")
        self._scale(n)
        while True:
            np.less_equal(hi, 1e16, out=flag)
            np.greater_equal(hi, 1e17, out=flag2)
            np.logical_or(flag, flag2, out=flag)
            i = np.flatnonzero(flag)
            h, l = hi[i], lo[i]
            step = ((h < 1e16) | ((h == 1e16) & (l < 0))).astype(np.intp)
            step -= (h > 1e17) | ((h == 1e17) & (l >= 0))
            if not step.any():
                break
            p[i] += step
            self._scale(n)
        # D = hi + rint(lo): hi >= 10^16 is an even integer, so rounding lo
        # half to even rounds hi + lo half to even
        np.rint(lo, out=lo)
        np.copyto(g[:, 1], hi, casting="unsafe")
        np.copyto(tmp, lo, casting="unsafe")
        np.add(g[:, 1], tmp, out=g[:, 1])
        np.divmod(g[:, 1], _E8, out=(g[:, 1], g[:, 5]))
        np.divmod(g[:, 5], _E4, out=(g[:, 4], g[:, 5]))
        np.divmod(g[:, 1], _E4, out=(g[:, 1], g[:, 3]))
        np.divmod(g[:, 1], _E4, out=(g[:, 1], g[:, 2]))
        np.take(_DIGITS4, g, out=self.digits[:n], mode="clip")
        # trailing zeros of D
        np.take(_ZEROS4, g[:, 5], out=zeros, mode="clip")
        for w, below in ((4, 4), (3, 8), (2, 12)):
            np.take(_ZEROS4, g[:, w], out=tmp, mode="clip")
            np.equal(zeros, below, out=flag)
            np.multiply(tmp, flag, out=tmp)
            np.add(zeros, tmp, out=zeros)
        # The row: column 0 free for the sign, then "0000" and the digits in
        # columns 1..x + 5, the point at column x + 6 and the other digits
        # after it.  The text starts at the last of those zeros for x < 0,
        # and at the first digit otherwise.
        size = n * _WIDTH
        row = self.row[:size]
        digits = self.digits.reshape(-1).view(np.uint8)
        np.subtract(21, p, out=q)  # x + 5
        np.take(_INT_PART, q, axis=0, out=self.mask[:n], mode="clip")
        np.bitwise_xor(digits[1 : size + 1], digits[2 : size + 2], out=row)
        np.bitwise_and(row, self.mask[:n].reshape(-1), out=row)
        np.bitwise_xor(row, digits[1 : size + 1], out=row)
        np.add(row_base, q, out=tmp)
        np.add(tmp, 1, out=tmp)
        row[tmp] = ord(".")
        np.subtract(q, 1, out=start)
        np.minimum(start, 4, out=start)
        np.add(row_base, start, out=tmp)
        row[tmp] = ord("-")
        np.add(start, 1, out=start)
        np.subtract(start, neg, out=start)
        # the text ends after its last nonzero digit, or before the point
        # when that digit is in the integer part
        np.subtract(23, zeros, out=end)
        np.add(q, 2, out=tmp)
        np.less_equal(end, tmp, out=flag)
        np.subtract(tmp, 1, out=tmp)
        np.copyto(end, tmp, where=flag)
        # +-0 was formatted as +-1
        np.equal(v, 0.0, out=flag)
        rows = row.reshape(n, _WIDTH)
        np.copyto(rows[:, 5], ord("0"), where=flag)
        np.logical_not(flag, out=flag)
        np.logical_and(fallback, flag, out=fallback)
        i = np.flatnonzero(fallback)
        if i.size:
            text = [b"%.17g" % x for x in v[i].tolist()]
            rows[i, 1:25] = np.array(text, "S24").view(np.uint8).reshape(-1, 24)
            start[i] = 1
            end[i] = [len(t) + 1 for t in text]
        np.add(row_base, end, out=tmp)
        row[tmp] = self.seps[:n]
        np.multiply(start, _WIDTH, out=tmp)
        np.add(tmp, end, out=tmp)
        window = self.mask[:n].view(bool)
        np.take(_WINDOW, tmp, axis=0, out=window, mode="clip")
        np.subtract(end, start, out=tmp)
        out = self.out[: int(tmp.sum()) + n]
        np.compress(window.reshape(-1), row, out=out)
        return out


def write_csv(path: str | Path, header: str, columns: tuple[np.ndarray, ...]) -> None:
    """Write ``header``, then row i of the equal-length float64 ``columns``.

    Every value is written as ``'%.17g' % v`` would write it (exact float64
    round trip, -0.0 as ``-0``), CSV_BLOCK_ROWS rows at a time.  Values with
    1e-4 <= |v| < 1e16 and +-0 are formatted by exact float64 and int64
    arithmetic in numpy, the rest one at a time by Python's ``%``.
    """
    rows = len(columns[0])
    block = min(rows, CSV_BLOCK_ROWS) * len(columns)
    seps = np.full((block // len(columns), len(columns)), ord(","), np.uint8)
    seps[:, -1] = ord("\n")
    fmt = _Formatter(block, seps.reshape(-1))
    with open(path, "wb") as f:
        f.write(header.encode() + b"\n")
        for s in range(0, rows, CSV_BLOCK_ROWS):
            n = min(rows - s, CSV_BLOCK_ROWS)
            values = fmt.values[: n * len(columns)].reshape(n, len(columns))
            for j, c in enumerate(columns):
                values[:, j] = c[s : s + n]
            f.write(fmt.text(values.size))


def export_phase_csv(pd: PhaseDistribution, path: str | Path) -> None:
    """Write the per-element phase map, one row per element in index order.

    Columns: x, z, phase wrapped into [0, 2*pi), unwrapped phase and signed
    distance, written by :func:`write_csv`: each value as ``'%.17g' % v``
    writes it, CSV_BLOCK_ROWS rows at a time.  Nonzero values under 1e-4 in
    magnitude, mostly small distances and their phases, go through Python's
    ``%``; the rest through the numpy formatter.
    """
    pos = pd.array.element_positions
    columns = (pos[:, 0], pos[:, 2], np.mod(pd.phases, TWO_PI), pd.phases, pd.signed_distances)
    write_csv(path, "x_m,z_m,phase_rad_wrapped,phase_rad_unwrapped,distance_m", columns)
