"""Canonical phase-wavefront surfaces y' = f(x', z') and their steered pairing.

A beam type is defined by the surface connecting points of equal phase of
the emitted wave.  A planar surface produces an ordinary (Gaussian) beam,
a cone produces a Bessel beam; arbitrary user surfaces are supported for
other quasi-nondiffracting beams.  Steering never reshapes the surface:
a ``SteeredWavefront`` keeps the canonical surface and carries the frame
rotation, and all distance computations happen in the rotated frame where
the surface stays canonical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import SteeringAngles, steering_rotation

PLANE = "plane"
CONE = "cone"
CUSTOM = "custom"


@dataclass(frozen=True)
class Wavefront:
    """A canonical surface y' = f(x', z').

    Use the :meth:`plane`, :meth:`cone` and :meth:`custom` constructors.
    ``h_over_r`` is the axicon slope of the cone surface (height over base
    radius) and 0 for the plane, the cone of slope 0; both have a
    closed-form distance.  Custom surfaces, which Newton solves, provide
    ``surface`` and optionally ``gradient`` callables, both accepting numpy
    arrays and broadcasting over them.
    """

    kind: str
    h_over_r: float = 0.0
    surface: Callable | None = None
    gradient: Callable | None = None

    @classmethod
    def plane(cls) -> "Wavefront":
        """Flat surface y' = 0 (plane-wavefront beam)."""
        return cls(kind=PLANE)

    @classmethod
    def cone(cls, h_over_r: float = 0.2) -> "Wavefront":
        """Cone y' = (h/r) * sqrt(x'^2 + z'^2) opening along +y' (Bessel beam)."""
        if not 0.0 < h_over_r < np.inf:
            raise ValueError(f"h_over_r must be positive and finite, got {h_over_r!r}")
        return cls(kind=CONE, h_over_r=float(h_over_r))

    @classmethod
    def custom(cls, surface: Callable, gradient: Callable | None = None) -> "Wavefront":
        """User surface f(x, z); gradient optional (finite differences otherwise).

        Both callables must be pure functions of (x, z) and accept numpy
        arrays.  ``gradient`` returns the pair (df/dx, df/dz).
        """
        return cls(kind=CUSTOM, surface=surface, gradient=gradient)


def _fd_step(x, z):
    """Central-difference step 1e-6 * max(1, ||(x, z)||)."""
    return 1e-6 * np.maximum(1.0, np.sqrt(x * x + z * z))


def surface_eval(w: Wavefront, x, z):
    """Surface height f(x, z) of the canonical wavefront."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if w.kind == CUSTOM:
        val = w.surface(x, z)
    else:
        # the plane is the cone of slope 0
        val = w.h_over_r * np.sqrt(x * x + z * z)
    return val if np.ndim(val) else float(val)


def surface_gradient(w: Wavefront, x, z):
    """(df/dx, df/dz) of the canonical surface, for Newton.

    A custom surface's comes from its ``gradient`` when it has one.  Any
    other surface falls back to central finite differences with step
    :func:`_fd_step`, which are exactly zero on the plane.  Only custom
    surfaces reach Newton; the plane and the cone take their closed form
    (:func:`kernels.cone_feet`).
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if w.gradient is not None:
        gx, gz = w.gradient(x, z)
    else:
        h = _fd_step(x, z)
        gx = (surface_eval(w, x + h, z) - surface_eval(w, x - h, z)) / (2.0 * h)
        gz = (surface_eval(w, x, z + h) - surface_eval(w, x, z - h)) / (2.0 * h)
    gx, gz = np.asarray(gx, dtype=float), np.asarray(gz, dtype=float)
    return (gx, gz) if gx.ndim else (float(gx), float(gz))


def surface_hessian(w: Wavefront, x, z):
    """(d2f/dx2, d2f/dxdz, d2f/dz2) of the canonical surface.

    Central differences of :func:`surface_gradient` with step
    :func:`_fd_step`, on arrays ``x`` and ``z``.  Only Newton needs it, so
    only custom surfaces (:func:`kernels.nearest_feet`).
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    h = _fd_step(x, z)
    gxp, gzp = surface_gradient(w, x + h, z)
    gxm, gzm = surface_gradient(w, x - h, z)
    _, gzp2 = surface_gradient(w, x, z + h)
    _, gzm2 = surface_gradient(w, x, z - h)
    fxx = (gxp - gxm) / (2.0 * h)
    fxz = (gzp - gzm) / (2.0 * h)
    fzz = (gzp2 - gzm2) / (2.0 * h)
    return fxx, fxz, fzz


@dataclass(frozen=True)
class SteeredWavefront:
    """A canonical wavefront paired with steering angles and the cached rotation."""

    base: Wavefront
    angles: SteeringAngles
    rotation: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rotation", steering_rotation(self.angles))


def steer(base: Wavefront, angles: SteeringAngles) -> SteeredWavefront:
    return SteeredWavefront(base=base, angles=angles)
