"""Rotations and coordinate transforms between the array frame and the steered frame.

The steered ("primed") frame is obtained by rotating the coordinate system
first about the z-axis by the azimuth angle, then about the x-axis by the
elevation angle, so that the primed y-axis points along the steering
direction.  Positive azimuth tilts the beam toward -x, positive elevation
toward -z; this sign convention is fixed by the rotation matrices below and
is what the rest of the package is built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_HALF_PI = math.pi / 2.0


class AngleRangeError(ValueError):
    """Steering angle outside the open interval (-90 deg, +90 deg)."""


@dataclass(frozen=True)
class SteeringAngles:
    """Azimuth/elevation steering pair, radians.

    Both angles must lie strictly inside (-pi/2, pi/2); beyond that the
    steered wavefront folds under the array plane and no phase
    distribution exists.
    """

    azimuth: float
    elevation: float

    def __post_init__(self) -> None:
        for name, value in (("azimuth", self.azimuth), ("elevation", self.elevation)):
            if not math.isfinite(value):
                raise AngleRangeError(f"{name} must be finite, got {value!r}")
            if not -_HALF_PI < value < _HALF_PI:
                raise AngleRangeError(
                    f"{name} must lie strictly inside (-pi/2, pi/2), got {value!r} rad"
                )

    @classmethod
    def from_degrees(cls, azimuth_deg: float, elevation_deg: float) -> "SteeringAngles":
        """Degree-based constructor for use at tool boundaries."""
        return cls(math.radians(azimuth_deg), math.radians(elevation_deg))

    @property
    def azimuth_deg(self) -> float:
        return math.degrees(self.azimuth)

    @property
    def elevation_deg(self) -> float:
        return math.degrees(self.elevation)


def rot_x(theta_el: float) -> np.ndarray:
    """Rotation of the coordinate system about the x-axis by ``theta_el``."""
    c, s = math.cos(theta_el), math.sin(theta_el)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_z(theta_az: float) -> np.ndarray:
    """Rotation of the coordinate system about the z-axis by ``theta_az``."""
    c, s = math.cos(theta_az), math.sin(theta_az)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def steering_rotation(angles: SteeringAngles) -> np.ndarray:
    """Combined frame rotation: elevation about x applied after azimuth about z."""
    return rot_x(angles.elevation) @ rot_z(angles.azimuth)


def to_primed(rotation: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Coordinates of ``point`` expressed in the steered frame."""
    return rotation @ np.asarray(point, dtype=float)
