import math

import numpy as np
import pytest

from nfbeam.geometry import SteeringAngles, to_primed
from nfbeam.wavefront import (
    ApexSingularity,
    SteeredWavefront,
    Wavefront,
    steer,
    surface_eval,
    surface_gradient,
)


def test_plane_is_zero_everywhere():
    w = Wavefront.plane()
    assert surface_eval(w, 3.2, -1.0) == 0.0
    assert surface_gradient(w, 5.0, 5.0) == (0.0, 0.0)


def test_cone_three_four_five():
    w = Wavefront.cone(0.2)
    assert surface_eval(w, 3.0, 4.0) == pytest.approx(1.0, abs=1e-15)


def test_cone_apex_is_zero():
    assert surface_eval(Wavefront.cone(0.2), 0.0, 0.0) == 0.0


def test_cone_gradient_on_axis_point():
    gx, gz = surface_gradient(Wavefront.cone(0.2), 1.0, 0.0)
    assert (gx, gz) == pytest.approx((0.2, 0.0), abs=1e-15)


def test_cone_gradient_matches_finite_differences():
    # frozen from a central-difference evaluation of the surface at (3, 4)
    w = Wavefront.cone(0.2)
    gx, gz = surface_gradient(w, 3.0, 4.0)
    assert (gx, gz) == pytest.approx((0.12, 0.16), abs=1e-6)
    h = 1e-6
    fdx = (surface_eval(w, 3 + h, 4) - surface_eval(w, 3 - h, 4)) / (2 * h)
    fdz = (surface_eval(w, 3, 4 + h) - surface_eval(w, 3, 4 - h)) / (2 * h)
    assert (gx, gz) == pytest.approx((fdx, fdz), abs=1e-6)


def test_cone_gradient_apex_raises():
    with pytest.raises(ApexSingularity):
        surface_gradient(Wavefront.cone(0.2), 0.0, 0.0)


def test_cone_requires_positive_slope():
    with pytest.raises(ValueError):
        Wavefront.cone(0.0)


def test_gradient_property_randomized(rng):
    surfaces = [
        Wavefront.cone(0.2),
        Wavefront.cone(0.47),
        Wavefront.custom(
            surface=lambda x, z: 0.3 * np.sqrt(x * x + z * z + 0.01),
            gradient=lambda x, z: (
                0.3 * x / np.sqrt(x * x + z * z + 0.01),
                0.3 * z / np.sqrt(x * x + z * z + 0.01),
            ),
        ),
    ]
    for w in surfaces:
        pts = rng.uniform(-1.0, 1.0, size=(300, 2))
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 1e-3]
        for x, z in pts:
            gx, gz = surface_gradient(w, x, z)
            h = 1e-6 * max(1.0, math.hypot(x, z))
            fdx = (surface_eval(w, x + h, z) - surface_eval(w, x - h, z)) / (2 * h)
            fdz = (surface_eval(w, x, z + h) - surface_eval(w, x, z - h)) / (2 * h)
            scale = max(math.hypot(fdx, fdz), 1e-12)
            assert math.hypot(gx - fdx, gz - fdz) / scale <= 1e-6


def test_custom_gradient_fallback_uses_finite_differences():
    w = Wavefront.custom(surface=lambda x, z: 0.1 * x * x + 0.2 * z)
    gx, gz = surface_gradient(w, 2.0, -1.0)
    assert gx == pytest.approx(0.4, rel=1e-9)
    assert gz == pytest.approx(0.2, rel=1e-9)


def test_cone_homogeneity(rng):
    w = Wavefront.cone(0.31)
    for _ in range(50):
        x, z = rng.uniform(-2, 2, size=2)
        s = rng.uniform(0.1, 10.0)
        lhs = surface_eval(w, s * x, s * z)
        rhs = s * surface_eval(w, x, z)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def tilted_plane_eval(angles, x, z):
    """Height of the steered plane wavefront expressed in the original frame.

    y0 = x * tan(az) + z * tan(el) / cos(az); equivalent to rotating the
    y' = 0 plane back into the original frame.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    val = x * np.tan(angles.azimuth) + z * np.tan(angles.elevation) / np.cos(angles.azimuth)
    return val if val.ndim else float(val)


def test_tilted_plane_zero_angles():
    angles = SteeringAngles(0.0, 0.0)
    assert tilted_plane_eval(angles, 12.0, -7.0) == 0.0


def test_tilted_plane_45deg_azimuth():
    angles = SteeringAngles.from_degrees(45.0, 0.0)
    assert tilted_plane_eval(angles, 1.0, 7.0) == pytest.approx(1.0, abs=1e-15)


def test_tilted_plane_30deg_elevation():
    # direct evaluation: tan(30 deg)
    angles = SteeringAngles.from_degrees(0.0, 30.0)
    assert tilted_plane_eval(angles, 0.0, 1.0) == pytest.approx(
        0.5773502691896257, abs=1e-12
    )


def test_tilted_plane_consistent_with_rotation(rng):
    # points on the tilted plane must land on y' = 0 in the steered frame
    for _ in range(100):
        az, el = rng.uniform(-1.48, 1.48, size=2)
        angles = SteeringAngles(az, el)
        sw = steer(Wavefront.plane(), angles)
        x, z = rng.uniform(-0.08, 0.08, size=2)
        y = tilted_plane_eval(angles, x, z)
        primed = to_primed(sw.rotation, np.array([x, y, z]))
        assert abs(primed[1]) <= 1e-9


def test_steered_wavefront_caches_rotation():
    angles = SteeringAngles.from_degrees(20.0, 10.0)
    sw = SteeredWavefront(base=Wavefront.cone(0.2), angles=angles)
    from nfbeam.geometry import steering_rotation

    assert np.array_equal(sw.rotation, steering_rotation(angles))


def test_surface_eval_broadcasts():
    w = Wavefront.cone(0.2)
    x = np.array([0.0, 3.0])
    z = np.array([0.0, 4.0])
    np.testing.assert_allclose(surface_eval(w, x, z), [0.0, 1.0])
