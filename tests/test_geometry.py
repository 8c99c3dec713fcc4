import math

import numpy as np
import pytest

from nfbeam.geometry import (
    AngleRangeError,
    SteeringAngles,
    rot_x,
    rot_z,
    steering_rotation,
    to_primed,
)


def test_rot_x_identity_at_zero():
    assert np.array_equal(rot_x(0.0), np.eye(3))


def test_rot_x_quarter_turn_moves_y_to_z():
    out = rot_x(math.pi / 2) @ np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(out, [0.0, 0.0, 1.0], atol=1e-15)


def test_rot_x_inverse_pair():
    theta = 0.7
    np.testing.assert_allclose(rot_x(theta) @ rot_x(-theta), np.eye(3), atol=1e-12)


def test_rot_z_identity_at_zero():
    assert np.array_equal(rot_z(0.0), np.eye(3))


def test_rot_z_quarter_turn_moves_x_to_minus_y():
    out = rot_z(math.pi / 2) @ np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(out, [0.0, -1.0, 0.0], atol=1e-15)


def test_rot_z_orthonormal():
    r = rot_z(0.3)
    np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)


def test_steering_rotation_identity():
    r = steering_rotation(SteeringAngles(0.0, 0.0))
    assert np.array_equal(r, np.eye(3))


def test_steering_rotation_azimuth_only_is_rot_z():
    angles = SteeringAngles.from_degrees(20.0, 0.0)
    np.testing.assert_array_equal(
        steering_rotation(angles), rot_z(math.radians(20.0))
    )


def test_steering_rotation_y_component_of_array_point():
    # symbolic product of the two factor matrices gives
    # y' = -cos(el) sin(az) x - sin(el) z for a point in the array plane
    angles = SteeringAngles.from_degrees(30.0, 0.0)
    x_a, z_a = 0.7, -0.3
    p = steering_rotation(angles) @ np.array([x_a, 0.0, z_a])
    assert p[1] == pytest.approx(-x_a * math.sin(math.radians(30.0)), abs=1e-15)


def test_to_primed_identity():
    p = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(to_primed(np.eye(3), p), p)


def test_round_trip(rng):
    angles = SteeringAngles(0.4, -0.9)
    r = steering_rotation(angles)
    for _ in range(20):
        p = rng.normal(size=3)
        np.testing.assert_allclose(r.T @ to_primed(r, p), p, atol=1e-12)


def test_norm_preservation(rng):
    for _ in range(50):
        az, el = rng.uniform(-1.5, 1.5, size=2)
        r = steering_rotation(SteeringAngles(az, el))
        p = rng.normal(size=3)
        assert np.linalg.norm(r @ p) == pytest.approx(np.linalg.norm(p), abs=1e-12)


def test_transpose_is_numerical_inverse():
    r = steering_rotation(SteeringAngles(0.5, 0.2))
    np.testing.assert_allclose(r.T, np.linalg.inv(r), atol=1e-12)


def test_orthonormality_and_determinant(rng):
    for _ in range(100):
        az, el = rng.uniform(-1.55, 1.55, size=2)
        r = steering_rotation(SteeringAngles(az, el))
        assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-12
        assert abs(np.linalg.det(r) - 1.0) <= 1e-12


def test_composition_order_matters():
    theta = math.radians(20.0)
    ours = steering_rotation(SteeringAngles(theta, theta))
    other = rot_z(theta) @ rot_x(theta)
    assert np.max(np.abs(ours - other)) > 1e-3


def test_angle_validation_rejects_out_of_range():
    with pytest.raises(AngleRangeError):
        SteeringAngles(math.pi / 2, 0.0)
    with pytest.raises(AngleRangeError):
        SteeringAngles.from_degrees(0.0, 95.0)
    with pytest.raises(AngleRangeError):
        SteeringAngles(float("nan"), 0.0)


def test_from_degrees_matches_radians():
    a = SteeringAngles.from_degrees(20.0, -40.0)
    assert a.azimuth == pytest.approx(math.radians(20.0))
    assert a.elevation == pytest.approx(math.radians(-40.0))
    assert a.azimuth_deg == pytest.approx(20.0)
    assert a.elevation_deg == pytest.approx(-40.0)
