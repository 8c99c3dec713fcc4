import math

import numpy as np
import pytest

from nfbeam import kernels
from nfbeam.geometry import SteeringAngles, to_primed
from nfbeam.solver import (
    SolverConfig,
    cone_distance_closed_form,
    oracle_cell_diagonal,
    oracle_min_distance,
    oracle_signed_min_distance,
    plane_distance_closed_form,
)
from nfbeam.wavefront import Wavefront, steer, surface_eval

WAVELENGTH = 0.003
# point-to-ray reduction in the meridian half-plane: rho * (h/r) / sqrt(1 + (h/r)^2)
UNSTEERED_CONE_D_RHO1 = 0.2 / math.sqrt(1.04)


def quick_cfg(halfwidth=None, grid=501):
    return SolverConfig(oracle_grid=grid, oracle_halfwidth=halfwidth)


def nearest_row(sw, pos):
    """One-row ``kernels.nearest_feet`` call for an element in the array plane."""
    return kernels.nearest_feet(to_primed(sw.rotation, pos)[None], sw.base)


def foot_3d(sw, feet):
    """The row's foot in the steered frame, its y read off the surface."""
    x, z = float(feet.foot_x[0]), float(feet.foot_z[0])
    return np.array([x, surface_eval(sw.base, x, z), z])


class TestPlaneClosedForm:
    def test_zero_angles(self):
        angles = SteeringAngles(0.0, 0.0)
        assert plane_distance_closed_form(angles, np.array([0.4, 0.0, -0.2])) == 0.0

    def test_half_wavelength_at_30deg(self):
        angles = SteeringAngles.from_degrees(30.0, 0.0)
        d = plane_distance_closed_form(angles, np.array([WAVELENGTH, 0.0, 0.0]))
        assert d == pytest.approx(WAVELENGTH / 2.0, rel=1e-15)

    def test_elevation_limit(self):
        eps = 1e-9
        angles = SteeringAngles(0.0, math.pi / 2 - eps)
        d = plane_distance_closed_form(angles, np.array([0.0, 0.0, WAVELENGTH]))
        assert d == pytest.approx(WAVELENGTH, rel=1e-9)


class TestSolveFootPlane:
    def test_signed_distance_matches_closed_form(self, rng):
        for _ in range(50):
            az, el = rng.uniform(-1.2, 1.2, size=2)
            angles = SteeringAngles(az, el)
            sw = steer(Wavefront.plane(), angles)
            pos = np.array([rng.uniform(-0.1, 0.1), 0.0, rng.uniform(-0.1, 0.1)])
            feet = nearest_row(sw, pos)
            ref = plane_distance_closed_form(angles, pos)
            assert feet.signed_distance[0] == pytest.approx(ref, abs=1e-12)

    def test_gaussian_regression_32x32(self):
        # the numerical solve must reproduce the closed-form steering phase
        # over the full angle grid; this is the plane-beam validity check
        from nfbeam.synthesis import ArrayGeometry

        array = ArrayGeometry.half_wave(32, 32, WAVELENGTH)
        worst = 0.0
        for az_deg in (-40, -20, 0, 20, 40):
            for el_deg in (-40, -20, 0, 20, 40):
                angles = SteeringAngles.from_degrees(az_deg, el_deg)
                sw = steer(Wavefront.plane(), angles)
                for pos in array.element_positions[::7]:
                    feet = nearest_row(sw, pos)
                    ref = plane_distance_closed_form(angles, pos)
                    worst = max(worst, abs(feet.signed_distance[0] - ref))
        assert worst <= 1e-9


class TestSolveFootCone:
    def test_unsteered_element_at_unit_radius(self):
        sw = steer(Wavefront.cone(0.2), SteeringAngles(0.0, 0.0))
        feet = nearest_row(sw, np.array([1.0, 0.0, 0.0]))
        assert feet.signed_distance[0] == pytest.approx(UNSTEERED_CONE_D_RHO1, abs=1e-12)

    def test_unsteered_element_at_origin(self):
        sw = steer(Wavefront.cone(0.2), SteeringAngles(0.0, 0.0))
        feet = nearest_row(sw, np.array([0.0, 0.0, 0.0]))
        assert feet.signed_distance[0] == 0.0

    def test_matches_meridian_reduction_when_steered(self, rng):
        for _ in range(50):
            m = rng.uniform(0.05, 0.5)
            az, el = rng.uniform(-0.9, 0.9, size=2)
            sw = steer(Wavefront.cone(m), SteeringAngles(az, el))
            pos = np.array([rng.uniform(-0.1, 0.1), 0.0, rng.uniform(-0.1, 0.1)])
            feet = nearest_row(sw, pos)
            ref = cone_distance_closed_form(m, to_primed(sw.rotation, pos))
            assert feet.signed_distance[0] == pytest.approx(ref, abs=1e-12)

    def test_residual_certificate_and_normal_alignment(self, rng):
        for _ in range(40):
            m = rng.uniform(0.05, 0.5)
            az, el = rng.uniform(-0.9, 0.9, size=2)
            sw = steer(Wavefront.cone(m), SteeringAngles(az, el))
            pos = np.array([rng.uniform(-0.1, 0.1), 0.0, rng.uniform(-0.1, 0.1)])
            feet = nearest_row(sw, pos)
            foot = foot_3d(sw, feet)
            pe = to_primed(sw.rotation, pos)
            assert abs(feet.signed_distance[0]) == pytest.approx(
                np.linalg.norm(foot - pe), abs=1e-9
            )
            x, y, z = foot
            if x == 0.0 and z == 0.0:
                continue  # apex foot: surface normal undefined there
            # the cone's gradient away from the apex: (h/r) (x, z) / rho
            rho = math.sqrt(x * x + z * z)
            fx, fz = m * x / rho, m * z / rho
            t = y - pe[1]
            g1 = x - pe[0] + t * fx
            g2 = z - pe[2] + t * fz
            assert max(abs(g1), abs(g2)) <= 1e-10
            v = foot - pe
            if np.linalg.norm(v) > 1e-12:
                n = np.array([fx, -1.0, fz])
                sinang = np.linalg.norm(np.cross(v, n)) / (
                    np.linalg.norm(v) * np.linalg.norm(n)
                )
                assert sinang <= 1e-8


class TestConeClosedForm:
    def test_array_plane_element(self):
        d = cone_distance_closed_form(0.2, np.array([0.6, 0.0, 0.8]))
        assert d == pytest.approx(UNSTEERED_CONE_D_RHO1, rel=1e-12)

    def test_apex_itself(self):
        assert cone_distance_closed_form(0.2, np.zeros(3)) == 0.0

    def test_point_on_surface(self):
        m = 0.37
        rho = 0.42
        p = np.array([rho, m * rho, 0.0])
        assert abs(cone_distance_closed_form(m, p)) <= 1e-12

    def test_point_inside_cone_has_negative_distance(self):
        assert cone_distance_closed_form(0.2, np.array([0.1, 1.0, 0.0])) < 0.0

    def test_apex_branch_below_axis(self):
        # perpendicular foot would land at negative radius: apex is nearest
        p = np.array([0.01, -1.0, 0.0])
        d = cone_distance_closed_form(0.2, p)
        assert d == pytest.approx(np.linalg.norm(p), rel=1e-12)


class TestOracle:
    def test_plane_against_closed_form(self):
        angles = SteeringAngles.from_degrees(20.0, 0.0)
        sw = steer(Wavefront.plane(), angles)
        pos = np.array([WAVELENGTH, 0.0, 0.0])
        cfg = SolverConfig()
        d = oracle_min_distance(sw, pos, cfg)
        ref = abs(plane_distance_closed_form(angles, pos))
        bound = oracle_cell_diagonal(cfg, halfwidth=4 * 0.01)
        assert abs(d - ref) <= bound

    def test_unsteered_cone_small_radius(self):
        sw = steer(Wavefront.cone(0.2), SteeringAngles(0.0, 0.0))
        d = oracle_min_distance(sw, np.array([0.05, 0.0, 0.0]), quick_cfg())
        assert d == pytest.approx(0.05 * math.sin(math.atan(0.2)), abs=1e-9)
        assert d == pytest.approx(0.0098058, abs=1e-6)

    def test_zero_for_element_at_origin(self):
        sw = steer(Wavefront.cone(0.3), SteeringAngles.from_degrees(15.0, -25.0))
        assert oracle_min_distance(sw, np.zeros(3), quick_cfg()) <= 1e-12

    def test_newton_oracle_equivalence_randomized(self, rng):
        for _ in range(30):
            if rng.uniform() < 0.5:
                base = Wavefront.plane()
            else:
                base = Wavefront.cone(rng.uniform(0.05, 0.5))
            angles = SteeringAngles(*rng.uniform(-0.8, 0.8, size=2))
            sw = steer(base, angles)
            pos = np.array([rng.uniform(-0.08, 0.08), 0.0, rng.uniform(-0.08, 0.08)])
            hw = 4.0 * max(0.01, float(np.linalg.norm(pos)))
            cfg = quick_cfg(halfwidth=hw)
            newton = abs(nearest_row(sw, pos).signed_distance[0])
            oracle = oracle_min_distance(sw, pos, cfg)
            assert abs(newton - oracle) <= oracle_cell_diagonal(cfg)

    def test_signed_oracle_matches_newton_sign(self, rng):
        for _ in range(10):
            m = rng.uniform(0.1, 0.4)
            sw = steer(Wavefront.cone(m), SteeringAngles(*rng.uniform(-0.7, 0.7, 2)))
            pos = np.array([rng.uniform(-0.05, 0.05), 0.0, rng.uniform(-0.05, 0.05)])
            newton = nearest_row(sw, pos).signed_distance[0]
            signed = oracle_signed_min_distance(sw, pos, quick_cfg())
            assert math.copysign(1.0, signed) == math.copysign(1.0, newton) or abs(
                newton
            ) < 1e-9
            assert signed == pytest.approx(newton, abs=1e-6)


class TestRotationIsometry:
    def test_steered_equals_unsteered_of_primed_bitwise(self, rng):
        # the steered solve transforms the element and then runs the exact
        # canonical code path, so results agree bit for bit
        unsteered = steer(Wavefront.cone(0.2), SteeringAngles(0.0, 0.0))
        for _ in range(20):
            angles = SteeringAngles(*rng.uniform(-1.0, 1.0, size=2))
            sw = steer(Wavefront.cone(0.2), angles)
            pos = np.array([rng.uniform(-0.1, 0.1), 0.0, rng.uniform(-0.1, 0.1)])
            a = nearest_row(sw, pos)
            b = nearest_row(unsteered, to_primed(sw.rotation, pos))
            assert a.signed_distance[0] == b.signed_distance[0]
            assert np.array_equal(foot_3d(sw, a), foot_3d(unsteered, b))

    def test_plane_solve_in_original_frame(self, rng):
        # solving against the tilted plane expressed in the original frame
        # (as a custom surface, identity steering) must give the same signed
        # distance as the canonical primed-frame solve
        for _ in range(20):
            az, el = rng.uniform(-1.0, 1.0, size=2)
            angles = SteeringAngles(az, el)
            a_coef = math.tan(az)
            b_coef = math.tan(el) / math.cos(az)
            tilted = Wavefront.custom(
                surface=lambda x, z, a=a_coef, b=b_coef: a * x + b * z,
                gradient=lambda x, z, a=a_coef, b=b_coef: (
                    a * np.ones_like(x),
                    b * np.ones_like(z),
                ),
            )
            original_frame = steer(tilted, SteeringAngles(0.0, 0.0))
            primed_frame = steer(Wavefront.plane(), angles)
            pos = np.array([rng.uniform(-0.1, 0.1), 0.0, rng.uniform(-0.1, 0.1)])
            d_orig = nearest_row(original_frame, pos).signed_distance[0]
            d_primed = nearest_row(primed_frame, pos).signed_distance[0]
            assert d_orig == pytest.approx(d_primed, abs=1e-12)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(oracle_grid=2)
        with pytest.raises(ValueError):
            SolverConfig(oracle_halfwidth=0.0)
