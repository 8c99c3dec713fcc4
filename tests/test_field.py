import cmath
import inspect
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from nfbeam import analysis, cli, field, kernels
from nfbeam.cli import SimulationConfig, analysis_radius, build_scenario
from nfbeam.field import (
    ClearanceViolation,
    CoincidentPoint,
    ObservationGrid,
    export_field_csv,
    frequency_to_wavelength,
    min_element_distances,
    total_field,
    validate_clearance,
    wavenumber,
)
from nfbeam.geometry import SteeringAngles
from nfbeam.synthesis import ArrayGeometry, Excitation, synthesize, to_excitation
from nfbeam.wavefront import Wavefront, steer

WAVELENGTH = 0.003
K = 2.0 * math.pi / WAVELENGTH
DEFAULT = SimulationConfig()


# Scalar single-element field model: the oracle that field_sum is checked against.


def local_angles(element_pos: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """(azimuth, polar) angles of the point as seen from the element.

    Local element axes are parallel to the global ones; the polar angle is
    measured from +z, azimuth in the xy-plane from +x.  A point on the
    element's z-axis gets azimuth 0 by convention.
    """
    r = np.asarray(p, dtype=float) - np.asarray(element_pos, dtype=float)
    norm = float(np.linalg.norm(r))
    if norm == 0.0:
        raise CoincidentPoint(f"point {p!r} coincides with element {element_pos!r}")
    theta = math.acos(max(-1.0, min(1.0, r[2] / norm)))
    phi = math.atan2(r[1], r[0])
    return phi, theta


def polarization_unit_vector(phi_n: float, theta_n: float) -> np.ndarray:
    """Theta-direction unit polarization of a z-aligned dipole element."""
    return np.array(
        [
            math.cos(phi_n) * math.cos(theta_n),
            math.sin(phi_n) * math.cos(theta_n),
            -math.sin(theta_n),
        ]
    )


def element_field(
    element_pos: np.ndarray, current: complex, p: np.ndarray, k: float
) -> np.ndarray:
    """Complex (Ex, Ey, Ez) contribution of one element at point ``p``."""
    r = np.asarray(p, dtype=float) - np.asarray(element_pos, dtype=float)
    norm = float(np.linalg.norm(r))
    if norm == 0.0:
        raise CoincidentPoint(f"point {p!r} coincides with element {element_pos!r}")
    phi, theta = local_angles(element_pos, p)
    scalar = current * complex(math.cos(k * norm), -math.sin(k * norm)) / norm
    return scalar * polarization_unit_vector(phi, theta)


def uniform_excitation(array):
    return Excitation(currents=np.ones(array.num_elements, dtype=complex))


class TestLocalAngles:
    def test_point_on_plus_y(self):
        phi, theta = local_angles(np.zeros(3), np.array([0.0, 1.0, 0.0]))
        assert phi == pytest.approx(math.pi / 2)
        assert theta == pytest.approx(math.pi / 2)

    def test_point_on_plus_z(self):
        phi, theta = local_angles(np.zeros(3), np.array([0.0, 0.0, 5.0]))
        assert theta == 0.0
        assert phi == 0.0

    def test_translation_invariance(self):
        phi, theta = local_angles(np.array([1.0, 0.0, 0.0]), np.array([1.0, 2.0, 0.0]))
        assert phi == pytest.approx(math.pi / 2)
        assert theta == pytest.approx(math.pi / 2)

    def test_coincident_point_raises(self):
        with pytest.raises(CoincidentPoint):
            local_angles(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))


class TestPolarizationUnitVector:
    def test_equatorial(self):
        u = polarization_unit_vector(math.pi / 2, math.pi / 2)
        np.testing.assert_allclose(u, [0.0, 0.0, -1.0], atol=1e-15)

    def test_polar(self):
        np.testing.assert_allclose(polarization_unit_vector(0.0, 0.0), [1.0, 0.0, 0.0])

    def test_orthogonal_to_radial(self, rng):
        for _ in range(50):
            phi = rng.uniform(-math.pi, math.pi)
            theta = rng.uniform(0.0, math.pi)
            u = polarization_unit_vector(phi, theta)
            radial = np.array(
                [
                    math.cos(phi) * math.sin(theta),
                    math.sin(phi) * math.sin(theta),
                    math.cos(theta),
                ]
            )
            assert abs(u @ radial) <= 1e-15
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-15)


class TestElementField:
    def test_one_meter_on_y_axis(self):
        e = element_field(np.zeros(3), 1.0 + 0.0j, np.array([0.0, 1.0, 0.0]), K)
        expected = cmath.exp(-1j * K) * np.array([0.0, 0.0, -1.0])
        np.testing.assert_allclose(e, expected, atol=1e-15)
        assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_distance_law(self):
        e1 = element_field(np.zeros(3), 1.0, np.array([0.0, 1.0, 0.0]), K)
        e2 = element_field(np.zeros(3), 1.0, np.array([0.0, 2.0, 0.0]), K)
        assert np.linalg.norm(e2) == pytest.approx(np.linalg.norm(e1) / 2.0, rel=1e-12)

    def test_current_phase_negates_field(self):
        p = np.array([0.01, 0.05, -0.02])
        e1 = element_field(np.zeros(3), 1.0, p, K)
        e2 = element_field(np.zeros(3), cmath.exp(1j * math.pi), p, K)
        np.testing.assert_allclose(e2, -e1, atol=1e-15)

    def test_coincident_raises(self):
        with pytest.raises(CoincidentPoint):
            element_field(np.zeros(3), 1.0, np.zeros(3), K)


class TestObservationGrid:
    def test_plane_grid_row_major(self):
        g = ObservationGrid.plane_grid("xy", (0.0, 1.0), (2.0, 3.0), 2, 3, offset=5.0)
        assert g.shape == (2, 3)
        np.testing.assert_allclose(g.points[0], [0.0, 2.0, 5.0])
        np.testing.assert_allclose(g.points[1], [0.0, 2.5, 5.0])
        np.testing.assert_allclose(g.points[3], [1.0, 2.0, 5.0])
        assert np.all(g.points[:, 2] == 5.0)

    def test_yz_and_xz_axis_assignment(self):
        g = ObservationGrid.plane_grid("yz", (0.1, 0.2), (-1.0, 1.0), 2, 2, offset=0.7)
        assert np.all(g.points[:, 0] == 0.7)
        g = ObservationGrid.plane_grid("xz", (0.1, 0.2), (-1.0, 1.0), 2, 2, offset=0.4)
        assert np.all(g.points[:, 1] == 0.4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ObservationGrid.plane_grid("ab", (0, 1), (0, 1), 4, 4)
        with pytest.raises(ValueError):
            ObservationGrid.plane_grid("xy", (0, 1), (0, 1), 1, 4)
        with pytest.raises(ValueError):
            ObservationGrid.from_points(np.zeros((3, 2)))


    def test_symmetric_bounds_give_exact_mirror_axis(self):
        g = ObservationGrid.plane_grid("xy", (-0.15, 0.15), (0.05, 0.55), 81, 81)
        assert np.array_equal(g.axis1, -g.axis1[::-1])
        assert np.max(np.abs(g.axis1 - np.linspace(-0.15, 0.15, 81))) <= 2.8e-17
        assert np.array_equal(g.axis2, np.linspace(0.05, 0.55, 81))


class TestClearance:
    def test_min_element_distances_exact(self):
        arr = ArrayGeometry.half_wave(4, 4, WAVELENGTH)
        pts = np.array([[0.0, 0.05, 0.0], [1.0, 0.0, 0.0]])
        d = min_element_distances(arr, pts)
        ref0 = min(np.linalg.norm(pts[0] - e) for e in arr.element_positions)
        ref1 = min(np.linalg.norm(pts[1] - e) for e in arr.element_positions)
        assert d[0] == pytest.approx(ref0, rel=1e-12)
        assert d[1] == pytest.approx(ref1, rel=1e-12)

    def test_too_close_rejected_with_index(self):
        arr = ArrayGeometry.half_wave(4, 4, WAVELENGTH)
        good = np.array([0.0, 0.2, 0.0])
        bad = np.array([0.0, 0.005, 0.0])  # 5 mm < 10 wavelengths (30 mm)
        grid = ObservationGrid.from_points(np.stack([good, bad]))
        with pytest.raises(ClearanceViolation, match="grid point 1"):
            validate_clearance(arr, grid)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected_with_index(self, bad):
        arr = ArrayGeometry.half_wave(4, 4, WAVELENGTH)
        pts = np.array([[0.0, 0.2, 0.0], [0.0, bad, 0.0], [bad, 0.3, 0.0]])
        grid = ObservationGrid.from_points(pts)
        with pytest.raises(ClearanceViolation, match="grid point 1 at .* is not finite"):
            total_field(arr, uniform_excitation(arr), grid)

    def test_far_point_rejected_with_index(self):
        # a coordinate beyond 1e12 wavelengths is refused before any distance
        # is squared (RuntimeWarnings fail the tests); at the limit it passes
        arr = ArrayGeometry.half_wave(4, 4, WAVELENGTH)
        far = field.FAR_LIMIT_WAVELENGTHS * WAVELENGTH
        validate_clearance(arr, ObservationGrid.from_points([[far, far, -far]]))
        for big in (math.nextafter(far, math.inf), 1e200, -1.7e308):
            pts = np.array([[0.0, 0.2, 0.0], [0.0, 0.2, big], [0.0, 0.3, 0.0]])
            grid = ObservationGrid.from_points(pts)
            with pytest.raises(ClearanceViolation, match="grid point 1 at .* has a coordinate beyond"):
                total_field(arr, uniform_excitation(arr), grid)

    def test_coincident_point_named(self):
        arr = ArrayGeometry.half_wave(4, 4, WAVELENGTH)
        grid = ObservationGrid.from_points(arr.element_positions[5][None, :])
        with pytest.raises(CoincidentPoint):
            validate_clearance(arr, grid)


class TestTotalField:
    def test_single_element_equals_element_field(self):
        arr = ArrayGeometry(n_x=1, n_z=1, spacing=WAVELENGTH / 2, wavelength=WAVELENGTH)
        pts = np.array([[0.01, 0.08, -0.03], [0.0, 0.2, 0.0]])
        fg = total_field(arr, uniform_excitation(arr), ObservationGrid.from_points(pts))
        for i, p in enumerate(pts):
            ref = element_field(arr.element_positions[0], 1.0, p, K)
            np.testing.assert_allclose(
                [fg.ex[i], fg.ey[i], fg.ez[i]], ref, rtol=1e-12, atol=1e-15
            )

    def test_zero_currents_zero_field(self):
        arr = ArrayGeometry.half_wave(4, 4, WAVELENGTH)
        exc = Excitation(currents=np.zeros(arr.num_elements, dtype=complex))
        grid = ObservationGrid.from_points(np.array([[0.0, 0.1, 0.0]]))
        fg = total_field(arr, exc, grid)
        assert np.all(fg.ex == 0) and np.all(fg.ey == 0) and np.all(fg.ez == 0)

    def test_four_element_on_axis_cancellation_hand_computed(self):
        # direct complex arithmetic over the four elements, no library calls
        arr = ArrayGeometry.half_wave(2, 2, WAVELENGTH)
        p = np.array([0.0, 0.5, 0.0])
        acc = np.zeros(3, dtype=complex)
        for ex_, ey_, ez_ in arr.element_positions:
            dx, dy, dz = p[0] - ex_, p[1] - ey_, p[2] - ez_
            r = math.sqrt(dx * dx + dy * dy + dz * dz)
            rho = math.hypot(dx, dy)
            u = np.array([dx * dz / (r * rho), dy * dz / (r * rho), -rho / r])
            acc += cmath.exp(-1j * K * r) / r * u
        assert abs(acc[0]) <= 1e-12 * abs(acc[2])
        assert abs(acc[1]) <= 1e-12 * abs(acc[2])
        fg = total_field(arr, uniform_excitation(arr), ObservationGrid.from_points(p))
        assert abs(fg.ex[0]) <= 1e-12 * abs(fg.ez[0])
        assert abs(fg.ey[0]) <= 1e-12 * abs(fg.ez[0])
        assert fg.ez[0] == pytest.approx(acc[2], rel=1e-12)

    def test_on_axis_cancellation_unsteered_beams(self):
        arr = ArrayGeometry.half_wave(16, 16, WAVELENGTH)
        ys = np.linspace(0.05, 0.4, 41)
        pts = np.column_stack([np.zeros_like(ys), ys, np.zeros_like(ys)])
        grid = ObservationGrid.from_points(pts)
        for base in (Wavefront.plane(), Wavefront.cone(0.2)):
            pd = synthesize(arr, steer(base, SteeringAngles(0.0, 0.0)))
            fg = total_field(arr, to_excitation(pd), grid)
            ez = np.abs(fg.ez)
            assert np.all(np.abs(fg.ex) <= 1e-10 * ez)
            assert np.all(np.abs(fg.ey) <= 1e-10 * ez)

    def test_azimuth_steering_keeps_z_polarization_in_xy_plane(self):
        arr = ArrayGeometry.half_wave(16, 16, WAVELENGTH)
        pd = synthesize(
            arr, steer(Wavefront.cone(0.2), SteeringAngles.from_degrees(20.0, 0.0))
        )
        grid = ObservationGrid.plane_grid("xy", (-0.1, 0.1), (0.05, 0.25), 21, 21)
        fg = total_field(arr, to_excitation(pd), grid)
        ez = np.abs(fg.ez)
        assert np.all(np.abs(fg.ex) <= 1e-10 * ez)
        assert np.all(np.abs(fg.ey) <= 1e-10 * ez)

    def test_linearity_in_currents(self, rng):
        arr = ArrayGeometry.half_wave(6, 6, WAVELENGTH)
        cur = np.exp(1j * rng.uniform(0, 2 * math.pi, arr.num_elements))
        pts = rng.uniform(-0.05, 0.05, size=(30, 3))
        pts[:, 1] = rng.uniform(0.05, 0.3, size=30)
        grid = ObservationGrid.from_points(pts)
        c = complex(rng.normal(), rng.normal())
        a = total_field(arr, Excitation(cur), grid)
        b = total_field(arr, Excitation(c * cur), grid)
        for comp_a, comp_b in ((a.ex, b.ex), (a.ey, b.ey), (a.ez, b.ez)):
            np.testing.assert_allclose(comp_b, c * comp_a, rtol=1e-12, atol=1e-15)

    def test_determinism_bitwise(self):
        arr = ArrayGeometry.half_wave(8, 8, WAVELENGTH)
        pd = synthesize(arr, steer(Wavefront.cone(0.2), SteeringAngles(0.2, 0.1)))
        grid = ObservationGrid.plane_grid("xy", (-0.05, 0.05), (0.05, 0.2), 13, 13)
        a = total_field(arr, to_excitation(pd), grid)
        b = total_field(arr, to_excitation(pd), grid)
        assert np.array_equal(a.ex, b.ex)
        assert np.array_equal(a.ey, b.ey)
        assert np.array_equal(a.ez, b.ez)

    def test_mismatched_currents_rejected(self):
        # the message names the currents' shape and the shape (M,) needed
        arr = ArrayGeometry.half_wave(4, 4, WAVELENGTH)
        grid = ObservationGrid.from_points(np.array([[0.0, 0.1, 0.0]]))
        for currents in (np.ones(3, complex), np.complex128(1.0), np.ones((2, 16)), np.ones(17)):
            match = re.escape(f"shape {np.shape(currents)}; (16,) needed")
            with pytest.raises(ValueError, match=match):
                total_field(arr, Excitation(currents), grid)


def random_currents(rng, arr):
    n = arr.num_elements
    return np.exp(1j * rng.uniform(0, 2 * math.pi, n)) * rng.uniform(0.5, 1.5, n)


def plain_field(arr, currents, points):
    """The unfolded sum: every point against every element."""
    return kernels.field_sum(arr.column_x, arr.row_z, currents, points, K)


def coarse_scan_points(radius):
    """The direction scan's 61 x 61 coarse stage, built as analysis builds it."""
    deg = analysis.SCAN_LATTICE_DEG[:: analysis.COARSE_STRIDE]
    az = np.radians(np.repeat(deg, len(deg)))
    el = np.radians(np.tile(deg, len(deg)))
    ce = np.cos(el)
    return radius * np.column_stack([-ce * np.sin(az), ce * np.cos(az), -np.sin(el)])


def folding_sets(rng):
    """Point sets that fold on x, on z, on z = 0, on all three, or not at all."""
    ys = np.linspace(0.05, 0.4, 41)
    # points without mirror partners, in every sign class of (x, z)
    random_pts = rng.uniform(-0.1, 0.1, size=(2000, 3))
    random_pts[:, 1] = rng.uniform(0.05, 0.3, size=2000)
    return {
        "default xy grid": ObservationGrid.plane_grid("xy", (-0.15, 0.15), (0.05, 0.55), 81, 81),
        "xz grid": ObservationGrid.plane_grid("xz", (-0.1, 0.1), (-0.1, 0.1), 41, 41, offset=0.1),
        "coarse scan": ObservationGrid.from_points(coarse_scan_points(0.3)),
        "y axis": ObservationGrid.from_points(np.column_stack([0 * ys, ys, 0 * ys])),
        "random": ObservationGrid.from_points(random_pts),
    }


def z0_line():
    """Points on z = 0, -0.0 too: an odd n_z puts a row of elements there."""
    xs = np.linspace(-0.1, 0.1, 21)
    on_plane = np.column_stack([np.r_[xs, xs], np.full(42, 0.12), np.repeat([0.0, -0.0], 21)])
    return ObservationGrid.from_points(on_plane)


class TestMirrorFolding:
    @pytest.mark.parametrize("n_x, n_z", [(6, 8), (7, 5), (5, 6), (9, 7)])
    def test_mirror_identities(self, rng, n_x, n_z):
        # E(Mx p; I) = diag(-1, 1, 1) E(p; I∘Mx) and
        # E(Mz p; I) = diag(-1, -1, +1) E(p; I∘Mz): -Mz, not Mz
        arr = ArrayGeometry.half_wave(n_x, n_z, WAVELENGTH)
        cur = random_currents(rng, arr)
        pts = rng.uniform(-0.1, 0.1, size=(40, 3))
        pts[:, 1] = rng.uniform(0.05, 0.3, size=40)
        lattice = cur.reshape(n_x, n_z)
        mirrors = ((0, lattice[::-1], (-1, 1, 1)), (2, lattice[:, ::-1], (-1, -1, 1)))
        for axis, flipped, signs in mirrors:
            mirrored = pts.copy()
            mirrored[:, axis] *= -1.0
            lhs = plain_field(arr, cur, mirrored)
            rhs = plain_field(arr, flipped.ravel(), pts)
            peak = max(np.max(np.abs(e)) for e in rhs)
            for left, right, sign in zip(lhs, rhs, signs):
                np.testing.assert_allclose(left, sign * right, rtol=0.0, atol=1e-13 * peak)

    @pytest.mark.parametrize("n_x, n_z", [(8, 8), (7, 9)])
    def test_folded_equals_plain_sum(self, rng, n_x, n_z):
        arr = ArrayGeometry.half_wave(n_x, n_z, WAVELENGTH)
        cur = random_currents(rng, arr)
        sets = folding_sets(rng)
        sets["z = 0 line"] = z0_line()
        for name, grid in sets.items():
            fg = total_field(arr, Excitation(cur), grid)
            ref = plain_field(arr, cur, grid.points)
            peak = max(np.max(np.abs(e)) for e in ref)
            for got, want in zip((fg.ex, fg.ey, fg.ez), ref):
                err = np.max(np.abs(got - want))
                assert err <= 1e-12 * peak, f"{name}: {err / peak:.2e} of max |E|"

    def test_point_value_independent_of_its_set(self, rng):
        arr = ArrayGeometry.half_wave(7, 8, WAVELENGTH)
        exc = Excitation(random_currents(rng, arr))
        for grid in folding_sets(rng).values():
            fg = total_field(arr, exc, grid)
            x, z = grid.points[:, 0], grid.points[:, 2]
            # one point of each mirror class the set has
            classes = [(x > 0) & (z > 0), x < 0, z < 0, (x < 0) & (z < 0), z == 0, x == 0]
            for i in {int(np.argmax(c)) for c in classes if c.any()}:
                alone = total_field(arr, exc, ObservationGrid.from_points(grid.points[i]))
                assert alone.ex[0] == fg.ex[i] and alone.ey[0] == fg.ey[i]
                assert alone.ez[0] == fg.ez[i]

    @pytest.mark.parametrize("n_x, n_z", [(8, 8), (7, 9)])
    def test_worker_count_changes_no_bit(self, monkeypatch, rng, n_x, n_z):
        # the numpy kernel splits its tiles over kernels.WORKERS threads
        arr = ArrayGeometry.half_wave(n_x, n_z, WAVELENGTH)
        exc = Excitation(random_currents(rng, arr))
        for name, grid in folding_sets(rng).items():
            fields = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(kernels, "WORKERS", workers)
                fg = total_field(arr, exc, grid)
                fields.append((fg.ex, fg.ey, fg.ez))
            for other in fields[1:]:
                for x, y in zip(fields[0], other):
                    np.testing.assert_array_equal(x, y, err_msg=name)

    def test_tile_budget_changes_no_bit(self, monkeypatch):
        # the tile budget sets how many points share a tile and how the tiles
        # split over the workers, never a bit of a result: the default 81x81
        # xy grid (on z = 0) and the direction scan of a steered 40x40 array,
        # and a symmetric xz grid of a 64x64 one (K = 4, a few points per tile)
        def pipeline():
            scans = []
            scan = analysis._scan_magnitude

            def recorded(*args):
                scans.append(scan(*args))
                return scans[-1]

            monkeypatch.setattr(analysis, "_scan_magnitude", recorded)
            fields = []
            for n, plane, bounds, resolution, offset in (
                (40, "xy", DEFAULT.obs_bounds, DEFAULT.obs_resolution, DEFAULT.obs_offset_m),
                (64, "xz", ((-0.02, 0.02), (-0.02, 0.02)), (33, 33), 0.1),
            ):
                cfg = replace(DEFAULT, n_x=n, n_z=n, azimuth_deg=12.0, elevation_deg=-7.0)
                scn = build_scenario(cfg)
                exc = to_excitation(synthesize(scn.array, steer(scn.wavefront, scn.angles)))
                grid = ObservationGrid.plane_grid(plane, *bounds, *resolution, offset=offset)
                fg = total_field(scn.array, exc, grid)
                fields += [fg.ex, fg.ey, fg.ez]
                if n == 40:
                    beam = analysis.estimate_direction(scn.array, exc, analysis_radius(scn))
            monkeypatch.setattr(analysis, "_scan_magnitude", scan)
            return fields, scans, beam

        budget = kernels.TILE_PAIRS
        monkeypatch.setattr(kernels, "TILE_PAIRS", budget // 2)
        half = pipeline()
        monkeypatch.setattr(kernels, "TILE_PAIRS", budget)
        full = pipeline()
        for arrays_half, arrays_full in zip(half[:2], full[:2]):
            assert len(arrays_half) == len(arrays_full) > 0
            for x, y in zip(arrays_half, arrays_full):
                np.testing.assert_array_equal(x, y)
        assert half[2].estimated_azimuth == full[2].estimated_azimuth
        assert half[2].estimated_elevation == full[2].estimated_elevation
        np.testing.assert_array_equal(half[2].peak_point, full[2].peak_point)

    def test_one_field_sum_call_per_family(self, monkeypatch, rng):
        # each non-empty mirror family, the representatives on z = 0 and the
        # rest, is one kernels.field_sum call that takes all of its points
        arr = ArrayGeometry.half_wave(7, 9, WAVELENGTH)
        exc = Excitation(random_currents(rng, arr))
        sets = folding_sets(rng)
        sets["z = 0 line"] = z0_line()
        field_sum, calls = kernels.field_sum, []

        def counted(*args):
            calls.append(args[3])
            return field_sum(*args)

        monkeypatch.setattr(kernels, "field_sum", counted)
        for name, grid in sets.items():
            calls.clear()
            total_field(arr, exc, grid)
            z = grid.points[:, 2]
            assert len(calls) == int((z == 0.0).any()) + int((z != 0.0).any()), name
            reps = np.abs(grid.points)
            reps[:, 1] = grid.points[:, 1]
            assert sum(map(len, calls)) == len(np.unique(reps, axis=0)), name
            assert all((c[:, 2] == 0.0).all() or c[:, 2].all() for c in calls), name
        calls.clear()
        # no points: three empty complex fields
        empty = total_field(arr, exc, ObservationGrid.from_points(np.empty((0, 3))))
        for e in (empty.ex, empty.ey, empty.ez):
            assert e.shape == (0,) and e.dtype == np.complex128
        assert calls == []


class TestMirrorPairSums:
    # on z = 0 each element pairs with its mirror across z = 0: total_field
    # sends one axial row A = I + I∘Mz (Ez) and one transverse row
    # B = I - I∘Mz (Ex, Ey) per flip code over the z <= 0 half of the lattice
    @pytest.mark.parametrize("n_x, n_z", [(8, 8), (7, 9)])
    def test_z0_calls_carry_one_axial_and_one_transverse_row_per_code(
        self, monkeypatch, rng, n_x, n_z
    ):
        arr = ArrayGeometry.half_wave(n_x, n_z, WAVELENGTH)
        cur = random_currents(rng, arr)
        grid = folding_sets(rng)["default xy grid"]
        calls = []
        field_sum = kernels.field_sum
        signature = inspect.signature(field_sum)

        def record(*args, **kwargs):
            calls.append(signature.bind(*args, **kwargs).arguments)
            return field_sum(*args, **kwargs)

        monkeypatch.setattr(kernels, "field_sum", record)
        total_field(arr, Excitation(cur), grid)
        half = (n_z + 1) // 2
        lattice = cur.reshape(n_x, n_z)
        own = lattice[:, :half]
        mirror = lattice[:, ::-1][:, :half].copy()
        if n_z % 2:
            mirror[:, -1] = 0.0
        # the grid's points have x < 0 and x > 0: flip codes 0 and 1, the
        # second reversing the lattice along x
        axial = np.stack([(own + mirror).ravel(), (own + mirror)[::-1].ravel()])
        transverse = np.stack([(own - mirror).ravel(), (own - mirror)[::-1].ravel()])
        assert calls and sum(len(c["points"]) for c in calls) == (81 + 1) // 2 * 81
        for call in calls:
            assert not call["points"][:, 2].any()
            np.testing.assert_array_equal(call["column_x"], arr.column_x)
            np.testing.assert_array_equal(call["row_z"], arr.row_z[:half])
            np.testing.assert_array_equal(call["currents"], axial)
            np.testing.assert_array_equal(call["transverse"], transverse)

    @pytest.mark.parametrize("n_x, n_z", [(8, 8), (7, 9)])
    def test_z_symmetric_currents_give_no_transverse_field_on_z0(self, rng, n_x, n_z):
        arr = ArrayGeometry.half_wave(n_x, n_z, WAVELENGTH)
        lattice = random_currents(rng, arr).reshape(n_x, n_z)
        cur = lattice + lattice[:, ::-1]
        assert np.array_equal(cur, cur[:, ::-1])
        fg = total_field(arr, Excitation(cur.ravel()), folding_sets(rng)["default xy grid"])
        assert not fg.ex.any() and not fg.ey.any()
        assert np.abs(fg.ez).min() > 0.0


class TestOneColumnArray:
    # a 1 x n_z array is a single lattice column: each point's column sum
    # over z is the only sum the kernel forms for it
    def test_run_and_off_plane_fields_match_element_sum(self, tmp_path):
        scn = build_scenario(replace(DEFAULT, n_x=1, n_z=40))
        exc = to_excitation(synthesize(scn.array, steer(scn.wavefront, scn.angles)))
        k = wavenumber(scn.array.wavelength)
        assert cli.main(["run", "--nx", "1", "--nz", "40", "--out-dir", str(tmp_path)]) == 0
        # every fifth row of the run's field.csv, the xy grid on z = 0
        data = np.loadtxt(tmp_path / "field.csv", delimiter=",", skiprows=1)[::5]
        xz = ObservationGrid.plane_grid("xz", (-0.03, 0.03), (-0.03, 0.03), 21, 21, offset=0.1)
        fg = total_field(scn.array, exc, xz)
        cases = (
            (data[:, :3], data[:, 3::2] + 1j * data[:, 4::2]),
            (xz.points, np.column_stack([fg.ex, fg.ey, fg.ez])),
        )
        for points, got in cases:
            for p, g in zip(points, got):
                want = sum(
                    element_field(e, c, p, k)
                    for e, c in zip(scn.array.element_positions, exc.currents)
                )
                np.testing.assert_allclose(g, want, rtol=1e-12, atol=1e-15 * np.abs(want).max())


class TestFieldCsv:
    def test_header_and_roundtrip(self, tmp_path):
        arr = ArrayGeometry.half_wave(4, 4, WAVELENGTH)
        pd = synthesize(arr, steer(Wavefront.cone(0.2), SteeringAngles(0.1, 0.0)))
        grid = ObservationGrid.plane_grid("xy", (-0.02, 0.02), (0.05, 0.1), 3, 4)
        fg = total_field(arr, to_excitation(pd), grid)
        path = tmp_path / "field.csv"
        export_field_csv(fg, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "px_m,py_m,pz_m,re_Ex,im_Ex,re_Ey,im_Ey,re_Ez,im_Ez"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (12, 9)
        np.testing.assert_array_equal(data[:, :3], grid.points)
        np.testing.assert_array_equal(data[:, 3] + 1j * data[:, 4], fg.ex)
        np.testing.assert_array_equal(data[:, 7] + 1j * data[:, 8], fg.ez)

    def test_bytes_over_blocks(self, tmp_path, rng, csv_oracle):
        arr = ArrayGeometry.half_wave(6, 5, WAVELENGTH)
        exc = Excitation(random_currents(rng, arr))
        random_pts = rng.uniform(-0.1, 0.1, size=(1500, 3))
        random_pts[:, 1] = rng.uniform(0.05, 0.3, size=1500)
        grids = (
            # symmetric on both axes, so total_field folds it; 1,681 rows
            ObservationGrid.plane_grid("xz", (-0.1, 0.1), (-0.1, 0.1), 41, 41, offset=0.1),
            ObservationGrid.from_points(random_pts),
        )
        for grid in grids:
            fg = total_field(arr, exc, grid)
            path = tmp_path / "field.csv"
            export_field_csv(fg, path)
            pts = grid.points
            columns = (pts[:, 0], pts[:, 1], pts[:, 2])
            for e in (fg.ex, fg.ey, fg.ez):
                columns += (e.real, e.imag)
            want = csv_oracle("px_m,py_m,pz_m,re_Ex,im_Ex,re_Ey,im_Ey,re_Ez,im_Ez", columns)
            assert path.read_text() == want


class TestWavelengthHelpers:
    def test_wavenumber(self):
        assert wavenumber(WAVELENGTH) == pytest.approx(2 * math.pi / WAVELENGTH)

    def test_frequency_conversion_exact_c(self):
        assert frequency_to_wavelength(100e9) == pytest.approx(0.00299792458)
        with pytest.raises(ValueError):
            frequency_to_wavelength(0.0)
