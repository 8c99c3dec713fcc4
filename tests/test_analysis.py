import math

import numpy as np
import pytest

from nfbeam.analysis import (
    EmptyGrid,
    RadiusOutOfRange,
    check_scan_radius,
    estimate_direction,
    export_report_csv,
    first_null,
    polarization_report,
    propagation_range,
    steering_unit_vector,
    transverse_profile,
)
from nfbeam.field import (
    FAR_LIMIT_WAVELENGTHS,
    ClearanceViolation,
    FieldGrid,
    ObservationGrid,
    total_field,
)
from nfbeam.geometry import SteeringAngles
from nfbeam.synthesis import ArrayGeometry, synthesize, to_excitation
from nfbeam.wavefront import Wavefront, steer

WAVELENGTH = 299_792_458.0 / 100e9


def direction_to_angles(u: np.ndarray) -> tuple[float, float]:
    """Invert :func:`steering_unit_vector` for a unit direction."""
    elevation = math.asin(max(-1.0, min(1.0, -float(u[2]))))
    azimuth = math.atan2(-float(u[0]), float(u[1]))
    return azimuth, elevation


def make_field(points, ex, ey, ez):
    grid = ObservationGrid.from_points(points)
    return FieldGrid(
        grid=grid,
        ex=np.asarray(ex, complex),
        ey=np.asarray(ey, complex),
        ez=np.asarray(ez, complex),
    )


def cone_beam(n, az_deg=0.0, el_deg=0.0, h_over_r=0.2):
    arr = ArrayGeometry.half_wave(n, n, WAVELENGTH)
    pd = synthesize(
        arr, steer(Wavefront.cone(h_over_r), SteeringAngles.from_degrees(az_deg, el_deg))
    )
    return arr, to_excitation(pd)


class TestPolarizationReport:
    def test_pure_z_field(self):
        pts = np.zeros((4, 3))
        pts[:, 1] = np.linspace(0.1, 0.4, 4)
        fg = make_field(pts, np.zeros(4), np.zeros(4), np.ones(4))
        rep = polarization_report(fg)
        assert rep.fractions == (0.0, 0.0, 1.0)
        assert rep.peak_cross_pol_ratio == 0.0

    def test_equal_components(self):
        pts = np.zeros((3, 3))
        pts[:, 1] = [0.1, 0.2, 0.3]
        ones = np.ones(3)
        rep = polarization_report(make_field(pts, ones, ones, ones))
        assert rep.fractions == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)
        assert rep.peak_cross_pol_ratio == pytest.approx(1.0)

    def test_fractions_sum_to_one(self, rng):
        pts = np.zeros((50, 3))
        pts[:, 1] = np.linspace(0.1, 0.5, 50)
        fg = make_field(
            pts,
            rng.normal(size=50) + 1j * rng.normal(size=50),
            rng.normal(size=50) + 1j * rng.normal(size=50),
            rng.normal(size=50) + 1j * rng.normal(size=50),
        )
        rep = polarization_report(fg)
        assert sum(rep.fractions) == pytest.approx(1.0, abs=1e-12)

    def test_tiny_ez_points_excluded_from_peak(self):
        pts = np.zeros((2, 3))
        pts[:, 1] = [0.1, 0.2]
        fg = make_field(pts, [1.0, 0.5], [0.0, 0.0], [1e-20, 1.0])
        rep = polarization_report(fg)
        assert rep.peak_cross_pol_ratio == pytest.approx(0.5)

    def test_empty_grid_raises(self):
        fg = make_field(np.empty((0, 3)), [], [], [])
        with pytest.raises(EmptyGrid):
            polarization_report(fg)

    def test_unsteered_cone_on_axis_is_pure_z(self):
        arr, exc = cone_beam(16)
        ys = np.linspace(0.05, 0.3, 31)
        pts = np.column_stack([np.zeros_like(ys), ys, np.zeros_like(ys)])
        fg = total_field(arr, exc, ObservationGrid.from_points(pts))
        rep = polarization_report(fg)
        assert rep.fractions[2] > 1.0 - 1e-9

    def test_report_consistency_with_exported_csv(self, tmp_path):
        from nfbeam.field import export_field_csv

        arr, exc = cone_beam(8, el_deg=15.0)
        grid = ObservationGrid.plane_grid("yz", (0.05, 0.15), (-0.05, 0.02), 7, 6)
        fg = total_field(arr, exc, grid)
        rep = polarization_report(fg)
        path = tmp_path / "field.csv"
        export_field_csv(fg, path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        powers = [
            float(np.sum(data[:, 3] ** 2 + data[:, 4] ** 2)),
            float(np.sum(data[:, 5] ** 2 + data[:, 6] ** 2)),
            float(np.sum(data[:, 7] ** 2 + data[:, 8] ** 2)),
        ]
        total = sum(powers)
        for got, expected in zip(rep.fractions, powers):
            assert got == pytest.approx(expected / total, abs=1e-12)


class TestDirections:
    def test_unit_vector_round_trip(self, rng):
        for _ in range(30):
            az, el = rng.uniform(-1.4, 1.4, size=2)
            u = steering_unit_vector(az, el)
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-15)
            got_az, got_el = direction_to_angles(u)
            assert got_az == pytest.approx(az, abs=1e-12)
            assert got_el == pytest.approx(el, abs=1e-12)

    def test_unsteered_estimate_is_boresight(self):
        arr, exc = cone_beam(16)
        radius = arr.aperture_radius + 12.0 * WAVELENGTH
        metrics = estimate_direction(arr, exc, radius)
        assert abs(math.degrees(metrics.estimated_azimuth)) <= 0.5
        assert abs(math.degrees(metrics.estimated_elevation)) <= 0.5
        assert np.linalg.norm(metrics.peak_point) == pytest.approx(radius, rel=1e-12)

    def test_scaling_invariance_of_argmax(self):
        arr, exc = cone_beam(12, az_deg=15.0)
        radius = arr.aperture_radius + 12.0 * WAVELENGTH
        a = estimate_direction(arr, exc, radius)
        scaled = type(exc)(currents=(0.37 - 1.2j) * exc.currents)
        b = estimate_direction(arr, scaled, radius)
        assert a.estimated_azimuth == b.estimated_azimuth
        assert a.estimated_elevation == b.estimated_elevation

    def test_nan_radius_rejected(self):
        # named before any scan point is built
        arr, exc = cone_beam(8)
        with pytest.raises(RadiusOutOfRange, match="^scan radius nan m must be finite$"):
            estimate_direction(arr, exc, math.nan)

    def test_infinite_radius_rejected(self):
        arr, exc = cone_beam(8)
        with pytest.raises(RadiusOutOfRange, match="^scan radius inf m must be finite$"):
            estimate_direction(arr, exc, math.inf)

    def test_radius_out_of_range(self):
        arr, exc = cone_beam(8)
        with pytest.raises(RadiusOutOfRange):
            estimate_direction(arr, exc, 0.5 * arr.aperture_radius)

    def test_radius_beyond_far_limit_rejected(self):
        # up to 1e12 wavelengths r keeps its phase; beyond, the scan is refused
        arr, exc = cone_beam(8)
        far = FAR_LIMIT_WAVELENGTHS * arr.wavelength
        check_scan_radius(arr, far)
        with pytest.raises(RadiusOutOfRange, match=r"^scan radius 1e\+200 m must be at most "):
            estimate_direction(arr, exc, 1e200)
        with pytest.raises(RadiusOutOfRange, match="at most"):
            check_scan_radius(arr, math.nextafter(far, math.inf))


class TestCrossPolMonotonicity:
    def test_power_ratio_grows_with_elevation(self):
        # y-polarized power over the yz plane must strictly grow between
        # 5 and 20 degrees of elevation steering (pointwise peak ratios are
        # dominated by ring nulls of Ez and are not a stable ordinal metric)
        grid = ObservationGrid.plane_grid("yz", (0.05, 0.30), (-0.15, 0.05), 31, 31)
        ratios = {}
        for el in (5.0, 20.0):
            arr, exc = cone_beam(32, el_deg=el)
            fg = total_field(arr, exc, grid)
            rep = polarization_report(fg)
            ratios[el] = rep.fractions[1] / rep.fractions[2]
        assert ratios[20.0] > ratios[5.0]


class TestTransverseProfile:
    def test_single_element_monotone_no_null(self):
        arr = ArrayGeometry(n_x=1, n_z=1, spacing=WAVELENGTH / 2, wavelength=WAVELENGTH)
        from nfbeam.synthesis import Excitation

        exc = Excitation(currents=np.ones(1, dtype=complex))
        prof = transverse_profile(
            arr, exc, np.array([0.0, 1.0, 0.0]), np.array([1, 0, 0]),
            np.linspace(-0.05, 0.05, 101),
        )
        assert prof.first_null_radius is None
        positive = prof.magnitudes[len(prof.magnitudes) // 2 :]
        assert np.all(np.diff(positive) < 0)

    def test_symmetric_beam_symmetric_profile(self):
        arr, exc = cone_beam(16)
        y0 = 0.08
        prof = transverse_profile(
            arr, exc, np.array([0.0, y0, 0.0]), np.array([1, 0, 0]),
            np.linspace(-0.02, 0.02, 81),
        )
        sym = prof.magnitudes[::-1]
        np.testing.assert_allclose(prof.magnitudes, sym, rtol=1e-9)
        assert prof.offsets[0] == -prof.offsets[-1]

    def test_first_null_against_bessel_zero(self):
        arr, exc = cone_beam(32)
        rng_est = propagation_range(arr, 0.2)
        y0 = 0.5 * rng_est
        prof = transverse_profile(
            arr, exc, np.array([0.0, y0, 0.0]), np.array([1, 0, 0]),
            np.linspace(-0.02, 0.02, 241),
        )
        k = 2 * math.pi / WAVELENGTH
        theory = 2.40483 / (k * math.sin(math.atan(0.2)))
        assert prof.first_null_radius == pytest.approx(theory, rel=0.10)

    @pytest.mark.parametrize("az_deg, el_deg", [(20.0, 0.0), (0.0, 20.0), (30.0, -20.0)])
    def test_steered_cone_first_null_against_bessel_zero(self, az_deg, el_deg):
        # cuts across the steered axis along e1 = u x z / |u x z| and e2 = u x e1
        arr, exc = cone_beam(64, az_deg, el_deg)
        u = steering_unit_vector(math.radians(az_deg), math.radians(el_deg))
        e1 = np.cross(u, [0.0, 0.0, 1.0])
        e1 /= np.linalg.norm(e1)
        axis_point = 0.5 * propagation_range(arr, 0.2) * u
        theory = 2.40483 / (2 * math.pi / WAVELENGTH * math.sin(math.atan(0.2)))
        for cut in (e1, np.cross(u, e1)):
            prof = transverse_profile(arr, exc, axis_point, cut, np.linspace(-0.01, 0.01, 401))
            assert prof.first_null_radius == pytest.approx(theory, rel=0.10)

    def test_cut_rejects_bad_offsets_and_direction(self):
        arr, exc = cone_beam(8)
        point = np.array([0.0, 0.055, 0.0])
        for offsets in ([0.0, 1e-3, 1e-3], [1e-3, 0.0], [[0.0, 1e-3]], [0.0, math.nan]):
            with pytest.raises(ValueError, match="strictly increasing"):
                transverse_profile(arr, exc, point, np.array([1, 0, 0]), np.array(offsets))
        with pytest.raises(ValueError, match="nonzero"):
            transverse_profile(arr, exc, point, np.zeros(3), np.array([0.0, 1e-3]))

    def test_cut_inside_clearance_raises(self):
        arr, exc = cone_beam(8)
        with pytest.raises(ClearanceViolation, match="grid point 0"):
            transverse_profile(
                arr, exc, np.array([0.0, 0.005, 0.0]), np.array([1, 0, 0]),
                np.array([0.0, 1e-3]),
            )


class TestFirstNull:
    OFFSETS = np.arange(-2.0, 8.0)

    def null(self, positive):
        # the same values mirrored onto the negative offsets, which the rule ignores
        x = np.asarray(positive, dtype=float)
        return first_null(self.OFFSETS, np.concatenate([x[2:0:-1], x]))

    def test_monotone_fall_has_no_null(self):
        assert self.null([1.0, 0.9, 0.8, 0.6, 0.5, 0.3, 0.2, 0.1]) is None

    def test_shallow_dip_skipped_for_next_prominent_minimum(self):
        # the dip at offset 2 is 0.04 deep, under 5% of the peak 1.0
        assert self.null([1.0, 0.9, 0.86, 0.9, 0.5, 0.2, 0.6, 0.55]) == 5.0

    def test_first_prominent_minimum_wins_over_deeper_later_one(self):
        assert self.null([1.0, 0.5, 0.3, 0.6, 0.1, 0.7, 0.65, 0.6]) == 2.0

    def test_minimum_at_last_sample_does_not_count(self):
        # the dip at offset 3 is 0.02 deep; the fall to 0.01 ends the samples
        assert self.null([1.0, 0.99, 0.98, 0.97, 0.98, 0.99, 0.9, 0.01]) is None

    def test_ignores_negative_offsets(self):
        offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        assert first_null(offsets, np.array([1.0, 0.0, 1.0, 0.5, 0.2])) is None

    def test_matches_find_peaks_on_random_sequences(self):
        find_peaks = pytest.importorskip("scipy.signal").find_peaks
        rng = np.random.default_rng(20240901)
        mismatches = 0
        for _ in range(3000):
            n = int(rng.integers(1, 40))
            x = np.abs(np.cumsum(rng.normal(size=n))) + rng.uniform(0.0, 0.3, size=n)
            offsets = np.arange(n) - int(rng.integers(0, n))
            positive = x[offsets >= 0]
            peaks, _ = find_peaks(-positive, prominence=0.05 * float(np.max(positive)))
            expected = float(offsets[offsets >= 0][peaks[0]]) if len(peaks) else None
            mismatches += first_null(offsets, x) != expected
        assert mismatches == 0


class TestPropagationRange:
    def test_reference_setup(self):
        arr = ArrayGeometry.half_wave(100, 100, WAVELENGTH)
        assert propagation_range(arr, 0.2) == pytest.approx(0.530, abs=5e-3)
        side = 100 * WAVELENGTH / 2
        assert propagation_range(arr, 0.2) == pytest.approx(
            0.5 * math.hypot(side, side) / 0.2, rel=1e-15
        )

    def test_slope_scaling(self):
        arr = ArrayGeometry.half_wave(16, 16, WAVELENGTH)
        assert propagation_range(arr, 0.4) == pytest.approx(
            propagation_range(arr, 0.2) / 2.0
        )

    def test_spacing_scaling(self):
        a = ArrayGeometry(n_x=16, n_z=16, spacing=0.001, wavelength=WAVELENGTH)
        b = ArrayGeometry(n_x=16, n_z=16, spacing=0.002, wavelength=WAVELENGTH)
        assert propagation_range(b, 0.2) == pytest.approx(
            2.0 * propagation_range(a, 0.2)
        )

    def test_rejects_bad_slope(self):
        arr = ArrayGeometry.half_wave(4, 4, WAVELENGTH)
        with pytest.raises(ValueError):
            propagation_range(arr, 0.0)


class TestReportExport:
    def test_csv_format(self, tmp_path):
        path = tmp_path / "report.csv"
        export_report_csv([("alpha", 1.5), ("kind", "bessel")], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "key,value"
        assert lines[1] == "alpha,1.5"
        assert lines[2] == "kind,bessel"
