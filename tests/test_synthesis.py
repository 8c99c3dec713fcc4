import math

import numpy as np
import pytest

from nfbeam import kernels
from nfbeam.geometry import SteeringAngles, to_primed
from nfbeam.solver import (
    SolverConfig,
    cone_distance_closed_form,
    oracle_signed_min_distance,
    plane_distance_closed_form,
)
from nfbeam.synthesis import (
    CSV_BLOCK_ROWS,
    ArrayGeometry,
    export_phase_csv,
    phase_shift,
    synthesize,
    to_excitation,
    wrap_phase,
    write_csv,
)
from nfbeam.wavefront import Wavefront, steer

WAVELENGTH = 0.003
TWO_PI = 2.0 * math.pi


class TestArrayGeometry:
    def test_centered_grid_positions(self):
        arr = ArrayGeometry(n_x=3, n_z=2, spacing=0.5, wavelength=1.0)
        assert arr.num_elements == 6
        pos = arr.element_positions
        # row-major over (x index, z index)
        np.testing.assert_allclose(pos[0], [-0.5, 0.0, -0.25])
        np.testing.assert_allclose(pos[1], [-0.5, 0.0, 0.25])
        np.testing.assert_allclose(pos[5], [0.5, 0.0, 0.25])
        assert np.all(pos[:, 1] == 0.0)

    def test_symmetry_under_sign_flips(self):
        arr = ArrayGeometry.half_wave(8, 6, WAVELENGTH)
        pos = arr.element_positions
        xs = set(np.round(pos[:, 0], 12))
        zs = set(np.round(pos[:, 2], 12))
        assert xs == {-x for x in xs}
        assert zs == {-z for z in zs}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ArrayGeometry(n_x=0, n_z=4, spacing=0.1, wavelength=1.0)
        with pytest.raises(ValueError):
            ArrayGeometry(n_x=4, n_z=4, spacing=-0.1, wavelength=1.0)

    def test_aperture_radius(self):
        arr = ArrayGeometry.half_wave(100, 100, WAVELENGTH)
        side = 100 * WAVELENGTH / 2
        assert arr.aperture_radius == pytest.approx(side * math.sqrt(2) / 2)


class TestPhaseShift:
    def test_full_wavelength(self):
        assert phase_shift(WAVELENGTH, WAVELENGTH) == pytest.approx(TWO_PI)

    def test_zero(self):
        assert phase_shift(0.0, WAVELENGTH) == 0.0

    def test_half_wavelength(self):
        assert phase_shift(WAVELENGTH / 2, WAVELENGTH) == pytest.approx(math.pi)

    def test_rejects_nonpositive_wavelength(self):
        with pytest.raises(ValueError):
            phase_shift(1.0, 0.0)


class TestSynthesize:
    def test_unsteered_plane_all_zero(self):
        arr = ArrayGeometry.half_wave(6, 6, WAVELENGTH)
        pd = synthesize(arr, steer(Wavefront.plane(), SteeringAngles(0.0, 0.0)))
        assert np.all(pd.phases == 0.0)
        assert np.all(pd.signed_distances == 0.0)

    def test_azimuth_steered_plane_matches_steering_phase(self):
        arr = ArrayGeometry.half_wave(20, 20, WAVELENGTH)
        angles = SteeringAngles.from_degrees(30.0, 0.0)
        pd = synthesize(arr, steer(Wavefront.plane(), angles))
        k = TWO_PI / WAVELENGTH
        expected = k * arr.element_positions[:, 0] * math.sin(math.radians(30.0))
        np.testing.assert_allclose(pd.phases, expected, atol=1e-9)
        # constant along z: all columns of a row identical
        grid = pd.phase_grid()
        assert np.all(grid == grid[:, :1])

    def test_gaussian_consistency_against_scalar_closed_form(self):
        arr = ArrayGeometry.half_wave(16, 16, WAVELENGTH)
        angles = SteeringAngles.from_degrees(20.0, -35.0)
        pd = synthesize(arr, steer(Wavefront.plane(), angles))
        k = TWO_PI / WAVELENGTH
        ref = k * np.array(
            [plane_distance_closed_form(angles, p) for p in arr.element_positions]
        )
        np.testing.assert_allclose(pd.phases, ref, atol=1e-9)

    def test_unsteered_cone_is_radially_symmetric(self):
        arr = ArrayGeometry.half_wave(10, 10, WAVELENGTH)
        pd = synthesize(arr, steer(Wavefront.cone(0.2), SteeringAngles(0.0, 0.0)))
        rho = np.hypot(arr.element_positions[:, 0], arr.element_positions[:, 2])
        order = np.argsort(rho)
        # equal radii get equal phases
        for a, b in zip(order[:-1], order[1:]):
            if rho[a] == rho[b]:
                assert pd.phases[a] == pytest.approx(pd.phases[b], abs=1e-12)
        # and phase grows with radius for an unsteered cone
        assert pd.phases[order[-1]] > pd.phases[order[0]]

    def test_cone_batch_matches_scalar_solver(self):
        arr = ArrayGeometry.half_wave(8, 8, WAVELENGTH)
        sw = steer(Wavefront.cone(0.25), SteeringAngles.from_degrees(15.0, -20.0))
        pd = synthesize(arr, sw)
        for n in range(0, arr.num_elements, 5):
            pe = to_primed(sw.rotation, arr.element_positions[n])
            ref = kernels.nearest_feet(pe[None], sw.base).signed_distance[0]
            assert pd.signed_distances[n] == pytest.approx(ref, abs=1e-12)

    def test_azimuth_only_symmetry_in_z(self):
        arr = ArrayGeometry.half_wave(9, 9, WAVELENGTH)
        for base in (Wavefront.plane(), Wavefront.cone(0.2)):
            pd = synthesize(arr, steer(base, SteeringAngles.from_degrees(25.0, 0.0)))
            grid = pd.phase_grid()
            assert np.array_equal(grid, grid[:, ::-1])

    def test_elevation_only_symmetry_in_x(self):
        arr = ArrayGeometry.half_wave(9, 9, WAVELENGTH)
        for base in (Wavefront.plane(), Wavefront.cone(0.2)):
            pd = synthesize(arr, steer(base, SteeringAngles.from_degrees(0.0, 25.0)))
            grid = pd.phase_grid()
            assert np.array_equal(grid, grid[::-1, :])

    def test_custom_wavefront_path(self):
        arr = ArrayGeometry.half_wave(4, 4, WAVELENGTH)
        bowl = Wavefront.custom(
            surface=lambda x, z: 5.0 * (x * x + z * z),
            gradient=lambda x, z: (10.0 * x, 10.0 * z),
        )
        pd = synthesize(arr, steer(bowl, SteeringAngles(0.0, 0.0)))
        assert np.all(np.isfinite(pd.signed_distances))
        # shallow bowl near the origin: distance is within (0, height-ish]
        assert np.all(pd.signed_distances > 0.0)

    def test_cone_matches_closed_form(self):
        arr = ArrayGeometry.half_wave(12, 12, WAVELENGTH)
        sw = steer(Wavefront.cone(0.2), SteeringAngles.from_degrees(20.0, 10.0))
        primed = arr.element_positions @ sw.rotation.T
        ref = np.array([cone_distance_closed_form(0.2, p) for p in primed])
        d = synthesize(arr, sw).signed_distances
        np.testing.assert_allclose(d, ref, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("analytic_gradient", [True, False])
    def test_custom_tilted_plane_matches_plane_closed_form(self, analytic_gradient):
        # the steered plane written out in the original frame, y = a x + b z,
        # solved by Newton under identity steering
        angles = SteeringAngles.from_degrees(20.0, -10.0)
        a = math.tan(angles.azimuth)
        b = math.tan(angles.elevation) / math.cos(angles.azimuth)

        def gradient(x, z):
            return a * np.ones_like(x), b * np.ones_like(z)

        tilted = Wavefront.custom(
            surface=lambda x, z: a * x + b * z,
            gradient=gradient if analytic_gradient else None,
        )
        arr = ArrayGeometry.half_wave(12, 12, WAVELENGTH)
        pd = synthesize(arr, steer(tilted, SteeringAngles(0.0, 0.0)))
        ref = plane_distance_closed_form(angles, arr.element_positions)
        np.testing.assert_allclose(pd.signed_distances, ref, rtol=0.0, atol=1e-12)

    def test_unconverged_rows_fall_back_to_oracle(self, monkeypatch):
        # one iteration cannot reach a 1e-12 residual on a wiggly surface
        wiggle = Wavefront.custom(
            surface=lambda x, z: 0.05 * np.sin(40.0 * x) + 0.03 * np.cos(25.0 * z)
        )
        sw = steer(wiggle, SteeringAngles(0.0, 0.0))
        arr = ArrayGeometry.half_wave(2, 2, WAVELENGTH)
        monkeypatch.setattr(kernels, "MAX_ITERATIONS", 1)
        # synthesize's oracle box: four times the aperture's larger side
        cfg = SolverConfig(oracle_halfwidth=4.0 * max(arr.aperture_sides))
        feet = kernels.nearest_feet(arr.element_positions, wiggle)
        assert not feet.converged.any()
        pd = synthesize(arr, sw)
        ref = [oracle_signed_min_distance(sw, p, cfg) for p in arr.element_positions]
        np.testing.assert_array_equal(pd.signed_distances, ref)


class TestExcitation:
    def test_unit_magnitudes(self):
        arr = ArrayGeometry.half_wave(8, 8, WAVELENGTH)
        pd = synthesize(arr, steer(Wavefront.cone(0.2), SteeringAngles(0.3, -0.2)))
        exc = to_excitation(pd)
        assert np.max(np.abs(np.abs(exc.currents) - 1.0)) <= 1e-15

    def test_zero_phase_gives_unity(self):
        arr = ArrayGeometry.half_wave(2, 2, WAVELENGTH)
        pd = synthesize(arr, steer(Wavefront.plane(), SteeringAngles(0.0, 0.0)))
        exc = to_excitation(pd)
        np.testing.assert_array_equal(exc.currents, np.ones(4, dtype=complex))

    def test_pi_phase_negates(self):
        assert np.exp(1j * math.pi) == pytest.approx(-1.0 + 0.0j, abs=1e-15)

    def test_conjugate_pair_sums_to_real(self):
        phi = 0.7
        s = np.exp(1j * phi) + np.exp(-1j * phi)
        assert s.imag == pytest.approx(0.0, abs=1e-15)
        assert s.real == pytest.approx(2.0 * math.cos(phi), abs=1e-15)


class TestWrapPhase:
    def test_examples(self):
        arr = ArrayGeometry(n_x=3, n_z=1, spacing=0.1, wavelength=1.0)
        pd = synthesize(arr, steer(Wavefront.plane(), SteeringAngles(0.0, 0.0)))
        hacked = type(pd)(
            array=pd.array,
            signed_distances=pd.signed_distances,
            phases=np.array([TWO_PI, -math.pi / 2, 5 * math.pi]),
        )
        wrapped = wrap_phase(hacked).phases
        assert wrapped[0] == 0.0
        assert wrapped[1] == pytest.approx(3 * math.pi / 2, abs=1e-12)
        assert wrapped[2] == pytest.approx(math.pi, abs=1e-12)
        assert np.all((wrapped >= 0.0) & (wrapped < TWO_PI))

    def test_wrap_preserves_excitation(self):
        arr = ArrayGeometry.half_wave(10, 10, WAVELENGTH)
        pd = synthesize(arr, steer(Wavefront.cone(0.2), SteeringAngles(0.5, 0.4)))
        raw = to_excitation(pd).currents
        wrapped = to_excitation(wrap_phase(pd)).currents
        assert np.max(np.abs(raw - wrapped)) <= 1e-12


class TestPhaseCsv:
    def test_header_layout_and_roundtrip(self, tmp_path):
        arr = ArrayGeometry.half_wave(4, 3, WAVELENGTH)
        pd = synthesize(arr, steer(Wavefront.cone(0.2), SteeringAngles(0.2, -0.1)))
        path = tmp_path / "phase.csv"
        export_phase_csv(pd, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x_m,z_m,phase_rad_wrapped,phase_rad_unwrapped,distance_m"
        assert len(lines) == 1 + arr.num_elements
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 0], arr.element_positions[:, 0])
        np.testing.assert_array_equal(data[:, 1], arr.element_positions[:, 2])
        wrapped = np.mod(pd.phases, TWO_PI)
        np.testing.assert_array_equal(data[:, 2].view(np.int64), wrapped.view(np.int64))
        assert np.all((data[:, 2] >= 0.0) & (data[:, 2] < TWO_PI))
        np.testing.assert_array_equal(data[:, 3], pd.phases)
        np.testing.assert_array_equal(data[:, 4], pd.signed_distances)

    def test_bytes_over_blocks(self, tmp_path, csv_oracle):
        # 1,320 rows: one full block and a partial one
        arr = ArrayGeometry.half_wave(40, 33, WAVELENGTH)
        pd = synthesize(arr, steer(Wavefront.cone(0.2), SteeringAngles(0.26, -0.35)))
        path = tmp_path / "phase.csv"
        export_phase_csv(pd, path)
        pos = arr.element_positions
        columns = (pos[:, 0], pos[:, 2], np.mod(pd.phases, TWO_PI), pd.phases, pd.signed_distances)
        want = csv_oracle("x_m,z_m,phase_rad_wrapped,phase_rad_unwrapped,distance_m", columns)
        assert path.read_text() == want


# values where %.17g is hardest: signed zeros, subnormals, the switch to
# exponent form below 1e-4 and at 1e17, and integers past 2**53
SPECIAL = np.array(
    [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-5, -1e-4, 9.9999999999999995e-5,
     1e16, 1e17, 1e22, -1e22, 123456789012345678.0, 0.1, math.pi]
)


class TestWriteCsv:
    @pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
    def test_bytes_match_per_row_formula(self, tmp_path, rng, csv_oracle, rows):
        spread = rng.normal(size=rows) * 10.0 ** rng.integers(-30, 30, size=rows)
        pairs = np.repeat(rng.normal(size=(rows + 1) // 2), 2)[:rows]
        complex_col = spread + 1j * rng.normal(size=rows)
        columns = (
            np.where(rng.random(rows) < 0.5, 0.0, -0.0),  # two bit patterns, one value
            rng.choice(SPECIAL, size=rows),  # repeats within and across blocks
            np.full(rows, 0.1),
            pairs,  # exactly half as many distinct values as rows
            np.where(rng.random(rows) < 0.3, rng.choice(SPECIAL, size=rows), spread),
            complex_col.real,  # strided views, as the field exporter passes
            complex_col.imag,
        )
        path = tmp_path / "t.csv"
        write_csv(path, "a,b,c,d,e,f,g", columns)
        assert path.read_text() == csv_oracle("a,b,c,d,e,f,g", columns)

    def test_matches_format_on_hard_values(self, tmp_path, rng, csv_oracle):
        # Exact 17-digit ties: odd n / 2^m whose decimal expansion n 5^m / 10^m
        # has 18 significant digits lies in decade 17 - m, so m = 2..21
        # covers every decade the numpy path formats.
        m = np.repeat(np.arange(2, 22), 6000)
        lo = np.ceil(1e17 / 5.0**m)
        hi = np.minimum(1e18 / 5.0**m, 2.0**53)
        n = np.floor(lo + rng.random(m.size) * (hi - lo)).astype(np.int64) | 1
        ties = np.ldexp(n.astype(float), -m) * rng.choice([-1.0, 1.0], m.size)
        # powers of ten and their neighbours within two ulps, over and
        # past the decades of the numpy path; %g's switches at 1e-4 and 1e17,
        # the fallback's at 1e16
        p = 10.0 ** np.arange(-8, 20)
        edges = [np.nextafter(p, 0), np.nextafter(np.nextafter(p, 0), 0), p]
        edges += [np.nextafter(p, np.inf), np.nextafter(np.nextafter(p, np.inf), np.inf)]
        edges = np.concatenate(edges + [-e for e in edges])
        # doubles below 10^k whose 17-digit rounding carries to 10^k, all
        # outside the numpy path's range
        carries = np.array([1e-14, 1e-70, 1e-176, 1e-305])
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.inf, -math.inf, math.nan])
        # few significant digits: trailing zeros in every group of D
        short = rng.integers(1, 10**7, 20000) / 2.0 ** rng.integers(0, 24, 20000)
        short *= 10.0 ** rng.integers(0, 10, 20000)
        wide = rng.normal(size=20000) * 10.0 ** rng.uniform(-8, 18, 20000)
        values = np.concatenate([ties, edges, carries, special, short, wide])
        values = values[: values.size // 4 * 4].reshape(4, -1)
        strided = np.empty(values.shape[1], complex)  # .real and .imag, as the field exporter passes
        strided.real, strided.imag = values[2], values[3]
        columns = (values[0], values[1], strided.real, strided.imag)
        path = tmp_path / "hard.csv"
        write_csv(path, "a,b,c,d", columns)
        assert path.read_text() == csv_oracle("a,b,c,d", columns)
