"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and then
asserts, so a red run still reports every criterion's measured error.
Run with ``pytest tests/test_acceptance.py -v``.
"""

import math
import time

import numpy as np
import pytest

from nfbeam import kernels
from nfbeam.analysis import (
    estimate_direction,
    propagation_range,
    transverse_profile,
)
from nfbeam.field import ObservationGrid, total_field
from nfbeam.geometry import SteeringAngles, to_primed
from nfbeam.solver import (
    SolverConfig,
    oracle_cell_diagonal,
    oracle_signed_min_distance,
    plane_distance_closed_form,
)
from nfbeam.synthesis import ArrayGeometry, synthesize, to_excitation
from nfbeam.validation import run_validation
from nfbeam.wavefront import Wavefront, steer

FREQUENCY = 100e9
WAVELENGTH = 299_792_458.0 / FREQUENCY
K = 2.0 * math.pi / WAVELENGTH
ANGLE_GRID_DEG = (-40.0, -20.0, 0.0, 20.0, 40.0)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # compile the jit kernels once so criterion timings measure the solve,
    # not compilation
    arr = ArrayGeometry.half_wave(2, 2, WAVELENGTH)
    pd = synthesize(arr, steer(Wavefront.cone(0.2), SteeringAngles(0.0, 0.0)))
    grid = ObservationGrid.from_points(np.array([[0.0, 0.1, 0.0]]))
    total_field(arr, to_excitation(pd), grid)


def test_criterion_1_gaussian_closed_form_regression():
    start = time.perf_counter()
    array = ArrayGeometry.half_wave(100, 100, WAVELENGTH)
    worst = 0.0
    for az_deg in ANGLE_GRID_DEG:
        for el_deg in ANGLE_GRID_DEG:
            angles = SteeringAngles.from_degrees(az_deg, el_deg)
            phases = synthesize(array, steer(Wavefront.plane(), angles)).phases
            ce_sa = math.cos(angles.elevation) * math.sin(angles.azimuth)
            se = math.sin(angles.elevation)
            expected = K * (
                array.element_positions[:, 0] * ce_sa
                + array.element_positions[:, 2] * se
            )
            worst = max(worst, float(np.max(np.abs(phases - expected))))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-9 and elapsed < 30.0
    report(
        "criterion 1 (gaussian closed-form regression)",
        passed,
        f"max phase error {worst:.3e} rad (tol 1e-9), runtime {elapsed:.1f} s (< 30 s)",
    )
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_2_solver_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_ratio = 0.0
    for _ in range(200):
        if rng.uniform() < 0.5:
            base = Wavefront.plane()
        else:
            base = Wavefront.cone(rng.uniform(0.05, 0.5))
        angles = SteeringAngles.from_degrees(
            rng.uniform(-45.0, 45.0), rng.uniform(-45.0, 45.0)
        )
        sw = steer(base, angles)
        pos = np.array([rng.uniform(-0.075, 0.075), 0.0, rng.uniform(-0.075, 0.075)])
        cfg = SolverConfig(oracle_halfwidth=4.0 * max(0.01, float(np.linalg.norm(pos))))
        feet = kernels.nearest_feet(to_primed(sw.rotation, pos)[None], sw.base)
        oracle = abs(oracle_signed_min_distance(sw, pos, cfg))
        # a row that does not converge counts as an infinite error
        err = abs(abs(feet.signed_distance[0]) - oracle) if feet.converged[0] else math.inf
        worst_ratio = max(worst_ratio, err / oracle_cell_diagonal(cfg))
    elapsed = time.perf_counter() - start
    passed = worst_ratio <= 1.0 and elapsed < 60.0
    report(
        "criterion 2 (solver-oracle equivalence, 200 cases)",
        passed,
        f"worst |Newton-oracle| at {worst_ratio:.3e} of the cell-diagonal bound, "
        f"runtime {elapsed:.1f} s (< 60 s)",
    )
    assert worst_ratio <= 1.0
    assert elapsed < 60.0


def test_criterion_3_unsteered_cone_closed_form():
    array = ArrayGeometry.half_wave(32, 32, WAVELENGTH)
    h_over_r = 0.2
    pd = synthesize(array, steer(Wavefront.cone(h_over_r), SteeringAngles(0.0, 0.0)))
    rho = np.hypot(array.element_positions[:, 0], array.element_positions[:, 2])
    expected = rho * h_over_r / math.sqrt(1.0 + h_over_r * h_over_r)
    worst = float(np.max(np.abs(pd.signed_distances - expected)))
    passed = worst <= 1e-9
    report(
        "criterion 3 (unsteered cone closed form)",
        passed,
        f"max distance error {worst:.3e} m (tol 1e-9)",
    )
    assert worst <= 1e-9


def test_criterion_4_polarization_symmetry():
    start = time.perf_counter()
    array = ArrayGeometry.half_wave(64, 64, WAVELENGTH)
    beam_range = propagation_range(array, 0.2)

    # (a) unsteered beam on the y-axis: x- and y-components cancel
    pd = synthesize(array, steer(Wavefront.cone(0.2), SteeringAngles(0.0, 0.0)))
    ys = np.linspace(10.5 * WAVELENGTH, beam_range, 64)
    line = ObservationGrid.from_points(
        np.column_stack([np.zeros_like(ys), ys, np.zeros_like(ys)])
    )
    fg = total_field(array, to_excitation(pd), line)
    ez = np.abs(fg.ez)
    worst_a = float(np.max(np.maximum(np.abs(fg.ex), np.abs(fg.ey)) / ez))

    # (b) azimuth steering: still pure z-polarization in the xy-plane
    pd = synthesize(
        array, steer(Wavefront.cone(0.2), SteeringAngles.from_degrees(20.0, 0.0))
    )
    grid = ObservationGrid.plane_grid(
        "xy", (-0.15, 0.05), (0.05, beam_range), 61, 61
    )
    fg = total_field(array, to_excitation(pd), grid)
    ez = np.abs(fg.ez)
    worst_b = float(np.max(np.maximum(np.abs(fg.ex), np.abs(fg.ey)) / ez))

    # (c) elevation steering: significant y-polarization appears
    pd = synthesize(
        array, steer(Wavefront.cone(0.2), SteeringAngles.from_degrees(0.0, 20.0))
    )
    grid = ObservationGrid.plane_grid(
        "yz", (10.5 * WAVELENGTH, beam_range), (-0.15, 0.05), 61, 61
    )
    fg = total_field(array, to_excitation(pd), grid)
    mag = fg.magnitude()
    beamlike = mag >= 0.1 * float(np.max(mag))
    ratio_c = float(
        np.max(np.abs(fg.ey)[beamlike] / np.maximum(np.abs(fg.ez)[beamlike], 1e-300))
    )

    elapsed = time.perf_counter() - start
    passed = worst_a <= 1e-10 and worst_b <= 1e-10 and ratio_c > 0.05 and elapsed < 120.0
    report(
        "criterion 4 (polarization symmetry)",
        passed,
        f"on-axis cross-pol {worst_a:.2e}, azimuth-steered xy cross-pol {worst_b:.2e} "
        f"(both <= 1e-10), elevation-steered |Ey|/|Ez| {ratio_c:.3f} (> 0.05), "
        f"runtime {elapsed:.1f} s (< 120 s)",
    )
    assert worst_a <= 1e-10
    assert worst_b <= 1e-10
    assert ratio_c > 0.05
    assert elapsed < 120.0


def test_criterion_5_steering_accuracy():
    array = ArrayGeometry.half_wave(64, 64, WAVELENGTH)
    radius = 0.5 * propagation_range(array, 0.2)
    worst = 0.0
    for az_deg, el_deg in ((20.0, 0.0), (0.0, 20.0)):
        angles = SteeringAngles.from_degrees(az_deg, el_deg)
        pd = synthesize(array, steer(Wavefront.cone(0.2), angles))
        metrics = estimate_direction(array, to_excitation(pd), radius)
        worst = max(
            worst,
            abs(math.degrees(metrics.estimated_azimuth) - az_deg),
            abs(math.degrees(metrics.estimated_elevation) - el_deg),
        )
    passed = worst <= 1.0
    report(
        "criterion 5 (steering accuracy)",
        passed,
        f"worst direction error {worst:.2f} deg (tol 1 deg) at radius {radius:.3f} m",
    )
    assert worst <= 1.0


def test_criterion_6_bessel_profile_first_null():
    array = ArrayGeometry.half_wave(64, 64, WAVELENGTH)
    y0 = 0.5 * propagation_range(array, 0.2)
    pd = synthesize(array, steer(Wavefront.cone(0.2), SteeringAngles(0.0, 0.0)))
    prof = transverse_profile(
        array, to_excitation(pd), np.array([0.0, y0, 0.0]), np.array([1.0, 0.0, 0.0]),
        np.linspace(-0.02, 0.02, 321),
    )
    theory = 2.40483 / (K * math.sin(math.atan(0.2)))
    rel = abs(prof.first_null_radius - theory) / theory
    passed = rel <= 0.10
    report(
        "criterion 6 (transverse profile first null)",
        passed,
        f"first null {prof.first_null_radius * 1e3:.3f} mm vs {theory * 1e3:.3f} mm, "
        f"relative error {rel:.3f} (tol 0.10)",
    )
    assert rel <= 0.10


def test_criterion_7_invariant_suites_and_performance():
    results = run_validation()
    for res in results:
        print(
            f"    {'PASS' if res.passed else 'FAIL'} {res.name} "
            f"max_error={res.max_error:.3e}"
        )
    suites_green = all(res.passed for res in results)

    array = ArrayGeometry.half_wave(100, 100, WAVELENGTH)
    pd = synthesize(array, steer(Wavefront.cone(0.2), SteeringAngles(0.0, 0.0)))
    grid = ObservationGrid.plane_grid("xy", (-0.25, 0.25), (0.05, 0.55), 200, 200)
    start = time.perf_counter()
    fg = total_field(array, to_excitation(pd), grid)
    elapsed = time.perf_counter() - start
    finite = bool(np.all(np.isfinite(fg.ez)))

    passed = suites_green and finite and elapsed < 120.0
    report(
        "criterion 7 (invariant suites and performance)",
        passed,
        f"validate checks {'all green' if suites_green else 'RED'}, 100x100 array on "
        f"200x200 grid in {elapsed:.1f} s (< 120 s)",
    )
    assert suites_green
    assert finite
    assert elapsed < 120.0
