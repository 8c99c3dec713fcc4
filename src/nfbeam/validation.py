"""On-demand invariant suites behind the ``validate`` CLI subcommand.

Each check returns its worst observed error against a fixed threshold.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import kernels
from .field import ObservationGrid, export_field_csv, frequency_to_wavelength, total_field
from .geometry import SteeringAngles, steering_rotation, to_primed
from .solver import oracle_min_distance, plane_distance_closed_form
from .synthesis import (
    ArrayGeometry,
    Excitation,
    export_phase_csv,
    synthesize,
    to_excitation,
)
from .wavefront import Wavefront, steer, surface_eval, surface_gradient

# defaults of ``nfbeam validate --cases`` and ``--seed``
DEFAULT_CASES = 40
DEFAULT_SEED = 20240901


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_error: float
    threshold: float
    detail: str = ""


# a smooth custom surface, which has no closed form: Newton solves it
_CUSTOM = Wavefront.custom(
    surface=lambda x, z: 0.1 * x * x + 0.05 * np.sin(z),
    gradient=lambda x, z: (0.2 * x, 0.05 * np.cos(z) * np.ones_like(x)),
)


def check_rotation_orthonormality(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(200):
        az, el = rng.uniform(-math.pi / 2 * 0.999, math.pi / 2 * 0.999, size=2)
        r = steering_rotation(SteeringAngles(az, el))
        worst = max(worst, float(np.max(np.abs(r.T @ r - np.eye(3)))))
        worst = max(worst, abs(float(np.linalg.det(r)) - 1.0))
    return CheckResult("rotation_orthonormality", worst <= 1e-12, worst, 1e-12)


def check_gradient_finite_difference(rng: np.random.Generator) -> CheckResult:
    # the custom surface's analytic gradient against central differences
    worst = 0.0
    w = _CUSTOM
    for x, z in rng.uniform(-0.5, 0.5, size=(200, 2)):
        gx, gz = surface_gradient(w, x, z)
        h = 1e-6 * max(1.0, math.hypot(x, z))
        fdx = (surface_eval(w, x + h, z) - surface_eval(w, x - h, z)) / (2 * h)
        fdz = (surface_eval(w, x, z + h) - surface_eval(w, x, z - h)) / (2 * h)
        scale = max(math.hypot(fdx, fdz), 1e-12)
        worst = max(worst, math.hypot(gx - fdx, gz - fdz) / scale)
    return CheckResult("gradient_finite_difference", worst <= 1e-6, worst, 1e-6)


def check_plane_closed_form_regression(rng: np.random.Generator) -> CheckResult:
    # synthesize's plane distances against the plane's angle form
    wavelength = frequency_to_wavelength(100e9)
    array = ArrayGeometry.half_wave(32, 32, wavelength)
    worst = 0.0
    for az_deg in (-40.0, -20.0, 0.0, 20.0, 40.0):
        for el_deg in (-40.0, -20.0, 0.0, 20.0, 40.0):
            angles = SteeringAngles.from_degrees(az_deg, el_deg)
            dist = synthesize(array, steer(Wavefront.plane(), angles)).signed_distances
            ref = plane_distance_closed_form(angles, array.element_positions)
            worst = max(worst, float(np.max(np.abs(dist - ref))))
    return CheckResult("plane_closed_form_regression", worst <= 1e-9, worst, 1e-9)


def check_solver_oracle_equivalence(
    rng: np.random.Generator, cases: int = DEFAULT_CASES
) -> CheckResult:
    # each case is a one-row kernels.nearest_feet call in the steered frame;
    # the refined oracle (grid plus golden-section polish) is far tighter
    # than its worst-case cell-diagonal bound, so this check holds the
    # solver to 1e-7 m; a 1e-6 m error in either distance must fail it, and
    # a row that does not converge counts as an infinite error
    threshold = 1e-7
    worst = 0.0
    detail = ""
    # plane and cone cases first, then custom-surface cases
    for case in range(cases + max(1, cases // 4)):
        angles = SteeringAngles.from_degrees(
            rng.uniform(-45.0, 45.0), rng.uniform(-45.0, 45.0)
        )
        if case >= cases:
            base = _CUSTOM
        elif rng.uniform() < 0.5:
            base = Wavefront.plane()
        else:
            base = Wavefront.cone(rng.uniform(0.05, 0.5))
        sw = steer(base, angles)
        pos = np.array([rng.uniform(-0.075, 0.075), 0.0, rng.uniform(-0.075, 0.075)])
        feet = kernels.nearest_feet(to_primed(sw.rotation, pos)[None], sw.base)
        oracle = oracle_min_distance(sw, pos)
        solved = abs(float(feet.signed_distance[0]))
        worst = max(worst, abs(solved - oracle) if feet.converged[0] else math.inf)
    if worst > threshold:
        detail = "nearest_feet distances disagree with the brute-force minimization"
    return CheckResult(
        "solver_oracle_equivalence", worst <= threshold, worst, threshold, detail
    )


def check_field_linearity(rng: np.random.Generator) -> CheckResult:
    wavelength = 0.003
    array = ArrayGeometry.half_wave(4, 4, wavelength)
    currents = np.exp(1j * rng.uniform(0, 2 * math.pi, array.num_elements))
    pts = rng.uniform(-0.05, 0.05, size=(40, 3))
    pts[:, 1] = rng.uniform(0.05, 0.2, size=40)
    grid = ObservationGrid.from_points(pts)
    c = complex(rng.normal(), rng.normal())
    base = total_field(array, Excitation(currents), grid)
    scaled = total_field(array, Excitation(c * currents), grid)
    stacked = np.concatenate([base.ex, base.ey, base.ez])
    stacked_scaled = np.concatenate([scaled.ex, scaled.ey, scaled.ez])
    err = float(
        np.max(np.abs(stacked_scaled - c * stacked)) / np.max(np.abs(c * stacked))
    )
    return CheckResult("field_linearity", err <= 1e-12, err, 1e-12)


def check_determinism(rng: np.random.Generator) -> CheckResult:
    wavelength = 0.003
    array = ArrayGeometry.half_wave(8, 8, wavelength)
    sw = steer(Wavefront.cone(0.2), SteeringAngles.from_degrees(10.0, -5.0))
    grid = ObservationGrid.plane_grid("xy", (-0.03, 0.03), (0.04, 0.12), 11, 11)

    def run_once(tmp: Path, tag: str) -> bytes:
        pd = synthesize(array, sw)
        fg = total_field(array, to_excitation(pd), grid)
        phase_path = tmp / f"phase_{tag}.csv"
        field_path = tmp / f"field_{tag}.csv"
        export_phase_csv(pd, phase_path)
        export_field_csv(fg, field_path)
        return phase_path.read_bytes() + field_path.read_bytes()

    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        identical = run_once(tmp, "a") == run_once(tmp, "b")
    err = 0.0 if identical else 1.0
    return CheckResult(
        "determinism", identical, err, 0.0, "" if identical else "rerun bytes differ"
    )


CHECKS: dict[str, Callable] = {
    "rotation_orthonormality": check_rotation_orthonormality,
    "gradient_finite_difference": check_gradient_finite_difference,
    "plane_closed_form_regression": check_plane_closed_form_regression,
    "solver_oracle_equivalence": check_solver_oracle_equivalence,
    "field_linearity": check_field_linearity,
    "determinism": check_determinism,
}


class SelectionError(ValueError):
    """The selection names an unknown check or no check at all, asks for
    fewer than one solver-oracle case, or gives a negative seed."""


def run_validation(
    only: list[str] | None = None, seed: int = DEFAULT_SEED, cases: int = DEFAULT_CASES
) -> list[CheckResult]:
    """Run the selected checks; raises SelectionError on an unknown or empty
    selection, on ``cases`` below 1 or on a negative ``seed``, before any
    check runs."""
    if cases < 1:
        raise SelectionError("--cases must be at least 1")
    if seed < 0:
        raise SelectionError("--seed must be a non-negative integer")
    names = list(CHECKS) if only is None else [n for n in only if n in CHECKS]
    if only is not None:
        unknown = [n for n in only if n not in CHECKS]
        if unknown:
            raise SelectionError(f"unknown checks: {', '.join(unknown)}")
    if not names:
        raise SelectionError("no checks selected")
    results = []
    for name in names:
        rng = np.random.default_rng(seed)
        if name == "solver_oracle_equivalence":
            results.append(CHECKS[name](rng, cases=cases))
        else:
            results.append(CHECKS[name](rng))
    return results
