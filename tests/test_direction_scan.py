"""The coarse-to-fine direction scan against an exhaustive one-degree scan.

``exhaustive_direction`` is the oracle: every direction of the one-degree
(azimuth, elevation) lattice over [-90, 90], then the tenth-of-a-degree
refine around the first maximum.  ``estimate_direction`` must return exactly
its estimate, with no tolerance, on beams that stress the coarse stage:
narrow and wide main lobes, cone ring sidelobes and grating lobes.
"""

import math

import numpy as np
import pytest

from nfbeam import analysis
from nfbeam.cli import SimulationConfig, analysis_radius, build_scenario
from nfbeam.field import ObservationGrid, total_field
from nfbeam.synthesis import synthesize, to_excitation
from nfbeam.wavefront import steer


def _tensor_magnitude(array, exc, radius, az_deg, el_deg):
    az = np.radians(az_deg)[:, None]
    el = np.radians(el_deg)[None, :]
    ce = np.cos(el)
    pts = np.empty((az.shape[0], el.shape[1], 3))
    pts[:, :, 0] = -ce * np.sin(az)
    pts[:, :, 1] = ce * np.cos(az)
    pts[:, :, 2] = -np.sin(el) * np.ones_like(az)
    pts = radius * pts.reshape(-1, 3)
    fg = total_field(array, exc, ObservationGrid.from_points(pts))
    return fg.magnitude().reshape(len(az_deg), len(el_deg))


def exhaustive_direction(array, exc, radius):
    """(azimuth, elevation) in radians from the full one-degree scan."""
    lattice = np.arange(-90.0, 90.0 + 0.5, 1.0)
    mag = _tensor_magnitude(array, exc, radius, lattice, lattice)
    i, j = np.unravel_index(int(np.argmax(mag)), mag.shape)
    az_fine = np.clip(lattice[i] + np.arange(-10, 11) * 0.1, -90.0, 90.0)
    el_fine = np.clip(lattice[j] + np.arange(-10, 11) * 0.1, -90.0, 90.0)
    mag = _tensor_magnitude(array, exc, radius, az_fine, el_fine)
    i, j = np.unravel_index(int(np.argmax(mag)), mag.shape)
    return math.radians(float(az_fine[i])), math.radians(float(el_fine[j]))


def cli_beam(n, beam, az_deg, el_deg, h_over_r=0.2, spacing=0.5):
    """Array, excitation and scan radius as ``nfbeam run`` builds them."""
    scn = build_scenario(
        SimulationConfig(
            n_x=n,
            n_z=n,
            spacing_in_wavelengths=spacing,
            beam_kind=beam,
            h_over_r=h_over_r,
            azimuth_deg=az_deg,
            elevation_deg=el_deg,
        )
    )
    pd = synthesize(scn.array, steer(scn.wavefront, scn.angles))
    return scn.array, to_excitation(pd), analysis_radius(scn)


# (n, beam, h_over_r, az_deg, el_deg, spacing in wavelengths)
EQUIVALENCE_CASES = [
    (n, beam, h, az, el, 0.5)
    for n in (8, 16)
    for beam, h in (("bessel", 0.1), ("bessel", 0.2), ("bessel", 0.4), ("gaussian", 0.2))
    for az, el in ((0.0, 0.0), (20.0, 0.0), (35.0, -35.0))
] + [
    (40, "bessel", 0.2, 35.0, -35.0, 0.5),
    (40, "bessel", 0.4, -20.0, 15.0, 0.5),
    (40, "gaussian", 0.2, 25.0, -10.0, 0.5),
    # grating lobes: 1.5-wavelength spacing
    (24, "bessel", 0.2, 20.0, 10.0, 1.5),
    (24, "gaussian", 0.2, 30.0, 0.0, 1.5),
]


@pytest.mark.parametrize(
    "n, beam, h_over_r, az_deg, el_deg, spacing",
    EQUIVALENCE_CASES,
    ids=[f"{n}x{n}-{b}-{h}-({az},{el})-d{s}" for n, b, h, az, el, s in EQUIVALENCE_CASES],
)
def test_estimate_equals_exhaustive_scan(n, beam, h_over_r, az_deg, el_deg, spacing):
    array, exc, radius = cli_beam(n, beam, az_deg, el_deg, h_over_r, spacing)
    metrics = analysis.estimate_direction(array, exc, radius)
    az, el = exhaustive_direction(array, exc, radius)
    assert metrics.estimated_azimuth == az
    assert metrics.estimated_elevation == el


def test_scan_magnitudes_bit_identical_to_tensor_scan():
    array, exc, radius = cli_beam(4, "bessel", 20.0, -10.0)
    lattice = analysis.SCAN_LATTICE_DEG
    flat = analysis._scan_magnitude(
        array, exc, radius, np.repeat(lattice, len(lattice)), np.tile(lattice, len(lattice))
    )
    assert np.array_equal(flat, _tensor_magnitude(array, exc, radius, lattice, lattice).ravel())


def product_neighbourhood(marked):
    """The scan's stage-2 directions as an int64 matrix product: lattice
    index i is near coarse direction c when |i - stride c| <= stride."""
    lattice, stride = analysis.SCAN_LATTICE_DEG, analysis.COARSE_STRIDE
    offsets = np.arange(len(lattice))[:, None] - stride * np.arange(len(lattice[::stride]))
    near = (np.abs(offsets) <= stride).astype(np.int64)
    return np.nonzero(near @ marked.astype(np.int64) @ near.T)


def test_neighbourhood_equals_product_formula(rng):
    n = len(analysis.SCAN_LATTICE_DEG[:: analysis.COARSE_STRIDE])
    masks = [rng.uniform(size=(n, n)) < p for p in (0.002, 0.02, 0.1, 0.5) for _ in range(5)]
    # marked edge and corner cells, alone and together
    for cells in ([(0, 0)], [(n - 1, n - 1)], [(0, n - 1), (n - 1, 0)], [(0, 7), (n - 1, 30)],
                  [(12, 0), (40, n - 1), (n - 2, 1)]):
        mask = np.zeros((n, n), bool)
        mask[tuple(np.transpose(cells))] = True
        masks.append(mask)
    masks.append(np.ones((n, n), bool))
    for mask in masks:
        got, want = analysis._neighbourhood(mask), product_neighbourhood(mask)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def test_cone_scan_evaluates_few_directions(monkeypatch):
    array, exc, radius = cli_beam(16, "bessel", 20.0, -10.0)
    evaluated = []

    def counting_field(array, exc, grid):
        evaluated.append(grid.num_points)
        return total_field(array, exc, grid)

    monkeypatch.setattr(analysis, "total_field", counting_field)
    analysis.estimate_direction(array, exc, radius)
    assert len(evaluated) == 3
    assert sum(evaluated) < 6000


def test_steep_cone_scanned_at_min_scan_radius():
    # half the propagation range of an h/r = 50 cone lies inside the clearance
    array, exc, radius = cli_beam(8, "bessel", 10.0, -5.0, h_over_r=50.0)
    assert radius == analysis.min_scan_radius(array)
    analysis.estimate_direction(array, exc, radius)
    with pytest.raises(analysis.RadiusOutOfRange):
        analysis.estimate_direction(array, exc, np.nextafter(radius, 0.0))


@pytest.mark.parametrize("az_deg, el_deg", [(20.0, 0.0), (0.0, 20.0), (25.0, -10.0)])
def test_gaussian_direction_at_fraunhofer_radius(az_deg, el_deg):
    # same tolerance as acceptance criterion 5
    array, exc, radius = cli_beam(64, "gaussian", az_deg, el_deg)
    assert radius == 2.0 * (2.0 * array.aperture_radius) ** 2 / array.wavelength
    metrics = analysis.estimate_direction(array, exc, radius)
    assert abs(math.degrees(metrics.estimated_azimuth) - az_deg) <= 1.0
    assert abs(math.degrees(metrics.estimated_elevation) - el_deg) <= 1.0
