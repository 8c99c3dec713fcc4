import math
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from nfbeam import kernels
from nfbeam.field import frequency_to_wavelength
from nfbeam.geometry import SteeringAngles, steering_rotation
from nfbeam.solver import cone_distance_closed_form
from nfbeam.synthesis import ArrayGeometry, write_csv
from nfbeam.wavefront import Wavefront
from test_field import element_field

# a fresh interpreter, with the directories in argv first on sys.path, makes
# one small field_sum call and prints whether numba was imported and the
# result's bytes
FIELD_SUM_PROBE = """
import sys
sys.path[:0] = sys.argv[1:]
import numpy as np
import nfbeam
from nfbeam import kernels
rng = np.random.default_rng(0)
pos = rng.uniform(-0.05, 0.05, (12, 3))
cur = np.exp(1j * rng.uniform(0.0, 6.3, (2, 12)))
pts = rng.uniform(0.05, 0.2, (30, 3))
out = np.stack(kernels.field_sum(pos, cur, pts, 2000.0))
print('numba' in sys.modules, out.tobytes().hex())
"""


def test_numba_on_the_path_is_not_imported(tmp_path):
    # an empty numba package first on sys.path changes neither what is
    # imported nor any bit of the field
    (tmp_path / "numba").mkdir()
    (tmp_path / "numba" / "__init__.py").write_text("")

    def probe(*path):
        run = [sys.executable, "-c", FIELD_SUM_PROBE, *path]
        return subprocess.run(run, capture_output=True, text=True, check=True).stdout.split()

    imported, stubbed = probe(str(tmp_path))
    assert imported == "False"
    assert stubbed == probe()[1]


def random_primed_elements(rng, n=200):
    pe = rng.uniform(-0.1, 0.1, size=(n, 3))
    return pe


class TestNearestFeet:
    def test_cone_matches_meridian_closed_form(self, rng):
        pe = random_primed_elements(rng)
        out = kernels.nearest_feet(pe, Wavefront.cone(0.3))
        assert out.converged.all()
        ref = np.array([cone_distance_closed_form(0.3, p) for p in pe])
        np.testing.assert_allclose(out.signed_distance, ref, atol=1e-12)

    def test_plane_kind(self, rng):
        pe = random_primed_elements(rng, n=64)
        out = kernels.nearest_feet(pe, Wavefront.plane())
        assert out.converged.all()
        np.testing.assert_array_equal(out.signed_distance, -pe[:, 1])
        np.testing.assert_array_equal(out.foot_x, pe[:, 0])
        np.testing.assert_array_equal(out.foot_z, pe[:, 2])

    def test_plane_and_cone_take_the_closed_form(self, rng, monkeypatch):
        # Newton's derivatives are for custom surfaces only; the plane is the
        # cone of slope 0
        def newton_derivative(*args):
            raise AssertionError("Newton ran")

        monkeypatch.setattr(kernels, "surface_gradient", newton_derivative)
        monkeypatch.setattr(kernels, "surface_hessian", newton_derivative)
        pe = random_primed_elements(rng)
        plane = kernels.nearest_feet(pe, Wavefront.plane())
        for got, want in zip(plane[:3], kernels.cone_feet(0.0, pe)):
            np.testing.assert_array_equal(got, want)
        cone = kernels.nearest_feet(pe, Wavefront.cone(0.3))
        for out in (plane, cone):
            assert out.converged.all()
            assert not out.iterations.any()

    def test_apex_elements(self):
        # apex directly above/below the element projection, including the apex itself
        pe = np.array([[0.0, 0.0, 0.0], [0.0, -0.05, 0.0], [0.0, 0.05, 0.0]])
        out = kernels.nearest_feet(pe, Wavefront.cone(0.2))
        assert out.converged.all()
        assert out.signed_distance[0] == 0.0
        assert out.signed_distance[1] == pytest.approx(0.05, abs=1e-12)
        # point on the cone axis above the apex: inside, so negative distance
        ref = cone_distance_closed_form(0.2, pe[2])
        assert out.signed_distance[2] == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("analytic_gradient", [True, False])
    @pytest.mark.parametrize("az_deg, el_deg", [(0.0, 0.0), (20.0, -10.0), (35.0, 35.0)])
    def test_newton_on_spherical_cap(self, az_deg, el_deg, analytic_gradient):
        # cap y = R - sqrt(R^2 - x^2 - z^2) of the sphere centred at (0, R, 0):
        # the exact signed distance is ||p' - c|| - R
        radius = 0.05

        def cap(x, z):
            return radius - np.sqrt(radius * radius - x * x - z * z)

        def gradient(x, z):
            s = np.sqrt(radius * radius - x * x - z * z)
            return x / s, z / s

        w = Wavefront.custom(cap, gradient if analytic_gradient else None)
        arr = ArrayGeometry.half_wave(12, 12, frequency_to_wavelength(100e9))
        rotation = steering_rotation(SteeringAngles.from_degrees(az_deg, el_deg))
        pe = arr.element_positions @ rotation.T
        out = kernels.nearest_feet(pe, w)
        assert out.converged.all()
        # quadratic convergence; a wrong curvature term takes 4 to 13 iterations
        assert out.iterations.max() <= 3
        exact = np.linalg.norm(pe - [0.0, radius, 0.0], axis=1) - radius
        np.testing.assert_allclose(out.signed_distance, exact, rtol=0.0, atol=1e-12)

    def test_nonconvergence_reported(self, monkeypatch):
        # one iteration cannot reach a 1e-12 residual on a wiggly surface
        wiggle = Wavefront.custom(
            surface=lambda x, z: 0.05 * np.sin(40.0 * x) + 0.03 * np.cos(25.0 * z)
        )
        monkeypatch.setattr(kernels, "MAX_ITERATIONS", 1)
        out = kernels.nearest_feet(np.array([[0.08, 0.0, 0.05]]), wiggle)
        assert not out.converged[0]
        assert np.isnan(out.signed_distance[0])


def field_sum_case(rng, nelem, npts, nk):
    pos = rng.uniform(-0.05, 0.05, size=(nelem, 3))
    pos[:, 1] = 0.0
    cur = np.exp(1j * rng.uniform(0, 2 * math.pi, (nk, nelem)))
    pts = rng.uniform(-0.2, 0.2, size=(npts, 3))
    pts[:, 1] = rng.uniform(0.05, 0.4, size=npts)
    return pos, cur, pts, 2 * math.pi / 0.003


def lattice(n_x, n_z):
    return ArrayGeometry.half_wave(n_x, n_z, 0.003).element_positions


def z_per_column(rng):
    pos = lattice(8, 8).reshape(8, 8, 3).copy()
    pos[:, :, 2] += rng.uniform(-0.002, 0.002, (8, 1))
    return pos.reshape(-1, 3)


# element layouts of the numpy kernel's column factoring, with the column
# length it finds in each
LATTICES = {
    "8x8": (lambda rng: lattice(8, 8), 8),
    "7x5": (lambda rng: lattice(7, 5), 5),
    # the z <= 0 half that total_field sums points on z = 0 over
    "half_5x17": (lambda rng: lattice(5, 17).reshape(5, 17, 3)[:, :9].reshape(-1, 3), 9),
    # a single column is summed as columns of one
    "nx1": (lambda rng: lattice(1, 9), 1),
    "nz1": (lambda rng: lattice(9, 1), 1),
    "z_per_column": (z_per_column, 8),
    # runs of 8 and a last run of 7: every element is its own column
    "unequal_runs": (lambda rng: lattice(8, 8)[:-1], 1),
}


def lattice_case(rng, layout, npts, nk):
    """A lattice case of field_sum_case's kind, with a point straight along z
    from each of three columns (rho = 0 for that column)."""
    pos = LATTICES[layout][0](rng)
    _, cur, pts, k = field_sum_case(rng, len(pos), npts, nk)
    for p, n in zip((1, npts // 2, npts - 2), rng.integers(0, len(pos), 3)):
        pts[p] = [pos[n, 0], pos[n, 1], rng.uniform(0.05, 0.2)]
    return pos, cur, pts, k


def test_column_length():
    rng = np.random.default_rng(0)
    for make, nz in LATTICES.values():
        assert kernels._column_length(make(rng)) == nz
    assert kernels._column_length(rng.uniform(size=(30, 3))) == 1
    assert kernels._column_length(np.zeros((0, 3))) == 1


# points per tile of field_sum with 40 elements: the cases below state tile
# counts, which hold for any TILE_PAIRS, and their ids name no point count
STEP_40 = kernels.TILE_PAIRS // 40


class TestWorkerCount:
    # the numpy kernel splits its tiles over WORKERS threads; pinning
    # WORKERS runs it on each count
    @pytest.mark.parametrize("nk", [1, 3])
    @pytest.mark.parametrize(
        "nelem, npts",
        [
            # the last of the 5 tiles is short
            pytest.param(40, 4 * STEP_40 + STEP_40 // 2, id="40-5_tiles"),
            # more workers than tiles at 3
            pytest.param(40, STEP_40 + STEP_40 // 4, id="40-2_tiles"),
            pytest.param(40, 3 * STEP_40 // 4, id="40-1_tile"),
            (40, 0),
            # a point per tile
            pytest.param(kernels.TILE_PAIRS + 5, 7, id="M_above_budget-7"),
        ],
    )
    def test_results_equal_for_any_worker_count(self, monkeypatch, rng, nelem, npts, nk):
        pos, cur, pts, k = field_sum_case(rng, nelem, npts, nk)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(kernels, "WORKERS", workers)
            results.append(kernels.field_sum(pos, cur, pts, k))
        for other in results[1:]:
            for x, y in zip(results[0], other):
                assert x.shape == (nk, npts)
                np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("nk", [1, 3])
    @pytest.mark.parametrize("layout", LATTICES)
    def test_lattice_results_equal_for_any_worker_count(self, monkeypatch, rng, layout, nk):
        # tiles of 3 points, split over 1, 2 and 3 workers
        pos, cur, pts, k = lattice_case(rng, layout, 40, nk)
        monkeypatch.setattr(kernels, "TILE_PAIRS", 3 * len(pos) + 1)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(kernels, "WORKERS", workers)
            results.append(kernels.field_sum(pos, cur, pts, k))
        for other in results[1:]:
            for x, y in zip(results[0], other):
                np.testing.assert_array_equal(x, y)

    def test_more_workers_than_cores_with_fast_switching(self, monkeypatch, rng):
        # 10 tiles over 8 threads that the interpreter switches between every
        # microsecond: each still writes only its own slice of the output
        pos, cur, pts, k = field_sum_case(rng, 40, 9 * STEP_40 + STEP_40 // 2, 3)
        monkeypatch.setattr(kernels, "WORKERS", 1)
        want = kernels.field_sum(pos, cur, pts, k)
        monkeypatch.setattr(kernels, "WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = kernels.field_sum(pos, cur, pts, k)
        finally:
            sys.setswitchinterval(interval)
        for x, y in zip(want, got):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_fault_in_second_share_reaches_caller(self, monkeypatch, rng, workers):
        # 5 tiles: the point in the middle tile falls in the second share,
        # run by a worker thread at 3 workers and by the caller at 2
        npts = 4 * STEP_40 + STEP_40 // 2
        pos, cur, pts, k = field_sum_case(rng, 40, npts, 3)
        middle = npts // 2
        tiles = kernels._tiles
        ran = []

        class Fault(Exception):
            pass

        def faulty(elems, rows, pts, k, out, starts, *buffers):
            ran.append(starts)
            if any(s <= middle < s + STEP_40 for s in starts):
                raise Fault("second share")
            tiles(elems, rows, pts, k, out, starts, *buffers)

        monkeypatch.setattr(kernels, "WORKERS", workers)
        monkeypatch.setattr(kernels, "_tiles", faulty)
        alive = threading.active_count()
        with pytest.raises(Fault, match="second share"):
            kernels.field_sum(pos, cur, pts, k)
        assert len(ran) == workers
        assert threading.active_count() == alive


# "kernel" takes one value: it keeps the kernel's name, [numpy], at the end of
# every test id here
@pytest.mark.parametrize("kernel", ["numpy"])
class TestFieldSum:
    @pytest.fixture(autouse=True)
    def named(self, kernel):
        pass

    def test_point_on_element_z_axis(self):
        # rho == 0 branch: azimuth defaults to 0, u = (dz/r, 0, 0)
        pos = np.array([[0.01, 0.0, 0.02]])
        cur = np.array([1.0 + 0.0j])
        pts = np.array([[0.01, 0.0, 1.02]])
        k = 2 * math.pi / 0.003
        ex, ey, ez = kernels.field_sum(pos, cur, pts, k)
        expected = np.exp(-1j * k * 1.0) / 1.0
        assert ex[0] == pytest.approx(expected, abs=1e-12)
        assert ey[0] == 0.0
        assert abs(ez[0]) <= 1e-15

    def test_phasor_matches_exp_over_kr(self, rng):
        # one element at the origin and points on its z axis (u = (1, 0, 0),
        # r = z exactly); k = 2 makes kr/2 = z, so the doubles next to
        # (n + 1/2) pi put tan(kr/2) near its poles and those next to n pi
        # near zero, for kr up to 1e5 rad.  Measured worst errors, in units
        # of eps |I| / r: 2.2 from tan(kr/2), 1.8 from cos and sin.
        n = np.concatenate([np.arange(40), rng.integers(40, 15915, 1000)])
        z = np.concatenate([(n + 0.5) * math.pi, n[n > 0] * math.pi])
        below = np.nextafter(z, 0.0)
        above = np.nextafter(z, np.inf)
        z = np.concatenate(
            [z, below, above, np.nextafter(below, 0.0), np.nextafter(above, np.inf)]
            + [rng.uniform(0.0, 5e4, 5000), [1e-9, 1e-6, 1e-3]]
        )
        assert np.abs(np.tan(z)).max() > 1e15
        k = 2.0
        pts = np.zeros((z.size, 3))
        pts[:, 2] = z
        cur = np.exp(1j * rng.uniform(0, 2 * math.pi, 1))
        ex, ey, ez = kernels.field_sum(np.zeros((1, 3)), cur, pts, k)
        want = cur[0] * np.exp(-1j * k * z) / z
        assert np.all(np.abs(ex - want) <= 3 * np.finfo(float).eps / z)
        assert not ey.any() and not ez.any()

    def test_chunked_equals_unchunked(self, rng, monkeypatch):
        pos = rng.uniform(-0.05, 0.05, size=(20, 3))
        pos[:, 1] = 0.0
        pts = rng.uniform(-0.2, 0.2, size=(50, 3))
        pts[:, 1] = rng.uniform(0.05, 0.4, size=50)
        k = 2 * math.pi / 0.003
        currents = [np.exp(1j * rng.uniform(0, 2 * math.pi, (nk, 20))) for nk in (1, 3)]
        full = [kernels.field_sum(pos, cur, pts, k) for cur in currents]
        monkeypatch.setattr(kernels, "TILE_PAIRS", 7)
        for cur, want in zip(currents, full):
            small = kernels.field_sum(pos, cur, pts, k)
            for x, y in zip(want, small):
                np.testing.assert_array_equal(x, y)

    def test_each_current_row_equals_its_own_call(self, rng):
        # the K rows share the geometry but not the rounding: every row, and
        # every point of it, is bit-identical to a one-current, one-point call
        pos = rng.uniform(-0.05, 0.05, size=(30, 3))
        pos[:, 1] = 0.0
        cur = np.exp(1j * rng.uniform(0, 2 * math.pi, (3, 30))) * rng.uniform(0.5, 2.0, (3, 30))
        pts = rng.uniform(-0.2, 0.2, size=(40, 3))
        pts[:, 1] = rng.uniform(0.05, 0.4, size=40)
        k = 2 * math.pi / 0.003
        self.check_rows_alone(pos, cur, pts, k, (0, 17, 39))

    @pytest.mark.parametrize("layout", LATTICES)
    def test_lattice_current_rows_equal_their_own_calls(self, rng, monkeypatch, layout):
        pos, cur, pts, k = lattice_case(rng, layout, 40, 3)
        cur *= rng.uniform(0.5, 2.0, cur.shape)
        monkeypatch.setattr(kernels, "TILE_PAIRS", 3 * len(pos) + 1)
        self.check_rows_alone(pos, cur, pts, k, (0, 1, 17, 20, 38, 39))

    @staticmethod
    def check_rows_alone(pos, cur, pts, k, points):
        nk, npts = len(cur), len(pts)
        rows = kernels.field_sum(pos, cur, pts, k)
        assert all(e.shape == (nk, npts) for e in rows)
        for q in range(nk):
            single = kernels.field_sum(pos, cur[q], pts, k)
            for x, y in zip(rows, single):
                np.testing.assert_array_equal(x[q], y)
            for p in points:
                alone = kernels.field_sum(pos, cur[q], pts[p : p + 1], k)
                for x, y in zip(rows, alone):
                    np.testing.assert_array_equal(x[q, p : p + 1], y)

    @pytest.mark.parametrize("nk", [1, 3])
    @pytest.mark.parametrize(
        "nelem, npts",
        [
            (1, 9000),
            (2, 9000),
            (3, 9000),
            (9, 9000),
            # at a 32,768-pair budget: tiles of 3 points, the last one short
            (8197, 4),
            # at a 32,768-pair budget: two points do not fit, one per tile
            (16389, 4),
            pytest.param(kernels.TILE_PAIRS + 5, 4, id="M_above_budget-4"),
        ],
    )
    def test_point_alone_equals_point_in_tile(self, rng, nelem, npts, nk):
        # thousands of points per tile and tiles that end mid-call, or one
        # point per tile when two do not fit or M exceeds the budget: each
        # point's value is its one-point, one-current value, bit for bit (a
        # broadcast product of one element rounds differently at M = 1)
        pos = rng.uniform(-0.05, 0.05, size=(nelem, 3))
        pos[:, 1] = 0.0
        cur = np.exp(1j * rng.uniform(0, 2 * math.pi, (nk, nelem)))
        pts = rng.uniform(-0.2, 0.2, size=(npts, 3))
        pts[:, 1] = rng.uniform(0.05, 0.4, size=npts)
        k = 2 * math.pi / 0.003
        rows = kernels.field_sum(pos, cur, pts, k)
        step = max(1, kernels.TILE_PAIRS // nelem)
        edges = [i for s in range(step, npts, step) for i in (s - 1, s)]
        for p in sorted({0, npts - 1, *edges, *rng.integers(0, npts, 20).tolist()}):
            for q in range(nk):
                alone = kernels.field_sum(pos, cur[q], pts[p : p + 1], k)
                for x, y in zip(rows, alone):
                    assert x[q, p] == y[0]

    @pytest.mark.parametrize("nk", [1, 3])
    @pytest.mark.parametrize("layout", LATTICES)
    def test_lattice_point_alone_equals_point_in_tile(self, rng, monkeypatch, layout, nk):
        # tiles of 3 points, the last one short: every point, on the axis of
        # a column or not, is its one-point, one-current value, bit for bit
        pos, cur, pts, k = lattice_case(rng, layout, 20, nk)
        monkeypatch.setattr(kernels, "TILE_PAIRS", 3 * len(pos) + 1)
        rows = kernels.field_sum(pos, cur, pts, k)
        for p in range(len(pts)):
            for q in range(nk):
                alone = kernels.field_sum(pos, cur[q], pts[p : p + 1], k)
                for x, y in zip(rows, alone):
                    np.testing.assert_array_equal(x[q, p], y[0])

    @pytest.mark.parametrize("layout", LATTICES)
    def test_lattice_matches_element_sum(self, rng, layout):
        pos, cur, pts, k = lattice_case(rng, layout, 12, 1)
        got = np.column_stack(kernels.field_sum(pos, cur[0], pts, k))
        for p in range(len(pts)):
            want = sum(element_field(pos[n], cur[0, n], pts[p], k) for n in range(len(pos)))
            np.testing.assert_allclose(got[p], want, rtol=1e-12, atol=1e-15 * np.abs(want).max())

    def test_on_axis_pairs_in_a_tile(self, rng):
        # a 3x3 lattice at y = 0; points at y = 0 straight along z from an
        # element column are on the z axis (rho = 0) of all three elements of
        # that column, and share the call with ordinary points
        grid = np.array([-0.01, 0.0, 0.01])
        pos = np.column_stack([np.repeat(grid, 3), np.zeros(9), np.tile(grid, 3)])
        cur = np.exp(1j * rng.uniform(0, 2 * math.pi, 9))
        pts = rng.uniform(-0.2, 0.2, size=(30, 3))
        pts[:, 1] = rng.uniform(0.05, 0.4, size=30)
        pts[[4, 17], :] = [[-0.01, 0.0, 0.5], [0.01, 0.0, -0.4]]
        k = 2 * math.pi / 0.003
        got = np.column_stack(kernels.field_sum(pos, cur, pts, k))
        for p in range(len(pts)):
            want = sum(element_field(pos[n], cur[n], pts[p], k) for n in range(9))
            np.testing.assert_allclose(got[p], want, rtol=1e-12, atol=1e-15 * np.abs(want).max())
        for p in (4, 17):
            alone = kernels.field_sum(pos, cur, pts[p : p + 1], k)
            assert list(got[p]) == [e[0] for e in alone]

    def test_empty_points_and_elements(self):
        k = 2 * math.pi / 0.003
        pos = np.zeros((4, 3))
        pts = np.ones((5, 3))
        for cur, shape in ((np.ones(4, complex), (0,)), (np.ones((3, 4), complex), (3, 0))):
            assert all(e.shape == shape for e in kernels.field_sum(pos, cur, np.zeros((0, 3)), k))
        for cur, shape in ((np.ones(0, complex), (5,)), (np.ones((3, 0), complex), (3, 5))):
            out = kernels.field_sum(np.zeros((0, 3)), cur, pts, k)
            assert all(e.shape == shape and not e.any() for e in out)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            kernels.field_sum(np.zeros((2, 2)), np.ones(2, complex), np.zeros((1, 3)), 1.0)
        with pytest.raises(ValueError):
            kernels.field_sum(np.zeros((2, 3)), np.ones(3, complex), np.zeros((1, 3)), 1.0)
        with pytest.raises(ValueError):
            kernels.field_sum(np.zeros((2, 3)), np.ones((4, 3), complex), np.zeros((1, 3)), 1.0)
        with pytest.raises(ValueError):
            kernels.field_sum(np.zeros((2, 3)), np.ones((1, 1, 2), complex), np.zeros((1, 3)), 1.0)


def shifted_columns():
    """A 6x5 lattice whose columns keep their length but not their z: column
    c is shifted along z by c d / 7."""
    pos = lattice(6, 5).reshape(6, 5, 3).copy()
    pos[:, :, 2] += (np.arange(6) * 0.0015 / 7)[:, None]
    return pos.reshape(-1, 3)


class TestColumnZ:
    # ArrayGeometry lattices share their z values across columns, so the
    # kernel forms dz and dz^2 once per (z, point); columns with z values of
    # their own take dz per pair
    def test_shared_z_only_when_every_column_agrees(self):
        for n_x, n_z in ((8, 8), (7, 5), (1, 9)):
            pos = lattice(n_x, n_z)
            np.testing.assert_array_equal(kernels._column_z(pos, n_z), pos[:n_z, 2, None, None])
        pos = shifted_columns()
        assert kernels._column_length(pos) == 5
        ze = kernels._column_z(pos, 5)
        assert ze.shape == (5, 1, 6)
        np.testing.assert_array_equal(ze[:, 0], pos[:, 2].reshape(6, 5).T)

    def test_own_z_matches_element_sum(self, rng):
        pos = shifted_columns()
        _, cur, pts, k = field_sum_case(rng, len(pos), 12, 2)
        got = kernels.field_sum(pos, cur, pts, k)
        for q in range(2):
            for p in range(len(pts)):
                want = sum(element_field(pos[n], cur[q, n], pts[p], k) for n in range(len(pos)))
                np.testing.assert_allclose(
                    [e[q, p] for e in got], want, rtol=1e-12, atol=1e-15 * np.abs(want).max()
                )

    def test_own_z_rows_and_points_alone(self, rng, monkeypatch):
        # tiles of 3 points, the last one short
        pos = shifted_columns()
        _, cur, pts, k = field_sum_case(rng, len(pos), 20, 3)
        monkeypatch.setattr(kernels, "TILE_PAIRS", 3 * len(pos) + 1)
        TestFieldSum.check_rows_alone(pos, cur, pts, k, range(len(pts)))


def z0_case(rng, nk):
    """The z <= 0 half of a 5x17 lattice, axial and transverse current rows,
    and points on z = 0, -0.0 among them."""
    pos = lattice(5, 17).reshape(5, 17, 3)[:, :9].reshape(-1, 3)
    _, axial, pts, k = field_sum_case(rng, len(pos), 20, nk)
    _, transverse, _, _ = field_sum_case(rng, len(pos), 0, nk)
    pts[:, 2] = 0.0
    pts[::3, 2] = -0.0
    return pos, axial, transverse, pts, k


class TestTransverseRows:
    # points on z = 0: Ex and Ey from the transverse rows, Ez from the axial
    # ones, with dz = 0.0 - z folded into the transverse rows
    def test_against_two_plain_calls(self, rng):
        pos, axial, transverse, pts, k = z0_case(rng, 2)
        ex, ey, ez = kernels.field_sum(pos, axial, pts, k, transverse)
        tx, ty, _ = kernels.field_sum(pos, transverse, pts, k)
        _, _, az = kernels.field_sum(pos, axial, pts, k)
        # every call sums Ex and Ey over X (0 - z_j) w; a plain call adds
        # z_p sum I w, which is a zero here
        for got, want in ((ex, tx), (ey, ty), (ez, az)):
            np.testing.assert_array_equal(got, want)

    def test_rows_and_points_alone(self, rng, monkeypatch):
        pos, axial, transverse, pts, k = z0_case(rng, 3)
        monkeypatch.setattr(kernels, "TILE_PAIRS", 3 * len(pos) + 1)
        rows = kernels.field_sum(pos, axial, pts, k, transverse)
        for q in range(3):
            single = kernels.field_sum(pos, axial[q], pts, k, transverse[q])
            for x, y in zip(rows, single):
                np.testing.assert_array_equal(x[q], y)
            for p in range(len(pts)):
                alone = kernels.field_sum(pos, axial[q], pts[p : p + 1], k, transverse[q])
                for x, y in zip(rows, alone):
                    np.testing.assert_array_equal(x[q, p : p + 1], y)

    def test_worker_count_changes_no_bit(self, rng, monkeypatch):
        pos, axial, transverse, pts, k = z0_case(rng, 2)
        monkeypatch.setattr(kernels, "TILE_PAIRS", 3 * len(pos) + 1)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(kernels, "WORKERS", workers)
            results.append(kernels.field_sum(pos, axial, pts, k, transverse))
        for other in results[1:]:
            for x, y in zip(results[0], other):
                np.testing.assert_array_equal(x, y)

    def test_rejects_points_off_z0_and_mismatched_rows(self, rng):
        pos, axial, transverse, pts, k = z0_case(rng, 2)
        pts[7, 2] = 1e-9
        with pytest.raises(ValueError, match="z = 0"):
            kernels.field_sum(pos, axial, pts, k, transverse)
        with pytest.raises(ValueError, match="shape of currents"):
            kernels.field_sum(pos, axial, pts[:7], k, transverse[:1])


def per_pair_sum(pos, cur, pts, k):
    """Ex and Ey of (K, M) currents at P points as exact sums over the
    (point, element) pairs of cos I (w dz) and sin I (w dz), dz = z_p - z_j,
    and each point's bound B = sum_j |I_j| (|z_p| + |z_j|) / r_j^2.

    Each pair's w = exp(-jkr) / r^2, cos and sin take the kernel's
    operations, so both share their bits, and math.fsum adds the terms of
    each point without rounding.  Each term rounds at most 7 u: dz, w dz,
    the complex product with I (3 u with its operands' errors), the weight,
    and up to 2 u for a tan that rounds otherwise; the sum rounds u once.
    """
    d = pts[:, None, :] - pos[None, :, :]
    rho2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    rho = np.sqrt(rho2)
    cos, sin, dz = d[..., 0] / rho, d[..., 1] / rho, d[..., 2]
    r2 = rho2 + dz * dz
    t = np.tan(np.sqrt(r2) * (0.5 * k))
    s2 = t * t
    den = (s2 + 1.0) * r2
    wdz = np.empty(dz.shape, np.complex128)
    wdz.real = (1.0 - s2) / den * dz
    wdz.imag = (t * -2.0) / den * dz
    terms = cur[:, None, :] * wdz
    fields = []
    for weight in (cos, sin):
        e = terms * weight
        fields.append(
            np.array([[complex(math.fsum(v.real), math.fsum(v.imag)) for v in row] for row in e])
        )
    bound = np.abs(cur) @ ((np.abs(pts[:, 2, None]) + np.abs(pos[:, 2])) / r2).T
    return fields, bound


class TestSingleFormulation:
    # every call sums Ex and Ey as S_c = sum_z X (0 - z_j) w + z_p sum_z I w,
    # the per-pair sum of I w dz split in two; where z_p is near an element
    # row, or far from the array, the two parts are much larger than S_c
    @pytest.mark.parametrize("n", [40, 64])
    def test_split_within_cancellation_bound(self, rng, n):
        pos = lattice(n, n)
        d = pos[1, 2] - pos[0, 2]
        top = pos[:, 2].max()
        near = np.column_stack(
            [
                rng.uniform(-n * d / 2, n * d / 2, 12),
                rng.uniform(0.02, 0.2, 12),
                top + d * np.array([0.0, 0.0, 0.0, 1e-9, -1e-9, 1e-6, -1e-6, 0.01, -0.01, 0.25,
                                    -0.25, -0.5]),
            ]
        )
        # far scan points: R = 5 m at elevations of +-35 degrees
        az, el = np.radians(np.meshgrid([-30.0, 0.0, 20.0], [-35.0, 35.0])).reshape(2, -1)
        far = 5.0 * np.column_stack([-np.cos(el) * np.sin(az), np.cos(el) * np.cos(az), -np.sin(el)])
        pts = np.concatenate([near, far])
        cur = np.exp(1j * rng.uniform(0, 2 * math.pi, (2, len(pos))))
        k = 2 * math.pi / 0.003
        ex, ey, _ = kernels.field_sum(pos, cur, pts, k)
        (rx, ry), bound = per_pair_sum(pos, cur, pts, k)
        # fixed from the first-order bound in u = eps / 2 before the test
        # ran: the kernel rounds S_c within (n_z + 3) u B (X (0 - z_j) and
        # the product with w 3 u, n_z - 1 additions, z_p times the Ez sum
        # and the add), the weight u and the column sum (n_col - 1) u, in
        # all (n_z + n_col + 3) u <= (n_z + 3) eps on a square lattice; the
        # reference adds 8 u = 4 eps
        tol = (n + 3 + 4) * np.finfo(float).eps * bound
        for got, want in ((ex, rx), (ey, ry)):
            for part in (np.real, np.imag):
                err = np.abs(part(got) - part(want))
                assert (err <= tol).all(), (err / tol).max()


def reuse_case(name):
    """field_sum's arguments for case ``name``, the same in every interpreter."""
    rng = np.random.default_rng(list(REUSE_CASES).index(name))
    return REUSE_CASES[name](rng)


def _one_row(args):
    # (pos, cur, pts, k[, transverse]) with row 0 of each current array
    pos, cur, pts, k, *tr = args
    return (pos, cur[0], pts, k, *(t[0] for t in tr))


def _z0_args(rng, nk):
    pos, axial, transverse, pts, k = z0_case(rng, nk)
    return pos, axial, pts, k, transverse


REUSE_CASES = {
    # more elements than TILE_PAIRS: a point per tile
    "above_budget": lambda rng: field_sum_case(rng, kernels.TILE_PAIRS + 5, 7, 4),
    # five tiles of a 16x16 lattice, split over the workers
    "k4_lattice": lambda rng: (lattice(16, 16), *field_sum_case(rng, 256, 600, 4)[1:]),
    "k1": lambda rng: _one_row(field_sum_case(rng, 40, STEP_40 + 100, 1)),
    "k4_transverse": lambda rng: _z0_args(rng, 4),
    "empty": lambda rng: (lattice(8, 8), *field_sum_case(rng, 64, 0, 4)[1:]),
    "k1_transverse": lambda rng: _one_row(_z0_args(rng, 1)),
}

# a fresh interpreter, with the directory in argv[2] first on sys.path, makes
# field_sum call argv[1] of REUSE_CASES as its first and prints the result
REUSE_PROBE = """
import sys
sys.path.insert(0, sys.argv[2])
import numpy as np
from nfbeam import kernels
from test_kernels import reuse_case
print(np.stack(kernels.field_sum(*reuse_case(sys.argv[1]))).tobytes().hex())
"""


class TestScratch:
    # field_sum and write_csv take their work buffers from one scratch
    # buffer per thread, kept between calls
    def fresh(self, name):
        run = [sys.executable, "-c", REUSE_PROBE, name, str(Path(__file__).parent)]
        text = subprocess.run(run, capture_output=True, text=True, check=True).stdout
        return np.frombuffer(bytes.fromhex(text), np.complex128)

    def test_reuse_leaks_no_state(self, tmp_path, rng, csv_oracle):
        # every byte of the buffer starts as 0xff, NaN in float64; then each
        # call finds what the one before it, of another shape, left behind
        kernels.scratch(((1 << 23,), np.uint8))[0].fill(0xFF)
        columns = tuple(rng.normal(size=(3, 2000)) * 10.0 ** rng.integers(-3, 9, (3, 2000)))
        got = {}
        for name in REUSE_CASES:
            got[name] = np.stack(kernels.field_sum(*reuse_case(name)))
            if name == "k4_lattice":
                write_csv(tmp_path / "t.csv", "a,b,c", columns)
        assert (tmp_path / "t.csv").read_text() == csv_oracle("a,b,c", columns)
        for name, result in got.items():
            np.testing.assert_array_equal(result.reshape(-1), self.fresh(name), err_msg=name)

    def test_two_threads_at_once(self):
        # two different calls in two threads, switched every microsecond:
        # each thread has its own buffer
        names = ("k4_lattice", "k4_transverse")
        want = {name: np.stack(kernels.field_sum(*reuse_case(name))) for name in names}
        got = {}
        start = threading.Barrier(len(names))

        def call(name):
            args = reuse_case(name)
            start.wait(timeout=60)
            got[name] = np.stack(kernels.field_sum(*args))

        threads = [threading.Thread(target=call, args=(name,)) for name in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for name in names:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    @pytest.mark.skipif(sys.platform != "linux", reason="counts Linux's minor page faults")
    def test_steady_state_faults_no_pages(self, tmp_path, rng):
        resource = pytest.importorskip("resource")

        def faults(call):
            # minor faults of the third identical call
            call()
            call()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            call()
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        # a 40x40 lattice, four current rows and 900 points off z = 0
        pos = lattice(40, 40)
        _, cur, _, k = field_sum_case(rng, len(pos), 0, 4)
        side = np.linspace(-0.05, 0.05, 30)
        pts = np.stack(np.meshgrid(side, [0.1], side), -1).reshape(-1, 3)
        field = faults(lambda: kernels.field_sum(pos, cur, pts, k))
        # 6,561 rows of 9 values
        columns = tuple(rng.normal(size=(9, 6561)) * 10.0 ** rng.integers(-3, 9, (9, 6561)))
        csv = faults(lambda: write_csv(tmp_path / "t.csv", ",".join("abcdefghi"), columns))
        assert field <= 64 and csv <= 64, (field, csv)
