import math
import subprocess
import sys
import threading

import numpy as np
import pytest

from nfbeam import kernels
from nfbeam.field import frequency_to_wavelength
from nfbeam.geometry import SteeringAngles, steering_rotation
from nfbeam.solver import cone_distance_closed_form
from nfbeam.synthesis import ArrayGeometry
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


class TestWorkerCount:
    # the numpy kernel splits its tiles over WORKERS threads; pinning
    # WORKERS runs it on each count
    @pytest.mark.parametrize("nk", [1, 3])
    @pytest.mark.parametrize(
        "nelem, npts",
        [
            (40, 2000),  # 5 tiles of 409 points, the last one short
            (40, 500),  # 2 tiles: more workers than tiles at 3
            (40, 300),  # a single tile
            (40, 0),
            (kernels.TILE_PAIRS + 5, 7),  # M above the tile budget: a point per tile
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
        pos, cur, pts, k = field_sum_case(rng, 40, 4000, 3)
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
        pos, cur, pts, k = field_sum_case(rng, 40, 2000, 3)
        step = kernels.TILE_PAIRS // 40
        tiles = kernels._tiles
        ran = []

        class Fault(Exception):
            pass

        def faulty(elems, rows, pts, k, out, starts, *buffers):
            ran.append(starts)
            if any(s <= 1000 < s + step for s in starts):
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
            (kernels.TILE_PAIRS // 2 + 5, 4),
            (kernels.TILE_PAIRS + 5, 4),
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
