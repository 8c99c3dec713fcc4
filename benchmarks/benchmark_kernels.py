#!/usr/bin/env python3
"""Benchmark the two hot kernels on a configurable problem size.

Times the field superposition on every available backend (numba against
the pure-numpy fallback, with the speedup) and the batch nearest-foot
Newton solve, which is numpy only.

Usage:
  python benchmarks/benchmark_kernels.py
  python benchmarks/benchmark_kernels.py --nx 100 --nz 100 --grid 200 --repeat 3
"""

import argparse
import math
import time

import numpy as np

from nfbeam import kernels
from nfbeam.field import ObservationGrid
from nfbeam.geometry import SteeringAngles, steering_rotation
from nfbeam.synthesis import ArrayGeometry
from nfbeam.wavefront import Wavefront

WAVELENGTH = 299_792_458.0 / 100e9


def time_call(fn, repeat):
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nx", type=int, default=64)
    parser.add_argument("--nz", type=int, default=64)
    parser.add_argument("--grid", type=int, default=128, help="points per grid axis")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    array = ArrayGeometry.half_wave(args.nx, args.nz, WAVELENGTH)
    rng = np.random.default_rng(7)
    currents = np.exp(1j * rng.uniform(0, 2 * math.pi, array.num_elements))
    grid = ObservationGrid.plane_grid(
        "xy", (-0.15, 0.15), (0.05, 0.55), args.grid, args.grid
    )
    k = 2 * math.pi / WAVELENGTH

    rot = steering_rotation(SteeringAngles.from_degrees(20.0, 10.0))
    pe = array.element_positions @ rot.T
    cone = Wavefront.cone(0.2)

    backends = ["numpy"] + (["numba"] if kernels.HAVE_NUMBA else [])
    if kernels.HAVE_NUMBA:
        # compile outside the timed region
        kernels.field_sum(array.element_positions, currents, grid.points[:8], k, backend="numba")

    print(
        f"array {args.nx}x{args.nz} ({array.num_elements} elements), "
        f"grid {args.grid}x{args.grid} ({grid.num_points} points), "
        f"best of {args.repeat}"
    )
    times = {}
    for backend in backends:
        times[backend] = time_call(
            lambda: kernels.field_sum(
                array.element_positions, currents, grid.points, k, backend=backend
            ),
            args.repeat,
        )
        print(f"  {'field_sum':10s} {backend:6s} {times[backend] * 1e3:12.2f} ms")
    if "numba" in times:
        print(f"  {'field_sum':10s} speedup numba/numpy: {times['numpy'] / times['numba']:.1f}x")
    feet = time_call(
        lambda: kernels.nearest_feet(pe, cone, 1e-12, 50, 1e-6, array.spacing), args.repeat
    )
    print(f"  {'cone_feet':10s} {'numpy':6s} {feet * 1e3:12.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
