"""Configuration-driven command line: synthesize phase maps, compute field
grids, analyze beams, and run the validation suites.

Angles are degrees at this boundary and radians everywhere inside.  All
lengths in the config are meters except the element spacing, which is in
wavelengths.  Exit codes: 0 success, 2 configuration error, 3 numerical or
other internal failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import analysis, heatmap
from .field import (
    ClearanceViolation,
    CoincidentPoint,
    FieldGrid,
    ObservationGrid,
    frequency_to_wavelength,
    export_field_csv,
    total_field,
)
from .geometry import AngleRangeError, SteeringAngles
from .solver import NonConvergence, SolverFailure
from .synthesis import (
    ArrayGeometry,
    PhaseDistribution,
    export_phase_csv,
    synthesize,
    to_excitation,
    wrap_phase,
)
from .validation import CHECKS, run_validation
from .wavefront import Wavefront, steer


class ConfigError(ValueError):
    """Configuration failed validation; the message names the field."""


@dataclass(frozen=True)
class SimulationConfig:
    frequency_hz: float = 100e9
    n_x: int = 100
    n_z: int = 100
    spacing_in_wavelengths: float = 0.5
    beam_kind: str = "bessel"
    h_over_r: float = 0.2
    azimuth_deg: float = 0.0
    elevation_deg: float = 0.0
    obs_plane: str = "xy"
    obs_bounds: tuple[tuple[float, float], tuple[float, float]] = (
        (-0.15, 0.15),
        (0.05, 0.55),
    )
    obs_resolution: tuple[int, int] = (81, 81)
    obs_offset_m: float = 0.0
    analysis_radius_m: float | None = None
    out_dir: str = "out"
    phase_csv: str = "phase.csv"
    field_csv: str = "field.csv"
    heatmap_stem: str = "field"
    report: str = "report.txt"

    def validate(self) -> None:
        numbers = [
            ("frequency_hz", self.frequency_hz),
            ("array.spacing_in_wavelengths", self.spacing_in_wavelengths),
            ("beam.h_over_r", self.h_over_r),
            ("steering.azimuth_deg", self.azimuth_deg),
            ("steering.elevation_deg", self.elevation_deg),
            ("observation.offset_m", self.obs_offset_m),
        ]
        numbers += [("observation.bounds_m", v) for pair in self.obs_bounds for v in pair]
        if self.analysis_radius_m is not None:
            numbers.append(("analysis.radius_m", self.analysis_radius_m))
        for name, value in numbers:
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.frequency_hz <= 0:
            raise ConfigError("frequency_hz must be positive")
        if self.n_x < 1 or self.n_z < 1:
            raise ConfigError("array.n_x and array.n_z must be positive")
        if self.spacing_in_wavelengths <= 0:
            raise ConfigError("array.spacing_in_wavelengths must be positive")
        if self.beam_kind not in ("gaussian", "bessel"):
            raise ConfigError("beam.kind must be 'gaussian' or 'bessel'")
        if self.h_over_r <= 0:
            raise ConfigError("beam.h_over_r must be positive")
        for name, value in (
            ("steering.azimuth_deg", self.azimuth_deg),
            ("steering.elevation_deg", self.elevation_deg),
        ):
            if not -90.0 < value < 90.0:
                raise ConfigError(f"{name} must lie strictly inside (-90, 90)")
        if self.obs_plane not in ("xy", "yz", "xz"):
            raise ConfigError("observation.plane must be one of xy, yz, xz")
        if not all(lo < hi for lo, hi in self.obs_bounds):
            raise ConfigError("observation.bounds_m must have lo < hi on both axes")
        if min(self.obs_resolution) < 2:
            raise ConfigError("observation.resolution must be at least 2 per axis")
        if self.analysis_radius_m is not None and self.analysis_radius_m <= 0:
            raise ConfigError("analysis.radius_m must be positive when given")


def _number(value) -> float:
    if isinstance(value, bool):
        raise TypeError(value)
    # YAML 1.1 reads unsigned-exponent literals like 100.0e9 as strings
    return float(value)


def _count(value) -> int:
    number = _number(value)
    if not number.is_integer():
        raise ValueError(value)
    return int(number)


def _name(value) -> str:
    if not isinstance(value, str) or not value:
        raise TypeError(value)
    return value


def _optional_number(value) -> float | None:
    return None if value is None else _number(value)


def _pair(parse):
    def parse_pair(value):
        first, second = value
        return parse(first), parse(second)

    return parse_pair


# dotted YAML key -> (SimulationConfig field, parser, what the parser accepts)
_KEYS = {
    "frequency_hz": ("frequency_hz", _number, "a number"),
    "array.n_x": ("n_x", _count, "a whole number"),
    "array.n_z": ("n_z", _count, "a whole number"),
    "array.spacing_in_wavelengths": ("spacing_in_wavelengths", _number, "a number"),
    "beam.kind": ("beam_kind", _name, "'gaussian' or 'bessel'"),
    "beam.h_over_r": ("h_over_r", _number, "a number"),
    "steering.azimuth_deg": ("azimuth_deg", _number, "a number"),
    "steering.elevation_deg": ("elevation_deg", _number, "a number"),
    "observation.plane": ("obs_plane", _name, "one of xy, yz, xz"),
    "observation.bounds_m": ("obs_bounds", _pair(_pair(_number)), "[[lo1, hi1], [lo2, hi2]]"),
    "observation.resolution": ("obs_resolution", _pair(_count), "[n1, n2] of whole numbers"),
    "observation.offset_m": ("obs_offset_m", _number, "a number"),
    "analysis.radius_m": ("analysis_radius_m", _optional_number, "a number or null"),
    "outputs.out_dir": ("out_dir", _name, "a non-empty string"),
    "outputs.phase_csv": ("phase_csv", _name, "a non-empty string"),
    "outputs.field_csv": ("field_csv", _name, "a non-empty string"),
    "outputs.heatmap": ("heatmap_stem", _name, "a non-empty string"),
    "outputs.report": ("report", _name, "a non-empty string"),
}
_SECTIONS = {key.split(".")[0] for key in _KEYS if "." in key}


def load_config(path: str | Path | None) -> SimulationConfig:
    """Parse the YAML config document; every error names its dotted key."""
    cfg = SimulationConfig()
    if path is None:
        return cfg
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if raw is None:
        return cfg
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a mapping at the top level")
    updates: dict[str, object] = {}
    for key, value in raw.items():
        if key not in _SECTIONS:
            entries = [(key, value)]
        elif isinstance(value, dict):
            entries = [(f"{key}.{sub}", subval) for sub, subval in value.items()]
        else:
            raise ConfigError(f"config key {key} must be a mapping")
        for dotted, item in entries:
            if dotted not in _KEYS:
                raise ConfigError(f"unknown config key: {dotted}")
            name, parse, accepts = _KEYS[dotted]
            try:
                updates[name] = parse(item)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{dotted} must be {accepts}, got {item!r}") from exc
    return replace(cfg, **updates)


def apply_overrides(cfg: SimulationConfig, args: argparse.Namespace) -> SimulationConfig:
    mapping = {
        "az_deg": "azimuth_deg",
        "el_deg": "elevation_deg",
        "beam": "beam_kind",
        "h_over_r": "h_over_r",
        "nx": "n_x",
        "nz": "n_z",
        "out_dir": "out_dir",
    }
    updates = {}
    for arg_name, field_name in mapping.items():
        value = getattr(args, arg_name, None)
        if value is not None:
            updates[field_name] = value
    if getattr(args, "freq_ghz", None) is not None:
        updates["frequency_hz"] = args.freq_ghz * 1e9
    return replace(cfg, **updates) if updates else cfg


@dataclass(frozen=True)
class Scenario:
    config: SimulationConfig
    array: ArrayGeometry
    angles: SteeringAngles
    wavefront: Wavefront


def build_scenario(cfg: SimulationConfig) -> Scenario:
    cfg.validate()
    wavelength = frequency_to_wavelength(cfg.frequency_hz)
    array = ArrayGeometry(
        n_x=cfg.n_x,
        n_z=cfg.n_z,
        spacing=cfg.spacing_in_wavelengths * wavelength,
        wavelength=wavelength,
    )
    try:
        angles = SteeringAngles.from_degrees(cfg.azimuth_deg, cfg.elevation_deg)
    except AngleRangeError as exc:
        raise ConfigError(str(exc)) from exc
    base = Wavefront.plane() if cfg.beam_kind == "gaussian" else Wavefront.cone(cfg.h_over_r)
    return Scenario(config=cfg, array=array, angles=angles, wavefront=base)


def observation_grid(cfg: SimulationConfig) -> ObservationGrid:
    return ObservationGrid.plane_grid(
        cfg.obs_plane,
        cfg.obs_bounds[0],
        cfg.obs_bounds[1],
        cfg.obs_resolution[0],
        cfg.obs_resolution[1],
        offset=cfg.obs_offset_m,
    )


def analysis_radius(scn: Scenario) -> float:
    """Evaluation radius for direction metrics.

    Bessel beams are scanned halfway into the cone's propagation range.
    Gaussian (plane-wavefront) beams are scanned at the Fraunhofer distance
    2 D^2 / lambda of the aperture diameter D, where the peak of |E| on the
    sphere tracks the beam axis.  Either radius is raised to the scan's
    minimum clearance.
    """
    cfg = scn.config
    min_radius = analysis.min_scan_radius(scn.array)
    if cfg.analysis_radius_m is not None:
        return cfg.analysis_radius_m
    if cfg.beam_kind == "bessel":
        return max(0.5 * analysis.propagation_range(scn.array, cfg.h_over_r), min_radius)
    diameter = 2.0 * scn.array.aperture_radius
    return max(2.0 * diameter**2 / scn.array.wavelength, min_radius)


def _synthesize(scn: Scenario) -> PhaseDistribution:
    return synthesize(scn.array, steer(scn.wavefront, scn.angles))


def _out(cfg: SimulationConfig, name: str) -> Path:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def write_phase_outputs(cfg: SimulationConfig, pd: PhaseDistribution) -> list[Path]:
    phase_path = _out(cfg, cfg.phase_csv)
    export_phase_csv(pd, phase_path)
    pgm_path = _out(cfg, "phase_wrapped.pgm")
    lo, hi = heatmap.write_pgm16(wrap_phase(pd).phase_grid(), pgm_path)
    heatmap.write_sidecar(
        pgm_path.with_suffix(".pgm.txt"),
        "wrapped_phase_rad",
        lo,
        hi,
        extra=[("axes", "x (left-right), z (bottom-top)")],
    )
    return [phase_path, pgm_path]


def write_field_outputs(cfg: SimulationConfig, fg: FieldGrid) -> list[Path]:
    field_path = _out(cfg, cfg.field_csv)
    export_field_csv(fg, field_path)
    paths = [field_path]
    shape = fg.grid.shape
    layers = {
        "Emag": fg.magnitude(),
        "Ex": np.abs(fg.ex),
        "Ey": np.abs(fg.ey),
        "Ez": np.abs(fg.ez),
    }
    for tag, values in layers.items():
        pgm_path = _out(cfg, f"{cfg.heatmap_stem}_{tag}.pgm")
        lo, hi = heatmap.write_pgm16(values.reshape(shape), pgm_path)
        heatmap.write_sidecar(
            pgm_path.with_suffix(".pgm.txt"),
            f"|{tag}| V/m",
            lo,
            hi,
            extra=[("plane", fg.grid.plane), ("offset_m", fg.grid.offset)],
        )
        paths.append(pgm_path)
    return paths


def run_analysis(
    scn: Scenario, fg: FieldGrid, pd: PhaseDistribution
) -> list[tuple[str, object]]:
    report = analysis.polarization_report(fg)
    radius = analysis_radius(scn)
    metrics = analysis.estimate_direction(scn.array, to_excitation(pd), radius)
    entries: list[tuple[str, object]] = [
        ("beam_kind", scn.config.beam_kind),
        ("frequency_hz", scn.config.frequency_hz),
        ("commanded_azimuth_deg", scn.config.azimuth_deg),
        ("commanded_elevation_deg", scn.config.elevation_deg),
        ("estimated_azimuth_deg", float(np.degrees(metrics.estimated_azimuth))),
        ("estimated_elevation_deg", float(np.degrees(metrics.estimated_elevation))),
        ("direction_scan_radius_m", radius),
        ("power_fraction_x", report.fractions[0]),
        ("power_fraction_y", report.fractions[1]),
        ("power_fraction_z", report.fractions[2]),
        ("peak_cross_pol_ratio", report.peak_cross_pol_ratio),
    ]
    if scn.config.beam_kind == "bessel":
        entries.append(
            ("propagation_range_m", analysis.propagation_range(scn.array, scn.config.h_over_r))
        )
    return entries


def cmd_synthesize(cfg: SimulationConfig) -> int:
    scn = build_scenario(cfg)
    pd = _synthesize(scn)
    paths = write_phase_outputs(cfg, pd)
    print(f"wrote {', '.join(str(p) for p in paths)}")
    return 0


def cmd_field(cfg: SimulationConfig) -> int:
    scn = build_scenario(cfg)
    pd = _synthesize(scn)
    fg = total_field(scn.array, to_excitation(pd), observation_grid(cfg))
    paths = write_phase_outputs(cfg, pd) + write_field_outputs(cfg, fg)
    print(f"wrote {', '.join(str(p) for p in paths)}")
    return 0


def cmd_analyze(cfg: SimulationConfig) -> int:
    scn = build_scenario(cfg)
    pd = _synthesize(scn)
    fg = total_field(scn.array, to_excitation(pd), observation_grid(cfg))
    entries = run_analysis(scn, fg, pd)
    report_path = _out(cfg, cfg.report)
    analysis.export_report_text(entries, report_path)
    analysis.export_report_csv(entries, report_path.with_suffix(".csv"))
    for key, value in entries:
        print(f"{key}: {value}")
    print(f"wrote {report_path}, {report_path.with_suffix('.csv')}")
    return 0


def cmd_run(cfg: SimulationConfig) -> int:
    start = time.perf_counter()
    scn = build_scenario(cfg)
    pd = _synthesize(scn)
    fg = total_field(scn.array, to_excitation(pd), observation_grid(cfg))
    paths = write_phase_outputs(cfg, pd) + write_field_outputs(cfg, fg)
    entries = run_analysis(scn, fg, pd)
    elapsed = time.perf_counter() - start
    report_path = _out(cfg, cfg.report)
    analysis.export_report_text(entries, report_path)
    analysis.export_report_csv(entries, report_path.with_suffix(".csv"))
    paths.extend([report_path, report_path.with_suffix(".csv")])
    summary = dict(entries)
    print(
        "peak direction: "
        f"az {summary['estimated_azimuth_deg']:.2f} deg, "
        f"el {summary['estimated_elevation_deg']:.2f} deg"
    )
    print(
        "polarization fractions (x, y, z): "
        f"{summary['power_fraction_x']:.3e}, "
        f"{summary['power_fraction_y']:.3e}, "
        f"{summary['power_fraction_z']:.3e}"
    )
    print(f"runtime: {elapsed:.2f} s")
    print(f"wrote {', '.join(str(p) for p in paths)}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    only = None
    if args.only is not None:
        only = [s.strip() for s in args.only.split(",") if s.strip()]
    try:
        results = run_validation(only=only, seed=args.seed, cases=args.cases)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    all_passed = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        line = f"{status} {res.name}  max_error={res.max_error:.3e} threshold={res.threshold:.3e}"
        if res.detail:
            line += f"  ({res.detail})"
        print(line)
        all_passed &= res.passed
    return 0 if all_passed else 3


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML configuration file")
    parser.add_argument("--az-deg", dest="az_deg", type=float, help="steering azimuth, degrees")
    parser.add_argument("--el-deg", dest="el_deg", type=float, help="steering elevation, degrees")
    parser.add_argument("--beam", choices=("gaussian", "bessel"), help="beam kind")
    parser.add_argument("--h-over-r", dest="h_over_r", type=float, help="cone slope h/r")
    parser.add_argument("--freq-ghz", dest="freq_ghz", type=float, help="frequency, GHz")
    parser.add_argument("--nx", type=int, help="elements along x")
    parser.add_argument("--nz", type=int, help="elements along z")
    parser.add_argument("--out-dir", dest="out_dir", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfbeam",
        description="Near-field beam steering: phase synthesis and field maps "
        "for planar antenna arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synthesize", "compute the phase distribution and export it"),
        ("field", "compute the phase distribution and the field grid"),
        ("analyze", "compute field diagnostics and write the report"),
        ("run", "full pipeline: synthesize, field, analysis, all outputs"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common_options(p)
    v = sub.add_parser("validate", help="run the numerical invariant suites")
    v.add_argument("--only", help="comma-separated subset of checks to run")
    v.add_argument("--cases", type=int, default=40, help="solver-oracle random cases")
    v.add_argument("--seed", type=int, default=20240901)
    v.add_argument("--list", action="store_true", help="list available checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        if args.list:
            for name in CHECKS:
                print(name)
            return 0
        return cmd_validate(args)
    try:
        cfg = apply_overrides(load_config(args.config), args)
        handler = {
            "synthesize": cmd_synthesize,
            "field": cmd_field,
            "analyze": cmd_analyze,
            "run": cmd_run,
        }[args.command]
        return handler(cfg)
    except (ConfigError, AngleRangeError, ClearanceViolation, CoincidentPoint,
            analysis.RadiusOutOfRange) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, SolverFailure, OSError, ValueError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
