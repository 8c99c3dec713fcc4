"""Configuration-driven command line: synthesize phase maps, compute field
grids, analyze beams, and run the validation suites.

Angles are degrees at this boundary and radians everywhere inside.  All
lengths in the config are meters except the element spacing, which is in
wavelengths.  Exit codes: 0 success, 2 configuration error, 3 numerical or
other internal failure.  A reader that closes standard output early
(``nfbeam run | head -1``) changes no exit code.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import analysis, heatmap, kernels
from .field import (
    PLANE_AXES,
    ClearanceViolation,
    CoincidentPoint,
    FieldGrid,
    ObservationGrid,
    frequency_to_wavelength,
    export_field_csv,
    total_field,
)
from .geometry import AngleRangeError, SteeringAngles
from .solver import SolverFailure
from .synthesis import (
    ArrayGeometry,
    PhaseDistribution,
    export_phase_csv,
    synthesize,
    to_excitation,
    wrap_phase,
)
from .validation import CHECKS, SelectionError, run_validation
from .wavefront import CONE, Wavefront, steer


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

    def validate(self) -> None:
        """Check each value against its `_KEYS` row; the first failing row is reported."""
        for key, (name, _, check, accepts) in _KEYS.items():
            value = getattr(self, name)
            if not _finite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
            if not check(value):
                raise ConfigError(f"{key} must be {accepts}, got {value!r}")


def _finite(value) -> bool:
    if isinstance(value, tuple):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


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


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def _pair(parse):
    def parse_pair(value):
        first, second = value
        return parse(first), parse(second)

    return parse_pair


def _directory(value: str) -> bool:
    """Whether ``value`` names a directory or one that ``mkdir(parents=True)``
    can make: its nearest existing ancestor, a dangling symlink included, is a
    directory.  Creates nothing."""
    path = Path(value)
    existing = (p for p in (path, *path.parents) if p.exists() or p.is_symlink())
    return bool(value) and next(existing, path).is_dir()


# beam kind -> its unsteered wavefront
_BEAMS = {
    "gaussian": lambda cfg: Wavefront.plane(),
    "bessel": lambda cfg: Wavefront.cone(cfg.h_over_r),
}

# (parser, check on the parsed value, accepted form) shared by several keys
_POSITIVE = (_number, lambda v: v > 0, "a positive number")
_ANGLE = (_number, lambda v: -90.0 < v < 90.0, "a number strictly inside (-90, 90)")
_COUNT = (_count, lambda v: v > 0, "a positive whole number")

# dotted YAML key -> (SimulationConfig field, parser, check, accepted form)
_KEYS = {
    "frequency_hz": ("frequency_hz", *_POSITIVE),
    "array.n_x": ("n_x", *_COUNT),
    "array.n_z": ("n_z", *_COUNT),
    "array.spacing_in_wavelengths": ("spacing_in_wavelengths", *_POSITIVE),
    "beam.kind": ("beam_kind", _text, _BEAMS.__contains__, " or ".join(map(repr, _BEAMS))),
    "beam.h_over_r": ("h_over_r", *_POSITIVE),
    "steering.azimuth_deg": ("azimuth_deg", *_ANGLE),
    "steering.elevation_deg": ("elevation_deg", *_ANGLE),
    "observation.plane": (
        "obs_plane", _text, PLANE_AXES.__contains__, f"one of {', '.join(PLANE_AXES)}"
    ),
    "observation.bounds_m": (
        "obs_bounds",
        _pair(_pair(_number)),
        lambda bounds: all(lo < hi for lo, hi in bounds),
        "[[lo1, hi1], [lo2, hi2]] with lo < hi on both axes",
    ),
    "observation.resolution": (
        "obs_resolution", _pair(_count), lambda n: min(n) >= 2, "[n1, n2] of whole numbers >= 2"
    ),
    "observation.offset_m": ("obs_offset_m", _number, lambda v: True, "a number"),
    "analysis.radius_m": (
        "analysis_radius_m",
        lambda radius: None if radius is None else _number(radius),
        lambda radius: radius is None or radius > 0,
        "a positive number or null",
    ),
    "outputs.out_dir": (
        "out_dir", _text, _directory, "a non-empty string naming an existing or new directory"
    ),
}
_SECTIONS = {key.split(".")[0] for key in _KEYS if "." in key}

# flag of the pipeline subcommands -> (dotted key it overrides, help text,
# factor from the flag's unit to the key's, None when they agree)
_FLAGS = {
    "--az-deg": ("steering.azimuth_deg", "steering azimuth, degrees", None),
    "--el-deg": ("steering.elevation_deg", "steering elevation, degrees", None),
    "--beam": ("beam.kind", "beam kind", None),
    "--h-over-r": ("beam.h_over_r", "cone slope h/r", None),
    "--freq-ghz": ("frequency_hz", "frequency, GHz", 1e9),
    "--nx": ("array.n_x", "elements along x", None),
    "--nz": ("array.n_z", "elements along z", None),
    "--out-dir": ("outputs.out_dir", "output directory", None),
}


def _parse(key: str, value) -> tuple[str, object]:
    """The config field of `key` and `value` parsed by its row."""
    name, parse, _, accepts = _KEYS[key]
    try:
        return name, parse(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be {accepts}, got {value!r}") from exc


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
            name, parsed = _parse(dotted, item)
            updates[name] = parsed
    return replace(cfg, **updates)


def apply_overrides(cfg: SimulationConfig, args: argparse.Namespace) -> SimulationConfig:
    """The config with every given flag's value, parsed as its key's YAML value."""
    updates = {}
    for flag, (key, _, unit) in _FLAGS.items():
        text = getattr(args, flag[2:].replace("-", "_"))
        if text is not None:
            name, value = _parse(key, text)
            updates[name] = value if unit is None else unit * value
    return replace(cfg, **updates)


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
    angles = SteeringAngles.from_degrees(cfg.azimuth_deg, cfg.elevation_deg)
    return Scenario(config=cfg, array=array, angles=angles, wavefront=_BEAMS[cfg.beam_kind](cfg))


def analysis_radius(scn: Scenario) -> float:
    """Evaluation radius for direction metrics.

    Bessel beams are scanned halfway into the cone's propagation range.
    Gaussian (plane-wavefront) beams are scanned at the Fraunhofer distance
    2 D^2 / lambda of the aperture diameter D, where the peak of |E| on the
    sphere tracks the beam axis.  Either radius is raised to the scan's
    minimum clearance.  A configured radius below that minimum raises
    :class:`analysis.RadiusOutOfRange`.
    """
    cfg = scn.config
    min_radius = analysis.min_scan_radius(scn.array)
    if cfg.analysis_radius_m is not None:
        analysis.check_scan_radius(scn.array, cfg.analysis_radius_m)
        return cfg.analysis_radius_m
    if scn.wavefront.kind == CONE:
        return max(0.5 * analysis.propagation_range(scn.array, cfg.h_over_r), min_radius)
    diameter = 2.0 * scn.array.aperture_radius
    return max(2.0 * diameter**2 / scn.array.wavelength, min_radius)


def _synthesize(scn: Scenario) -> PhaseDistribution:
    return synthesize(scn.array, steer(scn.wavefront, scn.angles))


def _pipeline(scn: Scenario) -> tuple[PhaseDistribution, FieldGrid]:
    cfg = scn.config
    pd = _synthesize(scn)
    grid = ObservationGrid.plane_grid(
        cfg.obs_plane, *cfg.obs_bounds, *cfg.obs_resolution, offset=cfg.obs_offset_m
    )
    return pd, total_field(scn.array, to_excitation(pd), grid)


def _echo(text: str, end: str = "\n") -> None:
    """Print a line to standard output and flush it.

    Once the reader has closed stdout (``nfbeam run | head -1``), the line
    and every later one are dropped: the command still finishes and exits
    with its own code, whether the reader closed before or after the last
    line, and nothing is printed to stderr.
    """
    try:
        print(text, end=end, flush=True)
    except BrokenPipeError:
        # point the stdout descriptor at os.devnull, as the Python docs' note
        # on SIGPIPE does: later writes, and the flush at interpreter exit,
        # then raise no BrokenPipeError
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _out(cfg: SimulationConfig, name: str) -> Path:
    """The path of the output file ``name`` in ``out_dir``, which is created."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _write_pgm(cfg: SimulationConfig, name: str, values, quantity: str, extra) -> list[Path]:
    """Write a heatmap and the sidecar that states its value mapping."""
    path, sidecar = _out(cfg, name), _out(cfg, f"{name}.txt")
    lo, hi = heatmap.write_pgm16(values, path)
    heatmap.write_sidecar(sidecar, quantity, lo, hi, extra=extra)
    return [path, sidecar]


def _write_report(cfg: SimulationConfig, entries: list[tuple[str, object]]) -> list[Path]:
    """Write the report text and its CSV twin."""
    text_path, csv_path = _out(cfg, "report.txt"), _out(cfg, "report.csv")
    analysis.export_report_text(entries, text_path)
    analysis.export_report_csv(entries, csv_path)
    return [text_path, csv_path]


def write_phase_outputs(cfg: SimulationConfig, pd: PhaseDistribution) -> list[Path]:
    phase_path = _out(cfg, "phase.csv")
    export_phase_csv(pd, phase_path)
    axes = [("axes", "x (left-right), z (bottom-top)")]
    wrapped = wrap_phase(pd).phase_grid()
    return [phase_path, *_write_pgm(cfg, "phase_wrapped.pgm", wrapped, "wrapped_phase_rad", axes)]


def write_field_outputs(cfg: SimulationConfig, fg: FieldGrid) -> list[Path]:
    field_path = _out(cfg, "field.csv")
    export_field_csv(fg, field_path)
    layers = {"Emag": fg.magnitude(), "Ex": abs(fg.ex), "Ey": abs(fg.ey), "Ez": abs(fg.ez)}
    plane = [("plane", fg.grid.plane), ("offset_m", fg.grid.offset)]
    paths = [field_path]
    for tag, values in layers.items():
        values = values.reshape(fg.grid.shape)
        paths += _write_pgm(cfg, f"field_{tag}.pgm", values, f"|{tag}| V/m", plane)
    return paths


def run_analysis(
    scn: Scenario, fg: FieldGrid, pd: PhaseDistribution, radius: float
) -> list[tuple[str, object]]:
    """Report entries; ``radius`` is :func:`analysis_radius`, taken before synthesis."""
    report = analysis.polarization_report(fg)
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
    if scn.wavefront.kind == CONE:
        entries.append(
            ("propagation_range_m", analysis.propagation_range(scn.array, scn.config.h_over_r))
        )
    return entries


def cmd_synthesize(cfg: SimulationConfig) -> list[Path]:
    return write_phase_outputs(cfg, _synthesize(build_scenario(cfg)))


def cmd_field(cfg: SimulationConfig) -> list[Path]:
    pd, fg = _pipeline(build_scenario(cfg))
    return write_phase_outputs(cfg, pd) + write_field_outputs(cfg, fg)


def cmd_analyze(cfg: SimulationConfig) -> list[Path]:
    scn = build_scenario(cfg)
    radius = analysis_radius(scn)
    pd, fg = _pipeline(scn)
    entries = run_analysis(scn, fg, pd, radius)
    paths = _write_report(cfg, entries)
    for key, value in entries:
        _echo(f"{key}: {value}")
    return paths


def cmd_run(cfg: SimulationConfig) -> list[Path]:
    start = time.perf_counter()
    scn = build_scenario(cfg)
    radius = analysis_radius(scn)
    pd, fg = _pipeline(scn)
    paths = write_phase_outputs(cfg, pd) + write_field_outputs(cfg, fg)
    entries = run_analysis(scn, fg, pd, radius)
    elapsed = time.perf_counter() - start
    paths += _write_report(cfg, entries)
    summary = dict(entries)
    _echo(
        "peak direction: "
        f"az {summary['estimated_azimuth_deg']:.2f} deg, "
        f"el {summary['estimated_elevation_deg']:.2f} deg"
    )
    _echo(
        "polarization fractions (x, y, z): "
        f"{summary['power_fraction_x']:.3e}, "
        f"{summary['power_fraction_y']:.3e}, "
        f"{summary['power_fraction_z']:.3e}"
    )
    threads = kernels.WORKERS
    _echo(f"runtime: {elapsed:.2f} s (numpy kernel, {threads} thread{'s' * (threads != 1)})")
    return paths


# internal faults: exit 3, where a pipeline's input-derived errors exit 2; a
# grid too large for memory is one (numpy's "Unable to allocate ...")
_FAILURES = (SolverFailure, OSError, ValueError, MemoryError)


def cmd_validate(args: argparse.Namespace) -> int:
    if args.list:
        _echo("\n".join(CHECKS))
        return 0
    only = None
    if args.only is not None:
        only = [s.strip() for s in args.only.split(",") if s.strip()]
    try:
        results = run_validation(only=only)
    except SelectionError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _FAILURES as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 3
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        line = f"{status} {res.name}  max_error={res.max_error:.3e} threshold={res.threshold:.3e}"
        if res.detail:
            line += f"  ({res.detail})"
        _echo(line)
    return 0 if all(res.passed for res in results) else 3


# subcommand -> (help text, handler); validate takes its own options and returns
# its exit code, the pipeline handlers take the config and return the paths they wrote
_COMMANDS = {
    "synthesize": ("compute the phase distribution and export it", cmd_synthesize),
    "field": ("compute the phase distribution and the field grid", cmd_field),
    "analyze": ("compute field diagnostics and write the report", cmd_analyze),
    "run": ("full pipeline: synthesize, field, analysis, all outputs", cmd_run),
    "validate": ("run the numerical invariant suites", cmd_validate),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfbeam",
        description="Near-field beam steering: phase synthesis and field maps "
        "for planar antenna arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if handler is cmd_validate:
            p.add_argument("--only", help="comma-separated subset of checks to run")
            p.add_argument("--list", action="store_true", help="list available checks")
        else:
            p.add_argument("--config", help="YAML configuration file")
            for flag, (key, flag_help, _) in _FLAGS.items():
                p.add_argument(flag, help=f"{flag_help}; overrides {key}, {_KEYS[key][3]}")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        # argparse has printed help or usage: flush it as _echo flushes a line
        _echo("", end="")
        raise
    if args.handler is cmd_validate:
        return cmd_validate(args)
    try:
        paths = args.handler(apply_overrides(load_config(args.config), args))
    except (ConfigError, AngleRangeError, ClearanceViolation, CoincidentPoint,
            analysis.RadiusOutOfRange) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _FAILURES as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 3
    _echo(f"wrote {', '.join(str(p) for p in paths)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
