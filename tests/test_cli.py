import argparse
import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from nfbeam import cli, kernels, validation
from nfbeam.cli import ConfigError, SimulationConfig, load_config, main
from nfbeam.field import ClearanceViolation

README = Path(__file__).resolve().parents[1] / "README.md"

SMALL_CONFIG = """\
frequency_hz: 100.0e9
array:
  n_x: 6
  n_z: 6
  spacing_in_wavelengths: 0.5
beam:
  kind: bessel
  h_over_r: 0.2
steering:
  azimuth_deg: 10.0
  elevation_deg: 0.0
observation:
  plane: xy
  bounds_m: [[-0.02, 0.02], [0.05, 0.1]]
  resolution: [9, 7]
  offset_m: 0.0
outputs:
  out_dir: {out_dir}
"""


# subcommand -> the files it writes in out_dir, in the order its `wrote` line lists them
PHASE_OUTPUTS = ["phase.csv", "phase_wrapped.pgm", "phase_wrapped.pgm.txt"]
FIELD_OUTPUTS = ["field.csv"] + [
    f"field_{tag}.pgm{suffix}" for tag in ("Emag", "Ex", "Ey", "Ez") for suffix in ("", ".txt")
]
REPORT_OUTPUTS = ["report.txt", "report.csv"]
OUTPUTS = {
    "synthesize": PHASE_OUTPUTS,
    "field": PHASE_OUTPUTS + FIELD_OUTPUTS,
    "analyze": REPORT_OUTPUTS,
    "run": PHASE_OUTPUTS + FIELD_OUTPUTS + REPORT_OUTPUTS,
}


def cli_env(**overrides) -> dict[str, str]:
    """Environment of a ``python -m nfbeam.cli`` subprocess that imports this
    package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def write_config(tmp_path, **extra):
    path = tmp_path / "config.yaml"
    out_dir = tmp_path / "out"
    path.write_text(SMALL_CONFIG.format(out_dir=out_dir))
    return path, out_dir


class TestConfigParsing:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.frequency_hz == 100e9
        assert (cfg.n_x, cfg.n_z) == (100, 100)
        assert cfg.beam_kind == "bessel"
        assert cfg.h_over_r == 0.2
        cfg.validate()

    def test_yaml_round_trip(self, tmp_path):
        path, out_dir = write_config(tmp_path)
        cfg = load_config(path)
        assert cfg.n_x == 6
        assert cfg.azimuth_deg == 10.0
        assert cfg.obs_resolution == (9, 7)
        assert cfg.obs_bounds == ((-0.02, 0.02), (0.05, 0.1))
        assert cfg.out_dir == str(out_dir)

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("frequenzy_hz: 1\n")
        with pytest.raises(ConfigError, match="frequenzy_hz"):
            load_config(path)

    def test_unknown_nested_key_named(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("beam: {kind: bessel, slope: 0.2}\n")
        with pytest.raises(ConfigError, match="beam.slope"):
            load_config(path)

    def test_validation_messages_name_fields(self):
        with pytest.raises(ConfigError, match="elevation_deg"):
            SimulationConfig(elevation_deg=95.0).validate()
        with pytest.raises(ConfigError, match="frequency_hz"):
            SimulationConfig(frequency_hz=-1.0).validate()
        with pytest.raises(ConfigError, match="resolution"):
            SimulationConfig(obs_resolution=(1, 5)).validate()
        with pytest.raises(ConfigError, match="beam.kind"):
            SimulationConfig(beam_kind="airy").validate()

    @pytest.mark.parametrize(
        "field, updates",
        [
            ("frequency_hz", {"frequency_hz": math.nan}),
            ("array.spacing_in_wavelengths", {"spacing_in_wavelengths": math.inf}),
            ("beam.h_over_r", {"h_over_r": math.inf}),
            ("beam.h_over_r", {"h_over_r": math.nan}),
            ("steering.azimuth_deg", {"azimuth_deg": math.nan}),
            ("observation.bounds_m", {"obs_bounds": ((-0.1, math.inf), (0.05, 0.5))}),
            ("observation.offset_m", {"obs_offset_m": -math.inf}),
            ("analysis.radius_m", {"analysis_radius_m": math.nan}),
        ],
    )
    def test_non_finite_values_named(self, field, updates):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            SimulationConfig(**updates).validate()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.yaml")

    @pytest.mark.parametrize("key, field", [("outputs.out_dir", "out_dir")])
    def test_empty_output_name_named(self, key, field):
        with pytest.raises(ConfigError, match=f"{key} must be a non-empty string"):
            SimulationConfig(**{field: ""}).validate()

    def test_one_row_per_field_and_flags_target_rows(self):
        fields = [row[0] for row in cli._KEYS.values()]
        assert sorted(fields) == sorted(f.name for f in dataclasses.fields(SimulationConfig))
        assert all(key in cli._KEYS for key, _, _ in cli._FLAGS.values())


class TestExitCodes:
    def test_out_of_range_elevation_exits_2(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        code = main(["synthesize", "--config", str(path), "--el-deg", "95"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.yaml")])
        assert code == 2

    @pytest.mark.parametrize(
        "option, value, field",
        [
            ("--freq-ghz", "nan", "frequency_hz"),
            ("--h-over-r", "inf", "beam.h_over_r"),
            ("--h-over-r", "nan", "beam.h_over_r"),
        ],
    )
    def test_non_finite_override_exits_2(self, tmp_path, capsys, option, value, field):
        path, _ = write_config(tmp_path)
        assert main(["run", "--config", str(path), option, value]) == 2
        assert f"config error: {field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("n_x: 6\n", "n_x: 6.7\n", "array.n_x"),
            ("n_x: 6\n", "n_x: true\n", "array.n_x"),
            ("n_x: 6\n", "n_x: abc\n", "array.n_x"),
            ("resolution: [9, 7]", "resolution: [9.9, 7]", "observation.resolution"),
            ("out_dir: {out_dir}", "out_dir: 5", "outputs.out_dir"),
        ],
        ids=["fractional", "boolean", "text", "fractional-resolution", "int-out-dir"],
    )
    def test_bad_config_value_exits_2_naming_key(self, tmp_path, capsys, old, new, key):
        path, out_dir = write_config(tmp_path)
        text = path.read_text()
        old = old.format(out_dir=out_dir)
        assert old in text
        path.write_text(text.replace(old, new))
        assert main(["run", "--config", str(path)]) == 2
        assert f"config error: {key} must be" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "option, value, key",
        [
            ("--out-dir", "", "outputs.out_dir"),
            ("--beam", "airy", "beam.kind"),
            ("--nx", "6.5", "array.n_x"),
            ("--freq-ghz", "abc", "frequency_hz"),
        ],
    )
    def test_bad_override_exits_2_naming_key(
        self, tmp_path, capsys, monkeypatch, option, value, key
    ):
        path, out_dir = write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["synthesize", "--config", str(path), option, value]) == 2
        assert f"config error: {key} must be" in capsys.readouterr().err
        assert not out_dir.exists()
        assert not (tmp_path / "phase.csv").exists()

    @pytest.mark.parametrize(
        "bounds",
        ["[[0.02, 0.02], [0.05, 0.1]]", "[[0.02, -0.02], [0.1, 0.05]]"],
        ids=["equal", "reversed"],
    )
    def test_degenerate_bounds_exit_2(self, tmp_path, capsys, bounds):
        path, out_dir = write_config(tmp_path)
        text = path.read_text()
        path.write_text(text.replace("[[-0.02, 0.02], [0.05, 0.1]]", bounds))
        assert main(["run", "--config", str(path)]) == 2
        assert "config error: observation.bounds_m" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("key", ["phase_csv", "field_csv", "heatmap", "report"])
    def test_removed_output_name_key_exits_2(self, tmp_path, capsys, key):
        path, out_dir = write_config(tmp_path)
        path.write_text(path.read_text() + f"  {key}: name.txt\n")
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: unknown config key: outputs.{key}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]

    @pytest.mark.parametrize(
        "name",
        ["afile", "afile/sub", "dangling"],
        ids=["file", "under-a-file", "dangling-symlink"],
    )
    def test_out_dir_that_cannot_be_a_directory_exits_2(
        self, tmp_path, capsys, monkeypatch, name
    ):
        calls = []
        monkeypatch.setattr(cli, "synthesize", lambda *args: calls.append(args))
        (tmp_path / "afile").write_text("")
        (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
        before = sorted(tmp_path.rglob("*"))
        out_dir = str(tmp_path / name)
        assert main(["run", "--nx", "8", "--nz", "8", "--out-dir", out_dir]) == 2
        assert capsys.readouterr().err == (
            "config error: outputs.out_dir must be a non-empty string naming an existing "
            f"or new directory, got {out_dir!r}\n"
        )
        assert calls == []
        assert sorted(tmp_path.rglob("*")) == before

    def test_scan_radius_inside_clearance_exits_2(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        text = path.read_text().replace("n_x: 6", "n_x: 8").replace("n_z: 6", "n_z: 8")
        path.write_text(text + "analysis:\n  radius_m: 0.01\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "config error: scan radius" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "analyze"])
    def test_scan_radius_rejected_before_synthesis(self, tmp_path, capsys, monkeypatch, command):
        calls = []
        monkeypatch.setattr(cli, "synthesize", lambda *args: calls.append(args))
        path, out_dir = write_config(tmp_path)
        path.write_text(path.read_text() + "analysis:\n  radius_m: 0.01\n")
        assert main([command, "--config", str(path), "--nx", "4", "--nz", "4"]) == 2
        assert capsys.readouterr().err == (
            "config error: scan radius 0.01 m must be at least 0.034219 m "
            "(aperture radius plus 10-wavelength clearance)\n"
        )
        assert calls == []
        assert not out_dir.exists()

    # the far limit is 1e12 wavelengths, 3 km at 100 GHz: beyond it r^2
    # overflows or r keeps no phase (RuntimeWarnings fail the tests)
    @pytest.mark.parametrize(
        "command, options, extra, message",
        [
            pytest.param(
                "run", ["--h-over-r", "1e-200"], "",
                "scan radius 4.23971e+197 m must be at most 2.99792e+09 m (1e+12 wavelengths);"
                " it is half the propagation range of cone slope h/r = 1e-200",
                id="run-cone_slope_1e-200",
            ),
            pytest.param(
                "run", ["--h-over-r", "1e-150"], "",
                "scan radius 4.23971e+147 m must be at most 2.99792e+09 m (1e+12 wavelengths);"
                " it is half the propagation range of cone slope h/r = 1e-150",
                id="run-cone_slope_1e-150",
            ),
            pytest.param(
                "analyze", [], "analysis:\n  radius_m: 1.0e+200\n",
                "scan radius 1e+200 m must be at most 2.99792e+09 m (1e+12 wavelengths)",
                id="analyze-radius_1e200",
            ),
        ],
    )
    def test_far_scan_radius_exits_2(
        self, tmp_path, capsys, monkeypatch, command, options, extra, message
    ):
        calls = []
        monkeypatch.setattr(cli, "synthesize", lambda *args: calls.append(args))
        path, out_dir = write_config(tmp_path)
        path.write_text(path.read_text() + extra)
        assert main([command, "--config", str(path), "--nx", "8", "--nz", "8", *options]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert calls == []
        assert not out_dir.exists()

    def test_far_field_bounds_exit_2(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        bounds = "[[-1.0e+200, 1.0e+200], [0.05, 0.1]]"
        path.write_text(path.read_text().replace("[[-0.02, 0.02], [0.05, 0.1]]", bounds))
        assert main(["field", "--config", str(path)]) == 2
        assert re.fullmatch(
            r"config error: grid point 0 at \[-1\.?e\+200 .*\] has a coordinate beyond "
            r"2\.99792e\+09 m \(1e\+12 wavelengths\)\n",
            capsys.readouterr().err,
        )

    def test_cone_slope_inside_far_limit_runs(self, tmp_path, capsys):
        # h/r = 1e-9 scans an 8 x 8 array at about 1.2e9 wavelengths
        path, _ = write_config(tmp_path)
        options = ["--nx", "8", "--nz", "8", "--h-over-r", "1e-9"]
        assert main(["run", "--config", str(path), *options]) == 0
        assert "direction_scan_radius_m" in (tmp_path / "out" / "report.csv").read_text()

    def test_internal_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # a non-finite field makes the heatmap writer raise ValueError
        def nan_field(array, exc, grid):
            nan = np.full(grid.num_points, complex(math.nan, 0.0))
            return cli.FieldGrid(grid=grid, ex=nan, ey=nan, ez=nan)

        monkeypatch.setattr(cli, "total_field", nan_field)
        path, _ = write_config(tmp_path)
        assert main(["field", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("failure: ")
        assert "config error" not in err

    @pytest.mark.parametrize("command", ["field", "run"])
    def test_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch, command):
        # what numpy raises for an observation grid too large to allocate
        message = "Unable to allocate 596. GiB for an array with shape (40000000000,)"

        def out_of_memory(array, exc, grid):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "total_field", out_of_memory)
        path, out_dir = write_config(tmp_path)
        assert main([command, "--config", str(path)]) == 3
        assert capsys.readouterr().err == f"failure: {message}\n"
        assert not (out_dir / "field.csv").exists()

    def test_fault_in_kernel_worker_exits_3(self, tmp_path, capsys, monkeypatch):
        # the scan's coarse call spans two tiles or more over two workers; a
        # fault in the share run by the worker thread must surface as exit 3
        tiles = kernels._tiles

        def faulty(cols, rows, pts, k, out, starts, *buffers):
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("injected kernel fault")
            tiles(cols, rows, pts, k, out, starts, *buffers)

        monkeypatch.setattr(kernels, "WORKERS", 2)
        monkeypatch.setattr(kernels, "_tiles", faulty)
        path, out_dir = write_config(tmp_path)
        assert main(["run", "--config", str(path)]) == 3
        assert capsys.readouterr().err == "failure: injected kernel fault\n"
        assert not (out_dir / "report.txt").exists()

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_exits_0(self, tmp_path, unbuffered):
        # a reader that closes stdout at once, or after 10 bytes like
        # `| head -c 10`, before or after the run's later lines: each run
        # exits 0 with nothing on stderr and writes every output file
        env = cli_env(PYTHONUNBUFFERED=unbuffered)
        for run, read in enumerate((0, 10, 0, 10)):
            out_dir = tmp_path / str(run)
            argv = ["run", "--nx", "8", "--nz", "8", "--out-dir", str(out_dir)]
            proc = subprocess.Popen(
                [sys.executable, "-m", "nfbeam.cli", *argv],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
            )
            proc.stdout.read(read)
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait(timeout=120) == 0
            assert err == b""
            assert len(list(out_dir.iterdir())) == 14

    @pytest.mark.parametrize(
        "argv, code", [(["--help"], 0), (["validate", "--cases", "3"], 2)], ids=["help", "usage"]
    )
    def test_parser_output_into_closed_stdout(self, monkeypatch, argv, code):
        # block-buffered stdout whose reader closed before the first write:
        # help exits 0 with nothing on stderr, a usage error exits 2 with
        # only its usage message there
        monkeypatch.setenv("COLUMNS", "80")
        env = cli_env()
        env.pop("PYTHONUNBUFFERED", None)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "nfbeam.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == code
        usage = cli.build_parser().format_usage()
        error = "nfbeam: error: unrecognized arguments: --cases 3\n"
        assert proc.stderr.decode() == ("" if code == 0 else usage + error)

    def test_success_exit_0(self, tmp_path):
        path, out_dir = write_config(tmp_path)
        assert main(["synthesize", "--config", str(path)]) == 0
        assert (out_dir / "phase.csv").exists()
        assert (out_dir / "phase_wrapped.pgm").exists()
        assert (out_dir / "phase_wrapped.pgm.txt").exists()


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: this one has imported scipy through other tests
    code = (
        "import sys, nfbeam, nfbeam.cli; "
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestSynthesizeCommand:
    def test_gaussian_phase_csv_matches_steering_formula(self, tmp_path):
        path, out_dir = write_config(tmp_path)
        code = main(
            [
                "synthesize",
                "--config",
                str(path),
                "--beam",
                "gaussian",
                "--az-deg",
                "20",
                "--el-deg",
                "0",
            ]
        )
        assert code == 0
        data = np.loadtxt(out_dir / "phase.csv", delimiter=",", skiprows=1)
        wavelength = 299_792_458.0 / 100e9
        k = 2 * math.pi / wavelength
        expected = k * data[:, 0] * math.sin(math.radians(20.0))
        np.testing.assert_allclose(data[:, 3], expected, atol=1e-9)

    def test_pgm_format(self, tmp_path):
        path, out_dir = write_config(tmp_path)
        main(["synthesize", "--config", str(path)])
        blob = (out_dir / "phase_wrapped.pgm").read_bytes()
        assert blob.startswith(b"P5\n6 6\n65535\n")
        header_len = len(b"P5\n6 6\n65535\n")
        assert len(blob) == header_len + 6 * 6 * 2


class TestPipelineCommands:
    def test_field_writes_grids_and_heatmaps(self, tmp_path):
        path, out_dir = write_config(tmp_path)
        assert main(["field", "--config", str(path)]) == 0
        assert (out_dir / "field.csv").exists()
        for tag in ("Emag", "Ex", "Ey", "Ez"):
            assert (out_dir / f"field_{tag}.pgm").exists()
            assert (out_dir / f"field_{tag}.pgm.txt").exists()
        data = np.loadtxt(out_dir / "field.csv", delimiter=",", skiprows=1)
        assert data.shape == (9 * 7, 9)

    def test_run_full_pipeline_and_summary(self, tmp_path, capsys):
        path, out_dir = write_config(tmp_path)
        assert main(["run", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "peak direction" in out
        assert "polarization fractions" in out
        threads = kernels.WORKERS
        suffix = f"(numpy kernel, {threads} thread{'s' * (threads != 1)})"
        assert re.search(r"^runtime: \d+\.\d\d s " + re.escape(suffix) + "$", out, re.M)
        assert (out_dir / "report.txt").exists()
        assert (out_dir / "report.csv").exists()
        report = (out_dir / "report.txt").read_text()
        assert "estimated_azimuth_deg:" in report
        assert "propagation_range_m:" in report

    @pytest.mark.parametrize("command", OUTPUTS)
    def test_writes_its_fixed_output_set(self, tmp_path, capsys, command):
        path, out_dir = write_config(tmp_path)
        assert main([command, "--config", str(path)]) == 0
        wrote = capsys.readouterr().out.splitlines()[-1]
        assert wrote == "wrote " + ", ".join(str(out_dir / name) for name in OUTPUTS[command])
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(OUTPUTS[command])

    @pytest.mark.parametrize("command", OUTPUTS)
    def test_rerun_byte_identical(self, tmp_path, command):
        path, out_dir = write_config(tmp_path)
        again = tmp_path / "again"
        assert main([command, "--config", str(path)]) == 0
        assert main([command, "--config", str(path), "--out-dir", str(again)]) == 0
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert {p.name: p.read_bytes() for p in again.iterdir()} == first

    def test_csv_values_read_back_as_their_own_text(self, tmp_path):
        # Each value s in the phase and field CSVs must be format(float(s),
        # ".17g"), whichever way the writer formats it.  The xz grid is
        # broadside and folds, so components zero by symmetry write -0.
        path, out_dir = write_config(tmp_path)
        assert main(["run", "--config", str(path)]) == 0
        xz = tmp_path / "xz.yaml"
        xz.write_text(
            SMALL_CONFIG.format(out_dir=tmp_path / "xz")
            .replace("azimuth_deg: 10.0", "azimuth_deg: 0.0")
            .replace("plane: xy", "plane: xz")
            .replace("[0.05, 0.1]]", "[-0.02, 0.02]]")
            .replace("offset_m: 0.0", "offset_m: 0.05")
        )
        assert main(["field", "--config", str(xz)]) == 0
        texts = {}
        for csv in (out_dir / "phase.csv", out_dir / "field.csv", tmp_path / "xz" / "field.csv"):
            texts[csv] = re.split("[,\n]", csv.read_text().split("\n", 1)[1].rstrip("\n"))
            assert [format(float(s), ".17g") for s in texts[csv]] == texts[csv]
        assert "-0" in texts[tmp_path / "xz" / "field.csv"]

    def test_analyze_reports(self, tmp_path, capsys):
        path, out_dir = write_config(tmp_path)
        assert main(["analyze", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "power_fraction_z:" in out
        csv = (out_dir / "report.csv").read_text().splitlines()
        assert csv[0] == "key,value"


class TestValidateCommand:
    def test_quick_checks_pass(self, capsys):
        code = main(
            [
                "validate",
                "--only",
                "rotation_orthonormality,field_linearity,determinism",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_solver_oracle_with_injected_error_fails(self, capsys, monkeypatch):
        oracle = validation.oracle_signed_min_distance

        def off_by_a_micron(*args, **kwargs):
            return oracle(*args, **kwargs) + 1e-6

        monkeypatch.setattr(validation, "oracle_signed_min_distance", off_by_a_micron)
        code = main(["validate", "--only", "solver_oracle_equivalence"])
        out = capsys.readouterr().out
        assert code == 3
        assert "FAIL solver_oracle_equivalence" in out

    def test_unknown_check_exits_2(self, capsys):
        assert main(["validate", "--only", "bogus_check"]) == 2

    def test_empty_selection_exits_2(self, capsys):
        assert main(["validate", "--only", ""]) == 2

    @pytest.mark.parametrize("option", [["--cases", "3"], ["--seed", "1"]], ids=["cases", "seed"])
    def test_removed_options_are_usage_errors(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["validate", *option])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {' '.join(option)}" in captured.err
        assert captured.out == ""

    def test_exception_inside_check_exits_3(self, capsys, monkeypatch):
        def clearance_fault(rng):
            raise ClearanceViolation("observation point inside the clearance")

        monkeypatch.setitem(validation.CHECKS, "field_linearity", clearance_fault)
        assert main(["validate", "--only", "field_linearity"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("failure: ")
        assert "config error" not in err

    def test_solver_oracle_draws_custom_surface_last(self, monkeypatch):
        kinds = []
        nearest_feet = kernels.nearest_feet

        def recording(elem_primed, wavefront):
            kinds.append(wavefront.kind)
            return nearest_feet(elem_primed, wavefront)

        monkeypatch.setattr(kernels, "nearest_feet", recording)
        res = validation.check_solver_oracle_equivalence(np.random.default_rng(7))
        assert res.passed
        assert kinds[40:] == ["custom"] * 10
        assert "custom" not in kinds[:40]

    def test_list_checks(self, capsys):
        assert main(["validate", "--list"]) == 0
        out = capsys.readouterr().out
        assert "solver_oracle_equivalence" in out


class TestReadme:
    def test_yaml_config_block_loads_and_validates(self, tmp_path):
        blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.S)
        assert len(blocks) == 1
        path = tmp_path / "readme.yaml"
        path.write_text(blocks[0])
        load_config(path).validate()

    def test_flag_tables_match_parser(self):
        rows = re.findall(r"^\| `(--[\w-]+)` \| (?:`([\w.]+)`)?", README.read_text(), re.M)
        subparsers = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        flags = {
            option
            for parser in subparsers.choices.values()
            for action in parser._actions
            for option in action.option_strings
        }
        assert sorted(flag for flag, _ in rows) == sorted(flags - {"-h", "--help"})
        overrides = {flag: key for flag, key in rows if key}
        assert overrides == {flag: key for flag, (key, _, _) in cli._FLAGS.items()}

    def test_output_table_matches_outputs(self):
        # rows whose first cell is a file name; the report-key table has none
        row = r"^\| `(\w+\.[\w.]+)` \| ((?:`\w+`(?:, )?)+) \|"
        rows = re.findall(row, README.read_text(), re.M)
        assert sorted(name for name, _ in rows) == sorted(OUTPUTS["run"])
        for name, writers in rows:
            expected = [command for command, names in OUTPUTS.items() if name in names]
            assert re.findall(r"`(\w+)`", writers) == expected, name
