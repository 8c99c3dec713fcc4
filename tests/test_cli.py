import argparse
import dataclasses
import math
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

    @pytest.mark.parametrize(
        "key, field",
        [
            ("outputs.out_dir", "out_dir"),
            ("outputs.phase_csv", "phase_csv"),
            ("outputs.field_csv", "field_csv"),
            ("outputs.heatmap", "heatmap_stem"),
            ("outputs.report", "report"),
        ],
    )
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
            ("outputs:\n", "outputs:\n  phase_csv: null\n", "outputs.phase_csv"),
        ],
        ids=["fractional", "boolean", "text", "fractional-resolution", "int-out-dir", "null-name"],
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
        # the scan's coarse call spans three tiles over two workers; a fault
        # in the share run by the worker thread must surface as exit 3
        tiles = kernels._tiles

        def faulty(elems, rows, pts, k, out, starts, *buffers):
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("injected kernel fault")
            tiles(elems, rows, pts, k, out, starts, *buffers)

        monkeypatch.setattr(kernels, "WORKERS", 2)
        monkeypatch.setattr(kernels, "_tiles", faulty)
        path, out_dir = write_config(tmp_path)
        assert main(["run", "--config", str(path)]) == 3
        assert capsys.readouterr().err == "failure: injected kernel fault\n"
        assert not (out_dir / "report.txt").exists()

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

    @pytest.mark.parametrize(
        "command, names",
        [
            ("field", ("phase.csv", "field.csv", "field_Emag.pgm")),
            ("run", ("phase.csv", "field.csv", "field_Emag.pgm", "report.txt", "report.csv")),
        ],
        ids=["field", "run"],
    )
    def test_rerun_byte_identical(self, tmp_path, command, names):
        path, out_dir = write_config(tmp_path)
        assert main([command, "--config", str(path)]) == 0
        first = {name: (out_dir / name).read_bytes() for name in names}
        assert main([command, "--config", str(path)]) == 0
        for name, blob in first.items():
            assert (out_dir / name).read_bytes() == blob

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
        oracle = validation.oracle_min_distance

        def off_by_a_micron(*args, **kwargs):
            return oracle(*args, **kwargs) + 1e-6

        monkeypatch.setattr(validation, "oracle_min_distance", off_by_a_micron)
        code = main(["validate", "--only", "solver_oracle_equivalence", "--cases", "3"])
        out = capsys.readouterr().out
        assert code == 3
        assert "FAIL solver_oracle_equivalence" in out

    def test_unknown_check_exits_2(self, capsys):
        assert main(["validate", "--only", "bogus_check"]) == 2

    def test_empty_selection_exits_2(self, capsys):
        assert main(["validate", "--only", ""]) == 2

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_cases_below_one_exits_2(self, capsys, cases):
        assert main(["validate", "--only", "solver_oracle_equivalence", "--cases", cases]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: --cases must be at least 1\n"
        assert captured.out == ""

    def test_negative_seed_exits_2(self, capsys):
        assert main(["validate", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: --seed must be a non-negative integer\n"
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
        res = validation.check_solver_oracle_equivalence(np.random.default_rng(7), cases=4)
        assert res.passed
        assert kinds[4:] == ["custom"]
        assert "custom" not in kinds[:4]

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
