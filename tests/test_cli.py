import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasilab
from quasilab.cli import main


def run_cli(args, tmp_path=None):
    """Invoke the CLI in-process, capturing stdout/stderr and the exit code."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    code = 0
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestSequenceCommand:
    def test_json_payload(self):
        code, out, _ = run_cli(["sequence", "--s", "1", "--n", "4", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["data"]["word"] == "abaababa"
        assert payload["meta"]["tool"] == "quasilab"

    def test_csv_contains_word(self):
        code, out, _ = run_cli(["sequence", "--s", "2", "--n", "2"])
        assert code == 0
        assert "word,aabaaba" in out

    def test_twin_report(self):
        code, out, _ = run_cli(
            ["sequence", "--s", "1", "--n", "3", "--twin-k", "3", "--format", "json"]
        )
        assert json.loads(out)["data"]["twin"]["report"]["offset"] == 5

    def test_rotation_phase(self):
        code, out, _ = run_cli(
            ["sequence", "--s", "1", "--n", "5", "--beta", "0.0", "--format", "json"]
        )
        assert json.loads(out)["data"]["word"] == "abaababaabaab"


class TestSpectrumCommands:
    def test_free_cover_csv(self, tmp_path):
        path = tmp_path / "cover.csv"
        code, _, _ = run_cli([
            "spectrum1d", "--s", "1", "--lambda", "0", "--level", "12",
            "--resolution", "1e-3", "-o", str(path),
        ])
        assert code == 0
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "level,band_lo,band_hi"
        _, lo, hi = rows[1].split(",")
        assert abs(float(lo) + 2.0) < 5e-3 and abs(float(hi) - 2.0) < 5e-3

    def test_spectrum2d_json(self):
        code, out, _ = run_cli([
            "spectrum2d", "--s", "1", "--lambda1", "0", "--lambda2", "0",
            "--level", "10", "--resolution", "1e-3", "--format", "json",
        ])
        assert code == 0
        bands = json.loads(out)["data"]["bands"]
        assert len(bands) == 1
        assert bands[0][0] == pytest.approx(-4.0, abs=0.05)
        assert bands[0][1] == pytest.approx(4.0, abs=0.05)

    def test_svg_output(self, tmp_path):
        path = tmp_path / "bands.svg"
        code, _, _ = run_cli([
            "spectrum1d", "--a", "4", "--level", "8", "--levels", "4,8",
            "--resolution", "1e-3", "--format", "svg", "-o", str(path),
        ])
        assert code == 0
        text = path.read_text()
        assert text.startswith("<svg") and "<metadata>" in text and "</svg>" in text


class TestDosCommands:
    def test_dos1d_free_matches_arcsine(self):
        code, out, _ = run_cli([
            "dos1d", "--lambda", "0", "--N", "512", "--grid", "41",
            "--emin", "-2.5", "--emax", "2.5", "--format", "json",
        ])
        data = json.loads(out)["data"]
        import numpy as np

        got = np.array(data["curves"][0]["ids"])
        want = np.array(data["free_ids"])
        assert np.max(np.abs(got - want)) < 0.05

    def test_dos1d_phase_spread_recorded(self):
        code, out, _ = run_cli([
            "dos1d", "--lambda", "0.5", "--N", "128", "--grid", "21",
            "--phases", "3", "--seed", "7", "--format", "json",
        ])
        meta = json.loads(out)["meta"]
        assert meta["phases"] == 3 and "max_pairwise_spread" in meta

    def test_dos2d_csv_and_histogram(self, tmp_path):
        cdf_path = tmp_path / "cdf.csv"
        hist_path = tmp_path / "hist.csv"
        code, _, _ = run_cli([
            "dos2d", "--lambda1", "0.5", "--lambda2", "0.5", "--N", "32",
            "--grid", "11", "--bins", "64",
            "-o", str(cdf_path), "--histogram-output", str(hist_path),
        ])
        assert code == 0
        assert "energy,cdf" in cdf_path.read_text()
        assert "center,mass" in hist_path.read_text()


class TestThicknessCommand:
    def test_json_stats(self):
        code, out, _ = run_cli([
            "thickness", "--a", "4", "--level", "9", "--levels", "5,7,9",
            "--resolution", "1e-3", "--format", "json",
        ])
        assert code == 0
        data = json.loads(out)["data"]
        assert data["band_count"] >= 2
        assert data["total_length"] > 0


class TestSweepCommand:
    def test_small_grid(self):
        code, out, _ = run_cli([
            "sweep", "--lambda-min", "0.1", "--lambda-max", "1.0", "--steps", "2",
            "--level", "8", "--jobs", "1",
        ])
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0] == "lambda1,lambda2,is_interval,total_gap_length,thickness1,thickness2"
        assert len(rows) == 5

    def test_parallel_matches_serial(self):
        args = ["sweep", "--lambda-min", "0.2", "--lambda-max", "0.8", "--steps", "2",
                "--level", "6"]
        _, serial, _ = run_cli(args + ["--jobs", "1"])
        _, parallel, _ = run_cli(args + ["--jobs", "2"])
        # worker count is part of the embedded config; the data must agree
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("# jobs")]
        assert strip(serial) == strip(parallel)

    def test_heat_grid_svg(self, tmp_path):
        path = tmp_path / "sweep.svg"
        code, _, _ = run_cli([
            "sweep", "--steps", "2", "--level", "6", "--format", "svg",
            "--jobs", "1", "-o", str(path),
        ])
        assert code == 0
        assert "<rect" in path.read_text()


class TestErrorsAndDeterminism:
    def test_invalid_config_json_error(self):
        code, _, err = run_cli(["spectrum1d", "--level", "10"])  # missing --a/--lambda
        assert code == 2
        assert json.loads(err)["error"] == "invalid-config"

    def test_negative_hopping_rejected(self):
        code, _, err = run_cli(["spectrum1d", "--a", "-2", "--level", "5"])
        assert code == 2

    def test_resource_limit_exit_code(self):
        code, _, err = run_cli(["sequence", "--n", "99"])
        assert code == 3
        assert json.loads(err)["error"] == "resource-limit"

    def test_unknown_criteria_rejected(self):
        code, _, err = run_cli(["verify", "--criteria", "99"])
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["sequence", "--s", "2", "--n", "6", "--format", "json"],
        ["spectrum1d", "--lambda", "0.5", "--level", "10", "--resolution", "1e-3"],
        ["dos1d", "--lambda", "0.3", "--N", "128", "--grid", "21", "--phases", "2"],
        ["sweep", "--steps", "2", "--level", "6", "--jobs", "1"],
    ])
    def test_byte_identical_reruns(self, args):
        code1, out1, _ = run_cli(args)
        code2, out2, _ = run_cli(args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_verify_subset_runs(self):
        code, out, _ = run_cli(["verify", "--criteria", "2"])
        assert code == 0
        assert "torus semi-conjugacy" in out and "PASS" in out

    def test_verify_subset_json(self):
        code, out, _ = run_cli(["verify", "--criteria", "2,12", "--format", "json"])
        assert code == 0
        data = json.loads(out)["data"]
        assert [r["number"] for r in data] == [2, 12]
        assert all(r["passed"] for r in data)


def run_cli_subprocess(args, timeout):
    """Run the CLI in a child process; a run past ``timeout`` seconds raises."""
    src = str(Path(quasilab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "quasilab.cli", *args],
        capture_output=True, text=True, timeout=timeout, env=dict(os.environ, PYTHONPATH=path),
    )


class TestInvalidInput:
    @pytest.mark.parametrize("args", [
        ["dos1d", "--a", "inf", "--N", "16", "--grid", "5"],
        ["dos1d", "--lambda", "inf", "--N", "16", "--grid", "5"],
        ["dos2d", "--a1", "inf", "--a2", "1", "--N", "4", "--grid", "5"],
        ["dos2d", "--a1", "2", "--a2", "nan", "--N", "4", "--grid", "5"],
        ["dos1d", "--a", "2", "--N", "16", "--grid", "0"],
        ["dos2d", "--a1", "2", "--a2", "1", "--N", "4", "--grid", "0"],
        ["dos1d", "--a", "2", "--N", "16", "--grid", "5", "--phases", "0"],
        # hopping values whose square overflows
        ["dos1d", "--a", "1e200", "--N", "64", "--grid", "5"],
        ["dos1d", "--lambda", "1e200", "--N", "64", "--grid", "5"],
        ["dos2d", "--a1", "1e200", "--a2", "1", "--N", "8"],
        ["spectrum1d", "--a", "1e200", "--level", "5"],
        ["spectrum2d", "--a1", "2", "--lambda2", "1e200", "--level", "5"],
        # the trace-map sampler needs at least two grid points
        ["spectrum1d", "--a", "2", "--levels", "3,5", "--grid", "1"],
        ["spectrum1d", "--a", "2", "--grid", "0"],
        ["spectrum1d", "--a", "2", "--grid", "1"],
        ["spectrum2d", "--a1", "2", "--a2", "1", "--grid", "1"],
        ["sequence", "--beta", "nan"],
        ["sequence", "--beta", "inf"],
    ])
    def test_rejected_with_exit_2_and_one_json_line(self, args):
        code, out, err = run_cli(args)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "invalid-config"


    @pytest.mark.parametrize("args", [
        # the two grid points are the ends of the search interval, and both escape
        ["spectrum1d", "--a", "2", "--grid", "2", "--level", "3"],
        ["spectrum1d", "--a", "2", "--grid", "2", "--levels", "2,3"],
        ["spectrum2d", "--a1", "2", "--a2", "1", "--grid", "2", "--level", "3"],
    ])
    def test_empty_cover_exits_1_with_one_json_line_and_no_artifact(self, args, tmp_path):
        out_file = tmp_path / "cover.csv"
        code, out, err = run_cli(args + ["--output", str(out_file)])
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "empty-cover"
        assert not out_file.exists()


class TestBisectionTerminates:
    # both commands looped forever while bisection stopped only on width:
    # the requested width is below the float spacing at the bracket
    @pytest.mark.parametrize("args", [
        ["dos2d", "--a1", "1e5", "--a2", "1", "--N", "4"],
        ["spectrum1d", "--a", "4", "--level", "5", "--resolution", "1e-17"],
    ])
    def test_tolerance_below_float_spacing(self, args):
        proc = run_cli_subprocess(args, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert len([l for l in proc.stdout.splitlines() if not l.startswith("#")]) > 1


class TestConsoleScript:
    def test_entry_point_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "quasilab.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "quasilab" in proc.stdout
