import json
import os
import subprocess
import sys
import time
import warnings
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quasilab
from quasilab import cli, labyrinth, tracemap, words
from quasilab.cli import main
from quasilab.jacobi1d import ModelParams, ids_curve


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

    def test_integer_phase_codes_the_phase_zero_word(self):
        words_ = []
        for beta in ("1e20", "0"):
            code, out, _ = run_cli(["sequence", "--s", "1", "--n", "9", "--beta", beta, "--format", "json"])
            assert code == 0
            words_.append(json.loads(out)["data"]["word"])
        assert words_[0] == words_[1] and "b" in words_[0]


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

    def test_cover_json_carries_each_cover_its_provenance(self):
        code, out, _ = run_cli(["spectrum1d", "--lambda", "0.5", "--levels", "4,6", "--resolution", "1e-3",
                                "--format", "json"])
        assert code == 0
        covers = json.loads(out)["data"]
        coupling = ModelParams.from_coupling(1, 0.5).coupling
        assert [list(c) for c in covers] == [["s", "lambda", "level", "resolution", "bands"]] * 2
        assert [(c["s"], c["lambda"], c["level"], c["resolution"]) for c in covers] == [
            (1, coupling, 4, 1e-3), (1, coupling, 6, 1e-3)]
        assert all(c["bands"] for c in covers)

        code, out, _ = run_cli(["spectrum2d", "--s", "2", "--lambda1", "0.5", "--lambda2", "1", "--level", "5",
                                "--resolution", "1e-3", "--format", "json"])
        assert code == 0
        cover = json.loads(out)["data"]
        assert list(cover) == ["s", "lambda", "level", "resolution", "bands"]
        assert (cover["s"], cover["lambda"], cover["level"], cover["resolution"]) == (2, None, 5, 1e-3)

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

    @pytest.mark.parametrize("grid, phases", [(65537, 64), (401, 12), (5, 64)])
    def test_dos1d_passes_hold_no_more_lanes_than_the_budget(self, monkeypatch, tmp_path, grid, phases):
        monkeypatch.setattr(cli, "DOS1D_WORK_CAP", 10**12)  # the cap refuses 65537 x 64 at any N
        passes = []
        count = cli.count_below_offdiag

        def recording(off, energies):
            passes.append(len(off))
            return count(off, energies)

        monkeypatch.setattr(cli, "count_below_offdiag", recording)
        code, _, err = run_cli(["dos1d", "--a", "2", "--N", "16", "--grid", str(grid), "--phases", str(phases),
                                "--format", "svg", "-o", str(tmp_path / "dos.svg")])
        assert code == 0, err
        assert sum(passes) == phases
        assert max(passes) == min(phases, max(1, cli.DOS1D_LANES // grid))
        assert all(p * grid <= max(cli.DOS1D_LANES, grid) for p in passes)

    def test_dos1d_stacked_curves_are_the_single_window_curves(self):
        import numpy as np

        # 12 windows of 401 energies: passes of 5, 5 and 2 windows
        code, out, _ = run_cli(["dos1d", "--a", "1.7", "--s", "2", "--N", "300", "--phases", "12", "--seed", "3",
                                "--format", "json"])
        data = json.loads(out)["data"]
        grid, params = np.array(data["energies"]), ModelParams(2, 1.7)
        first, *rotations = data["curves"]
        assert first["window"] == "substitution:0" and first["ids"] == ids_curve(params, grid, 300).tolist()
        betas = np.random.default_rng(3).random(11)
        for curve, b in zip(rotations, betas, strict=True):
            assert curve["window"] == f"rotation:{b:.6f}"
            assert curve["ids"] == ids_curve(params, grid, 300, source="rotation", beta=float(b)).tolist()

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

    @pytest.mark.parametrize("argv", [
        ["dos1d", "--a", "2"], ["dos2d", "--a1", "2", "--a2", "1.5"],
    ], ids=["dos1d", "dos2d"])
    def test_huge_substitution_order_exits_0(self, argv):
        # the 16-site window needs 16 letters of a^s b, a word of 10**15 + 1 letters
        code, out, err = run_cli([*argv, "--s", str(10**15), "--N", "16", "--grid", "3", "--format", "json"])
        assert code == 0, err
        assert json.loads(out)["meta"]["s"] == 10**15

    @pytest.mark.parametrize("fmt", ["json", "svg"])
    def test_dos2d_histogram_in_every_format(self, fmt, tmp_path):
        argv = ["dos2d", "--lambda1", "0.5", "--a2", "1.5", "--N", "16", "--grid", "11", "--bins", "8"]

        def histogram_rows(name, *fmt_args):
            path = tmp_path / name
            code, _, _ = run_cli(argv + [*fmt_args, "-o", str(tmp_path / "out"), "--histogram-output", str(path)])
            assert code == 0
            return [line for line in path.read_text().splitlines() if not line.startswith("#")]

        rows = histogram_rows("hist.csv", "--format", fmt)
        assert rows[0] == "center,mass" and len(rows) == 9
        assert rows == histogram_rows("csv_hist.csv")


class TestDos2dMatchesEnumeration:
    # dos2d counts products without forming them; its artifacts must equal
    # what the sorted N^2 product list gives, bit for bit
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 33, 256])
    @pytest.mark.parametrize("bins", [1, 4, 256, 512])
    def test_json_and_histogram_csv(self, n, bins, tmp_path):
        import numpy as np

        argv = ["dos2d", "--s", "2", "--a1", "2.5", "--a2", "0.6", "--N", str(n), "--bins", str(bins)]
        code, out, _ = run_cli(argv + ["--format", "json"])
        assert code == 0
        data = json.loads(out)["data"]
        hist_path = tmp_path / "hist.csv"
        code, _, _ = run_cli(argv + ["-o", str(tmp_path / "cdf.csv"), "--histogram-output", str(hist_path)])
        assert code == 0
        rows = [line.split(",") for line in hist_path.read_text().splitlines() if not line.startswith("#")]

        prods = labyrinth.product_eigs(labyrinth.LabyrinthParams(2, 2.5, 0.6), n)
        hull = float(np.max(np.abs(prods.support)))
        grid = np.linspace(-1.05 * hull, 1.05 * hull, 401)
        hist, edges = np.histogram(prods.support, bins=bins, range=(-1.05 * hull, 1.05 * hull))
        centers = (0.5 * (edges[:-1] + edges[1:])).tolist()
        mass = (hist / prods.size).tolist()
        assert data["energies"] == grid.tolist()
        assert data["cdf"] == prods.cdf(grid).tolist()
        assert data["histogram"] == {"centers": centers, "mass": mass}
        assert rows[0] == ["center", "mass"]
        assert [[float(c), float(m)] for c, m in rows[1:]] == [list(pair) for pair in zip(centers, mass)]


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

    def test_gapless_cover_with_two_levels(self):
        # no gap gives infinite thickness, and fewer than three levels give no dimension
        argv = ["thickness", "--lambda", "0", "--levels", "4,8"]
        code, out, _ = run_cli(argv + ["--format", "json"])
        assert code == 0
        data = json.loads(out)["data"]
        assert list(data) == ["thickness_estimate", "box_dim_estimate", "total_length", "hull",
                              "band_count", "gap_count"]
        assert data["thickness_estimate"] == "inf" and data["box_dim_estimate"] is None
        assert (data["band_count"], data["gap_count"]) == (1, 0)
        code, out, _ = run_cli(argv)
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert [r.split(",")[0] for r in rows] == ["key", "thickness_estimate", "box_dim_estimate",
                                                   "total_length", "hull_lo", "hull_hi",
                                                   "band_count", "gap_count"]
        assert rows[1:3] == ["thickness_estimate,inf", "box_dim_estimate,"]

    @pytest.mark.parametrize("level, levels", [(1, [1]), (6, [1, 6]), (15, [5, 10, 15])])
    def test_default_levels_are_the_ladder_below_level(self, level, levels):
        # L - 10, L - 5 and L, each at least 1, ascending and without repeats
        code, out, _ = run_cli(["thickness", "--lambda", "1", "--level", str(level), "--format", "json"])
        assert code == 0
        assert json.loads(out)["meta"]["levels"] == levels

    def test_help_states_the_default_ladder_and_the_null_dimension(self):
        code, out, _ = run_cli(["thickness", "--help"])
        assert code == 0
        text = " ".join(out.split())
        assert "default L-10, L-5 and L for L = --level" in text
        assert "fewer than three levels box_dim_estimate is null" in text

    def test_covers_path_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on first use, which costs a fresh process ~16 ms
        program = ("import sys\nfrom quasilab.cli import main\n"
                   "try:\n    main(['thickness', '--lambda', '0.5', '--level', '12'])\n"
                   "finally:\n    sys.stderr.write(repr('numpy.ma' in sys.modules))\n")
        src = str(Path(quasilab.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                              timeout=120, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.endswith("False")

    def test_thickness_falls_and_bands_rise_with_the_coupling(self):
        data = []
        for lam in ("0.1", "1"):
            code, out, _ = run_cli(["thickness", "--lambda", lam, "--level", "10", "--format", "json"])
            assert code == 0
            data.append(json.loads(out)["data"])
        small, large = data
        assert small["thickness_estimate"] > large["thickness_estimate"] > 0
        assert 1 <= small["band_count"] < large["band_count"]
        assert 0 < small["box_dim_estimate"] <= 1 and 0 < large["box_dim_estimate"] <= 1


class TestSweepCommand:
    def test_small_grid(self):
        code, out, _ = run_cli([
            "sweep", "--lambda-min", "0.1", "--lambda-max", "1.0", "--steps", "2",
            "--level", "8",
        ])
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0] == "lambda1,lambda2,is_interval,total_gap_length,thickness1,thickness2"
        assert len(rows) == 5

    def test_heat_grid_svg(self, tmp_path):
        path = tmp_path / "sweep.svg"
        code, _, _ = run_cli([
            "sweep", "--steps", "2", "--level", "6", "--format", "svg", "-o", str(path),
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

    def test_criterion_11_alone_checks_the_covers_of_the_full_run(self):
        _, full, _ = run_cli(["verify", "--criteria", ",".join(map(str, range(1, 14)))])
        code, alone, _ = run_cli(["verify", "--criteria", "11"])
        row = [line for line in full.splitlines() if line.startswith("11 ")]
        assert code == 0 and "5 covers checked" in row[0]
        assert alone.splitlines()[1:] == row

    @pytest.mark.parametrize("args", [
        ["sequence", "--s", "2", "--n", "6", "--format", "json"],
        ["spectrum1d", "--lambda", "0.5", "--level", "10", "--resolution", "1e-3"],
        ["dos1d", "--lambda", "0.3", "--N", "128", "--grid", "21", "--phases", "2"],
        ["sweep", "--steps", "2", "--level", "6"],
    ])
    def test_byte_identical_reruns(self, args):
        code1, out1, _ = run_cli(args)
        code2, out2, _ = run_cli(args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_main_reuses_one_parser(self, monkeypatch):
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("main rebuilt the parser"))
        code, out, _ = run_cli(["sequence", "--n", "3"])
        assert code == 0 and "word,abaab" in out

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

    # criterion 14 runs the suite twice; its first run reports the other criteria
    @pytest.mark.parametrize("criteria, numbers", [(None, list(range(1, 15))), ("12,14", [12, 14])])
    def test_verify_with_criterion_14_runs_the_suite_twice(self, criteria, numbers, monkeypatch):
        from quasilab import acceptance

        calls = []
        run_all = acceptance.run_all
        monkeypatch.setattr(acceptance, "run_all", lambda *a: calls.append(a) or run_all(*a))
        code, out, _ = run_cli(["verify", "--format", "json"] + (["--criteria", criteria] if criteria else []))
        assert code == 0 and len(calls) == 2
        rows = json.loads(out)["data"]
        assert [r["number"] for r in rows] == numbers
        keys = ["number", "name", "passed", "runtime_ok", "runtime_limit_s", "detail"]
        assert all(list(r) == keys for r in rows)
        assert rows[-1]["runtime_ok"] is None and rows[-1]["runtime_limit_s"] is None


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
        # finite hopping values whose product range overflows
        ["dos2d", "--a1", "1e154", "--a2", "1e154", "--N", "4", "--grid", "5"],
        ["spectrum1d", "--a", "1e200", "--level", "5"],
        ["spectrum2d", "--a1", "2", "--lambda2", "1e200", "--level", "5"],
        # the trace-map sampler needs at least two grid points
        ["spectrum1d", "--a", "2", "--levels", "3,5", "--grid", "1"],
        ["spectrum1d", "--a", "2", "--grid", "0"],
        ["spectrum1d", "--a", "2", "--grid", "1"],
        ["spectrum2d", "--a1", "2", "--a2", "1", "--grid", "1"],
        ["sequence", "--beta", "nan"],
        ["sequence", "--beta", "inf"],
        # levels that are not positive and strictly increasing, refused by cover_sequence
        ["spectrum1d", "--a", "2", "--levels", "5,3"],
        ["spectrum1d", "--a", "2", "--levels", "3,3"],
        ["spectrum1d", "--a", "2", "--levels", ","],
        ["thickness", "--a", "2", "--levels", "0,4"],
        ["spectrum2d", "--a1", "2", "--a2", "1", "--level", "0", "--grid", "9"],
        # NaN knobs and an empty or reversed energy range
        ["spectrum1d", "--a", "2", "--level", "5", "--resolution", "nan"],
        ["thickness", "--a", "2", "--level", "5", "--resolution", "nan"],
        ["sweep", "--steps", "2", "--level", "5", "--resolution", "nan"],
        ["dos1d", "--a", "2", "--N", "16", "--grid", "5", "--emin", "nan"],
        ["dos1d", "--a", "2", "--N", "16", "--grid", "5", "--emax", "inf"],
        ["dos1d", "--a", "2", "--N", "16", "--grid", "5", "--emin", "3", "--emax", "1"],
        ["dos1d", "--a", "2", "--N", "16", "--grid", "5", "--emin", "1", "--emax", "1"],
        ["dos1d", "--a", "2", "--N", "16", "--grid", "5", "--emin", "9"],
        ["sweep", "--steps", "2", "--level", "5", "--lambda-min", "nan"],
        # an empty --levels list, refused like ","
        ["spectrum1d", "--a", "2", "--levels", ""],
        # a --criteria list that names no criterion
        ["verify", "--criteria", ","],
        ["verify", "--criteria", " "],
        ["verify", "--criteria", ",,"],
        ["verify", "--criteria", ""],
    ])
    def test_rejected_with_exit_2_and_one_json_line(self, args):
        code, out, err = run_cli(args)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "invalid-config"

    @pytest.mark.parametrize("args, item", [
        (["verify", "--criteria", "abc"], "'abc'"),
        (["verify", "--criteria", "2, x,12"], "'x'"),
        (["spectrum1d", "--a", "2", "--levels", "3,x"], "'x'"),
        (["thickness", "--a", "2", "--levels", "3,4.5"], "'4.5'"),
        (["verify", "--criteria", ","], "','"),
        # a box side below 1 names its flag
        (["dos1d", "--a", "2", "--N", "0", "--grid", "5"], "argument --N: must be at least 1, got 0"),
        (["dos2d", "--a1", "2", "--a2", "1", "--N", "0", "--grid", "5"],
         "argument --N: must be at least 1, got 0"),
    ])
    def test_comma_list_errors_name_the_bad_item(self, args, item, tmp_path):
        out_file = tmp_path / "out"
        code, _, err = run_cli(args + ["-o", str(out_file)])
        assert code == 2 and not out_file.exists()
        assert item in json.loads(err)["message"]

    @pytest.mark.parametrize("args, option", [
        (["sequence", "--n", "3"], "-o"),
        (["dos2d", "--a1", "2", "--a2", "1", "--N", "4", "--grid", "5"], "--histogram-output"),
        (["thickness", "--a", "2", "--level", "5"], "--gaps-output"),
    ])
    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    def test_unwritable_output_exits_2_with_one_json_line(self, args, option, target, tmp_path):
        path = tmp_path / "missing" / "x.csv" if target == "missing directory" else tmp_path
        main_out = [] if option == "-o" else ["-o", str(tmp_path / "main.csv")]
        code, out, err = run_cli(args + main_out + [option, str(path)])
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "invalid-config" and str(path) in error["message"]
        assert not (tmp_path / "main.csv").exists()  # no output path is written before all are checked

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


_FIRST_N_OVER_WORD_CAP = 29  # at s = 1
_LEVEL_OVER_WORK_CAP = tracemap.TRACE_WORK_CAP // tracemap.DEFAULT_GRID + 1


def _first_ladder_over_work_cap(grid: int) -> str:
    """--levels 1,2,...,k for the least k whose summed work exceeds the cap at s = 1."""
    k = 1
    while k * (k + 1) // 2 * max(grid, tracemap.WORK_GRID_FLOOR) <= tracemap.TRACE_WORK_CAP:
        k += 1
    return ",".join(map(str, range(1, k + 1)))


def _first_n_over_dos1d_cap(grid: int, phases: int) -> int:
    return cli.DOS1D_WORK_CAP // (max(grid, cli.DOS1D_FLOOR) * phases) - cli.DOS1D_FLOOR + 1


class TestResourceCaps:
    # each flag is run just above its cap only: a missing guard then costs
    # one allocation of about cap size, never gigabytes
    @pytest.mark.parametrize("args", [
        ["spectrum1d", "--a", "2", "--level", "5", "--grid", str(tracemap.GRID_CAP + 1)],
        ["spectrum2d", "--a1", "2", "--a2", "1", "--level", "5", "--grid", str(tracemap.GRID_CAP + 1)],
        ["dos1d", "--a", "2", "--N", "16", "--grid", str(cli.ENERGY_GRID_CAP + 1)],
        ["dos2d", "--a1", "2", "--a2", "1", "--N", "4", "--grid", str(cli.ENERGY_GRID_CAP + 1)],
        ["dos2d", "--a1", "2", "--a2", "1", "--N", "4", "--bins", str(cli.HISTOGRAM_BIN_CAP + 1)],
        ["dos2d", "--a1", "2", "--a2", "1", "--N", str(labyrinth.PRODUCT_SIDE_CAP + 1)],
        ["dos1d", "--a", "2", "--N", "16", "--grid", "5", "--phases", str(cli.PHASES_CAP + 1)],
        ["sweep", "--level", "5", "--steps", str(cli.SWEEP_STEPS_CAP + 1)],
        # word lengths: the recurrence stops at the cap, and no length is printed
        ["sequence", "--n", "40000"],
        ["sequence", "--n", "3", "--twin-k", "40000"],
        ["sequence", "--n", "40000", "--beta", "0.3"],
        ["sequence", "--beta", "0.3", "--n", str(_FIRST_N_OVER_WORD_CAP)],
        # trace-map work: level x s x grid at the default grid of 4097 points
        ["spectrum1d", "--a", "2", "--level", str(_LEVEL_OVER_WORK_CAP)],
        ["spectrum1d", "--a", "2", "--levels", f"1,{_LEVEL_OVER_WORK_CAP}"],
        ["spectrum1d", "--a", "2", "--s", str(_LEVEL_OVER_WORK_CAP), "--level", "1"],
        ["spectrum2d", "--a1", "2", "--a2", "1", "--level", str(_LEVEL_OVER_WORK_CAP)],
        ["thickness", "--a", "2", "--level", str(_LEVEL_OVER_WORK_CAP)],
        ["sweep", "--steps", "2", "--level", str(_LEVEL_OVER_WORK_CAP)],
        # a small grid is priced at the floor: just below the cap, grid 3 ran for 40 s
        ["spectrum1d", "--lambda", "0", "--grid", "3",
         "--level", str(tracemap.TRACE_WORK_CAP // tracemap.WORK_GRID_FLOOR + 1)],
        # a nested ladder is priced by the sum of its levels (levels 1..624 at grid 257)
        ["spectrum1d", "--lambda", "0", "--grid", "257", "--levels", _first_ladder_over_work_cap(257)],
        # dos1d work: (N + floor) x max(grid, floor) x phases
        ["dos1d", "--a", "2", "--grid", "1024", "--phases", "64",
         "--N", str(_first_n_over_dos1d_cap(1024, 64))],
        ["dos1d", "--a", "2", "--grid", "65537", "--phases", "60", "--N", "1"],
        ["dos1d", "--a", "2", "--grid", "5", "--phases", "64", "--N", str(_first_n_over_dos1d_cap(5, 64))],
    ])
    def test_exit_3_with_one_json_line(self, args):
        code, out, err = run_cli(args)
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "resource-limit"
        assert len(lines[0]) < 160

    def test_ladder_and_dos1d_caps_come_before_any_work(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("work started before the cap was checked")

        for holder, name in ((tracemap, "_level_bands"), (cli, "build_window"), (cli.np, "linspace")):
            monkeypatch.setattr(holder, name, boom)
        for args in (
            ["spectrum1d", "--lambda", "0", "--grid", "257", "--levels", _first_ladder_over_work_cap(257)],
            ["dos1d", "--a", "2", "--grid", "1024", "--phases", "64", "--N", str(_first_n_over_dos1d_cap(1024, 64))],
        ):
            code, _, err = run_cli(args)
            assert code == 3 and json.loads(err)["error"] == "resource-limit"

    def test_dos1d_cap_sits_one_step_above_accepted_work(self):
        n = _first_n_over_dos1d_cap(1024, 64)
        assert (n - 1 + cli.DOS1D_FLOOR) * 1024 * 64 <= cli.DOS1D_WORK_CAP < (n + cli.DOS1D_FLOOR) * 1024 * 64
        # the largest README and benchmark argv (N 8192, grid 401, 5 phases) is far below the cap
        assert (8192 + cli.DOS1D_FLOOR) * max(401, cli.DOS1D_FLOOR) * 5 * 50 < cli.DOS1D_WORK_CAP

    def test_first_word_over_the_cap(self):
        assert words.word_length(1, _FIRST_N_OVER_WORD_CAP - 1) <= words.DEFAULT_WORD_CAP
        assert words.word_length(1, _FIRST_N_OVER_WORD_CAP) > words.DEFAULT_WORD_CAP

    def test_nested_levels_are_charged_their_samples(self, tmp_path):
        # priced at the grid, this ladder passes the cap (1830 x 257), but its deep
        # levels sample far more than 257 points: charged by samples, it stops
        # before level 25 instead of running for half a minute into the band cap
        out_file = tmp_path / "cover.csv"
        start = time.perf_counter()
        code, out, err = run_cli(["spectrum1d", "--lambda", "3", "--grid", "257",
                                  "--levels", ",".join(map(str, range(1, 61))), "-o", str(out_file)])
        assert time.perf_counter() - start < 5.0
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        message = json.loads(lines[0])["message"]
        assert int(message.rsplit(" ", 1)[1]) <= 25
        assert json.loads(lines[0]) == {
            "error": "resource-limit",
            "message": f"level x s x max(samples, grid, {tracemap.WORK_GRID_FLOOR}), summed over levels, "
                       f"exceed the cap of {tracemap.TRACE_WORK_CAP} before level 25",
        }
        assert not out_file.exists()


class TestMetadata:
    # ordered metadata of one argv per subcommand: a change to any key, its
    # position or its value changes the bytes of every artifact of that kind
    @pytest.mark.parametrize("args, expected", [
        (["sequence", "--s", "2", "--n", "5", "--twin-k", "3", "--format", "json"],
         {"tool": "quasilab", "version": "0.1.0", "subcommand": "sequence", "s": 2, "n": 5,
          "twin_k": 3, "fmt": "json", "output": "-"}),
        (["spectrum1d", "--lambda", "0.5", "--level", "6", "--levels", "3,6", "--resolution", "1e-3",
          "--format", "json"],
         {"tool": "quasilab", "version": "0.1.0", "subcommand": "spectrum1d", "s": 1,
          "a": 1.2807764064044151, "levels": [3, 6], "resolution": 0.001,
          "grid": 4097, "fmt": "json", "output": "-"}),
        (["dos1d", "--a", "2", "--N", "16", "--grid", "5", "--emin", "-1", "--phases", "2",
          "--seed", "3", "--format", "json"],
         {"tool": "quasilab", "version": "0.1.0", "subcommand": "dos1d", "s": 1, "a": 2.0, "n": 16,
          "grid": 5, "phases": 2, "emin": -1.0, "fmt": "json", "output": "-", "seed": 3,
          "max_pairwise_spread": 0.0625}),
        (["spectrum2d", "--a1", "2", "--lambda2", "0.5", "--level", "6", "--resolution", "1e-3",
          "--format", "json"],
         {"tool": "quasilab", "version": "0.1.0", "subcommand": "spectrum2d", "s": 1, "a": 2.0,
          "a2": 1.2807764064044151, "level": 6, "resolution": 0.001, "grid": 4097, "fmt": "json",
          "output": "-"}),
        (["dos2d", "--lambda1", "0.5", "--a2", "1.5", "--N", "8", "--grid", "5", "--bins", "4",
          "--histogram-output", "hist.csv", "--format", "json"],
         {"tool": "quasilab", "version": "0.1.0", "subcommand": "dos2d", "s": 1,
          "a": 1.2807764064044151, "a2": 1.5, "n": 8, "grid": 5, "bins": 4, "fmt": "json",
          "output": "-", "histogram_output": "hist.csv"}),
        (["thickness", "--a", "4", "--level", "9", "--gaps-output", "gaps.csv", "--format", "json"],
         {"tool": "quasilab", "version": "0.1.0", "subcommand": "thickness", "s": 1, "a": 4.0,
          "level": 9, "levels": [1, 4, 9], "resolution": 0.0001, "fmt": "json", "output": "-",
          "gaps_output": "gaps.csv"}),
        (["sweep", "--steps", "2", "--level", "6", "--format", "json"],
         {"tool": "quasilab", "version": "0.1.0", "subcommand": "sweep", "s": 1, "level": 6,
          "resolution": 0.0001, "lambda_min": 0.05, "lambda_max": 1.0, "steps": 2, "fmt": "json",
          "output": "-"}),
        (["verify", "--criteria", "2", "--format", "json"],
         {"tool": "quasilab", "version": "0.1.0", "subcommand": "verify", "criteria": [2],
          "fmt": "json", "output": "-"}),
        # a single-level spectrum1d leaves levels out
        (["spectrum1d", "--a", "2", "--level", "4", "--grid", "257", "--format", "json"],
         {"tool": "quasilab", "version": "0.1.0", "subcommand": "spectrum1d", "s": 1, "a": 2.0,
          "level": 4, "resolution": 0.0001, "grid": 257, "fmt": "json", "output": "-"}),
        # --levels replaces --level, which leaves the metadata
        (["thickness", "--lambda", "1", "--level", "9", "--levels", "4,8", "--format", "json"],
         {"tool": "quasilab", "version": "0.1.0", "subcommand": "thickness", "s": 1,
          "a": 1.6180339887498949, "levels": [4, 8], "resolution": 0.0001, "fmt": "json", "output": "-"}),
    ])
    def test_keys_and_values_in_order(self, args, expected, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(args)
        assert code == 0
        assert list(json.loads(out)["meta"].items()) == list(expected.items())


# argv grammar: every subcommand at small sizes.  A knob is (flag, good values,
# awkward values, required); each example gives at most one knob an awkward
# value, so that the value reaches its own check.  Flags are written
# --flag=value, so that argparse takes "-inf" as a value, not as an option.
_AWKWARD = st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1.5", "1e-300", "1e300"])
_COUPLING = st.floats(0.0, 4.0)
_BAD_INT = st.integers(-2, 0)
_MODEL1D = [(("--a", "--lambda"), st.floats(0.05, 4.0), _AWKWARD, True)]
_MODEL2D = [(("--a1", "--lambda1"), st.floats(0.05, 4.0), _AWKWARD, True),
            (("--a2", "--lambda2"), st.floats(0.05, 4.0), _AWKWARD, True)]
_S = ("--s", st.integers(1, 3), _BAD_INT, False)
_LEVEL = ("--level", st.integers(1, 10), _BAD_INT, True)
_LEVELS = ("--levels", st.lists(st.integers(1, 10), min_size=1, max_size=3, unique=True)
           .map(lambda ls: ",".join(map(str, sorted(ls)))),
           st.sampled_from(["", ",", "3,3", "5,2", "0,4", "x"]), False)
_RESOLUTION = ("--resolution", st.floats(1e-6, 1e-2), _AWKWARD, False)
_COVER_GRID = ("--grid", st.integers(2, 257), st.integers(-1, 1), True)
_DOS_GRID = ("--grid", st.integers(1, 257), _BAD_INT, True)
_N = ("--N", st.integers(1, 64), _BAD_INT, True)


def _format(*choices):
    return ("--format", st.sampled_from(choices), st.just("xml"), False)


def _argv(name, *knobs):
    @st.composite
    def build(draw):
        argv = [name]
        spoil = draw(st.integers(0, len(knobs) - 1)) if draw(st.booleans()) else None
        for i, (flag, good, bad, required) in enumerate(knobs):
            if i == spoil:
                value = draw(bad)
            elif required or draw(st.booleans()):
                value = draw(good)
            else:
                continue
            if isinstance(flag, tuple):
                flag = draw(st.sampled_from(flag))
            argv.append(f"{flag}={value}")
        return argv

    return build()


_GRAMMAR = {
    "sequence": _argv("sequence", _S, ("--n", st.integers(0, 10), st.just(-1), False),
                      ("--beta", st.floats(0.0, 1.0), _AWKWARD, False),
                      ("--twin-k", st.integers(1, 6), _BAD_INT, False), _format("csv", "json")),
    "spectrum1d": _argv("spectrum1d", *_MODEL1D, _S, _LEVEL, _LEVELS, _RESOLUTION, _COVER_GRID,
                        _format("csv", "json", "svg")),
    "dos1d": _argv("dos1d", *_MODEL1D, _S, _N, _DOS_GRID,
                   ("--emin", st.floats(-6.0, 0.0), _AWKWARD, False),
                   ("--emax", st.floats(0.0, 6.0), _AWKWARD, False),
                   ("--phases", st.integers(1, 4), _BAD_INT, False),
                   ("--seed", st.integers(0, 5), st.just(-1), False), _format("csv", "json", "svg")),
    "spectrum2d": _argv("spectrum2d", *_MODEL2D, _S, _LEVEL, _RESOLUTION, _COVER_GRID,
                        _format("csv", "json", "svg")),
    "dos2d": _argv("dos2d", *_MODEL2D, _S, _N, _DOS_GRID, ("--bins", st.integers(1, 512), _BAD_INT, False),
                   _format("csv", "json", "svg")),
    "thickness": _argv("thickness", *_MODEL1D, _S, _LEVEL, _LEVELS, _RESOLUTION, _format("csv", "json")),
    "sweep": _argv("sweep", _S, ("--lambda-min", _COUPLING, _AWKWARD, False),
                   ("--lambda-max", _COUPLING, _AWKWARD, False),
                   ("--steps", st.integers(1, 3), _BAD_INT, True), _LEVEL, _RESOLUTION,
                   _format("csv", "json", "svg")),
    # criteria 1, 2, 7 and 12 take milliseconds
    "verify": _argv("verify", ("--criteria", st.lists(st.sampled_from(["1", "2", "7", "12"]), min_size=1,
                                                      max_size=3).map(",".join),
                               st.sampled_from(["0", "15", "-3", "x", " ", ",", "2,,99"]), True),
                    _format("text", "json")),
}


class TestArgvGrammar:
    @settings(max_examples=600, deadline=timedelta(seconds=20))
    @given(st.one_of(*_GRAMMAR.values()))
    # a hopping value whose square underflows to 0 gave NaN Sturm pivots
    @example(["dos2d", "--lambda1", "3.5", "--a2", "1e-300", "--N", "7", "--grid", "23"])
    def test_exit_contract(self, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(argv)
        assert not caught, [str(w.message) for w in caught]
        assert code in (0, 1, 2, 3)
        if code == 0:
            assert "nan" not in out.lower()
        else:
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1
            assert "error" in json.loads(lines[0])


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
        proc = run_cli_subprocess(["--version"], timeout=60)
        assert proc.returncode == 0
        assert "quasilab" in proc.stdout
