"""Tests of the bench harness, scripts/bench_pairs.py, with its runner replaced or at a tiny size."""

import importlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_stand_in(monkeypatch, tmp_path, jobs_per_s, rows=()):
    """bench_pairs with ROOT at tmp_path and its one runner replaced.

    A workload run prints run.py's environment line, a table and its final
    JSON; a tree and seed missing from jobs_per_s fail.  A layer row's run
    prints k times whose best is 2 ms in the base and 1 ms in the head; a row
    whose callable ends in ``no_such_name`` raises in the head.
    """
    script = _load("bench_pairs")
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "BENCHMARK.json").write_text((root / "BENCHMARK.json").read_text())
    shas = {"HEAD~1": "a" * 40, "HEAD": "b" * 40}
    seen = []

    def extract(rev, dest):
        dest.mkdir(parents=True)
        return shas[rev]

    def run(tree, name, seed, seconds):
        seen.append((tree.name, name, seed))
        if name not in script.WORKLOADS:
            _, target, _, k = next(row for row in script.LAYERS if row[0] == name)
            if target.endswith("no_such_name") and tree.name == "head":
                return subprocess.CompletedProcess([], 1, "", "Traceback ...\nAttributeError: no_such_name\n")
            best = 0.002 if tree.name == "base" else 0.001
            return subprocess.CompletedProcess([], 0, json.dumps([best * 1.5] * (k - 1) + [best]) + "\n", "")
        if (tree.name, seed) not in jobs_per_s:
            return subprocess.CompletedProcess([], 1, "environment {}\n", "Traceback ...\nMemoryError\n")
        v = jobs_per_s[tree.name, seed]
        metrics = {"jobs_per_s": (v, "1/s"), "job_p50_s": (1 / v, "s"), "job_tail_s": (3 / v, "s"),
                   "setup_s": (0.3, "s"), "peak_rss_mb": (40.0 + seed, "MB")}
        final = {"correct": True, "attempted": 7, "failed": 0,
                 "metrics": {k: {"value": x, "unit": u} for k, (x, u) in metrics.items()}}
        env = {"workload": name, "seed": seed, "tree": tree.name, "seconds": seconds}
        return subprocess.CompletedProcess([], 0, f"environment {json.dumps(env)}\nperfbench {name}: 7 jobs\n"
                                                  f"{json.dumps(final)}\n", "")

    monkeypatch.setattr(script, "ROOT", tmp_path)
    monkeypatch.setattr(script, "extract", extract)
    monkeypatch.setattr(script, "run", run)
    monkeypatch.setattr(script, "LAYERS", list(rows))
    return script, shas, seen


_ROWS = [("fast", "quasilab.jacobi1d.free_ids", "args = (0.0,)", 3),
         ("gone", "quasilab.jacobi1d.no_such_name", "args = ()", 2)]


def _assert_one_pair_per_seed(runs, name, seeds):
    # each seed is one pair: both trees, one in each position
    for seed in seeds:
        pair = sorted((r["position"], r["tree"]) for r in runs if (r["name"], r["seed"]) == (name, seed))
        assert [p for p, _ in pair] == [0, 1] and {t for _, t in pair} == {"base", "head"}


def test_bench_pairs_writes_every_run_with_medians_and_wins(monkeypatch, tmp_path, capsys):
    jobs_per_s = {("base", 1): 10.0, ("head", 1): 12.0, ("base", 2): 11.0, ("head", 2): 10.0,
                  ("base", 3): 9.0, ("head", 3): 13.0}
    script, shas, _ = _bench_stand_in(monkeypatch, tmp_path, jobs_per_s)
    assert script.main(["--base", "HEAD~1", "--workload", "dos-fresh", "--seeds", "1,2,3"]) == 0
    report = json.loads((tmp_path / "BENCH_bbbbbbb.json").read_text())
    run_seconds = json.loads((tmp_path / "BENCHMARK.json").read_text())["run_seconds"]
    assert set(report) == {"base", "head", "seconds", "command", "summary", "runs"}
    assert (report["base"], report["head"], report["seconds"]) == (shas["HEAD~1"], shas["HEAD"], run_seconds)
    runs = report["runs"]
    assert len(runs) == 6
    for run in runs:
        assert set(run) == {"tree", "name", "seed", "position", "returncode", "environment", "result",
                            "loadavg_before", "loadavg_after"}
        assert run["returncode"] == 0
        # every run is made for the benchmark's own run length
        assert run["environment"] == {"workload": "dos-fresh", "seed": run["seed"], "tree": run["tree"],
                                      "seconds": run_seconds}
        assert len(run["loadavg_before"]) == len(run["loadavg_after"]) == 3
    _assert_one_pair_per_seed(runs, "dos-fresh", (1, 2, 3))
    summary = report["summary"]["dos-fresh"]
    assert summary["pairs"] == 3 and summary["seeds"] == [1, 2, 3]
    assert summary["failed"] == summary["failed_runs"] == {"base": 0, "head": 0}
    assert set(summary["metrics"]) == {"jobs_per_s", "job_p50_s", "job_tail_s", "setup_s", "peak_rss_mb"}
    jobs = summary["metrics"]["jobs_per_s"]
    assert jobs["base"] == {"median": 10.0, "q1": 9.5, "q3": 10.5}
    assert jobs["head"] == {"median": 12.0, "q1": 11.0, "q3": 12.5}
    assert (jobs["head_wins"], jobs["head_losses"], jobs["ties"]) == (2, 1, 0)
    p50 = summary["metrics"]["job_p50_s"]  # lower is better: the same pairs are won
    assert p50["better"] == "lower" and (p50["head_wins"], p50["head_losses"], p50["ties"]) == (2, 1, 0)
    assert summary["metrics"]["setup_s"]["ties"] == 3
    assert "wrote" in capsys.readouterr().out


def test_bench_pairs_records_a_failed_run_and_keeps_the_rest(monkeypatch, tmp_path, capsys):
    # the head's run of seed 2 exits 1; the other five runs are kept, and seed 2 is no pair
    jobs_per_s = {("base", 1): 10.0, ("head", 1): 12.0, ("base", 2): 11.0, ("base", 3): 9.0, ("head", 3): 13.0}
    script, _, _ = _bench_stand_in(monkeypatch, tmp_path, jobs_per_s)
    assert script.main(["--base", "HEAD~1", "--workload", "covers", "--seeds", "1,2,3"]) == 0
    report = json.loads((tmp_path / "BENCH_bbbbbbb.json").read_text())
    runs = report["runs"]
    assert len(runs) == 6
    (failed,) = [r for r in runs if "result" not in r]
    assert (failed["tree"], failed["seed"], failed["returncode"]) == ("head", 2, 1)
    assert failed["stderr_tail"].endswith("MemoryError") and "environment" not in failed
    summary = report["summary"]["covers"]
    assert summary["pairs"] == 2 and summary["seeds"] == [1, 3]
    assert summary["failed_runs"] == {"base": 0, "head": 1}
    jobs = summary["metrics"]["jobs_per_s"]
    assert (jobs["head_wins"], jobs["head_losses"]) == (2, 0)
    assert "covers seed 2 head: failed (exit 1)" in capsys.readouterr().out


def test_layer_rows_run_in_pairs_and_a_failed_row_is_kept(monkeypatch, tmp_path, capsys):
    script, _, seen = _bench_stand_in(monkeypatch, tmp_path, {}, _ROWS)
    assert script.main(["--base", "HEAD~1", "--workload", "layers", "--seeds", "1,2,3"]) == 0
    report = json.loads((tmp_path / "BENCH_bbbbbbb.json").read_text())
    assert [r["name"] for r in report["layers"]] == ["fast", "gone"] and [r["k"] for r in report["layers"]] == [3, 2]
    runs = report["runs"]
    assert len(runs) == len(seen) == 12
    for name in ("fast", "gone"):
        _assert_one_pair_per_seed(runs, name, (1, 2, 3))
    fast = report["summary"]["fast"]
    assert fast["pairs"] == 3 and fast["failed_runs"] == {"base": 0, "head": 0}
    assert all(r["best_s"] == min(r["times_s"]) for r in runs if "best_s" in r)
    best = fast["metrics"]["best_s"]
    assert best["better"] == "lower" and best["base"]["median"] == 0.002 and best["head"]["median"] == 0.001
    assert (best["head_wins"], best["head_losses"], best["ties"]) == (3, 0, 0)
    # the row that raised in the head is recorded as failed in every pair, never dropped
    gone = report["summary"]["gone"]
    assert gone["pairs"] == 0 and gone["failed_runs"] == {"base": 0, "head": 3} and gone["metrics"] == {}
    failed = [r for r in runs if "best_s" not in r]
    assert len(failed) == 3 and all(r["tree"] == "head" and r["stderr_tail"].endswith("no_such_name")
                                    for r in failed)
    assert "gone seed 2 head: failed (exit 1)" in capsys.readouterr().out


def test_bench_pairs_keeps_the_runs_of_earlier_invocations(monkeypatch, tmp_path):
    jobs_per_s = {(tree, seed): v for seed in (1, 2) for tree, v in (("base", 10.0 + seed), ("head", 12.0))}
    script, _, seen = _bench_stand_in(monkeypatch, tmp_path, jobs_per_s, _ROWS)
    out = tmp_path / "BENCH_bbbbbbb.json"
    assert script.main(["--base", "HEAD~1", "--workload", "identities", "--seeds", "1,2"]) == 0
    first = json.loads(out.read_text())
    assert script.main(["--base", "HEAD~1", "--workload", "covers,layers", "--seeds", "1,2"]) == 0
    report = json.loads(out.read_text())
    names = ("identities", "covers", "fast", "gone")
    assert list(report["summary"]) == list(names)
    assert report["summary"]["identities"] == first["summary"]["identities"]
    assert report["runs"][:4] == first["runs"]
    for name in names:
        _assert_one_pair_per_seed(report["runs"], name, (1, 2))
    # a rerun of identities seed 1 replaces that pair and keeps every other run
    assert script.main(["--base", "HEAD~1", "--workload", "identities", "--seeds", "1"]) == 0
    again = json.loads(out.read_text())
    assert len(again["runs"]) == len(report["runs"]) == 16 and len(seen) == 18
    assert again["layers"] == report["layers"]
    _assert_one_pair_per_seed(again["runs"], "identities", (1, 2))
    assert again["summary"]["identities"]["pairs"] == 2
    assert again["summary"] == report["summary"]
    # a rerun of identities seed 2 stopped after its first run replaces that side only
    jobs_per_s["base", 2] = jobs_per_s["head", 2] = 20.0
    finish = script.run

    def stopped(tree, name, seed, seconds):
        if len(seen) == 19:
            raise KeyboardInterrupt
        return finish(tree, name, seed, seconds)

    monkeypatch.setattr(script, "run", stopped)
    with pytest.raises(KeyboardInterrupt):
        script.main(["--base", "HEAD~1", "--workload", "identities", "--seeds", "2"])
    cut = json.loads(out.read_text())
    pair = [r for r in cut["runs"] if (r["name"], r["seed"]) == ("identities", 2)]
    values = sorted(r["result"]["metrics"]["jobs_per_s"]["value"] for r in pair)
    assert len(cut["runs"]) == 16 and sorted(r["tree"] for r in pair) == ["base", "head"]
    assert values[0] != values[1] == 20.0
    assert cut["summary"]["identities"]["pairs"] == 2


def test_every_layer_row_names_a_callable_that_exists():
    # each row's setup runs against this tree and its callable resolves, as the row's process does it
    script = _load("bench_pairs")
    names = [name for name, *_ in script.LAYERS]
    # rows and workloads share one namespace of names in the BENCH file and in --workload
    assert len(set(names)) == len(names) and not set(names) & {*script.WORKLOADS, "layers"}
    for name, target, setup, k in script.LAYERS:
        module, _, attr = target.rpartition(".")
        assert callable(getattr(importlib.import_module(module), attr, None)), name
        scope = {}
        exec(setup, scope)
        assert isinstance(scope["args"], tuple) and k >= 1, name


def test_a_layer_row_runs_in_its_own_process_from_its_tree(monkeypatch, tmp_path):
    # the real runner: a fresh interpreter that imports the tree's own src/
    script = _load("bench_pairs")
    monkeypatch.setattr(script, "LAYERS", [("twice", "layerpkg.twice", "args = (21,)\nbefore = lambda: None", 4),
                                           ("missing", "layerpkg.missing", "args = ()", 1)])
    pkg = tmp_path / "src" / "layerpkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("def twice(x):\n    return 2 * x\n")
    proc = script.run(tmp_path, "twice", 1, 25)
    assert proc.returncode == 0
    gave = script.parse("twice", proc.stdout)
    assert len(gave["times_s"]) == 4 and all(t >= 0 for t in gave["times_s"])
    assert gave["best_s"] == min(gave["times_s"])
    proc = script.run(tmp_path, "missing", 1, 25)
    assert proc.returncode != 0 and "AttributeError" in proc.stderr
