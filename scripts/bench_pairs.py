#!/usr/bin/env python3
"""Run the benchmark and the layer rows on HEAD and on a base revision in pairs, and write BENCH_<sha>.json.

Both revisions are extracted with ``git archive`` into a temporary directory,
so each run sees only committed files, as a fresh checkout would.  A run is
one name, one seed and one tree, in a fresh process:

- a workload runs ``perfbench/run.py --trace 0`` for the ``run_seconds`` that
  BENCHMARK.json sets.  The script reads only what run.py prints: its
  ``environment`` line and its final line of JSON, whose end-to-end metrics it
  compares with "better" taken from BENCHMARK.json;
- a row of ``LAYERS`` (``--workload layers`` selects them all) imports one
  library callable from the tree's ``src/``, builds its arguments once, then
  times k calls.  It gives the best time ``best_s`` (lower is better) and keeps
  the k times beside it.

Each seed gives each name one pair, a run from each tree in an order drawn at
random per pair; the runs go one at a time.

    python scripts/bench_pairs.py --base HEAD~1 --workload dos-fresh,layers --seeds 51,52,53

The file holds the layer table as run, every run (tree, name, seed, position
in its pair, exit status, the load average before and after, and what the run
gave, or the tail of stderr for a run that failed, raised or ran past 900 s),
and, per name and metric over the pairs whose two runs both finished, each
side's median and quartiles and the number of pairs the head won, lost and
tied.  It is rewritten after every run, so a crash keeps what was measured.
A file already written for the same two revisions keeps its runs of every
(name, seed, tree) that this invocation does not rerun, and its summary covers
them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("covers", "dos-fresh", "identities")

_WINDOW = "from quasilab.jacobi1d import ModelParams, build_window\n"
#: The trace-map rows run the s = 1 chain at coupling 1, inside the covers workload's range.
_COVER = ("import numpy as np\nfrom quasilab import tracemap\n"
          "from quasilab.jacobi1d import ModelParams, hopping_from_coupling\n"
          "p = ModelParams(1, hopping_from_coupling(1.0))\n")

#: (name, callable, setup, k): ``setup`` defines ``args``, and ``before``, which
#: runs untimed before each call when the row sets it.  s = 1, a = 1.6 and
#: tol = 1e-11 are the sizes of the eigensolver's measurements in ROADMAP.md.
LAYERS = [
    ("eigenvalues_offdiag N=136", "quasilab.jacobi1d.eigenvalues_offdiag",
     _WINDOW + "args = (build_window(ModelParams(1, 1.6), 136)[:-1], 1e-11)", 9),
    ("eigenvalues_offdiag N=1024", "quasilab.jacobi1d.eigenvalues_offdiag",
     _WINDOW + "args = (build_window(ModelParams(1, 1.6), 1024)[:-1], 1e-11)", 7),
    ("eigenvalues_offdiag N=2048", "quasilab.jacobi1d.eigenvalues_offdiag",
     _WINDOW + "args = (build_window(ModelParams(1, 1.6), 2048)[:-1], 1e-11)", 5),
    ("eigenvalues_offdiag lock-step pair N=640", "quasilab.jacobi1d.eigenvalues_offdiag",
     _WINDOW + "import numpy as np\n"
     "args = (np.stack([build_window(ModelParams(1, a), 640)[:-1] for a in (1.3, 2.2)]), 1e-11)", 7),
    ("axis_eigenvalues(1, 1, 2583) cold", "quasilab.labyrinth.axis_eigenvalues",
     "from quasilab import labyrinth\nargs = (1, 1.0, 2583)\nbefore = labyrinth.axis_eigenvalues.cache_clear", 5),
    ("axis_eigenvalues(1, 1, 17710) cold", "quasilab.labyrinth.axis_eigenvalues",
     "from quasilab import labyrinth\nargs = (1, 1.0, 17710)\nbefore = labyrinth.axis_eigenvalues.cache_clear", 3),
    ("escape_steps s=1 level 15 x 4097 lanes", "quasilab.tracemap.escape_steps",
     _COVER + "v = tracemap.line_point(p, np.linspace(-2 * (1 + p.a), 2 * (1 + p.a), 4097))\n"
     "args = (1, v.x, v.y, v.z, 15, tracemap.default_escape_radius(1.0))", 9),
    ("_level_bands s=1 level 15 on the 4097-point grid", "quasilab.tracemap._level_bands",
     _COVER + "args = (p, np.linspace(-2 * (1 + p.a), 2 * (1 + p.a), 4097), np.array([4097]), 15,\n"
     "        tracemap.default_escape_radius(1.0), 1e-4)", 9),
    ("cover_sequence s=1 levels 1..15", "quasilab.tracemap.cover_sequence",
     _COVER + "args = (p, range(1, 16), 1e-4)", 5),
    # a control: the certificate and the bisection count through it, but the count itself is unchanged
    ("count_below_offdiag N=2048 x 401 energies", "quasilab.jacobi1d.count_below_offdiag",
     _WINDOW + "import numpy as np\n"
     "args = (build_window(ModelParams(1, 1.6), 2048)[1:], np.linspace(-4.0, 4.0, 401))", 7),
]

#: The program each row runs in its fresh process: TARGET, SETUP and K come first.
RUNNER = """
import importlib, json, time
module, _, attr = TARGET.rpartition(".")
fn = getattr(importlib.import_module(module), attr)
before = lambda: None
exec(SETUP)
times = []
for _ in range(K):
    before()
    t0 = time.perf_counter()
    fn(*args)
    times.append(time.perf_counter() - t0)
print(json.dumps(times))
"""


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout


def extract(rev: str, dest: Path) -> str:
    """The committed tree of ``rev`` under ``dest``; returns the full commit sha."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def run(tree: Path, name: str, seed: int, seconds: float) -> subprocess.CompletedProcess:
    """One run of a workload or a layer row from ``tree``; a run past 900 s is stopped and reads as failed."""
    row = next((r for r in LAYERS if r[0] == name), None)
    if row is None:
        cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        env = None
    else:
        _, target, setup, k = row
        cmd = [sys.executable, "-c", f"TARGET = {target!r}\nSETUP = {setup!r}\nK = {k}\n" + RUNNER]
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=900)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(cmd, -9, "", "timed out after 900 s")


def parse(name: str, stdout: str) -> dict | None:
    """What a finished run gave: a workload's environment and final JSON, or a row's times and best time.

    None when the output holds no such lines.
    """
    lines = stdout.strip().splitlines()
    try:
        if name in WORKLOADS:
            env = next(json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("environment "))
            return {"environment": env, "result": json.loads(lines[-1])}
        times = json.loads(lines[-1])
        return {"times_s": times, "best_s": min(times)}
    except (StopIteration, IndexError, ValueError):
        return None


def metrics_of(run: dict) -> dict[str, float]:
    """A finished run's metrics: a workload's end-to-end values, or a row's best time."""
    if "best_s" in run:
        return {"best_s": run["best_s"]}
    return {metric: v["value"] for metric, v in run["result"]["metrics"].items()}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    """Per name and metric: each side's median and quartiles, and the head's wins, losses and ties.

    Only pairs whose two runs both finished count; ``failed_runs`` counts the
    runs that did not, and ``failed`` the failed jobs of the runs that did.
    """
    out = {}
    for name in dict.fromkeys(r["name"] for r in runs):
        pairs: dict[int, dict] = {}
        failed_runs = {"base": 0, "head": 0}
        for r in runs:
            if r["name"] != name:
                continue
            if "stderr_tail" in r:
                failed_runs[r["tree"]] += 1
            else:
                pairs.setdefault(r["seed"], {})[r["tree"]] = r
        pairs = {seed: p for seed, p in pairs.items() if set(p) == {"base", "head"}}
        measured = [(metrics_of(p["base"]), metrics_of(p["head"])) for p in pairs.values()]
        metrics = {}
        for metric, direction in better.items():
            if not measured or metric not in measured[0][0]:
                continue
            base = [b[metric] for b, _ in measured]
            head = [h[metric] for _, h in measured]
            sign = 1 if direction == "higher" else -1
            diffs = [sign * (h - b) for b, h in zip(base, head)]
            metrics[metric] = {
                "better": direction,
                "base": quartiles(base),
                "head": quartiles(head),
                "head_wins": sum(d > 0 for d in diffs),
                "head_losses": sum(d < 0 for d in diffs),
                "ties": sum(d == 0 for d in diffs),
            }
        out[name] = {
            "pairs": len(pairs),
            "seeds": sorted(pairs),
            "failed": {side: sum(p[side].get("result", {}).get("failed", 0) for p in pairs.values())
                       for side in ("base", "head")},
            "failed_runs": failed_runs,
            "metrics": metrics,
        }
    return out


def write_report(out: Path, base: str, head: str, runs: list[dict], better: dict[str, str], **parts) -> None:
    """Write ``parts`` and ``runs`` into the BENCH file ``out``, with the summary of every run it keeps.

    A file for the same two revisions keeps its other parts and its runs of
    every (name, seed, tree) that ``runs`` does not hold; ``runs`` replaces the
    rest, so a rerun stopped after one side still leaves a pair.
    """
    report = json.loads(out.read_text()) if out.exists() else {}
    if (report.get("base"), report.get("head")) != (base, head):
        report = {}
    rerun = {(r["name"], r["seed"], r["tree"]) for r in runs}
    kept = [r for r in report.get("runs", []) if (r["name"], r["seed"], r["tree"]) not in rerun] + runs
    report.update(base=base, head=head, **parts, runs=kept, summary=summarise(kept, better))
    out.write_text(json.dumps(report, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="the revision HEAD is compared against, e.g. HEAD~1")
    ap.add_argument("--workload", default=",".join(WORKLOADS + ("layers",)),
                    help="comma-separated workloads, and layers for every layer row (default all four)")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10", help="comma-separated seeds, one pair each")
    args = ap.parse_args(argv)
    selected = args.workload.split(",")
    if not set(selected) <= {*WORKLOADS, "layers"}:
        ap.error(f"unknown workload in {args.workload!r}")
    names = [n for w in selected for n in ([row[0] for row in LAYERS] if w == "layers" else [w])]
    seeds = [int(s) for s in args.seeds.split(",")]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]} | {"best_s": "lower"}
    seconds = benchmark["run_seconds"]
    parts = {"seconds": seconds,
             "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0"}
    if "layers" in selected:
        parts["layers"] = [{"name": name, "callable": target, "setup": setup, "k": k}
                           for name, target, setup, k in LAYERS]
    rng = random.Random(0)  # the order within each pair
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        shas = {side: extract(rev, Path(tmp) / side) for side, rev in (("base", args.base), ("head", "HEAD"))}
        out = ROOT / f"BENCH_{shas['head'][:7]}.json"
        for name in names:
            for seed in seeds:
                for position, side in enumerate(rng.sample(["base", "head"], 2)):
                    load_before = os.getloadavg()
                    proc = run(Path(tmp) / side, name, seed, seconds)
                    record = {"tree": side, "name": name, "seed": seed, "position": position,
                              "returncode": proc.returncode}
                    gave = parse(name, proc.stdout) if proc.returncode == 0 else None
                    if gave:
                        record.update(gave)
                        metric, value = next(iter(metrics_of(record).items()))
                        status = f"{metric} {value:.6g}"
                    else:
                        record["stderr_tail"] = proc.stderr.strip()[-400:]
                        status = f"failed (exit {proc.returncode})"
                    record["loadavg_before"], record["loadavg_after"] = list(load_before), list(os.getloadavg())
                    runs.append(record)
                    print(f"{name} seed {seed} {side}: {status}", flush=True)
                    write_report(out, shas["base"], shas["head"], runs, better, **parts)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
