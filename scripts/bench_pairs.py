#!/usr/bin/env python3
"""Run the benchmark on HEAD and on a base revision in pairs, and write BENCH_<sha>.json.

Both revisions are extracted with ``git archive`` into a temporary directory,
so each run sees only committed files, as a fresh checkout would.  Each pair
runs ``perfbench/run.py --trace 0`` once from each tree on the same seed, in
an order drawn at random per pair, for the ``run_seconds`` that BENCHMARK.json
sets.  The script reads only what run.py prints: its ``environment`` line and
its final line of JSON.

    python scripts/bench_pairs.py --base HEAD~1 --workload dos-fresh --seeds 51,52,53

The file holds every run (tree, workload, seed, position in its pair, exit
status, the environment line and the final JSON, or the tail of stderr for a
run that failed, and the load average before and after) and, per workload and
end-to-end metric over the pairs whose two runs both finished, each side's
median and quartiles and the number of pairs the head won, lost and tied, with
"better" taken from BENCHMARK.json.  It is rewritten after every run, so a
crash keeps what was measured, and it keeps the ``layers`` that
``bench_layers.py`` wrote for the same two revisions.
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


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout


def extract(rev: str, dest: Path) -> str:
    """The committed tree of ``rev`` under ``dest``; returns the full commit sha."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> subprocess.CompletedProcess:
    """One untraced benchmark run from ``tree``; a run past 900 s is stopped and reads as failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        return subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(cmd, -9, "", "timed out after 900 s")


def parse_run(stdout: str) -> tuple[dict, dict] | None:
    """(environment, final JSON) from run.py's output, or None when it holds no such lines."""
    lines = stdout.strip().splitlines()
    try:
        env = next(json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("environment "))
        return env, json.loads(lines[-1])
    except (StopIteration, IndexError, ValueError):
        return None


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's median and quartiles, and the head's wins, losses and ties.

    Only pairs whose two runs both finished count; ``failed_runs`` counts the runs that did not.
    """
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        failed_runs = {"base": 0, "head": 0}
        for r in runs:
            if r["workload"] != workload:
                continue
            if "result" in r:
                pairs.setdefault(r["seed"], {})[r["tree"]] = r["result"]
            else:
                failed_runs[r["tree"]] += 1
        pairs = {seed: p for seed, p in pairs.items() if set(p) == {"base", "head"}}
        metrics = {}
        for name, direction in better.items():
            base = [p["base"]["metrics"][name]["value"] for p in pairs.values()]
            head = [p["head"]["metrics"][name]["value"] for p in pairs.values()]
            if not base:
                continue
            sign = 1 if direction == "higher" else -1
            diffs = [sign * (h - b) for b, h in zip(base, head)]
            metrics[name] = {
                "better": direction,
                "base": quartiles(base),
                "head": quartiles(head),
                "head_wins": sum(d > 0 for d in diffs),
                "head_losses": sum(d < 0 for d in diffs),
                "ties": sum(d == 0 for d in diffs),
            }
        out[workload] = {
            "pairs": len(pairs),
            "seeds": sorted(pairs),
            "failed": {side: sum(p[side]["failed"] for p in pairs.values()) for side in ("base", "head")},
            "failed_runs": failed_runs,
            "metrics": metrics,
        }
    return out


def write_report(out: Path, base: str, head: str, **parts) -> None:
    """Write ``parts`` into the BENCH file ``out``, keeping what it holds for the same two revisions."""
    report = json.loads(out.read_text()) if out.exists() else {}
    if (report.get("base"), report.get("head")) != (base, head):
        report = {}
    report.update(base=base, head=head, **parts)
    out.write_text(json.dumps(report, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="the revision HEAD is compared against, e.g. HEAD~1")
    ap.add_argument("--workload", default=",".join(WORKLOADS), help="comma-separated workloads (default all)")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10", help="comma-separated seeds, one pair each")
    args = ap.parse_args(argv)
    workloads = args.workload.split(",")
    if not set(workloads) <= set(WORKLOADS):
        ap.error(f"unknown workload in {args.workload!r}")
    seeds = [int(s) for s in args.seeds.split(",")]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    rng = random.Random(0)  # the order within each pair
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        shas = {side: extract(rev, Path(tmp) / side) for side, rev in (("base", args.base), ("head", "HEAD"))}
        out = ROOT / f"BENCH_{shas['head'][:7]}.json"
        for workload in workloads:
            for seed in seeds:
                order = rng.sample(["base", "head"], 2)
                for position, side in enumerate(order):
                    load_before = os.getloadavg()
                    proc = run_perfbench(Path(tmp) / side, workload, seed, seconds)
                    run = {"tree": side, "workload": workload, "seed": seed, "position": position,
                           "returncode": proc.returncode}
                    parsed = parse_run(proc.stdout) if proc.returncode == 0 else None
                    if parsed:
                        run["environment"], run["result"] = parsed
                        status = f"jobs_per_s {run['result']['metrics'].get('jobs_per_s', {}).get('value')}"
                    else:
                        run["stderr_tail"] = proc.stderr.strip()[-400:]
                        status = f"failed (exit {proc.returncode})"
                    run["loadavg_before"], run["loadavg_after"] = list(load_before), list(os.getloadavg())
                    runs.append(run)
                    print(f"{workload} seed {seed} {side}: {status}", flush=True)
                    write_report(out, shas["base"], shas["head"], seconds=seconds,
                                 command=f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
                                 summary=summarise(runs, better), runs=runs)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
