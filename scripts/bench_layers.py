#!/usr/bin/env python3
"""Time single layers of the library on HEAD and on a base revision, and add them to BENCH_<sha>.json.

Each row of ``LAYERS`` names one library callable, the code that builds its
arguments, and k.  A row runs in a fresh ``python`` process from each tree
(extracted with ``bench_pairs.extract``, so only committed files count): the
process imports the callable, builds the arguments once, then times k calls
and prints the best.  Each of the ``PAIRS`` pairs runs one row once from each
tree, in an order drawn at random per pair; the rows run one at a time.

    python scripts/bench_layers.py --base HEAD~1

The rows go into BENCH_<head sha>.json under ``layers``, beside what
``bench_pairs.py`` wrote for the same two revisions: the table as run, every
run (tree, row, pair, position, exit status, the k times or the tail of
stderr for a row that raised), and per row, over the pairs whose two runs both
finished, each side's median and quartiles of the best time, the head's wins,
losses and ties (lower is better) and the ratio of the medians.  A row that
raises in one tree, over a deleted name for instance, is kept as a failed run.
The file is rewritten after every run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_pairs  # noqa: E402

ROOT = bench_pairs.ROOT

#: Pairs of runs per row: ten, the fewest that can support a claimed gain.
PAIRS = 10

_WINDOW = "from quasilab.jacobi1d import ModelParams, build_window\n"

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


def run_row(tree: Path, target: str, setup: str, k: int) -> subprocess.CompletedProcess:
    """One row from ``tree`` in a fresh process; a row past 600 s is stopped and reads as failed."""
    program = f"TARGET = {target!r}\nSETUP = {setup!r}\nK = {k}\n" + RUNNER
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-c", program]
    try:
        return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(cmd, -9, "", "timed out after 600 s")


def summarise(runs: list[dict]) -> dict:
    """Per row: each side's quartiles of the best time, the head's wins, losses and ties, and failed runs."""
    out = {}
    for name in dict.fromkeys(r["row"] for r in runs):
        pairs: dict[int, dict] = {}
        failed_runs = {"base": 0, "head": 0}
        for r in runs:
            if r["row"] != name:
                continue
            if "best_s" in r:
                pairs.setdefault(r["pair"], {})[r["tree"]] = r["best_s"]
            else:
                failed_runs[r["tree"]] += 1
        pairs = {i: p for i, p in pairs.items() if set(p) == {"base", "head"}}
        row = {"pairs": len(pairs), "failed_runs": failed_runs}
        if pairs:
            base = [p["base"] for p in pairs.values()]
            head = [p["head"] for p in pairs.values()]
            row.update(base=bench_pairs.quartiles(base), head=bench_pairs.quartiles(head),
                       head_wins=sum(h < b for b, h in zip(base, head)),
                       head_losses=sum(h > b for b, h in zip(base, head)),
                       ties=sum(h == b for b, h in zip(base, head)))
            row["speedup_of_medians"] = row["base"]["median"] / row["head"]["median"]
        out[name] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="the revision HEAD is compared against, e.g. HEAD~1")
    args = ap.parse_args(argv)
    rng = random.Random(0)  # the order within each pair
    table = [{"row": name, "callable": target, "setup": setup, "k": k} for name, target, setup, k in LAYERS]
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_layers_") as tmp:
        shas = {side: bench_pairs.extract(rev, Path(tmp) / side) for side, rev in (("base", args.base), ("head", "HEAD"))}
        out = ROOT / f"BENCH_{shas['head'][:7]}.json"
        for pair in range(PAIRS):
            for name, target, setup, k in LAYERS:
                for position, side in enumerate(rng.sample(["base", "head"], 2)):
                    proc = run_row(Path(tmp) / side, target, setup, k)
                    run = {"tree": side, "row": name, "pair": pair, "position": position,
                           "returncode": proc.returncode}
                    try:
                        times = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
                    except (IndexError, ValueError):
                        times = None
                    if times:
                        run["times_s"], run["best_s"] = times, min(times)
                        status = f"best {min(times) * 1e3:.2f} ms"
                    else:
                        run["stderr_tail"] = proc.stderr.strip()[-400:]
                        status = f"failed (exit {proc.returncode})"
                    runs.append(run)
                    print(f"pair {pair} {name} {side}: {status}", flush=True)
                    layers = {"table": table, "summary": summarise(runs), "runs": runs}
                    bench_pairs.write_report(out, shas["base"], shas["head"], layers=layers)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
