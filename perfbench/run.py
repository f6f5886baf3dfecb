"""quasilab benchmark: three seeded closed-loop job streams, one client each.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload covers --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each workload runs in its own process.  The untraced run (--trace 0) times a
fixed number of whole rounds of the stream, about --seconds of job time,
checks every output afterwards, and prints the end-to-end metrics.  The traced
run (--trace 1) runs a shorter prefix of the same stream twice, untraced in
this process and traced in a fresh one, and prints the per-layer metrics, the
tracing overhead, and whether every job's artifact digest agrees between the
two passes.  The last line of the output is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md for the metrics and the
workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-process set-ups timed per run; setup_s is their median.
SETUP_PROBES = 5

#: Seconds one round took at the commit that introduced the benchmark (2-vCPU
#: Xeon VM).  A run times round(seconds / this) rounds and the traced run
#: replays ceil(seconds / 2 / this): counts fixed by the benchmark, so both
#: commits of a comparison run the same jobs, whatever the machine's speed at
#: the time (it drifts by +-20 % over minutes), and the work counters compare.
NOMINAL_ROUND_S = {"covers": 0.6, "dos-fresh": 2.1, "identities": 2.9}

#: A run starts no new job once it has run this long; with the job deadline this
#: keeps every run under three minutes on a program up to ~3x slower.
STREAM_LIMIT_S = {0: 85.0, 1: 40.0}  # untraced stream, each pass of the traced run

#: Limit on a child process (a set-up probe or the traced pass).
CHILD_TIMEOUT_S = 90.0


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_quasilab():
    """Import the library from the checkout's src/ (nothing is installed)."""
    if os.environ.get("QUASILAB_CACHE_DIR"):
        die("QUASILAB_CACHE_DIR is set; unset it so the disk cache stays out of the measurement")
    if not (SRC / "quasilab" / "__init__.py").is_file():
        die(f"no quasilab sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import importlib

    names = ("cli", "tracemap", "bands", "jacobi1d", "labyrinth", "measures", "words", "svg")
    return types.SimpleNamespace(**{n: importlib.import_module(f"quasilab.{n}") for n in names})


def setup(workload: str, seed: int, tag: str):
    """Import, generate the stream, run the warm-up jobs; returns what a run needs."""
    import streams

    ql = load_quasilab()
    stream = streams.Stream(workload, seed)
    # artifacts embed their own path, so both passes of a traced run use the same one
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{tag}"
    workdir.mkdir(parents=True, exist_ok=True)
    for job in stream.warmup_jobs():
        out = streams.run_job(job, workdir, ql)
        if out.error:
            print(f"perfbench: warm-up job {job.label()} failed: {out.error}", file=sys.stderr)
    return ql, stream, workdir


def run_stream(stream, ql, workdir, rounds: int, limit_s: float):
    """Run ``rounds`` whole rounds, starting no job after ``limit_s`` seconds."""
    import streams

    outcomes = []
    t_start = time.perf_counter()
    for _ in range(rounds):
        for job in stream.next_round():
            if time.perf_counter() - t_start > limit_s:
                return outcomes
            outcomes.append(streams.run_job(job, workdir, ql))
    return outcomes


def reap_children() -> None:
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with >= 10 jobs beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(outcomes, reasons, setup_times, peak_rss_mb) -> tuple[dict, float]:
    lat = [o.latency for o in outcomes]
    ok = sum(1 for r in reasons if r is None)
    tail_s, tail_pct = tail(lat)
    return {
        "jobs_per_s": (ok / sum(lat), "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, tail_pct


def environment(workload: str, seed: int) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for f in sorted((SRC / "quasilab").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__, "commit": commit,
            "src_sha256": h.hexdigest()[:16]}


def check_all(outcomes, ql) -> list:
    import checks

    return [checks.check(o, ql) for o in outcomes]


def report_failures(outcomes, reasons) -> None:
    bad = [(o, r) for o, r in zip(outcomes, reasons) if r is not None]
    for o, r in bad[:10]:
        print(f"  FAILED {o.job.label()} {json.dumps(o.job.params)[:160]}: {r}")
    if len(bad) > 10:
        print(f"  ... {len(bad) - 10} more failed jobs")


def result_line(attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


# ---------------------------------------------------------------------------
# roles


def timed_setup_probes(args) -> list[float]:
    """Spawn-to-ready time of fresh processes; their teardown is not timed."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed",
                               str(args.seed), "--role", "setup-probe"], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or ready.strip() != "ready":
                die("a set-up probe failed")
    return times


def untraced_run(args) -> int:
    setup_times = timed_setup_probes(args)
    ql, stream, workdir = setup(args.workload, args.seed, "run")
    try:
        rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
        outcomes = run_stream(stream, ql, workdir, rounds, STREAM_LIMIT_S[0])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reap_children()
        t_check = time.perf_counter()
        reasons = check_all(outcomes, ql)
        t_check = time.perf_counter() - t_check
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(r is not None for r in reasons)
    metrics, tail_pct = end_to_end(outcomes, reasons, setup_times, peak_rss_mb)
    print("environment " + json.dumps(environment(args.workload, args.seed)))
    print(f"perfbench {args.workload}: {len(outcomes)} jobs in {stream.rounds_made} rounds, "
          f"{sum(o.latency for o in outcomes):.2f} s of job time")
    for name, (value, unit) in metrics.items():
        note = f"  (p{tail_pct:.1f} of {len(outcomes)} jobs)" if name == "job_tail_s" else ""
        print(f"  {name:<12} {value:.6g} {unit}{note}")
    print(f"  {'fail_frac':<12} {failed / len(outcomes):.4f}  ({failed} of {len(outcomes)} jobs failed)")
    print(f"  setup probes {', '.join(f'{t:.3f}' for t in setup_times)} s; checks took {t_check:.1f} s")
    report_failures(outcomes, reasons)
    print(result_line(len(outcomes), failed, metrics))
    return 0


def trace_rounds(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / (2 * NOMINAL_ROUND_S[workload])))


def traced_run(args) -> int:
    import tracing

    rounds = trace_rounds(args.workload, args.seconds)
    ql, stream, workdir = setup(args.workload, args.seed, "run")
    try:
        outcomes = run_stream(stream, ql, workdir, rounds, STREAM_LIMIT_S[1])
        reap_children()
        reasons = check_all(outcomes, ql)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed",
                           str(args.seed), "--role", "traced-replay", "--rounds", str(rounds)],
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        die(f"traced replay failed: {proc.stderr.strip()[-400:]}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    mismatched = [o.job.label() for o, d in zip(outcomes, child["digests"]) if o.digest != d]
    if len(child["digests"]) != len(outcomes):
        mismatched.append(f"job count {len(child['digests'])} != {len(outcomes)}")
    untraced_s = sum(o.latency for o in outcomes)
    traced_s = sum(child["latencies"])
    # per-job ratios, so that machine noise in a few jobs does not set the figure
    overhead = statistics.median(t / o.latency for o, t in zip(outcomes, child["latencies"])) - 1.0
    metrics = {k: (v, tracing.unit_of(k)) for k, v in child["metrics"].items()}
    metrics["cli.bytes_out"] = (child["bytes_out"], "bytes")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    failed = sum(r is not None for r in reasons) + len(mismatched)
    unfired = sorted(set(tracing.SPAN_NAMES) - set(child["fired"]))
    print("environment " + json.dumps(environment(args.workload, args.seed)))
    print(f"perfbench {args.workload} traced: {len(outcomes)} jobs in {rounds} rounds; "
          f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, "
          f"median per-job overhead {100 * overhead:+.1f}%")
    print(f"  artifact digests: {len(outcomes) - len(mismatched)} of {len(outcomes)} identical"
          + (f"; differ: {', '.join(mismatched[:10])}" if mismatched else ""))
    print(f"  fail_frac {failed / len(outcomes):.4f}  ({failed} of {len(outcomes)} jobs failed)")
    print("trace_coverage " + json.dumps({"fired": child["fired"], "missing": child["missing"],
                                         "unfired": unfired}))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:.6g} {unit}")
    report_failures(outcomes, reasons)
    print(result_line(len(outcomes), failed, metrics))
    return 0


def replay_role(args) -> int:
    """Child of a traced run: fresh process, same set-up, the prefix traced."""
    import tracing

    ql, stream, workdir = setup(args.workload, args.seed, "run")
    tracer = tracing.Tracer()
    try:
        missing = tracer.install()
        outcomes = run_stream(stream, ql, workdir, args.rounds, STREAM_LIMIT_S[1])
        tracer.uninstall()
        reap_children()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"latencies": [o.latency for o in outcomes], "digests": [o.digest for o in outcomes],
                      "metrics": tracing.layer_metrics(tracer), "fired": sorted(tracer.calls),
                      "missing": missing, "bytes_out": sum(o.bytes_out for o in outcomes)}))
    return 0


def setup_probe_role(args) -> int:
    _, _, workdir = setup(args.workload, args.seed, "probe")
    print("ready", flush=True)
    reap_children()
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


def all_workloads(args) -> int:
    """Run every workload in its own process and print one table."""
    import streams
    import tracing

    results, fired, failed, attempted = {}, set(), 0, 0
    for w in streams.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", w, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
        if proc.returncode != 0:
            die(f"workload {w} failed: {proc.stderr.strip()[-400:]}")
        lines = proc.stdout.strip().splitlines()
        results[w] = json.loads(lines[-1])
        failed += results[w]["failed"]
        attempted += results[w]["attempted"]
        for ln in lines:
            if ln.startswith("trace_coverage "):
                fired |= set(json.loads(ln.split(" ", 1)[1])["fired"])
    names = list(next(iter(results.values()))["metrics"])
    width = max(len(n) for n in names)
    print(f"\n{'metric':<{width}}  " + "  ".join(f"{w:>14}" for w in results) + "  unit")
    for n in names:
        unit = results[streams.WORKLOADS[0]]["metrics"][n]["unit"]
        print(f"{n:<{width}}  " + "  ".join(f"{r['metrics'][n]['value']:>14.6g}" for r in results.values())
              + f"  {unit}")
    print(f"{'fail_frac':<{width}}  " + "  ".join(f"{r['failed'] / r['attempted']:>14.4f}"
                                                  for r in results.values()) + "  ratio")
    if args.trace:
        unfired = sorted(set(tracing.SPAN_NAMES) - fired)
        print(f"wrappers fired across workloads: {len(fired)} of {len(tracing.SPAN_NAMES)}"
              + (f"; never fired: {', '.join(unfired)}" if unfired else ""))
        failed += len(unfired)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("covers", "dos-fresh", "identities", "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("run", "setup-probe", "traced-replay"), default="run",
                    help=argparse.SUPPRESS)
    ap.add_argument("--rounds", type=int, default=1, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        die("--seconds must be positive")
    # fail before any work when the library is absent or the disk cache is on
    load_quasilab()
    if args.workload == "all":
        return all_workloads(args)
    if args.role == "setup-probe":
        return setup_probe_role(args)
    if args.role == "traced-replay":
        return replay_role(args)
    return traced_run(args) if args.trace else untraced_run(args)


if __name__ == "__main__":
    # The reference eigvalsh calls of the checks must not oversubscribe the cores
    # when the machine is loaded; quasilab itself makes no threaded BLAS calls.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    raise SystemExit(main())
