"""Seeded job streams for the three workloads, and the code that runs one job.

A stream is an endless sequence of rounds; every round holds the same mix of
job kinds, and each job's parameters come from low-discrepancy (Kronecker)
sequences (see Sampler), so that any prefix of whole rounds covers the
parameter ranges evenly and two seeds give different jobs with the same cost
profile.
The program sees only the generated parameters: CLI jobs get an argv, library
jobs get plain numbers.

Why these workloads (the predictions for each layer are in README.md):

* ``covers``   - trace-map band covers through the CLI; time goes to
  ``tracemap`` and ``bands``, no eigensolver.
* ``dos-fresh`` - ``dos1d``/``dos2d`` through the CLI on models never seen
  before in the run; time goes to the Sturm-count bisection, and no 1D
  eigenvalue list repeats.
* ``identities`` - library queries of the verification suite at reduced size
  against a small pool of models, so most 1D solves repeat.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import signal
import time
import zlib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from reference import axis_eigs

WORKLOADS = ("covers", "dos-fresh", "identities")

LAMBDA_RANGE = (0.05, 4.0)
LAMBDA_SEED_SPAN = 0.01   # share of the log-coupling range a seed may shift couplings by
LEVEL_RANGE = (10, 15)
DOS1D_N = ((2048, 4096), (4096, 6144), (6144, 8192))   # one job per stratum per round
DOS2D_N = ((256, 640), (640, 1024))
POOL_N = (160, 352, 288, 224)   # base box side of each identities pool model
POOL_N_STEP = 24                  # sides used: base - 24, base, base + 24
TENSOR_SIDE = (8, 16)
SUBLATTICE_SIDE = (8, 14)
QUANTILES = np.linspace(0.02, 0.98, 21)   # criterion 8's interval grid
#: Criterion 8's bin count.  With bins = N at these reduced sizes the histogram
#: error alone exceeds criterion 8's tolerance on edge intervals (up to 1.6x).
LOGCONV_BINS = 1024

#: Wall-clock limit of one job; a job past it fails and the stream goes on.
JOB_DEADLINE_S = 20.0

#: Warm-up couplings: outside LAMBDA_RANGE, so no warm-up model recurs in a stream.
WARM_LAMBDAS = (0.031, 0.041)


def hopping(lam: float) -> float:
    return (lam + math.sqrt(lam * lam + 4.0)) / 2.0


class Sampler:
    """Per-dimension Kronecker sequences frac(offset + k * frac(sqrt(prime))).

    Sizes (levels, N, phase counts, box sides) take offset 0, so every seed runs
    the same sizes in the same order.  Couplings take a seeded offset below
    LAMBDA_SEED_SPAN, which moves every coupling by up to 4.5 %: each seed runs
    other models, but the cost of a job, which varies by 30x across the
    coupling range, stays the same, so seeds differ in the models and not in
    the amount of work.  Query points and phases take a seeded offset in [0, 1).
    """

    _PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)

    def __init__(self, seed: int):
        self.seed = seed
        self._dims: dict[str, list] = {}

    def u(self, dim: str, span: float = 1.0) -> float:
        """Next point of dimension ``dim``; its seeded offset is uniform in [0, span)."""
        if dim not in self._dims:
            step = math.sqrt(self._PRIMES[len(self._dims) % len(self._PRIMES)]) % 1.0
            offset = span * np.random.default_rng([self.seed, zlib.crc32(dim.encode())]).random()
            self._dims[dim] = [offset, step, 0]
        d = self._dims[dim]
        d[2] += 1
        return (d[0] + d[2] * d[1]) % 1.0

    def log_lambda(self, dim: str) -> float:
        lo, hi = LAMBDA_RANGE
        return lo * (hi / lo) ** self.u(dim, LAMBDA_SEED_SPAN)

    def size(self, dim: str, lo: int, hi: int) -> int:
        """Unseeded, uniform over lo..hi inclusive."""
        return lo + min(int(self.u(dim, span=0.0) * (hi - lo + 1)), hi - lo)


@dataclasses.dataclass
class Job:
    jid: int
    kind: str
    params: dict
    argv: list | None = None          # CLI jobs; output flags are appended at run time
    outputs: tuple = ()               # (flag, file suffix) pairs

    def label(self) -> str:
        return f"{self.jid}:{self.kind}"


# ---------------------------------------------------------------------------
# generators


class Stream:
    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.sampler = Sampler(seed)
        self.rounds_made = 0
        self.jobs_made = 0
        self._seen: set = set()
        self._fmt_turn: dict[str, int] = {}
        self._quantiles: dict = {}
        self.pool = _identity_pool(self.sampler) if workload == "identities" else None

    def next_round(self) -> list[Job]:
        r = self.rounds_made
        self.rounds_made += 1
        make = {"covers": self._covers_round, "dos-fresh": self._dos_round,
                "identities": self._identities_round}[self.workload]
        return make(r)

    # -- shared helpers ------------------------------------------------------

    def _job(self, kind: str, params: dict, argv=None, outputs=()) -> Job:
        # covers and dos-fresh promise that no parameter tuple (hence no model) recurs
        if self.workload != "identities":
            key = (kind, tuple(sorted(params.items())))
            if key in self._seen:
                raise RuntimeError(f"parameter tuple repeated: {key}")
            self._seen.add(key)
        job = Job(self.jobs_made, kind, params, argv, tuple(outputs))
        self.jobs_made += 1
        return job

    def _fmt(self, kind: str, formats: tuple) -> str:
        turn = self._fmt_turn.get(kind, self.seed)
        self._fmt_turn[kind] = turn + 1
        return formats[turn % len(formats)]

    # -- covers --------------------------------------------------------------

    def _covers_round(self, r: int) -> list[Job]:
        sm = self.sampler
        jobs = []
        for s in (1, 2):
            lam, level, fmt = sm.log_lambda("flat.lam"), sm.size("flat.level", *LEVEL_RANGE), \
                self._fmt("spectrum1d", ("csv", "json", "svg"))
            jobs.append(self._job("spectrum1d", {"s": s, "lam": lam, "level": level, "fmt": fmt},
                                  ["spectrum1d", "--s", str(s), "--lambda", repr(lam),
                                   "--level", str(level), "--format", fmt], [("-o", fmt)]))
        for s in (1, 2):
            lam, level = sm.log_lambda("nested.lam"), sm.size("nested.level", *LEVEL_RANGE)
            fmt = self._fmt("nested", ("csv", "json", "svg"))
            levels = _ladder(s, level)
            jobs.append(self._job("spectrum1d", {"s": s, "lam": lam, "level": level, "fmt": fmt,
                                                    "levels": levels},
                                  ["spectrum1d", "--s", str(s), "--lambda", repr(lam),
                                   "--level", str(level), "--levels", levels, "--format", fmt],
                                  [("-o", fmt)]))
        for s in (1, 2):
            lam, level = sm.log_lambda("thick.lam"), sm.size("thick.level", *LEVEL_RANGE)
            fmt = self._fmt("thickness", ("csv", "json"))
            gaps = sm.u("thick.gaps") < 0.5
            outputs = [("-o", fmt)] + ([("--gaps-output", "gaps.csv")] if gaps else [])
            levels = _ladder(s, level)
            jobs.append(self._job("thickness", {"s": s, "lam": lam, "level": level, "fmt": fmt,
                                                   "levels": levels, "gaps": gaps},
                                  ["thickness", "--s", str(s), "--lambda", repr(lam),
                                   "--level", str(level), "--levels", levels, "--format", fmt],
                                  outputs))
        for s in (1, 2):
            lam1, lam2 = sm.log_lambda("2d.lam1"), sm.log_lambda("2d.lam2")
            level, fmt = sm.size("2d.level", *LEVEL_RANGE), self._fmt("spectrum2d", ("csv", "json", "svg"))
            jobs.append(self._job("spectrum2d", {"s": s, "lam1": lam1, "lam2": lam2, "level": level,
                                                    "fmt": fmt},
                                  ["spectrum2d", "--s", str(s), "--lambda1", repr(lam1),
                                   "--lambda2", repr(lam2), "--level", str(level), "--format", fmt],
                                  [("-o", fmt)]))
        s = 1 + r % 2
        lo, hi = sorted((sm.log_lambda("sweep.lam_a"), sm.log_lambda("sweep.lam_b")))
        steps, level = sm.size("sweep.steps", 2, 4), sm.size("sweep.level", *LEVEL_RANGE)
        fmt = self._fmt("sweep", ("csv", "json", "svg"))
        jobs.append(self._job("sweep", {"s": s, "lam_min": lo, "lam_max": hi, "steps": steps,
                                           "level": level, "fmt": fmt},
                              ["sweep", "--s", str(s), "--lambda-min", repr(lo), "--lambda-max", repr(hi),
                               "--steps", str(steps), "--level", str(level), "--format", fmt],
                              [("-o", fmt)]))
        s = 2 - r % 2
        n = sm.size("seq.n", *LEVEL_RANGE)
        twin_k = sm.size("seq.twin_k", 2, 6) if sm.u("seq.use_twin") < 0.4 else None
        fmt = self._fmt("sequence", ("csv", "json"))
        # the substitution word has few distinct tuples; once one recurs, code a rotation
        fresh = ("sequence", (("beta", None), ("fmt", fmt), ("n", n), ("s", s), ("twin_k", twin_k))) \
            not in self._seen
        beta = None if fresh and sm.u("seq.use_beta") < 0.5 else sm.u("seq.beta")
        argv = ["sequence", "--s", str(s), "--n", str(n), "--format", fmt]
        if beta is not None:
            argv += ["--beta", repr(beta)]
        if twin_k is not None:
            argv += ["--twin-k", str(twin_k)]
        jobs.append(self._job("sequence", {"s": s, "n": n, "beta": beta, "twin_k": twin_k, "fmt": fmt},
                              argv, [("-o", fmt)]))
        return jobs

    # -- dos-fresh -----------------------------------------------------------

    def _dos_round(self, r: int) -> list[Job]:
        sm = self.sampler
        jobs = []
        for i, (lo, hi) in enumerate(DOS1D_N):
            s = 1 + (r + i) % 2
            lam, n = sm.log_lambda("dos1d.lam"), sm.size(f"dos1d.n{i}", lo, hi - 1)
            phases, fmt = sm.size("dos1d.phases", 1, 5), self._fmt("dos1d", ("csv", "json", "svg"))
            seed = self.seed * 100_003 + self.jobs_made
            jobs.append(self._job("dos1d", {"s": s, "lam": lam, "n": n, "phases": phases,
                                               "seed": seed, "fmt": fmt},
                                  ["dos1d", "--s", str(s), "--lambda", repr(lam), "--N", str(n),
                                   "--phases", str(phases), "--seed", str(seed), "--format", fmt],
                                  [("-o", fmt)]))
        for i, (lo, hi) in enumerate(DOS2D_N):
            s = 2 - (r + i) % 2
            lam1, lam2 = sm.log_lambda("dos2d.lam1"), sm.log_lambda("dos2d.lam2")
            n, fmt = sm.size(f"dos2d.n{i}", lo, hi - 1), self._fmt("dos2d", ("csv", "json", "svg"))
            outputs = [("-o", fmt)] + ([("--histogram-output", "hist.csv")] if fmt == "csv" else [])
            jobs.append(self._job("dos2d", {"s": s, "lam1": lam1, "lam2": lam2, "n": n, "fmt": fmt},
                                  ["dos2d", "--s", str(s), "--lambda1", repr(lam1), "--lambda2", repr(lam2),
                                   "--N", str(n), "--format", fmt], outputs))
        return jobs

    # -- identities ----------------------------------------------------------

    def _identities_round(self, r: int) -> list[Job]:
        """One query on every pool model, the query kind rotating per model, plus
        one dense job alternating between the tensor-law check and the sublattice
        comparison.  A model's box side cycles through three values around its
        base, so query costs spread over twelve levels instead of four and the
        median does not sit on the edge between two of them."""
        sm = self.sampler
        jobs = []
        for i, m in enumerate(self.pool):
            n = m["n"] + POOL_N_STEP * ((r // 3) % 3 - 1)
            model = {"s": m["s"], "a1": m["a1"], "a2": m["a2"], "n": n}
            hull, quantiles = self._products(i, n)
            if (r + i) % 3 == 0:
                grid = np.linspace(-1.05 * hull, 1.05 * hull, 33)
                energies = grid + sm.u("cdf.shift") * (grid[1] - grid[0])
                jobs.append(self._job("dos2d_cdf", {**model, "energies": tuple(energies.tolist())}))
            else:
                j = min(int(sm.u("logconv.interval") * (len(QUANTILES) - 1)), len(QUANTILES) - 2)
                jobs.append(self._job("logconv", {**model, "bins": LOGCONV_BINS, "lo": quantiles[j],
                                                     "hi": quantiles[j + 1]}))
        m = self.pool[r % len(self.pool)]
        model = {"s": m["s"], "a1": m["a1"], "a2": m["a2"]}
        if r % 2 == 0:
            jobs.append(self._job("tensor", {**model, "side": sm.size("tensor.side", *TENSOR_SIDE)}))
        else:
            jobs.append(self._job("sublattice", {**model, "side": sm.size("sublattice.side",
                                                                              *SUBLATTICE_SIDE)}))
        return jobs

    def _products(self, i: int, n: int) -> tuple[float, list]:
        """Hull and criterion-8 quantiles of model i's reference products at side n."""
        key = (i, n)
        if key not in self._quantiles:
            m = self.pool[i]
            e1, e2 = axis_eigs(m["s"], m["a1"], n), axis_eigs(m["s"], m["a2"], n)
            prods = np.sort(np.multiply.outer(e1, e2).ravel())
            self._quantiles[key] = (float(max(-prods[0], prods[-1])),
                                    [float(q) for q in np.quantile(prods, QUANTILES)])
        return self._quantiles[key]

    # -- warm-up -------------------------------------------------------------

    def warmup_jobs(self) -> list[Job]:
        """One small job per kind, on parameters no stream job uses (coupling and sizes
        outside the stream's ranges), so warm-up fills no memo the stream reads."""
        lam, lam2 = WARM_LAMBDAS
        w = []
        if self.workload == "covers":
            w.append(Job(-1, "spectrum1d", {},
                         ["spectrum1d", "--lambda", repr(lam), "--level", "6"], (("-o", "csv"),)))
            w.append(Job(-2, "thickness", {}, ["thickness", "--lambda", repr(lam), "--level", "6",
                                                   "--levels", "1,2,3,4,5,6"], (("-o", "csv"),)))
            w.append(Job(-3, "spectrum2d", {}, ["spectrum2d", "--lambda1", repr(lam), "--lambda2",
                                                    repr(lam), "--level", "6", "--format", "svg"],
                         (("-o", "svg"),)))
            w.append(Job(-4, "sweep", {}, ["sweep", "--lambda-min", repr(lam), "--lambda-max",
                                               repr(lam2), "--steps", "2", "--level", "6",
                                               "--format", "json"], (("-o", "json"),)))
            w.append(Job(-5, "sequence", {}, ["sequence", "--n", "6"], (("-o", "csv"),)))
        elif self.workload == "dos-fresh":
            w.append(Job(-1, "dos1d", {}, ["dos1d", "--lambda", repr(lam), "--N", "512",
                                               "--phases", "2", "--format", "json"], (("-o", "json"),)))
            w.append(Job(-2, "dos2d", {}, ["dos2d", "--lambda1", repr(lam), "--lambda2", repr(lam),
                                               "--N", "64", "--format", "svg"], (("-o", "svg"),)))
        else:
            model = {"s": 1, "a1": hopping(lam), "a2": hopping(lam2)}
            w.append(Job(-1, "dos2d_cdf", {**model, "n": 48, "energies": (-0.5, 0.0, 0.5)}))
            w.append(Job(-2, "logconv", {**model, "n": 64, "bins": 64, "lo": 0.1, "hi": 0.5}))
            w.append(Job(-3, "tensor", {**model, "side": 4}))
            w.append(Job(-4, "sublattice", {**model, "side": 4}))
        return w


def _ladder(s: int, level: int) -> str:
    """Nested levels: every level 1..L for s = 1; for s = 2, whose band count grows
    by 1 + sqrt(2) per level, the three levels L-10, L-5, L keep a job under ~1 s."""
    if s == 1:
        levels = range(1, level + 1)
    else:
        levels = sorted({max(1, level - 10), level - 5, level})
    return ",".join(str(v) for v in levels)


def _identity_pool(sm: Sampler) -> list[dict]:
    """Four models: s = 1, 2 each with a1 != a2 and with a1 == a2, with base box
    sides POOL_N; the couplings are seeded."""
    pool = []
    for i, n in enumerate(POOL_N):
        a1 = hopping(sm.log_lambda("pool.lam1"))
        a2 = a1 if i >= 2 else hopping(sm.log_lambda("pool.lam2"))
        pool.append({"s": 1 + i % 2, "a1": a1, "a2": a2, "n": n})
    return pool


# ---------------------------------------------------------------------------
# running one job


class JobDeadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobDeadline(f"job ran past its {JOB_DEADLINE_S:.0f} s deadline")


@dataclasses.dataclass
class Outcome:
    job: Job
    latency: float
    error: str | None
    paths: dict            # suffix -> artifact path (CLI jobs)
    result: object = None  # return value (library jobs)
    digest: str = ""
    bytes_out: int = 0


def run_job(job: Job, workdir: Path, ql) -> Outcome:
    """Run ``job`` under its deadline; only the call into quasilab is timed."""
    paths = {suffix: workdir / f"{job.jid}.{suffix}" for _, suffix in job.outputs}
    for p in paths.values():
        if p.exists():
            p.unlink()
    result, error = None, None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, JOB_DEADLINE_S)
        try:
            if job.argv is not None:
                _run_cli(job, paths, ql)
            else:
                result = _LIBRARY[job.kind](job.params, ql)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobDeadline as exc:
        error = str(exc)
    except Exception as exc:  # a job's failure is recorded and the stream goes on
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    signal.signal(signal.SIGALRM, previous)
    out = Outcome(job, latency, error, paths)
    if job.argv is not None:
        h = hashlib.sha256()
        for suffix, p in paths.items():
            data = p.read_bytes() if p.exists() else b""
            if not data and out.error is None:
                out.error = f"missing or empty artifact {suffix}"
            out.bytes_out += len(data)
            h.update(suffix.encode() + b"\0" + data + b"\0")
        out.digest = h.hexdigest()
    else:
        out.result = result
        out.digest = hashlib.sha256(_canonical(result)).hexdigest()
    return out


def _run_cli(job: Job, paths: dict, ql) -> None:
    argv = list(job.argv)
    for flag, suffix in job.outputs:
        argv += [flag, str(paths[suffix])]
    sink_out, sink_err = io.StringIO(), io.StringIO()
    with redirect_stdout(sink_out), redirect_stderr(sink_err):
        try:
            rc = ql.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    if rc not in (0, None):
        raise RuntimeError(f"exit code {rc}: {sink_err.getvalue().strip()[:200]}")


def _params(p, ql):
    return ql.labyrinth.LabyrinthParams(p["s"], p["a1"], p["a2"])


def _lib_cdf(p, ql):
    return np.asarray(ql.labyrinth.dos2d_cdf(_params(p, ql), np.array(p["energies"]), p["n"]))


def _lib_logconv(p, ql):
    lab, model = ql.labyrinth, _params(p, ql)
    direct = lab.dos2d_cdf(model, p["hi"], p["n"]) - lab.dos2d_cdf(model, p["lo"], p["n"])
    conv = lab.log_convolution_cdf(model, (p["lo"], p["hi"]), p["n"], p["bins"])
    return {"direct": float(direct), "conv": float(conv)}


def _lib_tensor(p, ql):
    lab, model = ql.labyrinth, _params(p, ql)
    dense = lab.dense_eigs_2d(lab.build_2d(model, p["side"])).support
    prod = np.sort(lab.product_eigs(model, p["side"]).support)
    return {"dense": np.asarray(dense), "product": prod}


def _lib_sublattice(p, ql):
    return ql.labyrinth.sublattice_dos_compare(_params(p, ql), p["side"]).to_json_obj()


_LIBRARY = {"dos2d_cdf": _lib_cdf, "logconv": _lib_logconv, "tensor": _lib_tensor,
            "sublattice": _lib_sublattice}


def _canonical(obj) -> bytes:
    if isinstance(obj, np.ndarray):
        return obj.astype(float).tobytes()
    if isinstance(obj, dict):
        return b"".join(k.encode() + b"=" + _canonical(obj[k]) for k in sorted(obj))
    return json.dumps(obj).encode()
