"""Command-line front end.

Subcommands: sequence, spectrum1d, dos1d, spectrum2d, dos2d, thickness, sweep,
verify.  Artifacts are CSV (comma separator, '.' decimal, LF endings, 17
significant digits), JSON, or static SVG; every artifact embeds the resolved
configuration and the toolkit version.  Identical configurations produce
byte-identical outputs.

Errors exit nonzero with a one-line JSON object on stderr: exit code 2 for
invalid configuration or domain errors, 3 for resource caps.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, acceptance, bands, labyrinth, svg, tracemap, words
from .errors import ResourceLimitError
from .jacobi1d import ModelParams, free_ids, hopping_from_coupling, ids_curve


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@dataclasses.dataclass
class RunConfig:
    """Resolved invocation: subcommand plus every numeric knob it uses."""

    subcommand: str
    s: int = 1
    a: float | None = None
    a2: float | None = None
    n: int | None = None
    level: int | None = None
    levels: tuple | None = None
    resolution: float | None = None
    max_iter: int | None = None
    escape_radius: float | None = None
    grid: int | None = None
    bins: int | None = None
    beta: float | None = None
    phases: int | None = None
    emin: float | None = None
    emax: float | None = None
    lambda_min: float | None = None
    lambda_max: float | None = None
    steps: int | None = None
    criteria: tuple | None = None
    twin_k: int | None = None
    fmt: str = "csv"
    output: str = "-"
    histogram_output: str | None = None
    gaps_output: str | None = None
    seed: int = 0
    jobs: int = 1

    def metadata(self) -> dict:
        meta = {"tool": "quasilab", "version": __version__}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if v is not None:
                meta[f.name] = list(v) if isinstance(v, tuple) else v
        return meta


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        _fail("invalid-config", message, 2)


def _fail(kind: str, message: str, code: int):
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    raise SystemExit(code)


def _require_bands(cover, grid: int):
    """Exit 1 with an error line, before any artifact is written, on an empty cover."""
    if cover.is_empty:
        _fail("empty-cover", f"no sample survived to level {cover.level} "
              f"(--grid {grid}); try a denser --grid", 1)


def _resolve_a(args, which: str = "") -> float:
    a = getattr(args, f"a{which}", None)
    lam = getattr(args, f"lam{which}", None)
    if (a is None) == (lam is None):
        _fail("invalid-config", f"give exactly one of --a{which} / --lambda{which}", 2)
    if a is not None:
        if a <= 0:
            _fail("invalid-config", f"--a{which} must be positive", 2)
        return float(a)
    if lam < 0:
        _fail("invalid-config", f"--lambda{which} must be nonnegative", 2)
    return hopping_from_coupling(float(lam))


def _int_at_least(lowest: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value

    parse.__name__ = f"int >= {lowest}"
    return parse


_positive_int = _int_at_least(1)
#: The trace-map sampler needs both ends of its energy interval.
_cover_grid = _int_at_least(2)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _add_output_options(p, formats=("csv", "json", "svg")):
    p.add_argument("--format", choices=formats, default="csv", dest="fmt")
    p.add_argument("--output", "-o", default="-", help="output path, '-' for stdout")
    p.add_argument("--seed", type=int, default=0)


def _add_model1d(p):
    p.add_argument("--s", type=int, default=1)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--a", type=float)
    g.add_argument("--lambda", type=float, dest="lam")


def _add_model2d(p):
    p.add_argument("--s", type=int, default=1)
    g1 = p.add_mutually_exclusive_group(required=True)
    g1.add_argument("--a1", type=float)
    g1.add_argument("--lambda1", type=float, dest="lam1")
    g2 = p.add_mutually_exclusive_group(required=True)
    g2.add_argument("--a2", type=float)
    g2.add_argument("--lambda2", type=float, dest="lam2")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="quasilab", description=__doc__)
    top.add_argument("--version", action="version", version=f"quasilab {__version__}")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sequence", help="substitution words, twins, parity patterns")
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--n", type=int, default=8, help="substitution iterations")
    p.add_argument("--beta", type=_finite_float, default=None, help="emit the rotation coding at this phase instead")
    p.add_argument("--twin-k", type=int, default=None, help="also emit a twin witness report for C(k)")
    _add_output_options(p, formats=("csv", "json"))

    p = sub.add_parser("spectrum1d", help="outer band cover of a 1D spectrum")
    _add_model1d(p)
    p.add_argument("--level", type=int, default=15)
    p.add_argument("--levels", default=None, help="comma-separated nested levels for stacked output")
    p.add_argument("--resolution", type=float, default=1e-4)
    p.add_argument("--grid", type=_cover_grid, default=tracemap.DEFAULT_GRID)
    p.add_argument("--escape-radius", type=float, default=None)
    _add_output_options(p)

    p = sub.add_parser("dos1d", help="integrated density of states curve")
    _add_model1d(p)
    p.add_argument("--N", type=int, default=2048, dest="n")
    p.add_argument("--grid", type=_positive_int, default=401)
    p.add_argument("--emin", type=float, default=None)
    p.add_argument("--emax", type=float, default=None)
    p.add_argument("--phases", type=_positive_int, default=1,
                   help="sample this many random rotation phases (seeded) and report the spread")
    _add_output_options(p)

    p = sub.add_parser("spectrum2d", help="product band cover of the 2D spectrum")
    _add_model2d(p)
    p.add_argument("--level", type=int, default=15)
    p.add_argument("--resolution", type=float, default=1e-4)
    p.add_argument("--grid", type=_cover_grid, default=tracemap.DEFAULT_GRID)
    p.add_argument("--escape-radius", type=float, default=None)
    _add_output_options(p)

    p = sub.add_parser("dos2d", help="2D counting-measure CDF and histogram")
    _add_model2d(p)
    p.add_argument("--N", type=int, default=512, dest="n")
    p.add_argument("--grid", type=_positive_int, default=401)
    p.add_argument("--bins", type=int, default=256, help="histogram bins")
    p.add_argument("--histogram-output", default=None)
    _add_output_options(p)

    p = sub.add_parser("thickness", help="gap structure, thickness, dimension estimate")
    _add_model1d(p)
    p.add_argument("--level", type=int, default=15)
    p.add_argument("--levels", default=None,
                   help="comma-separated refinement levels (default three up to --level)")
    p.add_argument("--resolution", type=float, default=1e-4)
    p.add_argument("--gaps-output", default=None, help="also write the gap list as CSV")
    _add_output_options(p, formats=("csv", "json"))

    p = sub.add_parser("sweep", help="classify the product spectrum over a coupling grid")
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--lambda-min", type=float, default=0.05)
    p.add_argument("--lambda-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--level", type=int, default=12)
    p.add_argument("--resolution", type=float, default=1e-4)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    _add_output_options(p)

    p = sub.add_parser("verify", help="run the acceptance criteria and print a table")
    p.add_argument("--criteria", default=None, help="comma-separated subset, e.g. 1,2,12")
    p.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
    p.add_argument("--output", "-o", default="-")
    p.add_argument("--seed", type=int, default=0)

    return top


# ---------------------------------------------------------------------------
# artifact writers


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv_text(meta: dict, header: str, rows) -> str:
    lines = [f"# {k}={_fmt(v)}" for k, v in meta.items()]
    lines.append(header)
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(meta: dict, data) -> str:
    return json.dumps({"meta": meta, "data": data}, indent=1) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sequence(args) -> int:
    cfg = RunConfig("sequence", s=args.s, n=args.n, beta=args.beta, twin_k=args.twin_k,
                    fmt=args.fmt, output=args.output, seed=args.seed)
    if args.beta is None:
        word = words.iterate(args.s, args.n)
    else:
        word = words.rotation_sequence(args.s, args.beta, range(1, words.word_length(args.s, args.n) + 1))
    parity = words.parity_pattern(args.s, max(args.n, 3))
    twin = None
    if args.twin_k is not None:
        witness = words.twin_witness(args.s, args.twin_k)
        rep = words.find_twin(words.iterate(args.s, args.twin_k), witness, "odd")
        twin = {"k": args.twin_k, "witness_length": len(witness),
                "report": rep.to_json() if rep else None}
    if args.fmt == "json":
        data = {"word": word, "length": len(word), "parity_pattern": parity}
        if twin:
            data["twin"] = twin
        _write(args.output, _json_text(cfg.metadata(), data))
    else:
        rows = [("word", word), ("length", len(word)),
                ("parity_pattern", "".join(map(str, parity)))]
        if twin:
            rows.append(("twin_offset", twin["report"]["offset"] if twin["report"] else ""))
        _write(args.output, _csv_text(cfg.metadata(), "key,value", rows))
    return 0


def _parse_levels(raw: str | None, top: int) -> list[int]:
    if raw is None:
        picks = sorted({max(1, top - 10), max(1, top - 5), top})
        return picks
    levels = [int(x) for x in raw.split(",") if x.strip()]
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    return levels


def _cmd_spectrum1d(args) -> int:
    a = _resolve_a(args)
    cfg = RunConfig("spectrum1d", s=args.s, a=a, level=args.level, max_iter=args.level,
                    resolution=args.resolution, grid=args.grid,
                    escape_radius=args.escape_radius, fmt=args.fmt, output=args.output,
                    seed=args.seed)
    params = ModelParams(args.s, a)
    if args.levels:
        levels = _parse_levels(args.levels, args.level)
        covers = tracemap.cover_sequence(params, levels, args.resolution,
                                         initial_grid=args.grid, escape_radius=args.escape_radius)
        cfg.levels = tuple(levels)
    else:
        covers = [tracemap.spectrum_cover(params, args.level, args.resolution,
                                          initial_grid=args.grid, escape_radius=args.escape_radius)]
    _require_bands(covers[-1], args.grid)
    if args.fmt == "svg":
        _write(args.output, svg.band_stack_svg(covers, cfg.metadata()))
    elif args.fmt == "json":
        _write(args.output, _json_text(cfg.metadata(), [c.to_json_obj() for c in covers]))
    else:
        rows = [(c.level, lo, hi) for c in covers for lo, hi in c.intervals]
        _write(args.output, _csv_text(cfg.metadata(), "level,band_lo,band_hi", rows))
    return 0


def _cmd_dos1d(args) -> int:
    a = _resolve_a(args)
    cfg = RunConfig("dos1d", s=args.s, a=a, n=args.n, grid=args.grid, phases=args.phases,
                    emin=args.emin, emax=args.emax, fmt=args.fmt, output=args.output,
                    seed=args.seed)
    params = ModelParams(args.s, a)
    hi = args.emax if args.emax is not None else 2.0 * max(a, 1.0) + 0.5
    lo = args.emin if args.emin is not None else -hi
    grid = np.linspace(lo, hi, args.grid)
    curves = [("substitution:0", ids_curve(params, grid, args.n))]
    if args.phases > 1:
        rng = np.random.default_rng(args.seed)
        for b in rng.random(args.phases - 1):
            curves.append((f"rotation:{b:.6f}", ids_curve(params, grid, args.n,
                                                          source="rotation", beta=float(b))))
    spread = 0.0
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            spread = max(spread, float(np.max(np.abs(curves[i][1] - curves[j][1]))))
    meta = cfg.metadata()
    meta["max_pairwise_spread"] = spread
    if args.fmt == "svg":
        _write(args.output, svg.curve_svg(grid, curves[0][1], meta))
    elif args.fmt == "json":
        data = {
            "energies": grid.tolist(),
            "curves": [{"window": name, "ids": c.tolist()} for name, c in curves],
            "free_ids": free_ids(grid).tolist(),
        }
        _write(args.output, _json_text(meta, data))
    elif len(curves) == 1:
        _write(args.output, _csv_text(meta, "energy,ids", list(zip(grid, curves[0][1]))))
    else:
        rows = [
            (name, e, v)
            for name, curve in curves
            for e, v in zip(grid, curve)
        ]
        _write(args.output, _csv_text(meta, "window,energy,ids", rows))
    return 0


def _cmd_spectrum2d(args) -> int:
    a1 = _resolve_a(args, "1")
    a2 = _resolve_a(args, "2")
    cfg = RunConfig("spectrum2d", s=args.s, a=a1, a2=a2, level=args.level, max_iter=args.level,
                    resolution=args.resolution, grid=args.grid,
                    escape_radius=args.escape_radius, fmt=args.fmt, output=args.output,
                    seed=args.seed)
    cover = labyrinth.spectrum_2d(
        labyrinth.LabyrinthParams(args.s, a1, a2), args.level, args.resolution,
        initial_grid=args.grid, escape_radius=args.escape_radius,
    )
    _require_bands(cover, args.grid)
    if args.fmt == "svg":
        _write(args.output, svg.band_stack_svg([cover], cfg.metadata()))
    elif args.fmt == "json":
        _write(args.output, _json_text(cfg.metadata(), cover.to_json_obj()))
    else:
        rows = [(cover.level, lo, hi) for lo, hi in cover.intervals]
        _write(args.output, _csv_text(cfg.metadata(), "level,band_lo,band_hi", rows))
    return 0


def _cmd_dos2d(args) -> int:
    a1 = _resolve_a(args, "1")
    a2 = _resolve_a(args, "2")
    cfg = RunConfig("dos2d", s=args.s, a=a1, a2=a2, n=args.n, grid=args.grid, bins=args.bins,
                    fmt=args.fmt, output=args.output, histogram_output=args.histogram_output,
                    seed=args.seed)
    p = labyrinth.LabyrinthParams(args.s, a1, a2)
    prods = labyrinth.product_eigs(p, args.n)
    hull = float(np.max(np.abs(prods.support)))
    grid = np.linspace(-1.05 * hull, 1.05 * hull, args.grid)
    cdf = prods.cdf(grid)
    hist, edges = np.histogram(prods.support, bins=args.bins,
                               range=(-1.05 * hull, 1.05 * hull))
    hist = hist / prods.size
    centers = 0.5 * (edges[:-1] + edges[1:])
    meta = cfg.metadata()
    if args.fmt == "svg":
        _write(args.output, svg.curve_svg(grid, cdf, meta))
    elif args.fmt == "json":
        data = {
            "energies": grid.tolist(),
            "cdf": cdf.tolist(),
            "histogram": {"centers": centers.tolist(), "mass": hist.tolist()},
        }
        _write(args.output, _json_text(meta, data))
    else:
        _write(args.output,
               _csv_text(meta, "energy,cdf", list(zip(grid, cdf))))
        if args.histogram_output:
            _write(args.histogram_output,
                   _csv_text(meta, "center,mass", list(zip(centers, hist))))
    return 0


def _cmd_thickness(args) -> int:
    a = _resolve_a(args)
    levels = _parse_levels(args.levels, args.level)
    cfg = RunConfig("thickness", s=args.s, a=a, level=args.level, levels=tuple(levels),
                    resolution=args.resolution, fmt=args.fmt, output=args.output,
                    gaps_output=args.gaps_output, seed=args.seed)
    params = ModelParams(args.s, a)
    covers = tracemap.cover_sequence(params, levels, args.resolution)
    stats = bands.cantor_stats(covers)
    gap_list = bands.gaps(covers[-1])
    meta = cfg.metadata()
    if args.fmt == "json":
        data = stats.to_json_obj()
        data["band_count"] = covers[-1].count
        data["gap_count"] = len(gap_list)
        _write(args.output, _json_text(meta, data))
    else:
        t = stats.thickness_estimate
        rows = [
            ("thickness_estimate", "inf" if math.isinf(t) else t),
            ("box_dim_estimate", stats.box_dim_estimate if stats.box_dim_estimate is not None else ""),
            ("total_length", stats.total_length),
            ("hull_lo", stats.hull[0]),
            ("hull_hi", stats.hull[1]),
            ("band_count", covers[-1].count),
            ("gap_count", len(gap_list)),
        ]
        _write(args.output, _csv_text(meta, "key,value", rows))
    if args.gaps_output:
        _write(args.gaps_output,
               _csv_text(meta, "gap_lo,gap_hi", [(lo, hi) for lo, hi in gap_list]))
    return 0


def _sweep_cell(task) -> tuple:
    s, lam, level, resolution = task
    a = hopping_from_coupling(lam)
    cover = tracemap.spectrum_cover(ModelParams(s, a), level, resolution)
    return lam, cover


def _cmd_sweep(args) -> int:
    if args.steps < 1 or args.lambda_min < 0 or args.lambda_max < args.lambda_min:
        _fail("invalid-config", "need 0 <= lambda-min <= lambda-max and steps >= 1", 2)
    cfg = RunConfig("sweep", s=args.s, lambda_min=args.lambda_min, lambda_max=args.lambda_max,
                    steps=args.steps, level=args.level, resolution=args.resolution,
                    fmt=args.fmt, output=args.output, seed=args.seed, jobs=args.jobs)
    lams = np.linspace(args.lambda_min, args.lambda_max, args.steps)
    tasks = [(args.s, float(lam), args.level, args.resolution) for lam in lams]
    if args.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            covers = dict(pool.map(_sweep_cell, tasks))
    else:
        covers = dict(map(_sweep_cell, tasks))
    rows = []
    verdicts = {}
    for l1 in lams:
        for l2 in lams:
            c1, c2 = covers[float(l1)], covers[float(l2)]
            prod = bands.product_set(c1, c2)
            check = bands.is_interval(prod, 4.0 * args.resolution)
            gap_total = sum(hi - lo for lo, hi in bands.gaps(prod))
            rows.append((
                float(l1), float(l2), int(bool(check)), gap_total,
                bands.thickness(c1), bands.thickness(c2),
            ))
            verdicts[(float(l1), float(l2))] = bool(check)
    meta = cfg.metadata()
    header = "lambda1,lambda2,is_interval,total_gap_length,thickness1,thickness2"
    if args.fmt == "svg":
        colors = [["#2a9d3a" if verdicts[(float(l1), float(l2))] else "#c43131" for l2 in lams]
                  for l1 in lams]
        _write(args.output, svg.heat_grid_svg(lams, lams, colors, meta))
    elif args.fmt == "json":
        data = [dict(zip(header.split(","), row)) for row in rows]
        _write(args.output, _json_text(meta, data))
    else:
        _write(args.output, _csv_text(meta, header, rows))
    return 0


def _cmd_verify(args) -> int:
    wanted = list(range(1, 15))
    if args.criteria:
        wanted = sorted({int(x) for x in args.criteria.split(",") if x.strip()})
        if any(n < 1 or n > 14 for n in wanted):
            _fail("invalid-config", "criteria numbers must be in 1..14", 2)
    results = acceptance.run_all([n for n in wanted if n <= 13]) if any(n <= 13 for n in wanted) else []
    if 14 in wanted:
        det, _ = acceptance.run_determinism_check()
        results = results + [det]
    ok = all(r.ok for r in results)
    if args.fmt == "json":
        cfg = RunConfig("verify", criteria=tuple(wanted), fmt="json", output=args.output,
                        seed=args.seed)
        _write(args.output, _json_text(cfg.metadata(), [r.to_json_obj() for r in results]))
    else:
        _write(args.output, acceptance.format_table(results))
    return 0 if ok else 1


_HANDLERS = {
    "sequence": _cmd_sequence,
    "spectrum1d": _cmd_spectrum1d,
    "dos1d": _cmd_dos1d,
    "spectrum2d": _cmd_spectrum2d,
    "dos2d": _cmd_dos2d,
    "thickness": _cmd_thickness,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args)
    except ResourceLimitError as exc:
        _fail("resource-limit", str(exc), 3)
    except ValueError as exc:
        _fail("invalid-config", str(exc), 2)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
