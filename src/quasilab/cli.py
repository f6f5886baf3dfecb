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
import errno
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__, bands, labyrinth, svg, tracemap, words
from .errors import ResourceLimitError
from .jacobi1d import ModelParams, build_window, count_below_offdiag, free_ids, hopping_from_coupling

#: Caps on the sizes of what the CLI allocates itself; above them it exits 3.
ENERGY_GRID_CAP = 65537
HISTOGRAM_BIN_CAP = 65536
PHASES_CAP = 64
SWEEP_STEPS_CAP = 64

#: Cap on (N + DOS1D_FLOOR) x max(grid, DOS1D_FLOOR) x phases, the work of dos1d
#: in site-energy steps of its Sturm counts.  A count costs about 1 us a site up
#: to 1024 energies and 1.7 ns a site-energy above; writing a curve costs about
#: 2.4 us an energy, as much as counting over 1400 more sites.  So the priciest
#: accepted argv runs for about 10 s (2-core x86 machine).
DOS1D_WORK_CAP = 4 * 10**9
DOS1D_FLOOR = 1024

#: Lanes (windows x energies) of one dos1d count pass.  A pass costs a few numpy
#: calls a site however many lanes it holds, so stacking windows saves calls: per
#: lane-site a pass cost 4.4 ns at 401 lanes, 2.5 ns at 2005 and 2.7-2.8 ns at
#: 3208-6416 (N = 2048, 2-core x86, see jacobi1d.count_below_offdiag).  At 2048
#: lanes the pivot and coupling blocks of a pass take 1 MiB; more lanes gain
#: nothing and hold more.  The budget counts energies as asked for: the count
#: answers the tail and mirror-pair energies without its loop, so a pass runs
#: fewer lanes than this.
DOS1D_LANES = 2048

#: Namespace attributes written into every artifact's metadata, in this order,
#: when they are set; a handler stores the values it resolves on the namespace.
_META_KEYS = (
    "subcommand", "s", "a", "a2", "n", "level", "levels", "resolution", "grid", "bins",
    "beta", "phases", "emin", "emax", "lambda_min", "lambda_max", "steps", "criteria",
    "twin_k", "fmt", "output", "histogram_output", "gaps_output", "seed", "max_pairwise_spread",
)


def _metadata(args) -> dict:
    meta = {"tool": "quasilab", "version": __version__}
    for key in _META_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            meta[key] = value
    return meta


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        _fail("invalid-config", message, 2)


def _fail(kind: str, message: str, code: int):
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    raise SystemExit(code)


def _resolve_a(args, which: str = "") -> float:
    """The hopping value from --a or --lambda; the model parameters validate it."""
    lam = getattr(args, f"lam{which}")
    return getattr(args, f"a{which}") if lam is None else hopping_from_coupling(lam)


def _int_at_least(lowest: int, cap: int | None = None, what: str = ""):
    """argparse type for an int >= ``lowest``; above ``cap`` it raises ResourceLimitError."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        if cap is not None and value > cap:
            raise ResourceLimitError(f"{value} {what} exceed the cap of {cap}")
        return value

    parse.__name__ = f"int >= {lowest}"
    return parse


#: The trace-map sampler needs both ends of its energy interval.
_cover_grid = _int_at_least(2)
_energy_grid = _int_at_least(1, ENERGY_GRID_CAP, "energy grid points")


def _int_list(text: str) -> list[int]:
    """argparse type for a comma-separated list of ints; a list that names none is the bad item."""
    items = [x.strip() for x in text.split(",") if x.strip()]
    for item in items or [text]:
        try:
            int(item)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{item!r} is not an integer") from None
    return [int(x) for x in items]


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _add_output_options(p, formats=("csv", "json", "svg")):
    p.add_argument("--format", choices=formats, default="csv", dest="fmt")
    p.add_argument("--output", "-o", default="-", help="output path, '-' for stdout")


def _add_model(p, *axes):
    """--s plus one required --a<axis> / --lambda<axis> pair per axis suffix."""
    p.add_argument("--s", type=int, default=1)
    for axis in axes:
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument(f"--a{axis}", type=float)
        g.add_argument(f"--lambda{axis}", type=float, dest=f"lam{axis}")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="quasilab", description=__doc__)
    top.add_argument("--version", action="version", version=f"quasilab {__version__}")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sequence", help="substitution words, twins, parity patterns")
    p.set_defaults(run=_cmd_sequence)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--n", type=int, default=8, help="substitution iterations")
    p.add_argument("--beta", type=_finite_float, default=None, help="emit the rotation coding at this phase instead")
    p.add_argument("--twin-k", type=int, default=None, help="also emit a twin witness report for C(k)")
    _add_output_options(p, formats=("csv", "json"))

    p = sub.add_parser("spectrum1d", help="band cover of a 1D spectrum")
    p.set_defaults(run=_cmd_spectrum1d)
    _add_model(p, "")
    p.add_argument("--level", type=int, default=15)
    p.add_argument("--levels", type=_int_list, default=None, help="comma-separated nested levels for stacked output")
    p.add_argument("--resolution", type=float, default=1e-4)
    p.add_argument("--grid", type=_cover_grid, default=tracemap.DEFAULT_GRID)
    _add_output_options(p)

    p = sub.add_parser("dos1d", help="integrated density of states curve")
    p.set_defaults(run=_cmd_dos1d)
    _add_model(p, "")
    p.add_argument("--N", type=_int_at_least(1), default=2048, dest="n")
    p.add_argument("--grid", type=_energy_grid, default=401)
    p.add_argument("--emin", type=_finite_float, default=None)
    p.add_argument("--emax", type=_finite_float, default=None)
    p.add_argument("--phases", type=_int_at_least(1, PHASES_CAP, "phases"), default=1,
                   help="sample this many random rotation phases (seeded) and report the spread")
    p.add_argument("--seed", type=int, default=0, help="seed of the rotation phases")
    _add_output_options(p)

    p = sub.add_parser("spectrum2d", help="product band cover of the 2D spectrum")
    p.set_defaults(run=_cmd_spectrum2d)
    _add_model(p, "1", "2")
    p.add_argument("--level", type=int, default=15)
    p.add_argument("--resolution", type=float, default=1e-4)
    p.add_argument("--grid", type=_cover_grid, default=tracemap.DEFAULT_GRID)
    _add_output_options(p)

    p = sub.add_parser("dos2d", help="2D counting-measure CDF and histogram")
    p.set_defaults(run=_cmd_dos2d)
    _add_model(p, "1", "2")
    p.add_argument("--N", type=_int_at_least(1, labyrinth.PRODUCT_SIDE_CAP, "sites per box side"),
                   default=512, dest="n")
    p.add_argument("--grid", type=_energy_grid, default=401)
    p.add_argument("--bins", type=_int_at_least(1, HISTOGRAM_BIN_CAP, "histogram bins"), default=256,
                   help="histogram bins")
    p.add_argument("--histogram-output", default=None)
    _add_output_options(p)

    p = sub.add_parser("thickness", help="gap structure, thickness, dimension estimate")
    p.set_defaults(run=_cmd_thickness)
    _add_model(p, "")
    p.add_argument("--level", type=int, default=15)
    p.add_argument("--levels", type=_int_list, default=None,
                   help="comma-separated refinement levels (default L-10, L-5 and L for L = --level, "
                        "each at least 1 and without repeats, so fewer than three at --level 6 and below; "
                        "with fewer than three levels box_dim_estimate is null)")
    p.add_argument("--resolution", type=float, default=1e-4)
    p.add_argument("--gaps-output", default=None, help="also write the gap list as CSV")
    _add_output_options(p, formats=("csv", "json"))

    p = sub.add_parser("sweep", help="classify the product spectrum over a coupling grid")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--lambda-min", type=_finite_float, default=0.05)
    p.add_argument("--lambda-max", type=_finite_float, default=1.0)
    p.add_argument("--steps", type=_int_at_least(1, SWEEP_STEPS_CAP, "sweep steps"), default=4)
    p.add_argument("--level", type=int, default=12)
    p.add_argument("--resolution", type=float, default=1e-4)
    _add_output_options(p)

    p = sub.add_parser("verify", help="run the acceptance criteria and print a table")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--criteria", type=_int_list, default=None, help="comma-separated subset, e.g. 1,2,12")
    p.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
    p.add_argument("--output", "-o", default="-")

    return top


# ---------------------------------------------------------------------------
# artifact writers


def _write(path: str, text: str):
    """Write ``text`` to stdout for '-', else to ``path``; an unwritable path exits 2."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        _fail("invalid-config", f"cannot write {path}: {exc.strerror or exc}", 2)


def _check_outputs(args):
    """Exit 2 before any work when an output path cannot be written, so no artifact is left behind."""
    for path in (getattr(args, key, None) for key in ("output", "histogram_output", "gaps_output")):
        if path in (None, "-"):
            continue
        folder = os.path.dirname(path) or "."
        for bad, code in ((os.path.isdir(path), errno.EISDIR), (not os.path.isdir(folder), errno.ENOENT),
                          (not os.access(path if os.path.exists(path) else folder, os.W_OK), errno.EACCES)):
            if bad:
                _fail("invalid-config", f"cannot write {path}: {os.strerror(code)}", 2)


def _csv_text(meta: dict, header: str, rows) -> str:
    lines = [f"# {k}={_fmt(v)}" for k, v in meta.items()]
    lines.append(header)
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(meta: dict, data) -> str:
    return json.dumps({"meta": meta, "data": data}, indent=1) + "\n"


def _emit(args, header: str, rows, data, picture=None) -> dict:
    """Write ``rows`` under ``header`` as CSV, ``data()`` as JSON or ``picture(meta)`` as SVG,
    as ``args.fmt`` names, to ``args.output``, building no other format; return the metadata."""
    meta = _metadata(args)
    if args.fmt == "svg":
        text = picture(meta)
    elif args.fmt == "json":
        text = _json_text(meta, data())
    else:
        text = _csv_text(meta, header, rows)
    _write(args.output, text)
    return meta


def _emit_covers(args, levels, covers, data):
    """Write the bands of ``covers[i]`` as level ``levels[i]``; on an empty last cover exit 1, writing nothing."""
    if covers[-1].is_empty:
        _fail("empty-cover", f"no sample survived to level {levels[-1]} "
              f"(--grid {args.grid}); try a denser --grid", 1)
    rows = ((level, lo, hi) for level, c in zip(levels, covers) for lo, hi in c.intervals.tolist())
    _emit(args, "level,band_lo,band_hi", rows, data, lambda meta: svg.band_stack_svg(levels, covers, meta))


def _cover_json(args, coupling, level, cover) -> dict:
    """The JSON object of one cover; a product cover has no single coupling, so None."""
    return {"s": args.s, "lambda": coupling, "level": level, "resolution": args.resolution,
            "bands": cover.intervals.tolist()}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sequence(args) -> int:
    if args.beta is None:
        word = words.iterate(args.s, args.n)
    else:
        length = words.word_length(args.s, args.n, words.DEFAULT_WORD_CAP)
        word = words.rotation_sequence(args.s, args.beta, range(1, length + 1))
    parity = words.parity_pattern(args.s, max(args.n, 3))
    data = {"word": word, "length": len(word), "parity_pattern": parity}
    rows = [("word", word), ("length", len(word)), ("parity_pattern", "".join(map(str, parity)))]
    if args.twin_k is not None:
        witness = words.twin_witness(args.s, args.twin_k)
        rep = words.find_twin(words.iterate(args.s, args.twin_k), witness, "odd")
        data["twin"] = {"k": args.twin_k, "witness_length": len(witness),
                        "report": dataclasses.asdict(rep) if rep else None}
        rows.append(("twin_offset", rep.offset if rep else ""))
    _emit(args, "key,value", rows, lambda: data)
    return 0


def _chosen_levels(args, default: list[int]) -> list[int]:
    """The --levels list, or ``default`` without it.  With --levels no cover of
    --level is computed, so ``level`` leaves the metadata and ``levels`` records them."""
    if args.levels is None:
        return default
    args.level = None
    return args.levels


def _cmd_spectrum1d(args) -> int:
    args.a = _resolve_a(args)
    params = ModelParams(args.s, args.a)
    levels = _chosen_levels(args, [args.level])
    covers = tracemap.cover_sequence(params, levels, args.resolution, initial_grid=args.grid)
    _emit_covers(args, levels, covers,
                 lambda: [_cover_json(args, params.coupling, level, c) for level, c in zip(levels, covers)])
    return 0


def _cmd_dos1d(args) -> int:
    if (args.n + DOS1D_FLOOR) * max(args.grid, DOS1D_FLOOR) * args.phases > DOS1D_WORK_CAP:
        raise ResourceLimitError(f"(N + {DOS1D_FLOOR}) x grid (at least {DOS1D_FLOOR}) x phases "
                                 f"exceed the cap of {DOS1D_WORK_CAP}")
    args.a = _resolve_a(args)
    params = ModelParams(args.s, args.a)
    hi = args.emax if args.emax is not None else 2.0 * max(args.a, 1.0) + 0.5
    lo = args.emin if args.emin is not None else -hi
    if not lo < hi:
        _fail("invalid-config", f"the energy range needs emin < emax, got [{lo}, {hi}]", 2)
    grid = np.linspace(lo, hi, args.grid)
    windows = [("substitution:0", "substitution", 0.0)]
    if args.phases > 1:
        rng = np.random.default_rng(args.seed)
        windows += [(f"rotation:{b:.6f}", "rotation", float(b)) for b in rng.random(args.phases - 1)]
    curves = []
    per_pass = max(1, DOS1D_LANES // args.grid)
    for i in range(0, len(windows), per_pass):
        batch = windows[i:i + per_pass]
        stack = np.stack([build_window(params, args.n, source, beta=beta)[1:] for _, source, beta in batch])
        # the finite-volume IDS (1/N) #{eigenvalues <= E} of each window
        curves += [(name, c.astype(float) / args.n) for (name, _, _), c in zip(batch, count_below_offdiag(stack, grid))]
    # rounding is monotone, so the largest |fl(x - y)| over all pairs is fl(max - min)
    args.max_pairwise_spread = float(np.max(np.ptp([c for _, c in curves], axis=0)))
    if len(curves) == 1:
        header, rows = "energy,ids", zip(grid, curves[0][1])
    else:
        header = "window,energy,ids"

        def window_rows():
            energies = [_fmt(e) for e in grid.tolist()]  # formatted once for all the windows
            for name, curve in curves:
                yield from zip(itertools.repeat(name), energies, curve)

        rows = window_rows()
    _emit(args, header, rows,
          lambda: {"energies": grid.tolist(),
                   "curves": [{"window": name, "ids": c.tolist()} for name, c in curves],
                   "free_ids": free_ids(grid).tolist()},
          lambda meta: svg.curve_svg(grid, curves[0][1], meta))
    return 0


def _cmd_spectrum2d(args) -> int:
    args.a, args.a2 = _resolve_a(args, "1"), _resolve_a(args, "2")
    cover = labyrinth.spectrum_2d(
        labyrinth.LabyrinthParams(args.s, args.a, args.a2), args.level, args.resolution,
        initial_grid=args.grid,
    )
    _emit_covers(args, [args.level], [cover], lambda: _cover_json(args, None, args.level, cover))
    return 0


def _cmd_dos2d(args) -> int:
    args.a, args.a2 = _resolve_a(args, "1"), _resolve_a(args, "2")
    e1, e2 = labyrinth.eigs_1d_axes(labyrinth.LabyrinthParams(args.s, args.a, args.a2), args.n)
    # counts of the N^2 float products, which are never formed (see count_products_leq);
    # |fl(x * y)| = fl(|x| * |y|) grows with |x| and |y|, so this is the largest |product|
    hull = float(np.max(np.abs(e1))) * float(np.max(np.abs(e2)))
    lim = 1.05 * hull
    if not math.isfinite(2.0 * lim):
        _fail("invalid-config", f"the energy range [-{lim:.3g}, {lim:.3g}] is wider than the "
              "largest float; use smaller hopping values", 2)
    grid = np.linspace(-lim, lim, args.grid)
    edges = np.histogram_bin_edges([], args.bins, range=(-lim, lim))
    # the CDF grid and the histogram's bin bounds in one count (see product_histogram)
    counts = labyrinth.count_products_leq(e1, e2, np.concatenate([grid, labyrinth.histogram_bounds(edges)]))
    cdf = counts[:grid.size] / (args.n * args.n)
    hist = np.diff(counts[grid.size:]) / (args.n * args.n)
    centers = 0.5 * (edges[:-1] + edges[1:])
    meta = _emit(args, "energy,cdf", zip(grid, cdf),
                 lambda: {"energies": grid.tolist(), "cdf": cdf.tolist(),
                          "histogram": {"centers": centers.tolist(), "mass": hist.tolist()}},
                 lambda meta: svg.curve_svg(grid, cdf, meta))
    if args.histogram_output:
        _write(args.histogram_output, _csv_text(meta, "center,mass", zip(centers, hist)))
    return 0


def _cmd_thickness(args) -> int:
    args.a = _resolve_a(args)
    args.levels = _chosen_levels(args, sorted({max(1, args.level - 10), max(1, args.level - 5), args.level}))
    covers = tracemap.cover_sequence(ModelParams(args.s, args.a), args.levels, args.resolution)
    finest = covers[-1]
    gap_list = bands.gaps(finest)
    tau = bands.thickness(finest)
    data = {
        "thickness_estimate": "inf" if math.isinf(tau) else tau,
        "box_dim_estimate": bands.box_dimension_estimate(covers) if len(covers) >= 3 else None,
        "total_length": finest.total_length,
        "hull": list(finest.hull),
        "band_count": finest.count,
        "gap_count": len(gap_list),
    }

    def rows():
        for key, value in data.items():
            if key == "hull":
                yield from zip(("hull_lo", "hull_hi"), value)
            else:
                yield key, "" if value is None else value

    meta = _emit(args, "key,value", rows(), lambda: data)
    if args.gaps_output:
        _write(args.gaps_output, _csv_text(meta, "gap_lo,gap_hi", gap_list.tolist()))
    return 0


def _cmd_sweep(args) -> int:
    if not 0 <= args.lambda_min <= args.lambda_max:
        _fail("invalid-config", "need 0 <= lambda-min <= lambda-max", 2)
    lams = np.linspace(args.lambda_min, args.lambda_max, args.steps).tolist()
    covers = {lam: tracemap.spectrum_cover(ModelParams.from_coupling(args.s, lam), args.level,
                                           args.resolution)
              for lam in lams}
    thick = {lam: bands.thickness(c) for lam, c in covers.items()}
    # product_set(c1, c2) and product_set(c2, c1) merge the same float products
    cells = {}
    for i, l1 in enumerate(lams):
        for l2 in lams[i:]:
            prod = bands.product_set(covers[l1], covers[l2])
            cells[l1, l2] = cells[l2, l1] = (int(bands.is_interval(prod, 4.0 * args.resolution)),
                                             sum(hi - lo for lo, hi in bands.gaps(prod).tolist()))
    rows = [(l1, l2, *cells[l1, l2], thick[l1], thick[l2]) for l1 in lams for l2 in lams]
    header = "lambda1,lambda2,is_interval,total_gap_length,thickness1,thickness2"
    _emit(args, header, rows, lambda: [dict(zip(header.split(","), row)) for row in rows],
          lambda meta: svg.heat_grid_svg(
              lams, lams, [["#2a9d3a" if cells[l1, l2][0] else "#c43131" for l2 in lams] for l1 in lams], meta))
    return 0


def _cmd_verify(args) -> int:
    from . import acceptance

    last = acceptance.DETERMINISM_CRITERION
    wanted = list(range(1, last + 1)) if args.criteria is None else sorted(set(args.criteria))
    if any(n < 1 or n > last for n in wanted):
        _fail("invalid-config", f"criteria numbers must be in 1..{last}", 2)
    if last in wanted:
        # the check's first run of the suite serves as the report of the other criteria
        det, first = acceptance.run_determinism_check()
        results = [r for r in first if r.number in wanted] + [det]
    else:
        results = acceptance.run_all(wanted)
    ok = all(r.ok for r in results)
    if args.fmt == "json":
        args.criteria = wanted
        _write(args.output, _json_text(_metadata(args), [dataclasses.asdict(r) for r in results]))
    else:
        _write(args.output, acceptance.format_table(results))
    return 0 if ok else 1


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        _check_outputs(args)
        return args.run(args)
    except ResourceLimitError as exc:
        _fail("resource-limit", str(exc), 3)
    except ValueError as exc:
        _fail("invalid-config", str(exc), 2)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
