"""In-memory spans around quasilab's public functions, for the traced run.

The tracer replaces each listed function with a wrapper in every module
namespace that binds it (a name re-imported by another module, such as
``labyrinth.eigenvalues_offdiag``, is patched too), so calls made inside the
library are seen as well as calls made by the benchmark.  A wrapper pushes a
span, runs the original, pops the span and adds its duration to its parent's
child time; self time is duration minus child time.  Spans are aggregated per
name as they close, so memory stays constant however many calls a run makes.

Work counters are computed from arguments and return values only; the wrapped
code and its outputs are unchanged.  Calls made inside worker processes (the
``sweep`` pool) are not seen.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, child_seconds]
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.axis_keys: set = set()
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def parent(self) -> str | None:
        return self.stack[-2][0] if len(self.stack) >= 2 else None

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][1] += dt
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.total[name] = tracer.total.get(name, 0.0) + dt
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + dt - frame[1]
            if counter is not None:
                tracer.stack.append(frame)
                try:
                    counter(tracer, args, kwargs, result)
                finally:
                    tracer.stack.pop()
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> list[str]:
        """Patch every target that exists; return the names that do not.

        A function is patched in its own module and in every other quasilab
        module that binds the same object under the same name.
        """
        loaded = _quasilab_modules()
        missing = []
        for name, owner_path, attr, counter in TARGETS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(name)
                continue
            wrapped = self.wrap(name, original, counter)
            holders = [owner] + [mod for mod in loaded
                                 if mod is not owner and getattr(mod, attr, None) is original]
            for holder in holders:
                self._patched.append((holder, attr, original))
                setattr(holder, attr, wrapped)
        return missing

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# counters


def _escape_steps(tr, args, kwargs, steps):
    max_iter = args[4] if len(args) > 4 else kwargs["max_iter"]
    lanes = int(np.size(steps))
    if lanes:
        iters = max_iter if bool((steps < 0).any()) else int(steps.max())
        tr.add("escape_steps.lanes", lanes)
        tr.add("escape_steps.lane_iters", lanes * iters)


def _covers_out(tr, args, kwargs, result):
    # spectrum_cover called from inside cover_sequence is already counted there
    if tr.parent() in ("tracemap.cover_sequence", "tracemap.spectrum_cover"):
        return
    covers = result if isinstance(result, list) else [result]
    tr.add("bands_out", sum(c.count for c in covers))


def _product_pairs(tr, args, kwargs, result):
    tr.add("product_set.pairs", args[0].count * args[1].count)


def _merge_input(tr, args, kwargs, result):
    # every caller passes a list or an array; a one-shot iterator is not counted
    if hasattr(args[0], "__len__"):
        tr.add("merge_intervals.intervals_in", len(args[0]))


def _solve_sites(tr, args, kwargs, result):
    tr.add("eigenvalues_offdiag.sites", int(np.size(args[0])) + 1)


def _count_work(tr, args, kwargs, result):
    tr.add("count_below_offdiag.site_energies", (int(np.size(args[0])) + 1) * int(np.size(args[1])))
    if tr.parent() == "jacobi1d.eigenvalues_offdiag":
        tr.add("count_below_offdiag.in_solve", 1)


def _dense_side(tr, args, kwargs, result):
    side = int(np.shape(args[0])[0])
    tr.counts["symmetric_eigenvalues.max_side"] = max(tr.counts.get("symmetric_eigenvalues.max_side", 0), side)


def _axis_requests(tr, args, kwargs, result):
    p, n = args[0], args[1]
    tol = args[2] if len(args) > 2 else kwargs.get("tol")
    if p.a1 == p.a2:
        tr.add("eigs_1d_axes.same_axis", 1)
    for a in (p.a1, p.a2):
        key = (p.s, a, n, tol)
        if key in tr.axis_keys:
            tr.add("eigs_1d_axes.repeats", 1)
        tr.axis_keys.add(key)


def _quasilab_modules() -> list:
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "quasilab" or key.startswith("quasilab."))]


def _resolve(path: str):
    """``"quasilab.measures:EmpiricalMeasure"`` -> the class, ``"quasilab.svg"`` -> the module."""
    module_name, _, qual = path.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in filter(None, qual.split(".")):
        obj = getattr(obj, part, None)
    return obj


#: (span name, owner, attribute, counter).  A target that a later version of the
#: library no longer has is skipped and reported as missing, not an error.
TARGETS = [
    ("cli.main", "quasilab.cli", "main", None),
    ("tracemap.escape_steps", "quasilab.tracemap", "escape_steps", _escape_steps),
    ("tracemap.escape_time", "quasilab.tracemap", "escape_time", None),
    ("tracemap.spectrum_cover", "quasilab.tracemap", "spectrum_cover", _covers_out),
    ("tracemap.cover_sequence", "quasilab.tracemap", "cover_sequence", _covers_out),
    ("bands.product_set", "quasilab.bands", "product_set", _product_pairs),
    ("bands.merge_intervals", "quasilab.bands", "merge_intervals", _merge_input),
    ("bands.thickness", "quasilab.bands", "thickness", None),
    ("jacobi1d.eigenvalues_offdiag", "quasilab.jacobi1d", "eigenvalues_offdiag", _solve_sites),
    ("jacobi1d.count_below_offdiag", "quasilab.jacobi1d", "count_below_offdiag", _count_work),
    ("jacobi1d.build_window", "quasilab.jacobi1d", "build_window", None),
    ("labyrinth.eigs_1d_axes", "quasilab.labyrinth", "eigs_1d_axes", _axis_requests),
    ("labyrinth.count_products_leq", "quasilab.labyrinth", "count_products_leq", None),
    ("labyrinth.dos2d_cdf", "quasilab.labyrinth", "dos2d_cdf", None),
    ("labyrinth.log_convolution_cdf", "quasilab.labyrinth", "log_convolution_cdf", None),
    ("labyrinth.product_eigs", "quasilab.labyrinth", "product_eigs", None),
    ("labyrinth.build_2d", "quasilab.labyrinth", "build_2d", None),
    ("dense.symmetric_eigenvalues", "quasilab.dense", "symmetric_eigenvalues", _dense_side),
    ("measures.init", "quasilab.measures:EmpiricalMeasure", "__init__", None),
    ("measures.cdf", "quasilab.measures:EmpiricalMeasure", "cdf", None),
    ("measures.ks_distance", "quasilab.measures", "ks_distance", None),
    ("words.prefix", "quasilab.words", "prefix", None),
    ("words.rotation_sequence", "quasilab.words", "rotation_sequence", None),
    ("svg", "quasilab.svg", "band_stack_svg", None),
    ("svg", "quasilab.svg", "curve_svg", None),
    ("svg", "quasilab.svg", "heat_grid_svg", None),
]

#: Every span name the tracer can record.
SPAN_NAMES = sorted({t[0] for t in TARGETS})


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_frac", "_per_solve", "_per_band")):
        return "ratio"
    if name.endswith("max_side"):
        return "sites"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, from one traced pass."""
    c, calls, self_s, total = tr.counts, tr.calls, tr.self_s, tr.total

    def n(name):
        return calls.get(name, 0)

    def sec(name):
        return self_s.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    svg_self = sec("svg")
    solves = n("jacobi1d.eigenvalues_offdiag")
    axis_calls = n("labyrinth.eigs_1d_axes")
    return {
        "tracemap.escape_steps.calls": n("tracemap.escape_steps"),
        "tracemap.escape_steps.self_s": sec("tracemap.escape_steps"),
        "tracemap.escape_steps.lanes": c.get("escape_steps.lanes", 0),
        "tracemap.escape_steps.lane_iters": c.get("escape_steps.lane_iters", 0),
        "tracemap.escape_time.calls": n("tracemap.escape_time"),
        "tracemap.escape_time.self_s": sec("tracemap.escape_time"),
        "tracemap.cover.self_s": sec("tracemap.spectrum_cover") + sec("tracemap.cover_sequence"),
        "tracemap.bands_out": c.get("bands_out", 0),
        "tracemap.lanes_per_band": ratio(c.get("escape_steps.lanes", 0), c.get("bands_out", 0)),
        "bands.product_set.calls": n("bands.product_set"),
        "bands.product_set.self_s": sec("bands.product_set"),
        "bands.product_set.pairs": c.get("product_set.pairs", 0),
        "bands.merge_intervals.self_s": sec("bands.merge_intervals"),
        "bands.merge_intervals.intervals_in": c.get("merge_intervals.intervals_in", 0),
        "bands.thickness.self_s": sec("bands.thickness"),
        "jacobi1d.eigenvalues_offdiag.calls": solves,
        "jacobi1d.eigenvalues_offdiag.self_s": sec("jacobi1d.eigenvalues_offdiag"),
        "jacobi1d.eigenvalues_offdiag.sites": c.get("eigenvalues_offdiag.sites", 0),
        "jacobi1d.count_below_offdiag.calls": n("jacobi1d.count_below_offdiag"),
        "jacobi1d.count_below_offdiag.self_s": sec("jacobi1d.count_below_offdiag"),
        "jacobi1d.count_below_offdiag.site_energies": c.get("count_below_offdiag.site_energies", 0),
        "jacobi1d.count_calls_per_solve": ratio(c.get("count_below_offdiag.in_solve", 0), solves),
        "jacobi1d.build_window.self_s": sec("jacobi1d.build_window"),
        "labyrinth.eigs_1d_axes.calls": axis_calls,
        "labyrinth.eigs_1d_axes.s": total.get("labyrinth.eigs_1d_axes", 0.0),
        "labyrinth.eigs_1d_axes.repeat_frac": ratio(c.get("eigs_1d_axes.repeats", 0), 2 * axis_calls),
        "labyrinth.eigs_1d_axes.same_axis_frac": ratio(c.get("eigs_1d_axes.same_axis", 0), axis_calls),
        "labyrinth.count_products_leq.self_s": sec("labyrinth.count_products_leq"),
        "labyrinth.dos2d_cdf.self_s": sec("labyrinth.dos2d_cdf"),
        "labyrinth.log_convolution_cdf.self_s": sec("labyrinth.log_convolution_cdf"),
        "labyrinth.product_eigs.self_s": sec("labyrinth.product_eigs"),
        "labyrinth.build_2d.self_s": sec("labyrinth.build_2d"),
        "dense.symmetric_eigenvalues.calls": n("dense.symmetric_eigenvalues"),
        "dense.symmetric_eigenvalues.self_s": sec("dense.symmetric_eigenvalues"),
        "dense.symmetric_eigenvalues.max_side": c.get("symmetric_eigenvalues.max_side", 0),
        "measures.init.self_s": sec("measures.init"),
        "measures.cdf.self_s": sec("measures.cdf"),
        "measures.ks_distance.self_s": sec("measures.ks_distance"),
        "words.prefix.self_s": sec("words.prefix"),
        "words.rotation_sequence.self_s": sec("words.rotation_sequence"),
        "svg.self_s": svg_self,
        "cli.self_s": sec("cli.main"),
    }
