"""Correctness checks of job outputs, run after the timed stream.

Each check returns None when the output is right, else a one-line reason.
Eigenvalue-backed outputs are compared with ``np.linalg.eigvalsh``; product
counts with direct enumeration of all N^2 products; the log-convolution with
criterion 8's tolerance; covers with their structural invariants (zero in every
cover and product cover, nesting across levels, bands inside
[-2(1+a), 2(1+a)]).
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import numpy as np

import reference as ref
from streams import hopping

SVG_NS = "{http://www.w3.org/2000/svg}"
SVG_W, SVG_H, SVG_M = 800.0, 400.0, 40.0

#: Allowed disagreement of an eigenvalue product with the reference, relative to
#: the spectrum's scale (bisection runs to 1e-11, eigvalsh to rounding).
PRODUCT_SLACK = 1e-8


class Bad(Exception):
    pass


def need(cond: bool, message: str) -> None:
    if not cond:
        raise Bad(message)


def check(outcome, ql) -> str | None:
    if outcome.error is not None:
        return outcome.error
    try:
        _CHECKS[outcome.job.kind](outcome, ql)
    except Bad as exc:
        return f"check: {exc}"
    except (ValueError, KeyError, IndexError, TypeError, ET.ParseError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


# ---------------------------------------------------------------------------
# artifact readers


def read_csv(path) -> tuple[dict, list, list]:
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            k, _, v = line[2:].partition("=")
            meta[k] = v
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def read_json(path) -> tuple[dict, object]:
    doc = json.loads(path.read_text())
    return doc["meta"], doc["data"]


def read_svg(path):
    root = ET.fromstring(path.read_text())
    meta = json.loads(root.find(f"{SVG_NS}metadata").text)
    rects = [r.attrib for r in root.iter(f"{SVG_NS}rect")
             if not (r.get("x") == "0" and r.get("y") == "0")]  # drop the background
    texts = [t.text for t in root.iter(f"{SVG_NS}text")]
    lines = [p.attrib for p in root.iter(f"{SVG_NS}polyline")]
    return meta, rects, texts, lines


def artifact(outcome, suffix=None):
    paths = outcome.paths
    return paths[suffix] if suffix else paths[outcome.job.params["fmt"]]


# ---------------------------------------------------------------------------
# covers


def _check_cover(bands_, bound: float, what: str) -> None:
    need(len(bands_) > 0, f"{what}: empty cover")
    lo = np.array([b[0] for b in bands_], dtype=float)
    hi = np.array([b[1] for b in bands_], dtype=float)
    need(bool(np.all(hi >= lo)), f"{what}: band with hi < lo")
    need(bool(np.all(lo[1:] > hi[:-1])), f"{what}: bands not sorted and disjoint")
    need(lo[0] >= -bound and hi[-1] <= bound, f"{what}: bands leave [-{bound:.6g}, {bound:.6g}]")
    need(bool(np.any((lo <= 0.0) & (0.0 <= hi))), f"{what}: 0 is not in the cover")


def _check_nested(outer, inner, what: str, slack: float = 0.0) -> None:
    lo = np.array([b[0] for b in outer])
    hi = np.array([b[1] for b in outer])
    for a, b in inner:
        i = int(np.searchsorted(lo, a + slack, side="right")) - 1
        need(i >= 0 and b <= hi[i] + slack and a >= lo[i] - slack,
             f"{what}: band [{a:.17g}, {b:.17g}] is outside the coarser cover")


def _svg_rows(rects):
    """Band rectangles grouped by row (their y), top row first, in pixel units."""
    rows = {}
    for r in rects:
        rows.setdefault(float(r["y"]), []).append((float(r["x"]), float(r["x"]) + float(r["width"])))
    return [sorted(rows[y]) for y in sorted(rows)]


def _check_svg_covers(outcome, levels, bound) -> None:
    meta, rects, texts, _ = read_svg(artifact(outcome))
    rows = _svg_rows(rects)
    need(len(rows) == len(levels), f"svg has {len(rows)} rows for {len(levels)} levels")
    labels = [t for t in texts if t.startswith("level ")]
    need(labels == [f"level {v}" for v in levels] or not labels, "svg level labels differ")
    x0, eps = _svg_zero(texts, bound)
    for k, row in enumerate(rows):
        need(x0 is None or any(a - eps <= x0 <= b + eps for a, b in row), f"svg row {k}: 0 is not in the cover")
        if k:
            # rectangles are at least 0.3 px wide, so nesting holds to that width
            _check_nested(rows[k - 1], [(a, a) for a, _ in row], f"svg row {k}", slack=0.31)
    _check_meta(meta, outcome)


def _svg_zero(texts, bound):
    """Pixel x of energy 0 and its uncertainty, from the hull labels (4 decimals).

    Returns (None, None) when the hull is too narrow for the labels to place 0;
    0 must then still lie within the labelled hull."""
    lo, hi = float(texts[-2]), float(texts[-1])
    need(-bound - 1e-4 <= lo and hi <= bound + 1e-4, "svg hull leaves the search interval")
    need(lo - 5e-5 <= 0.0 <= hi + 5e-5, "svg hull does not contain 0")
    span = hi - lo
    if span < 0.01:
        return None, None
    usable = SVG_W - 2 * SVG_M
    return SVG_M + (0.0 - lo) / span * usable, usable * 1e-4 / span + 0.01


def _check_meta(meta: dict, outcome) -> None:
    p = outcome.job.params
    need(str(meta.get("subcommand")) == outcome.job.kind, "metadata names another subcommand")
    need(int(meta.get("s")) == p["s"], "metadata s differs")
    if "lam" in p:
        need(math.isclose(float(meta["a"]), hopping(p["lam"]), rel_tol=1e-15), "metadata a differs")


def _levels(p) -> list[int]:
    return [int(v) for v in p["levels"].split(",")] if "levels" in p else [p["level"]]


def check_spectrum1d(outcome, ql) -> None:
    p = outcome.job.params
    bound = 2.0 * (1.0 + hopping(p["lam"]))
    levels = _levels(p)
    if p["fmt"] == "svg":
        return _check_svg_covers(outcome, levels, bound)
    if p["fmt"] == "csv":
        meta, header, rows = read_csv(artifact(outcome))
        need(header == ["level", "band_lo", "band_hi"], "csv header")
        covers = {}
        for lv, a, b in rows:
            covers.setdefault(int(lv), []).append((float(a), float(b)))
        got = list(covers)
        covers = [covers[v] for v in got]
    else:
        meta, data = read_json(artifact(outcome))
        got = [c["level"] for c in data]
        covers = [[tuple(b) for b in c["bands"]] for c in data]
    need(got == levels, f"levels {got} != {levels}")
    for lv, cover in zip(levels, covers):
        _check_cover(cover, bound, f"level {lv}")
    for k in range(1, len(covers)):
        _check_nested(covers[k - 1], covers[k], f"level {levels[k]}")
    _check_meta(meta, outcome)


def check_thickness(outcome, ql) -> None:
    p = outcome.job.params
    bound = 2.0 * (1.0 + hopping(p["lam"]))
    if p["fmt"] == "csv":
        meta, header, rows = read_csv(artifact(outcome))
        kv = dict(rows)
        t = float(kv["thickness_estimate"])
        total, hull = float(kv["total_length"]), (float(kv["hull_lo"]), float(kv["hull_hi"]))
        nb, ng = int(kv["band_count"]), int(kv["gap_count"])
    else:
        meta, data = read_json(artifact(outcome))
        t = float(data["thickness_estimate"])
        total, hull = data["total_length"], tuple(data["hull"])
        nb, ng = data["band_count"], data["gap_count"]
    levels = meta["levels"]
    if isinstance(levels, str):  # csv metadata prints the list as "[1, 2, 3]"
        levels = [int(v) for v in levels.strip("[]").split(",")]
    need(levels == _levels(p), "metadata levels differ")
    need(t > 0.0, f"thickness {t} is not positive")
    need(nb >= 1 and ng == nb - 1, f"{nb} bands with {ng} gaps")
    need(-bound <= hull[0] <= 0.0 <= hull[1] <= bound, f"hull {hull} misses 0 or leaves the bound")
    need(0.0 < total <= hull[1] - hull[0], f"total length {total} outside (0, hull]")
    if p["gaps"]:
        _, header, rows = read_csv(artifact(outcome, "gaps.csv"))
        gaps = [(float(a), float(b)) for a, b in rows]
        need(len(gaps) == ng, f"gap file lists {len(gaps)} gaps, report says {ng}")
        need(all(hull[0] < a < b < hull[1] for a, b in gaps), "gap outside the hull or empty")
        need(all(b1 < a2 for (_, b1), (a2, _) in zip(gaps, gaps[1:])), "gaps not sorted")
        need(not any(a < 0.0 < b for a, b in gaps), "0 lies in a gap")
    _check_meta(meta, outcome)


def check_spectrum2d(outcome, ql) -> None:
    p = outcome.job.params
    bound = 4.0 * (1.0 + hopping(p["lam1"])) * (1.0 + hopping(p["lam2"]))
    if p["fmt"] == "svg":
        meta, rects, texts, _ = read_svg(artifact(outcome))
        rows = _svg_rows(rects)
        need(len(rows) == 1, "product svg has more than one row")
        x0, eps = _svg_zero(texts, bound)
        need(x0 is None or any(a - eps <= x0 <= b + eps for a, b in rows[0]), "0 is not in the product cover")
        return
    if p["fmt"] == "csv":
        meta, header, rows = read_csv(artifact(outcome))
        cover = [(float(a), float(b)) for lv, a, b in rows]
        need({int(r[0]) for r in rows} == {p["level"]}, "product cover level")
    else:
        meta, data = read_json(artifact(outcome))
        cover = [tuple(b) for b in data["bands"]]
        need(data["level"] == p["level"], "product cover level")
    _check_cover(cover, bound, "product cover")
    need(math.isclose(float(meta["a"]), hopping(p["lam1"]), rel_tol=1e-15)
         and math.isclose(float(meta["a2"]), hopping(p["lam2"]), rel_tol=1e-15), "metadata a1/a2 differ")


def check_sweep(outcome, ql) -> None:
    p = outcome.job.params
    lams = np.linspace(p["lam_min"], p["lam_max"], p["steps"])
    k = p["steps"]
    if p["fmt"] == "svg":
        meta, rects, _, _ = read_svg(artifact(outcome))
        need(len(rects) == k * k, f"{len(rects)} cells for {k}x{k} grid")
        cw, ch = (SVG_W - 2 * SVG_M) / k, (SVG_H - 2 * SVG_M) / k
        color = {}
        for r in rects:
            i = round((float(r["x"]) - SVG_M) / cw)
            j = round((SVG_H - SVG_M - float(r["y"])) / ch) - 1
            color[(i, j)] = r["fill"]
        need(set(color.values()) <= {"#2a9d3a", "#c43131"}, "unknown cell colour")
        need(all(color[(i, j)] == color[(j, i)] for i in range(k) for j in range(k)),
             "is_interval verdict not symmetric in (lambda1, lambda2)")
        return
    if p["fmt"] == "csv":
        meta, header, rows = read_csv(artifact(outcome))
        need(header == ["lambda1", "lambda2", "is_interval", "total_gap_length", "thickness1",
                        "thickness2"], "csv header")
        table = [[float(v) for v in row] for row in rows]
    else:
        meta, data = read_json(artifact(outcome))
        table = [[float(d[c]) for c in ("lambda1", "lambda2", "is_interval", "total_gap_length",
                                        "thickness1", "thickness2")] for d in data]
    need(len(table) == k * k, f"{len(table)} rows for a {k}x{k} grid")
    cell = {}
    for n, row in enumerate(table):
        i, j = divmod(n, k)
        need(row[0] == lams[i] and row[1] == lams[j], f"row {n} is not on the coupling grid")
        need(row[2] in (0.0, 1.0) and row[3] >= 0.0, f"row {n} verdict or gap length")
        need(row[4] > 0.0 and row[5] > 0.0, f"row {n} thickness not positive")
        cell[(i, j)] = row
    for i in range(k):
        for j in range(k):
            a, b = cell[(i, j)], cell[(j, i)]
            need(a[2] == b[2] and a[3] == b[3], "product spectrum not symmetric in the couplings")
            need(a[4] == cell[(i, 0)][4] and a[5] == cell[(0, j)][5] and a[4] == cell[(0, i)][5],
                 "thickness of one coupling differs between rows")


def check_sequence(outcome, ql) -> None:
    p = outcome.job.params
    s, n = p["s"], p["n"]
    lengths = [1, 1]  # L(-1), L(0)
    for _ in range(n):
        lengths.append(s * lengths[-1] + lengths[-2])
    expect = ref.metallic_prefix(s, lengths[-1])
    if p["fmt"] == "csv":
        meta, _, rows = read_csv(artifact(outcome))
        kv = dict(rows)
        word, length, parity = kv["word"], int(kv["length"]), [int(c) for c in kv["parity_pattern"]]
        twin_offset = kv.get("twin_offset")
    else:
        meta, data = read_json(artifact(outcome))
        word, length, parity = data["word"], data["length"], data["parity_pattern"]
        twin = data.get("twin")
        twin_offset = twin["report"]["offset"] if twin and twin["report"] else ("" if twin else None)
    need(length == len(word) == lengths[-1], f"word length {len(word)} != L({n}) = {lengths[-1]}")
    if p["beta"] is None:
        need(word == expect, "word differs from the substitution iterate")
    else:
        need(set(word) <= {"a", "b"} and "bb" not in word, "rotation coding has a letter outside {a, b} or bb")
        need(abs(word.count("b") - expect.count("b")) <= 1, "rotation coding is not balanced")
    want_parity = [v % 2 for v in lengths[1:1 + max(n, 3)]]  # L(0), L(1), ...
    need(parity == want_parity, "parity pattern")
    if p["twin_k"] is not None:
        need(twin_offset not in (None, ""), "twin report missing")
        need(int(twin_offset) % 2 == 1, "twin offset is not odd")
    _check_meta(meta, outcome)


# ---------------------------------------------------------------------------
# dos-fresh


def _dos1d_windows(p, ql):
    """(name, couplings) of every curve the job reports, in output order."""
    a = hopping(p["lam"])
    out = [("substitution:0", ref.weights(ref.metallic_prefix(p["s"], p["n"]), a)[1:])]
    if p["phases"] > 1:
        for b in np.random.default_rng(p["seed"]).random(p["phases"] - 1):
            letters = ql.words.rotation_sequence(p["s"], float(b), range(1, p["n"] + 1))
            out.append((f"rotation:{b:.6f}", ref.weights(letters, a)[1:]))
    return out


def check_dos1d(outcome, ql) -> None:
    p = outcome.job.params
    a, n = hopping(p["lam"]), p["n"]
    e_hi = 2.0 * max(a, 1.0) + 0.5
    grid = np.linspace(-e_hi, e_hi, 401)
    windows = _dos1d_windows(p, ql)
    if p["fmt"] == "svg":
        meta, _, _, lines = read_svg(artifact(outcome))
        pts = np.array([[float(v) for v in xy.split(",")] for xy in lines[0]["points"].split()])
        curves = {windows[0][0]: (360.0 - pts[:, 1]) / 320.0}
        energies, px = grid, 1e-4 / 320.0
    elif p["fmt"] == "json":
        meta, data = read_json(artifact(outcome))
        energies = np.array(data["energies"])
        curves = {c["window"]: np.array(c["ids"]) for c in data["curves"]}
        need(np.allclose(data["free_ids"], np.arccos(np.clip(-grid / 2, -1, 1)) / np.pi * (np.abs(grid) < 2)
                         + (grid >= 2), atol=1e-12), "free-chain IDS")
        px = 0.0
    else:
        meta, header, rows = read_csv(artifact(outcome))
        if header == ["energy", "ids"]:
            energies = np.array([float(r[0]) for r in rows])
            curves = {windows[0][0]: np.array([float(r[1]) for r in rows])}
        else:
            curves = {}
            for name, e, v in rows:
                curves.setdefault(name, []).append((float(e), float(v)))
            energies = np.array([e for e, _ in next(iter(curves.values()))])
            curves = {k: np.array([v for _, v in c]) for k, c in curves.items()}
        px = 0.0
    need(np.allclose(energies, grid, rtol=0, atol=1e-12), "energy grid")
    want = [w[0] for w in windows] if p["fmt"] != "svg" else [windows[0][0]]
    need(list(curves) == want, f"curves {list(curves)[:3]}... != {want[:3]}...")
    for name, off in windows[:len(want)]:
        counts, cuts = ref.block_counts(off, grid)
        err = np.max(np.abs(curves[name] * n - counts))
        need(err <= cuts + 1 + px * n, f"{name}: IDS off by {err:.0f} eigenvalues (allowed {cuts + 1})")
    if p["fmt"] != "svg" and len(curves) > 1:
        vals = list(curves.values())
        spread = max(float(np.max(np.abs(x - y))) for i, x in enumerate(vals) for y in vals[i + 1:])
        need(float(meta["max_pairwise_spread"]) == spread, "max_pairwise_spread")
    _check_meta(meta, outcome)


def _count_bounds(sorted_products, energies, slack):
    return ref.count_leq(sorted_products, energies - slack), ref.count_leq(sorted_products, energies + slack)


def check_dos2d(outcome, ql) -> None:
    p = outcome.job.params
    n = p["n"]
    e1 = ref.axis_eigs(p["s"], hopping(p["lam1"]), n)
    e2 = ref.axis_eigs(p["s"], hopping(p["lam2"]), n)
    prods = ref.sorted_products(e1, e2)
    hull = max(-prods[0], prods[-1])
    slack = PRODUCT_SLACK * max(1.0, hull)
    hist = None
    if p["fmt"] == "svg":
        meta, _, texts, lines = read_svg(artifact(outcome))
        pts = np.array([[float(v) for v in xy.split(",")] for xy in lines[0]["points"].split()])
        cdf, px = (360.0 - pts[:, 1]) / 320.0, 1e-4 / 320.0
        energies = np.linspace(-1.05 * hull, 1.05 * hull, pts.shape[0])
        need(abs(float(texts[-1]) - 1.05 * hull) <= 1e-4, "svg energy range")
    elif p["fmt"] == "json":
        meta, data = read_json(artifact(outcome))
        energies, cdf, px = np.array(data["energies"]), np.array(data["cdf"]), 0.0
        hist = np.array(data["histogram"]["mass"])
    else:
        meta, _, rows = read_csv(artifact(outcome))
        energies = np.array([float(r[0]) for r in rows])
        cdf, px = np.array([float(r[1]) for r in rows]), 0.0
        _, _, hrows = read_csv(artifact(outcome, "hist.csv"))
        hist = np.array([float(r[1]) for r in hrows])
    need(energies.size == 401 and abs(energies[-1] / 1.05 - hull) <= slack, "energy grid or hull")
    lo, hi = _count_bounds(prods, energies, slack)
    got = cdf * n * n
    need(bool(np.all((got >= lo - px * n * n - 1e-6) & (got <= hi + px * n * n + 1e-6))),
         "CDF differs from direct enumeration of the eigvalsh products")
    if hist is not None:
        need(abs(hist.sum() - 1.0) <= 1e-9, "histogram mass does not sum to 1")
        edges = np.linspace(energies[0], energies[-1], hist.size + 1)
        below_lo = ref.count_lt(prods, edges - slack)
        below_hi = ref.count_lt(prods, edges + slack)
        counts = np.rint(hist * n * n)
        need(bool(np.all((counts >= below_lo[1:] - below_hi[:-1]) & (counts <= below_hi[1:] - below_lo[:-1]))),
             "histogram differs from direct enumeration")
    need(math.isclose(float(meta["a"]), hopping(p["lam1"]), rel_tol=1e-15), "metadata a1")


# ---------------------------------------------------------------------------
# identities


def _model_products(p, n):
    e1 = ref.axis_eigs(p["s"], p["a1"], n)
    e2 = ref.axis_eigs(p["s"], p["a2"], n)
    prods = ref.sorted_products(e1, e2)
    return e1, e2, prods, PRODUCT_SLACK * max(1.0, float(max(-prods[0], prods[-1])))


def check_dos2d_cdf(outcome, ql) -> None:
    p = outcome.job.params
    n = p["n"]
    _, _, prods, slack = _model_products(p, n)
    lo, hi = _count_bounds(prods, np.array(p["energies"]), slack)
    got = np.rint(outcome.result * n * n)
    need(outcome.result.shape == (len(p["energies"]),), "result shape")
    need(bool(np.all((got >= lo) & (got <= hi))), "product counts differ from direct N^2 enumeration")


def check_logconv(outcome, ql) -> None:
    p = outcome.job.params
    n = p["n"]
    _, _, prods, slack = _model_products(p, n)
    lo, hi = _count_bounds(prods, np.array([p["lo"], p["hi"]]), slack)
    d_min, d_max = (lo[1] - hi[0]) / n**2, (hi[1] - lo[0]) / n**2
    r = outcome.result
    need(d_min - 1e-12 <= r["direct"] <= d_max + 1e-12, "direct interval mass differs from enumeration")
    tol = 2.0 / p["bins"] + 2.0 * (2 * n - 1) / n**2
    need(d_min - tol <= r["conv"] <= d_max + tol,
         f"log-convolution mass {r['conv']:.4g} misses direct mass [{d_min:.4g}, {d_max:.4g}] by more than {tol:.3g}")


def _kron_blocks(p):
    side = p["side"]
    t1 = ref.tridiagonal(ref.axis_couplings(p["s"], p["a1"], side))
    t2 = ref.tridiagonal(ref.axis_couplings(p["s"], p["a2"], side))
    full = np.kron(t1, t2)  # site (m, k) -> index m * side + k
    parity = np.add.outer(np.arange(side), np.arange(side)).ravel() % 2
    return t1, t2, full, parity


def check_tensor(outcome, ql) -> None:
    p = outcome.job.params
    t1, t2, full, _ = _kron_blocks(p)
    want = np.linalg.eigvalsh(full)
    tol = PRODUCT_SLACK * (1.0 + float(np.linalg.norm(full)))
    dense, prod = outcome.result["dense"], outcome.result["product"]
    need(dense.shape == want.shape and float(np.max(np.abs(dense - want))) <= tol,
         "dense 2D eigenvalues differ from eigvalsh")
    outer = np.sort(np.multiply.outer(np.linalg.eigvalsh(t1), np.linalg.eigvalsh(t2)).ravel())
    need(float(np.max(np.abs(prod - outer))) <= tol, "product eigenvalues differ from eigvalsh")
    need(float(np.max(np.abs(dense - prod))) <= 1e-7, "tensor law deviation above criterion 6's 1e-7")


def check_sublattice(outcome, ql) -> None:
    p = outcome.job.params
    side = p["side"]
    _, _, full, parity = _kron_blocks(p)
    eig = {"full": np.linalg.eigvalsh(full)}
    for name, par in (("even", 0), ("odd", 1)):
        idx = np.flatnonzero(parity == par)
        eig[name] = np.linalg.eigvalsh(full[np.ix_(idx, idx)])
    r = outcome.result
    need((r["sites_full"], r["sites_even"], r["sites_odd"])
         == (side * side, eig["even"].size, eig["odd"].size), "sublattice sizes")
    eps = PRODUCT_SLACK * (1.0 + float(np.linalg.norm(full)))
    for key, (x, y) in {"even_odd_distance": ("even", "odd"), "full_even_distance": ("full", "even"),
                        "full_odd_distance": ("full", "odd")}.items():
        lo, hi = ref.ks_bounds(eig[x], eig[y], eps)
        need(lo - 1e-12 <= r[key] <= hi + 1e-12, f"{key} {r[key]:.4g} outside [{lo:.4g}, {hi:.4g}]")


_CHECKS = {
    "spectrum1d": check_spectrum1d,
    "thickness": check_thickness,
    "spectrum2d": check_spectrum2d,
    "sweep": check_sweep,
    "sequence": check_sequence,
    "dos1d": check_dos1d,
    "dos2d": check_dos2d,
    "dos2d_cdf": check_dos2d_cdf,
    "logconv": check_logconv,
    "tensor": check_tensor,
    "sublattice": check_sublattice,
}
