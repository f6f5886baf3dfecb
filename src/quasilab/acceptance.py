"""Quantitative verification suite for the whole toolkit.

Each criterion checks one structural property of the models at desk scale with
a pinned tolerance: invariant conservation, the torus factor identity, the
free-chain spectrum and counting function, spectral symmetry, the 2D tensor
law, the product form of the 2D counting measure, the log-convolution identity,
the interval/Cantor dichotomy of the product spectrum, membership of zero in
every spectrum, twin combinatorics, and the thickness trend in the coupling.

Criteria with a runtime budget report a boolean ``runtime_ok``; wall-clock
values are deliberately left out of the rendered table so that repeated runs
are byte-identical (the final criterion re-runs everything and compares).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import bands, labyrinth, tracemap, words
from .dense import symmetric_eigenvalues
from .jacobi1d import ModelParams, build_window, free_ids, hopping_from_coupling, ids_curve

_SEED = 20260810


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    runtime_ok: bool | None
    runtime_limit_s: float | None
    detail: str

    @property
    def ok(self) -> bool:
        return self.passed and self.runtime_ok is not False


@functools.cache
def _covers(a: float, levels: tuple) -> tuple:
    """The s = 1 covers of hopping ``a`` at resolution 1e-4 that criteria share; ``run_all`` clears them."""
    return tuple(tracemap.cover_sequence(ModelParams(1, a), levels, 1e-4))


# ---------------------------------------------------------------------------
# checks, each returning (passed, detail)


def _trace_conservation() -> tuple[bool, str]:
    rng = np.random.default_rng(_SEED)
    pts = rng.uniform(-2.0, 2.0, size=(100_000, 3))
    v = tracemap.TraceVector(pts[:, 0], pts[:, 1], pts[:, 2])
    g0 = tracemap.fricke_vogt(v)
    worst = 0.0
    for s in (1, 2, 3):
        g1 = tracemap.fricke_vogt(tracemap.trace_map(s, v))
        worst = max(worst, float(np.max(np.abs(g1 - g0) / (1.0 + np.abs(g0)))))
    return worst <= 1e-10, f"max relative drift {worst:.3e} (tol 1e-10)"


def _semiconjugacy() -> tuple[bool, str]:
    rng = np.random.default_rng(_SEED + 1)
    theta, phi = rng.random(10_000), rng.random(10_000)
    worst = 0.0
    for s in (1, 2, 3):
        lhs = tracemap.trace_map(s, tracemap.factor_map(theta, phi))
        rhs = tracemap.factor_map(*tracemap.cat_map(s, theta, phi))
        for l, r in zip(lhs, rhs):
            worst = max(worst, float(np.max(np.abs(l - r))))
    return worst <= 1e-10, f"max deviation {worst:.3e} (tol 1e-10)"


def _free_spectrum() -> tuple[bool, str]:
    cover = _covers(1.0, (20,))[0]
    if cover.count != 1:
        return False, f"expected one band, got {cover.count}"
    lo, hi = cover.intervals[0].tolist()
    dist = max(abs(lo + 2.0), abs(hi - 2.0))
    return dist <= 1e-3, f"single band, Hausdorff distance to [-2,2] {dist:.3e} (tol 1e-3)"


def _free_ids() -> tuple[bool, str]:
    grid = np.linspace(-2.5, 2.5, 401)
    curve = ids_curve(ModelParams(1, 1.0), grid, 4096)
    err = float(np.max(np.abs(curve - free_ids(grid))))
    return err <= 1e-2, f"sup deviation {err:.3e} over 401 energies at N=4096 (tol 1e-2)"


def _spectral_symmetry() -> tuple[bool, str]:
    worst = 0.0
    for s in (1, 2):
        for a in (1.5, 2.0, 4.0):
            for n in (257, 512):
                # LAPACK, not the Sturm solver, which mirrors by construction
                off = build_window(ModelParams(s, a), n)[1:]
                e = symmetric_eigenvalues(np.diag(off, 1) + np.diag(off, -1))
                worst = max(worst, float(np.max(np.abs(e + e[::-1]))))
    return worst <= 1e-9, f"max |e_k + e_(N+1-k)| {worst:.3e} (tol 1e-9)"


def _tensor_law() -> tuple[bool, str]:
    p = labyrinth.LabyrinthParams(1, 1.3, 1.5)
    worst = 0.0
    for n in (6, 8):
        dense = labyrinth.dense_eigs_2d(labyrinth.build_2d(p, n)).support
        prod = np.sort(labyrinth.product_eigs(p, n).support)
        worst = max(worst, float(np.max(np.abs(dense - prod))))
    return worst <= 1e-7, f"max multiset deviation {worst:.3e} at N=6,8 (tol 1e-7)"


def _product_cdf() -> tuple[bool, str]:
    n = 8
    p = labyrinth.LabyrinthParams(1, 1.3, 1.5)
    dense = labyrinth.dense_eigs_2d(labyrinth.build_2d(p, n))
    hull = float(np.max(np.abs(dense.support))) * 1.05
    grid = np.linspace(-hull, hull, 401)
    got = labyrinth.dos2d_cdf(p, grid, n)
    err = float(np.max(np.abs(got - dense.cdf(grid))))
    tol = 1.0 / n**2 + 1e-9
    return err <= tol, f"sup deviation {err:.3e} over 401 energies at N=8 (tol {tol:.3e})"


def _log_convolution() -> tuple[bool, str]:
    n, nbins = 1024, 1024
    a = hopping_from_coupling(0.5)
    p = labyrinth.LabyrinthParams(1, a, a)
    prods = labyrinth.product_eigs(p, n)
    qs = np.quantile(prods.support, np.linspace(0.02, 0.98, 21))
    tol = 2.0 / nbins + 2.0 * (2 * n - 1) / n**2
    worst = 0.0
    for lo, hi in zip(qs, qs[1:]):
        direct = labyrinth.dos2d_cdf(p, float(hi), n) - labyrinth.dos2d_cdf(p, float(lo), n)
        conv = labyrinth.log_convolution_cdf(p, (float(lo), float(hi)), n, nbins)
        worst = max(worst, abs(conv - direct))
    return worst <= tol, f"max interval deviation {worst:.3e} over 20 intervals (tol {tol:.3e})"


def _small_coupling_interval() -> tuple[bool, str]:
    res = 1e-4
    a = hopping_from_coupling(0.1)
    c1 = _covers(a, (15,))[0]
    prod = bands.product_set(c1, c1)
    wide = [hi - lo for lo, hi in bands.gaps(prod).tolist() if hi - lo > 4.0 * res]
    return (bands.is_interval(prod, 4.0 * res),
            f"{len(wide)} gaps above tol {4 * res:.1e} (largest {max(wide, default=0.0):.3e})")


def _large_coupling_cantor() -> tuple[bool, str]:
    prods = [bands.product_set(c, c) for c in _covers(4.0, (5, 10, 15))]
    lengths = [prod.total_length for prod in prods]
    has_gaps = prods[-1].count > 1
    return (lengths[0] > lengths[1] > lengths[2] and has_gaps,
            "product lengths " + " > ".join(f"{v:.4f}" for v in lengths) + f", gaps present: {has_gaps}")


#: The period of T_s on the E = 0 orbit, for s = 1, 2, 3 (see :func:`_zero_in_spectrum`).
ZERO_ORBIT_PERIOD = {1: 6, 2: 2, 3: 6}


def _zero_in_spectrum() -> tuple[bool, str]:
    """0 lies in every spectrum: its orbit is periodic, and every cover and product holds it.

    The orbit starts at line_point(p, 0) = (c, 0, 0), c = -(a^2 + 1)/(2a).
    While a point has one nonzero coordinate, 2xz is +-0 and U acts as
    R(x, y, z) = (-y, x, z), so T_s acts as the signed permutation R^s P and
    the point keeps one nonzero coordinate.  R P (x, y, z) = (-z, x, y) runs
    e_x -> e_y -> e_z -> -e_x, so s = 1 has period 6; R^2 P (x, y, z) =
    (-x, -z, y) sends e_x to -e_x, period 2; R^3 P (x, y, z) = (z, -x, y) runs
    e_x -> -e_y -> -e_z -> -e_x, period 6.  c is only copied and negated, so
    T_s^p returns the start exactly under ``==``, which equates +-0 (the zeros'
    signs need not return), at every coupling.
    """
    periodic = True
    for s, period in ZERO_ORBIT_PERIOD.items():
        for lam in (0.0, 0.5, 1.5, 3.75):
            start = v = tracemap.line_point(ModelParams(s, hopping_from_coupling(lam)), 0.0)
            for _ in range(period):
                v = tracemap.trace_map(s, v)
            periodic &= all(x == x0 for x, x0 in zip(v, start))
    # the covers of criteria 3, 9 and 10
    covers = _covers(1.0, (20,)) + _covers(hopping_from_coupling(0.1), (15,)) + _covers(4.0, (5, 10, 15))
    missing = [c for c in covers if not c.contains(0.0)]
    prod_ok = all(bands.product_set(c, c).contains(0.0) for c in covers)
    return (periodic and not missing and prod_ok,
            f"orbit of E=0 returns after {', '.join(map(str, ZERO_ORBIT_PERIOD.values()))} steps "
            f"for s=1, 2, 3 at 4 couplings: {periodic}; "
            f"{len(covers)} covers checked, {len(missing)} missing zero")


def _twins() -> tuple[bool, str]:
    cap = 10**7
    ok = True
    checked = 0
    for s in (1, 2, 3):
        expected = [1] * 12 if s % 2 == 0 else [1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1]
        if words.parity_pattern(s, 12) != expected:
            ok = False
        for k in range(1, 13):
            y = words.iterate(s, k, max_len=cap)
            x = words.twin_witness(s, k, max_len=cap)
            rep = words.find_twin(y, x, "odd")
            checked += 1
            if len(x) > 3 * len(y) or rep is None or not rep.check(y, x):
                ok = False
    return ok, f"{checked} witnesses verified for s in {{1,2,3}}, k <= 12; parity patterns match"


def _thickness_trend() -> tuple[bool, str]:
    lams = (1.0, 0.5, 0.2, 0.1)
    taus = [bands.thickness(_covers(hopping_from_coupling(lam), (15,))[0]) for lam in lams]
    inversions = []
    for i in range(len(taus) - 1):
        if taus[i + 1] < taus[i]:
            drop = (taus[i] - taus[i + 1]) / taus[i]
            inversions.append(drop)
    ok = len(inversions) == 0 or (len(inversions) == 1 and inversions[0] <= 0.05)
    shown = ", ".join("inf" if math.isinf(t) else f"{t:.3f}" for t in taus)
    return ok, f"thickness at lambda {lams}: {shown}; inversions {len(inversions)}"


#: Criterion k is row k - 1: (name, runtime budget in seconds or None, check).
#: A budget covers the whole check.
_CRITERIA = [
    ("trace-map conservation", 5.0, _trace_conservation),
    ("torus semi-conjugacy", None, _semiconjugacy),
    ("free-chain spectrum", 10.0, _free_spectrum),
    ("free-chain counting function", None, _free_ids),
    ("spectral symmetry", None, _spectral_symmetry),
    ("2D tensor law", 30.0, _tensor_law),
    ("2D counting measure product form", None, _product_cdf),
    ("log-convolution identity", None, _log_convolution),
    ("small-coupling product interval", None, _small_coupling_interval),
    ("large-coupling Cantor trend", None, _large_coupling_cantor),
    ("zero belongs to every spectrum", None, _zero_in_spectrum),
    ("twin combinatorics", None, _twins),
    ("thickness trend in the coupling", None, _thickness_trend),
]


#: The number of the determinism check, which follows the measurement criteria.
DETERMINISM_CRITERION = len(_CRITERIA) + 1


def run_criterion(number: int) -> CriterionResult:
    if not 1 <= number <= len(_CRITERIA):
        raise ValueError(f"criterion number must be in 1..{len(_CRITERIA)}, got {number}")
    name, budget, check = _CRITERIA[number - 1]
    t0 = time.perf_counter()
    passed, detail = check()
    elapsed = time.perf_counter() - t0
    return CriterionResult(number, name, passed, None if budget is None else elapsed < budget, budget, detail)


def run_all(numbers=None) -> list[CriterionResult]:
    """Run the selected criteria (default: all measurement criteria) on freshly computed covers."""
    _covers.cache_clear()
    selected = range(1, len(_CRITERIA) + 1) if numbers is None else numbers
    return [run_criterion(n) for n in selected]


def format_table(results) -> str:
    lines = ["criterion                                 status  runtime  detail"]
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        if r.runtime_ok is None:
            runtime = "-"
        else:
            runtime = f"<{r.runtime_limit_s:.0f}s" if r.runtime_ok else "OVER"
        lines.append(f"{r.number:2d} {r.name:<38} {status:<6} {runtime:<8} {r.detail}")
    return "\n".join(lines) + "\n"


def run_determinism_check() -> tuple[CriterionResult, list[CriterionResult]]:
    """Criterion 14: run the full suite twice and compare the rendered tables.

    Each run starts from empty memos of 1D eigenvalue lists and of covers, so
    the second recomputes everything instead of reusing the first's results.
    """
    labyrinth.axis_eigenvalues.cache_clear()
    first = run_all()
    labyrinth.axis_eigenvalues.cache_clear()
    second = run_all()
    identical = format_table(first) == format_table(second)
    result = CriterionResult(
        DETERMINISM_CRITERION, "determinism of the verification run", identical, None, None,
        "two fresh runs rendered byte-identical tables" if identical
        else "reruns differ: outputs are not deterministic",
    )
    return result, first
