"""The 2D Labyrinth model: diagonal hoppings with weights omega1(.) * omega2(.).

On the box [0, N-1]^2 with Dirichlet boundary (couplings leaving the box are
dropped) the operator is unitarily the tensor product of the two 1D chains
restricted to [0, N-1], so its N^2 eigenvalues are exactly the pairwise products
of the two 1D eigenvalue lists and its spectrum is the product of the 1D
spectra.  Diagonal couplings preserve the parity of m + n, which splits the
operator into even and odd sublattice blocks.

Restriction convention: the 1D factor on [0, N-1] carries the couplings
omega(1), ..., omega(N-1) between consecutive sites, mirroring the 1D window
rule that boundary bonds are dropped; the 2D coupling from (m, n) to
(m+1, n+1) is omega1(m+1) * omega2(n+1).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import tracemap
from .bands import DEFAULT_LOG_FLOOR, BandCover, product_set
from .dense import symmetric_eigenvalues
from .errors import ResourceLimitError
from .jacobi1d import ModelParams, build_window, eigenvalues_offdiag
from .measures import EmpiricalMeasure, ks_distance

#: Dense matrices are limited to boxes with at most this side length (N^2 <= 256).
DENSE_SIDE_CAP = 16

#: Product eigenvalue lists are limited to boxes with at most this side length.
PRODUCT_SIDE_CAP = 4096

#: Rows x energies elements in one pass of :func:`count_products_leq`.
_COUNT_BLOCK = 2**16

#: Bisection tolerance of the 1D eigenvalue lists feeding product formulas.
EIG_TOL = 1e-11

#: Number of 1D eigenvalue lists :func:`axis_eigenvalues` keeps in memory.
AXIS_MEMO_SIZE = 32


@dataclasses.dataclass(frozen=True)
class LabyrinthParams:
    """Common substitution order s and the two per-axis hopping values."""

    s: int
    a1: float
    a2: float

    def __post_init__(self):
        for a in (self.a1, self.a2):
            ModelParams(self.s, a)

    @property
    def axis1(self) -> ModelParams:
        return ModelParams(self.s, self.a1)

    @property
    def axis2(self) -> ModelParams:
        return ModelParams(self.s, self.a2)


def build_2d(p: LabyrinthParams, n: int, sublattice: str = "full") -> np.ndarray:
    """The Labyrinth operator on [0, N-1]^2 with Dirichlet boundary, as a dense matrix.

    The full operator is the Kronecker product A1 (x) A2, where A_i is the N x N
    zero-diagonal Jacobi matrix of axis i's couplings omega_i(1 .. N-1), in the
    basis of the sites (m, k) in row-major order.  ``sublattice`` keeps the
    principal submatrix of the sites of even or odd parity of m + k; the full
    operator is the direct sum of the two.  Sides above DENSE_SIDE_CAP raise
    ResourceLimitError before anything is allocated.
    """
    if n < 2:
        raise ValueError("the box needs side length at least 2")
    if sublattice not in ("full", "even", "odd"):
        raise ValueError(f"unknown sublattice {sublattice!r}")
    if n > DENSE_SIDE_CAP:
        raise ResourceLimitError(f"dense solves are capped at side {DENSE_SIDE_CAP}, got {n}")
    w1, w2 = (build_window(axis, n - 1) for axis in (p.axis1, p.axis2))
    mat = np.kron(np.diag(w1, 1) + np.diag(w1, -1), np.diag(w2, 1) + np.diag(w2, -1))
    if sublattice == "full":
        return mat
    keep = np.add.outer(np.arange(n), np.arange(n)).ravel() % 2 == (sublattice == "odd")
    return mat[np.ix_(keep, keep)]


def dense_eigs_2d(matrix: np.ndarray) -> EmpiricalMeasure:
    """All eigenvalues of a :func:`build_2d` matrix through the dense LAPACK solver."""
    return EmpiricalMeasure(symmetric_eigenvalues(matrix))


#: The memoised 1D eigenvalue lists, keyed by (s, a, N), least recently used first.
_AXIS_MEMO: dict = {}


def _axis_lists(s: int, hoppings, n: int) -> list:
    """The memoised eigenvalue lists of the chains with these hopping values.

    The lists not memoised are solved together, as one stack of windows
    (see :func:`eigenvalues_offdiag`), and each is the same bits as its own
    solve.  Every list asked for becomes the most
    recently used; beyond AXIS_MEMO_SIZE the least recently used are dropped.
    """
    keys = [(s, a, n) for a in hoppings]
    cold = [key for key in dict.fromkeys(keys) if key not in _AXIS_MEMO]
    if cold:
        windows = np.stack([build_window(ModelParams(s, a), n)[:-1] for _, a, _ in cold])
        for key, eigs in zip(cold, eigenvalues_offdiag(windows, EIG_TOL)):
            eigs.setflags(write=False)
            _AXIS_MEMO[key] = eigs
    for key in keys:
        _AXIS_MEMO[key] = _AXIS_MEMO.pop(key)
    while len(_AXIS_MEMO) > AXIS_MEMO_SIZE:
        del _AXIS_MEMO[next(iter(_AXIS_MEMO))]
    return [_AXIS_MEMO[key] for key in keys]


def axis_eigenvalues(s: int, a: float, n: int) -> np.ndarray:
    """Sorted, read-only eigenvalues of one 1D chain restricted to [0, N-1].

    The couplings are the first N-1 hopping values.  The solver mirrors the
    nonnegative half, so the list is exactly symmetric, with an exact zero for
    odd N (see :func:`eigenvalues_offdiag`).  The last AXIS_MEMO_SIZE lists are
    memoised in process; ``axis_eigenvalues.cache_clear()`` empties the memo.
    """
    return _axis_lists(s, (a,), n)[0]


axis_eigenvalues.cache_clear = _AXIS_MEMO.clear


def eigs_1d_axes(p: LabyrinthParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue lists of the two 1D restrictions to [0, N-1] (see :func:`axis_eigenvalues`).

    Two different axes that are not memoised are solved as one stack of windows.
    """
    return tuple(_axis_lists(p.s, (p.a1, p.a2), n))


def product_eigs(p: LabyrinthParams, n: int) -> EmpiricalMeasure:
    """All N^2 pairwise products of the two 1D eigenvalue lists.

    By the tensor factorisation these are exactly the eigenvalues of the full
    2D box.
    """
    if n > PRODUCT_SIDE_CAP:
        raise ResourceLimitError(f"product lists are capped at side {PRODUCT_SIDE_CAP}, got {n}")
    e1, e2 = eigs_1d_axes(p, n)
    return EmpiricalMeasure(np.multiply.outer(e1, e2).ravel())


# ---------------------------------------------------------------------------
# product counting


def _row_counts(a: np.ndarray, b: np.ndarray, e: np.ndarray) -> np.ndarray:
    """#{j: fl(a[i] * b[j]) <= e[k]} as an (i, k) array, for a >= 0 and ascending b, guessed and verified."""
    x = a[:, None]
    c = np.searchsorted(b, e / x, side="right")
    # the products on either side of each guess must straddle e; with the -+inf
    # sentinels an end needs no clamp, and a zero row (0 * inf is NaN) fails
    padded = np.concatenate([[-np.inf], b, [np.inf]])
    i, k = np.nonzero(~((x * padded[c] <= e) & (x * padded[c + 1] > e)))
    if i.size:
        # bisect the other entries on the actual products: the largest m with fl(a * b[m-1]) <= e
        ai, ek, m = a[i], e[k], np.zeros(i.size, dtype=np.intp)
        bit = 1 << (b.size.bit_length() - 1)
        while bit:
            t = m + bit
            m += bit * ((t <= b.size) & (ai * b[np.minimum(t, b.size) - 1] <= ek))
            bit >>= 1
        c[i, k] = m
    return c


def _searched_counts(a: np.ndarray, b: np.ndarray, e: np.ndarray, twice: bool) -> np.ndarray:
    """Sum over i of #{j: fl(a[i] * b[j]) <= e[k]}, for a >= 0 and ascending b, by a search of each row of products.

    Each row's products are nondecreasing, so ``searchsorted`` on them is the
    count itself.  With ``twice`` the rows a[i] > 0 count twice.  NaN energies
    count 0.
    """
    order = np.argsort(e)  # sorted needles search faster; NaNs sort last and are left out
    order = order[: e.size - np.count_nonzero(np.isnan(e))]
    keys = e[order]
    total = np.zeros(keys.size, dtype=np.int64)
    prod = np.empty_like(b)
    for x in a.tolist():
        c = np.searchsorted(np.multiply(x, b, out=prod), keys, side="right")
        total += c
        if twice and x > 0:
            total += c
    counts = np.zeros(e.size, dtype=np.int64)
    counts[order] = total
    return counts


#: From this many energies on, :func:`count_products_leq` searches each row of
#: products (a few numpy calls a row); below it, it guesses each (row, energy)
#: count and verifies it (a few passes over rows x energies arrays).  On two
#: mirrored axes of N = 136-1024 (2-core x86, best of 9) the two cost the same
#: near 192 energies; at 128 the guess took 0.67-0.87 of the search's time, at
#: 256 the search took 0.86-0.88 of the guess's.  dos2d asks for 658 energies
#: at its defaults, a dos2d_cdf query for 1-33.
ROW_SEARCH_ENERGIES = 256


def count_products_leq(e1, e2, energies):
    """#{(i, j): fl(e1[i] * e2[j]) <= E} for a scalar energy E or each of an array.

    Exact without forming all products at once.  Rounding is monotone and
    negation is exact, so with a = |e1[i]| the row's products fl(a * e2[j]),
    or fl(a * -e2[j]) when e1[i] < 0, are nondecreasing along e2 ascending
    (along -e2 ascending), and the pairs with product <= E form a prefix of
    that order.  Two formulations find its length, chosen by the number of
    energies (ROW_SEARCH_ENERGIES):

    - *many energies*: each row's N2 products are formed and searched for
      every energy, so each count is exact as found;
    - *few energies*: the length is guessed by ``searchsorted`` on E / a and
      kept where the actual products on either side of it straddle E; other
      entries (zero rows, a quotient rounded across the split, NaN) are
      bisected on the actual products.  Energies go in chunks of about
      _COUNT_BLOCK rows x energies elements.

    Both give the count the N1 x N2 comparison gives, NaN energies counting 0,
    and #{p < E} is the count at ``np.nextafter(E, -inf)``.

    When both lists are mirrored, -e[::-1] == e (as ``eigenvalues_offdiag``
    returns them, bit for bit), a row -x of e1 against -e2[::-1] counts what
    row x counts against e2, so one pass over the rows e1 >= 0 counts each
    positive row twice and a zero row once.  The test costs O(N) and no sort.
    """
    e1 = np.asarray(e1, dtype=float)
    e2 = np.sort(np.asarray(e2, dtype=float))
    energies = np.asarray(energies, dtype=float)
    flat = energies.reshape(-1)
    counts = np.zeros(flat.size, dtype=np.int64)
    mirrored = np.array_equal(-e1[::-1], e1) and np.array_equal(-e2[::-1], e2)
    halves = ((np.abs(e1[e1 >= 0]), e2), (-e1[e1 < 0], -e2[::-1]))
    for a, b in halves[:1] if mirrored else halves:
        if a.size == 0 or b.size == 0:
            continue
        # E / 0, E / tiny and overflowing products are guesses or the very floats compared
        with np.errstate(all="ignore"):
            if flat.size >= ROW_SEARCH_ENERGIES:
                counts += _searched_counts(a, b, flat, mirrored)
                continue
            step = max(1, _COUNT_BLOCK // a.size)
            for k in range(0, flat.size, step):
                rows = _row_counts(a, b, flat[k:k + step])
                counts[k:k + step] += rows.sum(axis=0)
                if mirrored:  # the rows -x of e1, which the positive rows x stand for
                    counts[k:k + step] += rows[a > 0].sum(axis=0)
    return int(counts[0]) if energies.ndim == 0 else counts.reshape(energies.shape)


def histogram_bounds(edges) -> np.ndarray:
    """The energies whose :func:`count_products_leq` counts difference into np.histogram's bins over ``edges``.

    Bin [edge_k, edge_k+1) holds the products <= the float below edge_k+1 and
    not <= the float below edge_k; the last bin is closed, so its upper bound
    is the last edge itself.
    """
    edges = np.asarray(edges, dtype=float)
    return np.append(np.nextafter(edges[:-1], -np.inf), edges[-1])


def product_histogram(e1, e2, edges) -> np.ndarray:
    """Counts of the products fl(e1[i] * e2[j]) in np.histogram's bins over ``edges``.

    The bins are [edge_k, edge_k+1), the last one closed, as in ``np.histogram``
    of the N1 x N2 products, which are never formed: each bin is a difference
    of two :func:`count_products_leq` counts at :func:`histogram_bounds`.
    """
    return np.diff(count_products_leq(e1, e2, histogram_bounds(edges)))


def dos2d_cdf(p: LabyrinthParams, energy, n: int) -> float | np.ndarray:
    """Finite-volume 2D DOS: (1/N^2) #{(k1, k2): E_{1,k1} * E_{2,k2} <= E}.

    This is the double-integral product formula for the 2D counting measure,
    evaluated exactly on the finite eigenvalue lists by :func:`count_products_leq`
    for a scalar energy or an array of them.
    """
    e1, e2 = eigs_1d_axes(p, n)
    return count_products_leq(e1, e2, energy) / (float(n) * float(n))


# ---------------------------------------------------------------------------
# log-convolution route


def log_convolution_cdf(p: LabyrinthParams, interval: tuple[float, float], n: int, bins: int) -> float:
    """Mass the 2D DOS gives the interval (lo, hi], via log-histogram convolution.

    Both 1D measures are symmetric, so the 2D measure of a set A equals
    2 [ (nu1bar * nu2bar)(log A+) + (nu1bar * nu2bar)(log A-) ], where nu_ibar is
    the log-pushforward of nu_i restricted to (0, inf), A+ = A intersect (0, inf)
    and A- = (-A) intersect (0, inf).  The convolution is evaluated on equal-width
    histograms of the positive 1D eigenvalues' logarithms, clipped below at
    log DEFAULT_LOG_FLOOR.  The zero products of odd N (2N - 1 of the N^2)
    carry no mass here; a comparison with the direct count must allow for
    them, as acceptance criterion 8's tolerance term 2(2N - 1)/N^2 does.
    Infinite interval endpoints are allowed.
    """
    if bins < 64:
        raise ValueError("need at least 64 histogram bins")
    lo, hi = float(interval[0]), float(interval[1])
    if hi < lo:
        raise ValueError("interval endpoints must be ordered")
    e1, e2 = eigs_1d_axes(p, n)
    log_hi = math.log(2.0 * (1.0 + max(p.a1, p.a2, 1.0)))
    log_lo = math.log(DEFAULT_LOG_FLOOR)
    edges = np.linspace(log_lo, log_hi, bins + 1)
    width = edges[1] - edges[0]

    def log_hist(e: np.ndarray) -> np.ndarray:
        pos = np.log(e[e > 0])
        pos = np.clip(pos, log_lo, log_hi)
        h, _ = np.histogram(pos, bins=edges)
        return h.astype(float) / e.size

    conv = np.convolve(log_hist(e1), log_hist(e2))
    centers = 2.0 * log_lo + width * (np.arange(conv.size) + 1.0)

    def conv_mass(plo: float, phi: float) -> float:
        """Convolution mass of (log plo, log phi] against bin centers."""
        if phi <= 0.0:
            return 0.0
        upper = math.log(phi) if math.isfinite(phi) else math.inf
        mask = centers <= upper
        if plo > 0.0:
            lower = math.log(plo) if math.isfinite(plo) else math.inf
            mask &= centers > lower
        return float(conv[mask].sum())

    plus = conv_mass(max(lo, 0.0), hi)
    minus = conv_mass(max(-hi, 0.0), -lo)
    return 2.0 * (plus + minus)


# ---------------------------------------------------------------------------
# spectra and sublattices


def spectrum_2d(p: LabyrinthParams, level: int, resolution: float, *,
                initial_grid: int = tracemap.DEFAULT_GRID) -> BandCover:
    """Product of the two 1D band covers at the given level (see :func:`tracemap.spectrum_cover`)."""
    c1 = tracemap.spectrum_cover(p.axis1, level, resolution, initial_grid=initial_grid)
    if p.a2 == p.a1:
        c2 = c1
    else:
        c2 = tracemap.spectrum_cover(p.axis2, level, resolution, initial_grid=initial_grid)
    return product_set(c1, c2)


@dataclasses.dataclass(frozen=True)
class SublatticeReport:
    """Sup-distances between the eigenvalue CDFs of the parity blocks."""

    n: int
    sites_full: int
    sites_even: int
    sites_odd: int
    even_odd_distance: float
    full_even_distance: float
    full_odd_distance: float

    def to_json_obj(self) -> dict:
        return dataclasses.asdict(self)


def sublattice_dos_compare(p: LabyrinthParams, n: int) -> SublatticeReport:
    """Dense-solve the full box and its parity blocks and compare their CDFs.

    The three normalised counting measures converge to the same limit; the
    reported sup-distances quantify how close they already are at size ``n``.
    """
    mats = {sub: build_2d(p, n, sub) for sub in ("full", "even", "odd")}
    eigs = {sub: dense_eigs_2d(mat) for sub, mat in mats.items()}
    return SublatticeReport(
        n,
        len(mats["full"]), len(mats["even"]), len(mats["odd"]),
        ks_distance(eigs["even"], eigs["odd"]),
        ks_distance(eigs["full"], eigs["even"]),
        ks_distance(eigs["full"], eigs["odd"]),
    )
