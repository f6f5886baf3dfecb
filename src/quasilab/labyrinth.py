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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tracemap
from .bands import BandCover, product_set
from .cache import cache_key, cached_eigenvalues
from .dense import symmetric_eigenvalues
from .errors import ResourceLimitError
from .jacobi1d import ModelParams, build_window, eigenvalues_offdiag
from .measures import EmpiricalMeasure, ks_distance

#: Dense solves are limited to boxes with at most this side length (N^2 <= 256).
DENSE_SIDE_CAP = 16

#: Product eigenvalue lists are limited to boxes with at most this side length.
PRODUCT_SIDE_CAP = 4096

#: Above this size the product CDF switches to the sorted two-pointer counter.
DIRECT_COUNT_CAP = 2048

#: Default tolerance for the 1D eigenvalue lists feeding product formulas.
DEFAULT_EIG_TOL = 1e-11

#: Number of 1D eigenvalue lists :func:`axis_eigenvalues` keeps in memory.
AXIS_MEMO_SIZE = 32

_CONVENTION = "box0-v1"


@dataclass(frozen=True)
class LabyrinthParams:
    """Common substitution order s and the two per-axis hopping values."""

    s: int
    a1: float
    a2: float

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("s must be a positive integer")
        if not all(a > 0 and 0.0 < a * a < math.inf for a in (self.a1, self.a2)):
            raise ValueError(
                f"hopping values must be positive and finite, and so must their squares, "
                f"got a1={self.a1}, a2={self.a2}"
            )

    @property
    def couplings(self) -> tuple[float, float]:
        return (abs(self.a1**2 - 1) / self.a1, abs(self.a2**2 - 1) / self.a2)

    @property
    def axis1(self) -> ModelParams:
        return ModelParams(self.s, self.a1)

    @property
    def axis2(self) -> ModelParams:
        return ModelParams(self.s, self.a2)


@dataclass(frozen=True, eq=False)
class Sparse2DOperator:
    """Directed coupling table of a Labyrinth box, optionally parity restricted.

    ``entries`` maps (m, n, dm, dn) with dm, dn in {-1, +1} to the bond weight
    between sites (m, n) and (m+dm, n+dn); both directions are stored and their
    weights agree.  ``sites`` fixes the basis order of the dense form.
    """

    n: int
    sublattice: str
    sites: tuple = field(repr=False)
    entries: dict = field(repr=False)

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    def to_dense(self) -> np.ndarray:
        index = {site: i for i, site in enumerate(self.sites)}
        mat = np.zeros((self.num_sites, self.num_sites))
        for (m, n, dm, dn), w in self.entries.items():
            mat[index[(m, n)], index[(m + dm, n + dn)]] = w
        return mat


def _axis_couplings(p: LabyrinthParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """omega_i(1 .. N-1): the in-box couplings along each axis."""
    w1 = build_window(p.axis1, n - 1).weights
    w2 = build_window(p.axis2, n - 1).weights
    return w1, w2


def build_2d(p: LabyrinthParams, n: int, sublattice: str = "full") -> Sparse2DOperator:
    """Assemble the Labyrinth operator on [0, N-1]^2 with Dirichlet boundary.

    ``sublattice`` restricts the site set to even or odd parity of m + n; the
    full operator is the direct sum of the two restrictions.
    """
    if n < 2:
        raise ValueError("the box needs side length at least 2")
    if sublattice not in ("full", "even", "odd"):
        raise ValueError(f"unknown sublattice {sublattice!r}")
    w1, w2 = _axis_couplings(p, n)
    want = {"full": (0, 1), "even": (0,), "odd": (1,)}[sublattice]
    sites = tuple(
        (m, k) for m in range(n) for k in range(n) if (m + k) % 2 in want
    )
    site_set = set(sites)
    entries = {}
    for (m, k) in sites:
        for dm in (-1, 1):
            for dn in (-1, 1):
                tgt = (m + dm, k + dn)
                if tgt not in site_set:
                    continue
                # bond (m, m+1) along axis 1 carries omega1(m+1) = w1[m]
                wa = w1[m] if dm == 1 else w1[m - 1]
                wb = w2[k] if dn == 1 else w2[k - 1]
                entries[(m, k, dm, dn)] = float(wa * wb)
    return Sparse2DOperator(n, sublattice, sites, entries)


def dense_eigs_2d(op: Sparse2DOperator) -> EmpiricalMeasure:
    """All eigenvalues of the operator through the dense LAPACK solver."""
    if op.n > DENSE_SIDE_CAP:
        raise ResourceLimitError(
            f"dense solves are capped at side {DENSE_SIDE_CAP}, got {op.n}"
        )
    return EmpiricalMeasure(symmetric_eigenvalues(op.to_dense()))


@functools.lru_cache(maxsize=AXIS_MEMO_SIZE)
def axis_eigenvalues(s: int, a: float, n: int, tol: float) -> np.ndarray:
    """Sorted, read-only eigenvalues of one 1D chain restricted to [0, N-1].

    For odd N the middle eigenvalue snaps to exactly zero: a zero-diagonal
    tridiagonal matrix of odd size is singular (its determinant recurrence
    det_N = -b^2 det_{N-2} bottoms out at det_1 = 0), and bisection puts the
    computed value within tol of it anyway.  The last AXIS_MEMO_SIZE lists are
    memoised in process; a miss goes through the disk cache, which is active
    when QUASILAB_CACHE_DIR is set.
    """

    def compute():
        if n == 1:
            return np.zeros(1)
        off = build_window(ModelParams(s, a), n - 1).weights
        bound = 2.0 * (1.0 + float(np.max(off)))
        eigs = eigenvalues_offdiag(off, tol, search_bound=bound)
        if n % 2 == 1:
            eigs[n // 2] = 0.0
        return eigs

    eigs = cached_eigenvalues(cache_key(s, a, n, _CONVENTION, tol), n, compute)
    eigs.setflags(write=False)
    return eigs


def eigs_1d_axes(p: LabyrinthParams, n: int, tol: float = DEFAULT_EIG_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue lists of the two 1D restrictions to [0, N-1] (see :func:`axis_eigenvalues`)."""
    if n < 1:
        raise ValueError("N must be positive")
    return axis_eigenvalues(p.s, p.a1, n, tol), axis_eigenvalues(p.s, p.a2, n, tol)


def product_eigs(p: LabyrinthParams, n: int, tol: float = DEFAULT_EIG_TOL) -> EmpiricalMeasure:
    """All N^2 pairwise products of the two 1D eigenvalue lists.

    By the tensor factorisation these are exactly the eigenvalues of the full
    2D box.
    """
    if n > PRODUCT_SIDE_CAP:
        raise ResourceLimitError(f"product lists are capped at side {PRODUCT_SIDE_CAP}, got {n}")
    e1, e2 = eigs_1d_axes(p, n, tol)
    return EmpiricalMeasure(np.multiply.outer(e1, e2).ravel())


def zero_product_mass(p: LabyrinthParams, n: int, tol: float = DEFAULT_EIG_TOL) -> float:
    """Fraction of product eigenvalues that are exactly zero ((2N-1)/N^2 for odd N)."""
    e1, e2 = eigs_1d_axes(p, n, tol)
    z1 = int(np.count_nonzero(e1 == 0.0))
    z2 = int(np.count_nonzero(e2 == 0.0))
    return (z1 * n + z2 * n - z1 * z2) / (n * n)


# ---------------------------------------------------------------------------
# product counting


def _count_leq_direct(e1: np.ndarray, e2: np.ndarray, energy: float) -> int:
    return int(np.count_nonzero(np.multiply.outer(e1, e2) <= energy))


def _pairs_leq_two_pointer(a: np.ndarray, b: np.ndarray, bound: float) -> int:
    """#{(i, j): a[i] * b[j] <= bound} for ascending positive arrays."""
    total = 0
    j = b.size
    for x in a:
        while j > 0 and x * b[j - 1] > bound:
            j -= 1
        total += j
    return total


def _pairs_geq_two_pointer(a: np.ndarray, b: np.ndarray, bound: float) -> int:
    """#{(i, j): a[i] * b[j] >= bound} for ascending positive arrays."""
    total = 0
    j = 0
    for x in reversed(a):
        while j < b.size and x * b[j] < bound:
            j += 1
        total += b.size - j
    return total


def _count_leq_sorted(e1: np.ndarray, e2: np.ndarray, energy: float) -> int:
    """Sign-quadrant two-pointer count of pairs with product <= energy.

    Uses the same floating-point products as the direct counter (negations are
    exact), so the two paths agree exactly wherever both run.
    """
    neg1 = np.sort(-e1[e1 < 0])
    pos1 = e1[e1 > 0]
    neg2 = np.sort(-e2[e2 < 0])
    pos2 = e2[e2 > 0]
    z1 = e1.size - neg1.size - pos1.size
    z2 = e2.size - neg2.size - pos2.size
    if energy >= 0.0:
        mixed = neg1.size * pos2.size + pos1.size * neg2.size
        zero = z1 * e2.size + z2 * e1.size - z1 * z2
        same = _pairs_leq_two_pointer(neg1, neg2, energy) + _pairs_leq_two_pointer(pos1, pos2, energy)
        return mixed + zero + same
    # negative threshold: only opposite-sign products can reach it
    return _pairs_geq_two_pointer(neg1, pos2, -energy) + _pairs_geq_two_pointer(pos1, neg2, -energy)


def count_products_leq(e1, e2, energy: float, method: str = "auto") -> int:
    """Number of pairs with e1[i] * e2[j] <= energy.

    ``method`` is "direct" (full N^2 enumeration), "sorted" (two-pointer sweeps
    per sign quadrant, O(N log N)), or "auto" (direct up to side 2048).
    """
    e1 = np.sort(np.asarray(e1, dtype=float))
    e2 = np.sort(np.asarray(e2, dtype=float))
    if method == "auto":
        method = "direct" if max(e1.size, e2.size) <= DIRECT_COUNT_CAP else "sorted"
    if method == "direct":
        return _count_leq_direct(e1, e2, energy)
    if method == "sorted":
        return _count_leq_sorted(e1, e2, energy)
    raise ValueError(f"unknown counting method {method!r}")


def dos2d_cdf(p: LabyrinthParams, energy, n: int, *, tol: float = DEFAULT_EIG_TOL,
              method: str = "auto") -> float | np.ndarray:
    """Finite-volume 2D DOS: (1/N^2) #{(k1, k2): E_{1,k1} * E_{2,k2} <= E}.

    This is the double-integral product formula for the 2D counting measure,
    evaluated exactly on the finite eigenvalue lists.
    """
    e1, e2 = eigs_1d_axes(p, n, tol)
    scalar = np.isscalar(energy) or np.asarray(energy).ndim == 0
    energies = [float(energy)] if scalar else list(np.asarray(energy, dtype=float))
    vals = np.array([count_products_leq(e1, e2, e, method) for e in energies], dtype=float)
    vals /= float(n) * float(n)
    return float(vals[0]) if scalar else vals


# ---------------------------------------------------------------------------
# log-convolution route


def log_convolution_cdf(
    p: LabyrinthParams,
    interval: tuple[float, float],
    n: int,
    bins: int,
    *,
    tol: float = DEFAULT_EIG_TOL,
    floor: float = 1e-12,
) -> float:
    """Mass the 2D DOS gives the interval (lo, hi], via log-histogram convolution.

    Both 1D measures are symmetric, so the 2D measure of a set A equals
    2 [ (nu1bar * nu2bar)(log A+) + (nu1bar * nu2bar)(log A-) ], where nu_ibar is
    the log-pushforward of nu_i restricted to (0, inf), A+ = A intersect (0, inf)
    and A- = (-A) intersect (0, inf).  The convolution is evaluated on equal-width
    histograms of the positive 1D eigenvalues' logarithms; zero eigenvalues (odd
    N) carry no mass here and are accounted separately by
    :func:`zero_product_mass`.  Infinite interval endpoints are allowed.
    """
    if bins < 64:
        raise ValueError("need at least 64 histogram bins")
    lo, hi = float(interval[0]), float(interval[1])
    if hi < lo:
        raise ValueError("interval endpoints must be ordered")
    e1, e2 = eigs_1d_axes(p, n, tol)
    log_hi = math.log(2.0 * (1.0 + max(p.a1, p.a2, 1.0)))
    log_lo = math.log(floor)
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


def spectrum_2d(p: LabyrinthParams, level: int, resolution: float, **cover_kwargs) -> BandCover:
    """Product of the two 1D outer band covers at the given level."""
    c1 = tracemap.spectrum_cover(p.axis1, level, resolution, **cover_kwargs)
    if p.a2 == p.a1:
        c2 = c1
    else:
        c2 = tracemap.spectrum_cover(p.axis2, level, resolution, **cover_kwargs)
    prod = product_set(c1, c2)
    return BandCover(prod.intervals, level=level, s=p.s, coupling=None, resolution=resolution)


@dataclass(frozen=True)
class SublatticeReport:
    """Sup-distances between the eigenvalue CDFs of the parity blocks."""

    n: int
    sizes: tuple[int, int, int]  # full, even, odd
    even_odd_distance: float
    full_even_distance: float
    full_odd_distance: float

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "sites_full": self.sizes[0],
            "sites_even": self.sizes[1],
            "sites_odd": self.sizes[2],
            "even_odd_distance": self.even_odd_distance,
            "full_even_distance": self.full_even_distance,
            "full_odd_distance": self.full_odd_distance,
        }


def sublattice_dos_compare(p: LabyrinthParams, n: int) -> SublatticeReport:
    """Dense-solve the full box and its parity blocks and compare their CDFs.

    The three normalised counting measures converge to the same limit; the
    reported sup-distances quantify how close they already are at size ``n``.
    """
    ops = {sub: build_2d(p, n, sub) for sub in ("full", "even", "odd")}
    eigs = {sub: dense_eigs_2d(op) for sub, op in ops.items()}
    return SublatticeReport(
        n,
        (ops["full"].num_sites, ops["even"].num_sites, ops["odd"].num_sites),
        ks_distance(eigs["even"], eigs["odd"]),
        ks_distance(eigs["full"], eigs["even"]),
        ks_distance(eigs["full"], eigs["odd"]),
    )
