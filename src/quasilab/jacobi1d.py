"""Finite Dirichlet restrictions of the one-dimensional off-diagonal operator.

A hopping sequence omega over {a, 1} (letter a -> value a, letter b -> value 1)
drawn from a metallic-mean sequence defines the Jacobi matrix

    (H psi)(n) = omega(n+1) psi(n+1) + omega(n) psi(n-1).

The restriction to an N-site window keeps only the interior couplings, giving a
zero-diagonal symmetric tridiagonal matrix.  Eigenvalue counting runs through a
Sturm (LDL^T inertia) recurrence vectorised over energies, and full spectra come
from bisection on those counts; the integrated density of states (IDS) is the
normalised counting function.

The diagonal is zero, so the chain is bipartite: flipping the sign on every
other site maps H to -H, the spectrum is symmetric about 0, and for odd N
(det_N = -b^2 det_{N-2}, det_1 = 0) it contains 0.  The solver bisects only
the nonnegative half and mirrors it.

The recurrence runs in plain IEEE arithmetic with no pivot guard, as in Kahan's
bisection and LAPACK ``dstebz``: a zero pivot makes the next pivot an infinity,
b^2 / inf = 0 makes the one after it -E again, and a pivot counts as negative
when its sign bit is set, so -0.0 and -inf count.  Kahan's analysis, carried
over to IEEE infinities by Demmel, Dhillon and Ren (ETNA 1995), shows that this
count is monotone in the energy, which bisection needs.

The bisection is dqds-predicted: LAPACK's dlasq1, reached through ctypes in
the OpenBLAS that numpy's wheels bundle (builds checked: numpy 2.4.6, Linux
x86-64), gives the eigenvalues to high relative accuracy, each bisection
decision is read off them, and Sturm counts verify the path, so the result
keeps plain bisection's bits; without dlasq1 every decision is counted (see
:func:`eigenvalues_offdiag`).
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
from dataclasses import dataclass

import numpy as np

from .words import prefix, rotation_sequence

def coupling_constant(a: float) -> float:
    """|a^2 - 1| / a, the single parameter controlling the spectral type."""
    if a <= 0:
        raise ValueError(f"the hopping value must be positive, got a={a}")
    return abs(a * a - 1.0) / a


def hopping_from_coupling(lam: float) -> float:
    """Inverse of :func:`coupling_constant` on the branch a >= 1.

    Solves a^2 - lam*a - 1 = 0 for its positive root (lam + sqrt(lam^2 + 4))/2.
    """
    if lam < 0:
        raise ValueError("coupling constants are nonnegative")
    return (lam + math.sqrt(lam * lam + 4.0)) / 2.0


@dataclass(frozen=True)
class ModelParams:
    """One off-diagonal operator family: substitution order s and hopping value a."""

    s: int
    a: float

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("s must be a positive integer")
        if not (self.a > 0 and 0.0 < self.a * self.a < math.inf):
            raise ValueError(
                f"the hopping value a must be positive and finite, and so must its square, got {self.a}"
            )

    @property
    def coupling(self) -> float:
        return coupling_constant(self.a)

    @classmethod
    def from_coupling(cls, s: int, lam: float) -> "ModelParams":
        return cls(s, hopping_from_coupling(lam))


def build_window(params: ModelParams, n: int, source: str = "substitution", *, beta: float = 0.0) -> np.ndarray:
    """Hopping values omega(1 .. N) from the substitution sequence or a rotation coding.

    ``source="substitution"`` takes the first N letters of u_s (at most the word
    cap); ``source="rotation"`` codes the circle rotation at phase ``beta`` over
    the same indices.  Letters map a -> params.a, b -> 1.  The N-site Dirichlet
    restriction drops omega(1), the bond leaving the box on the left, and keeps
    the N-1 couplings ``w[1:]``.
    """
    if n < 1:
        raise ValueError("window length must be positive")
    if source == "substitution":
        letters = prefix(params.s, n)
    elif source == "rotation":
        letters = rotation_sequence(params.s, beta, range(1, n + 1))
    else:
        raise ValueError(f"unknown window source {source!r}")
    codes = np.frombuffer(letters.encode("ascii"), dtype=np.uint8)
    return np.where(codes == ord("a"), params.a, 1.0)


# ---------------------------------------------------------------------------
# Sturm counting and bisection

#: Pivot rows held before their sign bits are counted in one pass (at most
#: 255, so that a block's per-energy count fits the uint8 accumulator).
_COUNT_BLOCK = 32


def _count_sign_bits(rows: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Per-column number of entries with the sign bit set (-0.0 and -inf count)."""
    signs = np.signbit(rows, out=signs[: rows.shape[0]])
    return np.add.reduce(signs.view(np.uint8), axis=0, dtype=np.uint8)


def count_below_offdiag(offdiag, energies) -> np.ndarray:
    """Eigenvalues of the zero-diagonal tridiagonal matrix below each energy.

    ``offdiag`` holds the N-1 couplings of an N x N matrix.  The LDL^T pivot
    recurrence q_1 = -E, q_k = -E - b_{k-1}^2 / q_{k-1} counts eigenvalues through
    the number of pivots with the sign bit set, in IEEE arithmetic without a
    pivot guard (see the module docstring); the computation is vectorised
    across energies.  A zero coupling (b^2 = 0) splits the matrix into a direct
    sum; each block is counted on its own and the counts are added, so no 0/0
    pivot arises and the count stays monotone.  At an energy that is itself an
    eigenvalue of a leading submatrix the count may land on either side of the
    jump.  NaN energies raise ``ValueError``.
    """
    off = np.asarray(offdiag, dtype=float)
    off2 = np.square(off)
    neg_e = np.negative(np.atleast_1d(np.asarray(energies, dtype=float)))
    if np.isnan(neg_e).any():
        raise ValueError("energies must not be NaN")
    cuts = np.flatnonzero(off2 == 0.0)
    if cuts.size:
        ends = np.concatenate([[-1], cuts, [off.size]])
        return sum(count_below_offdiag(off[lo + 1:hi], energies) for lo, hi in zip(ends, ends[1:]))
    buf = np.empty((min(_COUNT_BLOCK, off2.size + 1), neg_e.size))
    rows = list(buf)
    signs = np.empty(buf.shape, dtype=bool)
    t = np.empty_like(neg_e)
    count = np.zeros(neg_e.size, dtype=np.int64)
    q = rows[0]
    np.copyto(q, neg_e)
    row, block = 1, len(rows)
    divide, subtract = np.divide, np.subtract
    with np.errstate(divide="ignore", over="ignore"):
        for b2 in off2.tolist():
            if row == block:
                count += _count_sign_bits(buf, signs)
                row = 0
            divide(b2, q, out=t)
            q = rows[row]
            subtract(neg_e, t, out=q)
            row += 1
    count += _count_sign_bits(buf[:row], signs)
    return count


@functools.cache
def _dlasq1():
    """LAPACK's dlasq1 (ILP64) from the OpenBLAS beside the numpy package, or None.

    Looked up once per process, without importing scipy (0.2-0.4 s a process).
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    i64 = ctypes.POINTER(ctypes.c_int64)
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        try:
            fn = ctypes.CDLL(path).scipy_dlasq1_64_
        except (OSError, AttributeError):  # the library does not load, or lacks the symbol
            continue
        fn.argtypes, fn.restype = [i64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, i64], None
        return fn
    return None


def _predict_offdiag(off: np.ndarray) -> np.ndarray | None:
    """The floor(N/2) nonnegative eigenvalues, ascending, from dlasq1; None without it.

    In even/odd site order H = [[0, C], [C^T, 0]], where C is the
    ceil(N/2) x floor(N/2) lower-bidiagonal block with C[i, i] = b[2i] and
    C[i+1, i] = b[2i+1], so the spectrum is +-sigma(C), plus 0 for odd N.
    dlasq1 takes C^T as a square upper bidiagonal of side k = ceil(N/2): for odd
    N a zero last diagonal entry adds one zero singular value, which is
    dropped.  A failure (INFO != 0) gives NaNs, which the verification rejects.
    """
    dlasq1 = _dlasq1()
    if dlasq1 is None:
        return None
    n = off.size + 1
    m, k = n // 2, n - n // 2
    d, e, work = np.zeros(k), np.zeros(k), np.empty(4 * k)
    d[:m], e[: (n - 1) // 2] = off[0::2], off[1::2]
    info = ctypes.c_int64(0)
    dlasq1(ctypes.byref(ctypes.c_int64(k)), d.ctypes.data, e.ctypes.data, work.ctypes.data, ctypes.byref(info))
    return np.sort(d)[k - m :] if info.value == 0 else np.full(m, np.nan)


def _bisect(off, grid, k, tol, guess, delta):
    """The bisection of :func:`eigenvalues_offdiag`: the last midpoints of lanes k, or None.

    A decision count(E) > k is read as E > guess[lane] wherever
    |E - guess[lane]| > ``delta`` and is a Sturm count elsewhere, so with
    delta = inf every decision is counted.  None is returned unless one count
    over the final brackets verifies the path.
    """
    # on [0, inf) the count is ceil(N/2) plus the guesses below E, away from them
    below = np.searchsorted(guess, grid - delta)
    counts = off.size + 1 - k.size + below
    near = np.flatnonzero(below != np.searchsorted(guess, grid + delta, side="right"))
    if near.size:
        counts[near] = count_below_offdiag(off, grid[near])
    # the kth smallest eigenvalue lies in [grid[j-1], grid[j]) for the first j
    # whose count exceeds k; j = 0 or j = grid.size pins it at an end
    j = np.searchsorted(counts, k, side="right")
    lo = grid[np.maximum(j - 1, 0)]
    hi = grid[np.minimum(j, grid.size - 1)]
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((hi - lo > tol) & (lo < mid) & (mid < hi)):
            break
        above = mid > guess
        # a lane pinned at an end (lo == hi) keeps its value whatever is decided
        near = np.flatnonzero((np.abs(mid - guess) <= delta) & (lo < hi))
        if near.size:
            above[near] = count_below_offdiag(off, mid[near]) > k[near]
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    final = count_below_offdiag(off, np.concatenate([lo, hi]))
    held = ((final[: k.size] <= k) | (j == 0)) & ((final[k.size :] > k) | (j == grid.size))
    return mid if held.all() else None


def eigenvalues_offdiag(offdiag, tol: float = 1e-10) -> np.ndarray:
    """All eigenvalues of the zero-diagonal tridiagonal matrix, by bisection.

    The spectrum is symmetric (see the module docstring), so only the
    nonnegative half is computed.  A uniform grid of 2N+1 energies over
    [0, bound], bound = 2(1 + max|b|) a Gershgorin-style bound, seeds a bracket
    for each of the floor(N/2) largest eigenvalues; each bracket is then halved
    until its width is at most ``tol`` or its midpoint rounds to an endpoint.
    The result is those values, their negatives and, for odd N, an exact 0.0,
    sorted: each e_k is bit for bit -e_(N+1-k).  ``tol`` must be positive and
    the couplings finite.

    Each decision of this bisection is whether count(E) > k, with count the
    Sturm count.  The nonnegative eigenvalues are the singular values x_k of
    the odd-even block of H, which LAPACK's dqds returns
    (:func:`_predict_offdiag`), and the decision is read as E > x_k except on
    the lanes where |E - x_k| <= delta: those lanes, and only those, get a
    Sturm count, in one pass per step.  On the grid, the count is
    ceil(N/2) + #{x_k < E} except at the points within delta of some x_k,
    which are counted.  One count over the final brackets must then give
    count(lo) <= k < count(hi), on one side only for a bracket pinned at an
    end of the grid.  The count is monotone in E (module docstring), and
    brackets only shrink, so a wrong decision leaves the count's jump past k
    outside the final bracket for good and the check fails.  A check that
    passes means every decision was the one the count makes, so every bit of
    the result is that of plain bisection.  Where dlasq1 is not found
    (:func:`_dlasq1`) or the check fails, the same bisection runs with
    delta = inf, so that every decision is counted.

    delta = N * eps * bound is the scale of the distance from x_k to the energy
    where the count passes k.  dqds returns every singular value of the
    bidiagonal C to a relative O(N * eps) (Demmel and Kahan, SIAM J. Sci. Stat.
    Comput. 11, 1990; Fernando and Parlett, Numer. Math. 67, 1994); the IEEE
    count at E is the exact count of the chain with its couplings changed by a
    few ulps (Kahan; Demmel, Dhillon and Ren), which moves each eigenvalue by a
    relative O(N * eps) at most (Demmel and Kahan).  Both are at most a few
    N * eps * |C|, and |C| <= 2 max|b| < bound.  Over 200 model windows (s =
    1-3, coupling 0.01-60, N 2-4096) the largest distance measured was 0.23
    N * eps * bound.  delta sets only how many counts are made: one too small
    fails the check and costs a second bisection, never a different result.

    Cost: dlasq1 takes O(N^2) time and O(N) memory.  On a 2-core Xeon (one
    BLAS thread, best of 5) the s = 1, a = 1.6 chain at tol = 1e-11 took 16 /
    164 ms at N = 1023 / 4096, with 8 / 11 counts.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    off = np.asarray(offdiag, dtype=float)
    n = off.size + 1
    bound = 2.0 * (1.0 + (float(np.max(np.abs(off))) if off.size else 0.0))
    if not bound < math.inf:
        raise ValueError("couplings must be finite")
    grid = np.linspace(0.0, bound, 2 * n + 1)
    k = np.arange(n - n // 2, n)
    guess = _predict_offdiag(off)
    mid = None if guess is None else _bisect(off, grid, k, tol, guess, n * np.finfo(float).eps * bound)
    if mid is None:
        mid = _bisect(off, grid, k, tol, np.zeros(k.size), math.inf)
    pos = np.sort(mid)
    return np.concatenate([-pos[::-1], np.zeros(n % 2), pos])


def ids_curve(params: ModelParams, energies, n: int, *, source: str = "substitution",
              beta: float = 0.0) -> np.ndarray:
    """Finite-volume IDS (1/N) #{eigenvalues <= E} over a vector of energies."""
    w = build_window(params, n, source, beta=beta)
    return count_below_offdiag(w[1:], energies).astype(float) / n


def free_ids(energy):
    """IDS of the free chain: 0 below -2, 1 above 2, else arccos(-E/2)/pi."""
    e = np.asarray(energy, dtype=float)
    inner = np.arccos(np.clip(-e / 2.0, -1.0, 1.0)) / np.pi
    out = np.where(e <= -2.0, 0.0, np.where(e >= 2.0, 1.0, inner))
    return float(out) if np.isscalar(energy) or e.ndim == 0 else out
