"""Finite Dirichlet restrictions of the one-dimensional off-diagonal operator.

A hopping sequence omega over {a, 1} (letter a -> value a, letter b -> value 1)
drawn from a metallic-mean sequence defines the Jacobi matrix

    (H psi)(n) = omega(n+1) psi(n+1) + omega(n) psi(n-1).

The restriction to an N-site window keeps only the interior couplings, giving a
zero-diagonal symmetric tridiagonal matrix.  Eigenvalue counting runs through a
Sturm (LDL^T inertia) recurrence vectorised over energies and over stacks of
equal-length windows, and full spectra come from bisection on those counts; the
integrated density of states (IDS) is the normalised counting function.

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

    ``offdiag`` holds the N-1 couplings of an N x N matrix, or is a (P, N-1)
    stack of P such windows.  ``energies`` is a scalar or a 1-D array shared by
    every window, or a (P, M) array with one row per window.  The result has
    shape (M,) for one window and (P, M) for a stack; each row equals the
    count of its window on its own, bit for bit.

    The LDL^T pivot recurrence q_1 = -E, q_k = -E - b_{k-1}^2 / q_{k-1} counts
    eigenvalues through the number of pivots with the sign bit set, in IEEE
    arithmetic without a pivot guard (see the module docstring); the
    computation is vectorised across the P x M lanes of (window, energy).  A
    zero coupling (b^2 = 0) splits its window into a direct sum: the pivot
    after it restarts at exactly -E, as if each block were counted on its own
    and the counts added, so no 0/0 pivot arises and the count stays monotone.
    At an energy that is itself an eigenvalue of a leading submatrix the count
    may land on either side of the jump.  NaN energies raise ``ValueError``.

    Cost: each site takes a few numpy calls whatever the number of lanes, so
    at small lane counts a pass is bound by numpy's per-call cost, not by its
    arithmetic.  At N = 2048 on a 2-core x86 machine (best of 7) one window
    took 1.0-1.1 us a site at 1-64 energies, 1.75 us at 401 and 4.5 us at
    2005.  Stacks of 401-energy windows cost 4.4 / 3.3 / 2.8 / 2.5 / 2.7 /
    2.8 ns a lane-site at P = 1 / 2 / 3 / 5 / 8 / 16: the saving ends near
    2000 lanes, which sets the lane budget of ``dos1d`` (``cli.DOS1D_LANES``).
    Within a block of _COUNT_BLOCK sites each coupling of a stack is copied
    across its window's lanes, so that every step is a full-length
    elementwise divide: against P separate passes over 401 energies, one pass
    gained 1.3 / 1.6 / 2.3x at P = 2 / 3 / 5, where broadcasting a (P, 1)
    coupling column gained 1.1 / 1.3 / 1.8x (median of 9).  One window's
    couplings enter as Python floats, which numpy broadcasts at no cost.
    """
    off2 = np.square(np.asarray(offdiag, dtype=float))
    if off2.ndim > 2:
        raise ValueError("couplings must be one window or a (P, N-1) stack of windows")
    stack = np.atleast_2d(off2)
    e = np.atleast_1d(np.asarray(energies, dtype=float))
    if np.isnan(e).any():
        raise ValueError("energies must not be NaN")
    p, sites, m = stack.shape[0], stack.shape[1] + 1, e.shape[-1]
    neg_e = np.negative(np.broadcast_to(e, (p, m))).reshape(-1)  # lanes in window-major order
    block = min(_COUNT_BLOCK, sites)
    buf = np.empty((block, neg_e.size))
    rows = list(buf)
    signs = np.empty(buf.shape, dtype=bool)
    t = np.empty_like(neg_e)
    count = np.zeros(neg_e.size, dtype=np.int64)
    # the blocks holding a zero coupling of some window
    cut_blocks = {i - i % block for i in np.nonzero(stack == 0.0)[1].tolist()}
    # one window broadcasts its couplings as Python floats, at no cost a step
    couplings = stack[0].tolist() if p == 1 else stack.T
    q = rows[0]
    np.copyto(q, neg_e)
    row = 1
    divide, subtract = np.divide, np.subtract
    with np.errstate(divide="ignore", over="ignore"):
        for lo in range(0, sites - 1, block):
            b2s = couplings[lo:lo + block]
            if p > 1:
                b2s = np.repeat(b2s, m, axis=1)
            cut = lo in cut_blocks
            for b2 in b2s:
                if row == block:
                    count += _count_sign_bits(buf, signs)
                    row = 0
                if cut:
                    # -E - (+0.0) is -E bit for bit, signed zeros included
                    t.fill(0.0)
                    divide(b2, q, out=t, where=np.not_equal(b2, 0.0))
                else:
                    divide(b2, q, out=t)
                q = rows[row]
                subtract(neg_e, t, out=q)
                row += 1
    count += _count_sign_bits(buf[:row], signs)
    return count.reshape(off2.shape[:-1] + (m,))


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


def _count_rows(off, windows, energies) -> list:
    """count_below_offdiag of window off[windows[i]] at energies[i] for each i, in one pass.

    The energy lists may differ in length: rows are padded with 0.0, whose
    counts are dropped, and a window with no energies is left out of the pass.
    """
    counts = [np.zeros(0, dtype=np.int64)] * len(energies)
    rows = [i for i, e in enumerate(energies) if e.size]
    if rows:
        padded = np.zeros((len(rows), max(energies[i].size for i in rows)))
        for r, i in enumerate(rows):
            padded[r, : energies[i].size] = energies[i]
        for i, c in zip(rows, count_below_offdiag(off[windows[rows]], padded)):
            counts[i] = c[: energies[i].size]
    return counts


def _bisect(off, grid, k, tol, guess, delta):
    """The bisection of :func:`eigenvalues_offdiag` over a (P, N-1) stack of windows.

    Window i bisects lanes k on grid[i] with guesses guess[i].  A decision
    count(E) > k is read as E > guess[i, lane] wherever |E - guess[i, lane]| >
    delta[i] and is a Sturm count elsewhere, so with delta = inf every
    decision is counted.  The windows run in lock-step, and each step counts
    the near lanes of all of them in one pass.  A window stops when none of its
    own lanes can move, as it would alone, so its bits do not depend on the
    others.  Returns each window's last midpoints, or None for a window whose
    path one count over its final brackets does not verify.
    """
    # on [0, inf) the count is ceil(N/2) plus the guesses below E, away from them
    below = [np.searchsorted(x, g - d) for x, g, d in zip(guess, grid, delta)]
    near = [np.flatnonzero(b != np.searchsorted(x, g + d, side="right"))
            for b, x, g, d in zip(below, guess, grid, delta)]
    counts = [off.shape[1] + 1 - k.size + b for b in below]
    going = np.arange(off.shape[0])
    for c, i, counted in zip(counts, near, _count_rows(off, going, [g[i] for g, i in zip(grid, near)])):
        c[i] = counted
    # the kth smallest eigenvalue lies in [grid[j-1], grid[j]) for the first j
    # whose count exceeds k; j = 0 or j = grid.size pins it at an end
    j = np.stack([np.searchsorted(c, k, side="right") for c in counts])
    lo = grid[going[:, None], np.maximum(j - 1, 0)]
    hi = grid[going[:, None], np.minimum(j, grid.shape[1] - 1)]
    # each window's final brackets, as it stops; rows still bisecting are ``going``
    ends = np.concatenate([lo, hi], axis=1)
    delta = delta[:, None]
    while going.size:
        mid = 0.5 * (lo + hi)
        live = ((hi - lo > tol) & (lo < mid) & (mid < hi)).any(axis=1)
        if not live.all():
            # a window none of whose lanes can move stops, as it would alone
            ends[going[~live]] = np.concatenate([lo[~live], hi[~live]], axis=1)
            going, lo, hi, mid, guess, delta = (x[live] for x in (going, lo, hi, mid, guess, delta))
        above = mid > guess
        # a lane pinned at an end (lo == hi) keeps its value whatever is decided
        near = (np.abs(mid - guess) <= delta) & (lo < hi)
        if near.any():
            near = [np.flatnonzero(row) for row in near]
            for a, i, counted in zip(above, near, _count_rows(off, going, [m[i] for m, i in zip(mid, near)])):
                a[i] = counted > k[i]
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    lo, hi = ends[:, : k.size], ends[:, k.size :]
    final = count_below_offdiag(off, ends)
    held = ((final[:, : k.size] <= k) | (j == 0)) & ((final[:, k.size :] > k) | (j == grid.shape[1]))
    return [m if h else None for m, h in zip(0.5 * (lo + hi), held.all(axis=1))]


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

    ``offdiag`` is one window's N-1 couplings, giving N eigenvalues, or a
    (P, N-1) stack of windows, giving a (P, N) array whose rows are bit for bit
    the windows' own solves.  The windows of a stack are bisected in lock-step
    (see :func:`_bisect`): each step makes one count pass for all of them
    instead of one a window, while each window keeps its own stop rule, its own
    final check and its own fallback.

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
    if off.ndim > 2:
        raise ValueError("couplings must be one window or a (P, N-1) stack of windows")
    stack = np.atleast_2d(off)
    n = stack.shape[1] + 1
    bound = 2.0 * (1.0 + (np.abs(stack).max(axis=1) if n > 1 else np.zeros(len(stack))))
    if not (bound < math.inf).all():
        raise ValueError("couplings must be finite")
    grid = np.linspace(0.0, bound, 2 * n + 1, axis=1)
    k = np.arange(n - n // 2, n)
    guess = [_predict_offdiag(w) for w in stack]
    if guess[0] is None:
        mids = [None] * len(stack)
    else:
        mids = _bisect(stack, grid, k, tol, np.stack(guess), n * np.finfo(float).eps * bound)
    redo = [i for i, mid in enumerate(mids) if mid is None]
    if redo:
        plain = _bisect(stack[redo], grid[redo], k, tol, np.zeros((len(redo), k.size)), np.full(len(redo), math.inf))
        for i, mid in zip(redo, plain):
            mids[i] = mid
    pos = np.sort(np.stack(mids), axis=1)
    eigs = np.concatenate([-pos[:, ::-1], np.zeros((len(mids), n % 2)), pos], axis=1)
    return eigs.reshape(off.shape[:-1] + (n,))


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
