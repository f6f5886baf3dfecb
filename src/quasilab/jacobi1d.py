"""Finite Dirichlet restrictions of the one-dimensional off-diagonal operator.

A hopping sequence omega over {a, 1} (letter a -> value a, letter b -> value 1)
drawn from a metallic-mean sequence defines the Jacobi matrix

    (H psi)(n) = omega(n+1) psi(n+1) + omega(n) psi(n-1).

The restriction to an N-site window keeps only the interior couplings, giving a
zero-diagonal symmetric tridiagonal matrix.  Eigenvalue counting runs through a
Sturm (LDL^T inertia) recurrence vectorised over energies and over stacks of
equal-length windows, which certify full spectra from LAPACK's dqds or, failing
that, bisect for them; the integrated density of states (IDS) is the normalised
counting function.

The diagonal is zero, so the chain is bipartite: flipping the sign on every
other site maps H to -H, the spectrum is symmetric about 0, and for odd N
(det_N = -b^2 det_{N-2}, det_1 = 0) it contains 0.  The solver computes only
the nonnegative half and mirrors it.

The recurrence runs in plain IEEE arithmetic with no pivot guard, as in Kahan's
bisection and LAPACK ``dstebz``: a zero pivot makes the next pivot an infinity,
b^2 / inf = 0 makes the one after it -E again, and a pivot counts as negative
when its sign bit is set, so -0.0 and -inf count.  Kahan's analysis, carried
over to IEEE infinities by Demmel, Dhillon and Ren (ETNA 1995), shows that this
count is monotone in the energy, which the certificate and bisection need.

The eigenvalues are dqds's, certified by one Sturm count: LAPACK's dlasq1,
reached through ctypes in the OpenBLAS that numpy's wheels bundle (builds
checked: numpy 2.4.6, Linux x86-64), gives them to high relative accuracy, and
one count pass at x -+ tol/2 proves each within tol/2 of the count's
eigenvalue (see :func:`eigenvalues_offdiag`).  So the bits depend on that
OpenBLAS build.  A window whose certificate fails, or every window where
dlasq1 is missing, falls back to plain bisection on the counts.
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
    the same indices.  Letters map a -> params.a, b -> 1.  The toolkit uses two
    N-site Dirichlet restrictions.  :func:`ids_curve`, ``dos1d`` and acceptance
    criterion 5 drop omega(1), the bond leaving the box on the left, and keep
    the N-1 couplings ``w[1:]``, omega(2 .. N).  The Labyrinth's axes keep
    omega(1 .. N-1): ``w[:-1]`` in ``labyrinth._axis_lists``, and the window of
    length N-1 in ``labyrinth.build_2d``.
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
    dropped.  A failure (INFO != 0) gives NaNs, which send the window to bisection.
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


def _bisect(off, grid, k, tol):
    """Plain bisection of :func:`eigenvalues_offdiag` over a (P, N-1) stack of windows.

    Window i bisects lanes k on grid[i], each decision count(E) > k a Sturm
    count.  The windows run in lock-step, one count pass a step for all of
    them, and a window stops when none of its own lanes can move, as it would
    alone, so its bits do not depend on the others.  Returns each window's
    last midpoints.
    """
    # the kth smallest eigenvalue lies in [grid[j-1], grid[j]) for the first j
    # whose count exceeds k; j = 0 or j = grid.size pins it at an end
    j = np.stack([np.searchsorted(c, k, side="right") for c in count_below_offdiag(off, grid)])
    rows = np.arange(off.shape[0])[:, None]
    lo = grid[rows, np.maximum(j - 1, 0)]
    hi = grid[rows, np.minimum(j, grid.shape[1] - 1)]
    going = rows[:, 0]  # the windows still bisecting
    mids = np.empty_like(lo)
    while going.size:
        mid = 0.5 * (lo + hi)
        live = ((hi - lo > tol) & (lo < mid) & (mid < hi)).any(axis=1)
        mids[going[~live]] = mid[~live]
        going, lo, hi, mid = (x[live] for x in (going, lo, hi, mid))
        if going.size:
            above = count_below_offdiag(off[going], mid) > k
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
    return mids


def _certified(off, k, tol):
    """Each window's dlasq1 values if one count pass certifies them (see :func:`eigenvalues_offdiag`), else None."""
    guess = [_predict_offdiag(w) for w in off]
    held = [i for i, x in enumerate(guess) if x is not None and not np.isnan(x).any()]
    out = [None] * len(guess)
    if held:
        x = np.stack([guess[i] for i in held])
        lo = np.minimum(x - 0.5 * tol, np.nextafter(x, -math.inf))
        hi = np.maximum(x + 0.5 * tol, np.nextafter(x, math.inf))
        counts = count_below_offdiag(off[held], np.concatenate([lo, hi], axis=1))
        ok = ((counts[:, : k.size] <= k) & (counts[:, k.size :] > k)).all(axis=1)
        for i, row, good in zip(held, x, ok):
            if good:
                out[i] = row
    return out


def eigenvalues_offdiag(offdiag, tol: float = 1e-10) -> np.ndarray:
    """All eigenvalues of the zero-diagonal tridiagonal matrix, certified to ``tol``.

    The spectrum is symmetric (see the module docstring), so only the
    floor(N/2) nonnegative-half values x_k are computed; the result is those
    values, their negatives and, for odd N, an exact 0.0, sorted: each e_k is
    bit for bit -e_(N+1-k).  ``tol`` must be positive and the couplings finite.

    The x_k are the singular values of the odd-even block of H, which LAPACK's
    dqds returns (:func:`_predict_offdiag`; Fernando and Parlett, Numer. Math.
    67, 1994).  One Sturm count pass at lo_k = x_k - tol/2 and hi_k = x_k +
    tol/2, or at x_k's neighbouring floats where these round back to x_k,
    certifies them when count(lo_k) <= k < count(hi_k) for every k, k counted
    from 0 over all N eigenvalues.  Proof: the IEEE count is monotone in E
    and runs from 0 to N (module docstring), so it is the counting function
    #{j : e_j < E} of N values e_0 <= ... <= e_(N-1), the eigenvalues the
    count sees (at each E it is the exact count of H with its couplings
    changed by a few ulps; Kahan); only at an energy equal to some e_j may it
    land on either side.  count(lo_k) <= k says that at most k of the e_j lie
    below lo_k, so e_k >= lo_k, and count(hi_k) > k says that e_k < hi_k.  So
    a held certificate puts e_k in [x_k - tol/2, x_k + tol/2) (up to that
    choice at hi_k itself), the guarantee a bisection bracket of width tol
    gives; with the neighbouring floats it is the one-ulp bracket where
    bisection stops.

    A window falls back to plain bisection (:func:`_bisect`), on its own, when
    dlasq1 is not found (:func:`_dlasq1`), when its values hold a NaN
    (dlasq1's INFO != 0; a NaN never reaches the count), or when its
    certificate fails.  Plain bisection seeds a bracket for each x_k from a
    uniform grid of 2N+1 energies over [0, bound], bound = 2(1 + max|b|) a
    Gershgorin-style bound, and halves it until its width is at most ``tol``
    or its midpoint rounds to an endpoint, every decision a Sturm count.

    The bits of a certified solve are dlasq1's, so they depend on the
    OpenBLAS build that numpy bundles; without dlasq1 they are the
    bisection's, certified to the same ``tol`` but different.

    ``offdiag`` is one window's N-1 couplings, giving N eigenvalues, or a
    (P, N-1) stack of windows, giving a (P, N) array whose rows are bit for bit
    the windows' own solves: the certificate is one count pass for the whole
    stack, and the windows that fall back are bisected in lock-step, one count
    pass a step for all of them.

    Cost: dlasq1 takes O(N^2) time and O(N) memory, the certificate one count
    over 2 floor(N/2) lanes, and plain bisection about 30 counts over
    floor(N/2) lanes.
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
    k = np.arange(n - n // 2, n)
    pos = _certified(stack, k, tol)
    redo = [i for i, x in enumerate(pos) if x is None]
    if redo:
        grid = np.linspace(0.0, bound[redo], 2 * n + 1, axis=1)
        for i, mid in zip(redo, _bisect(stack[redo], grid, k, tol)):
            pos[i] = mid
    pos = np.sort(np.stack(pos), axis=1)
    eigs = np.concatenate([-pos[:, ::-1], np.zeros((len(pos), n % 2)), pos], axis=1)
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
