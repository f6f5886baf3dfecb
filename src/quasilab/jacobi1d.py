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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError
from .words import DEFAULT_WORD_CAP, prefix, rotation_sequence

def coupling_constant(a: float, b: float = 1.0) -> float:
    """|a^2 - b^2| / (ab), the single parameter controlling the spectral type."""
    if a <= 0 or b <= 0:
        raise ValueError(f"hopping values must be positive, got a={a}, b={b}")
    return abs(a * a - b * b) / (a * b)


def hopping_from_coupling(lam: float) -> float:
    """Inverse of :func:`coupling_constant` at b = 1 on the branch a >= 1.

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
        return coupling_constant(self.a, 1.0)

    @classmethod
    def from_coupling(cls, s: int, lam: float) -> "ModelParams":
        return cls(s, hopping_from_coupling(lam))


@dataclass(frozen=True, eq=False)
class HoppingWindow:
    """Hopping values omega(offset+1 .. offset+N) read off a hull element."""

    weights: np.ndarray = field(repr=False)
    offset: int = 0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("a window needs at least one weight")
        if not np.all(w > 0):
            raise ValueError("hopping weights must be positive")
        object.__setattr__(self, "weights", w)

    def __repr__(self):  # pragma: no cover
        return f"HoppingWindow(n={self.size}, offset={self.offset})"

    @property
    def size(self) -> int:
        return int(self.weights.size)

    def interior_offdiagonals(self) -> np.ndarray:
        """Couplings omega(offset+2 .. offset+N) of the Dirichlet restriction.

        The window's first weight is the bond leaving the box on the left and is
        dropped, as is the (never generated) bond leaving on the right: the matrix
        is the principal N x N submatrix with zero diagonal.
        """
        return self.weights[1:]

    def to_dense(self) -> np.ndarray:
        off = self.interior_offdiagonals()
        n = self.size
        m = np.zeros((n, n))
        idx = np.arange(n - 1)
        m[idx, idx + 1] = off
        m[idx + 1, idx] = off
        return m


def build_window(
    params: ModelParams,
    n: int,
    source: str = "substitution",
    *,
    beta: float = 0.0,
    offset: int = 0,
    max_len: int = DEFAULT_WORD_CAP,
) -> HoppingWindow:
    """Read N hopping values from the substitution sequence or a rotation coding.

    ``source="substitution"`` takes letters offset+1 .. offset+N of u_s;
    ``source="rotation"`` codes the circle rotation at phase ``beta`` over the
    same index range.  Letters map a -> params.a, b -> 1.
    """
    if n < 1:
        raise ValueError("window length must be positive")
    if source == "substitution":
        if offset < 0:
            raise ValueError("substitution windows need a nonnegative offset")
        if offset + n > max_len:
            raise ResourceLimitError(f"window end {offset + n} exceeds the cap of {max_len}")
        letters = prefix(params.s, offset + n, max_len=max_len)[offset:]
    elif source == "rotation":
        letters = rotation_sequence(params.s, beta, range(offset + 1, offset + n + 1))
    else:
        raise ValueError(f"unknown window source {source!r}")
    codes = np.frombuffer(letters.encode("ascii"), dtype=np.uint8)
    weights = np.where(codes == ord("a"), params.a, 1.0)
    return HoppingWindow(weights, offset)


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
    across energies.  At an energy that is itself an eigenvalue of a leading
    submatrix the count may land on either side of the jump.  NaN energies
    raise ``ValueError``.
    """
    off2 = np.square(np.asarray(offdiag, dtype=float))
    neg_e = np.negative(np.atleast_1d(np.asarray(energies, dtype=float)))
    if np.isnan(neg_e).any():
        raise ValueError("energies must not be NaN")
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


def eigenvalues_offdiag(offdiag, tol: float = 1e-10, search_bound: float | None = None) -> np.ndarray:
    """All eigenvalues of the zero-diagonal tridiagonal matrix, by bisection.

    The spectrum is symmetric (see the module docstring), so only the
    nonnegative half is computed.  One count on a uniform grid of 2N+1 energies
    over [0, bound] (default bound a Gershgorin-style 2(1 + max|b|)) seeds a
    bracket for each of the floor(N/2) largest eigenvalues; each bracket is then
    halved until its width is at most ``tol`` or its midpoint rounds to an
    endpoint.  The result is those values, their negatives and, for odd N, an
    exact 0.0, sorted: each e_k is bit for bit -e_(N+1-k).  Eigenvalues outside
    the search interval come back pinned at its nearer end.  ``tol`` must be
    positive and ``search_bound`` positive and finite.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    off = np.asarray(offdiag, dtype=float)
    n = off.size + 1
    if search_bound is None:
        search_bound = 2.0 * (1.0 + (float(np.max(np.abs(off))) if off.size else 0.0))
    if not 0.0 < search_bound < math.inf:
        raise ValueError("the search bound must be positive and finite")
    grid = np.linspace(0.0, search_bound, 2 * n + 1)
    k = np.arange(n - n // 2, n)
    # the kth smallest eigenvalue lies in [grid[j-1], grid[j]) for the first j
    # whose count exceeds k; j = 0 or j = grid.size pins it at an end
    j = np.searchsorted(count_below_offdiag(off, grid), k, side="right")
    lo = grid[np.maximum(j - 1, 0)]
    hi = grid[np.minimum(j, grid.size - 1)]
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((hi - lo > tol) & (lo < mid) & (mid < hi)):
            break
        above = count_below_offdiag(off, mid) > k
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    pos = np.sort(mid)
    return np.concatenate([-pos[::-1], np.zeros(n % 2), pos])


def ids_curve(params: ModelParams, energies, n: int, *, source: str = "substitution",
              beta: float = 0.0, offset: int = 0) -> np.ndarray:
    """Finite-volume IDS (1/N) #{eigenvalues <= E} over a vector of energies."""
    if n < 1:
        raise ValueError("N must be positive")
    window = build_window(params, n, source, beta=beta, offset=offset)
    counts = count_below_offdiag(window.interior_offdiagonals(), energies)
    return counts.astype(float) / n


def ids(params: ModelParams, energy: float, n: int, **kwargs) -> float:
    """Finite-volume integrated density of states at a single energy."""
    return float(ids_curve(params, [energy], n, **kwargs)[0])


def free_ids(energy):
    """IDS of the free chain: 0 below -2, 1 above 2, else arccos(-E/2)/pi."""
    e = np.asarray(energy, dtype=float)
    inner = np.arccos(np.clip(-e / 2.0, -1.0, 1.0)) / np.pi
    out = np.where(e <= -2.0, 0.0, np.where(e >= 2.0, 1.0, inner))
    return float(out) if np.isscalar(energy) or e.ndim == 0 else out
