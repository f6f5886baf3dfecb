"""Reference numerics for the output checks, independent of quasilab's solvers.

Hopping sequences come from a direct implementation of the substitution
a -> a^s b, b -> a; eigenvalues come from ``np.linalg.eigvalsh`` on dense
matrices; counts come from direct enumeration of all N^2 products.
"""

from __future__ import annotations

import numpy as np

#: Block size for the bracketing 1D counts of long chains (see block_counts).
BLOCK = 128


def metallic_prefix(s: int, length: int) -> str:
    """First ``length`` letters of u_s, via C(n+1) = C(n)^s C(n-1), C(-1) = b, C(0) = a."""
    prev, cur = "b", "a"
    while len(cur) < length:
        prev, cur = cur, cur * s + prev
    return cur[:length]


def weights(letters: str, a: float) -> np.ndarray:
    return np.where(np.frombuffer(letters.encode("ascii"), dtype=np.uint8) == ord("a"), a, 1.0)


def tridiagonal(off: np.ndarray) -> np.ndarray:
    n = off.size + 1
    m = np.zeros((n, n))
    i = np.arange(n - 1)
    m[i, i + 1] = off
    m[i + 1, i] = off
    return m


def axis_couplings(s: int, a: float, n: int) -> np.ndarray:
    """The N-1 couplings omega(1..N-1) of a Labyrinth axis restricted to [0, N-1]."""
    return weights(metallic_prefix(s, n - 1), a)


def axis_eigs(s: int, a: float, n: int) -> np.ndarray:
    """Sorted eigenvalues of one Labyrinth axis on [0, N-1]."""
    if n == 1:
        return np.zeros(1)
    return np.linalg.eigvalsh(tridiagonal(axis_couplings(s, a, n)))


def block_counts(off: np.ndarray, energies: np.ndarray) -> tuple[np.ndarray, int]:
    """#{eigenvalues <= E} of the tridiagonal matrix with couplings ``off``, to within
    the returned slack.

    Dropping the coupling between two blocks is a rank-two change with one positive
    and one negative eigenvalue, which moves any count by at most one (Weyl), so the
    block-diagonal count is within (number of cuts) of the full one.
    """
    n = off.size + 1
    counts = np.zeros(energies.size, dtype=np.int64)
    starts = range(0, n, BLOCK)
    for lo in starts:
        hi = min(lo + BLOCK, n)
        eig = np.linalg.eigvalsh(tridiagonal(off[lo:hi - 1])) if hi - lo > 1 else np.zeros(1)
        counts += np.searchsorted(eig, energies, side="right")
    return counts, len(starts) - 1


def sorted_products(e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    return np.sort(np.multiply.outer(e1, e2).ravel())


def count_leq(sorted_values: np.ndarray, x) -> np.ndarray:
    return np.searchsorted(sorted_values, np.asarray(x, dtype=float), side="right")


def count_lt(sorted_values: np.ndarray, x) -> np.ndarray:
    return np.searchsorted(sorted_values, np.asarray(x, dtype=float), side="left")


def ks_bounds(u: np.ndarray, v: np.ndarray, eps: float) -> tuple[float, float]:
    """Range of the sup distance between the empirical CDFs of u and v when every
    point may move by up to ``eps`` (solvers split exact ties by rounding noise)."""
    u, v = np.sort(u), np.sort(v)
    pts = np.concatenate([u - eps, u + eps, v - eps, v + eps])

    def f(w, x, side):
        return np.searchsorted(w, x, side=side) / w.size

    hi = lo = 0.0
    for side in ("right", "left"):
        hi = max(hi, float(np.max(f(u, pts + eps, side) - f(v, pts - eps, side))),
                 float(np.max(f(v, pts + eps, side) - f(u, pts - eps, side))))
        lo = max(lo, float(np.max(f(u, pts - eps, side) - f(v, pts + eps, side))),
                 float(np.max(f(v, pts - eps, side) - f(u, pts + eps, side))))
    return lo, hi
