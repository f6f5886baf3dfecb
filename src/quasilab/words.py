"""Metallic-mean substitution words: generation, rotation codings, twin occurrences
and parity patterns.

The substitution a -> a^s b, b -> a (s >= 1) generates the metallic-mean family of
sequences; s = 1 is the golden mean (Fibonacci) case, s = 2 the silver mean, s = 3
the bronze mean.  Words are plain ASCII strings over the alphabet {a, b}.  The n-th
iterate on "a" is written C(n) below, with the convention C(0) = "a", so that
lengths obey L(n+1) = s*L(n) + L(n-1) with L(0) = 1, L(1) = s + 1.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ResourceLimitError

#: Default cap on constructed word lengths; iterates grow exponentially in n.
DEFAULT_WORD_CAP = 10**6

#: Indices coded at once by ``rotation_sequence``.
_INDEX_BLOCK = 2**14


def _check_s(s: int) -> None:
    if not isinstance(s, (int, np.integer)) or s < 1:
        raise ValueError(f"substitution parameter s must be a positive integer, got {s!r}")


def word_length(s: int, n: int, max_len: float = math.inf) -> int:
    """Length of the n-th substitution iterate, via L(n+1) = s*L(n) + L(n-1).

    Raises ResourceLimitError once the length passes ``max_len``, which stops
    the recurrence after a few dozen steps however large n is.
    """
    _check_s(s)
    if n < 0:
        raise ValueError("iteration index must be nonnegative")
    prev, cur = 1, 1  # L(-1) = |"b"| = 1, L(0) = 1
    for _ in range(n):
        if cur > max_len:
            break
        prev, cur = cur, s * cur + prev
    if cur > max_len:
        raise ResourceLimitError(f"the word would exceed the cap of {max_len} letters")
    return cur


def iterate(s: int, n: int, max_len: int = DEFAULT_WORD_CAP) -> str:
    """The n-th iterate C(n) of the substitution on "a": the prefix of u_s of length L(n).

    For k < n, L(n) / L(k) > s, so :func:`prefix` builds each C(k+1) = C(k)^s C(k-1)
    whole and stops at C(n).  Raises ResourceLimitError if the result would
    exceed ``max_len`` letters.
    """
    return prefix(s, word_length(s, n, max_len), max_len)


def prefix(s: int, length: int, max_len: int = DEFAULT_WORD_CAP) -> str:
    """First ``length`` letters of the one-sided metallic-mean sequence u_s."""
    _check_s(s)
    if length < 0:
        raise ValueError("prefix length must be nonnegative")
    if length > max_len:
        raise ResourceLimitError(f"prefix of {length} letters exceeds the cap of {max_len}")
    prev, cur = "b", "a"
    while len(cur) < length:
        # the first `length` letters of cur^s prev lie in ceil(length / len(cur)) copies of cur
        prev, cur = cur, cur * min(s, -(-length // len(cur))) + prev
    return cur[:length]


def metallic_alpha(s: int) -> float:
    """Frequency (s + 2 - sqrt(s^2 + 4)) / (2s) of the letter b in u_s.

    Continued-fraction expansion [0; 1+s, s, s, ...].
    """
    _check_s(s)
    return float((s + 2 - math.sqrt(s * s + 4)) / (2 * s))


def _alpha_longdouble(s: int) -> np.longdouble:
    s_ld = np.longdouble(s)
    return (s_ld + 2 - np.sqrt(s_ld * s_ld + 4)) / (2 * s_ld)


def _index_blocks(indices):
    """The integers of ``indices`` as int64 arrays of at most ``_INDEX_BLOCK`` entries."""
    if isinstance(indices, range):
        for i in range(0, len(indices), _INDEX_BLOCK):
            r = indices[i:i + _INDEX_BLOCK]
            yield np.arange(r.start, r.stop, r.step, dtype=np.int64)
    else:
        it = iter(indices)
        while (n := np.fromiter(islice(it, _INDEX_BLOCK), np.int64)).size:
            yield n


def rotation_sequence(s, beta, indices) -> str:
    """Sturmian coding of the circle rotation with the metallic-mean frequency.

    The letter at index n is b exactly when n*alpha + beta mod 1 falls in the
    half-open window [1 - alpha, 1); the majority letter a sits on the complement
    [0, 1 - alpha).  With beta = 0 and indices 1..L(n) this reproduces the
    substitution iterate ``iterate(s, n)`` exactly.  (The window carries the
    minority letter: the frequency of b in u_s is alpha.)

    Arithmetic runs in extended precision (80-bit on x86) and alpha is irrational,
    so the membership test never sits exactly on the window boundary for the index
    ranges supported here; no epsilon is applied.  The phase is first reduced
    with ``math.fmod(beta, 1.0)``, which is exact, so an integer phase codes the
    same word as beta = 0 and beta in (-1, 1) enters unchanged.

    ``indices`` is any iterable of integers (typically ``range(1, N + 1)``); it
    is coded ``_INDEX_BLOCK`` indices at a time, a ``range`` as ``np.arange``
    blocks and any other iterable through ``np.fromiter``.
    """
    _check_s(s)
    al = _alpha_longdouble(s)
    be = np.longdouble(math.fmod(beta, 1.0))
    window = np.longdouble(1.0) - al
    blocks = []
    for n in _index_blocks(indices):
        in_window = np.mod(n * al + be, np.longdouble(1.0)) >= window
        blocks.append((in_window.view(np.uint8) + ord("a")).tobytes())
    return b"".join(blocks).decode("ascii")


# ---------------------------------------------------------------------------
# twins


@dataclass(frozen=True)
class TwinReport:
    """Two disjoint occurrences of a word at an offset of prescribed parity.

    Positions are 1-based starts; ``offset = pos2 - pos1`` and its parity matches
    ``parity``.  Occurrences may be adjacent but never overlap.
    """

    parity: str
    pos1: int
    pos2: int
    offset: int

    def check(self, y: str, x: str) -> bool:
        """Re-validate this report against the words it was derived from."""
        m = len(y)
        if self.offset != self.pos2 - self.pos1 or self.offset < m:
            return False
        if self.offset % 2 != (1 if self.parity == "odd" else 0):
            return False
        a, b = self.pos1 - 1, self.pos2 - 1
        return x[a : a + m] == y and x[b : b + m] == y


def occurrences(y: str, x: str) -> list[int]:
    """All (possibly overlapping) 1-based start positions of ``y`` inside ``x``."""
    if not y:
        raise ValueError("the searched word must be nonempty")
    starts = []
    i = x.find(y)
    while i != -1:
        starts.append(i + 1)
        i = x.find(y, i + 1)
    return starts


def find_twin(y: str, x: str, parity: str) -> TwinReport | None:
    """Search exhaustively for a pair of disjoint occurrences of ``y`` in ``x``.

    The two start positions must differ by an odd (resp. even) amount of at least
    ``len(y)``, so the occurrences are disjoint though possibly adjacent.  Returns
    the witness with the smallest first position (then smallest second), or None.
    """
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    starts = occurrences(y, x)
    by_parity = ([p for p in starts if p % 2 == 0], [p for p in starts if p % 2 == 1])
    m = len(y)
    want_opposite = parity == "odd"
    for p in starts:
        cls = by_parity[(p % 2) ^ 1] if want_opposite else by_parity[p % 2]
        i = bisect_left(cls, p + m)
        if i < len(cls):
            return TwinReport(parity, p, cls[i], cls[i] - p)
    return None


def twin_witness(s: int, k: int, max_len: int = DEFAULT_WORD_CAP) -> str:
    """A short word in which the iterate C(k) occurs twice at odd offset.

    When |C(k)| is odd the witness is C(k)C(k); otherwise (which forces s odd, so
    |C(k-1)| is odd) it is C(k)C(k-1)C(k).  Either way the witness is a factor of
    C(k+3) and no longer than 3|C(k)|.
    """
    _check_s(s)
    if k < 1:
        raise ValueError("twin witnesses are defined for k >= 1")
    lk = word_length(s, k, max_len)
    if lk % 2 == 1:
        total = 2 * lk
    else:
        total = 2 * lk + word_length(s, k - 1)
    if total > max_len:
        raise ResourceLimitError(f"twin witness needs {total} letters, cap is {max_len}")
    ck = iterate(s, k, max_len=max_len)
    if lk % 2 == 1:
        return ck + ck
    return ck + iterate(s, k - 1, max_len=max_len) + ck


def parity_pattern(s: int, n_max: int) -> list[int]:
    """Lengths of C(0), ..., C(n_max - 1) reduced mod 2.

    All ones when s is even; the period-3 pattern 1, 0, 1 repeated when s is odd.
    """
    _check_s(s)
    if n_max < 1:
        raise ValueError("need at least one iterate")
    prev, cur = 1, 1
    out = []
    for _ in range(n_max):
        out.append(cur % 2)
        prev, cur = cur, (s * cur + prev) % 2
    return out
