"""Band covers: finite unions of closed intervals approximating spectra from
outside, with the gap/thickness/dimension statistics and the set arithmetic
(products, logs) that the two-dimensional model calls for.

Thickness follows the ordered-gap (Newhouse) convention: the bridges flanking a
gap extend to the nearest gap at least as long, or to the hull boundary.  For
the middle-thirds construction this gives the classical value 1 at every stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError

#: Cap on the interval count of a merged cover and on the bands of a trace-map cover.
INTERVAL_CAP = 10**6

#: Guard on the band pairs of a product set.  Pairs are formed and merged in
#: blocks, so it bounds time, not working memory: a product of two 2000-band
#: covers at the guard took 0.2-0.4 s (best of 5, one BLAS thread) on a 2-core
#: x86 machine, with a traced peak of 1-3 MB.
_PAIR_GUARD = 4 * 10**6

#: Pairs formed and merged at once by a product set.
_PAIR_BLOCK = 2**14

#: Default positive floor used when taking logarithms of covers.
DEFAULT_LOG_FLOOR = 1e-12


def _merged_runs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper ends of the runs of overlapping or touching [lo, hi] pairs.

    The runs come out sorted.  Raises ValueError unless every pair has lo <= hi.
    """
    if not np.all(hi >= lo):
        raise ValueError("intervals must satisfy lo <= hi")
    # no pair whose lower end ties an earlier one can start a run, so the
    # order among ties does not change the result
    order = np.argsort(lo)
    lo = lo[order]
    run_hi = np.maximum.accumulate(hi[order])
    new_run = np.empty(lo.size, dtype=bool)
    new_run[0] = True
    new_run[1:] = lo[1:] > run_hi[:-1]
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], lo.size)
    return lo[starts], run_hi[ends - 1]


def merge_intervals(pairs):
    """Sort [lo, hi] pairs and merge the ones that overlap or touch, as an (m, 2) array.

    ``pairs`` is an (n, 2) array or a sequence of pairs.  More than INTERVAL_CAP
    merged intervals raise ResourceLimitError.
    """
    arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
    if arr.size == 0:
        return arr
    merged_lo, merged_hi = _merged_runs(arr[:, 0], arr[:, 1])
    if merged_lo.size > INTERVAL_CAP:
        raise ResourceLimitError(f"{merged_lo.size} intervals exceed the cap of {INTERVAL_CAP}")
    return np.column_stack([merged_lo, merged_hi])


@dataclass(frozen=True, eq=False)
class BandCover:
    """Sorted disjoint closed intervals, a read-only float64 array of shape (n, 2);
    the caller keeps how they were produced."""

    intervals: np.ndarray

    def __post_init__(self):
        ivs = np.array(self.intervals, dtype=float)
        if ivs.size == 0:
            ivs = ivs.reshape(0, 2)
        if ivs.ndim != 2 or ivs.shape[1] != 2:
            raise ValueError("intervals must be (lo, hi) pairs")
        bad = np.flatnonzero(~(ivs[:, 0] <= ivs[:, 1]))  # also true when either endpoint is NaN
        if bad.size:
            if np.isnan(ivs[bad[0]]).any():
                raise ValueError("interval endpoints must not be NaN")
            raise ValueError("intervals must satisfy lo <= hi")
        if np.any(ivs[1:, 0] <= ivs[:-1, 1]):
            raise ValueError("intervals must be sorted and disjoint")
        ivs.setflags(write=False)
        object.__setattr__(self, "intervals", ivs)

    @property
    def count(self) -> int:
        return len(self.intervals)

    @property
    def is_empty(self) -> bool:
        return not len(self.intervals)

    @property
    def hull(self) -> tuple[float, float]:
        if self.is_empty:
            raise ValueError("an empty cover has no hull")
        return (float(self.intervals[0, 0]), float(self.intervals[-1, 1]))

    @property
    def total_length(self) -> float:
        # left to right, as printed by thickness and criterion 10; np.sum is pairwise
        return float(sum((self.intervals[:, 1] - self.intervals[:, 0]).tolist()))

    def contains(self, x: float) -> bool:
        return bool(np.any((self.intervals[:, 0] <= x) & (x <= self.intervals[:, 1])))


def gaps(cover: BandCover) -> np.ndarray:
    """Open gaps between consecutive bands, strictly inside the hull, as an (m, 2) array."""
    return np.column_stack([cover.intervals[:-1, 1], cover.intervals[1:, 0]])


def _blocking_indices(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each gap, the nearest gap on each side with length >= its own.

    Monotonic-stack passes; -1 marks 'none, bridge runs to the hull boundary'.
    The passes run over Python floats and lists, which index and compare
    faster than numpy scalars do.
    """
    values = lengths.tolist()
    m = len(values)
    left, right = [-1] * m, [-1] * m
    stack: list[int] = []
    for i, x in enumerate(values):
        while stack and values[stack[-1]] < x:
            stack.pop()
        if stack:
            left[i] = stack[-1]
        stack.append(i)
    stack = []
    for i in range(m - 1, -1, -1):
        x = values[i]
        while stack and values[stack[-1]] < x:
            stack.pop()
        if stack:
            right[i] = stack[-1]
        stack.append(i)
    return np.array(left, dtype=np.intp), np.array(right, dtype=np.intp)


def thickness(cover: BandCover) -> float:
    """Bridge-to-gap ratio infimum of a band cover; +inf when there are no gaps.

    For each gap the two bridges extend from its endpoints to the nearest gap at
    least as long (or to the hull boundary); the thickness is the minimum over
    gaps of min(bridge) / gap.  Only ratios of endpoint differences enter, so it
    is scale invariant: exactly when every endpoint is multiplied by a power of
    two, and up to rounding for other factors, as long as no product overflows,
    leaves the normal range or merges two endpoints.  The lengths are
    endpoint differences, exact down to the subnormal range; for a hull longer
    than the largest float they are taken between halved endpoints, which no
    difference overflows and which keep the ratios' bits away from the
    subnormal range.  A ratio beyond the float range rounds to inf or 0.
    """
    if cover.count < 2:
        return math.inf
    scale = 1.0 if math.isfinite(cover.hull[1] - cover.hull[0]) else 0.5
    hull_lo, hull_hi = (scale * x for x in cover.hull)
    glo, ghi = scale * gaps(cover).T
    lengths = ghi - glo
    left, right = _blocking_indices(lengths)
    left_edge = np.where(left >= 0, ghi[left], hull_lo)
    right_edge = np.where(right >= 0, glo[right], hull_hi)
    bridges = np.minimum(glo - left_edge, right_edge - ghi)
    with np.errstate(over="ignore", divide="ignore"):
        return float(np.min(bridges / lengths))


def box_dimension_estimate(covers) -> float:
    """Least-squares slope of log(band count) against log(1 / scale).

    Each cover's scale is its mean band width (total length divided by band
    count), the natural box size for a cover by unequal intervals.  Raises
    ValueError when fewer than three covers are given or the scales are
    degenerate.
    """
    covers = list(covers)
    if len(covers) < 3:
        raise ValueError("need at least three refinement levels")
    counts = np.array([c.count for c in covers], dtype=float)
    scales = np.array([c.total_length / c.count for c in covers])
    # one distinct scale, all-NaN included, as np.unique would count it without importing numpy.ma
    if (scales == scales[0]).all() or np.isnan(scales).all():
        raise ValueError("degenerate fit: all scales identical")
    slope = np.polyfit(np.log(1.0 / scales), np.log(counts), 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# set arithmetic


def _pair_hulls(la, ha, lb, hb) -> tuple[np.ndarray, np.ndarray]:
    """Flat lower and upper ends of the product of every pair of bands."""
    cands = np.stack([
        np.multiply.outer(la, lb),
        np.multiply.outer(la, hb),
        np.multiply.outer(ha, lb),
        np.multiply.outer(ha, hb),
    ])
    return cands.min(axis=0).ravel(), cands.max(axis=0).ravel()


def product_set(a: BandCover, b: BandCover) -> BandCover:
    """Pointwise product set {xy}: pairwise interval products, merged.

    Each pair of bands contributes [min, max] over the four endpoint products,
    which is exact for products of intervals of any signs.

    The pairs are formed and merged in blocks of about ``_PAIR_BLOCK``: whole
    rows of the cover with more bands, so under the guard none exceeds 2**14
    pairs.  A union does not depend on how the pairs are grouped and the
    endpoints are the same floats, so merging the merged blocks gives the
    bands of one merge of all pairs.
    """
    (la, ha), (lb, hb) = a.intervals.T, b.intervals.T
    if la.size * lb.size > _PAIR_GUARD:
        raise ResourceLimitError(
            f"{la.size} x {lb.size} interval pairs exceed the working guard of {_PAIR_GUARD}"
        )
    if not la.size * lb.size:
        return BandCover(())
    if la.size < lb.size:  # products of floats commute exactly
        la, ha, lb, hb = lb, hb, la, ha
    step = max(1, _PAIR_BLOCK // lb.size)
    return BandCover(merge_intervals(np.concatenate([
        np.column_stack(_merged_runs(*_pair_hulls(la[k:k + step], ha[k:k + step], lb, hb)))
        for k in range(0, la.size, step)
    ])))


def log_positive_part(a: BandCover, floor: float = DEFAULT_LOG_FLOOR) -> BandCover:
    """Elementwise log of the cover's intersection with (0, inf).

    Bands crossing zero are clipped at ``floor`` so no endpoint becomes -inf.
    Raises ValueError when nothing intersects the positive axis.
    """
    if floor <= 0:
        raise ValueError("the clipping floor must be positive")
    out = []
    for lo, hi in a.intervals.tolist():
        if hi < floor:
            continue
        out.append((math.log(max(lo, floor)), math.log(hi)))
    if not out:
        raise ValueError("the cover does not intersect the positive axis")
    return BandCover(merge_intervals(out))


def is_interval(cover: BandCover, tol: float) -> bool:
    """True when every gap of the cover is no longer than ``tol``."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    lo, hi = gaps(cover).T
    return bool(np.all(hi - lo <= tol))
