import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasilab import bands, tracemap
from quasilab.bands import (
    BandCover,
    box_dimension_estimate,
    gaps,
    is_interval,
    log_positive_part,
    merge_intervals,
    product_set,
    thickness,
)
from quasilab.errors import ResourceLimitError
from quasilab.jacobi1d import ModelParams


def middle_thirds_cover(level: int) -> BandCover:
    """Stage ``level`` of the middle-thirds construction on [0, 1]."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    ivs = [(0.0, 1.0)]
    for _ in range(level):
        ivs = [piece for a, b in ivs for piece in ((a, a + (b - a) / 3), (b - (b - a) / 3, b))]
    return BandCover(tuple(ivs))


def sample_points(cover, per_band=5):
    pts = []
    for lo, hi in cover.intervals:
        pts.extend(np.linspace(lo, hi, per_band))
    return pts


# strategy for small well-formed covers.  Three draws in four put at least two
# bands on the grid of step 2**-19 * max(|lo|, |hi|): every endpoint and
# difference is exact, and every band, gap and bridge is at least 2**-19 (about
# 1.9e-6) of the largest endpoint.  The other draws take free floats, which
# reach single bands and gaps or bridges of a few ulps.
@st.composite
def covers(draw, max_bands=5, lo=-5.0, hi=5.0):
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        edges = draw(
            st.lists(
                st.floats(min_value=lo, max_value=hi, allow_nan=False),
                min_size=2,
                max_size=2 * max_bands,
                unique=True,
            )
        )
    else:
        step = max(abs(lo), abs(hi)) * 2.0**-19
        ticks = st.integers(min_value=math.ceil(lo / step), max_value=math.floor(hi / step))
        edges = [t * step for t in draw(
            st.lists(ticks, min_size=4, max_size=2 * max_bands, unique=True))]
    edges = sorted(edges)
    if len(edges) % 2:
        edges = edges[:-1]
    ivs = [(edges[i], edges[i + 1]) for i in range(0, len(edges), 2)]
    return BandCover(tuple(ivs))


# unit roundoff of binary64: round-to-nearest moves a normal result by at most U * |result|
U = sys.float_info.epsilon / 2


def scaled(c, factor):
    """The cover ``c`` with every endpoint multiplied by ``factor``.

    ``factor`` must be finite and positive.  Each image is the product
    rounded to nearest.  Raises ValueError, naming the factor and the
    endpoint, when an image is infinite, when a nonzero endpoint's image
    is below ``sys.float_info.min`` in magnitude (subnormal or zero), or
    when two distinct endpoints have the same image.  On success every
    strict inequality between endpoints is kept and each image is within
    eps/2 of the exact product, relative to the image.  For ``factor = 2**k``
    every image is exact, so ``thickness`` is bit-identical.
    """
    if not (math.isfinite(factor) and factor > 0):
        raise ValueError(f"scaling factor must be finite and positive, got {factor!r}")
    # Python floats, so the messages show plain reprs
    ends = c.intervals.ravel().tolist()
    images = [x * factor for x in ends]
    for x, y in zip(ends, images):
        if math.isinf(y):
            raise ValueError(f"scaling by {factor!r} overflows endpoint {x!r} to {y!r}")
        if x != 0 and abs(y) < sys.float_info.min:
            raise ValueError(
                f"scaling by {factor!r} takes endpoint {x!r} to {y!r}, "
                "below the smallest normal float"
            )
    # rounding is monotone, so only neighbouring endpoints can collide
    for x0, x1, y0, y1 in zip(ends, ends[1:], images, images[1:]):
        if x0 != x1 and y0 == y1:
            raise ValueError(
                f"scaling by {factor!r} gives endpoints {x0!r} and {x1!r} "
                f"the same image {y0!r}"
            )
    return BandCover(np.reshape(images, (-1, 2)))


def refusal_causes(c, factor):
    """What ``scaled(c, factor)`` must name when it raises, recomputed from the images."""
    pairs = [(x, x * factor) for x in c.intervals.ravel().tolist()]
    causes = [f"overflows endpoint {x!r}" for x, y in pairs if math.isinf(y)]
    causes += [
        f"takes endpoint {x!r} to {y!r}, below the smallest normal float"
        for x, y in pairs
        if x != 0 and abs(y) < sys.float_info.min
    ]
    causes += [
        f"gives endpoints {x0!r} and {x1!r} the same image"
        for (x0, y0), (x1, y1) in zip(pairs, pairs[1:])
        if x0 != x1 and y0 == y1
    ]
    return causes


def scaled_or_refused(c, factor):
    """``scaled(c, factor)``, or None when it raises for a cause that really holds."""
    causes = refusal_causes(c, factor)
    try:
        image = scaled(c, factor)
    except ValueError as err:
        msg = str(err)
        assert repr(factor) in msg and any(cause in msg for cause in causes), msg
        return None
    assert not causes
    return image


def gap_and_bridge_lengths(c):
    """Every gap of ``c`` and its two ordered-gap bridges, by brute force."""
    gs = gaps(c).tolist()
    lo, hi = c.hull
    out = []
    for i, (a, b) in enumerate(gs):
        length = b - a
        left = max((gb for ga, gb in gs[:i] if gb - ga >= length), default=lo)
        right = min((ga for ga, gb in gs[i + 1:] if gb - ga >= length), default=hi)
        out += [length, a - left, right - b]
    return out


def scaled_thickness_tolerance(M, m):
    """Relative bound on |thickness(image) - thickness(c)| for ``image = scaled(c, f)``.

    M is the largest endpoint magnitude of the image and m its smallest positive
    gap or bridge.  Each image y of an endpoint x is f*x rounded to nearest and
    normal, so |y - f*x| <= U*|y| <= U*M.  A gap or bridge of the image is a
    difference D = y_a - y_b, so |D - f*(x_a - x_b)| <= 2*U*M = eta.  Its
    computed value fl(D) is at least m, so D >= m / (1 + U), and D differs from
    the exact f*(x_a - x_b) by a relative rho <= eta / (m / (1 + U) - eta).
    Each per-gap ratio min(bridge) / gap of the two covers then differs by the
    factors (1 + rho) for the bridge and the gap, and by the roundings of two
    subtractions and a division on each side:
    |log(t2 / t1)| <= -2*log(1 - rho) - 6*log(1 - U).  A zero bridge is zero on
    both sides, and the minimum over gaps keeps the bound as long as rounding
    does not reorder the gap lengths that pick the bridges.  With rho < 1 every
    ratio lies within [m / 2M, 2M / m] (about [1e-16, 1e16]), so the division
    neither overflows nor underflows.  With rho >= 1 rounding can move the
    thickness arbitrarily, and the bound is infinite.
    """
    eta = 2 * U * M
    if m / (1 + U) <= 2 * eta:
        return math.inf
    rho = eta / (m / (1 + U) - eta)
    return math.expm1(-2 * math.log1p(-rho) - 6 * math.log1p(-U))


class TestMergeIntervals:
    def test_merges_overlaps(self):
        assert merge_intervals([(0, 2), (1, 3), (5, 6)]).tolist() == [[0.0, 3.0], [5.0, 6.0]]

    def test_merges_touching(self):
        assert merge_intervals([(0, 1), (1, 2)]).tolist() == [[0.0, 2.0]]

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(bands, "INTERVAL_CAP", 10)
        assert len(merge_intervals([(i, i + 0.4) for i in range(10)])) == 10
        with pytest.raises(ResourceLimitError):
            merge_intervals([(i, i + 0.4) for i in range(11)])

    @given(st.lists(st.tuples(st.floats(-10, 10), st.floats(0, 3)), min_size=1, max_size=30))
    def test_output_sorted_disjoint_and_covers_inputs(self, raw):
        pairs = [(a, a + w) for a, w in raw]
        merged = merge_intervals(pairs)
        for (_, b), (c, _) in zip(merged, merged[1:]):
            assert c > b
        for a, w in raw:
            assert any(lo <= a and a + w <= hi for lo, hi in merged)


    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(0, 3)), min_size=1, max_size=40),
           st.randoms(use_true_random=False))
    def test_result_does_not_depend_on_input_order(self, raw, rnd):
        # small integer ends give many ties in both ends
        pairs = [(a / 2, (a + w) / 2) for a, w in raw]
        shuffled = pairs[:]
        rnd.shuffle(shuffled)
        want = merge_intervals(sorted(pairs)).tolist()
        assert merge_intervals(shuffled).tolist() == want
        assert merge_intervals(np.array(shuffled)).tolist() == want


def tuple_loop_refusal(ivs):
    """The message a cover kept as a tuple of float pairs gives ``ivs``, or None if it accepts them."""
    ivs = tuple((float(a), float(b)) for a, b in ivs)
    for a, b in ivs:
        if not a <= b:
            if math.isnan(a) or math.isnan(b):
                return "interval endpoints must not be NaN"
            return "intervals must satisfy lo <= hi"
    for (_, b), (c, _) in zip(ivs, ivs[1:]):
        if c <= b:
            return "intervals must be sorted and disjoint"
    return None


endpoints = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 2.0]), st.floats())
# raw lists give unsorted, overlapping and NaN pairs; sorted endpoints paired in
# order give covers, touching bands and -0.0 against 0.0
raw_pairs = st.lists(st.tuples(endpoints, endpoints), max_size=6)
ordered_pairs = st.lists(endpoints, max_size=12).map(sorted).map(lambda xs: list(zip(xs[::2], xs[1::2])))


class TestBandCover:
    @given(st.one_of(raw_pairs, ordered_pairs))
    @example([])
    @example([(0.0, 1.0), (1.0, 2.0)])  # touching
    @example([(-1.0, -0.0), (0.0, 1.0)])  # -0.0 touches 0.0
    @example([(-math.inf, 0.0), (1.0, math.inf)])
    @example([(1.0, 0.0), (math.nan, 2.0)])  # the first bad pair names the fault
    def test_refuses_exactly_as_the_tuple_loop(self, ivs):
        want = tuple_loop_refusal(ivs)
        if want is None:
            assert BandCover(ivs).intervals.tolist() == [[float(a), float(b)] for a, b in ivs]
            return
        with pytest.raises(ValueError) as err:
            BandCover(ivs)
        assert str(err.value) == want

    def test_intervals_are_a_read_only_float64_copy(self):
        source = np.array([[0, 1], [2, 3]])
        c = BandCover(source)
        assert c.intervals.dtype == np.float64 and c.intervals.shape == (2, 2)
        assert not c.intervals.flags.writeable
        with pytest.raises(ValueError):
            c.intervals[0, 0] = -1.0
        source[0, 0] = -1
        assert c.intervals.tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert BandCover(()).intervals.shape == (0, 2)

    @pytest.mark.parametrize("ivs", [[(0.0, 1.0, 2.0)], [0.0, 1.0], [[[0.0, 1.0]]]])
    def test_refuses_what_is_not_pairs(self, ivs):
        with pytest.raises(ValueError, match="pairs"):
            BandCover(ivs)

    def test_every_producer_gives_the_array(self):
        c = BandCover(((-2.0, -1.0), (1.0, 2.0)))
        made = [product_set(c, c), scaled(c, 3.0), log_positive_part(c),
                *tracemap.cover_sequence(ModelParams(1, 1.5), [2, 4], 1e-3)]
        for cover in made:
            assert cover.intervals.dtype == np.float64 and cover.intervals.shape == (cover.count, 2)
            assert not cover.intervals.flags.writeable

    def test_total_length_sums_left_to_right(self):
        # widths 1 and fifteen of 2**-53: left to right each small width rounds
        # away, where numpy's pairwise sum gives 1 + 7 * 2**-52
        ivs = [(-1.0, 0.0)] + [(0.13 + 0.005 * k, 0.13 + 0.005 * k + 2.0**-53) for k in range(15)]
        assert BandCover(ivs).total_length.hex() == sum(b - a for a, b in ivs).hex() == (1.0).hex()

    def test_validation(self):
        with pytest.raises(ValueError):
            BandCover(((0, 1), (0.5, 2)))
        with pytest.raises(ValueError):
            BandCover(((1, 0),))

    @pytest.mark.parametrize(
        "ivs", [((math.nan, 1.0),), ((0.0, math.nan),), ((0.0, 1.0), (math.nan, 2.0))]
    )
    def test_rejects_nan_endpoints(self, ivs):
        with pytest.raises(ValueError, match="NaN"):
            BandCover(ivs)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_scaled_rejects_non_finite_or_non_positive_factor(self, factor):
        with pytest.raises(ValueError, match="finite and positive"):
            scaled(BandCover(((0.0, 1.0), (2.0, 3.0))), factor)

    def test_scaled_refuses_underflow(self):
        # 5e-324 * 0.5 rounds to 0: the band would collapse to a point
        msg = r"by 0\.5 takes endpoint 5e-324 to 0\.0, below the smallest normal"
        with pytest.raises(ValueError, match=msg):
            scaled(BandCover(((0.0, 5e-324), (1.0, 2.0))), 0.5)

    def test_scaled_refuses_gap_closure(self):
        # 1.75 and the next float share the rounded image 0.525: the gap would close
        upper = math.nextafter(1.75, 2.0)
        msg = rf"endpoints 1\.75 and {upper!r} the same image 0\.525"
        with pytest.raises(ValueError, match=msg):
            scaled(BandCover(((0.0, 1.75), (upper, 2.0))), 0.3)

    def test_scaled_refuses_overflow(self):
        with pytest.raises(ValueError, match=r"by 1e\+308 overflows endpoint 2\.0 to inf"):
            scaled(BandCover(((0.0, 1.0), (2.0, 3.0))), 1e308)

    def test_basic_properties(self):
        c = BandCover(((0, 1), (2, 3)))
        assert c.hull == (0.0, 3.0)
        assert c.total_length == 2.0
        assert c.contains(0.5) and c.contains(2.0) and not c.contains(1.5)


def blocking_indices_reference(lengths):
    """The monotonic-stack passes over numpy scalars, the oracle of ``bands._blocking_indices``."""
    m = lengths.size
    left = np.full(m, -1, dtype=np.intp)
    stack = []
    for i in range(m):
        while stack and lengths[stack[-1]] < lengths[i]:
            stack.pop()
        left[i] = stack[-1] if stack else -1
        stack.append(i)
    right = np.full(m, -1, dtype=np.intp)
    stack = []
    for i in range(m - 1, -1, -1):
        while stack and lengths[stack[-1]] < lengths[i]:
            stack.pop()
        right[i] = stack[-1] if stack else -1
        stack.append(i)
    return left, right


class TestGapsAndThickness:
    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 5e-324]),
                              st.floats(min_value=0.0, max_value=1e300)), max_size=40))
    def test_blocking_indices_match_the_numpy_scalar_passes(self, lengths):
        lengths = np.array(lengths, dtype=float)
        got, want = bands._blocking_indices(lengths), blocking_indices_reference(lengths)
        assert all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))

    @given(covers(max_bands=12))
    @example(middle_thirds_cover(4))
    @example(BandCover(((0.0, 1.0), (2.0, 3.0), (4.0, 5.0), (6.0, 7.0))))  # equal gaps
    def test_thickness_matches_the_numpy_scalar_passes(self, c):
        with mock.patch.object(bands, "_blocking_indices", blocking_indices_reference):
            want = thickness(c)
        assert repr(thickness(c)) == repr(want)

    def test_single_band_no_gaps(self):
        c = BandCover(((0, 1),))
        assert gaps(c).shape == (0, 2)
        assert thickness(c) == math.inf

    def test_two_bands(self):
        c = BandCover(((0, 1), (2, 3)))
        assert gaps(c).tolist() == [[1.0, 2.0]]

    def test_middle_thirds_level_2_gaps(self):
        c = middle_thirds_cover(2)
        got = gaps(c)
        want = [(1 / 9, 2 / 9), (1 / 3, 2 / 3), (7 / 9, 8 / 9)]
        assert np.allclose(got, want)

    def test_thickness_example(self):
        # gap 0.5 flanked by bridges of length 1 on both sides
        c = BandCover(((0.0, 1.0), (1.5, 2.5)))
        assert thickness(c) == pytest.approx(2.0)

    @pytest.mark.parametrize("level", [1, 2, 3, 5, 8])
    def test_middle_thirds_thickness_is_one(self, level):
        # bridges equal gaps at every construction scale
        assert thickness(middle_thirds_cover(level)) == pytest.approx(1.0)

    def test_ordered_gap_bridges(self):
        # the bridge of the small gap stops at the neighbouring larger gap,
        # the bridge of the large gap runs to the hull boundary
        c = BandCover(((0.0, 4.0), (6.0, 7.0), (7.5, 11.5)))
        # gaps: (4,6) len 2, (7,7.5) len 0.5
        # large gap: bridges 4 (hull to 4) and 5.5... min(4, 11.5-6=5.5)/2 = 2
        # wait: right bridge of (4,6) extends to hull end since no gap >= 2 on right
        assert thickness(c) == pytest.approx(min(min(4.0, 5.5) / 2.0, min(1.0, 4.0) / 0.5))

    def test_hull_longer_than_the_largest_float(self):
        # the gap, 1e308, and its image under scaling by 2 are both finite halved
        c = BandCover(((-0.6e308, -0.5e308), (0.5e308, 0.6e308)))
        assert thickness(c) == 0.09999999999999996
        assert thickness(scaled(c, 2.0)) == 0.09999999999999996

    @pytest.mark.parametrize("intervals, want", [
        # a gap of one subnormal ulp: bridge / gap = 1e-15 / 5e-324 is beyond the float range
        (((-1e-15, 2.2250738585072014e-308), (2.225073858507202e-308, 5.0)), math.inf),
        # the same gap with a shorter bridge: a finite ratio, not the "no gaps" inf
        (((-1e-300, 2.2250738585072014e-308), (2.225073858507202e-308, 5.0)),
         (2.2250738585072014e-308 + 1e-300) / 5e-324),
        # a bridge of one subnormal ulp: bridge / gap = 5e-324 / 2.1 rounds to 0
        (((2.2250738585072014e-308, 2.225073858507202e-308), (2.1, 5.0)), 0.0),
    ], ids=["one-ulp-gap-overflows", "one-ulp-gap", "one-ulp-bridge"])
    def test_subnormal_gaps_and_bridges_keep_their_lengths(self, intervals, want):
        c = BandCover(intervals)
        assert thickness(c) == want
        assert thickness(scaled(c, 2.0**200)) == want  # far from the subnormal range

    @given(covers(), st.sampled_from([0.5, 2.0, 4.0, 2.0**-10, 2.0**13]))
    @example(BandCover(((0.0, 5e-324), (1.0, 2.0))), 0.5)  # a band collapses to a point
    @example(BandCover(((-1.0, 0.0), (5e-324, 1.0))), 0.5)  # a gap closes
    @example(BandCover(((0.0, 6.151187791510216e-307), (1.0, 2.0))), 2.0**-10)  # subnormal image
    def test_thickness_scale_invariant_exact_for_pow2(self, c, factor):
        # powers of two rescale every endpoint exactly, so the ratio set is identical
        image = scaled_or_refused(c, factor)
        if image is None:
            return
        assert thickness(image) == thickness(c)

    @given(covers(), st.floats(min_value=0.1, max_value=7.0))
    @example(BandCover(((-1.0, 0.0), (5e-324, 1.0))), 0.5)  # a gap closes
    @example(BandCover(((-4.472351217888728e-75, 0.0), (5e-324, 1.0))), 1.5)  # subnormal gap
    @example(BandCover(((0.0, 1.0), (2.0, 3.0))), 1e308)  # overflow
    @example(BandCover(((0.0, 1.0), (math.nextafter(1.0, 2.0), 2.0))), 0.1)  # gap of 1 ulp of 1
    # bridge / gap underflows to 0 before scaling and to 5e-324 after
    @example(BandCover(((2.2250738585072014e-308, 2.225073858507202e-308), (2.1, 5.0))), 7.0)
    # bridge / gap overflows to inf before scaling and not after
    @example(BandCover(((-1e-15, 2.2250738585072014e-308), (2.225073858507202e-308, 5.0))), 3.3)
    def test_thickness_scale_invariant_generally(self, c, factor):
        image = scaled_or_refused(c, factor)
        if image is None:
            return
        if not len(gaps(c)):
            assert thickness(image) == math.inf
            return
        M = max(abs(y) for iv in image.intervals for y in iv)
        m = min(d for d in gap_and_bridge_lengths(image) if d > 0)
        rel = scaled_thickness_tolerance(M, m)
        if m >= 1e-6 * M:
            assert rel <= 1e-9
        if rel < math.inf:
            assert thickness(image) == pytest.approx(thickness(c), rel=rel, abs=0)


class TestBoxDimension:
    def test_middle_thirds(self):
        seq = [middle_thirds_cover(k) for k in range(1, 9)]
        est = box_dimension_estimate(seq)
        assert est == pytest.approx(math.log(2) / math.log(3), abs=0.02)

    def test_uniformly_refined_interval(self):
        # an interval kept as ever finer touching-but-disjoint pieces has dimension 1
        seq = []
        for k in (2, 3, 4, 5, 6):
            n = 2**k
            eps = 2.0**-40
            ivs = tuple((i / n, (i + 1) / n - eps) for i in range(n))
            seq.append(BandCover(ivs))
        assert box_dimension_estimate(seq) == pytest.approx(1.0, abs=1e-6)

    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            box_dimension_estimate([middle_thirds_cover(1), middle_thirds_cover(2)])

    def test_degenerate_scales(self):
        # three copies of one cover have the same mean band width
        with pytest.raises(ValueError, match="degenerate"):
            box_dimension_estimate([middle_thirds_cover(2)] * 3)


    @pytest.mark.parametrize("scales", [
        [0.5, 0.5, 0.5], [0.5, 0.5, 0.25], [math.nan] * 3, [math.nan, math.nan, 0.5],
        [0.5, 0.5, math.nan], [math.inf] * 3, [math.inf, 0.5, 0.5], [0.0, -0.0, 0.0],
    ])
    def test_degenerate_exactly_when_unique_finds_one_scale(self, scales):
        # the test np.unique(scales).size < 2 made, NaNs counted as one value, without numpy.ma
        covers = [mock.Mock(count=1, total_length=np.float64(v)) for v in scales]
        degenerate = np.unique(np.array(scales)).size < 2
        try:
            with np.errstate(all="ignore"):
                box_dimension_estimate(covers)
        except (ValueError, np.linalg.LinAlgError) as exc:
            assert ("degenerate" in str(exc)) == degenerate
        else:
            assert not degenerate

class TestProductSet:
    def test_symmetric_squares(self):
        c = BandCover(((-2.0, 2.0),))
        assert product_set(c, c).intervals.tolist() == [[-4.0, 4.0]]

    def test_positive_bands(self):
        a = BandCover(((1.0, 2.0),))
        b = BandCover(((3.0, 4.0),))
        assert product_set(a, b).intervals.tolist() == [[3.0, 8.0]]

    def test_identity_band(self):
        a = BandCover(((-2.0, -1.0), (1.0, 2.0)))
        one = BandCover(((1.0, 1.0),))
        assert product_set(a, one).intervals.tolist() == a.intervals.tolist()

    @given(covers(max_bands=3), covers(max_bands=3))
    @settings(max_examples=60)
    def test_contains_pointwise_products(self, a, b):
        prod = product_set(a, b)
        for x in sample_points(a, 3):
            for y in sample_points(b, 3):
                assert prod.contains(x * y)


# covers on a coarse grid through 0, so that pair products and sums tie,
# touch and land on 0; a band may be a single point, and a cover may be empty
@st.composite
def coarse_covers(draw, max_bands=8):
    ticks = sorted(draw(st.lists(st.integers(-12, 12), max_size=2 * max_bands, unique=True)))
    ivs, i = [], 0
    while i < len(ticks):
        width = 0 if i + 1 == len(ticks) or draw(st.booleans()) else 1
        ivs.append((ticks[i] / 4, ticks[i + width] / 4))
        i += width + 1
    return BandCover(tuple(ivs))


class TestBlockedSetArithmetic:
    @given(coarse_covers(), coarse_covers(), st.sampled_from([1, 3]))
    @settings(max_examples=200)
    def test_result_does_not_depend_on_the_block(self, a, b, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bands, "_PAIR_BLOCK", 10**6)  # more than all pairs: one block
            want = product_set(a, b).intervals.tolist()
            mp.setattr(bands, "_PAIR_BLOCK", block)
            got = product_set(a, b).intervals.tolist()
        assert got == want

    def test_pair_guard_refuses_before_any_pair_is_formed(self, monkeypatch):
        def no_pairs(*args):
            raise AssertionError("pairs were formed before the guard was checked")

        monkeypatch.setattr(bands, "_pair_hulls", no_pairs)
        big = BandCover(tuple((k, k + 0.5) for k in range(2001)))
        small = BandCover(tuple((k, k + 0.5) for k in range(2000)))
        for x, y in ((big, small), (small, big)):
            with pytest.raises(ResourceLimitError, match="2001 x 2000|2000 x 2001"):
                product_set(x, y)

    def test_peak_memory_at_the_guard_is_a_few_blocks(self):
        # bound fixed from the block arithmetic before measuring: a block of
        # 2**14 pairs holds the four endpoint products, their min and max and
        # the merge's sorted copies, about ten float64 arrays of 2**14 (1.3 MB);
        # the merged runs of all blocks add 16 bytes a run.  16 MB is far below
        # the 4 x 2000**2 stack of all products (128 MB, 374 MB traced peak).
        c = BandCover(tuple((4 * lo - 2, 4 * hi - 2) for lo, hi in middle_thirds_cover(11).intervals[:2000]))
        assert c.count ** 2 == bands._PAIR_GUARD
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            prod = product_set(c, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prod.hull[1] == 4.0 and prod.count > 1
        assert peak < 16 * 2**20


class TestLogPositivePart:
    def test_log_of_unit_to_e(self):
        c = BandCover(((1.0, math.e),))
        out = log_positive_part(c)
        assert out.intervals[0][0] == pytest.approx(0.0)
        assert out.intervals[0][1] == pytest.approx(1.0)

    def test_clips_bands_crossing_zero(self):
        c = BandCover(((-2.0, 2.0),))
        out = log_positive_part(c, floor=1e-12)
        assert out.intervals[0][0] == pytest.approx(math.log(1e-12))
        assert out.intervals[0][1] == pytest.approx(math.log(2.0))

    def test_exp_band(self):
        c = BandCover(((math.e, math.e**2),))
        out = log_positive_part(c)
        assert np.allclose(out.intervals, [(1.0, 2.0)])

    def test_empty_positive_part_raises(self):
        with pytest.raises(ValueError):
            log_positive_part(BandCover(((-3.0, -1.0),)))

    def test_roundtrip_with_exp(self):
        # exp(log A) recovers every band of a positive cover
        a = BandCover(((1.0, 2.0), (3.0, 8.0)))
        out = log_positive_part(a)
        assert np.exp(out.intervals) == pytest.approx(a.intervals)


class TestIsInterval:
    def test_single_band(self):
        assert is_interval(BandCover(((0, 1),)), 0.0) is True

    def test_detects_gap(self):
        c = BandCover(((0, 1), (2, 3)))
        assert is_interval(c, 0.5) is False
        assert [g for g in gaps(c).tolist() if g[1] - g[0] > 0.5] == [[1.0, 2.0]]
        assert is_interval(c, 1.0) is True

    def test_tolerates_small_gaps(self):
        assert is_interval(BandCover(((0, 1), (1.0001, 2))), 1e-3) is True

    def test_rejects_a_negative_tolerance(self):
        with pytest.raises(ValueError, match="nonnegative"):
            is_interval(BandCover(((0, 1),)), -1e-300)
