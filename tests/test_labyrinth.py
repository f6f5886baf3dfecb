import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasilab import labyrinth
from quasilab.errors import ResourceLimitError
from quasilab.labyrinth import (
    AXIS_MEMO_SIZE,
    LabyrinthParams,
    axis_eigenvalues,
    build_2d,
    count_products_leq,
    dense_eigs_2d,
    dos2d_cdf,
    eigs_1d_axes,
    log_convolution_cdf,
    product_eigs,
    spectrum_2d,
    sublattice_dos_compare,
)
from quasilab.bands import is_interval
from quasilab.jacobi1d import ModelParams, build_window

FREE = LabyrinthParams(1, 1.0, 1.0)
GENERIC = LabyrinthParams(1, 1.3, 1.5)


def sites(n, sublattice="full"):
    """The basis of ``build_2d``: row-major (m, k), filtered by parity."""
    want = {"full": (0, 1), "even": (0,), "odd": (1,)}[sublattice]
    return [(m, k) for m in range(n) for k in range(n) if (m + k) % 2 in want]


def site_loop_matrix(p, n, sublattice="full"):
    """The box operator assembled site by site and bond by bond, the oracle of ``build_2d``."""
    w1, w2 = build_window(p.axis1, n - 1), build_window(p.axis2, n - 1)
    index = {site: i for i, site in enumerate(sites(n, sublattice))}
    mat = np.zeros((len(index), len(index)))
    for (m, k), i in index.items():
        for dm in (-1, 1):
            for dk in (-1, 1):
                j = index.get((m + dm, k + dk))
                if j is not None:
                    # the bond (m, m+1) along axis 1 carries omega1(m+1) = w1[m]
                    mat[i, j] = (w1[m] if dm == 1 else w1[m - 1]) * (w2[k] if dk == 1 else w2[k - 1])
    return mat


class TestParams:
    def test_couplings(self):
        p = LabyrinthParams(1, 2.0, 1.0)
        assert (p.axis1.coupling, p.axis2.coupling) == pytest.approx((1.5, 0.0))
        assert p.axis1.a == 2.0 and p.axis2.a == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LabyrinthParams(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            LabyrinthParams(1, -1.0, 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            LabyrinthParams(1, 1.0, math.inf)
        with pytest.raises(ValueError, match="its square"):
            LabyrinthParams(1, 1e200, 1.0)  # a * a overflows
        with pytest.raises(ValueError, match="its square"):
            LabyrinthParams(1, 1.0, 1e-300)  # a * a underflows to a zero coupling

    @pytest.mark.parametrize("s", [0, 1])
    @pytest.mark.parametrize("a", [1.5, 0.0, -1.0, math.inf, math.nan, 1e200, 1e-300])
    def test_each_axis_is_checked_as_a_chain(self, s, a):
        try:
            ModelParams(s, a)
        except ValueError as exc:
            for axes in ((a, 1.0), (1.0, a)):
                with pytest.raises(ValueError) as caught:
                    LabyrinthParams(s, *axes)
                assert str(caught.value) == str(exc)
        else:
            for axes in ((a, 1.0), (1.0, a)):
                LabyrinthParams(s, *axes)


class TestBuild2D:
    def test_free_2x2_corners(self):
        mat = build_2d(FREE, 2)
        # basis (0,0), (0,1), (1,0), (1,1): each corner couples only to the opposite one
        assert mat.shape == (4, 4)
        assert mat[0, 3] == mat[3, 0] == mat[1, 2] == mat[2, 1] == 1.0
        assert np.count_nonzero(mat) == 4

    def test_first_coupling_weights(self):
        p = LabyrinthParams(2, 3.0, 5.0)
        mat = build_2d(p, 4)
        w1 = build_window(p.axis1, 3)  # omega1(1..3)
        w2 = build_window(p.axis2, 3)
        # (0,0) -> (1,1) and (2,1) -> (3,0), at flat indices m * 4 + k
        assert mat[0, 5] == w1[0] * w2[0]
        assert mat[9, 12] == w1[2] * w2[0]

    def test_symmetry_of_entries(self):
        mat = build_2d(GENERIC, 5)
        assert np.array_equal(mat, mat.T)

    def test_parity_split_partitions_sites(self):
        full = build_2d(GENERIC, 5)
        even = build_2d(GENERIC, 5, "even")
        odd = build_2d(GENERIC, 5, "odd")
        assert (len(even), len(odd), len(full)) == (13, 12, 25)
        parity = np.array([(m + k) % 2 for m, k in sites(5)])
        assert np.array_equal(even, full[np.ix_(parity == 0, parity == 0)])
        assert np.array_equal(odd, full[np.ix_(parity == 1, parity == 1)])

    def test_full_is_direct_sum_of_parities(self):
        # no coupling connects the two parity classes
        dense = build_2d(GENERIC, 4)
        for i, (m1, n1) in enumerate(sites(4)):
            for j, (m2, n2) in enumerate(sites(4)):
                if (m1 + n1) % 2 != (m2 + n2) % 2:
                    assert dense[i, j] == 0.0

    @pytest.mark.parametrize("sublattice", ["full", "even", "odd"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_matches_site_loop(self, s, sublattice):
        for p in (LabyrinthParams(s, 1.3, 1.5), LabyrinthParams(s, 4.0, 0.7)):
            for n in range(2, 17):
                assert build_2d(p, n, sublattice).tobytes() == site_loop_matrix(p, n, sublattice).tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            build_2d(FREE, 1)
        with pytest.raises(ValueError):
            build_2d(FREE, 3, "diagonal")


class TestDenseEigs2D:
    def test_free_2x2(self):
        got = dense_eigs_2d(build_2d(FREE, 2)).support
        assert np.allclose(got, [-1.0, -1.0, 1.0, 1.0])

    def test_symmetric_multiset(self):
        e = dense_eigs_2d(build_2d(GENERIC, 6)).support
        assert np.max(np.abs(e + e[::-1])) < 1e-9

    def test_size_cap(self, monkeypatch):
        # the side is checked before any matrix is built
        for name in ("diag", "kron"):
            monkeypatch.setattr(np, name, None)
        with pytest.raises(ResourceLimitError):
            dense_eigs_2d(build_2d(FREE, 17))


class TestProductEigs:
    def test_free_3x3_multiset(self):
        got = np.sort(product_eigs(FREE, 3).support)
        want = np.sort([2.0, 0.0, -2.0, 0.0, 0.0, 0.0, -2.0, 0.0, 2.0])
        assert np.allclose(got, want, atol=1e-9)

    def test_count(self):
        assert product_eigs(GENERIC, 5).size == 25

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("params", [GENERIC, LabyrinthParams(2, 2.0, 2.0)])
    def test_tensor_law(self, n, params):
        dense = dense_eigs_2d(build_2d(params, n)).support
        prod = np.sort(product_eigs(params, n).support)
        assert np.max(np.abs(dense - prod)) < 1e-7

    @staticmethod
    def zero_products(n):
        # #{p <= 0} - #{p < 0}: the products that are exactly zero
        e1, e2 = eigs_1d_axes(GENERIC, n)
        return count_products_leq(e1, e2, 0.0) - count_products_leq(e1, e2, np.nextafter(0.0, -np.inf))

    def test_zero_mass_odd_n(self):
        n = 5
        assert self.zero_products(n) == 2 * n - 1

    def test_zero_mass_even_n(self):
        assert self.zero_products(6) == 0

    def test_snapped_zero_for_odd_n(self):
        e1, e2 = eigs_1d_axes(GENERIC, 7)
        assert e1[3] == 0.0 and e2[3] == 0.0


class TestAxisMemo:
    def test_repeat_call_makes_no_solve(self, solves):
        first = eigs_1d_axes(GENERIC, 9)
        assert solves == [9, 9]
        second = eigs_1d_axes(GENERIC, 9)
        assert solves == [9, 9]
        assert all(a is b for a, b in zip(first, second))

    def test_equal_axes_solve_once(self, solves):
        e1, e2 = eigs_1d_axes(LabyrinthParams(1, 1.5, 1.5), 8)
        assert solves == [8]
        assert e1 is e2

    def test_other_size_or_hopping_misses(self, solves):
        eigs_1d_axes(FREE, 8)
        eigs_1d_axes(LabyrinthParams(1, 1.0, 1.5), 8)
        eigs_1d_axes(FREE, 9)
        assert solves == [8, 8, 9]

    def test_least_recently_used_list_is_dropped(self, solves):
        sizes = range(2, AXIS_MEMO_SIZE + 2)
        for n in sizes:
            axis_eigenvalues(1, 1.5, n)
        axis_eigenvalues(1, 1.5, 2)  # now the most recently used
        axis_eigenvalues(1, 1.5, AXIS_MEMO_SIZE + 2)  # drops size 3, the least recently used
        assert solves == [*sizes, AXIS_MEMO_SIZE + 2]
        axis_eigenvalues(1, 1.5, 2)
        axis_eigenvalues(1, 1.5, 3)
        assert solves == [*sizes, AXIS_MEMO_SIZE + 2, 3]

    def test_lists_are_read_only(self, solves):
        for e in eigs_1d_axes(GENERIC, 7):
            with pytest.raises(ValueError):
                e[0] = 1.0

    def test_warm_memo_gives_identical_outputs(self, solves):
        n, grid = 9, np.linspace(-5.0, 5.0, 41)
        queries = [
            lambda: product_eigs(GENERIC, n).support.tobytes(),
            lambda: dos2d_cdf(GENERIC, grid, n).tobytes(),
            lambda: log_convolution_cdf(GENERIC, (-1.0, 2.0), n, 64),
        ]
        cold = []
        for query in queries:
            axis_eigenvalues.cache_clear()
            cold.append(query())
        warm = [query() for query in queries]
        assert solves == [n, n] * len(queries)
        assert warm == cold


# ties, signed zeros, and values whose products underflow to subnormals or to 0
_EIG_VALUES = st.one_of(
    st.floats(min_value=-4, max_value=4),
    st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1e-170, -1e-170, 3e-160, -3e-160]),
)
_EIG_LISTS = st.lists(_EIG_VALUES, min_size=1, max_size=18)


def _enumerated(e1, e2) -> np.ndarray:
    """The oracle: all N1 x N2 float products, sorted."""
    return np.sort(np.multiply.outer(np.asarray(e1, dtype=float), np.asarray(e2, dtype=float)).ravel())


def _direct_count(e1, e2, bound) -> int:
    """Count of the N1 x N2 float products that are <= bound, by enumeration."""
    return int(np.count_nonzero(_enumerated(e1, e2) <= bound))


class TestProductCounting:
    @given(
        st.lists(st.floats(min_value=-4, max_value=4), min_size=1, max_size=18),
        st.lists(st.floats(min_value=-4, max_value=4), min_size=1, max_size=18),
        st.floats(min_value=-17, max_value=17),
    )
    def test_sorted_matches_direct_exactly(self, e1, e2, bound):
        assert count_products_leq(e1, e2, bound) == _direct_count(e1, e2, bound)

    @given(
        st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=16),
        st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=16),
        st.sampled_from([-4.0, -1.0, -0.0, 0.0, 0.25, 1.0, 4.0]),
    )
    def test_sorted_matches_direct_with_ties(self, e1, e2, bound):
        assert count_products_leq(e1, e2, bound) == _direct_count(e1, e2, bound)

    @given(_EIG_LISTS, _EIG_LISTS, st.data())
    def test_matches_sorted_enumeration(self, e1, e2, data):
        prods = _enumerated(e1, e2)
        atom = st.sampled_from(prods.tolist())
        energy = st.one_of(
            atom,
            atom.map(lambda p: float(np.nextafter(p, math.inf))),
            st.floats(min_value=-17, max_value=17),
            st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-320, -1e-320, math.inf, -math.inf]),
        )
        energies = np.array(data.draw(st.lists(energy, min_size=1, max_size=8)))
        leq = np.searchsorted(prods, energies, side="right")
        less = np.searchsorted(prods, energies, side="left")
        assert count_products_leq(e1, e2, energies).tolist() == leq.tolist()
        # strict counts through the next float below
        assert count_products_leq(e1, e2, np.nextafter(energies, -math.inf)).tolist() == less.tolist()
        scalar = count_products_leq(e1, e2, float(energies[0]))
        assert type(scalar) is int and scalar == leq[0]

    def test_chunked_energies_keep_shape_and_counts(self):
        rng = np.random.default_rng(5)
        e1, e2 = rng.normal(size=300), np.round(rng.normal(size=200), 2)
        energies = rng.normal(scale=2.0, size=(40, 50))
        energies[0, :3] = (0.0, -0.0, float(np.multiply.outer(e1, e2).ravel()[7]))
        got = count_products_leq(e1, e2, energies)
        assert got.shape == energies.shape
        want = np.searchsorted(_enumerated(e1, e2), energies, side="right")
        assert np.array_equal(got, want)


    @pytest.mark.parametrize("mirror", [False, True])
    @pytest.mark.parametrize("side", [-1, 0])
    def test_both_formulations_match_enumeration(self, monkeypatch, mirror, side):
        # side -1 is one energy below ROW_SEARCH_ENERGIES (guess and verify), 0 at it (search each row)
        ran = []

        def recording(name):
            fn = getattr(labyrinth, name)
            return lambda *args: ran.append(name) or fn(*args)

        for name in ("_row_counts", "_searched_counts"):
            monkeypatch.setattr(labyrinth, name, recording(name))
        rng = np.random.default_rng(7)
        specials = [-2.0, -0.0, 0.0, 1.0, 5e-324, -1e-170, 3e-160, 1e200, -1e200]
        e1, e2 = (np.concatenate([rng.normal(size=size), specials]) for size in (40, 31))
        if mirror:
            e1, e2 = (np.concatenate([-np.sort(np.abs(e))[::-1], np.sort(np.abs(e))]) for e in (e1, e2))
        with np.errstate(over="ignore"):  # the products of +-1e200
            prods = _enumerated(e1, e2)
        m = labyrinth.ROW_SEARCH_ENERGIES + side
        pool = np.concatenate([prods, np.nextafter(prods, -math.inf), rng.normal(scale=3.0, size=50),
                               [0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan]])
        energies = np.append(rng.choice(pool, m - 2), [math.nan, -math.nan])
        want = np.where(np.isnan(energies), 0, np.searchsorted(prods, energies, side="right"))
        assert count_products_leq(e1, e2, energies).tolist() == want.tolist()
        assert set(ran) == {"_row_counts" if side < 0 else "_searched_counts"}


_POSITIVE = st.one_of(st.floats(min_value=1e-3, max_value=4.0), st.sampled_from([0.5, 1.0, 2.0, 5e-324, 1e-170]))


@st.composite
def _mirrored_lists(draw):
    """Lists with -e[::-1] == e, sorted or not, of odd or even length, and near misses of them."""
    half = draw(st.lists(_POSITIVE, min_size=0, max_size=9))
    if draw(st.booleans()):
        half = sorted(half)
        half = [-x for x in half[::-1]]  # the negative half, ascending
    else:
        half = [x if draw(st.booleans()) else -x for x in half]  # unsorted
    middle = [draw(st.sampled_from([0.0, -0.0]))] if draw(st.booleans()) else []
    e = half + middle + [-x for x in half[::-1]]
    if not e:
        e = [0.0]
    spoil = draw(st.sampled_from(["none", "ulp", "shuffle"]))
    if spoil == "ulp":  # one entry one ulp off the mirror
        i = draw(st.integers(0, len(e) - 1))
        e[i] = float(np.nextafter(e[i], draw(st.sampled_from([math.inf, -math.inf]))))
    elif spoil == "shuffle":
        e = draw(st.permutations(e))
    return e


class TestMirroredCounting:
    @given(_mirrored_lists(), _mirrored_lists(), st.data())
    def test_matches_direct_enumeration(self, e1, e2, data):
        prods = _enumerated(e1, e2)
        energy = st.one_of(
            st.sampled_from(prods.tolist()),
            st.floats(min_value=-17, max_value=17),
            st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, math.inf, -math.inf]),
        )
        energies = np.array(data.draw(st.lists(energy, min_size=1, max_size=8)))
        assert count_products_leq(e1, e2, energies).tolist() == [_direct_count(e1, e2, x) for x in energies]

    @pytest.mark.parametrize("n", [8, 9])
    def test_mirrored_axes_take_one_pass_over_half_the_rows(self, monkeypatch, n):
        rows = []
        row_counts = labyrinth._row_counts

        def recording(a, b, e):
            rows.append(a.size)
            return row_counts(a, b, e)

        monkeypatch.setattr(labyrinth, "_row_counts", recording)
        e1, e2 = eigs_1d_axes(GENERIC, n)
        grid = np.linspace(-9.0, 9.0, 41)
        got = count_products_leq(e1, e2, grid)
        assert rows == [n - n // 2]  # the positive rows, and the zero row of odd n
        assert got.tolist() == [_direct_count(e1, e2, x) for x in grid]
        rows.clear()
        count_products_leq(e1, np.nextafter(e2, 1.0), grid)  # no longer mirrored: both halves
        assert rows == [n // 2 + n % 2, n // 2]


class TestDos2dCdf:
    def test_limits(self):
        assert dos2d_cdf(GENERIC, 1e9, 8) == 1.0
        assert dos2d_cdf(GENERIC, -1e9, 8) == 0.0

    def test_single_site_box(self):
        # the 1x1 restriction is the zero matrix; its only product is 0
        assert dos2d_cdf(GENERIC, 0.0, 1) == 1.0
        assert dos2d_cdf(GENERIC, -0.1, 1) == 0.0

    def test_half_at_zero_even_n(self):
        assert dos2d_cdf(GENERIC, 0.0, 8) == pytest.approx(0.5)
        assert dos2d_cdf(LabyrinthParams(2, 4.0, 1.7), 0.0, 12) == pytest.approx(0.5)

    def test_matches_dense_cdf(self):
        n = 8
        dense = dense_eigs_2d(build_2d(GENERIC, n))
        grid = np.linspace(-4.5, 4.5, 101)
        got = dos2d_cdf(GENERIC, grid, n)
        assert np.max(np.abs(got - dense.cdf(grid))) <= 1 / n**2 + 1e-9

    def test_monotone_right_continuous_step(self):
        grid = np.linspace(-6, 6, 241)
        vals = dos2d_cdf(GENERIC, grid, 12)
        assert np.all(np.diff(vals) >= 0)
        prods = product_eigs(GENERIC, 12).support
        # right continuity: value at an atom includes the atom
        e = float(prods[len(prods) // 3])
        assert dos2d_cdf(GENERIC, e, 12) > dos2d_cdf(GENERIC, e - 1e-9, 12)

    def test_symmetry_up_to_zero_mass(self):
        n = 9
        zm = (2 * n - 1) / n**2  # the zero products of odd N
        for e in (0.3, 1.1, 2.7):
            lhs = dos2d_cdf(GENERIC, -e, n) + dos2d_cdf(GENERIC, e, n)
            # F(-E) + F(E^-) = 1 plus whatever sits exactly at the two endpoints
            assert abs(lhs - 1.0) <= zm + 2.0 / n**2 + 1e-12


class TestLogConvolution:
    def test_positive_halfline_is_half(self):
        val = log_convolution_cdf(LabyrinthParams(1, 1.2, 1.4), (0.0, math.inf), 64, 256)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_negative_interval_uses_minus_part_only(self):
        p = LabyrinthParams(1, 1.2, 1.4)
        whole_neg = log_convolution_cdf(p, (-math.inf, 0.0), 64, 256)
        assert whole_neg == pytest.approx(0.5, abs=1e-12)

    def test_agrees_with_direct_counting(self):
        p = LabyrinthParams(1, 1.6, 1.6)
        n, bins = 256, 512
        prods = product_eigs(p, n)
        qs = np.quantile(prods.support, np.linspace(0.05, 0.95, 13))
        tol = 2.0 / bins + 2.0 * (2 * n - 1) / n**2
        for lo, hi in zip(qs, qs[1:]):
            direct = dos2d_cdf(p, hi, n) - dos2d_cdf(p, lo, n)
            conv = log_convolution_cdf(p, (float(lo), float(hi)), n, bins)
            assert abs(conv - direct) <= tol

    def test_validation(self):
        with pytest.raises(ValueError):
            log_convolution_cdf(GENERIC, (0.0, 1.0), 16, 8)
        with pytest.raises(ValueError):
            log_convolution_cdf(GENERIC, (1.0, 0.0), 16, 256)


class TestSpectrum2D:
    def test_free_square(self):
        c = spectrum_2d(FREE, 16, 1e-3)
        assert c.count == 1
        lo, hi = c.intervals[0]
        assert lo == pytest.approx(-4.0, abs=5e-3)
        assert hi == pytest.approx(4.0, abs=5e-3)

    def test_small_coupling_interval(self):
        lam = 0.1
        a = (lam + math.sqrt(lam * lam + 4)) / 2
        c = spectrum_2d(LabyrinthParams(1, a, a), 15, 1e-4)
        assert is_interval(c, 4e-4)

    def test_large_coupling_has_gaps(self):
        c = spectrum_2d(LabyrinthParams(1, 4.0, 4.0), 15, 1e-4)
        assert not is_interval(c, 4e-4)

    def test_products_lie_in_cover_hull(self):
        p = LabyrinthParams(1, 2.0, 1.5)
        c = spectrum_2d(p, 10, 1e-3)
        prods = product_eigs(p, 32).support
        lo, hi = c.hull
        assert prods[0] >= lo - 1e-6 and prods[-1] <= hi + 1e-6


class TestSublattices:
    def test_full_equals_disjoint_union(self):
        n = 6
        full = dense_eigs_2d(build_2d(GENERIC, n)).support
        even = dense_eigs_2d(build_2d(GENERIC, n, "even")).support
        odd = dense_eigs_2d(build_2d(GENERIC, n, "odd")).support
        assert np.allclose(np.sort(np.concatenate([even, odd])), full, atol=1e-9)

    def test_free_distance_small(self):
        rep = sublattice_dos_compare(LabyrinthParams(1, 1.0, 1.0), 8)
        assert rep.even_odd_distance <= 0.15
        assert rep.sites_full == 64 and rep.sites_even + rep.sites_odd == 64

    def test_distance_shrinks_with_n(self):
        p = GENERIC
        d8 = sublattice_dos_compare(p, 8).even_odd_distance
        d16 = sublattice_dos_compare(p, 16).even_odd_distance
        assert d16 <= d8

    def test_report_json(self):
        rep = sublattice_dos_compare(FREE, 4)
        obj = rep.to_json_obj()
        assert obj["n"] == 4 and obj["sites_full"] == 16
