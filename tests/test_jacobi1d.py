import math
import platform
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quasilab import jacobi1d
from quasilab.dense import symmetric_eigenvalues
from quasilab.errors import ResourceLimitError
from quasilab.jacobi1d import (
    ModelParams,
    build_window,
    count_below_offdiag,
    coupling_constant,
    eigenvalues_offdiag,
    free_ids,
    hopping_from_coupling,
    ids_curve,
)
from quasilab.labyrinth import EIG_TOL
from quasilab.words import DEFAULT_WORD_CAP, metallic_alpha


def free_chain_eigs(n):
    return np.sort(2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))


def chain_matrix(off):
    """The zero-diagonal tridiagonal matrix with couplings ``off``."""
    off = np.asarray(off, dtype=float)
    return np.diag(off, 1) + np.diag(off, -1)


def ids_at(params, energy, n):
    return float(ids_curve(params, [energy], n)[0])


class TestCoupling:
    def test_values(self):
        assert coupling_constant(2.0) == pytest.approx(1.5)
        assert coupling_constant(1.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            coupling_constant(-1.0)
        with pytest.raises(ValueError):
            coupling_constant(0.0)

    def test_inverse(self):
        assert hopping_from_coupling(1.5) == pytest.approx(2.0)
        assert hopping_from_coupling(0.0) == pytest.approx(1.0)

    @given(st.floats(min_value=0.0, max_value=50.0))
    def test_roundtrip(self, lam):
        assert coupling_constant(hopping_from_coupling(lam)) == pytest.approx(lam, abs=1e-12)

    def test_model_params(self):
        p = ModelParams(1, 2.0)
        assert p.coupling == pytest.approx(1.5)
        assert ModelParams.from_coupling(1, 1.5).a == pytest.approx(2.0)
        with pytest.raises(ValueError):
            ModelParams(0, 1.0)

    @pytest.mark.parametrize("a", [0.0, -1.0, math.inf, math.nan, 1e200, 1e-300])
    def test_model_params_rejects_nonpositive_or_nonfinite_hopping(self, a):
        with pytest.raises(ValueError, match="positive and finite"):
            ModelParams(1, a)


class TestBuildWindow:
    def test_golden_window(self):
        w = build_window(ModelParams(1, 2.0), 5)
        assert w.dtype == np.float64 and w.tolist() == [2.0, 1.0, 2.0, 2.0, 1.0]  # from "abaab"

    def test_free_window(self):
        w = build_window(ModelParams(1, 1.0), 7)
        assert w.tolist() == [1.0] * 7

    def test_silver_window(self):
        w = build_window(ModelParams(2, 3.0), 3)
        assert w.tolist() == [3.0, 3.0, 1.0]  # from "aab"

    def test_rotation_source_matches_substitution_at_phase_zero(self):
        p = ModelParams(2, 1.7)
        assert build_window(p, 40, "rotation", beta=0.0).tolist() == build_window(p, 40).tolist()

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            build_window(ModelParams(1, 2.0), DEFAULT_WORD_CAP + 1)

    def test_interior_offdiagonals_drop_first(self):
        # the N-site restriction keeps omega(2 .. N)
        w = build_window(ModelParams(1, 2.0), 5)
        assert w[1:].tolist() == [1.0, 2.0, 2.0, 1.0]
        dense = chain_matrix(w[1:])
        assert dense.shape == (5, 5)
        assert np.all(np.diag(dense) == 0)
        assert dense[0, 1] == 1.0


class TestCountBelow:
    def test_free_three_site(self):
        # eigenvalues -sqrt2, 0, sqrt2
        counts = count_below_offdiag(np.ones(2), [1.0, -1.0, -10.0, 10.0])
        assert counts.tolist() == [2, 1, 0, 3]

    def test_single_site(self):
        assert count_below_offdiag(np.empty(0), [0.5, -0.5]).tolist() == [1, 0]

    def test_matches_dense_counts(self):
        off = build_window(ModelParams(1, 2.0), 8)[1:]
        dense_eigs = symmetric_eigenvalues(chain_matrix(off))
        energies = np.linspace(-4.5, 4.5, 41)
        counts = count_below_offdiag(off, energies)
        assert counts.tolist() == [int(np.sum(dense_eigs < e)) for e in energies]

    def test_zero_couplings_split_the_count(self):
        # [2, 0, 0, 3] is the direct sum of blocks with eigenvalues {-2, 2}, {0}, {-3, 3};
        # at E = +-0.0 an unsplit recurrence forms 0/0 pivots and read [2, 3, 4, 3] here
        off, energies = [2.0, 0.0, 0.0, 3.0], [-1e-300, -0.0, 0.0, 1e-300]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = count_below_offdiag(off, energies)
        assert np.all(np.diff(counts) >= 0)
        blocks = [count_below_offdiag(b, energies) for b in ([2.0], [], [3.0])]
        assert counts.tolist() == np.sum(blocks, axis=0).tolist()
        assert counts[0] == 2 and counts[-1] == 3

    @given(st.lists(st.floats(min_value=0.1, max_value=4.0), min_size=1, max_size=12),
           st.floats(min_value=-12.0, max_value=12.0), st.floats(min_value=0.0, max_value=3.0))
    def test_monotone_in_energy(self, weights, e, de):
        off = np.asarray(weights[1:]) if len(weights) > 1 else np.array([])
        n = len(weights)
        c1, c2 = count_below_offdiag(off, [e, e + de])
        assert 0 <= c1 <= c2 <= n

    def test_total_jump_is_n(self):
        off = build_window(ModelParams(2, 3.0), 20)[1:]
        lo, hi = count_below_offdiag(off, [-100.0, 100.0])
        assert lo == 0 and hi == 20


def sturm_count_reference(offdiag, energy) -> int:
    """The IEEE Sturm count one energy at a time, without blocks or vectors."""
    e = np.float64(energy)
    with np.errstate(divide="ignore", over="ignore"):
        q = -e
        count = int(np.signbit(q))
        for b in offdiag:
            q = -e - np.float64(b) ** 2 / q
            count += int(np.signbit(q))
    return count


def count_below_reference(offdiag, energies) -> np.ndarray:
    """The blocked count loop over numpy scalars, the oracle of ``count_below_offdiag``."""
    off2 = np.square(np.asarray(offdiag, dtype=float))
    neg_e = np.negative(np.atleast_1d(np.asarray(energies, dtype=float)))
    block = 32
    buf = np.empty((min(block, off2.size + 1), neg_e.size))
    t = np.empty_like(neg_e)
    count = np.zeros(neg_e.size, dtype=np.int64)

    def sign_bits(rows):
        return np.add.reduce(np.signbit(rows).view(np.uint8), axis=0, dtype=np.uint8)

    q = buf[0]
    np.copyto(q, neg_e)
    row = 1
    with np.errstate(divide="ignore", over="ignore"):
        for b2 in off2:
            if row == buf.shape[0]:
                count += sign_bits(buf)
                row = 0
            np.divide(b2, q, out=t)
            q = buf[row]
            np.subtract(neg_e, t, out=q)
            row += 1
    count += sign_bits(buf[:row])
    return count


def block_split_reference(offdiag, energies) -> np.ndarray:
    """The count of each block between zero couplings, added: the oracle of a window with zero couplings."""
    off = np.asarray(offdiag, dtype=float)
    ends = np.concatenate([[-1], np.flatnonzero(off == 0.0), [off.size]])
    return sum(count_below_reference(off[lo + 1:hi], energies) for lo, hi in zip(ends, ends[1:]))


def eigenvalues_full_range_reference(offdiag, tol):
    """Bisection of all N eigenvalues from a 4N+1 grid over [-bound, bound], the oracle of the half solver."""
    off = np.asarray(offdiag, dtype=float)
    n = off.size + 1
    bound = 2.0 * (1.0 + (float(np.max(np.abs(off))) if off.size else 0.0))
    grid = np.linspace(-bound, bound, 4 * n + 1)
    k = np.arange(n)
    j = np.searchsorted(count_below_reference(off, grid), k, side="right")
    lo = grid[np.maximum(j - 1, 0)]
    hi = grid[np.minimum(j, grid.size - 1)]
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((hi - lo > tol) & (lo < mid) & (mid < hi)):
            break
        above = count_below_reference(off, mid) > k
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return np.sort(mid)


def eigenvalues_half_spectrum_reference(offdiag, tol):
    """Plain bisection of the nonnegative half, every decision a Sturm count: the oracle of the predicted solver."""
    off = np.asarray(offdiag, dtype=float)
    n = off.size + 1
    bound = 2.0 * (1.0 + (float(np.max(np.abs(off))) if off.size else 0.0))
    grid = np.linspace(0.0, bound, 2 * n + 1)
    k = np.arange(n - n // 2, n)
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


class TestAgainstReferences:
    """The half-spectrum solver and the count loop against full-range references."""

    @settings(max_examples=25)
    @given(st.sampled_from([1, 2, 3]), st.integers(min_value=1, max_value=600),
           st.floats(min_value=0.2, max_value=20.0), st.integers(min_value=0, max_value=2**32 - 1))
    @example(1, 1, 2.0, 0)
    @example(2, 2, 0.2, 0)
    @example(3, 599, 20.0, 1)
    @example(1, 600, 3.7, 2)
    def test_counts_and_eigenvalues(self, s, n, a, seed):
        off = build_window(ModelParams(s, a), n)[1:]
        dense = chain_matrix(off)
        bound = 2.0 * (1.0 + (float(np.max(off)) if off.size else 0.0))
        rng = np.random.default_rng(seed)
        sub = [np.linalg.eigvalsh(dense[:m, :m]) for m in rng.integers(1, n + 1, size=3)]
        specials = np.concatenate([[0.0, -0.0, math.inf, -math.inf], sub[0][:1], sub[1][-1:]])
        energy_sets = [
            sub[2][rng.integers(sub[2].size)][None],
            np.concatenate([np.linspace(-bound, bound, 401 - specials.size), specials]),
            np.linspace(-bound, bound, 4 * n + 1),
        ]
        for energies in energy_sets:
            got = count_below_offdiag(off, energies)
            assert got.tobytes() == count_below_reference(off, energies).tobytes()

        tol = 1e-11
        e = eigenvalues_offdiag(off, tol)
        assert e.shape == (n,)
        assert np.max(np.abs(e - eigenvalues_full_range_reference(off, tol))) <= tol
        assert np.max(np.abs(e - np.linalg.eigvalsh(dense))) <= 1e-10
        assert np.array_equal(e, -e[::-1]) and np.all(np.diff(e) >= 0)
        zeros = np.flatnonzero(e == 0.0)
        assert zeros.tolist() == ([n // 2] if n % 2 else [])
        if n % 2:
            assert not np.signbit(e[n // 2])

    def test_single_site_is_exactly_zero(self):
        e = eigenvalues_offdiag(np.empty(0))
        assert e.tolist() == [0.0] and not np.signbit(e[0])

    @pytest.mark.parametrize("off", [[0.0], [1.0, 0.0, 1.0], [2.0, 0.0, 0.0, 3.0]])
    def test_zero_coupling_chains(self, off):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # zero couplings split the count: no 0 / 0
            got = eigenvalues_offdiag(off)
        assert np.max(np.abs(got - np.linalg.eigvalsh(chain_matrix(off)))) <= 1e-10


#: c in the bound tol/2 + c N eps ||H|| on the distance from a certified value to
#: dense ``eigvalsh``, fixed before measuring: the count's eigenvalues and the
#: dense solve's each lie within a few eps ||H|| of H's (Kahan; backward
#: stability), which N eps ||H|| covers.
DENSE_SLACK = 1.0

#: Above this size the dense check is left out: eigvalsh takes 0.5 s at N = 2048.
DENSE_MAX_N = 1100


def count_holds(off, x, k, tol):
    """count(lo) <= k < count(hi) for every value x_k, lo and hi as in :func:`assert_certified`."""
    lo = np.minimum(x - 0.5 * tol, np.nextafter(x, -math.inf))
    hi = np.maximum(x + 0.5 * tol, np.nextafter(x, math.inf))
    return bool(np.all(block_split_reference(off, lo) <= k) and np.all(block_split_reference(off, hi) > k))


def assert_certified(off, got, tol):
    """Each value of a solve within tol/2 of the jump of an independent count, and near dense eigvalsh.

    lo = e - tol/2 and hi = e + tol/2, or the adjacent floats where these round
    back to e, must give count(lo) <= k < count(hi) for the kth value e.
    """
    off = np.asarray(off, dtype=float)
    k = np.arange(off.size + 1)
    assert count_holds(off, got, k, tol)
    if off.size < DENSE_MAX_N:
        dense = np.linalg.eigvalsh(chain_matrix(off))
        norm = float(np.max(np.abs(dense)))
        slack = 0.5 * tol + DENSE_SLACK * k.size * np.finfo(float).eps * norm
        assert np.max(np.abs(got - dense)) <= slack


@pytest.fixture
def fell_back(monkeypatch):
    """The couplings of each window that a solve sent to plain bisection, in order."""
    out = []
    bisect = jacobi1d._bisect

    def recording(off, grid, k, tol):
        out.extend(w.tolist() for w in off)
        return bisect(off, grid, k, tol)

    monkeypatch.setattr(jacobi1d, "_bisect", recording)
    return out


#: The solves of test_same_bits_as_plain_bisection and test_certified_by_an_independent_count:
#: (s, coupling, tol, N, cut), where cut > 0 zeroes every cut-th coupling.
_SOLVES = (st.sampled_from([1, 2, 3]), st.floats(min_value=0.0, max_value=50.0),
           st.sampled_from([1e-10, 1e-11, 1e-12]),
           st.integers(min_value=1, max_value=2048), st.sampled_from([0, 2, 3, 7]))


def _solve_examples(test):
    for args in [
        (1, 1.0, 1e-10, 1, 0),
        (2, 1.0, 1e-11, 2, 0),
        (3, 1.0, 1e-12, 3, 0),
        (1, 0.0, 1e-12, 300, 0),  # the free chain
        (1, 0.0, 1e-11, 201, 2),  # 2-site blocks: +-1, each 100 times, and 0
        (2, 3.0, 1e-12, 98, 3),  # 3-site blocks, each with a zero eigenvalue
        (3, 50.0, 1e-11, 503, 7),
        (1, 1.6, 1e-11, 640, 0),
        (2, 0.4, 1e-11, 641, 0),
        (1, 1.0, 1e-12, 641, 2),
        (1, 1.6, 1e-11, 1023, 0),
        (2, 3.0, 1e-11, 4096, 0),
        (3, 0.2, 1e-12, 1500, 3),
        (1, 44.75, 1e-12, 509, 0),  # dqds 5.8e-13 from the count's eigenvalue near 63.33: falls back
    ]:
        test = example(*args)(test)
    return test


def _solve_window(s, lam, n, cut):
    off = build_window(ModelParams.from_coupling(s, lam), n)[1:]
    if cut:
        off[cut - 1 :: cut] = 0.0  # a direct sum of cut-site blocks
    return off


class TestPredictedBisection:
    """dlasq1's values certified by one count pass, and plain bisection where a certificate cannot be had."""

    @settings(max_examples=40)
    @given(*_SOLVES)
    @_solve_examples
    def test_same_bits_as_plain_bisection(self, s, lam, tol, n, cut):
        # the fallback: without dlasq1 every window is plain bisection
        off = _solve_window(s, lam, n, cut)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jacobi1d, "_dlasq1", lambda: None)
            got = eigenvalues_offdiag(off, tol)
        want = eigenvalues_half_spectrum_reference(off, tol)
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()

    @settings(max_examples=25)
    @given(*_SOLVES)
    @_solve_examples
    def test_certified_by_an_independent_count(self, s, lam, tol, n, cut):
        # every solve is certified, and it keeps dlasq1's values exactly where an
        # independent count holds each within tol/2; elsewhere it falls back, which
        # dqds's error may force at strong coupling and tol 1e-12
        off = _solve_window(s, lam, n, cut)
        n = off.size + 1
        guess = jacobi1d._predict_offdiag(off)
        held = guess is not None and not np.isnan(guess).any() and count_holds(off, guess, np.arange(n - n // 2, n), tol)
        bisect, fell_back = jacobi1d._bisect, []

        def recording(*args):
            fell_back.append(args[0].shape[0])
            return bisect(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jacobi1d, "_bisect", recording)
            got = eigenvalues_offdiag(off, tol)
        assert np.array_equal(got, -got[::-1]) and np.all(np.diff(got) >= 0)
        assert_certified(off, got, tol)
        assert fell_back == ([] if held else [1])
        if held:
            assert got[n - n // 2 :].tobytes() == guess.tobytes()

    @pytest.mark.parametrize("s,lam,n", [(1, 2.0, 500), (1, 5.0, 500), (3, 2.0, 300)])
    def test_decisions_close_to_a_guess_are_counted(self, fell_back, s, lam, n):
        # in these solves some guess of dlasq1 lies so close to the count's jump that
        # bisection decisions read off the guesses went wrong; the certificate counts
        # every value at x -+ tol/2, and holds
        off = build_window(ModelParams.from_coupling(s, lam), n)[:-1]
        got = eigenvalues_offdiag(off, 1e-12)
        assert fell_back == []
        assert_certified(off, got, 1e-12)

    @pytest.mark.parametrize("spoil", ["shift", "permute", "nan"])
    def test_wrong_predictions_fall_back_to_the_same_bits(self, monkeypatch, fell_back, spoil):
        off = build_window(ModelParams(1, 1.6), 500)[:-1]
        tol = 1e-12
        # N * eps * bound, 5.8e-13 here, so a guess moved by ten times it misses tol/2 by far
        delta = (off.size + 1) * np.finfo(float).eps * 2.0 * (1.0 + float(np.max(off)))
        predict = jacobi1d._predict_offdiag

        def spoiled(off):
            x = predict(off)
            if spoil == "shift":
                x[::7] += 10 * delta
            elif spoil == "permute":
                x = np.random.default_rng(0).permutation(x)
            else:
                x[:] = np.nan  # never counted: the count refuses NaN energies
            return x

        monkeypatch.setattr(jacobi1d, "_predict_offdiag", spoiled)
        got = eigenvalues_offdiag(off, tol)
        assert fell_back == [off.tolist()]  # the certificate fails, and plain bisection runs
        assert got.tobytes() == eigenvalues_half_spectrum_reference(off, tol).tobytes()

    @pytest.mark.parametrize("n", [500, 1023], ids=["N500", "N1023"])
    def test_a_predicted_solve_makes_few_counts(self, monkeypatch, n):
        calls = []
        count = jacobi1d.count_below_offdiag

        def counting(off, energies):
            calls.append(np.size(energies))
            return count(off, energies)

        monkeypatch.setattr(jacobi1d, "count_below_offdiag", counting)
        # the Labyrinth's axis solve; plain bisection counts about 30 times
        eigenvalues_offdiag(build_window(ModelParams(1, 1.6), n)[:-1], EIG_TOL)
        assert calls == [2 * (n // 2)]  # one pass, at x -+ tol/2 for each of the n // 2 values

    @pytest.mark.parametrize("off", [
        [1.6], [1.0, 1.6], build_window(ModelParams(1, 1.6), 641)[1:], build_window(ModelParams(2, 3.0), 1023)[1:],
        np.where(np.arange(1022) % 5 == 4, 0.0, build_window(ModelParams(3, 0.4), 1023)[1:]),
    ], ids=["N2", "N3", "N641", "N1023", "N1023-zero-couplings"])
    def test_without_dlasq1_every_solve_is_plain_bisection(self, monkeypatch, fell_back, off):
        monkeypatch.setattr(jacobi1d, "_dlasq1", lambda: None)
        got = eigenvalues_offdiag(off, 1e-11)
        assert fell_back == [np.asarray(off, dtype=float).tolist()]
        assert got.tobytes() == eigenvalues_half_spectrum_reference(off, 1e-11).tobytes()

    def test_dlasq1_resolves_on_the_checked_numpy_builds(self, fell_back):
        # a numpy upgrade that renames the bundled library would silently make every solve plain bisection
        named = f"numpy {np.__version__}," in jacobi1d.__doc__
        if not (named and platform.system() == "Linux" and platform.machine() == "x86_64"):
            pytest.skip(f"numpy {np.__version__} on {platform.system()} {platform.machine()} "
                        "is not a build named in the jacobi1d docstring")
        assert jacobi1d._dlasq1() is not None
        off = build_window(ModelParams(1, 1.6), 1023)[:-1]
        got = eigenvalues_offdiag(off, EIG_TOL)
        assert fell_back == []
        assert_certified(off, got, EIG_TOL)


_COUPLINGS = st.one_of(st.sampled_from([0.5, 1.0, 1.7, 3.0]), st.floats(min_value=0.1, max_value=4.0))
_ENERGIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf]),
                      st.floats(min_value=-9.0, max_value=9.0))


class TestStackedCount:
    """A (P, N-1) stack of windows counted in one pass, row by row against each window alone."""

    @settings(max_examples=60)
    @given(st.data(), st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=70),
           st.booleans(), st.booleans())
    def test_rows_are_the_single_window_counts(self, data, p, n, per_window, cut):
        windows = np.array(data.draw(st.lists(st.lists(_COUPLINGS, min_size=n - 1, max_size=n - 1),
                                              min_size=p, max_size=p)), dtype=float).reshape(p, n - 1)
        if cut and n > 1:  # a zero coupling in one window only
            windows[data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, n - 2))] = 0.0
        m = data.draw(st.integers(min_value=1, max_value=12))
        shape = (p, m) if per_window else (m,)
        energies = np.array(data.draw(st.lists(_ENERGIES, min_size=p * m if per_window else m,
                                               max_size=p * m if per_window else m))).reshape(shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # zero couplings restart the pivots: no 0 / 0
            got = count_below_offdiag(windows, energies)
        assert got.shape == (p, m) and got.dtype == np.int64
        for w, row, e in zip(windows, got, np.broadcast_to(energies, (p, m))):
            assert row.tobytes() == count_below_offdiag(w, e).tobytes()
            assert row.tobytes() == block_split_reference(w, e).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 33, 64, 65])
    def test_zero_coupling_in_one_window_only(self, n):
        # sizes straddle the pivot blocks; the zero sits in the last block of window 1
        windows = np.stack([build_window(ModelParams(s, 1.7), n)[1:] for s in (1, 2, 3)])
        if n > 1:
            windows[1, -1] = 0.0
        energies = np.concatenate([np.linspace(-5.0, 5.0, 41), [0.0, -0.0, math.inf, -math.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = count_below_offdiag(windows, energies)
        for w, row in zip(windows, got):
            assert row.tolist() == block_split_reference(w, energies).tolist()

    def test_shapes(self):
        off = build_window(ModelParams(1, 2.0), 9)[1:]
        assert count_below_offdiag(off, 0.5).shape == (1,)
        assert count_below_offdiag(off, [0.5, 1.0]).shape == (2,)
        assert count_below_offdiag(off[None], [0.5, 1.0]).shape == (1, 2)
        assert count_below_offdiag(np.stack([off] * 3), [[0.5], [1.0], [2.0]]).shape == (3, 1)
        with pytest.raises(ValueError):
            count_below_offdiag(np.stack([off] * 3), [[0.5], [1.0]])
        with pytest.raises(ValueError, match="stack"):
            count_below_offdiag(off.reshape(1, 1, -1), [0.5])

    @pytest.mark.parametrize("nan", [math.nan, -math.nan])
    def test_nan_energies_are_refused(self, nan):
        windows = np.stack([build_window(ModelParams(s, 2.0), 10)[1:] for s in (1, 2)])
        for energies in ([0.0, nan], [[0.0, 1.0], [nan, 1.0]]):
            with pytest.raises(ValueError, match="NaN"):
                count_below_offdiag(windows, energies)


def _ulps(x: float, k: int) -> float:
    """``x`` moved by |k| floats, up for k > 0."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.copysign(math.inf, k)))
    return x


def loop_free_reference(windows, energies) -> np.ndarray:
    """Each window's count from the reference loop, split where a square coupling is 0, as the count splits."""
    with np.errstate(all="ignore"):
        return np.stack([block_split_reference(np.where(np.square(w) == 0.0, 0.0, w), energies) for w in windows])


#: The window kinds of the loop-free lanes, by the coupling one window gets: none,
#: a zero, one whose square underflows to 0 (no mirror pairs) and one whose
#: square overflows (no tails either).
_SPOILS = {"none": None, "zero": 0.0, "underflow": 1e-170, "overflow": 2e154}


@st.composite
def _loop_free_cases(draw):
    """A stack of rotation windows, one of them spoiled, and shared energies with exact
    mirror pairs, the tail bound a few floats either way, +-0 and +-inf."""
    p, n = draw(st.integers(1, 4)), draw(st.integers(2, 150))
    params = ModelParams(draw(st.sampled_from([1, 2, 3])), draw(st.floats(0.2, 5.0)))
    windows = np.stack([build_window(params, n, "rotation", beta=draw(st.floats(0.0, 1.0)))[1:] for _ in range(p)])
    spoil = _SPOILS[draw(st.sampled_from(sorted(_SPOILS)))]
    if spoil is not None:
        windows[draw(st.integers(0, p - 1)), draw(st.integers(0, n - 2))] = spoil
    with np.errstate(over="ignore"):
        bound = jacobi1d._TAIL_FACTOR * math.sqrt(float(np.max(np.square(windows))))
    hull = bound if math.isfinite(bound) else 2.0 * (1.0 + float(np.max(windows)))
    xs = draw(st.lists(st.one_of(st.floats(-1.2 * hull, 1.2 * hull), st.sampled_from([1.0, -1.0])), max_size=16))
    near = [_ulps(hull, k) for k in draw(st.lists(st.integers(-3, 3), max_size=4))]
    specials = draw(st.lists(st.sampled_from([0.0, -0.0, math.inf, -math.inf]), max_size=4))
    energies = xs + [-x for x in xs if draw(st.booleans())] + near + [-x for x in near] + specials
    return windows, np.array(draw(st.permutations(energies)) or [1.0])


class TestLanesWithoutLoop:
    """Shared energies in the tails and in mirror pairs take their counts without the loop, with its bits."""

    @settings(max_examples=80)
    @given(_loop_free_cases())
    def test_same_bits_as_the_reference_loop(self, case):
        windows, energies = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # squares that overflow
            got = count_below_offdiag(windows, energies)
            one = count_below_offdiag(windows[0], energies)
        want = loop_free_reference(windows, energies)
        assert got.tobytes() == want.tobytes()
        assert one.tobytes() == want[0].tobytes()

    def test_exact_cancellation_at_the_last_site(self):
        # free chain, N = 380: the last pivot at E = 1 is exactly +0 and counts at
        # neither energy, so the pair counts N - 1; N - count(1) alone reads one too many
        off, energies = np.ones(379), np.array([1.0, -1.0])
        got = count_below_offdiag(off, energies)
        assert got.tolist() == count_below_reference(off, energies).tolist() == [253, 126]

    @pytest.mark.parametrize("spoil, runs", [(None, [1.0, 0.0, -0.0]), (0.0, [-1.0, 1.0, 0.0, -0.0]),
                                             (1e-170, [-1.0, 1.0, 0.0, -0.0]),
                                             (2e154, [-5e154, -1.0, 1.0, 0.0, -0.0, 5e154])])
    def test_the_loop_runs_only_the_lanes_it_must(self, monkeypatch, spoil, runs):
        lanes = []
        loop = jacobi1d._pivot_counts

        def recording(stack, energies):
            lanes.append(energies[0].tolist())
            return loop(stack, energies)

        monkeypatch.setattr(jacobi1d, "_pivot_counts", recording)
        off = build_window(ModelParams(1, 1.6), 64)[1:]
        if spoil is not None:
            off[10] = spoil
        energies = [-5e154, -1.0, 1.0, 0.0, -0.0, 5e154]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            count_below_offdiag(np.stack([off, off[::-1]]), energies)
            assert lanes == [runs]
            lanes.clear()
            count_below_offdiag(np.stack([off, off[::-1]]), [energies] * 2)  # per-window energies: every lane
        assert lanes == [energies]


class TestLockStep:
    """A stack of windows certified in one count pass, or bisected in lock-step, against each window alone."""

    @settings(max_examples=15)
    @given(st.sampled_from([1, 2, 3]), st.lists(st.floats(min_value=0.05, max_value=50.0), min_size=1, max_size=3),
           st.integers(min_value=1, max_value=600), st.sampled_from([1e-11, 1e-12]), st.integers(0, 3))
    @example(1, [0.3, 40.0], 500, 1e-11, 0)  # grids of bound 4 and 82: the bisections stop at different steps
    @example(2, [1.6, 1.6], 301, 1e-12, 0)
    @example(3, [0.2, 3.0, 50.0], 200, 1e-11, 3)
    def test_same_bytes_as_separate_solves(self, s, hoppings, n, tol, cut):
        windows = np.stack([build_window(ModelParams(s, a), n)[:-1] for a in hoppings])
        if cut and n > 1:
            windows[-1, cut - 1 :: cut + 2] = 0.0  # a direct sum in the last window only
        got = eigenvalues_offdiag(windows, tol)
        assert got.shape == (len(hoppings), n)
        for w, row in zip(windows, got):
            assert row.tobytes() == eigenvalues_offdiag(w, tol).tobytes()
            assert_certified(w, row, tol)
        # the fallback: the lock-step bisection, row by row the plain bisection of each window
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jacobi1d, "_dlasq1", lambda: None)
            got = eigenvalues_offdiag(windows, tol)
            for w, row in zip(windows, got):
                assert row.tobytes() == eigenvalues_offdiag(w, tol).tobytes()
                assert row.tobytes() == eigenvalues_half_spectrum_reference(w, tol).tobytes()

    def test_a_spoiled_guess_falls_back_in_its_own_window_only(self, monkeypatch, fell_back):
        windows = np.stack([build_window(ModelParams(1, a), 500)[:-1] for a in (0.3, 40.0)])
        tol = 1e-12
        predict = jacobi1d._predict_offdiag

        def spoiled(off):
            x = predict(off)
            if off.max() == 40.0:
                # ten times N * eps * bound, with bound 82: far beyond tol/2
                x[::7] += 10 * off.size * np.finfo(float).eps * 82.0
            return x

        monkeypatch.setattr(jacobi1d, "_predict_offdiag", spoiled)
        got = eigenvalues_offdiag(windows, tol)
        # the first window's certificate holds; the second's fails and only it is bisected
        assert fell_back == [windows[1].tolist()]
        fell_back.clear()
        assert got[0].tobytes() == eigenvalues_offdiag(windows[0], tol).tobytes() and fell_back == []
        assert_certified(windows[0], got[0], tol)
        assert got[1].tobytes() == eigenvalues_half_spectrum_reference(windows[1], tol).tobytes()

    def test_one_count_pass_a_step_for_the_stack(self, monkeypatch):
        windows = np.stack([build_window(ModelParams(1, a), 640)[:-1] for a in (1.3, 2.2)])
        calls = []
        count = jacobi1d.count_below_offdiag

        def counting(off, energies):
            calls.append(np.shape(off))
            return count(off, energies)

        def passes(off):
            calls.clear()
            eigenvalues_offdiag(off, EIG_TOL)
            return list(calls)

        monkeypatch.setattr(jacobi1d, "count_below_offdiag", counting)
        # one certificate pass for the whole stack
        assert [passes(w) for w in windows] == [[(1, 639)]] * 2 and passes(windows) == [(2, 639)]
        # without dlasq1, 30 passes alone and 30 in lock-step, each for both windows
        monkeypatch.setattr(jacobi1d, "_dlasq1", lambda: None)
        separate = sum(len(passes(w)) for w in windows)
        together = passes(windows)
        assert len(together) < separate and set(together) == {(2, 639)}


class TestInputValidation:
    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            eigenvalues_offdiag(np.ones(9), tol=tol)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_couplings_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="couplings must be finite"):
            eigenvalues_offdiag([1.0, bad, 1.0])

    @pytest.mark.parametrize("nan", [math.nan, -math.nan])
    def test_nan_energies_are_refused(self, nan):
        off = build_window(ModelParams(1, 2.0), 10)[1:]
        for energies in ([nan], [0.0, nan, 1.0]):
            with pytest.raises(ValueError, match="NaN"):
                count_below_offdiag(off, energies)


class TestIEEECount:
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 65, 100])
    def test_blocked_count_matches_scalar_loop(self, n):
        # sizes straddle the pivot-block boundaries of the vectorised count
        off = build_window(ModelParams(2, 1.7), n)[1:]
        energies = np.concatenate([np.linspace(-6.0, 6.0, 97), [0.0, -0.0, 1.0, math.inf, -math.inf]])
        got = count_below_offdiag(off, energies)
        want = [sturm_count_reference(off, e) for e in energies]
        assert got.tolist() == want

    @settings(max_examples=200)
    @given(st.lists(st.floats(min_value=0.1, max_value=4.0), min_size=1, max_size=24),
           st.floats(min_value=-12.0, max_value=12.0))
    def test_count_matches_dense_away_from_eigenvalues(self, weights, e):
        off = weights[1:]
        eigs = np.linalg.eigvalsh(chain_matrix(off))
        assume(np.min(np.abs(eigs - e)) > 1e-9)
        assert count_below_offdiag(off, e)[0] == int(np.sum(eigs < e))

    @pytest.mark.parametrize("n", [1, 3, 7, 33, 65])
    def test_zero_energy_odd_size_within_one_of_jump(self, n):
        # zero is an eigenvalue for odd N, so every pivot is -0.0 or +inf at E = 0
        off = build_window(ModelParams(1, 2.0), n)[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = int(count_below_offdiag(off, 0.0)[0])
        assert (n - 1) // 2 <= c <= (n + 1) // 2

    def test_zero_pivot_inside_chain_keeps_count_exact(self):
        # free chain at E = 1: q_1 = -1, q_2 = -1 + 1 = 0 exactly, q_3 = -inf, q_4 = -1;
        # E = 1 is not an eigenvalue of the 4-site chain (+-1.618, +-0.618)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert count_below_offdiag(np.ones(3), 1.0)[0] == 3

    @pytest.mark.parametrize("n", [1, 2, 33, 64])
    def test_infinite_energies_count_none_and_all(self, n):
        off = build_window(ModelParams(1, 3.0), n)[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = count_below_offdiag(off, [-math.inf, math.inf])
        assert lo == 0 and hi == n


class TestEigenvalues:
    def test_free_chain_formula(self):
        for n in (2, 5, 16, 33):
            got = eigenvalues_offdiag(np.ones(n - 1), 1e-12)
            assert np.max(np.abs(got - free_chain_eigs(n))) < 1e-11

    @pytest.mark.parametrize("s,a,n", [(1, 2.0, 4), (1, 0.5, 6), (2, 3.0, 7), (3, 1.3, 8)])
    def test_oracle_equivalence_dense(self, s, a, n):
        # bisection against the independent dense LAPACK solver
        off = build_window(ModelParams(s, a), n)[1:]
        bis = eigenvalues_offdiag(off, 1e-10)
        dense = symmetric_eigenvalues(chain_matrix(off))
        assert np.max(np.abs(bis - dense)) < 1e-8

    def test_spectral_symmetry(self):
        for s, a, n in [(1, 2.0, 64), (2, 4.0, 65), (1, 0.7, 33)]:
            e = eigenvalues_offdiag(build_window(ModelParams(s, a), n)[1:], 1e-12)
            assert np.max(np.abs(e + e[::-1])) < 1e-9

    def test_odd_size_has_zero_eigenvalue(self):
        # det of a zero-diagonal tridiagonal of odd size vanishes:
        # det_N = -b_{N-1}^2 det_{N-2} and det_1 = 0
        for n in (3, 7, 15):
            e = eigenvalues_offdiag(build_window(ModelParams(1, 2.0), n)[1:], 1e-12)
            assert np.min(np.abs(e)) < 1e-11

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 33, 64, 257])
    def test_within_1e10_of_eigvalsh(self, s, n):
        for a in (0.5, 2.0, 4.0):
            off = build_window(ModelParams(s, a), n)[1:]
            got = eigenvalues_offdiag(off, tol=1e-11)
            assert got.shape == (n,)
            assert np.max(np.abs(got - np.linalg.eigvalsh(chain_matrix(off)))) <= 1e-10

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            eigenvalues_offdiag(np.ones(3), tol=0.0)


class TestIDS:
    def test_free_even_half_at_zero(self):
        assert ids_at(ModelParams(1, 1.0), 0.0, 64) == pytest.approx(0.5)

    def test_free_saturates(self):
        assert ids_at(ModelParams(1, 1.0), 2.0, 512) == 1.0
        assert ids_at(ModelParams(1, 1.0), -2.5, 512) == 0.0

    def test_half_at_zero_any_coupling(self):
        for s, a, n in [(1, 2.0, 101), (2, 4.0, 100), (1, 0.6, 77)]:
            v = ids_at(ModelParams(s, a), 0.0, n)
            assert abs(v - 0.5) <= 0.5 / n + 1e-12

    def test_free_ids_values(self):
        assert free_ids(0.0) == pytest.approx(0.5)
        assert free_ids(-2.0) == 0.0
        assert free_ids(2.0) == 1.0
        assert free_ids(math.sqrt(2.0)) == pytest.approx(0.75)

    def test_free_ids_limits_and_monotone(self):
        grid = np.linspace(-3, 3, 301)
        vals = free_ids(grid)
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] == 0.0 and vals[-1] == 1.0

    def test_free_case_converges_to_arcsine_law(self):
        grid = np.linspace(-2.5, 2.5, 401)
        curve = ids_curve(ModelParams(1, 1.0), grid, 4096)
        assert np.max(np.abs(curve - free_ids(grid))) <= 1e-2

    @settings(max_examples=20)
    @given(st.integers(min_value=2, max_value=40), st.floats(min_value=-5, max_value=5))
    def test_ids_between_0_and_1(self, n, e):
        v = ids_at(ModelParams(1, 2.0), e, n)
        assert 0.0 <= v <= 1.0

    def test_phase_independence(self):
        # windows cut at different hull offsets and rotation phases give nearly
        # the same counting function: convergence is uniform over the hull.
        # Letters off+1 .. off+N of u_s are the rotation coding at phase off * alpha.
        p = ModelParams(1, 2.0)
        n = 2048
        grid = np.linspace(-3.2, 3.2, 201)
        rng = np.random.default_rng(42)
        curves = []
        for off in rng.integers(0, 5000, size=5):
            beta = int(off) * metallic_alpha(1) % 1.0
            curves.append(ids_curve(p, grid, n, source="rotation", beta=beta))
        for beta in rng.random(5):
            curves.append(ids_curve(p, grid, n, source="rotation", beta=float(beta)))
        worst = max(
            float(np.max(np.abs(c1 - c2)))
            for i, c1 in enumerate(curves)
            for c2 in curves[i + 1 :]
        )
        assert worst <= 5e-2
