import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quasilab.labyrinth import LabyrinthParams, build_2d, dense_eigs_2d, sublattice_dos_compare
from quasilab.measures import EmpiricalMeasure, ks_distance

finite_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)

#: Few distinct values, signed zeros among them, so that supports tie and repeat.
tied_supports = st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]) | finite_floats,
                         min_size=1, max_size=25)


def two_sided_ks(m1, m2):
    """sup |F1 - F2| over the right values and the left limits at every point of the union."""
    pts = np.union1d(m1.support, m2.support)

    def gap(side):
        return np.max(np.abs(np.searchsorted(m1.support, pts, side) / m1.size
                             - np.searchsorted(m2.support, pts, side) / m2.size))

    return float(max(gap("right"), gap("left")))


class TestEmpiricalMeasure:
    def test_sorts_support(self):
        m = EmpiricalMeasure([3.0, 1.0, 2.0])
        assert m.support.tolist() == [1.0, 2.0, 3.0]

    def test_cdf_values(self):
        m = EmpiricalMeasure([0.0, 1.0, 1.0, 2.0])
        assert m.cdf(-1.0) == 0.0
        assert m.cdf(0.0) == 0.25  # right-continuous: includes the atom at 0
        assert m.cdf(1.0) == 0.75
        assert m.cdf(5.0) == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure([])

    @given(st.lists(finite_floats, min_size=1, max_size=40))
    def test_cdf_is_monotone_step_with_unit_mass(self, vals):
        m = EmpiricalMeasure(vals)
        grid = np.sort(np.concatenate([m.support, np.linspace(-1e6, 1e6, 7)]))
        cdf = m.cdf(grid)
        assert np.all(np.diff(cdf) >= 0)
        assert m.cdf(np.inf) == 1.0
        assert m.cdf(-np.inf) == 0.0


class TestKSDistance:
    def test_identical_is_zero(self):
        m = EmpiricalMeasure([1.0, 2.0, 3.0])
        assert ks_distance(m, m) == 0.0

    def test_disjoint_supports(self):
        m1 = EmpiricalMeasure([0.0])
        m2 = EmpiricalMeasure([1.0])
        assert ks_distance(m1, m2) == 1.0

    def test_interleaved(self):
        m1 = EmpiricalMeasure([0.0, 2.0])
        m2 = EmpiricalMeasure([1.0, 3.0])
        assert ks_distance(m1, m2) == pytest.approx(0.5)

    @given(
        st.lists(finite_floats, min_size=1, max_size=25),
        st.lists(finite_floats, min_size=1, max_size=25),
    )
    def test_matches_dense_grid_estimate(self, a, b):
        m1, m2 = EmpiricalMeasure(a), EmpiricalMeasure(b)
        d = ks_distance(m1, m2)
        pts = np.union1d(m1.support, m2.support)
        grid = np.unique(np.concatenate([pts, pts - 1e-9, pts + 1e-9]))
        approx = np.max(np.abs(m1.cdf(grid) - m2.cdf(grid)))
        assert d >= approx - 1e-12
        assert 0.0 <= d <= 1.0

    @given(tied_supports, tied_supports)
    @example([0.0], [-0.0])
    @example([-0.0, 0.0], [0.0])
    @example([3.0], [-3.0])
    @example([1.0], [1.0, 1.0, 2.0])
    @example([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    def test_equals_two_sided_sup_bit_for_bit(self, a, b):
        m1, m2 = EmpiricalMeasure(a), EmpiricalMeasure(b)
        assert ks_distance(m1, m2) == two_sided_ks(m1, m2)

    @pytest.mark.parametrize("p", [LabyrinthParams(1, 1.0, 1.0), LabyrinthParams(1, 1.3, 1.5)])
    def test_sublattice_distances_equal_two_sided_sup(self, p):
        n = 8
        eigs = {sub: dense_eigs_2d(build_2d(p, n, sub)) for sub in ("full", "even", "odd")}
        rep = sublattice_dos_compare(p, n)
        assert rep.even_odd_distance == two_sided_ks(eigs["even"], eigs["odd"])
        assert rep.full_even_distance == two_sided_ks(eigs["full"], eigs["even"])
        assert rep.full_odd_distance == two_sided_ks(eigs["full"], eigs["odd"])
