import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasilab.measures import EmpiricalMeasure, ks_distance

finite_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


class TestEmpiricalMeasure:
    def test_sorts_support(self):
        m = EmpiricalMeasure([3.0, 1.0, 2.0])
        assert m.support.tolist() == [1.0, 2.0, 3.0]

    def test_cdf_values(self):
        m = EmpiricalMeasure([0.0, 1.0, 1.0, 2.0])
        assert m.cdf(-1.0) == 0.0
        assert m.cdf(0.0) == 0.25  # right-continuous: includes the atom at 0
        assert m.cdf(1.0) == 0.75
        assert m.cdf_left(1.0) == 0.25
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
