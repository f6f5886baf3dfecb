"""Cross-module checks that exercise the full cover pipeline."""

import math

import pytest

from quasilab.bands import box_dimension_estimate, is_interval, product_set, thickness
from quasilab.jacobi1d import ModelParams, hopping_from_coupling
from quasilab.tracemap import cover_sequence, spectrum_cover


@pytest.fixture(scope="module")
def weak_covers():
    """Level-15 covers at small couplings, shared across tests."""
    out = {}
    for lam in (0.1, 0.2):
        params = ModelParams(1, hopping_from_coupling(lam))
        out[lam] = spectrum_cover(params, 15, 1e-4)
    return out


class TestGapCriterion:
    def test_thick_factors_give_interval_products(self, weak_covers):
        # both factors exceed the 1 + sqrt(2) threshold, so their product
        # cannot have gaps at the covers' resolution
        threshold = 1.0 + math.sqrt(2.0)
        for lam, cover in weak_covers.items():
            assert thickness(cover) > threshold
            lo, hi = cover.hull
            assert lo < -1.0 and hi > 1.0  # bands on both sides of 1 in modulus
        for la in weak_covers.values():
            for lb in weak_covers.values():
                prod = product_set(la, lb)
                assert is_interval(prod, 4e-4)


class TestLargeCouplingDimension:
    def test_dimension_estimate_collapses(self):
        seq = cover_sequence(ModelParams(1, 4.0), [5, 10, 15], 1e-4)
        assert box_dimension_estimate(seq) < 0.5


class TestFreeCoverLength:
    def test_total_length_approaches_four(self):
        lengths = [
            spectrum_cover(ModelParams(1, 1.0), level, 1e-4).total_length
            for level in (8, 14, 20)
        ]
        # outer covers of [-2, 2]: lengths decrease toward 4
        assert lengths[0] >= lengths[1] >= lengths[2]
        assert abs(lengths[2] - 4.0) < 1e-3
