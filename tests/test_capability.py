"""Capability arithmetic and its consistency with the profile."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from mheight import (
    CapabilitySpec,
    ExtendedHeight,
    Family,
    InvalidParameterError,
    NoFiniteRatioError,
    check_spec,
    closed_profile,
    feasible_pairs,
    required_ratio,
)
from mheight.codes import DUAL_DODECAHEDRAL, DUAL_ICOSAHEDRAL

SQRT5 = math.sqrt(5.0)

ICOSA = closed_profile(Family(DUAL_ICOSAHEDRAL))
DODE = closed_profile(Family(DUAL_DODECAHEDRAL))


class TestRequiredRatio:
    def test_unit_height(self):
        assert required_ratio(ExtendedHeight(1.0)) == pytest.approx(4.0, abs=1e-15)

    def test_sqrt5(self):
        assert required_ratio(ExtendedHeight(SQRT5)) == pytest.approx(
            2 * (SQRT5 + 1), abs=1e-12)

    def test_largest_dodecahedral_row(self):
        assert required_ratio(ExtendedHeight(5 + 2 * SQRT5)) == pytest.approx(
            12 + 4 * SQRT5, rel=1e-14)

    def test_accepts_bare_floats(self):
        assert required_ratio(2.0) == pytest.approx(6.0)

    def test_infinite_rejected(self):
        with pytest.raises(NoFiniteRatioError):
            required_ratio(ExtendedHeight(math.inf))


class TestCapabilitySpec:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            CapabilitySpec(-1, 0, 1.0, 2.0)
        with pytest.raises(InvalidParameterError):
            CapabilitySpec(1, 0, 0.0, 2.0)
        with pytest.raises(InvalidParameterError):
            CapabilitySpec(1, 0, 2.0, 2.0)

    @pytest.mark.parametrize("delta,Delta", [(1.0, math.inf), (1e-320, 1.0)])
    def test_non_finite_ratio_rejected(self, delta, Delta):
        with pytest.raises(InvalidParameterError):
            CapabilitySpec(1, 0, delta, Delta)

    def test_derived_fields(self):
        spec = CapabilitySpec(1, 2, 0.5, 4.0)
        assert spec.ratio == pytest.approx(8.0)
        assert spec.order == 4


class TestFeasiblePairs:
    def test_icosahedral_at_6_5(self):
        assert feasible_pairs(ICOSA, 6.5) == [(1, 0), (0, 2), (0, 1)]

    def test_icosahedral_at_6_is_empty(self):
        assert feasible_pairs(ICOSA, 6.0) == []

    def test_huge_ratio_gives_every_finite_pair(self):
        pairs = feasible_pairs(ICOSA, 1e6)
        assert pairs == [(1, 1), (1, 0), (0, 3), (0, 2), (0, 1)]

    def test_small_ratio_is_empty(self):
        assert feasible_pairs(DODE, 2.0) == []

    def test_boundary_equality_is_feasible(self):
        ratio = 2 * (DODE.height(2).value + 1.0)
        assert (1, 0) in feasible_pairs(DODE, ratio)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf])
    def test_non_finite_ratio_rejected(self, ratio):
        with pytest.raises(InvalidParameterError):
            feasible_pairs(ICOSA, ratio)

    def test_sorted_by_tau_then_sigma_descending(self):
        pairs = feasible_pairs(DODE, 50.0)
        assert pairs == sorted(pairs, key=lambda p: (-p[0], -p[1]))


class TestCheckSpec:
    def test_dodecahedral_example_true(self):
        assert check_spec(DODE, CapabilitySpec(1, 0, 1.0, 7.0))

    def test_dodecahedral_example_false(self):
        assert not check_spec(DODE, CapabilitySpec(1, 0, 1.0, 5.0))

    def test_empty_claim_rejected(self):
        with pytest.raises(InvalidParameterError):
            check_spec(DODE, CapabilitySpec(0, 0, 1.0, 7.0))

    def test_order_beyond_profile_rejected(self):
        with pytest.raises(InvalidParameterError):
            check_spec(ICOSA, CapabilitySpec(3, 0, 1.0, 7.0))

    def test_infinite_order_is_infeasible(self):
        assert not check_spec(ICOSA, CapabilitySpec(2, 0, 1.0, 1e9))


class TestConsistency:
    @given(st.floats(2.5, 30.0), st.integers(0, 4), st.integers(0, 9))
    @settings(max_examples=300, deadline=None)
    def test_check_spec_matches_feasible_pairs(self, ratio, tau, sigma):
        order = 2 * tau + sigma
        if not 1 <= order <= DODE.max_m:
            return
        spec = CapabilitySpec(tau, sigma, 1.0, ratio)
        assert check_spec(DODE, spec) == ((tau, sigma) in feasible_pairs(DODE, ratio))

    @given(st.floats(4.0, 40.0), st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_feasibility_grows_with_ratio(self, ratio, bump):
        base = set(feasible_pairs(DODE, ratio))
        assert base <= set(feasible_pairs(DODE, ratio + bump))

    @given(st.floats(4.0, 40.0))
    @settings(max_examples=100, deadline=None)
    def test_downward_closure(self, ratio):
        # Weaker claims stay feasible; (0, 0) is the excluded empty claim.
        pairs = set(feasible_pairs(DODE, ratio))
        for tau, sigma in pairs:
            if sigma >= 1 and (tau, sigma) != (0, 1):
                assert (tau, sigma - 1) in pairs
            if tau >= 1:
                assert (tau - 1, sigma + 2) in pairs
