import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dfnflow.laws import (
    AdaptiveLaw,
    LawBranch,
    NormalizedBranchError,
    Regime,
    eval_lambda_coefficient,
)

from oracles import (
    JumpSign,
    check_growth_bound,
    conjugate_exponent,
    convexity_probe,
    flux_antiderivative,
    growth_exponent,
    jump_sign,
)


def linear_pair(l1=1.0, l2=0.1, ubar=0.15):
    return AdaptiveLaw(LawBranch(l1), LawBranch(l2), ubar)


def forchheimer_pair(ubar=0.15):
    return AdaptiveLaw(LawBranch(1.0), LawBranch(0.01, 3.0), ubar)


class TestCoefficientEvaluation:
    def test_constant_pair_low_regime(self):
        assert eval_lambda_coefficient(linear_pair(), 0.05, Regime.LOW) == 1.0

    def test_constant_pair_high_regime(self):
        assert eval_lambda_coefficient(linear_pair(), 0.5, Regime.HIGH) == 0.1

    def test_affine_high_branch_uses_physical_speed(self):
        # coefficient = 0.01 + 3*speed regardless of the threshold rescaling
        law = forchheimer_pair()
        got = eval_lambda_coefficient(law, 0.2, Regime.HIGH)
        assert got == pytest.approx(0.61, abs=1e-14)

    def test_regime_is_not_inferred_from_speed(self):
        # a speed above the threshold may still be evaluated on the low branch
        law = linear_pair()
        assert eval_lambda_coefficient(law, 10.0, Regime.LOW) == 1.0

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            eval_lambda_coefficient(linear_pair(), -0.1, Regime.LOW)

    @settings(max_examples=50, deadline=None)
    @given(
        s1=st.floats(0.0, 5.0),
        s2=st.floats(0.0, 5.0),
        regime=st.sampled_from([Regime.LOW, Regime.HIGH]),
    )
    def test_monotone_in_speed_within_regime(self, s1, s2, regime):
        law = forchheimer_pair()
        lo, hi = sorted((s1, s2))
        assert eval_lambda_coefficient(law, lo, regime) <= eval_lambda_coefficient(
            law, hi, regime
        ) + 1e-15


class TestPotential:
    def test_constant_branch_closed_form(self):
        law = AdaptiveLaw(LawBranch(1.0), LawBranch(1.0), 1.0)
        a = np.array([0.0, 0.5, 1.0, 2.0])
        assert np.allclose(law.potential(a), (a - 1.0) / 2.0)
        assert law.potential(1.0) == 0.0

    def test_constant_pair_value_above_switch(self):
        law = AdaptiveLaw(LawBranch(1.0), LawBranch(0.1), 1.0)
        assert law.potential(4.0) == pytest.approx(0.15, abs=1e-15)

    def test_affine_branch_value_matches_quadrature(self):
        branch = LawBranch(0.01, 3.0)
        assert branch.potential(4.0) == pytest.approx(7.015, abs=1e-12)
        reference, err = quad(lambda a: (0.01 + 3.0 * np.sqrt(a)) / 2.0, 1.0, 4.0)
        assert branch.potential(4.0) == pytest.approx(reference, abs=1e-10)

    def test_kink_continuity_is_exact(self):
        law = forchheimer_pair()
        assert float(law.low_normalized.potential(1.0)) == 0.0
        assert float(law.high_normalized.potential(1.0)) == 0.0

    def test_derivative_matches_half_coefficient(self):
        law = forchheimer_pair()
        for a, branch in ((0.5, law.low_normalized), (2.0, law.high_normalized)):
            d = 1e-7
            fd = (law.potential(a + d) - law.potential(a - d)) / (2 * d)
            assert fd == pytest.approx(float(branch.phi(a)) / 2.0, rel=1e-6)

    def test_increasing_away_from_zero(self):
        law = forchheimer_pair()
        a = np.linspace(1e-6, 30.0, 500)
        assert np.all(np.diff(law.potential(a)) > 0)

    def test_physical_scaling_reduces_to_normalized_at_unit_threshold(self):
        law = AdaptiveLaw(LawBranch(2.0), LawBranch(3.0), 1.0)
        a = np.array([0.3, 1.7])
        assert np.allclose(law.potential_physical(a), law.potential(a))

    def test_flux_antiderivative_matches_numeric_integral(self):
        law = forchheimer_pair()
        for w in (-0.4, -0.1, 0.07, 0.15, 0.9):
            ref, _ = quad(lambda s: law.potential_physical(s**2), 0.0, w)
            assert flux_antiderivative(law, w) == pytest.approx(ref, abs=1e-12)


class TestJumpSign:
    def test_negative(self):
        assert jump_sign(linear_pair(1.0, 0.1)) is JumpSign.NEGATIVE

    def test_zero_requires_bitwise_equality(self):
        assert jump_sign(linear_pair(1.0, 1.0)) is JumpSign.ZERO

    def test_positive_from_small_high_permeability(self):
        law = linear_pair(1.0, 1.0 / 0.5625)
        assert law.lambda2 == pytest.approx(1.7778, abs=1e-4)
        assert jump_sign(law) is JumpSign.POSITIVE


class TestGrowthBound:
    def test_constant_high_branch_rate_two(self):
        report = check_growth_bound(linear_pair(1.0, 0.1, ubar=1.0))
        assert report.satisfied
        assert report.c == pytest.approx(0.1)
        assert report.C == pytest.approx(0.05)

    def test_affine_high_branch_rate_three(self):
        law = AdaptiveLaw(LawBranch(1.0), LawBranch(0.01, 3.0), 1.0)
        assert growth_exponent(law.high) == 3.0
        report = check_growth_bound(law)
        assert report.satisfied
        assert report.c >= 3.0

    def test_constant_branch_cannot_match_rate_three(self):
        law = AdaptiveLaw(LawBranch(1.0), LawBranch(0.5), threshold=1.0)
        assert check_growth_bound(law).satisfied
        report = check_growth_bound(law, rate=3.0)
        assert not report.satisfied

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            check_growth_bound(linear_pair(), sample_count=1)


class TestConvexityProbe:
    def test_convex_when_high_coefficient_dominates(self):
        law = AdaptiveLaw(LawBranch(1.0), LawBranch(1.5), 1.0)
        assert convexity_probe(law, 10_000, seed=1).violations == 0

    def test_nonconvex_when_high_coefficient_drops(self):
        law = AdaptiveLaw(LawBranch(1.0), LawBranch(0.1), 1.0)
        report = convexity_probe(law, 10_000, seed=1)
        assert report.violations >= 1
        assert report.worst_gap < -1e-12

    def test_equal_coefficients_are_convex(self):
        law = AdaptiveLaw(LawBranch(0.7), LawBranch(0.7), 1.0)
        assert convexity_probe(law, 10_000, seed=2).violations == 0

    def test_probe_deterministic_under_seed(self):
        law = AdaptiveLaw(LawBranch(1.0), LawBranch(0.5), 1.0)
        a = convexity_probe(law, 5000, seed=3)
        b = convexity_probe(law, 5000, seed=3)
        assert a == b

    @settings(max_examples=30, deadline=None)
    @given(
        l1=st.floats(0.05, 5.0),
        ratio=st.floats(1.0, 5.0),
    )
    def test_upward_jumps_never_violate(self, l1, ratio):
        law = AdaptiveLaw(LawBranch(l1), LawBranch(l1 * ratio), 1.0)
        assert convexity_probe(law, 2000, seed=5).violations == 0


class TestAdaptiveLawValidation:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            AdaptiveLaw(LawBranch(1.0), LawBranch(1.0), 0.0)

    @pytest.mark.parametrize(
        "intercept, slope", [(np.nan, 0.0), (1.0, np.nan), (np.inf, 0.0), (0.0, np.inf)]
    )
    def test_law_parameters_must_be_finite(self, intercept, slope):
        # NaN fails every comparison, so it used to pass the sign checks
        with pytest.raises(ValueError, match=r"law branch needs finite parameters; got \("):
            LawBranch(intercept, slope)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf])
    def test_threshold_must_be_finite(self, threshold):
        with pytest.raises(ValueError, match="threshold speed must be positive and finite"):
            AdaptiveLaw(LawBranch(1.0), LawBranch(1.0), threshold)

    def test_constant_value_must_be_positive(self):
        with pytest.raises(ValueError, match="must be positive"):
            LawBranch(0.0)

    def test_affine_parameters_validated(self):
        with pytest.raises(ValueError):
            LawBranch(0.0, 0.0)
        # every inner solve starts at speed 0, where the coefficient is the
        # intercept; a zero one used to fail inside the solver
        with pytest.raises(ValueError, match="intercept must be positive"):
            AdaptiveLaw(LawBranch(0.0, 1.0), LawBranch(1.0), 0.15)
        with pytest.raises(ValueError):
            LawBranch(-0.1, 1.0)
        with pytest.raises(ValueError):
            LawBranch(1.0, -0.1)

    def test_normalized_branches_are_built_once(self):
        law = forchheimer_pair(ubar=0.15)
        assert law.high_normalized is law.high_normalized
        assert law.high_normalized == LawBranch(0.01, 3.0 * 0.15)
        assert law.low_normalized == law.low == LawBranch(1.0)

    @pytest.mark.parametrize("branch", ["low", "high"])
    def test_a_branch_that_overflows_once_normalized_fails_with_the_law(self, branch):
        # 1e300 is finite, but its product with the threshold is inf
        branches = {"low": LawBranch(1.0), "high": LawBranch(1.0), branch: LawBranch(0.01, 1e300)}
        message = r"got \(0.01, inf\) once normalized by the threshold"
        with pytest.raises(NormalizedBranchError, match=message) as err:
            AdaptiveLaw(**branches, threshold=1e10)
        assert err.value.branch == branch

    def test_exponents(self):
        assert growth_exponent(linear_pair().high) == 2.0
        assert conjugate_exponent(linear_pair().high) == 2.0
        law = forchheimer_pair()
        assert growth_exponent(law.high) == 3.0
        assert conjugate_exponent(law.high) == pytest.approx(1.5)

    def test_threshold_normalization_of_affine_branch(self):
        law = forchheimer_pair(ubar=0.15)
        # at the switch the coefficient equals its physical value at speed 0.15
        assert law.lambda2 == pytest.approx(0.01 + 3.0 * 0.15)
