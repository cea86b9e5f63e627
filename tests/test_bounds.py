import math

import numpy as np
import pytest

from pwlearn import (
    BoundReport,
    DivergenceError,
    DomainError,
    bound_report,
    check_proof_inequalities,
    kl_d_bound,
    lower_bound_closed_form,
    lower_bound_partial,
    perturbation,
    upper_bound_linint,
)

LOG_GRID = [float(e) for e in np.geomspace(1e-4, 0.49, 50)]

# Regression bands for value*sqrt(eps) over LOG_GRID, measured once on this
# implementation (min 0.58616664..., max 0.73006898... for the upper bound;
# min 0.02775503..., max 0.10469662... for the closed-form lower bound) and
# frozen with a little outward rounding.
UPPER_RATIO_BAND = (0.586, 0.731)
LOWER_RATIO_BAND = (0.0277, 0.1047)


class TestUpperBound:
    def test_half(self):
        # p = 1.5 gives p/(2-p) = 3, so the value is (1 + 1/6)^(1/4).
        assert upper_bound_linint(0.5) == (7.0 / 6.0) ** 0.25

    def test_approaches_one_as_epsilon_approaches_one(self):
        assert upper_bound_linint(1 - 1e-9) == pytest.approx(1.0, abs=1e-6)
        assert upper_bound_linint(0.9) > 1.0
        # the correction term falls below double precision well before eps = 1
        assert upper_bound_linint(0.999) == 1.0

    def test_grows_as_epsilon_shrinks(self):
        values = [upper_bound_linint(e) for e in (0.5, 0.1, 0.01, 1e-4)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_scaled_value_stays_in_frozen_band(self):
        for eps in LOG_GRID:
            ratio = upper_bound_linint(eps) * math.sqrt(eps)
            assert UPPER_RATIO_BAND[0] <= ratio <= UPPER_RATIO_BAND[1]

    def test_domain(self):
        for eps in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                upper_bound_linint(eps)

    def test_epsilon_too_small_to_move_p_is_refused(self):
        # With 1 + eps == 1, p/(2 - p) is 1 and 2^1 - 2 divides by zero.
        assert math.isfinite(upper_bound_linint(2.0**-52))
        for eps in (1e-16, 2.0**-53, 5e-324):
            with pytest.raises(DomainError, match=f"epsilon {eps!r} is too small"):
                upper_bound_linint(eps)

    def test_epsilon_whose_p_rounds_to_two(self):
        # 1 + (1 - 2^-53) rounds to 2, so p/(2 - p) would divide by zero; the
        # exact bound is 1 to within 2^-54, whose double is 1.
        assert 1.0 + (1 - 2**-53) == 2.0
        assert upper_bound_linint(1 - 2**-53).hex() == "0x1.0000000000000p+0"
        assert bound_report(1 - 2**-53).upper_linint == 1.0


class TestLowerBoundPartial:
    def test_single_stage_term(self):
        eps = 0.25
        assert lower_bound_partial(eps, 1) == 0.5 * perturbation(1, eps) ** 1.25

    def test_increasing_in_stage_budget(self):
        for eps in (0.4, 0.05):
            values = [lower_bound_partial(eps, S) for S in range(1, 40)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_converges_to_closed_form(self):
        # The series ratio is 2^(-eps) * (1-eps)^((1+eps)/2); enough terms
        # push the truncation error below 1e-12 relative at any epsilon.
        for eps in (0.49, 0.25, 0.1, 0.02):
            ratio = 2.0 ** (-eps) * (1 - eps) ** ((1 + eps) / 2.0)
            terms = int(math.log(1e-13) / math.log(ratio)) + 1
            partial = lower_bound_partial(eps, terms)
            closed = lower_bound_closed_form(eps)
            assert partial == pytest.approx(closed, rel=1e-12)
            assert partial <= closed

    def test_sixty_terms_reach_1e9_only_above_the_crossover(self):
        # With 60 terms the truncation error is ratio^60, which crosses 1e-9
        # near eps = 0.2455; below that the plain 60-term sum visibly
        # undershoots the closed form.
        assert lower_bound_partial(0.25, 60) == pytest.approx(
            lower_bound_closed_form(0.25), rel=1e-9
        )
        assert lower_bound_partial(0.3, 60) == pytest.approx(
            lower_bound_closed_form(0.3), rel=1e-9
        )
        gap = 1 - lower_bound_partial(0.01, 60) / lower_bound_closed_form(0.01)
        assert gap > 0.4

    def test_domain(self):
        with pytest.raises(DomainError):
            lower_bound_partial(0.5, 10)
        with pytest.raises(DomainError):
            lower_bound_partial(0.25, 0)

    def test_stage_ceiling(self):
        for stages in ((1 << 20) + 1, 9223372036854775807):
            with pytest.raises(DomainError, match="1048576"):
                lower_bound_partial(0.25, stages)
        for stages in (2.5, 10.0, True):
            with pytest.raises(DomainError, match="integer"):
                lower_bound_partial(0.25, stages)


class TestLowerBoundClosedForm:
    def test_matches_direct_formula_at_moderate_epsilon(self):
        for eps in (0.45, 0.25, 0.1):
            first = 0.5 * (math.sqrt(eps * (1 - eps)) / 4.0) ** (1 + eps)
            ratio = 2.0 * (math.sqrt(1 - eps) / 2.0) ** (1 + eps)
            assert lower_bound_closed_form(eps) == pytest.approx(
                first / (1.0 - ratio), rel=1e-13
            )

    def test_diverges_like_inverse_square_root(self):
        for eps in LOG_GRID:
            ratio = lower_bound_closed_form(eps) * math.sqrt(eps)
            assert LOWER_RATIO_BAND[0] <= ratio <= LOWER_RATIO_BAND[1]

    def test_tiny_epsilon_stays_finite_and_scales(self):
        # Direct evaluation of 1 - ratio loses digits near eps = 0; the
        # log-space path keeps the 1/sqrt(eps) scaling intact.
        for eps in (1e-6, 1e-9, 1e-12):
            value = lower_bound_closed_form(eps)
            assert value == pytest.approx(
                1.0 / (8.0 * (math.log(2.0) + 0.5)) / math.sqrt(eps), rel=1e-2
            )

    def test_domain(self):
        for eps in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(DomainError):
                lower_bound_closed_form(eps)


class TestSandwich:
    def test_lower_below_upper_across_the_grid(self):
        for eps in LOG_GRID:
            assert lower_bound_closed_form(eps) <= upper_bound_linint(eps)

    def test_partial_below_closed_form(self):
        for eps in (0.4, 0.25, 0.1, 0.02):
            for S in (1, 5, 14, 60):
                assert lower_bound_partial(eps, S) <= lower_bound_closed_form(eps)


class TestKlDBound:
    def test_values(self):
        assert kl_d_bound(2.0) == 1.5
        assert kl_d_bound(3.0) == pytest.approx(7.0 / 6.0)

    def test_blows_up_towards_one(self):
        assert kl_d_bound(1.0001) > 1e3

    def test_large_exponent_saturates(self):
        assert kl_d_bound(2000.0) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            kl_d_bound(1.0)


class TestProofInequalities:
    def test_dense_grid_has_positive_slack(self):
        grid = np.linspace(1e-6, 0.5 - 1e-6, 10_001)
        report = check_proof_inequalities(grid)
        assert report.points_checked == 10_001
        assert report.root_slack > 0.0
        assert report.power_of_two_slack > 0.0
        assert report.min_slack == min(report.root_slack, report.power_of_two_slack)

    def test_slack_vanishes_towards_zero(self):
        near = check_proof_inequalities([1e-8]).min_slack
        far = check_proof_inequalities([0.25]).min_slack
        assert 0.0 < near < 1e-6 < far

    def test_upper_half_checks_only_the_power_inequality(self):
        report = check_proof_inequalities([0.7])
        assert report.power_of_two_slack > 0.0
        assert report.root_slack == math.inf

    def test_domain(self):
        with pytest.raises(DomainError):
            check_proof_inequalities([])
        with pytest.raises(DomainError):
            check_proof_inequalities([0.0])
        with pytest.raises(DomainError):
            check_proof_inequalities([1.0])


class TestBoundReport:
    def test_fields_consistent(self):
        rep = bound_report(0.25, 14)
        assert isinstance(rep, BoundReport)
        assert rep.upper_linint == upper_bound_linint(0.25)
        assert rep.lower_closed_form == lower_bound_closed_form(0.25)
        assert rep.lower_partial == lower_bound_partial(0.25, 14)
        assert rep.ratio_upper == rep.upper_linint * math.sqrt(0.25)
        assert rep.ratio_lower == rep.lower_closed_form * math.sqrt(0.25)

    def test_lower_columns_are_nan_from_one_half(self):
        rep = bound_report(0.7)
        assert math.isnan(rep.lower_closed_form)
        assert math.isnan(rep.lower_partial)
        assert math.isnan(rep.ratio_lower)
        assert rep.ratio_upper == upper_bound_linint(0.7) * math.sqrt(0.7)

    @pytest.mark.parametrize("eps", [1.0, 0.0, math.nan])
    def test_outside_the_upper_bounds_range_raises(self, eps):
        with pytest.raises(DomainError):
            bound_report(eps)

    def test_numpy_float_epsilon_gives_python_floats(self):
        eps = np.float32(0.1)
        assert type(upper_bound_linint(eps)) is float
        assert upper_bound_linint(eps) == upper_bound_linint(float(eps))
        rep = bound_report(eps)
        assert type(rep.epsilon) is float and rep == bound_report(float(eps))

    def test_partial_defaults_to_sixty_stages(self):
        assert bound_report(0.3).lower_partial == lower_bound_partial(0.3, 60)
