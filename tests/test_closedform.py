import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ng_incentives import closedform as cf
from ng_incentives.model import ParameterError

FRACTIONS = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
ALPHAS = st.floats(min_value=0.001, max_value=0.999, allow_nan=False)


def test_bound_values_at_quarter():
    assert cf.inclusion_bound_original(0.25) == pytest.approx(0.368421052631579)
    assert cf.inclusion_bound_yin(0.25) == pytest.approx(1.0 / 3.0)
    assert cf.extension_bound(0.25) == pytest.approx(3.0 / 7.0)


def test_bounds_domain_errors():
    with pytest.raises(ParameterError):
        cf.inclusion_bound_original(1.0)
    with pytest.raises(ParameterError):
        cf.inclusion_bound_yin(-0.1)
    with pytest.raises(ParameterError):
        cf.extension_bound(1.2)


@given(st.floats(min_value=0.0, max_value=0.49))
def test_bounds_monotonic_in_alpha(alpha):
    eps = 0.005
    assert cf.inclusion_bound_original(alpha + eps) > cf.inclusion_bound_original(alpha)
    assert cf.inclusion_bound_yin(alpha + eps) > cf.inclusion_bound_yin(alpha)
    assert cf.extension_bound(alpha + eps) < cf.extension_bound(alpha)


def test_feasible_interval_classes():
    whale = cf.feasible_interval(0.25, "whale")
    assert not whale.empty
    assert whale.lower == pytest.approx(0.368421052631579)
    assert whale.upper == pytest.approx(3.0 / 7.0)
    regular = cf.feasible_interval(0.25, "regular")
    assert (regular.lower, regular.upper) == (0.25, 0.75)
    both = cf.feasible_interval(0.25, "all")
    assert (both.lower, both.upper) == (whale.lower, whale.upper)
    with pytest.raises(ParameterError):
        cf.feasible_interval(0.25, "plankton")


def test_whale_interval_empty_above_root():
    assert cf.feasible_interval(0.35, "whale").empty
    assert not cf.feasible_interval(0.29, "whale").empty


def test_revenue_at_endpoints():
    # rho = 0 is honest play for either attack
    assert cf.inclusion_attack_revenue(0.3, 0.7, 0.0) == pytest.approx(0.3)
    assert cf.extension_attack_revenue(0.3, 0.7, 0.0) == pytest.approx(0.3)
    assert cf.inclusion_attack_revenue(0.3, 0.2, 1.0) == pytest.approx(
        0.3265822784810127
    )


@given(ALPHAS, FRACTIONS, FRACTIONS)
@settings(max_examples=300)
def test_mirror_symmetry(alpha, r, rho):
    lhs = cf.extension_attack_revenue(alpha, r, rho)
    rhs = cf.inclusion_attack_revenue(alpha, 1.0 - r, rho)
    assert math.isclose(lhs, rhs, rel_tol=0.0, abs_tol=1e-12)


@given(ALPHAS, FRACTIONS)
@settings(max_examples=300)
def test_inclusion_revenue_monotone_in_rho(alpha, r):
    # Withholding more helps iff r < alpha, hurts iff r > alpha.
    lo = cf.inclusion_attack_revenue(alpha, r, 0.25)
    hi = cf.inclusion_attack_revenue(alpha, r, 0.75)
    if r < alpha:
        assert hi >= lo - 1e-15
    elif r > alpha:
        assert hi <= lo + 1e-15


@given(ALPHAS, FRACTIONS)
@settings(max_examples=300)
def test_optimal_revenues_never_below_fair_share(alpha, r):
    inc, rho_inc = cf.optimal_inclusion_revenue(alpha, r)
    ext, rho_ext = cf.optimal_extension_revenue(alpha, r)
    assert inc >= alpha - 1e-12
    assert ext >= alpha - 1e-12
    assert rho_inc in (0.0, 1.0) and rho_ext in (0.0, 1.0)
    # the reported optimum matches the formula at the reported rho
    assert inc == pytest.approx(cf.inclusion_attack_revenue(alpha, r, rho_inc))
    assert ext == pytest.approx(cf.extension_attack_revenue(alpha, r, rho_ext))


def test_optimal_tie_resolution():
    alpha = 0.3
    rev, rho = cf.optimal_inclusion_revenue(alpha, alpha)
    assert rho == 1.0 and rev == pytest.approx(alpha)
    rev, rho = cf.optimal_extension_revenue(alpha, 1.0 - alpha)
    assert rho == 1.0 and rev == pytest.approx(alpha)
