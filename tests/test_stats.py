"""Numerics checks against values frozen from an independent reference.

The reference values below were computed once with scipy (stats.t.sf,
special.betainc, stats.norm.sf, stats.ttest_ind with equal_var=False,
stats.linregress) and pasted in, so the suite does not need scipy at
runtime.  When scipy happens to be installed, a cross-check on random
points runs too.
"""

import math

import numpy as np
import pytest

from mobcast.stats import (
    StatsError,
    betainc_regularized,
    holm_adjust,
    logistic,
    normal_sf,
    slope_test,
    student_t_sf,
    welch_t_test,
    wilson_interval,
)

# (t, df, scipy.stats.t.sf(t, df))
T_SF_CASES = [
    (0.0, 7.0, 0.5),
    (0.5, 1.0, 0.3524163823495668),
    (1.0, 2.0, 0.21132486540518713),
    (2.0, 5.0, 0.05096973941492914),
    (2.5, 10.7, 0.015023535871089448),
    (0.85, 78.3, 0.198958364878151),
    (-1.5, 3.0, 0.8847080673775886),
    (4.2, 30.0, 0.00010989421710800977),
    (12.0, 4.0, 0.0001382142742514865),
    (-0.3, 1.5, 0.5997639015982075),
]

# (a, b, x, scipy.special.betainc(a, b, x))
BETAINC_CASES = [
    (0.5, 0.5, 0.25, 0.33333333333333337),
    (2.0, 3.0, 0.4, 0.5247999999999999),
    (5.0, 1.5, 0.9, 0.7761721343162159),
    (0.5, 9.0, 0.01, 0.32512876737378865),
    (7.5, 2.5, 0.65, 0.21607598987818358),
    # large, lopsided case of the kind Welch p-values hit
    (39.15, 0.5, 0.99105, 0.40296435571331063),
    (1.0, 1.0, 0.37, 0.37),
]

# (z, scipy.stats.norm.sf(z))
NORMAL_SF_CASES = [
    (0.0, 0.5),
    (1.0, 0.15865525393145707),
    (1.959963984540054, 0.025),
    (3.5, 0.00023262907903552502),
    (-2.0, 0.9772498680518208),
]


@pytest.mark.parametrize("t, df, expected", T_SF_CASES)
def test_student_t_sf_frozen(t, df, expected):
    got = student_t_sf(t, df)
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("a, b, x, expected", BETAINC_CASES)
def test_betainc_frozen(a, b, x, expected):
    got = betainc_regularized(a, b, x)
    assert got == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("z, expected", NORMAL_SF_CASES)
def test_normal_sf_frozen(z, expected):
    assert normal_sf(z) == pytest.approx(expected, rel=1e-9)


def test_student_t_sf_edges():
    assert student_t_sf(math.inf, 5.0) == 0.0
    assert student_t_sf(-math.inf, 5.0) == 1.0
    assert math.isnan(student_t_sf(math.nan, 5.0))


def test_betainc_boundaries_and_domain():
    assert betainc_regularized(2.0, 3.0, 0.0) == 0.0
    assert betainc_regularized(2.0, 3.0, -0.5) == 0.0
    assert betainc_regularized(2.0, 3.0, 1.0) == 1.0
    assert betainc_regularized(2.0, 3.0, 1.5) == 1.0
    with pytest.raises(StatsError):
        betainc_regularized(0.0, 3.0, 0.5)
    with pytest.raises(StatsError):
        betainc_regularized(2.0, -1.0, 0.5)


def test_betainc_symmetry():
    # I_x(a, b) + I_{1-x}(b, a) = 1
    for a, b, x in [(2.0, 5.0, 0.3), (0.7, 0.2, 0.6), (10.0, 3.5, 0.95)]:
        total = betainc_regularized(a, b, x) + betainc_regularized(b, a, 1 - x)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_welch_frozen_example():
    x = np.array([1.1, 1.3, 0.9, 1.2, 1.0])
    y = np.array([0.8, 0.7, 1.0, 0.9])
    res = welch_t_test(x, y)
    assert res.statistic == pytest.approx(2.6111648393354687, rel=1e-12)
    assert res.df == pytest.approx(6.980769230769231, rel=1e-12)
    assert res.p_value == pytest.approx(0.03493878235996393, rel=1e-9)
    assert res.mean_x == pytest.approx(1.1)
    assert res.n_x == 5 and res.n_y == 4


def test_welch_degenerate_samples():
    # Both arms constant: equal means give t=0/p=1, unequal give infinite t.
    same = welch_t_test(np.full(5, 2.0), np.full(4, 2.0))
    assert same.statistic == 0.0 and same.p_value == 1.0
    diff = welch_t_test(np.full(5, 2.0), np.full(4, 1.0))
    assert math.isinf(diff.statistic) and diff.statistic > 0
    assert diff.p_value == 0.0


def test_welch_requires_two_observations():
    with pytest.raises(StatsError):
        welch_t_test(np.array([1.0]), np.array([1.0, 2.0]))


def test_wilson_frozen():
    lo, hi = wilson_interval(8, 100)
    assert lo == pytest.approx(0.041093461484380624, rel=1e-12)
    assert hi == pytest.approx(0.14998107700948735, rel=1e-12)
    lo0, hi0 = wilson_interval(0, 20)
    assert lo0 == 0.0
    assert hi0 == pytest.approx(0.16112515805281938, rel=1e-12)


def test_wilson_domain():
    with pytest.raises(StatsError):
        wilson_interval(1, 0)
    with pytest.raises(StatsError):
        wilson_interval(5, 4)


def test_slope_test_frozen():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    y = np.array([0.1, 1.9, 4.2, 5.8, 8.1])
    res = slope_test(x, y)
    assert res.slope == pytest.approx(1.99, rel=1e-12)
    assert res.intercept == pytest.approx(0.04000000000000048, abs=1e-12)
    assert res.se == pytest.approx(0.059721576223897795, rel=1e-9)
    assert res.p_value == pytest.approx(5.9415391117559265e-05, rel=1e-9)


def test_slope_test_domain():
    with pytest.raises(StatsError):
        slope_test(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(StatsError):
        slope_test(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


def test_holm_adjust():
    adj = holm_adjust([0.01, 0.04, 0.03, 0.20])
    assert adj == pytest.approx([0.04, 0.09, 0.09, 0.20], abs=1e-15)
    assert holm_adjust([]) == []
    assert holm_adjust([0.5]) == [0.5]
    # monotone in the sorted order and never below the raw p
    raw = [0.2, 0.001, 0.05, 0.04, 0.7]
    adj = holm_adjust(raw)
    assert all(a >= r for a, r in zip(adj, raw))
    assert all(0.0 <= a <= 1.0 for a in adj)


def test_logistic_stability():
    assert logistic(0.0) == 0.5
    assert logistic(800.0) == 1.0
    assert logistic(-800.0) == pytest.approx(0.0, abs=1e-300)
    arr = logistic(np.array([-800.0, 0.0, 800.0]))
    assert np.all(np.isfinite(arr))
    assert arr[1] == 0.5


def test_against_scipy_if_available():
    scipy_stats = pytest.importorskip("scipy.stats")
    from scipy import special

    rng = np.random.default_rng(7)
    for _ in range(25):
        t = float(rng.normal(scale=3))
        df = float(rng.uniform(0.5, 60))
        assert student_t_sf(t, df) == pytest.approx(
            scipy_stats.t.sf(t, df), rel=1e-8)
        a = float(rng.uniform(0.1, 20))
        b = float(rng.uniform(0.1, 20))
        x = float(rng.uniform(0, 1))
        assert betainc_regularized(a, b, x) == pytest.approx(
            special.betainc(a, b, x), rel=1e-8, abs=1e-12)
