"""Small statistical toolbox used across the simulator.

Distribution functions are implemented directly (regularized incomplete
beta via a modified Lentz continued fraction) so results are identical
across platforms and there is no runtime dependency beyond numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StatsError",
    "logistic",
    "log_beta",
    "betainc_regularized",
    "student_t_sf",
    "normal_sf",
    "mean_sd",
    "WelchResult",
    "welch_t_test",
    "holm_adjust",
    "SlopeResult",
    "slope_test",
    "wilson_interval",
]

_TINY = 1e-300


class StatsError(ValueError):
    pass


def logistic(x):
    """Numerically stable sigmoid, scalar or array."""
    x = np.asarray(x, dtype=np.float64)
    ex = np.exp(-np.abs(x))  # exp(-x) where x >= 0, exp(x) elsewhere
    out = np.where(x >= 0, 1.0, ex) / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def betainc_regularized(a: float, b: float, x: float,
                        tol: float = 1e-10, max_iter: int = 500) -> float:
    """Regularized incomplete beta I_x(a, b) by continued fraction."""
    if a <= 0 or b <= 0:
        raise StatsError("betainc requires a, b > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    # use the symmetry that converges fastest
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - betainc_regularized(b, a, 1.0 - x, tol=tol, max_iter=max_iter)
    ln_front = a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    front = math.exp(ln_front)

    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            return front * h / a
    raise StatsError("incomplete beta continued fraction did not converge")


def student_t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise StatsError("df must be > 0")
    if math.isnan(t):
        return math.nan
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    p_two = betainc_regularized(0.5 * df, 0.5, df / (df + t * t))
    return 0.5 * p_two if t >= 0 else 1.0 - 0.5 * p_two


def normal_sf(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def mean_sd(values) -> tuple[float, float]:
    """Sample mean and standard deviation (ddof=1; 0.0 for one value),
    through numpy's pairwise sums."""
    sd = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return float(np.mean(values)), sd


@dataclass(frozen=True)
class WelchResult:
    statistic: float
    df: float
    p_value: float
    mean_x: float
    mean_y: float
    n_x: int
    n_y: int


def welch_t_test(x, y) -> WelchResult:
    """Two-sided Welch t test.

    If both samples are exactly constant the test degenerates; by
    convention p = 1 for equal means and p = 0 otherwise.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    nx, ny = x.size, y.size
    if nx < 2 or ny < 2:
        raise StatsError("welch_t_test requires at least 2 observations per arm")
    mx, my = float(x.mean()), float(y.mean())
    vx, vy = float(x.var(ddof=1)), float(y.var(ddof=1))
    se2 = vx / nx + vy / ny
    if se2 == 0.0:
        equal = mx == my
        return WelchResult(0.0 if equal else math.inf, float(nx + ny - 2),
                           1.0 if equal else 0.0, mx, my, nx, ny)
    t = (mx - my) / math.sqrt(se2)
    df = se2 ** 2 / ((vx / nx) ** 2 / (nx - 1) + (vy / ny) ** 2 / (ny - 1))
    p = 2.0 * student_t_sf(abs(t), df)
    return WelchResult(t, df, min(1.0, p), mx, my, nx, ny)


def holm_adjust(p_values) -> list[float]:
    """Holm step-down adjusted p-values (family-wise error control)."""
    p = list(map(float, p_values))
    k = len(p)
    order = sorted(range(k), key=lambda i: p[i])
    adjusted = [0.0] * k
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, (k - rank) * p[idx])
        adjusted[idx] = min(1.0, running)
    return adjusted


@dataclass(frozen=True)
class SlopeResult:
    slope: float
    intercept: float
    se: float
    statistic: float
    df: float
    p_value: float


def slope_test(x, y) -> SlopeResult:
    """OLS slope of y on x with the two-sided t test of slope = 0."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    if n != y.size:
        raise StatsError("x and y must have equal length")
    if n < 3:
        raise StatsError("slope test requires at least 3 points")
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0.0:
        raise StatsError("slope undefined: regressor has zero variance")
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - intercept - slope * x
    df = n - 2
    s2 = float(np.sum(resid ** 2)) / df
    se = math.sqrt(s2 / sxx)
    if se == 0.0:
        return SlopeResult(slope, intercept, 0.0,
                           0.0 if slope == 0.0 else math.inf,
                           float(df), 1.0 if slope == 0.0 else 0.0)
    t = slope / se
    p = min(1.0, 2.0 * student_t_sf(abs(t), df))
    return SlopeResult(slope, intercept, se, t, float(df), p)


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise StatsError("wilson_interval requires trials > 0")
    if not 0 <= successes <= trials:
        raise StatsError("wilson_interval requires 0 <= successes <= trials")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # the bound is exactly 0 (resp. 1) at the boundary counts; the direct
    # formula can leave a ~1e-17 residue there
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)
