"""Ground truth at desk scale.

Adaptive quadrature of any distribution's PDF plus closed reference CDFs
(erfc-based Gaussian, incomplete-beta beta prime, and both tails of the
non-central chi-squared as Poisson mixtures of incomplete gammas, summed
in swapped order).  Everything the acceptance tests compare bounds against
comes from here, through code paths independent of the jet engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import specfun
from .errors import DomainError, ToleranceNotMet

_MAX_SUBDIVISIONS = 10_000

#: How many times ``ncchi2_sf_log`` may carry its window a width upward.
_EXTENSIONS = 4


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    subdivisions: int


@lru_cache(maxsize=8)
def _rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel(f, a: float, b: float) -> tuple[float, float]:
    # embedded-rule difference: 21-point Gauss vs 10-point Gauss
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x10, w10 = _rule(10)
    x21, w21 = _rule(21)
    f21 = [f(mid + half * xi) for xi in x21]
    i21 = half * sum(wi * fi for wi, fi in zip(w21, f21))
    i10 = half * sum(wi * f(mid + half * xi) for wi, xi in zip(w10, x10))
    return i21, abs(i21 - i10)


def _adaptive(f, a: float, b: float, tol: float) -> QuadratureResult:
    import heapq

    val, err = _panel(f, a, b)
    heap = [(-err, a, b, val, err)]
    total_val, total_err = val, err
    n_sub = 1
    while total_err > tol:
        if n_sub >= _MAX_SUBDIVISIONS:
            raise ToleranceNotMet(
                f"quadrature error {total_err:.3e} > tol {tol:.3e} after {n_sub} panels"
            )
        _, pa, pb, pval, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        lv, le = _panel(f, pa, pm)
        rv, re = _panel(f, pm, pb)
        total_val += lv + rv - pval
        total_err += le + re - perr
        heapq.heappush(heap, (-le, pa, pm, lv, le))
        heapq.heappush(heap, (-re, pm, pb, rv, re))
        n_sub += 1
    return QuadratureResult(total_val, total_err, n_sub)


def tail_by_quadrature(dist, x: float, side, tol: float = 1e-12) -> QuadratureResult:
    """Pr{X >= x} (side Right) or Pr{X <= x} (side Left) by adaptive
    integration of dist's PDF; unbounded ends are mapped through
    u = 1/(1 + |x - c|)."""
    if tol < 1e-13:
        raise DomainError("tail_by_quadrature supports tol >= 1e-13")
    support = dist.support
    if not (support.lower < x < support.upper):
        raise DomainError(f"x={x} outside open support ({support.lower}, {support.upper})")

    def pdf(t: float) -> float:
        return dist.pdf_jet(t, 0).value

    side_name = getattr(side, "name", str(side)).lower()
    if side_name.startswith("right"):
        if math.isinf(support.upper):
            # t in (0,1]: x(t) = x + (1-t)/t, dx = dt/t^2
            return _adaptive(lambda t: pdf(x + (1.0 - t) / t) / (t * t), 0.0, 1.0, tol)
        return _adaptive(pdf, x, support.upper, tol)
    if math.isinf(support.lower):
        return _adaptive(lambda t: pdf(x - (1.0 - t) / t) / (t * t), 0.0, 1.0, tol)
    return _adaptive(pdf, support.lower, x, tol)


# ---------------------------------------------------------------------------
# Closed reference CDFs


def gaussian_cdf(mu: float, sigma: float, x: float) -> float:
    return 0.5 * specfun.erfc(-(x - mu) / (sigma * math.sqrt(2.0)))


def gaussian_tail(mu: float, sigma: float, x: float) -> float:
    return 0.5 * specfun.erfc((x - mu) / (sigma * math.sqrt(2.0)))


def beta_prime_cdf(alpha: float, beta: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    return specfun.reg_inc_beta(x / (x + 1.0), alpha, beta)


# The non-central chi-squared tails are Poisson(s/2) mixtures of central
# ones: with a = k/2, y = x/2, m = s/2 and w_j = Pois(j; m),
#   F(x) = sum_j w_j P(a + j, y),   1 - F(x) = sum_j w_j Q(a + j, y).
# With Q(b + 1, y) = Q(b, y) + t_b, P(b, y) = P(b + 1, y) + t_b and t_b =
# y^b e^{-y} / Gamma(b + 1) = Pois(b; y) (Ding 1992, AS 275), one incomplete
# gamma at one end of an index window j0 .. J gives the rest, and the sums
# over the window are taken in swapped order, with t_i = t_{a+i}:
#   sum_j w_j Q_j = Q_{j0} T_{j0} + sum_{j0<=i<J} t_i T_{i+1},   T_i = sum_{j=i..J} w_j,
#   sum_j w_j P_j = P_J H_J + sum_{j0<=i<J} t_i H_i,             H_i = sum_{j=j0..i} w_j.
#
# A window holds the summand only where it lives, as in summing outward from
# the mode (Benton & Krishnamoorthy 2003): the survival's is m -+ (10 sqrt(m + 1)
# + 50), the Poisson weights' own range (what it leaves out is below e^-50 of
# their peak); the CDF's is centred on the peak of w_j P_j, where w_{j+1}/w_j =
# m/(j + 1) meets P_{j+1}/P_j ~ y/(a + j + 1), at j* with j*(a + j*) = m y, and
# is j* -+ (10 sigma* + 20) wide, sigma*^2 = 1/(1/j* + 1/(a + j*)).  What lies
# outside is bounded by geometric series from the window's edge terms (see the
# two tails' docstrings).
#
# T and H depend on (k, s) and the window only; no term is negative.  ln w_j
# and ln t_b are in Loader's (2000) form c(z) - bd0(z, mu), free of the O(z)
# cancellation in z ln mu - mu - lgamma(z + 1): c(z) = -stirlerr(z) -
# ln(2 pi z)/2, bd0(z, mu) = z log1p((z - mu)/mu) - (z - mu), stirlerr(z) =
# lgamma(z + 1) - (z + 1/2) ln z + z - ln(2 pi)/2 ~ sum_i _STIRLERR[i] z^-(2i+1).
_STIRLERR = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _loader_c(z: np.ndarray) -> np.ndarray:
    """c(z) over an ascending z > 0: the Stirling series from z = 10 on
    (the first term left out is below 4e-17 there), lgamma below."""
    n = int(np.searchsorted(z, 10.0))
    big, ser = z[n:], 0.0
    for coef in reversed(_STIRLERR):
        ser = ser / (big * big) + coef
    small = [v * math.log(v) - v - math.lgamma(v + 1.0) for v in z[:n].tolist()]
    return np.concatenate((small, -ser / big - 0.5 * np.log(2.0 * math.pi * big)))


def _log_pois(z: np.ndarray, mu: float, c: np.ndarray) -> np.ndarray:
    # c - bd0(z, mu) at z > 0: ln Pois(z; mu) for c = _loader_c(z)
    d = z - mu
    return c - (z * np.log1p(d / mu) - d)


def _sf_range(m: float, widths: int) -> tuple[int, int]:
    """The survival window j in [max(0, m - W), m + W], W = 10 sqrt(m + 1) + 50,
    its top raised ``widths`` widths."""
    w = 10.0 * math.sqrt(m + 1.0) + 50.0
    j0, top = max(0, int(m - w)), int(m + w)
    return j0, top + widths * (top - j0 + 1)


def _cdf_range(a: float, m: float, y: float) -> tuple[int, int]:
    """The CDF window j in [j* - h, j* + h], h = 10 sigma* + 20, around the
    summand's peak j* (left of the mean k + s, so j* <= m).  Where a ratio
    of the bound below j0 (see ``ncchi2_cdf_log``) would not be below 1,
    the window starts at j = 0 instead."""
    my = m * y
    peak = 2.0 * my / (a + math.sqrt(a * a + 4.0 * my))  # the root of j (a + j) = m y
    h = 10.0 * math.sqrt(my / (a + 2.0 * peak)) + 20.0  # sigma*^2 = j*(a + j*)/(a + 2 j*)
    j0, j1 = max(0, int(peak - h)), int(peak + h)
    if j0 and not (y < a + j0 + 1.0 and j0 - 1.0 < m and (a + j0 - 1.0) * (j0 - 1.0) < my):
        j0 = 0
    return j0, j1


class _Window(NamedTuple):
    """What one tail's swapped sum over j0 .. J needs that x does not change."""
    j0: int
    j1: int  # J
    ln_w0: float  # ln w_{j0}
    ln_w1: float  # ln w_J
    mass_edge: float  # ln H_J (CDF), ln T_{j0} (survival)
    b: np.ndarray  # the orders a + i of the t_i, i = j0 .. J - 1
    pre: np.ndarray  # c(b) + ln H_i (CDF), c(b) + ln T_{i+1} (survival)


@lru_cache(maxsize=8)
def _window(k: float, s: float, j0: int, j1: int, upper: bool) -> _Window:
    """The window j in [j0, J = j1] of the survival (``upper``) or the CDF
    (see ``_sf_range`` and ``_cdf_range``).  Cached per (k, s) and range."""
    m = 0.5 * s
    j = np.arange(max(j0, 1), j1 + 1, dtype=float)
    ln_w = np.concatenate(([-m] if j0 == 0 else [], _log_pois(j, m, _loader_c(j))))  # w_0 = e^-m
    b = 0.5 * k + np.arange(j0, j1, dtype=float)
    if upper:
        mass = np.logaddexp.accumulate(ln_w[::-1])[::-1]
        mass_edge, pre = mass[0], _loader_c(b) + mass[1:]
    else:
        mass = np.logaddexp.accumulate(ln_w)
        mass_edge, pre = mass[-1], _loader_c(b) + mass[:-1]
    for arr in (b, pre):
        arr.flags.writeable = False
    return _Window(j0, j1, float(ln_w[0]), float(ln_w[-1]), float(mass_edge), b, pre)


def _log_mixture(win: _Window, y: float, ln_g_edge: float) -> tuple[float, np.ndarray]:
    """ln sum_{j0<=j<=J} Pois(j; s/2) g_j in swapped order, from ln g_edge (ln
    P(a + J, y) or ln Q(a + j0, y)), and its log terms: the edge term, then
    ln t_i + ln H_i (or T_{i+1}) for i = j0 .. J - 1."""
    v = np.concatenate(([ln_g_edge + win.mass_edge], _log_pois(win.b, y, win.pre)))
    top = float(v.max())
    return top + math.log(float(np.exp(v - top).sum())), v


def _checked(total: float, rem: float, tol: float, win: _Window, where: str) -> float:
    """total, once the ln remainder bound rem is below tol of it."""
    if not rem <= math.log(tol) + total:
        raise ToleranceNotMet(f"series remainder above tol {tol:.3e} outside j in [{win.j0}, {win.j1}] ({where})")
    return min(0.0, total)


def ncchi2_cdf_log(k: float, s: float, x: float, tol: float = 1e-12) -> float:
    """ln of the non-central chi-squared CDF.

    One incomplete-gamma evaluation, ln P(a + J, y) at the top of the
    window j in [j0, J] (see ``_cdf_range``), and one log-sum-exp of the
    swapped sum P_J H_J + sum_{j0<=i<J} t_i H_i.  What lies outside is
    bounded by geometric series from the window's edge terms, with ratios
    from w_{j+1}/w_j = m/(j + 1), P(b + 1, y) <= P(b, y) y/(b + 1) (the
    series of P term by term) and G_{i-1}/G_i <= i/m for the whole Poisson
    mass G_i = sum_{j<=i} w_j (m w_{j-1} = j w_j):
      above J, w_{J+1} P_{J+1} <= w_{J+1} P_J y/(a + J + 1), and each
        further term is at most m y/((J + 2)(a + J + 2)) times the one before;
      below j0, sum_{j<j0} w_j P_j = G_{j0-1} P_{j0} + sum_{i<j0} t_i G_i,
        with G_{j0-1} <= w_{j0-1}/(1 - (j0 - 1)/m), P_{j0} <= t_{j0}/(1 -
        y/(a + j0 + 1)) (from P_{j0} = t_{j0} + P_{j0+1}), t_{j0-1} =
        t_{j0} (a + j0)/y, and each t_i G_i at most (a + j0 - 1)(j0 - 1)/(m y)
        times the one above it.

    Right of the mean k + s, where F nears 1, the sum of P terms carries
    an absolute error of a few ulp on F and so loses 1 - F; there ln F is
    log1p(-S) from the survival S of ``ncchi2_sf_log`` instead.
    """
    if k <= 0.0 or s < 0.0 or x < 0.0:
        raise DomainError("ncchi2_cdf_log needs k > 0, s >= 0, x >= 0")
    if x == 0.0:
        return -math.inf
    if x > k + s:
        return math.log1p(-math.exp(ncchi2_sf_log(k, s, x, tol)))
    a, y, m = 0.5 * k, 0.5 * x, 0.5 * s
    if s == 0.0:
        return specfun.log_reg_inc_gamma_P(a, y)
    win = _window(k, s, *_cdf_range(a, m, y), False)
    j0, j1 = win.j0, win.j1
    top = specfun.log_reg_inc_gamma_P(a + j1, y)
    total, v = _log_mixture(win, y, top)
    rem = (win.ln_w1 + math.log(m * y / ((j1 + 1.0) * (a + j1 + 1.0))) + top
           - math.log1p(-m * y / ((j1 + 2.0) * (a + j1 + 2.0))))
    if j0:  # v[1] = ln w_{j0} t_{j0}
        ratio = (a + j0 - 1.0) * (j0 - 1.0) / (m * y)
        below = 1.0 / (1.0 - y / (a + j0 + 1.0)) + (a + j0) / (y * (1.0 - ratio))
        rem = float(np.logaddexp(rem, v[1] + math.log(j0 / m) - math.log1p(-(j0 - 1.0) / m) + math.log(below)))
    return _checked(total, rem, tol, win, f"k={k}, s={s}, x={x}")


def ncchi2_sf_log(k: float, s: float, x: float, tol: float = 1e-12) -> float:
    """ln of the non-central chi-squared survival function Pr{X > x}.

    One incomplete-gamma evaluation, ln Q(a + j0, y) at the bottom of the
    window j in [j0, J] (see ``_sf_range``), and one log-sum-exp of the
    swapped sum Q_{j0} T_{j0} + sum_{j0<=i<J} t_i T_{i+1}.  Q rises in j,
    so the remainders are at most Q(a + j0, y) (below j0) and 1 (above J)
    times the Poisson mass there: sum_{j>J} w_j <= w_{J+1}/(1 - m/(J + 2))
    and sum_{j<j0} w_j <= w_{j0-1}/(1 - (j0 - 1)/m).  Never formed as
    1 - CDF, so it keeps its relative accuracy in the far right tail.

    Far out in the right tail the summand peaks above the window, and Q <= 1
    bounds the remainder above J too loosely (at k = 243, s = 486, x = 5336,
    ln sf is near -1165 and the Poisson mass above J = 449 near e^-73);
    where the check fails, the sum is taken again over a window one width
    taller, at most ``_EXTENSIONS`` times (three there, up to J = 1691).
    """
    if k <= 0.0 or s < 0.0 or x < 0.0:
        raise DomainError("ncchi2_sf_log needs k > 0, s >= 0, x >= 0")
    if x == 0.0:
        return 0.0
    a, y, m = 0.5 * k, 0.5 * x, 0.5 * s
    if s == 0.0:
        return specfun.log_reg_inc_gamma_Q(a, y)
    j0 = _sf_range(m, 0)[0]
    bottom = specfun.log_reg_inc_gamma_Q(a + j0, y)
    for widths in range(_EXTENSIONS + 1):
        win = _window(k, s, *_sf_range(m, widths), True)
        total = _log_mixture(win, y, bottom)[0]
        rem = win.ln_w1 + math.log(m / (win.j1 + 1.0)) - math.log1p(-m / (win.j1 + 2.0))
        if j0:
            rem = float(np.logaddexp(rem, win.ln_w0 + math.log(j0 / m) - math.log1p(-(j0 - 1.0) / m) + bottom))
        if rem <= math.log(tol) + total or widths == _EXTENSIONS:
            return _checked(total, rem, tol, win, f"k={k}, s={s}, x={x}")


def ncchi2_cdf_series(k: float, s: float, x: float, tol: float = 1e-12) -> float:
    """Non-central chi-squared CDF as the Poisson-weighted central-chi^2
    series (probability scale)."""
    return math.exp(ncchi2_cdf_log(k, s, x, tol))


def oracle_cdf(dist, x: float) -> float:
    """Closed-form CDF for the catalog distributions."""
    p = dist.params
    if dist.name == "gaussian":
        return gaussian_cdf(p["mu"], p["sigma"], x)
    if dist.name == "beta_prime":
        return beta_prime_cdf(p["alpha"], p["beta"], x)
    if dist.name == "noncentral_chi2":
        return ncchi2_cdf_series(p["k"], p["s"], x)
    raise DomainError(f"no closed CDF for {dist.name!r}")


def oracle_tail(dist, x: float) -> float:
    """Closed-form right tail for the catalog distributions."""
    p = dist.params
    if dist.name == "gaussian":
        return gaussian_tail(p["mu"], p["sigma"], x)
    if dist.name == "beta_prime":  # I_{1/(1+x)}(beta, alpha): 1 - CDF loses the far tail
        return 1.0 if x <= 0.0 else specfun.reg_inc_beta(1.0 / (1.0 + x), p["beta"], p["alpha"])
    if dist.name == "noncentral_chi2":
        return math.exp(ncchi2_sf_log(p["k"], p["s"], x))
    raise DomainError(f"no closed tail for {dist.name!r}")


def normalization(dist, tol: float = 1e-10) -> float:
    """Integral of the PDF over the support (should be 1)."""
    support = dist.support
    if math.isfinite(support.lower) and math.isfinite(support.upper):
        mid = 0.5 * (support.lower + support.upper)
    elif math.isfinite(support.lower):
        mid = support.lower + 1.0
    elif math.isfinite(support.upper):
        mid = support.upper - 1.0
    else:
        mid = 0.0
    from .engine import TailSide

    left = tail_by_quadrature(dist, mid, TailSide.LEFT, tol)
    right = tail_by_quadrature(dist, mid, TailSide.RIGHT, tol)
    return left.value + right.value
