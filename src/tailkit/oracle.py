"""Ground truth at desk scale.

Adaptive quadrature of any distribution's PDF plus closed reference CDFs
(erfc-based Gaussian, incomplete-beta beta prime, and both tails of the
non-central chi-squared as Poisson mixtures of incomplete gammas, summed
by recurrence).  Everything the acceptance tests compare bounds against
comes from here, through code paths independent of the jet engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
# ones: with a = k/2 and y = x/2,
#
#   F(x) = sum_j Pois(j; s/2) P(a + j, y),   1 - F(x) = sum_j Pois(j; s/2) Q(a + j, y).
#
# Across the mixture index the regularized incomplete gammas obey
#
#   Q(b + 1, y) = Q(b, y) + t_b,   P(b, y) = P(b + 1, y) + t_b,
#   t_b = y^b e^{-y} / Gamma(b + 1)
#
# (Ding 1992, AS 275; Benton & Krishnamoorthy 2003), so one incomplete-gamma
# evaluation at one end of the index window gives the whole window: Q
# upward from the bottom, P downward from the top.  Every step adds a
# positive term, so nothing cancels; the sums are accumulated in log space
# and each ln t_b and Poisson weight takes its own lgamma.


@lru_cache(maxsize=8)
def _window(k: float, s: float, from_zero: bool) -> tuple:
    """The mixture index window and what over it does not depend on x.

    Returns m = s/2, the first index j0, and over j = j0 .. J the orders
    b = k/2 + j, ln Pois(j; m) and lgamma(b + 1).  The window is
    [max(0, m - W), m + W] (from 0 for the CDF), W = 40 sqrt(m + 1) + 50:
    about 40 standard deviations of the Poisson either side of its mean,
    plus a margin for small m.  It is not centred on the summand's peak,
    which in the deep right tail sits above the Poisson mean; the
    remainder check in ``_log_mixture`` catches a window that misses it.
    Cached, so the repeated tails of one root solve share it."""
    m = 0.5 * s
    w = 40.0 * math.sqrt(m + 1.0) + 50.0
    j0 = 0 if from_zero else max(0, int(m - w))
    j = np.arange(j0, int(m + w) + 1, dtype=float)
    b = 0.5 * k + j
    ln_w = j * math.log(m) - m - _lgamma(j + 1.0)
    lg = _lgamma(b + 1.0)
    for arr in (b, ln_w, lg):
        arr.flags.writeable = False
    return m, j0, b, ln_w, lg


def _lgamma(v: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.lgamma, v.tolist()), float, len(v))


def _log_mixture(
    m: float, j0: int, ln_w: np.ndarray, ln_g: np.ndarray, ln_g_above: float, tol: float, where: str
) -> float:
    """ln sum_j Pois(j; m) g_j over the window j0 .. J, from ln Pois and ln g.

    Outside the window the sum is bounded through the Poisson tails,
    sum_{j>J} w_j <= w_{J+1} / (1 - m/(J+2)) and
    sum_{j<j0} w_j <= w_{j0-1} / (1 - (j0-1)/m), times the largest g there:
    ``ln_g_above`` above the window and g_{j0} below it (g rises in j
    wherever j0 > 0 is used).  Both remainders must fall below tol
    relative to the total."""
    j1 = j0 + len(ln_g) - 1
    v = ln_w + ln_g
    top = float(v.max())
    total = top + math.log(float(np.exp(v - top).sum()))
    rem = float(ln_w[-1]) + math.log(m / (j1 + 1)) - math.log1p(-m / (j1 + 2)) + ln_g_above
    if j0 > 0:
        below = float(ln_w[0] + ln_g[0]) + math.log(j0 / m) - math.log1p(-(j0 - 1) / m)
        rem = float(np.logaddexp(rem, below))
    if not rem <= math.log(tol) + total:
        raise ToleranceNotMet(f"series remainder above tol {tol:.3e} outside j in [{j0}, {j1}] ({where})")
    return min(0.0, total)


def ncchi2_cdf_log(k: float, s: float, x: float, tol: float = 1e-12) -> float:
    """ln of the non-central chi-squared CDF.

    One incomplete-gamma evaluation, ln P(a + J, y) at the top of the
    window j in [0, J] (see ``_window``), then the downward recurrence
    ln P(b, y) = logaddexp(ln P(b + 1, y), ln t_b) for every lower index,
    and a log-sum-exp of Poisson weights plus ln P.  P falls in j, so the
    remainder above J is at most P(a + J, y) times the Poisson mass there.

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
    a, y = 0.5 * k, 0.5 * x
    if s == 0.0:
        return specfun.log_reg_inc_gamma_P(a, y)
    m, _, b, ln_w, lg = _window(k, s, True)
    top = specfun.log_reg_inc_gamma_P(b[-1], y)
    ln_t = b[-2::-1] * math.log(y) - y - lg[-2::-1]  # from the top down
    ln_p = np.logaddexp.accumulate(np.concatenate(([top], ln_t)))[::-1]
    return _log_mixture(m, 0, ln_w, ln_p, top, tol, f"k={k}, s={s}, x={x}")


def ncchi2_sf_log(k: float, s: float, x: float, tol: float = 1e-12) -> float:
    """ln of the non-central chi-squared survival function Pr{X > x}.

    One incomplete-gamma evaluation, ln Q(a + j0, y) at the bottom of the
    window j in [j0, J] (see ``_window``), then the upward recurrence
    ln Q(b + 1, y) = logaddexp(ln Q(b, y), ln t_b), and a log-sum-exp of
    Poisson weights plus ln Q.  Q rises in j, so the remainder below j0 is
    at most Q(a + j0, y) times the Poisson mass there, and the one above J
    at most the Poisson mass there.  Never formed as 1 - CDF, so it keeps
    its relative accuracy in the far right tail.

    Far out in the right tail the sum is much smaller than the Poisson
    mass above J, so Q <= 1 bounds the remainder there too loosely, and
    bounding Q by Q(a + j1, y) up to some j1 does not close the gap: the
    weights above j1 fall below tol of the sum only where Q(a + j1, y)
    has grown far past Q(a + J, y) (by e^322 at k = 243, s = 486,
    x = 5336, where j1 = 1338 and J = 917).  Where the remainder check
    fails, the recurrence is carried on above the window, a window's
    width at a time (at most ``_EXTENSIONS`` times), until the Poisson
    mass left above is below tol of the sum.
    """
    if k <= 0.0 or s < 0.0 or x < 0.0:
        raise DomainError("ncchi2_sf_log needs k > 0, s >= 0, x >= 0")
    if x == 0.0:
        return 0.0
    a, y = 0.5 * k, 0.5 * x
    if s == 0.0:
        return specfun.log_reg_inc_gamma_Q(a, y)
    m, j0, b, ln_w, lg = _window(k, s, False)
    ln_y = math.log(y)
    bottom = specfun.log_reg_inc_gamma_Q(b[0], y)
    ln_t = b[:-1] * ln_y - y - lg[:-1]
    ln_q = np.logaddexp.accumulate(np.concatenate(([bottom], ln_t)))
    where = f"k={k}, s={s}, x={x}"
    width = len(b)
    for _ in range(_EXTENSIONS):
        try:
            return _log_mixture(m, j0, ln_w, ln_q, 0.0, tol, where)
        except ToleranceNotMet:
            pass
        j = np.arange(j0 + len(ln_q), j0 + len(ln_q) + width, dtype=float)
        b_up = np.concatenate(([0.5 * k + j[0] - 1.0], 0.5 * k + j[:-1]))  # the orders t_b steps from
        ln_t = b_up * ln_y - y - _lgamma(b_up + 1.0)
        ln_q = np.concatenate((ln_q, np.logaddexp.accumulate(np.concatenate(([ln_q[-1]], ln_t)))[1:]))
        ln_w = np.concatenate((ln_w, j * math.log(m) - m - _lgamma(j + 1.0)))
    return _log_mixture(m, j0, ln_w, ln_q, 0.0, tol, where)


def ncchi2_cdf_series(k: float, s: float, x: float, tol: float = 1e-12) -> float:
    """Non-central chi-squared CDF as the Poisson-weighted central-chi^2
    series (probability scale)."""
    logv = ncchi2_cdf_log(k, s, x, tol)
    return math.exp(logv) if math.isfinite(logv) else 0.0


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
    if dist.name == "noncentral_chi2":
        return math.exp(ncchi2_sf_log(p["k"], p["s"], x))
    return 1.0 - oracle_cdf(dist, x)


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
