"""Special-function kernel.

Scalar pieces: erfc and the inverse Gaussian Q function, regularized
incomplete gamma/beta (series + continued fraction, Cephes-style),
principal-branch Lambert W, and exponentially scaled modified Bessel
I_nu evaluation, at every order nu > 0, for the non-central chi-squared
density and the capacity bounds.

All Bessel work is done on e^{-u} I_nu(u) in log form: the capacity
bounds multiply e^{-n(...)} against I(n...)^2, and for n ~ 10^6 the raw
values overflow catastrophically, so every product is assembled in log
space and only final bounds are exponentiated.

Two magnitude regimes: the power series for u < max(30, nu/2) (with a
cost cap, see _series_regime) and the uniform large-order expansion
otherwise.  The expansion coefficients are generated once at import from
their exact rational recurrence rather than hardcoded, up to the eighth
correction term; the effective expansion parameter is 1/sqrt(nu^2+u^2),
so eight terms keep the two regimes consistent to ~1e-12 at the
crossover.  The expansion is least accurate just above u = 30 at the
smallest orders: for nu in (0, 2) it is within 6e-13 of
ln(e^{-u} I_{nu-1}) and 3e-12 of the ratio there.  One expansion at the
single order nu, of I_nu and I_nu', gives both ln(e^{-u} I_nu) and the
ratio I_nu/I_{nu-1}, and ln(e^{-u} I_{nu-1}) is the first less the log of
the second; the series regime sums both orders in one loop.  Below nu = 1
the lower order nu - 1 is negative, and both forms hold there as well.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels_py as _kp
from . import rootfind
from .errors import DomainError, ToleranceNotMet
from .jet import Jet, jet_shift_derivative

_SQRT2 = math.sqrt(2.0)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LN_HALF = math.log(0.5)  # ln Q(0)
_INV_E = math.exp(-1.0)


# ---------------------------------------------------------------------------
# erfc / Gaussian Q


def erfc(x: float) -> float:
    """Complementary error function (delegates to the C library's erfc,
    which is good to ~1 ulp over the whole double range)."""
    if not math.isfinite(x):
        raise DomainError("erfc needs a finite argument")
    return math.erfc(x)


def gaussian_q(x: float) -> float:
    """Right tail of the standard normal, Q(x) = 0.5 erfc(x/sqrt(2))."""
    return 0.5 * erfc(x / _SQRT2)


def gaussian_q_inverse(eps: float) -> float:
    """x such that Q(x) = eps, to 1e-10 relative in Q where Q is a normal
    double.

    ``rootfind.illinois`` on ln Q(x) - ln eps over [0, sqrt(-2 ln eps)]:
    Q(x) <= e^{-x^2/2}/2, so at the right end ln Q lies at least ln 2
    below ln eps. Each value carries the slope of ln Q, g = -phi(x)/Q(x),
    and its curvature, g (-x - g), and the steps are Halley's from the
    right end. Where Q is subnormal its value carries neither, and where
    it underflows to 0 ln Q is -inf; the steps there are Illinois's,
    which bisect where ln Q is -inf.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError("gaussian_q_inverse needs eps in (0, 1)")
    if eps == 0.5:
        return 0.0
    if eps > 0.5:
        return -gaussian_q_inverse(1.0 - eps)

    target = math.log(eps)

    def excess(x: float) -> float:
        q = gaussian_q(x)
        if q < sys.float_info.min:  # 0, or subnormal: too few bits for a Newton step
            return (math.log(q) if q > 0.0 else -math.inf) - target
        ln_q = math.log(q)
        slope = -math.exp(-0.5 * x * x - _LN_SQRT_2PI - ln_q)
        return rootfind.sloped(ln_q - target, slope, slope * (-x - slope))

    hi = math.sqrt(-2.0 * target)
    f_hi = excess(hi)
    return rootfind.illinois(excess, (0.0, hi, _LN_HALF - target, f_hi), 0.0, start=(hi, f_hi))[0]


# ---------------------------------------------------------------------------
# Regularized incomplete gamma and beta


def reg_inc_gamma_P(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x), 1e-12 relative target."""
    return min(1.0, math.exp(_log_inc_gamma(a, x, False, "reg_inc_gamma_P")))


def log_reg_inc_gamma_P(a: float, x: float) -> float:
    """ln P(a, x), usable where P underflows doubles (deep left tails of
    the gamma family, e.g. false-alarm CDFs at large blocklength)."""
    return _log_inc_gamma(a, x, False, "log_reg_inc_gamma_P")


def log_reg_inc_gamma_Q(a: float, x: float) -> float:
    """ln Q(a, x) = ln(1 - P(a, x)), usable where Q underflows doubles
    (deep right tails)."""
    return _log_inc_gamma(a, x, True, "log_reg_inc_gamma_Q")


def _log_inc_gamma(a: float, x: float, upper: bool, name: str) -> float:
    """ln Q(a, x) if ``upper``, else ln P(a, x). Both are e^{a ln x - x -
    lgamma(a)} times a sum: the series gives P below x = a + 1, the
    continued fraction Q above. For x >= a + 1, ln Q comes straight from
    the fraction; below, 1 - P from the series loses little for a >= 0.1,
    but P nears 1 as a falls (1 - P is 2.6e-13 off in ln Q at a = 0.01,
    x = 1), and ln Q comes from ``_log_gamma_q_small_a`` instead."""
    if a <= 0.0 or not math.isfinite(a):
        raise DomainError(f"{name} needs a > 0")
    if x < 0.0 or not math.isfinite(x):
        raise DomainError(f"{name} needs x >= 0")
    if x == 0.0:
        return 0.0 if upper else -math.inf
    if upper and a < 0.1 and x < a + 1.0:
        return _log_gamma_q_small_a(a, x)
    lead = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        h = _gamma_p_series_h(a, x)
        return math.log1p(-min(1.0, math.exp(lead) * h)) if upper else lead + math.log(h)
    ln_q = lead + math.log(_gamma_q_cf_h(a, x))
    if upper:
        return min(0.0, ln_q)
    return -math.inf if ln_q >= 0.0 else math.log1p(-math.exp(ln_q))


#: -Euler's gamma, then (-1)^k zeta(k) / k for k = 2..12: the Taylor
#: coefficients of lgamma(1 + a) about a = 0.
_LGAMMA1P = (-0.5772156649015329,) + tuple(
    (-1) ** k * z / k
    for k, z in enumerate(
        (1.6449340668482264, 1.2020569031595942, 1.0823232337111381, 1.03692775514337,
         1.0173430619844492, 1.008349277381923, 1.0040773561979444, 1.0020083928260821,
         1.000994575127818, 1.0004941886041194, 1.000246086553308),
        start=2,
    )
)


def _lgamma1p(a: float) -> float:
    """lgamma(1 + a) for 0 < a < 0.1. Below a = 0.05 by its Taylor series
    (the first term left out is below 4e-17 of the sum), which keeps the
    digits of a that forming 1 + a would round away."""
    if a >= 0.05:
        return math.lgamma(1.0 + a)
    acc = 0.0
    for c in reversed(_LGAMMA1P):
        acc = acc * a + c
    return acc * a


def _log_gamma_q_small_a(a: float, x: float) -> float:
    """ln Q(a, x) for a < 0.1 and x < a + 1, without forming 1 - P
    (DiDonato & Morris 1986, ACM TOMS 12(4), for small a):
    P = x^a / Gamma(1 + a) (1 - j) with j = -a sum_{n>=1} (-x)^n / ((a + n) n!),
    so Q = -expm1(l) + e^l j, l = a ln x - lgamma(1 + a). As a -> 0 both
    terms are O(a) and Q -> a E1(x); below x = 1.1 they cancel by at most
    a factor of about 5, and the alternating series by less."""
    term, total, n = 1.0, 0.0, 0  # total = -j / a
    while True:
        n += 1
        term *= -x / n
        t = term / (a + n)
        total += t
        if abs(t) <= 1e-17 * abs(total):
            break
    l = a * math.log(x) - _lgamma1p(a)
    return math.log(-math.expm1(l) - math.exp(l) * a * total)


def _gamma_p_series_h(a: float, x: float) -> float:
    # power series for P(a, x); returns the sum h with
    # P = e^{a ln x - x - lgamma(a)} h
    term = 1.0 / a
    total = term
    n = 0
    while True:
        n += 1
        term *= x / (a + n)
        total += term
        if term < total * 1e-17:
            return total
        if n > 100000:
            raise ToleranceNotMet("incomplete gamma series stalled")


def _gamma_q_cf_h(a: float, x: float) -> float:
    # modified Lentz on the standard continued fraction for Q(a, x);
    # returns the fraction h with Q = e^{a ln x - x - lgamma(a)} h
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ToleranceNotMet("incomplete gamma continued fraction stalled")


def log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b), 1e-12 relative target."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError("reg_inc_beta needs a, b > 0")
    if not 0.0 <= x <= 1.0:
        raise DomainError("reg_inc_beta needs x in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    lnbt = a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    if x < (a + 1.0) / (a + b + 2.0):
        return min(1.0, max(0.0, math.exp(lnbt) * _beta_cf(a, b, x) / a))
    return min(1.0, max(0.0, 1.0 - math.exp(lnbt) * _beta_cf(b, a, 1.0 - x) / b))


def _beta_cf(a: float, b: float, x: float) -> float:
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 10000):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ToleranceNotMet("incomplete beta continued fraction stalled")


# ---------------------------------------------------------------------------
# Lambert W, principal branch


def lambert_w0(x: float) -> float:
    """Principal branch of w e^w = x for x >= -1/e: below x = e,
    Halley-refined to 1e-12 relative residual; from x = e on,
    ``lambert_w0_exp(ln x)``."""
    if not math.isfinite(x):
        raise DomainError("lambert_w0 needs a finite argument")
    if x < -_INV_E - 1e-15:
        raise DomainError("lambert_w0 needs x >= -1/e")
    if x == 0.0:
        return 0.0
    if x < -_INV_E:
        x = -_INV_E

    if x >= math.e:
        return lambert_w0_exp(math.log(x))
    if x < -0.2:
        # branch-point series in p = sqrt(2(ex + 1))
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    else:
        w = x / (1.0 + x)  # crude but inside the attraction basin

    for _ in range(60):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        if wp1 == 0.0:
            break
        dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= dw
        if abs(dw) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


def lambert_w0_exp(log_x: float) -> float:
    """W0(e^log_x), also where e^log_x overflows: from log_x = 1 on, Newton
    on w + ln w = log_x from w = log_x - ln log_x to 1e-15 relative step;
    below it ``lambert_w0(e^log_x)``."""
    if not math.isfinite(log_x):
        raise DomainError("lambert_w0_exp needs a finite argument")
    if log_x < 1.0:
        return lambert_w0(math.exp(log_x))
    w = log_x - math.log(log_x)
    for _ in range(60):
        dw = (w + math.log(w) - log_x) * w / (w + 1.0)
        w -= dw
        if abs(dw) <= 1e-15 * w:
            break
    return w


# ---------------------------------------------------------------------------
# Scaled modified Bessel I


@dataclass(frozen=True)
class ScaledBesselPair:
    """ln(e^{-u} I_{nu-1}(u)) together with the ratio I_nu(u)/I_{nu-1}(u)."""

    log_scaled_lower: float
    ratio: float


def _gen_debye_u(kmax: int) -> list[list[Fraction]]:
    # U_0 = 1; U_{k+1}(p) = p^2(1-p^2)/2 U_k'(p) + (1/8) int_0^p (1-5t^2) U_k dt
    polys = [[Fraction(1)]]
    for _ in range(kmax):
        cur = polys[-1]
        deriv = [Fraction(j) * cur[j] for j in range(1, len(cur))]
        out = [Fraction(0)] * (len(cur) + 4)
        for j, c in enumerate(deriv):
            out[j + 2] += c / 2
            out[j + 4] -= c / 2
        prod = [Fraction(0)] * (len(cur) + 2)
        for j, c in enumerate(cur):
            prod[j] += c
            prod[j + 2] -= 5 * c
        for j, c in enumerate(prod):
            out[j + 1] += c / Fraction(8 * (j + 1))
        while out and out[-1] == 0:
            out.pop()
        polys.append(out)
    return polys


def _gen_debye_v(upolys: list[list[Fraction]]) -> list[list[Fraction]]:
    # V_0 = 1; V_k = U_k - p(1-p^2)(U_{k-1}/2 + p U_{k-1}')
    polys = [[Fraction(1)]]
    for k in range(1, len(upolys)):
        prev = upolys[k - 1]
        deriv = [Fraction(j) * prev[j] for j in range(1, len(prev))]
        out = [Fraction(0)] * (max(len(upolys[k]), len(prev) + 3, len(deriv) + 4) + 1)
        for j, c in enumerate(upolys[k]):
            out[j] += c
        for j, c in enumerate(prev):
            out[j + 1] -= c / 2
            out[j + 3] += c / 2
        for j, c in enumerate(deriv):
            out[j + 2] -= c
            out[j + 4] += c
        while out and out[-1] == 0:
            out.pop()
        polys.append(out)
    return polys


_DEBYE_TERMS = 8
_DEBYE_U = _gen_debye_u(_DEBYE_TERMS)
_DEBYE_V = _gen_debye_v(_DEBYE_U)
# U_k and V_k are p^k times polynomials in p^2 (nonzero coefficients only at
# p^k, p^{k+2}, ..., p^{3k}): per k from 8 down to 0, the two polynomials'
# coefficients paired, highest power first, the leading pair apart
_DEBYE_ROWS = tuple((row[0], row[1:]) for row in (
    tuple((float(_DEBYE_U[k][j]), float(_DEBYE_V[k][j])) for j in range(3 * k, k - 1, -2))
    for k in range(_DEBYE_TERMS, -1, -1)))


# Above this argument the series cost explodes (terms grow until
# j ~ u/ something); the uniform expansion is already at ~1e-14 there.
_SERIES_U_CAP = 400.0


def _series_regime(nu: float, u):
    """Whether the series serves u: a bool at a float, a mask on an array."""
    return (u < max(30.0, 0.5 * nu)) & (u <= _SERIES_U_CAP)


def _series_pair(nu: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # ln(e^{-u} I_mu(u)) at mu = nu - 1 and mu = nu by the ascending series
    # at every element of u (a float goes in as a one-point array), one
    # loop for both orders, row i of each array order i. The sum of
    # positive terms is Gamma(mu+1) (u/2)^{-mu} I_mu(u), and under
    # _series_regime it stays below e^49, far from overflow: it is at most
    # I_0(u) < e^30 for u < 30, and about e^{u/8} where u < nu/2, up to the
    # u cap; its largest value, ln = 48.6, is at nu just above 800, u = 400.
    # The loop runs until the slowest element of either order stops, and an
    # element that has stopped gains nothing from the extra terms (each is
    # below 1e-18 of its total, under half an ulp), so each result has the
    # bits it gets on its own
    mu = np.array([[nu - 1.0], [nu]])
    q = 0.25 * u * u
    term = np.ones((2,) + u.shape)
    total = np.ones((2,) + u.shape)
    j = 0
    while True:
        j += 1
        term = term * (q / (j * (mu + j)))
        total = total + term
        if (term < total * 1e-18).all():
            break
        if j > 50000:
            raise ToleranceNotMet("Bessel series stalled")
    lgam = np.array([[math.lgamma(m + 1.0)] for m in (nu - 1.0, nu)])
    lower, upper = -u + mu * np.log(0.5 * u) - lgam + np.log(total)
    return lower, upper


def _uniform_pair(nu: float, u):
    # ln(e^{-u} I_nu(u)) and I_nu(u)/I_{nu-1}(u), at a float or an array u,
    # from the expansions of I_nu and I_nu' at order nu (the ratio via
    # I_{nu-1} = I_nu' + (nu/u) I_nu): Horner in p/nu over k, in p^2 within
    z = u / nu
    w = _kp.each(math.sqrt, 1.0 + z * z)
    p = 1.0 / w
    q = p * p
    t = p / nu
    su = sv = 0.0
    for (au, av), rest in _DEBYE_ROWS:
        for a, b in rest:
            au = au * q + a
            av = av * q + b
        su = su * t + au
        sv = sv * t + av
    # nu*eta(z) - u computed as nu*(1/(w+z) - log((1+w)/z)) to avoid the
    # w - z cancellation at large z
    log_upper = (
        nu * (1.0 / (w + z) - _kp.each(math.log, (1.0 + w) / z))
        - 0.5 * math.log(2.0 * math.pi * nu)
        - 0.25 * _kp.each(math.log, 1.0 + z * z)
        + _kp.each(math.log, su)
    )
    return log_upper, z / (1.0 + w * sv / su)


def _scalar_pair(nu: float, u: float) -> tuple[float, float, float]:
    # ln(e^{-u} I_{nu-1}(u)), ln(e^{-u} I_nu(u)) and I_nu(u)/I_{nu-1}(u)
    # at a float u, from one evaluation in u's regime
    if not nu > 0.0:
        raise DomainError("log_bessel_i_scaled needs nu > 0")
    if u <= 0.0 or not math.isfinite(u):
        raise DomainError("log_bessel_i_scaled needs u > 0")
    if _series_regime(nu, u):
        lower, upper = (v.item() for v in _series_pair(nu, np.array([float(u)])))
        return lower, upper, math.exp(upper - lower)
    upper, ratio = _uniform_pair(nu, u)
    return upper - math.log(ratio), upper, ratio


def log_bessel_i_scaled(nu: float, u: float) -> ScaledBesselPair:
    """ln(e^{-u} I_{nu-1}(u)) and I_nu(u)/I_{nu-1}(u) for nu > 0, u > 0.

    Below nu = 1 the lower order nu - 1 is negative (DLMF 10.25.2 holds
    there, and I_{nu-1} > 0 for u > 0). The ratio lies in (0, 1) for
    nu >= 1/2; below nu = 1/2 it exceeds 1 at large u, where it nears
    1 + (1/2 - nu)/u (1.0025 at nu = 1/4, u = 100).
    """
    lower, _, ratio = _scalar_pair(nu, u)
    return ScaledBesselPair(lower, ratio)


def _scaled_seed(nu: float, u0) -> tuple:
    """ln(e^{-u}I_{nu-1}(u)) and ln(e^{-u}I_nu(u)) at u0: a float, or an
    array, NaN where the float call raises DomainError (u <= 0, nu <= 0,
    or an undefined point); on an array, each regime once on its points."""
    if not isinstance(u0, np.ndarray):
        return _scalar_pair(nu, u0)[:2]
    lower = np.full(u0.shape, math.nan)
    upper = np.full(u0.shape, math.nan)
    if not nu > 0.0:
        return lower, upper
    ok = (u0 > 0.0) & np.isfinite(u0)
    series = ok & _series_regime(nu, u0)
    uniform = ok & ~series
    if series.any():
        lower[series], upper[series] = _series_pair(nu, u0[series])
    if uniform.any():
        upper[uniform], ratio = _uniform_pair(nu, u0[uniform])
        lower[uniform] = upper[uniform] - np.log(ratio)
    return lower, upper


def _log_bessel_ode_coeffs(nu: float, u: Jet) -> tuple[list, list]:
    """Coefficients of ln(e^{-u}I_{nu-1}(u(x))) and ln(e^{-u}I_nu(u(x))).

    Propagates A' = (e^{B-A} + (nu-1)/u - 1) u' and
               B' = (e^{A-B} - nu/u - 1) u'
    order by order; A, B come out one order below u only when u carries
    fewer coefficients than requested, otherwise same order as u. The
    coefficients are floats or grid arrays alike (see ``jet``).
    """
    n = u.order  # target order
    lower, upper = _scaled_seed(nu, u.coeffs[0])
    a = [lower] + [0.0] * n
    b = [upper] + [0.0] * n
    if n == 0:
        return a, b
    inv_u = (1.0 / u).coeffs
    du = jet_shift_derivative(u).coeffs  # order n-1

    def conv_at(p, q, m):
        # a plain left-to-right sum: builtin sum() of floats is compensated
        # from Python 3.12 on, so it would give a float anchor other bits
        # from one Python version to the next
        acc = 0
        for j in range(m + 1):
            acc = acc + p[j] * q[m - j]
        return acc

    # B - A, A - B, their exp jets, and g1, g2 grow by one coefficient per
    # order: coefficient m of an exp jet reads coefficients <= m only
    ba = [b[0] - a[0]]
    ab = [-ba[0]]
    e_ba, e_ab = [_kp.each(math.exp, ba[0])], [_kp.each(math.exp, ab[0])]
    g1 = [e_ba[0] + (nu - 1.0) * inv_u[0] - 1.0]
    g2 = [e_ab[0] - nu * inv_u[0] - 1.0]
    for m in range(n):
        if m:
            ba.append(b[m] - a[m])
            ab.append(-ba[m])
            e_ba.append(_kp.exp_next(ba, e_ba))
            e_ab.append(_kp.exp_next(ab, e_ab))
            g1.append(e_ba[m] + (nu - 1.0) * inv_u[m])
            g2.append(e_ab[m] - nu * inv_u[m])
        a[m + 1] = conv_at(g1, du, m) / (m + 1)
        b[m + 1] = conv_at(g2, du, m) / (m + 1)
    return a, b


def log_bessel_i_jet(nu: float, u: Jet) -> tuple[Jet, Jet]:
    """Jets of ln(e^{-u}I_{nu-1}) and ln(e^{-u}I_nu) along u(x).

    The non-central chi-squared ln f reads its Bessel term from here, at
    nu = k/2 > 0: the log form stays finite where raw scaled values would
    underflow. ``u`` may be a grid jet; the points where u is undefined or
    non-positive come back NaN.
    """
    a, b = _log_bessel_ode_coeffs(nu, u)
    return Jet(u.anchor, tuple(a)), Jet(u.anchor, tuple(b))

