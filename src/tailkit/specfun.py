"""Special-function kernel.

Scalar pieces: erfc and the inverse Gaussian Q function, regularized
incomplete gamma/beta (series + continued fraction, Cephes-style),
principal-branch Lambert W, and exponentially scaled modified Bessel
I_nu evaluation for the capacity bounds.

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
crossover.  Ratios I_nu/I_{nu-1} in the expansion regime come from the
companion derivative expansion evaluated at a single order, which avoids
the cancellation of subtracting two large exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels_py as _kp
from . import jet as J
from .errors import DomainError, ToleranceNotMet
from .jet import Jet

_SQRT2 = math.sqrt(2.0)
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
    """x such that Q(x) = eps, to 1e-10 relative in Q.

    Bisection brackets the root, Newton (on log Q, stable for tiny eps)
    polishes it.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError("gaussian_q_inverse needs eps in (0, 1)")
    if eps == 0.5:
        return 0.0
    if eps > 0.5:
        return -gaussian_q_inverse(1.0 - eps)

    target = math.log(eps)
    lo, hi = 0.0, math.sqrt(-2.0 * target) + 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if math.log(gaussian_q(mid)) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-6:
            break
    x = 0.5 * (lo + hi)
    for _ in range(8):
        q = gaussian_q(x)
        phi = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        dx = (math.log(q) - target) * q / phi
        x += dx
        if abs(dx) < 1e-15 * (1.0 + abs(x)):
            break
    return x


# ---------------------------------------------------------------------------
# Regularized incomplete gamma and beta


def reg_inc_gamma_P(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x), 1e-12 relative target."""
    if a <= 0.0 or not math.isfinite(a):
        raise DomainError("reg_inc_gamma_P needs a > 0")
    if x < 0.0 or not math.isfinite(x):
        raise DomainError("reg_inc_gamma_P needs x >= 0")
    if x == 0.0:
        return 0.0
    lead = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        # series converges fast on this side
        return min(1.0, max(0.0, _gamma_p_series_h(a, x) * math.exp(lead)))
    return min(1.0, max(0.0, 1.0 - math.exp(lead) * _gamma_q_cf_h(a, x)))


def log_reg_inc_gamma_P(a: float, x: float) -> float:
    """ln P(a, x), usable where P underflows doubles (deep left tails of
    the gamma family, e.g. false-alarm CDFs at large blocklength)."""
    if a <= 0.0 or x < 0.0:
        raise DomainError("log_reg_inc_gamma_P needs a > 0, x >= 0")
    if x == 0.0:
        return -math.inf
    lead = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        return lead + math.log(_gamma_p_series_h(a, x))
    ln_q = lead + math.log(_gamma_q_cf_h(a, x))
    if ln_q >= 0.0:
        return -math.inf
    return math.log1p(-math.exp(ln_q))


def log_reg_inc_gamma_Q(a: float, x: float) -> float:
    """ln Q(a, x) = ln(1 - P(a, x)), usable where Q underflows doubles
    (deep right tails).  For x >= a + 1 it comes straight from the
    continued fraction; below, Q >= Q(a, a + 1) and 1 - P from the series
    loses little."""
    if a <= 0.0 or x < 0.0:
        raise DomainError("log_reg_inc_gamma_Q needs a > 0, x >= 0")
    if x == 0.0:
        return 0.0
    lead = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        return math.log1p(-min(1.0, math.exp(lead) * _gamma_p_series_h(a, x)))
    return min(0.0, lead + math.log(_gamma_q_cf_h(a, x)))


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
    """Principal branch of w e^w = x for x >= -1/e, Halley-refined to
    1e-12 relative residual."""
    if not math.isfinite(x):
        raise DomainError("lambert_w0 needs a finite argument")
    if x < -_INV_E - 1e-15:
        raise DomainError("lambert_w0 needs x >= -1/e")
    if x == 0.0:
        return 0.0
    if x < -_INV_E:
        x = -_INV_E

    if x < -0.2:
        # branch-point series in p = sqrt(2(ex + 1))
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    elif x < math.e:
        w = x / (1.0 + x)  # crude but inside the attraction basin
    else:
        lx = math.log(x)
        w = lx - math.log(lx)

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


# ---------------------------------------------------------------------------
# Scaled modified Bessel I


@dataclass(frozen=True)
class ScaledBesselPair:
    """ln(e^{-u} I_{nu-1}(u)) together with the ratio I_nu(u)/I_{nu-1}(u)."""

    log_scaled_lower: float
    ratio: float
    nu: float
    u: float


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
_DEBYE_U = [tuple(float(c) for c in p) for p in _gen_debye_u(_DEBYE_TERMS)]
_DEBYE_V = [tuple(float(c) for c in p) for p in _gen_debye_v(_gen_debye_u(_DEBYE_TERMS))]


def _polyval(coeffs: tuple[float, ...], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# Above this argument the series cost explodes (terms grow until
# j ~ u/ something); the uniform expansion is already at ~1e-14 there.
_SERIES_U_CAP = 400.0


def _series_regime(nu: float, u):
    """Whether the series serves u: a bool at a float, a mask on an array."""
    return (u < max(30.0, 0.5 * nu)) & (u <= _SERIES_U_CAP)


def _series_log_scaled(mu: float, u: np.ndarray) -> np.ndarray:
    # ln(e^{-u} I_mu(u)) by the ascending series at every element of u (a
    # float goes in as a one-point array), renormalized so the partial sum
    # never overflows. The loop runs until the slowest element stops, and
    # an element that has stopped gains nothing from the extra terms (each
    # is below half an ulp of its total), so each result has the bits it
    # gets on its own
    q = 0.25 * u * u
    term = np.ones_like(u)
    total = np.ones_like(u)
    log_scale = np.zeros_like(u)
    j = 0
    while True:
        j += 1
        term = term * (q / (j * (mu + j)))
        total = total + term
        big = total > 1e250
        if big.any():
            total = np.where(big, total * 1e-250, total)
            term = np.where(big, term * 1e-250, term)
            log_scale = np.where(big, log_scale + 250.0 * math.log(10.0), log_scale)
        if (term < total * 1e-18).all():
            break
        if j > 50000:
            raise ToleranceNotMet("Bessel series stalled")
    return (
        -u + mu * _kp.each(math.log, 0.5 * u) - math.lgamma(mu + 1.0)
        + _kp.each(math.log, total) + log_scale
    )


def _uniform_log_scaled(mu: float, u: float) -> float:
    # ln(e^{-u} I_mu(u)) from the uniform large-order expansion, mu >= 1
    z = u / mu
    w = math.sqrt(1.0 + z * z)
    p = 1.0 / w
    s = 0.0
    for k in range(_DEBYE_TERMS, 0, -1):
        s = (s + _polyval(_DEBYE_U[k], p)) / mu
    s += 1.0
    # mu*eta(z) - u computed as mu*(1/(w+z) - log((1+w)/z)) to avoid the
    # w - z cancellation at large z
    return (
        mu * (1.0 / (w + z) - math.log((1.0 + w) / z))
        - 0.5 * math.log(2.0 * math.pi * mu)
        - 0.25 * math.log(1.0 + z * z)
        + math.log(s)
    )


def _uniform_ratio(nu: float, u: float) -> float:
    # I_nu(u)/I_{nu-1}(u) via I_{nu-1} = I_nu' + (nu/u) I_nu and the
    # companion expansions for I_nu and I_nu' at the single order nu
    z = u / nu
    w = math.sqrt(1.0 + z * z)
    p = 1.0 / w
    su = 0.0
    sv = 0.0
    for k in range(_DEBYE_TERMS, 0, -1):
        su = (su + _polyval(_DEBYE_U[k], p)) / nu
        sv = (sv + _polyval(_DEBYE_V[k], p)) / nu
    su += 1.0
    sv += 1.0
    return z / (1.0 + w * sv / su)


def log_bessel_i_scaled(nu: float, u: float) -> ScaledBesselPair:
    """ln(e^{-u} I_{nu-1}(u)) and I_nu(u)/I_{nu-1}(u) for nu >= 1, u > 0."""
    if nu < 1.0:
        raise DomainError("log_bessel_i_scaled needs nu >= 1")
    if u <= 0.0 or not math.isfinite(u):
        raise DomainError("log_bessel_i_scaled needs u > 0")
    if _series_regime(nu, u):
        point = np.array([float(u)])
        lsl = _series_log_scaled(nu - 1.0, point).item()
        ratio = math.exp(_series_log_scaled(nu, point).item() - lsl)
    else:
        ratio = _uniform_ratio(nu, u)
        if nu - 1.0 >= 1.0:
            lsl = _uniform_log_scaled(nu - 1.0, u)
        else:
            # order below 1: evaluate at order nu and peel the ratio off
            lsl = _uniform_log_scaled(nu, u) - math.log(ratio)
    return ScaledBesselPair(lsl, ratio, nu, u)


def _scaled_seed(nu: float, u0) -> tuple:
    """ln(e^{-u}I_{nu-1}(u)) and ln(e^{-u}I_nu(u)) at u0: a float, or an
    array, NaN where the scalar call raises DomainError (u <= 0, nu < 1,
    or an undefined point). On an array the series regime runs
    vectorised, the uniform one point by point."""
    if not isinstance(u0, np.ndarray):
        pair = log_bessel_i_scaled(nu, u0)
        return pair.log_scaled_lower, pair.log_scaled_lower + math.log(pair.ratio)
    lower = np.full(u0.shape, math.nan)
    upper = np.full(u0.shape, math.nan)
    if nu < 1.0:
        return lower, upper
    ok = (u0 > 0.0) & np.isfinite(u0)
    series = ok & _series_regime(nu, u0)
    if series.any():
        u = u0[series]
        lsl = _series_log_scaled(nu - 1.0, u)
        ratio = _kp.each(math.exp, _series_log_scaled(nu, u) - lsl)
        lower[series] = lsl
        upper[series] = lsl + _kp.each(math.log, ratio)
    for i in np.flatnonzero(ok & ~series).tolist():
        pair = log_bessel_i_scaled(nu, float(u0[i]))
        lower[i] = pair.log_scaled_lower
        upper[i] = pair.log_scaled_lower + math.log(pair.ratio)
    return lower, upper


def _log_bessel_ode_coeffs(nu: float, u_coeffs: tuple) -> tuple[list, list]:
    """Coefficients of ln(e^{-u}I_{nu-1}(u(x))) and ln(e^{-u}I_nu(u(x))).

    Propagates A' = (e^{B-A} + (nu-1)/u - 1) u' and
               B' = (e^{A-B} - nu/u - 1) u'
    order by order; A, B come out one order below u only when u carries
    fewer coefficients than requested, otherwise same order as u. The
    coefficients are floats or grid arrays alike (see ``jet``).
    """
    n = len(u_coeffs) - 1  # target order
    lower, upper = _scaled_seed(nu, u_coeffs[0])
    a = [lower] + [0.0] * n
    b = [upper] + [0.0] * n
    if n == 0:
        return a, b
    inv_u = _kp.div((1.0,) + (0.0,) * n, u_coeffs)
    du = tuple((k + 1) * u_coeffs[k + 1] for k in range(n))  # order n-1

    def conv_at(p, q, m):
        # a plain left-to-right sum (builtin sum() of floats is compensated
        # from Python 3.12 on, which arrays would not match)
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

    This is the scale-robust form used wherever raw scaled values would
    underflow (blocklengths up to 10^7). ``u`` may be a grid jet; the
    points where u is undefined or non-positive come back NaN.
    """
    a, b = _log_bessel_ode_coeffs(nu, u.coeffs)
    return Jet(u.anchor, tuple(a)), Jet(u.anchor, tuple(b))


def bessel_i_jet(nu: float, u: Jet) -> tuple[Jet, Jet]:
    """Jets of the exponentially scaled pair (e^{-u}I_{nu-1}, e^{-u}I_nu)
    along u(x), with the common factor e^{-u} tracked once inside the
    propagated ODE system."""
    if u.coeffs[0] <= 0.0:
        raise DomainError("bessel_i_jet needs u > 0 at the anchor")
    la, lb = log_bessel_i_jet(nu, u)
    return J.exp(la), J.exp(lb)
