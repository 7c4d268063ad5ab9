"""Finite-blocklength AWGN converse bounds.

The converse rate at blocklength n, SNR Omega and error rate eps is
sandwiched between closed-form expressions built from the seed and
first-iterate bounds on two non-central chi-squared tails:

  missed detection: right tail of ncx2(n, n/Omega) at n*lambda,
  false alarm:      left tail of ncx2(n, n(1+Omega)/Omega)
                    at n*lambda/(1+Omega),

with lambda solved from "MD bound = eps".  Everything is assembled in
log space from exponentially scaled Bessel values; raw probabilities
like the false-alarm left tail underflow doubles already at n ~ 10^3,
while the log forms stay finite.  They are not exact: ln f sums terms of
size O(n) that cancel, so its rounding grows like n ulp (ln P1,MD is
within 2e-13 relative of mpmath at n = 10^4 and 4e-12 at 10^5), and the
lambda solves meet their 1e-10 log residual only up to n ~ 10^6;
``AwgnPoint`` carries the residual each solve reached.

Also provides the closed-form asymptotic rate (Lambert-W lambda), the
normal approximation, and the Debye-side quantities the asymptotics are
derived from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import oracle, rootfind, specfun
from .errors import BracketFailed, DomainError, OutOfValidity, ParamError, PoleEncountered

_LN2 = math.log(2.0)
_ULP = 2.0**-52


@dataclass(frozen=True)
class AwgnConfig:
    n: int
    omega: float
    eps: float

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 2):
            raise ParamError("blocklength n must be an integer >= 2")
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ParamError("omega must be finite and > 0")
        if not 0.0 < self.eps < 1.0:
            raise ParamError("eps must be in (0, 1)")


@dataclass(frozen=True)
class AwgnPoint:
    config: AwgnConfig
    lambda_p0: float
    lambda_p1: float
    lambda_asym: float
    r_lower: float
    r_upper: float
    r_asym: float
    r_na: float
    capacity: float
    #: |ln P0,MD(lambda_p0) - ln eps| and |ln P1,MD(lambda_p1) - ln eps| in
    #: tailkit's own evaluation, where the solves stopped: above 1e-10 the
    #: solve reached ulp width without meeting its target
    log_residual_p0: float
    log_residual_p1: float


def lambda0(omega: float) -> float:
    """Asymptotic threshold 1 + 1/Omega the solved lambda concentrates at."""
    return 1.0 + 1.0 / omega


def capacity(omega: float) -> float:
    """Infinite-blocklength capacity 0.5 log2(1 + Omega), bits/use."""
    return 0.5 * math.log2(1.0 + omega)


# ---------------------------------------------------------------------------
# Seed and first-iterate bounds on the two ncx2 tails, in log space


def _md_args(cfg: AwgnConfig, lam: float) -> tuple[float, float, float]:
    return float(cfg.n), cfg.n / cfg.omega, cfg.n * lam


def _fa_args(cfg: AwgnConfig, lam: float) -> tuple[float, float, float]:
    return float(cfg.n), cfg.n * (1.0 + cfg.omega) / cfg.omega, cfg.n * lam / (1.0 + cfg.omega)


def _seed_parts(k: float, s: float, x: float, right: bool) -> tuple:
    """What the seed and the first iterate share at x: u = sqrt(s x), the
    ratio r = I_nu(u)/I_{nu-1}(u) at nu = k/2, ln f, and the seed's
    denominator bracket = x - k + 2 - u r (right tail, g = f) or
    k - x + u r (left tail, g = x f)."""
    if x <= 0.0:
        raise OutOfValidity(f"argument x={x} not positive")
    u = math.sqrt(s * x)
    pair = specfun.log_bessel_i_scaled(0.5 * k, u)
    ur = u * pair.ratio
    bracket = (x - k + 2.0 - ur) if right else (k - x + ur)
    if bracket <= 0.0:
        raise OutOfValidity(f"seed denominator sign wrong at x={x} (bracket={bracket:.3e})")
    ln_f = (
        -_LN2
        - 0.5 * (x + s)
        + (0.25 * k - 0.5) * math.log(x / s)
        + u
        + pair.log_scaled_lower
    )
    return u, pair.ratio, ln_f, bracket


def _log_seed(k: float, s: float, x: float, right: bool) -> float:
    """ln of the ncx2 seed bound 2 x f(x) / bracket (see ``_seed_parts``)."""
    _, _, ln_f, bracket = _seed_parts(k, s, x, right)
    return _LN2 + math.log(x) + ln_f - math.log(bracket)


def _log_first_iterate(k: float, s: float, x: float, right: bool) -> float:
    """ln of the first iterate f * P0/P0' (sign per side): ln f at x minus
    ln of -+(ln P0)'.

    The derivative is closed-form in the ratio r = I_nu/I_{nu-1}, nu = k/2,
    u = sqrt(s x), du/dx = s/(2u).  From I'_{nu-1} = I_nu + ((nu-1)/u) I_{nu-1}
    and I'_nu = I_{nu-1} - (nu/u) I_nu (DLMF 10.29.2) r obeys the Riccati
    equation r' = 1 - (2 nu - 1) r/u - r^2 (Amos 1974), so
        (ln f)'  = -1/2 + (nu - 1)/x + r s/(2u),
        (u r)'   = (s/(2u)) (u - (2 nu - 2) r - u r^2),
        (ln P0)' = 1/x + (ln f)' - bracket'/bracket,
    with bracket' = 1 - (u r)' on the right tail and (u r)' - 1 on the left.
    """
    u, r, ln_f, bracket = _seed_parts(k, s, x, right)
    nu = 0.5 * k
    du = s / (2.0 * u)
    dur = du * (u - (2.0 * nu - 2.0) * r - u * r * r)
    dbracket = (1.0 - dur) if right else (dur - 1.0)
    dlp0 = nu / x - 0.5 + r * du - dbracket / bracket  # 1/x + (ln f)' - bracket'/bracket
    sign = -1.0 if right else 1.0
    if sign * dlp0 <= 0.0:
        raise PoleEncountered(f"P0' has the wrong sign at x={x}")
    return ln_f - math.log(sign * dlp0)


# ln of the seed bound P0 (above the tail) and the first iterate P1 (below
# it) on the missed-detection right tail at n*lambda (``_md``) and the
# false-alarm left tail at n*lambda/(1+Omega) (``_fa``)


def log_p0_md(cfg: AwgnConfig, lam: float) -> float:
    return _log_seed(*_md_args(cfg, lam), right=True)


def log_p1_md(cfg: AwgnConfig, lam: float) -> float:
    return _log_first_iterate(*_md_args(cfg, lam), right=True)


def log_p0_fa(cfg: AwgnConfig, lam: float) -> float:
    return _log_seed(*_fa_args(cfg, lam), right=False)


def log_p1_fa(cfg: AwgnConfig, lam: float) -> float:
    return _log_first_iterate(*_fa_args(cfg, lam), right=False)


# ---------------------------------------------------------------------------
# Asymptotics


def lambda_asymptotic(cfg: AwgnConfig) -> float:
    """Two-term large-n solution of the MD equation, via Lambert W."""
    w = specfun.lambert_w0(1.0 / (2.0 * math.pi * cfg.eps * cfg.eps))
    return lambda0(cfg.omega) + math.sqrt(2.0 * (cfg.omega + 2.0) / cfg.omega * w / cfg.n)


def rate_formula(omega: float, lam: float) -> float:
    """The closed-form rate expression at a given lambda; equals the
    capacity exactly at lam = lambda0 (both correction terms vanish)."""
    root = math.sqrt(1.0 + 4.0 * lam / omega)
    return (
        capacity(omega)
        - 0.5 * math.log2(2.0 * lam / (1.0 + root))
        + (1.0 + 1.0 / omega + lam / (1.0 + omega) - root) / (2.0 * _LN2)
    )


def rate_asymptotic(cfg: AwgnConfig) -> float:
    """Closed-form asymptotic converse rate, bits/use."""
    return rate_formula(cfg.omega, lambda_asymptotic(cfg))


def normal_approximation(cfg: AwgnConfig) -> float:
    """Gaussian-dispersion rate approximation, bits/use."""
    om, n = cfg.omega, cfg.n
    log2e = 1.0 / _LN2
    v = om * (om + 2.0) / (2.0 * (om + 1.0) ** 2) * log2e * log2e
    return (
        capacity(om)
        - math.sqrt(v / n) * specfun.gaussian_q_inverse(cfg.eps)
        + math.log2(n) / (2.0 * n)
    )


# ---------------------------------------------------------------------------
# Solving the missed-detection equation for lambda


class Lambda(float):
    """A solved lambda: the float itself, carrying ``log_residual``, the
    |ln bound - ln eps| the root finder reached there."""

    __slots__ = ("log_residual",)

    def __new__(cls, lam: float, log_residual: float):
        obj = super().__new__(cls, lam)
        obj.log_residual = log_residual
        return obj


def solve_lambda(cfg: AwgnConfig, which: str = "p0") -> Lambda:
    """lambda with bound(n*lambda) = eps, by ``_solve_md`` on the log
    bound. The bound blows up at the validity threshold just above
    lambda0 = 1 + 1/Omega, so the low endpoint always reaches a value
    above eps when n >= n0. The solve stops at a log residual of 1e-10
    or at ulp width; the result is a float that carries the residual
    reached (``Lambda.log_residual``).
    """
    if which not in ("p0", "p1"):
        raise DomainError("which must be 'p0' or 'p1'")
    log_bound = log_p0_md if which == "p0" else log_p1_md
    lam, resid = _solve_md(cfg, lambda lam: log_bound(cfg, lam), 1e-10, which)
    return Lambda(lam, abs(resid))


#: Truncation tolerance of the series oracle behind ``oracle_lambda`` and
#: ``oracle_converse``.
_ORACLE_TOL = 1e-11


def oracle_lambda(cfg: AwgnConfig) -> float:
    """Exact lambda: the root of ln Pr{ncx2(n, n/Omega) > n lambda} = ln eps,
    with the survival function from the series oracle, by ``_solve_md``
    until the bracket is at ulp width or the residual reaches rounding
    level."""
    n, s_md = cfg.n, cfg.n / cfg.omega
    f_tol = 4.0 * _ULP * abs(math.log(cfg.eps))
    return _solve_md(cfg, lambda lam: oracle.ncchi2_sf_log(n, s_md, n * lam, _ORACLE_TOL), f_tol, "oracle")[0]


#: Where ``_solve_md`` seeds its bracket, in units of corr = lambda_asym -
#: lambda0 above lambda0.  (lambda - lambda0)/corr spreads over 0.991-1.059
#: for n in [1e3, 1e8] at Omega in {0.5, 1, 5} and eps in {1e-3, 1e-5}
#: (the P0, P1 and oracle solves), and rises as n falls (1.19 at n = 100,
#: 2.37 at n = 2), where the high end doubles once or twice.
_BRACKET = (0.95, 1.15)


def _solve_md(cfg: AwgnConfig, log_tail, f_tol: float, which: str) -> tuple[float, float]:
    """The root of log_tail(lambda) = ln eps, with log_tail decreasing in
    lambda, and log_tail - ln eps there: Illinois (``rootfind.illinois``)
    to a residual of f_tol or ulp width. A lambda where log_tail raises
    OutOfValidity or PoleEncountered is undefined, and a step that lands
    there moves the low end. ``which`` names the solve in BracketFailed.

    The bracket is seeded from the asymptotic correction
    corr = lambda_asym - lambda0, at lambda0 + corr c for c in ``_BRACKET``,
    and pushed until it straddles ln eps: the low end moves up (x1.5 from
    lambda0) where the tail is undefined and toward lambda0 (x0.25) where
    it is below eps, and the high end doubles its distance from lambda0.
    """
    target = math.log(cfg.eps)
    lam_0 = lambda0(cfg.omega)
    corr = lambda_asymptotic(cfg) - lam_0

    def excess(lam: float) -> float | None:
        try:
            return log_tail(lam) - target
        except (OutOfValidity, PoleEncountered):
            return None

    lo = lam_0 + corr * _BRACKET[0]
    f_lo = excess(lo)
    for _ in range(200):
        if f_lo is not None and f_lo >= 0.0:
            break
        if f_lo is None:
            lo = lam_0 + (lo - lam_0) * 1.5  # below validity: move up
        else:
            lo = lam_0 + (lo - lam_0) * 0.25  # above target already: move toward the pole
        if lo - lam_0 > 1e12 * corr or lo - lam_0 < 1e-14 * lam_0:
            raise BracketFailed(f"no valid low bracket endpoint for {which} at n={cfg.n}")
        f_lo = excess(lo)
    else:
        raise BracketFailed(f"eps unreachable from below for {which} at n={cfg.n}")

    hi = lam_0 + corr * _BRACKET[1]
    f_hi = excess(hi)
    for _ in range(60):
        if f_hi is not None and f_hi <= 0.0:
            break
        hi = lam_0 + (hi - lam_0) * 2.0
        f_hi = excess(hi)
    else:
        raise BracketFailed(f"eps unreachable from above for {which} at n={cfg.n}")

    if hi <= lo:
        raise BracketFailed(f"degenerate bracket for {which} at n={cfg.n}")
    return rootfind.illinois(excess, lo, hi, f_lo, f_hi, f_tol)


def oracle_converse(cfg: AwgnConfig) -> float:
    """Exact converse rate from the series oracle: -(1/n) log2 F_FA at
    n lambda/(1+Omega), with lambda from ``oracle_lambda``."""
    n, om = cfg.n, cfg.omega
    lam = oracle_lambda(cfg)
    s_fa = n * (1.0 + om) / om
    ln_f_fa = oracle.ncchi2_cdf_log(n, s_fa, n * lam / (1.0 + om), _ORACLE_TOL)
    return -ln_f_fa / (n * _LN2)


def converse_bounds(cfg: AwgnConfig) -> AwgnPoint:
    """Both converse bounds plus the closed-form approximations.

    r_lower uses P0 on both sides (lambda from P0,MD = eps into P0,FA),
    r_upper uses P1 on both sides, per the published pairing.
    """
    lam_p0 = solve_lambda(cfg, "p0")
    lam_p1 = solve_lambda(cfg, "p1")
    r_lower = -log_p0_fa(cfg, lam_p0) / (cfg.n * _LN2)
    r_upper = -log_p1_fa(cfg, lam_p1) / (cfg.n * _LN2)
    return AwgnPoint(
        config=cfg,
        lambda_p0=float(lam_p0),
        lambda_p1=float(lam_p1),
        lambda_asym=lambda_asymptotic(cfg),
        r_lower=r_lower,
        r_upper=r_upper,
        r_asym=rate_asymptotic(cfg),
        r_na=normal_approximation(cfg),
        capacity=capacity(cfg.omega),
        log_residual_p0=lam_p0.log_residual,
        log_residual_p1=lam_p1.log_residual,
    )


# ---------------------------------------------------------------------------
# Debye-side quantities behind the asymptotics


def debye_eta(z: float) -> float:
    """eta(z) = sqrt(1+z^2) + ln(z/(1+sqrt(1+z^2)))."""
    if z <= 0.0:
        raise DomainError("eta needs z > 0")
    w = math.sqrt(1.0 + z * z)
    return w + math.log(z / (1.0 + w))


def _phi(omega: float, lam: float) -> float:
    return (
        -(1.0 + lam * omega) / (2.0 * omega)
        + 0.25 * math.log(lam * omega)
        + 0.5 * debye_eta(2.0 * math.sqrt(lam / omega))
    )


def _phi_prime(omega: float, lam: float) -> float:
    s = math.sqrt(1.0 + 4.0 * lam / omega)
    return -0.5 + 1.0 / (4.0 * lam) + s / (4.0 * lam)


def _phi_second(omega: float, lam: float) -> float:
    s = math.sqrt(1.0 + 4.0 * lam / omega)
    return -(1.0 + s) / (4.0 * lam * lam) + 1.0 / (2.0 * lam * omega * s)


def _j_prime(omega: float, lam: float) -> float:
    s = math.sqrt(1.0 + 4.0 * lam / omega)
    return -1.0 + (2.0 / omega) / (1.0 + s) - (2.0 * lam / omega) * (2.0 / (omega * s)) / (1.0 + s) ** 2


def debye_internals(omega: float, lam: float | None = None) -> dict:
    """The quantities the asymptotic lambda derivation is built from, at
    lambda (lambda0 by default), evaluated for test consumption.

    eps_balance is the scaled-displacement equation: eps as a function
    of u = sqrt(n)(lambda - lambda0).
    """
    if omega <= 0.0:
        raise DomainError("omega must be > 0")
    lam_0 = lambda0(omega)
    if lam is None:
        lam = lam_0
    z = 2.0 * math.sqrt(lam / omega)
    a = omega / (4.0 * (omega + 2.0))

    def eps_balance(u: float) -> float:
        return math.sqrt((omega + 2.0) / (math.pi * omega)) * math.exp(-a * u * u) / u

    return {
        "lambda0": lam_0,
        "eta": debye_eta(z),
        "phi": _phi(omega, lam),
        "phi_prime": _phi_prime(omega, lam),
        "phi2_at_lambda0": _phi_second(omega, lam_0),
        "jprime_at_lambda0": _j_prime(omega, lam_0),
        "eps_balance": eps_balance,
    }
