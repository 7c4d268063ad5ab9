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
within 2e-13 relative of mpmath at n = 10^4 and 4e-12 at 10^5).  Above
n ~ 10^5 that rounding, about (x + s) ulp, exceeds the 1e-10 log residual
the lambda solves aim for, and a solve stops where a step from within it
fails to halve the residual; ``AwgnPoint`` carries the residual each
solve reached.

Also provides the closed-form asymptotic rate (Lambert-W lambda), the
normal approximation, and the Debye-side quantities the asymptotics are
derived from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import oracle, rootfind, specfun
from .errors import BracketFailed, DomainError, OutOfValidity, ParamError, PoleEncountered, TailkitError

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
    #: the solved lambdas (``Lambda``, which carry their residual and their
    #: bound evaluations), NaN where a solve failed
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
    #: solve reached the bound's rounding level or ulp width without
    #: meeting its target
    log_residual_p0: float
    log_residual_p1: float
    #: the cells whose formula raised, by name, with the error; they and
    #: the cells computed from them are NaN (``converse_bounds``); a dict
    #: has no hash, so the point's hash leaves it out
    failed: dict = field(hash=False)


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


def _log_f(k: float, s: float, x: float) -> tuple[float, float, float]:
    """u = sqrt(s x), the ratio r = I_nu(u)/I_{nu-1}(u) at nu = k/2, and
    ln f, the ncx2(k, s) log density at x, from one Bessel pair."""
    u = math.sqrt(s * x)
    pair = specfun.log_bessel_i_scaled(0.5 * k, u)
    ln_f = (
        -_LN2
        - 0.5 * (x + s)
        + (0.25 * k - 0.5) * math.log(x / s)
        + u
        + pair.log_scaled_lower
    )
    return u, pair.ratio, ln_f


def _seed_parts(k: float, s: float, x: float, right: bool) -> tuple:
    """What the seed and the first iterate share at x: ln f, the seed's
    denominator bracket = x - k + 2 - u r (right tail, g = f) or
    k - x + u r (left tail, g = x f), (ln P0)', (ln P0)'', and the parts of
    them that ``_first_iterate`` differentiates once more.

    The derivatives are closed-form in the ratio r = I_nu/I_{nu-1},
    nu = k/2, u = sqrt(s x), du/dx = s/(2u), d2u/dx2 = -(du/dx)^2/u.  From
    I'_{nu-1} = I_nu + ((nu-1)/u) I_{nu-1} and I'_nu = I_{nu-1} - (nu/u) I_nu
    (DLMF 10.29.2) r obeys the Riccati equation
    r_u = dr/du = 1 - (2 nu - 1) r/u - r^2 (Amos 1974), so
        (ln f)'   = -1/2 + (nu - 1)/x + r s/(2u),
        (u r)'    = (du/dx) v,  v = u - (2 nu - 2) r - u r^2,
        (ln P0)'  = 1/x + (ln f)' - bracket'/bracket,
    with bracket' = 1 - (u r)' on the right tail and (u r)' - 1 on the
    left, and once more, with v_u = dv/du = 1 - (2 nu - 2) r_u - r^2
    - 2 u r r_u,
        (u r)''   = (v_u - v/u) (du/dx)^2,
        (ln P0)'' = -nu/x^2 + (r_u - r/u) (du/dx)^2 - bracket''/bracket
                    + (bracket'/bracket)^2,
    with bracket'' = -(u r)'' on the right tail and (u r)'' on the left.
    """
    if x <= 0.0:
        raise OutOfValidity(f"argument x={x} not positive")
    u, r, ln_f = _log_f(k, s, x)
    bracket = (x - k + 2.0 - u * r) if right else (k - x + u * r)
    if bracket <= 0.0:
        raise OutOfValidity(f"seed denominator sign wrong at x={x} (bracket={bracket:.3e})")
    nu = 0.5 * k
    sign = -1.0 if right else 1.0
    du = s / (2.0 * u)
    v = u - (2.0 * nu - 2.0) * r - u * r * r
    db = sign * (du * v - 1.0) / bracket  # bracket'/bracket
    dlp0 = nu / x - 0.5 + r * du - db  # 1/x + (ln f)' - bracket'/bracket
    r_u = 1.0 - (2.0 * nu - 1.0) * r / u - r * r
    v_u = 1.0 - (2.0 * nu - 2.0) * r_u - r * r - 2.0 * u * r * r_u
    d2b = sign * du * du * (v_u - v / u) / bracket  # bracket''/bracket
    d2lp0 = -nu / x / x + du * du * (r_u - r / u) - d2b + db * db
    return ln_f, bracket, dlp0, d2lp0, (x, sign, nu, u, r, du, v, r_u, v_u, db, d2b)


class _Seed(rootfind.Sloped):
    """ln P0, with its slope and curvature in lambda, that keeps the parts
    of ``_seed_parts`` it was formed from, so that ``_first_iterate`` forms
    ln P1 at the same point without another Bessel pair."""

    __slots__ = ("parts",)


def _log_seed(k: float, s: float, x: float, right: bool, dx: float = 1.0) -> _Seed:
    """ln of the ncx2 seed bound 2 x f(x) / bracket (see ``_seed_parts``),
    carrying its slope dx (ln P0)'(x) and curvature dx^2 (ln P0)''(x) in
    lambda, where dx = dx/dlambda."""
    parts = _seed_parts(k, s, x, right)
    ln_f, bracket, dlp0, d2lp0, _ = parts
    obj = _Seed(_LN2 + math.log(x) + ln_f - math.log(bracket))
    obj.slope = dx * dlp0
    obj.curvature = dx * dx * d2lp0
    obj.parts = parts
    return obj


def _first_iterate(parts: tuple, dx: float) -> rootfind.Sloped:
    """ln of the first iterate f * P0/P0' (sign per side) from the parts of
    ``_seed_parts``: ln f minus ln of -+(ln P0)', carrying its slope in
    lambda, dx ((ln f)' - (ln P0)''/(ln P0)'), and its curvature,
    dx^2 ((ln f)'' - (ln P0)'''/(ln P0)' + ((ln P0)''/(ln P0)')^2), where
    dx = dx/dlambda.

    (ln P0)''' takes the Riccati equation once more: with
    r_uu = -(2 nu - 1)(r_u - r/u)/u - 2 r r_u and
    v_uu = -(2 nu - 2) r_uu - 4 r r_u - 2 u (r_u^2 + r r_uu),
        (ln f)''   = -(nu - 1)/x^2 + (r_u - r/u) (du/dx)^2,
        (u r)'''   = (v_uu - 3 (v_u - v/u)/u) (du/dx)^3,
        (ln P0)''' = 2 nu/x^3 + (r_uu - 3 (r_u - r/u)/u) (du/dx)^3
                     - bracket'''/bracket
                     + 3 (bracket'/bracket)(bracket''/bracket)
                     - 2 (bracket'/bracket)^3,
    with bracket''' = -+(u r)''' as bracket''.
    """
    ln_f, bracket, dlp0, d2lp0, (x, sign, nu, u, r, du, v, r_u, v_u, db, d2b) = parts
    if sign * dlp0 <= 0.0:
        raise PoleEncountered(f"P0' has the wrong sign at x={x}")
    r_uu = -(2.0 * nu - 1.0) * (r_u - r / u) / u - 2.0 * r * r_u
    v_uu = -(2.0 * nu - 2.0) * r_uu - 4.0 * r * r_u - 2.0 * u * (r_u * r_u + r * r_uu)
    du3 = du * du * du
    d3b = sign * du3 * (v_uu - 3.0 * (v_u - v / u) / u) / bracket  # bracket'''/bracket
    d3lp0 = (
        2.0 * nu / x / x / x + du3 * (r_uu - 3.0 * (r_u - r / u) / u) - d3b + db * (3.0 * d2b - 2.0 * db * db)
    )
    dln_f = (nu - 1.0) / x - 0.5 + r * du
    d2ln_f = -(nu - 1.0) / x / x + du * du * (r_u - r / u)
    q = d2lp0 / dlp0
    return rootfind.sloped(
        ln_f - math.log(sign * dlp0), dx * (dln_f - q), dx * dx * (d2ln_f - d3lp0 / dlp0 + q * q)
    )


# ln of the seed bound P0 (above the tail) and the first iterate P1 (below
# it) on the missed-detection right tail at n*lambda (``_md``) and the
# false-alarm left tail at n*lambda/(1+Omega) (``_fa``), each a float that
# carries ``slope`` and ``curvature``, its first two derivatives in lambda


def log_p0_md(cfg: AwgnConfig, lam: float) -> _Seed:
    return _log_seed(*_md_args(cfg, lam), True, cfg.n)


def log_p1_md(cfg: AwgnConfig, lam: float) -> rootfind.Sloped:
    return _first_iterate(_seed_parts(*_md_args(cfg, lam), True), cfg.n)


def log_p0_fa(cfg: AwgnConfig, lam: float) -> _Seed:
    return _log_seed(*_fa_args(cfg, lam), False, cfg.n / (1.0 + cfg.omega))


def log_p1_fa(cfg: AwgnConfig, lam: float) -> rootfind.Sloped:
    return _first_iterate(_seed_parts(*_fa_args(cfg, lam), False), cfg.n / (1.0 + cfg.omega))


# ---------------------------------------------------------------------------
# Asymptotics


def lambda_asymptotic(cfg: AwgnConfig) -> float:
    """Two-term large-n solution of the MD equation, via Lambert W of
    1/(2 pi eps^2), taken from its logarithm: the argument itself
    overflows for eps below about 1e-154."""
    w = specfun.lambert_w0_exp(-math.log(2.0 * math.pi) - 2.0 * math.log(cfg.eps))
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
    |ln bound - ln eps| the root finder reached there, and ``evaluations``,
    the bound evaluations the solve made."""

    __slots__ = ("log_residual", "evaluations")

    def __new__(cls, lam: float, log_residual: float, evaluations: int):
        obj = super().__new__(cls, lam)
        obj.log_residual = log_residual
        obj.evaluations = evaluations
        return obj


def solve_lambda(cfg: AwgnConfig, which: str = "p0") -> Lambda:
    """lambda with bound(n*lambda) = eps, by ``_solve_md`` on the log
    bound, with Halley steps on the slope and curvature the bound carries,
    from lambda_asym. The bound blows up at the validity threshold just
    above lambda0 = 1 + 1/Omega, so the low endpoint always reaches a value
    above eps when n >= n0. The solve stops at a log residual of 1e-10, at
    the bound's rounding level (``_solve_bound``) or at ulp width; the result
    is a float that carries the residual reached (``Lambda.log_residual``)
    and the bound evaluations it took (``Lambda.evaluations``).
    """
    if which not in ("p0", "p1"):
        raise DomainError("which must be 'p0' or 'p1'")
    return _solve_bound(cfg, which, lambda_asymptotic(cfg))[0]


def _solve_bound(cfg: AwgnConfig, which: str, lam_asym: float, p0=None) -> tuple[Lambda, float]:
    """``_solve_md`` on ln P0,MD or ln P1,MD (``which``), to a log residual
    of 1e-10 or the bound's rounding level, (x + s) ulp at lambda_asym:
    ln f sums the terms -(x + s)/2 + u of size O(n), which cancel, and
    for n in [1e6, 1e8] on the six benchmark (Omega, eps) pairs both
    bounds scatter by up to 0.91 (x + s) ulp about a smooth curve near
    their roots.

    p0, the P0 solve's result (lambda_p0 and the value of ln P0,MD there),
    starts the P1 solve at lambda_p0, with ln P1,MD there formed from the
    Bessel pair of that value (``_first_iterate``); by default a solve
    starts at lam_asym."""
    log_bound = log_p0_md if which == "p0" else log_p1_md
    floor = cfg.n * (lam_asym + 1.0 / cfg.omega) * _ULP
    start = p0 and (p0[0], lambda lam: _first_iterate(p0[1].parts, cfg.n))
    return _solve_md(cfg, lambda lam: log_bound(cfg, lam), 1e-10, floor, which, lam_asym, start)


#: Truncation tolerance of the series oracle behind ``oracle_lambda`` and
#: ``oracle_converse``.
_ORACLE_TOL = 1e-11


def oracle_lambda(cfg: AwgnConfig) -> Lambda:
    """Exact lambda: the root of ln Pr{ncx2(n, n/Omega) > n lambda} = ln eps,
    with the survival function SF from the series oracle, by ``_solve_md``
    until the bracket is at ulp width or the residual reaches rounding
    level. Its slope in lambda, g = -n f/SF, and its curvature,
    g (n (ln f)' - g), take ln f and (ln f)' from one Bessel pair
    (``_log_f``)."""
    n, s_md = cfg.n, cfg.n / cfg.omega
    f_tol = 4.0 * _ULP * abs(math.log(cfg.eps))

    def log_sf(lam: float) -> rootfind.Sloped:
        k, s, x = _md_args(cfg, lam)
        ln_sf = oracle.ncchi2_sf_log(n, s_md, x, _ORACLE_TOL)
        u, r, ln_f = _log_f(k, s, x)
        slope = -n * math.exp(ln_f - ln_sf)
        dln_f = (0.5 * k - 1.0) / x - 0.5 + r * s / (2.0 * u)
        return rootfind.sloped(ln_sf, slope, slope * (n * dln_f - slope))

    return _solve_md(cfg, log_sf, f_tol, 0.0, "oracle", lambda_asymptotic(cfg))[0]


#: Where ``_solve_md`` seeds its bracket when its Halley steps stop short
#: of the target and of the rounding level, in units of corr = lambda_asym
#: - lambda0 above lambda0. (lambda - lambda0)/corr spreads over
#: 0.991-1.059 for n in [1e3, 1e8] at Omega in {0.5, 1, 5} and eps in
#: {1e-3, 1e-5} (the P0, P1 and oracle solves), which is why the steps
#: start at lambda_asym, and rises as n falls (1.19 at n = 100, 2.37 at
#: n = 2), where the high end doubles once or twice.
_BRACKET = (0.95, 1.15)


def _solve_md(
    cfg: AwgnConfig, log_tail, f_tol: float, f_floor: float, which: str, lam_asym: float, start=None
) -> tuple[Lambda, float]:
    """The root of log_tail(lambda) = ln eps, with log_tail decreasing in
    lambda, by ``rootfind.illinois`` to a residual of f_tol or ulp width,
    as a ``Lambda``, and log_tail's value there. The steps are Halley's or
    Newton's while log_tail carries its slope and curvature
    (``rootfind.Sloped``) and each step halves the residual or the
    bracket. Once the residual is within f_floor, log_tail's own rounding
    level, a step that does not halve it ends the solve at the best point
    seen. Otherwise the steps go on as Illinois steps on a bracket. A
    lambda where log_tail raises OutOfValidity or PoleEncountered is
    undefined, and a step that lands there ends the Halley steps or moves
    the low end. ``which`` names the solve in BracketFailed.

    The steps start at start = (lambda, value), where value(lambda) gives
    log_tail's value there without an evaluation, or by default at
    lam_asym, the asymptotic lambda, evaluated. The bracket, where the
    steps have not found one, is seeded from the asymptotic correction
    corr = lam_asym - lambda0, at lambda0 + corr c for c in ``_BRACKET``,
    and pushed until it straddles ln eps: the low end moves up (x1.5 from
    lambda0) where the tail is undefined and toward lambda0 (x0.25) where
    it is below eps, and the high end doubles its distance from lambda0.
    """
    target = math.log(cfg.eps)
    lam_0 = lambda0(cfg.omega)
    corr = lam_asym - lam_0
    evaluations = 0
    values = {}

    def excess(lam: float, value=None) -> rootfind.Sloped | None:
        nonlocal evaluations
        if value is None:
            evaluations += 1
            value = log_tail
        try:
            v = value(lam)
        except (OutOfValidity, PoleEncountered):
            return None
        values[lam] = v
        return rootfind.sloped(v - target, getattr(v, "slope", 0.0), getattr(v, "curvature", 0.0))

    def bracket() -> tuple[float, float, float, float]:
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
        return lo, hi, f_lo, f_hi

    lam_start, value = start or (lam_asym, None)
    start = (lam_start, excess(lam_start, value))
    lam, resid = rootfind.illinois(excess, bracket, f_tol, start=start, f_floor=f_floor)
    return Lambda(lam, abs(resid), evaluations), values[lam]


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
    r_upper uses P1 on both sides, per the published pairing. lambda_asym
    is computed once, for r_asym and as the start of the P0 solve. The P1
    solve starts at lambda_p0, with ln P1 there formed from the Bessel pair
    the P0 solve evaluated there (``_first_iterate``).

    Each cell is computed on its own: where its formula raises a
    TailkitError, an ArithmeticError or a ValueError, it is NaN and
    ``failed`` maps its name to the error, and a cell computed from a NaN
    cell is NaN too.
    """
    failed: dict[str, Exception] = {}

    def cell(name: str, formula, *args):
        try:
            return formula(*args)
        except (TailkitError, ArithmeticError, ValueError) as exc:  # ValueError: a math domain error
            failed[name] = exc
            return None

    # each cell is None where its formula raised or a cell it needs is None
    lam_asym = cell("lambda_asym", lambda_asymptotic, cfg)
    p0 = lam_asym and cell("lambda_p0", _solve_bound, cfg, "p0", lam_asym)
    p1 = lam_asym and cell("lambda_p1", _solve_bound, cfg, "p1", lam_asym, p0)
    lam_p0, lam_p1 = (p and p[0] for p in (p0, p1))
    r_lower = lam_p0 and cell("r_lower", lambda: -log_p0_fa(cfg, lam_p0) / (cfg.n * _LN2))
    r_upper = lam_p1 and cell("r_upper", lambda: -log_p1_fa(cfg, lam_p1) / (cfg.n * _LN2))
    r_asym = lam_asym and cell("r_asym", rate_formula, cfg.omega, lam_asym)
    r_na = cell("r_na", normal_approximation, cfg)

    def value(v) -> float:
        return math.nan if v is None else v

    return AwgnPoint(
        config=cfg,
        lambda_p0=value(lam_p0),
        lambda_p1=value(lam_p1),
        lambda_asym=value(lam_asym),
        r_lower=value(r_lower),
        r_upper=value(r_upper),
        r_asym=value(r_asym),
        r_na=value(r_na),
        capacity=capacity(cfg.omega),
        log_residual_p0=value(lam_p0 and lam_p0.log_residual),
        log_residual_p1=value(lam_p1 and lam_p1.log_residual),
        failed=failed,
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
