"""Distribution catalog: Gaussian, beta prime, non-central chi-squared.

Each catalog entry exposes a jet-valued PDF (built from jet elementary
operations so the engine can differentiate it to any order), support
metadata, and hardcoded closed-form iterates for cross-validation of
the engine.

PDF jets are assembled in log space and exponentiated at the end; the
log-jet builder itself is kept on the spec (``log_pdf_jet``) because the
engine's iterates are formed from log quantities to stay finite far out
in the tails.

The jet builders take a float anchor or a grid of anchors (see ``jet``);
the engine calls them with its whole classification grid, so a user
distribution's jet callables must be built from jet operations too. A
point outside the support raises on a float anchor and is NaN on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import jet as J
from . import awgn, specfun
from .errors import DomainError, OutOfValidity, ParamError
from .jet import Jet, jet_var

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

#: x2/x3 validity edge of the printed Gaussian P2/P3 formulas, in units
#: of sigma above the mean (P2's denominator root and P3's positivity
#: root coincide at sqrt(sqrt(2)-1)).
GAUSSIAN_X2_SIGMA = math.sqrt(math.sqrt(2.0) - 1.0)


@dataclass(frozen=True)
class SupportInterval:
    lower: float
    upper: float
    lower_open: bool = True
    upper_open: bool = True

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ParamError(f"empty support [{self.lower}, {self.upper}]")

    def contains_open(self, x: float) -> bool:
        return self.lower < x < self.upper


@dataclass(frozen=True)
class DistributionSpec:
    name: str
    params: dict
    support: SupportInterval
    pdf_jet: Callable[[float, int], Jet]
    log_pdf_jet: Optional[Callable[[float, int], Jet]] = field(default=None, repr=False)


def _positive_var(anchor, order: int, message: str) -> Jet:
    """The identity jet on a positive support: a non-positive anchor raises
    DomainError, or is NaN on a grid."""
    return J.check(jet_var(anchor, order), anchor <= 0.0, lambda: DomainError(message))


def _spec_from_log_jet(name, params, support, log_jet):
    def pdf_jet(anchor, order: int) -> Jet:
        return J.exp(log_jet(anchor, order))

    return DistributionSpec(name, params, support, pdf_jet, log_jet)


def make_gaussian(mu: float, sigma: float) -> DistributionSpec:
    if not (sigma > 0.0 and math.isfinite(sigma) and math.isfinite(mu)):
        raise ParamError("gaussian needs finite mu and sigma > 0")

    ln_norm = math.log(sigma) + _LN_SQRT_2PI

    def log_jet(anchor, order: int) -> Jet:
        x = jet_var(anchor, order)
        y = (x - mu) * (1.0 / sigma)
        return -0.5 * (y * y) - ln_norm

    support = SupportInterval(-math.inf, math.inf)
    return _spec_from_log_jet("gaussian", {"mu": mu, "sigma": sigma}, support, log_jet)


def make_beta_prime(alpha: float, beta: float) -> DistributionSpec:
    if not (alpha > 0.0 and beta > 0.0 and math.isfinite(alpha) and math.isfinite(beta)):
        raise ParamError("beta prime needs finite alpha, beta > 0")

    ln_b = specfun.log_beta(alpha, beta)

    def log_jet(anchor, order: int) -> Jet:
        x = _positive_var(anchor, order, "beta prime PDF jet needs anchor > 0")
        return (alpha - 1.0) * J.ln(x) - (alpha + beta) * J.ln(1.0 + x) - ln_b

    support = SupportInterval(0.0, math.inf)
    return _spec_from_log_jet("beta_prime", {"alpha": alpha, "beta": beta}, support, log_jet)


def make_noncentral_chi2(k: float, s: float) -> DistributionSpec:
    """Non-central chi-squared with k > 0 degrees of freedom, non-centrality
    s >= 0.

    For s > 0, ln f = -ln 2 - (x+s)/2 + (k/4 - 1/2) ln(x/s) + ln I_{k/2-1}(u)
    with u = sqrt(s x), for every k > 0 (the order k/2 - 1 is negative below
    k = 2); the Bessel term comes from the scaled log-Bessel jet at order
    nu = k/2, so ln f stays in log space however far out x is. s = 0 is the
    central chi-squared.
    """
    if not (k > 0.0 and s >= 0.0 and math.isfinite(k) and math.isfinite(s)):
        raise ParamError("noncentral chi2 needs finite k > 0, s >= 0")

    support = SupportInterval(0.0, math.inf)
    params = {"k": k, "s": s}

    if s == 0.0:
        ln_norm = 0.5 * k * math.log(2.0) + math.lgamma(0.5 * k)

        def log_jet0(anchor, order: int) -> Jet:
            x = _positive_var(anchor, order, "chi2 PDF jet needs anchor > 0")
            return (0.5 * k - 1.0) * J.ln(x) - 0.5 * x - ln_norm

        return _spec_from_log_jet("noncentral_chi2", params, support, log_jet0)

    def log_jet(anchor, order: int) -> Jet:
        x = _positive_var(anchor, order, "noncentral chi2 PDF jet needs anchor > 0")
        u = J.sqrt(s * x)
        log_lower, _ = specfun.log_bessel_i_jet(0.5 * k, u)
        # ln f = -ln2 - (x+s)/2 + (k/4 - 1/2) ln(x/s) + u + ln Ie_{k/2-1}
        return (
            -math.log(2.0)
            - 0.5 * (x + s)
            + (0.25 * k - 0.5) * (J.ln(x) - math.log(s))
            + u
            + log_lower
        )

    return _spec_from_log_jet("noncentral_chi2", params, support, log_jet)


# ---------------------------------------------------------------------------
# Printed closed-form iterates (cross-validation targets for the engine)

# Standard-case rational factors q_i(y) with P_i(x) = phi(y) q_i(y),
# y = (x-mu)/sigma; q_{i+1} = q_i/(y q_i - q_i') reproduces the printed
# P_0..P_3 exactly.
def _gauss_q(i: int, y: float) -> float:
    if i == 0:
        return 1.0 / y
    if i == 1:
        return y / (1.0 + y * y)
    y2 = y * y
    if i == 2:
        return (y2 * y + y) / (y2 * y2 + 2.0 * y2 - 1.0)
    if i == 3:
        num = y * (y2 ** 3 + 3.0 * y2 ** 2 + y2 - 1.0)
        den = (1.0 + y2 * y2) * (1.0 + 4.0 * y2 + y2 * y2)
        return num / den
    raise DomainError("gaussian closed iterates printed only for i in 0..3")


def gaussian_closed_iterates(mu: float, sigma: float, i: int, x: float) -> float:
    """The printed Gaussian right-tail iterates P_0..P_3."""
    if sigma <= 0.0:
        raise ParamError("sigma must be > 0")
    if i not in (0, 1, 2, 3):
        raise DomainError("i must be in 0..3")
    y = (x - mu) / sigma
    threshold = 0.0 if i <= 1 else GAUSSIAN_X2_SIGMA
    if y <= threshold:
        raise DomainError(f"P_{i} formula invalid at x={x} (needs (x-mu)/sigma > {threshold})")
    phi = math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)
    return phi * _gauss_q(i, y)


def beta_prime_closed_iterates(alpha: float, beta: float, i: int, x: float) -> float:
    """The printed beta prime right-tail iterates P_0 and P_1 (log-space)."""
    if alpha <= 0.0 or beta <= 0.0:
        raise ParamError("alpha, beta must be > 0")
    if i not in (0, 1):
        raise DomainError("i must be 0 or 1")
    if x <= alpha / beta:
        raise DomainError(f"formula invalid at x={x} (needs x > alpha/beta)")
    ln_core = alpha * math.log(x) + (1.0 - alpha - beta) * math.log1p(x) - specfun.log_beta(alpha, beta)
    edge = beta * x - alpha
    if i == 0:
        return math.exp(ln_core - math.log(edge))
    den = alpha * alpha + beta * beta * x * x + x * (alpha + beta - 2.0 * alpha * beta)
    return math.exp(ln_core + math.log(edge) - math.log(den))


def ncchi2_left_closed_p0(k: float, s: float, x: float) -> float:
    """Closed-form left-tail seed for the non-central chi-squared
    (g = x f), evaluated in log space as the AWGN converse's left seed
    (``awgn._log_seed``).

    P0(x) = e^{-(s+x)/2} sqrt(sx) (x/s)^{k/4} I_{k/2-1}(u)^2
            / ((k - x) I_{k/2-1}(u) + u I_{k/2}(u)),  u = sqrt(sx).
    """
    if not (k > 0.0 and s > 0.0):
        raise ParamError("closed-form left seed needs k > 0 and s > 0")
    try:
        return math.exp(awgn._log_seed(k, s, x, right=False))
    except OutOfValidity as exc:  # x <= 0, or a bracket of the wrong sign
        raise DomainError(f"left seed pole/out of validity: {exc}") from exc
