"""Correctness checks on the outputs of each workload.

References come from scipy, and from mpmath or a Poisson integral
evaluated here where scipy underflows; none of them calls tailkit. The
checks run after the timed loop and return a list of failure messages
(empty when every output passes).
"""

from __future__ import annotations

import csv
import math

import mpmath
import numpy as np
from scipy import optimize, special, stats

from tailkit.engine import TailSide
from tailkit.errors import TailkitError
from workloads import MAX_ITER

#: Relative slack allowed between a bound and the reference tail.
BOUND_SLACK = 1e-9
#: Sample points per window for the run_algorithm and candidate checks.
SAMPLE_POINTS = 40
#: Relative agreement required between oracle_converse and the reference
#: converse. The oracle forms the missed-detection tail as 1 - CDF from a
#: series truncated at 1e-11, so at eps = 1e-5 its rate carries up to
#: about 4e-8 relative error by construction.
ORACLE_RTOL = 1e-7
_ULP = 2.0 ** -52


def lambda_tol(n: int) -> float:
    """Allowed |ln P0,MD(lambda_p0) - ln eps|. The solver targets 1e-10,
    but ln P0,MD is a sum of terms of size ~n in doubles, so its rounding
    grows like n ulp (observed up to 1.8 n ulp at n = 1e7)."""
    return 1e-9 + 32.0 * n * _ULP


# ---------------------------------------------------------------------------
# bounds


def reference_tail(job, x: np.ndarray) -> np.ndarray:
    """Pr{X >= x} (right) or Pr{X <= x} (left) from scipy."""
    p = job.p
    if job.kind == "gaussian":
        return stats.norm.sf(x, p["mu"], p["sigma"])
    if job.kind == "beta-prime":
        return stats.betaprime.sf(x, p["alpha"], p["beta"])
    return stats.ncx2.cdf(x, p["k"], p["s"])


def _side_ok(verdict: str, value: float, tail: float) -> bool:
    upper_ok = value >= tail * (1.0 - BOUND_SLACK)
    lower_ok = value <= tail * (1.0 + BOUND_SLACK)
    if verdict == "U":
        return upper_ok
    if verdict == "L":
        return lower_ok
    if verdict == "E":
        return upper_ok and lower_ok
    return True  # "X": no claim


def check_bounds(job, out) -> list[str]:
    errors = []
    where = f"bounds {job.kind} {dict(job.params)}"
    if out.cli_status != 0:
        errors.append(f"{where}: cli exit status {out.cli_status}")
    xs = np.geomspace(*job.window, SAMPLE_POINTS)
    tails = reference_tail(job, xs)

    for name, it, verdict in (("p_l", out.run.p_l, "L"), ("p_u", out.run.p_u, "U")):
        if it is None:
            continue
        for x, tail in zip(xs, tails):
            try:
                value = it.value(float(x))
            except TailkitError as exc:
                errors.append(f"{where}: {name} undefined at x={x:.6g}: {exc}")
                continue
            if not _side_ok(verdict, value, tail):
                errors.append(f"{where}: {name}(x={x:.6g}) = {value:.17g} vs tail {tail:.17g}")

    cls = out.candidate_cls
    if cls is not None and cls.verdict.value == "U":
        right = job.side is TailSide.RIGHT
        for x, tail in zip(xs, tails):
            if (x >= cls.threshold) if right else (x <= cls.threshold):
                value = out.candidate.evaluator(float(x), 0).value
                if not _side_ok("U", value, tail):
                    errors.append(f"{where}: candidate h(x={x:.6g}) = {value:.17g} below tail {tail:.17g}")

    errors += _check_csv(job, where)
    return errors


def _check_csv(job, where: str) -> list[str]:
    """Every P_i cell at or beyond threshold_i lies on the side of the
    reference tail that verdict_i states."""
    with open(job.csv_path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, rows = rows[0], rows[1:]
    n_it = sum(1 for h in header if h.startswith("P_"))
    if not rows or n_it != MAX_ITER + 1:
        return [f"{where}: csv has {len(rows)} rows and {n_it} iterates"]
    xs = np.array([float(r[0]) for r in rows])
    tails = reference_tail(job, xs)
    right = job.side is TailSide.RIGHT
    errors = []
    cells = 0
    for row, x, tail in zip(rows, xs, tails):
        for i in range(n_it):
            cell, verdict, threshold = row[1 + i], row[1 + n_it + i], float(row[1 + 2 * n_it + i])
            if not cell or not ((x >= threshold) if right else (x <= threshold)):
                continue
            cells += 1
            if not _side_ok(verdict, float(cell), tail):
                errors.append(f"{where}: csv P_{i}({x:.6g}) = {cell} ({verdict}) vs tail {tail:.17g}")
    if cells == 0:
        errors.append(f"{where}: csv has no cell at or beyond its thresholds")
    return errors


# ---------------------------------------------------------------------------
# awgn


_GL_Z, _GL_W = np.polynomial.legendre.leggauss(200)


def _bessel_by_integral(nu: float, u: float):
    """ln I_{nu-1}(u) (as an mpf) and I_nu(u)/I_{nu-1}(u), from the Poisson
    integral I_m(u) = (u/2)^m / (sqrt(pi) Gamma(m+1/2)) int_{-1}^{1}
    (1-t^2)^(m-1/2) e^(ut) dt. The integrand is sharply peaked, so it is
    integrated by Gauss-Legendre around its peak, in the peak's scale; the
    large terms are summed in mpmath. Needs nu > 1/2."""
    with mpmath.workdps(40):
        a = mpmath.mpf(nu) - 1.5
        um = mpmath.mpf(u)
        t_star = float(um / (a + mpmath.sqrt(a * a + um * um)))
        tm = mpmath.mpf(t_star)
        phi_star = a * mpmath.log1p(-tm * tm) + um * tm
        af = float(a)
        width = (1.0 - t_star * t_star) / math.sqrt(2.0 * af * (1.0 + t_star * t_star))
        lo = max(-20.0, (-1.0 - t_star) / width * (1.0 - 1e-12))
        hi = min(20.0, (1.0 - t_star) / width * (1.0 - 1e-12))
        z = 0.5 * (hi - lo) * _GL_Z + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * _GL_W
        t = t_star + width * z
        shift = 2.0 * t_star * width * z + width * width * z * z
        dens = np.exp(af * np.log1p(-shift / (1.0 - t_star * t_star)) + u * width * z)
        q0 = float(np.dot(w, dens))
        q1 = float(np.dot(w, (1.0 - t * t) * dens))
        log_i = (
            (mpmath.mpf(nu) - 1) * mpmath.log(um / 2)
            - mpmath.log(mpmath.pi) / 2
            - mpmath.loggamma(mpmath.mpf(nu) - 0.5)
            + phi_star
            + mpmath.log(width)
            + mpmath.log(q0)
        )
        return log_i, u / (2.0 * nu - 1.0) * q1 / q0


def reference_log_p0_md(cfg, lam: float) -> float:
    """ln of the seed bound 2x f(x) / (x - k + 2 - u I_{k/2}(u)/I_{k/2-1}(u))
    on the missed-detection tail, k = n, s = n/Omega, x = n lambda,
    u = sqrt(sx). f and the Bessel ratio come from scipy (ncx2.logpdf, ive)
    where they are finite, else from the Poisson integral."""
    k = float(cfg.n)
    s = cfg.n / cfg.omega
    x = cfg.n * lam
    u = math.sqrt(s * x)
    log_f = stats.ncx2.logpdf(x, k, s)
    upper, lower = special.ive(0.5 * k, u), special.ive(0.5 * k - 1.0, u)
    with mpmath.workdps(40):
        xm, sm = mpmath.mpf(x), mpmath.mpf(s)
        if math.isfinite(log_f) and upper > 1e-300 and lower > 1e-300:
            log_f, ratio = mpmath.mpf(log_f), upper / lower
        else:
            log_i, ratio = _bessel_by_integral(0.5 * k, u)
            log_f = -mpmath.log(2) - (xm + sm) / 2 + (k / 4 - 0.5) * mpmath.log(xm / sm) + log_i
        bracket = xm - k + 2 - mpmath.sqrt(sm * xm) * ratio
        return float(mpmath.log(2 * xm) + log_f - mpmath.log(bracket))


def check_awgn(cfgs, points) -> list[str]:
    errors = []
    last: dict = {}
    for cfg, pt in zip(cfgs, points):
        where = f"awgn n={cfg.n} omega={cfg.omega} eps={cfg.eps}"
        if not pt.r_lower <= pt.r_upper <= pt.capacity:
            errors.append(f"{where}: r_lower {pt.r_lower} r_upper {pt.r_upper} capacity {pt.capacity}")
        prev = last.get((cfg.omega, cfg.eps))
        if prev is not None and not (pt.r_lower > prev.r_lower and pt.r_upper > prev.r_upper):
            errors.append(f"{where}: rates do not rise from n={prev.config.n}")
        last[(cfg.omega, cfg.eps)] = pt
        resid = abs(reference_log_p0_md(cfg, pt.lambda_p0) - math.log(cfg.eps))
        if not resid <= lambda_tol(cfg.n):
            errors.append(f"{where}: |ln P0,MD(lambda_p0) - ln eps| = {resid:.3e} > {lambda_tol(cfg.n):.3e}")
    return errors


# ---------------------------------------------------------------------------
# oracle


def _log_ncx2_cdf_mpmath(x: float, k: float, s: float) -> float:
    """ln of the Poisson mixture sum_j Pois(j; s/2) P(k/2 + j, x/2), at 30
    digits, summed until the terms fall 28 digits below the total."""
    with mpmath.workdps(30):
        half_x, half_s, half_k = mpmath.mpf(x) / 2, mpmath.mpf(s) / 2, mpmath.mpf(k) / 2
        log_weight = -half_s
        total = mpmath.mpf(0)
        prev = None
        j = 0
        while True:
            term = mpmath.exp(log_weight) * mpmath.gammainc(half_k + j, 0, half_x, regularized=True)
            total += term
            if prev is not None and term < prev and term < total * mpmath.mpf(10) ** -28:
                return float(mpmath.log(total))
            prev = term
            j += 1
            log_weight += mpmath.log(half_s / j)


def reference_converse(cfg) -> float:
    """-log2 F_FA(n lambda/(1+Omega)) / n, with lambda solving
    Pr{ncx2(n, n/Omega) > n lambda} = eps by Brent's method on scipy's
    logsf."""
    n, om = cfg.n, cfg.omega
    target = math.log(cfg.eps)

    def excess(lam: float) -> float:
        return stats.ncx2.logsf(n * lam, n, n / om) - target

    lam0 = 1.0 + 1.0 / om
    hi = lam0 + 1.0
    while excess(hi) > 0.0:
        hi = lam0 + 2.0 * (hi - lam0)
    lam = optimize.brentq(excess, lam0, hi, xtol=1e-15, rtol=1e-15, maxiter=500)
    x, s = n * lam / (1.0 + om), n * (1.0 + om) / om
    log_cdf = stats.ncx2.logcdf(x, n, s)
    if not (math.isfinite(log_cdf) and log_cdf > -700.0):
        log_cdf = _log_ncx2_cdf_mpmath(x, n, s)
    return -log_cdf / (n * math.log(2.0))


def check_oracle(cfgs, rates, bounds) -> list[str]:
    """``bounds`` holds awgn.converse_bounds of each config."""
    errors = []
    for cfg, rate, pt in zip(cfgs, rates, bounds):
        where = f"oracle n={cfg.n} omega={cfg.omega} eps={cfg.eps}"
        ref = reference_converse(cfg)
        if not abs(rate - ref) <= ORACLE_RTOL * ref:
            errors.append(f"{where}: rate {rate:.17g} vs reference {ref:.17g}")
        if not pt.r_lower <= rate <= pt.r_upper:
            errors.append(f"{where}: rate {rate} outside [{pt.r_lower}, {pt.r_upper}]")
    return errors
