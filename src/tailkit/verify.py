"""Named invariant suites behind `tailkit verify`.

Each check returns (passed, detail); the runner prints one line per
check and the CLI exits nonzero if any fails.  Tolerances live in a
registry so the CLI can override them by name.
"""

from __future__ import annotations

import math
import random
from typing import Callable

import numpy as np

from . import awgn, connections, dist, engine, oracle, specfun
from . import jet as J
from .engine import GridSpec, SeedKind, TailSide, Verdict
from .jet import Jet, jet_elementary, jet_shift_derivative, jet_var

DEFAULT_TOLS = {
    "jet_product_rule": 1e-12,
    "jet_fd": 1e-6,
    "jet_div_roundtrip": 1e-9,
    "lambert_w": 1e-12,
    "bessel_recurrence": 1e-9,
    "debye_crossover": 1e-8,
    "qinv_roundtrip": 1e-10,
    "closed_form": 1e-9,
    "sandwich": 1e-9,
    "ordering": 1e-9,
    "rate_agreement": 1e-10,
    "normalization": 1e-8,
    "phi_zero": 1e-12,
    "phi_prime_fd": 1e-9,
    "appendix_consts": 1e-10,
    "solve_residual": 1e-10,
}

Check = tuple[str, Callable[[dict], tuple[bool, str]]]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# jet suite


def _chk_product_rule(tols):
    rng = random.Random(20260810)
    worst = 0.0
    for _ in range(60):
        order = rng.randint(2, 6)
        anchor = rng.uniform(-3, 3)
        a = Jet(anchor, tuple(rng.uniform(-5, 5) for _ in range(order + 1)))
        b = Jet(anchor, tuple(rng.uniform(-5, 5) for _ in range(order + 1)))
        lhs = jet_shift_derivative(a * b)
        rhs = jet_shift_derivative(a) * Jet(anchor, b.coeffs[:-1]) + Jet(
            anchor, a.coeffs[:-1]
        ) * jet_shift_derivative(b)
        for x, y in zip(lhs.coeffs, rhs.coeffs):
            worst = max(worst, abs(x - y) / max(abs(x), abs(y), 1.0))
    return worst <= tols["jet_product_rule"], f"worst rel dev {worst:.2e}"


def _chk_jet_fd(tols):
    h = 1e-5
    worst = 0.0
    for build, f in (
        (lambda x0: jet_elementary(-0.5 * jet_var(x0, 1) * jet_var(x0, 1), "exp"),
         lambda x: math.exp(-0.5 * x * x)),
        (lambda x0: 1.0 / (1.0 + jet_var(x0, 1) * jet_var(x0, 1)),
         lambda x: 1.0 / (1.0 + x * x)),
    ):
        for i in range(20):
            x0 = -5.0 + 10.0 * i / 19.0
            fd = (f(x0 + h) - f(x0 - h)) / (2 * h)
            d1 = build(x0).coeffs[1]
            worst = max(worst, abs(d1 - fd) / max(abs(fd), 1e-9))
    return worst <= tols["jet_fd"], f"worst rel dev {worst:.2e}"


def _chk_div_roundtrip(tols):
    # error measured against the backward scale (the largest product
    # magnitude entering each coefficient); a divisor with leading
    # coefficient near the 1e-6 floor conditions the quotient by
    # (|b_k|/|b_0|)^order and a plain relative test would just measure
    # that conditioning
    rng = random.Random(42)
    worst = 0.0
    for _ in range(80):
        order = rng.randint(1, 6)
        anchor = rng.uniform(-2, 2)
        a = Jet(anchor, tuple(rng.uniform(-5, 5) for _ in range(order + 1)))
        b0 = rng.choice([-1, 1]) * rng.uniform(1e-6, 5)
        b = Jet(anchor, (b0,) + tuple(rng.uniform(-5, 5) for _ in range(order)))
        c = a / b
        back = c * b
        for k in range(order + 1):
            scale = max(abs(a.coeffs[k]), max(abs(c.coeffs[j] * b.coeffs[k - j]) for j in range(k + 1)), 1.0)
            worst = max(worst, abs(back.coeffs[k] - a.coeffs[k]) / scale)
    return worst <= tols["jet_div_roundtrip"], f"worst backward-relative dev {worst:.2e}"


# ---------------------------------------------------------------------------
# specfun suite


def _chk_lambert(tols):
    worst = 0.0
    for x in np.geomspace(1e-6, 1e12, 40):
        w = specfun.lambert_w0(float(x))
        worst = max(worst, abs(w * math.exp(w) - x) / x)
    return worst <= tols["lambert_w"], f"worst residual {worst:.2e}"


def _chk_bessel_recurrence(tols):
    worst = 0.0
    for nu, u in ((5.0, 10.0), (50.0, 120.0), (500.0, 900.0)):
        r1 = specfun.log_bessel_i_scaled(nu, u).ratio
        r2 = specfun.log_bessel_i_scaled(nu + 1.0, u).ratio
        worst = max(worst, abs(1.0 / r1 - r2 - 2.0 * nu / u) / (2.0 * nu / u))
    return worst <= tols["bessel_recurrence"], f"worst residual {worst:.2e}"


def _chk_debye_crossover(tols):
    worst = 0.0
    for mu, u in ((4.0, 30.0), (6.5, 30.0), (199.0, 100.0), (240.0, 120.0)):
        a = specfun._series_log_scaled(mu, np.array([u])).item()
        b = specfun._uniform_log_scaled(mu, u)
        worst = max(worst, _rel(a, b))
    return worst <= tols["debye_crossover"], f"worst regime gap {worst:.2e}"


def _chk_monotone_ranges(tols):
    # erfc saturates toward the double 2.0 below x ~ -5 (per-step
    # decrements drop under one ulp), so the strict sweep starts there
    xs = np.linspace(-5.0, 6.0, 1000)
    e = [specfun.erfc(float(x)) for x in xs]
    ok = all(b < a for a, b in zip(e, e[1:])) and all(0.0 < v < 2.0 for v in e)
    gs = [specfun.reg_inc_gamma_P(2.3, float(x)) for x in np.linspace(0.0, 30.0, 1000)]
    ok = ok and all(b >= a for a, b in zip(gs, gs[1:])) and all(0.0 <= v <= 1.0 for v in gs)
    bs = [specfun.reg_inc_beta(float(x), 2.1, 1.3) for x in np.linspace(0.0, 1.0, 1000)]
    ok = ok and all(b >= a for a, b in zip(bs, bs[1:])) and all(0.0 <= v <= 1.0 for v in bs)
    return ok, "erfc decreasing, P(a,x) and I_x(a,b) nondecreasing in range"


def _chk_qinv(tols):
    worst = 0.0
    for eps in (1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-6):
        x = specfun.gaussian_q_inverse(eps)
        worst = max(worst, abs(specfun.gaussian_q(x) - eps) / eps)
    return worst <= tols["qinv_roundtrip"], f"worst residual {worst:.2e}"


def _chk_bessel_ranges(tols):
    ok = True
    for nu in (1.0, 2.5, 40.0):
        for u in np.geomspace(0.1, 500.0, 60):
            pair = specfun.log_bessel_i_scaled(nu, float(u))
            ok = ok and 0.0 < pair.ratio < 1.0 and math.isfinite(pair.log_scaled_lower)
    return ok, "scaled values finite, ratio in (0,1)"


# ---------------------------------------------------------------------------
# bounds suite (engine against the oracle and closed forms)


def _catalog():
    return [
        (dist.make_gaussian(-1.7, 1.9), SeedKind.PDF, TailSide.RIGHT, (1.0, 30.0)),
        (dist.make_beta_prime(2.1, 1.3), SeedKind.SHIFTED_PDF, TailSide.RIGHT, (2.0, 60.0)),
        (dist.make_noncentral_chi2(10.0, 2.0), SeedKind.SHIFTED_PDF, TailSide.LEFT, (0.05, 6.0)),
    ]


def _chain(d, seed, side, depth):
    c = [engine.make_seed(d, seed, side)]
    for _ in range(depth):
        c.append(engine.iterate(c[-1]))
    return c


def _chk_closed_form(tols):
    d = dist.make_gaussian(-1.7, 1.9)
    chain = _chain(d, SeedKind.PDF, TailSide.RIGHT, 3)
    worst = 0.0
    for x in np.geomspace(1.0, 30.0, 50):
        for i, it in enumerate(chain):
            worst = max(worst, _rel(it.value(float(x)), dist.gaussian_closed_iterates(-1.7, 1.9, i, float(x))))
    return worst <= tols["closed_form"], f"worst rel dev {worst:.2e}"


def _chk_sandwich(tols):
    worst = 0.0
    for d, seed, side, window in _catalog():
        chain = _chain(d, seed, side, 3)
        for it in chain:
            cls = engine.classify(it, window, GridSpec(128))
            if cls.verdict is Verdict.INVALID:
                return False, f"{d.name} P{it.index} classified invalid"
            a, b = window
            lo = max(cls.threshold, a) if side is TailSide.RIGHT else a
            hi = b if side is TailSide.RIGHT else min(cls.threshold, b)
            if hi <= lo:
                continue
            for x in np.geomspace(lo + 1e-9 + 1e-6 * (hi - lo), hi, 40):
                x = float(x)
                truth = (
                    oracle.oracle_tail(d, x) if side is TailSide.RIGHT else oracle.oracle_cdf(d, x)
                )
                v = it.value(x)
                gap = (v - truth) if cls.verdict in (Verdict.UPPER, Verdict.EXACT) else (truth - v)
                worst = min(worst, gap)
    return worst >= -tols["sandwich"], f"worst signed margin {worst:.2e}"


def _chk_ordering(tols):
    ok = True
    detail = []
    for d, seed, side, window in _catalog():
        chain = _chain(d, seed, side, 3)
        xs = np.geomspace(window[0] * 1.7 + 0.3, window[1] * 0.9, 30)
        for prev, nxt in zip(chain, chain[1:]):
            cls = engine.classify(prev, window, GridSpec(128))
            for x in xs:
                x = float(x)
                if side is TailSide.RIGHT and x <= cls.threshold:
                    continue
                if side is TailSide.LEFT and x >= cls.threshold:
                    continue
                try:
                    pv, nv = prev.value(x), nxt.value(x)
                except Exception:
                    continue
                if cls.verdict is Verdict.UPPER and nv > pv * (1 + tols["ordering"]):
                    ok = False
                    detail.append(f"{d.name} P{nxt.index}>{prev.index} at {x:.3g}")
                if cls.verdict is Verdict.LOWER and nv < pv * (1 - tols["ordering"]):
                    ok = False
                    detail.append(f"{d.name} P{nxt.index}<{prev.index} at {x:.3g}")
    return ok, "; ".join(detail) if detail else "Lemma-3 ordering holds"


def _chk_limit_preservation(tols):
    # the evaluation edge sits far enough out that the numeric limit
    # surrogate is meaningful (the beta prime tail decays only like
    # x^(-beta), so its edge is much farther than the figure window)
    edges = {"gaussian": 30.0, "beta_prime": 600.0, "noncentral_chi2": 0.05}
    ok = True
    for d, seed, side, _ in _catalog():
        chain = _chain(d, seed, side, 3)
        edge_x = edges[d.name]
        seed_v = chain[0].value(edge_x)
        for it in chain[1:]:
            v = it.value(edge_x)
            ok = ok and v <= seed_v * (1 + 1e-9) and v <= engine.LIMIT_TOL
    return ok, "edge values below seed and LIMIT_TOL"


def _chk_rate_agreement(tols):
    # the chain's rates against those of the printed Gaussian iterates
    mu, sigma = -1.7, 1.9
    chain = _chain(dist.make_gaussian(mu, sigma), SeedKind.PDF, TailSide.RIGHT, 2)
    worst = 0.0
    for x in np.geomspace(1.5, 10.0, 12):
        x = float(x)
        p = [dist.gaussian_closed_iterates(mu, sigma, i, x) for i in range(4)]
        for k, it in enumerate(chain):
            worst = max(worst, _rel(engine.figure_rate(it, x), abs(p[k + 1] / p[k] - 1.0)),
                        _rel(engine.convergence_rate(it, x), abs(p[k] / p[k + 1] - 1.0)))
    return worst <= tols["rate_agreement"], f"worst gap to the printed iterates {worst:.2e}"


def _chk_tightness_reflection(tols):
    # on an upper->lower flip with the tightness condition verified,
    # the reflected auxiliary bound stays below the new iterate
    d = dist.make_gaussian(0.0, 1.0)
    chain = _chain(d, SeedKind.PDF, TailSide.RIGHT, 1)
    window = (0.5, 8.0)
    cls1 = engine.classify(chain[1], window, GridSpec(128))
    if cls1.verdict is not Verdict.LOWER or cls1.tightness_ok is not True:
        return False, f"expected verified lower flip, got {cls1.verdict}"
    ok = True
    for x in np.linspace(0.6, 7.5, 50):
        truth = oracle.oracle_tail(d, float(x))
        refl = 2.0 * truth - chain[0].value(float(x))
        ok = ok and refl <= chain[1].value(float(x)) + 1e-12
    return ok, "reflected auxiliary bound below next iterate"


def _chk_markov_chernoff(tols):
    # Exp(1) via a custom spec
    def log_jet(anchor, order):
        return -jet_var(anchor, order)

    exp1 = dist.DistributionSpec(
        "exp1", {}, dist.SupportInterval(0.0, math.inf),
        lambda a, o: J.exp(log_jet(a, o)), lambda x: -x, log_jet,
    )
    h = connections.markov_h(1.0)
    cls = connections.classify_h(exp1, h, (0.5, 60.0), GridSpec(128))
    ok = cls.verdict is Verdict.UPPER
    for x in np.geomspace(1.0, 40.0, 25):
        ok = ok and 1.0 / x >= math.exp(-float(x)) * (1 - 1e-12)
    g = dist.make_gaussian(0.0, 1.0)
    hc = connections.chernoff_h(lambda t: math.exp(0.5 * t * t), list(np.linspace(0.05, 12.0, 80)))
    cls2 = connections.classify_h(g, hc, (0.6, 8.0), GridSpec(128))
    ok = ok and cls2.verdict is Verdict.UPPER
    return ok, f"markov: {cls.verdict.name}, chernoff: {cls2.verdict.name}"


def _chk_normalization(tols):
    worst = 0.0
    for d, _, _, _ in _catalog():
        worst = max(worst, abs(oracle.normalization(d, 1e-10) - 1.0))
    return worst <= tols["normalization"], f"worst |integral-1| {worst:.2e}"


def _chk_oracle_consistency(tols):
    worst = 0.0
    for d, _, side, window in _catalog():
        for x in np.linspace(window[0] + 0.1, window[1] * 0.5, 20):
            q = oracle.tail_by_quadrature(d, float(x), side, 1e-12).value
            c = oracle.oracle_tail(d, float(x)) if side is TailSide.RIGHT else oracle.oracle_cdf(d, float(x))
            worst = max(worst, abs(q - c))
    return worst <= 1e-9, f"worst |quad-closed| {worst:.2e}"


# ---------------------------------------------------------------------------
# awgn suite


def _chk_appendix_identities(tols):
    worst_zero = worst_fd = worst_const = 0.0
    for om in (0.5, 1.0, 2.0, 5.0):
        d = awgn.debye_internals(om)
        lam0 = d["lambda0"]
        worst_zero = max(worst_zero, abs(d["phi"]))
        h = 1e-6 * lam0
        fd = (awgn._phi(om, lam0 + h) - awgn._phi(om, lam0 - h)) / (2 * h)
        worst_fd = max(worst_fd, abs(fd))
        worst_const = max(
            worst_const,
            abs(d["phi2_at_lambda0"] + om / (2.0 * (om + 2.0))),
            abs(d["jprime_at_lambda0"] + (om + 1.0) / (om + 2.0)),
        )
    ok = (
        worst_zero <= tols["phi_zero"]
        and worst_fd <= tols["phi_prime_fd"]
        and worst_const <= tols["appendix_consts"]
    )
    return ok, f"|phi(l0)| {worst_zero:.1e}, |phi'(l0)|_fd {worst_fd:.1e}, consts {worst_const:.1e}"


def _chk_awgn_sandwich(tols):
    ok = True
    detail = []
    for om, eps in ((1.0, 1e-3), (5.0, 1e-5)):
        prev_gap = None
        for n in (200, 1000):
            cfg = awgn.AwgnConfig(n, om, eps)
            p = awgn.converse_bounds(cfg)
            oc = awgn.oracle_converse(cfg)
            if not (p.r_lower <= oc <= p.r_upper):
                ok = False
                detail.append(f"sandwich broken at om={om}, n={n}")
            gap = p.r_upper - p.r_lower
            if prev_gap is not None and gap >= prev_gap:
                ok = False
                detail.append(f"gap not shrinking at om={om}, n={n}")
            prev_gap = gap
            if not p.lambda_p1 <= p.lambda_p0:
                ok = False
                detail.append(f"lambda ordering broken at om={om}, n={n}")
    return ok, "; ".join(detail) if detail else "oracle inside bounds, gap shrinking"


def _chk_solve_residual(tols):
    worst = 0.0
    for om, eps in ((1.0, 1e-3), (5.0, 1e-5)):
        cfg = awgn.AwgnConfig(500, om, eps)
        for which in ("p0", "p1"):
            lam = awgn.solve_lambda(cfg, which)
            bound = awgn.p0_md(cfg, lam) if which == "p0" else awgn.p1_md(cfg, lam)
            worst = max(worst, abs(bound - eps) / eps)
    return worst <= tols["solve_residual"], f"worst residual {worst:.2e}"


def _chk_rate_asym_shape(tols):
    ok = True
    for om in (1.0, 5.0):
        for eps in (1e-3, 1e-5):
            prev = None
            for n in np.geomspace(1e3, 1e7, 9):
                cfg = awgn.AwgnConfig(int(n), om, eps)
                r = awgn.rate_asymptotic(cfg)
                if r > awgn.capacity(om) or (prev is not None and r <= prev):
                    ok = False
                prev = r
    return ok, "rate_asymptotic increasing in n and below capacity"


def _chk_csv_rerun(tols):
    import os
    import tempfile

    from . import cli

    with tempfile.TemporaryDirectory() as tmp:
        argv = [
            "bounds", "--dist", "gaussian", "--mu", "-1.7", "--sigma", "1.9",
            "--side", "right", "--seed", "pdf", "--iters", "2",
            "--x-min", "1", "--x-max", "12", "--points", "25",
            "--timestamp", "1970-01-01T00:00:00+00:00",
        ]
        p1 = os.path.join(tmp, "a.csv")
        p2 = os.path.join(tmp, "b.csv")
        cli.main(argv + ["--out", p1])
        cli.main(argv + ["--out", p2])
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            same = f1.read() == f2.read()
    return same, "identical manifest reproduces the CSV byte for byte"


SUITES: dict[str, list[Check]] = {
    "jet": [
        ("jet.product_rule", _chk_product_rule),
        ("jet.finite_difference", _chk_jet_fd),
        ("jet.division_roundtrip", _chk_div_roundtrip),
    ],
    "specfun": [
        ("specfun.lambert_w_roundtrip", _chk_lambert),
        ("specfun.bessel_recurrence", _chk_bessel_recurrence),
        ("specfun.debye_crossover", _chk_debye_crossover),
        ("specfun.monotone_ranges", _chk_monotone_ranges),
        ("specfun.qinv_roundtrip", _chk_qinv),
        ("specfun.bessel_ranges", _chk_bessel_ranges),
    ],
    "bounds": [
        ("bounds.closed_form_agreement", _chk_closed_form),
        ("bounds.oracle_sandwich", _chk_sandwich),
        ("bounds.iterate_ordering", _chk_ordering),
        ("bounds.limit_preservation", _chk_limit_preservation),
        ("bounds.rate_closed_form_agreement", _chk_rate_agreement),
        ("bounds.tightness_reflection", _chk_tightness_reflection),
        ("bounds.markov_chernoff_upper", _chk_markov_chernoff),
        ("bounds.pdf_normalization", _chk_normalization),
        ("bounds.oracle_self_consistency", _chk_oracle_consistency),
    ],
    "awgn": [
        ("awgn.appendix_identities", _chk_appendix_identities),
        ("awgn.oracle_sandwich", _chk_awgn_sandwich),
        ("awgn.solve_residual", _chk_solve_residual),
        ("awgn.rate_asymptotic_shape", _chk_rate_asym_shape),
    ],
    "cli": [
        ("cli.csv_byte_identical_rerun", _chk_csv_rerun),
    ],
}


def run_suites(names: list[str], tol_overrides: dict[str, float] | None = None, out=print) -> bool:
    tols = dict(DEFAULT_TOLS)
    if tol_overrides:
        unknown = set(tol_overrides) - set(tols)
        if unknown:
            from .errors import DomainError

            raise DomainError(f"unknown tolerance keys: {sorted(unknown)}")
        tols.update(tol_overrides)
    selected = []
    for name in names:
        if name == "all":
            for suite in SUITES.values():
                selected.extend(suite)
        else:
            selected.extend(SUITES[name])
    all_ok = True
    for label, fn in selected:
        try:
            ok, detail = fn(tols)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"crashed: {exc!r}"
        all_ok = all_ok and ok
        out(f"{'PASS' if ok else 'FAIL'}  {label:36s} {detail}")
    return all_ok
