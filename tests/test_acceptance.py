"""Acceptance suite: one test per criterion, each printing a pass/fail
line and enforcing its stated tolerance and runtime budget.

Two sub-criteria are mathematically unattainable as stated and are
marked strict-xfail, each with its analysis in the xfail reason and
summarised in the README's "Tests and acceptance suite" paragraph: the
beta prime high-iterate slope window (test 04b) and the every-n
midpoint comparison of the two rate approximations (test 08b).
"""

import contextlib
import math
import time

import numpy as np
import pytest

from tailkit import awgn as A
from tailkit import dist as D
from tailkit import engine as E
from tailkit import oracle as O
from tailkit import verify as V
from tailkit.engine import GridSpec, SeedKind, TailSide, Verdict


@contextlib.contextmanager
def criterion(label: str, budget_s: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL ({time.perf_counter() - t0:.2f}s)", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s)", flush=True)
    if budget_s is not None:
        assert elapsed < budget_s, f"runtime {elapsed:.2f}s over budget {budget_s}s"


def chain(dist, seed, side, depth):
    out = [E.make_seed(dist, seed, side)]
    for _ in range(depth):
        out.append(E.iterate(out[-1]))
    return out


def test_01_closed_form_agreement():
    """Jet-engine P0..P3 for Gaussian(-1.7, 1.9) match the printed
    formulas to 1e-9 relative at 50 geometric points."""
    with criterion("01 closed-form agreement", budget_s=1.0):
        g = D.make_gaussian(-1.7, 1.9)
        its = chain(g, SeedKind.PDF, TailSide.RIGHT, 3)
        for x in np.geomspace(1.0, 30.0, 50):
            for i, it in enumerate(its):
                got = it.value(float(x))
                want = D.gaussian_closed_iterates(-1.7, 1.9, i, float(x))
                assert abs(got - want) <= 1e-9 * abs(want), (i, x)


def test_02_verdict_sequence():
    """Published algorithm on the standard Gaussian pdf seed gives
    [U, L, U, L, U] for P0..P4; the P2 threshold sits at sqrt(sqrt2-1)
    to 1e-6."""
    with criterion("02 verdict sequence", budget_s=5.0):
        g = D.make_gaussian(0.0, 1.0)
        res = E.run_algorithm(g, SeedKind.PDF, TailSide.RIGHT, 2.0, 4, (2.0, 8.0))
        assert [v.value for v in res.verdicts] == ["U", "L", "U", "L", "U"]
        p2 = res.iterates[2][0]
        cls2 = E.classify(p2, (0.1, 8.0))
        assert abs(cls2.threshold - math.sqrt(math.sqrt(2.0) - 1.0)) <= 1e-6


def test_03_oracle_sandwich():
    """Upper-classified iterates stay above the oracle tail and
    lower-classified ones below it (tolerance 1e-9 + oracle error) at
    100 grid points for each catalog distribution."""
    with criterion("03 oracle sandwich", budget_s=30.0):
        cases = [
            (D.make_gaussian(-1.7, 1.9), SeedKind.PDF, TailSide.RIGHT, (1.0, 30.0)),
            (D.make_beta_prime(2.1, 1.3), SeedKind.SHIFTED_PDF, TailSide.RIGHT, (2.0, 60.0)),
            (D.make_noncentral_chi2(10.0, 2.0), SeedKind.SHIFTED_PDF, TailSide.LEFT, (0.05, 6.0)),
        ]
        tol = 1e-9 + 1e-11
        for dist, seed, side, window in cases:
            for it in chain(dist, seed, side, 4):
                cls = E.classify(it, window, GridSpec(128))
                assert cls.verdict is not Verdict.INVALID
                lo = cls.threshold if side is TailSide.RIGHT else window[0]
                hi = window[1] if side is TailSide.RIGHT else cls.threshold
                for x in np.geomspace(lo * (1 + 1e-7) + 1e-9, hi, 100):
                    x = float(x)
                    truth = O.oracle_tail(dist, x) if side is TailSide.RIGHT else O.oracle_cdf(dist, x)
                    v = it.value(x)
                    if cls.verdict in (Verdict.UPPER, Verdict.EXACT):
                        assert v >= truth - tol, (dist.name, it.index, x)
                    if cls.verdict in (Verdict.LOWER, Verdict.EXACT):
                        assert v <= truth + tol, (dist.name, it.index, x)


def _fit(rates_fn, its, xs, regress):
    slopes = []
    for it in its:
        rs = np.array([rates_fn(it, float(x)) for x in xs])
        slopes.append(np.polyfit(np.log(regress(xs)), np.log(rs), 1)[0])
    return slopes


def test_04_convergence_rate_slopes():
    """Figure-rate log-log slopes: -2, -4, -6, -8 for the Gaussian
    (regressed against the standardized (x-mu)/sigma, where the printed
    rates are exact powers), +1 for the ncchi2 left tail on [0.01, 0.5],
    and -1 for the beta prime on an asymptotic window, all +-0.2."""
    with criterion("04 convergence-rate slopes", budget_s=30.0):
        g = D.make_gaussian(-1.7, 1.9)
        gs = _fit(E.figure_rate, chain(g, SeedKind.PDF, TailSide.RIGHT, 4)[:4],
                  np.geomspace(10.0, 100.0, 64), lambda x: (x + 1.7) / 1.9)
        for got, want in zip(gs, (-2.0, -4.0, -6.0, -8.0)):
            assert abs(got - want) <= 0.2, gs

        nc = D.make_noncentral_chi2(10.0, 2.0)
        ns = _fit(E.figure_rate, chain(nc, SeedKind.SHIFTED_PDF, TailSide.LEFT, 4)[:4],
                  np.geomspace(0.01, 0.5, 64), lambda x: x)
        for got in ns:
            assert abs(got - 1.0) <= 0.2, ns

        bp = D.make_beta_prime(2.1, 1.3)
        bs = _fit(E.figure_rate, chain(bp, SeedKind.SHIFTED_PDF, TailSide.RIGHT, 4)[:4],
                  np.geomspace(100.0, 1e4, 64), lambda x: x)
        for got in bs:
            assert abs(got - (-1.0)) <= 0.2, bs


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the beta prime R2/R3 rates carry 1/x^2 "
    "corrections 13.8x and 27.4x the leading 1/x coefficient, so on the "
    "shared [10, 100] window their fitted slopes are -1.36/-1.87 for any "
    "rate orientation; the 1/x law emerges only beyond x ~ 10^2 "
    "(see the README, Tests and acceptance suite)",
)
def test_04b_beta_prime_high_iterate_slopes_stated_window():
    with criterion("04b beta prime slopes on [10,100] as stated"):
        bp = D.make_beta_prime(2.1, 1.3)
        bs = _fit(E.figure_rate, chain(bp, SeedKind.SHIFTED_PDF, TailSide.RIGHT, 4)[:4],
                  np.geomspace(10.0, 100.0, 64), lambda x: x)
        for got in bs:
            assert abs(got - (-1.0)) <= 0.2, bs


def test_05_exact_rate_value():
    """Derivative-form R0 for the standard Gaussian at x=2 equals
    sigma^2/(x-mu)^2 = 0.25 to 1e-10."""
    with criterion("05 exact rate value"):
        g = D.make_gaussian(0.0, 1.0)
        seed = E.make_seed(g, SeedKind.PDF, TailSide.RIGHT)
        assert abs(E.convergence_rate(seed, 2.0) - 0.25) <= 1e-10


def test_06_appendix_identities():
    """Phi(lambda0) = 0 to 1e-12, finite-difference Phi'(lambda0) below
    1e-9, and the closed second-derivative/denominator-slope constants
    to 1e-10, for Omega in {0.5, 1, 2, 5}."""
    with criterion("06 appendix identities"):
        for om in (0.5, 1.0, 2.0, 5.0):
            d = A.debye_internals(om)
            lam0 = d["lambda0"]
            assert abs(d["phi"]) <= 1e-12
            h = 1e-6 * lam0
            fd = (A._phi(om, lam0 + h) - A._phi(om, lam0 - h)) / (2 * h)
            assert abs(fd) <= 1e-9
            assert abs(d["phi2_at_lambda0"] + om / (2.0 * (om + 2.0))) <= 1e-10
            assert abs(d["jprime_at_lambda0"] + (om + 1.0) / (om + 2.0)) <= 1e-10


def test_07_awgn_sandwich():
    """r_lower <= oracle converse <= r_upper with a monotonically
    shrinking gap, for both (Omega, eps) pairs and n in
    {200, 500, 1000, 2000}."""
    with criterion("07 awgn sandwich", budget_s=120.0):
        for om, eps in ((1.0, 1e-3), (5.0, 1e-5)):
            prev_gap = None
            for n in (200, 500, 1000, 2000):
                cfg = A.AwgnConfig(n, om, eps)
                p = A.converse_bounds(cfg)
                oc = A.oracle_converse(cfg)
                assert p.r_lower <= oc <= p.r_upper, (om, n)
                gap = p.r_upper - p.r_lower
                if prev_gap is not None:
                    assert gap < prev_gap, (om, n)
                prev_gap = gap


def test_08a_asymptotic_rate_reaches_capacity():
    """|C - r_asym| <= 5e-3 bits at n = 10^6 for both pairs, and the
    asymptotic rate improves monotonically toward capacity."""
    with criterion("08a asymptotic rate reaches capacity"):
        for om, eps in ((1.0, 1e-3), (5.0, 1e-5)):
            r = A.rate_asymptotic(A.AwgnConfig(10**6, om, eps))
            assert abs(A.capacity(om) - r) <= 5e-3
            prev = -math.inf
            for n in np.geomspace(1e3, 1e6, 7):
                cur = A.rate_asymptotic(A.AwgnConfig(int(n), om, eps))
                assert prev < cur <= A.capacity(om)
                prev = cur


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: with the third-order log2(n)/(2n) term "
    "the normal approximation re-enters the sandwich and sits closer to the "
    "midpoint than the Debye asymptotic beyond n ~ 5e3 (Omega=1) / ~2e5 "
    "(Omega=5); verified against the bounds and the series oracle "
    "(see the README, Tests and acceptance suite)",
)
def test_08b_asym_beats_na_at_every_large_n_as_stated():
    with criterion("08b asym tighter than NA at every n >= 1e4 (as stated)"):
        for om, eps in ((1.0, 1e-3), (5.0, 1e-5)):
            for n in np.geomspace(1e3, 1e6, 10):
                n = int(round(n))
                if n < 10**4:
                    continue
                p = A.converse_bounds(A.AwgnConfig(n, om, eps))
                mid = 0.5 * (p.r_lower + p.r_upper)
                assert abs(p.r_asym - mid) < abs(p.r_na - mid), (om, n)


def test_08c_asym_tighter_than_na_vs_oracle():
    """Attainable core of the tightness claim: against the exact oracle
    converse at n <= 2000 the closed-form asymptotic rate beats the
    normal approximation for both pairs (at Omega = 1, eps = 1e-3 the
    normal approximation is the closer one from n ~ 2400 on)."""
    with criterion("08c asym tighter than NA vs oracle"):
        for om, eps in ((1.0, 1e-3), (5.0, 1e-5)):
            for n in (200, 500, 1000, 2000):
                cfg = A.AwgnConfig(n, om, eps)
                oc = A.oracle_converse(cfg)
                assert abs(A.rate_asymptotic(cfg) - oc) < abs(A.normal_approximation(cfg) - oc), (om, n)


def test_09_lambda_consistency():
    """|solve_lambda(P0) - lambda_asymptotic| shrinks by at least 5x
    from n = 10^4 to n = 10^6 for both pairs."""
    with criterion("09 lambda consistency"):
        for om, eps in ((1.0, 1e-3), (5.0, 1e-5)):
            d4 = abs(
                A.solve_lambda(A.AwgnConfig(10**4, om, eps), "p0")
                - A.lambda_asymptotic(A.AwgnConfig(10**4, om, eps))
            )
            d6 = abs(
                A.solve_lambda(A.AwgnConfig(10**6, om, eps), "p0")
                - A.lambda_asymptotic(A.AwgnConfig(10**6, om, eps))
            )
            assert d6 * 5.0 <= d4, (om, d4, d6)


def test_10_property_suites():
    """Every invariant suite (including the byte-identical CSV rerun)
    passes under the default tolerances."""
    with criterion("10 property suites", budget_s=120.0):
        messages = []
        ok = V.run_suites(["all"], out=messages.append)
        assert ok, "\n".join(m for m in messages if m.startswith("FAIL"))
