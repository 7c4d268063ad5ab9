"""Acceptance suite: one test per criterion, each printing a pass/fail
line and enforcing its stated tolerance and runtime budget.

The invariants with fixed inputs (the closed-form iterates, the oracle
sandwiches, the Appendix identities, ...) live as checks in
``tailkit verify``'s registry; test 10 runs each check as its own case.
Tests 03 and 06 still assert the oracle sandwich and the Appendix
identities directly.

Two sub-criteria are mathematically unattainable as stated and are
marked strict-xfail, each with its analysis in the xfail reason and
summarised in the README's "Tests and acceptance suite" paragraph: the
beta prime high-iterate slope window (test 04b) and the every-n
midpoint comparison of the two rate approximations (test 08b).
"""

import ast
import contextlib
import io
import math
import pathlib
import re
import time

import numpy as np
import pytest

from conftest import chain
from tailkit import awgn as A
from tailkit import dist as D
from tailkit import engine as E
from tailkit import oracle as O
from tailkit import verify as V
from tailkit.engine import GridSpec, SeedKind, TailSide, Verdict
from tailkit.errors import PoleEncountered


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


def test_02_readme_quick_tour():
    """README's one python block, the Quick tour, runs on the public
    signatures and prints the verdict sequence of test 02."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(blocks[0], {})
    assert ast.literal_eval(out.getvalue().splitlines()[0]) == ["U", "L", "U", "L", "U"]


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
        assert abs(E.convergence_rate(seed, 2.0) - 0.25) < 1e-10


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
    """|solve_lambda(P0) - lambda_asymptotic| shrinks by more than 5x
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
            assert d6 * 5.0 < d4, (om, d4, d6)


_CHECKS = [check for suite in V.SUITES.values() for check in suite]


@pytest.mark.parametrize("label, check", _CHECKS, ids=[label for label, _ in _CHECKS])
def test_10_invariant(label, check):
    """Each registered invariant (the closed-form iterates, the oracle
    sandwiches, the Lemma-3 ordering, the Appendix identities, ...)
    passes within its bound."""
    with criterion(f"10 {label}", budget_s=5.0):
        ok, detail = check()
        assert ok, detail


def test_10_registry_is_whole():
    """Labels are unique and carry their suite's name."""
    labels = [label for label, _ in _CHECKS]
    assert len(set(labels)) == len(labels)
    for suite, checks in V.SUITES.items():
        assert all(label.startswith(suite + ".") for label, _ in checks), suite


def test_10_ordering_fails_when_no_point_compares(monkeypatch):
    """An evaluation error other than a pole fails iterate_ordering
    instead of skipping the point, and so does a pair left with no point
    to compare."""
    check = dict(V.SUITES["bounds"])["bounds.iterate_ordering"]

    def raising(self, x):
        raise TypeError("no value")

    with monkeypatch.context() as m:
        m.setattr(E.BoundIterate, "value", raising)
        ok, detail = V.run_check(check)
    assert not ok and "TypeError" in detail

    def pole(self, x):
        raise PoleEncountered("pole")

    monkeypatch.setattr(E.BoundIterate, "value", pole)
    ok, detail = V.run_check(check)
    assert not ok and "compared no point" in detail
