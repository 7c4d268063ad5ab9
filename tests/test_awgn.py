import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from tailkit import awgn as A
from tailkit import jet as J
from tailkit import oracle as O
from tailkit import specfun as sf
from tailkit.errors import BracketFailed, OutOfValidity, ParamError
from tailkit.jet import jet_var

CFG200 = A.AwgnConfig(200, 1.0, 1e-3)
PAIRS = [(om, eps) for om in (0.5, 1.0, 5.0) for eps in (1e-3, 1e-5)]


def debye_u(count):
    """The polynomials U_0 .. U_{count-1} of the Debye expansion of I_mu, as
    exact coefficient lists in p, from the recurrence of DLMF 10.41.10:
    U_{k+1}(p) = p^2 (1 - p^2) U_k'(p)/2 + (1/8) int_0^p (1 - 5 t^2) U_k(t) dt."""
    polys = [[Fraction(1)]]
    for _ in range(count - 1):
        nxt = [Fraction(0)] * (len(polys[-1]) + 3)
        for j, c in enumerate(polys[-1]):
            nxt[j + 1] += Fraction(j, 2) * c + c / (8 * (j + 1))
            nxt[j + 3] -= Fraction(j, 2) * c + 5 * c / (8 * (j + 3))
        polys.append(nxt)
    return polys


#: 20 terms: the first omitted one is below 1e-59 from order 1e3 on
DEBYE_U = debye_u(20)


def mp_log_i(mu, u):
    """ln I_mu(u) at the working precision: mpmath's besseli below order
    1e3, and from there on, where besseli slows down, the Debye series
    over ``DEBYE_U`` (DLMF 10.41.3)."""
    if mu < 1000:
        return mp.log(mp.besseli(mu, u, maxterms=10**6))
    z = u / mu
    w = mp.sqrt(1 + z * z)
    p = 1 / w
    series = mp.fsum(
        mp.fsum(mp.mpf(c.numerator) / c.denominator * p**j for j, c in enumerate(poly) if c) / mu**k
        for k, poly in enumerate(DEBYE_U)
    )
    return mu * (w + mp.log(z / (1 + w))) - mp.log(2 * mp.pi) / 2 - mp.log(mu) / 2 - mp.log(w) / 2 + mp.log(series)


def mp_log_bound(k, s, x, right, iterate):
    """ln P0 (the seed 2 x f / bracket), or with ``iterate`` ln f - ln(-+(ln P0)'),
    at the working precision from ln I_{nu-1}, ln I_nu, nu = k/2,
    u = sqrt(s x), with the derivatives by the quotient rule on
    I'_{nu-1} = I_nu + ((nu-1)/u) I_{nu-1} and I'_nu = I_{nu-1} - (nu/u) I_nu."""
    k, s, x = mp.mpf(k), mp.mpf(s), mp.mpf(x)
    nu = k / 2
    u = mp.sqrt(s * x)
    du = s / (2 * u)
    log_i0 = mp_log_i(nu - 1, u)
    r = mp.exp(mp_log_i(nu, u) - log_i0)  # I_nu / I_{nu-1}
    ln_f = -mp.log(2) - (x + s) / 2 + (nu - 1) / 2 * mp.log(x / s) + log_i0
    ur = u * r
    bracket = (x - k + 2 - ur) if right else (k - x + ur)
    if not iterate:
        return mp.log(2 * x) + ln_f - mp.log(bracket)
    d_ln_f = -mp.mpf(1) / 2 + (nu - 1) / (2 * x) + (r + (nu - 1) / u) * du
    d_ur = du * (r + u * (1 - nu / u * r - r * (r + (nu - 1) / u)))
    d_bracket = (1 - d_ur) if right else (d_ur - 1)
    d_lp0 = 1 / x + d_ln_f - d_bracket / bracket
    return ln_f - mp.log(-d_lp0 if right else d_lp0)


def mp_log_first_iterate(k, s, x, right):
    """ln f - ln(-+(ln P0)') at 30 digits (``mp_log_bound``)."""
    with mp.workdps(30):
        return float(mp_log_bound(k, s, x, right, True))


def jet_log_first_iterate(k, s, x, right):
    """The same quantity with (ln P0)' read off order-1 jets of the log
    seed, the Bessel pair propagated along u(x) by its ODE."""
    xj = jet_var(x, 1)
    u = J.sqrt(s * xj)
    log_lower, log_upper = sf.log_bessel_i_jet(0.5 * k, u)
    ln_f = -math.log(2.0) - 0.5 * (xj + s) + (0.25 * k - 0.5) * (J.ln(xj) - math.log(s)) + u + log_lower
    ur = u * J.exp(log_upper - log_lower)
    bracket = (xj - k + 2.0 - ur) if right else (k - xj + ur)
    dlp0 = (math.log(2.0) + J.ln(xj) + ln_f - J.ln(bracket)).coeffs[1]
    return ln_f.value - math.log(-dlp0 if right else dlp0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParamError):
            A.AwgnConfig(1, 1.0, 1e-3)
        with pytest.raises(ParamError):
            A.AwgnConfig(100, -1.0, 1e-3)
        with pytest.raises(ParamError):
            A.AwgnConfig(100, 1.0, 1.5)

    def test_capacity(self):
        assert A.capacity(1.0) == 0.5
        assert abs(A.capacity(3.0) - 1.0) < 1e-15


class TestSeedBounds:
    # lambda = 2.3 at n = 200, Omega = 1: the MD right tail of ncx2(200, 200)
    # at 460 and the FA left tail of ncx2(200, 400) at 230
    LN_MD = O.ncchi2_sf_log(200.0, 200.0, 460.0)
    LN_FA = O.ncchi2_cdf_log(200.0, 400.0, 230.0)

    def test_p0_md_between_zero_and_one_and_above_oracle(self):
        v = A.log_p0_md(CFG200, 2.3)
        assert self.LN_MD <= v < 0.0

    def test_p0_md_strictly_decreasing(self):
        vals = [A.log_p0_md(CFG200, lam) for lam in np.linspace(2.05, 4.0, 61)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_p0_fa_above_oracle_left_tail(self):
        assert A.log_p0_fa(CFG200, 2.3) >= self.LN_FA

    def test_p1_sandwich_md(self):
        assert A.log_p1_md(CFG200, 2.3) <= self.LN_MD <= A.log_p0_md(CFG200, 2.3)

    def test_p1_sandwich_fa(self):
        assert A.log_p1_fa(CFG200, 2.3) <= self.LN_FA <= A.log_p0_fa(CFG200, 2.3)

    def test_out_of_validity_below_threshold(self):
        with pytest.raises(OutOfValidity):
            A.log_p0_md(CFG200, 1.01)  # below the validity wall near lambda0

    def test_value_above_one_flagged(self):
        # just above the validity wall the bound blows past one
        assert A.log_p0_md(CFG200, 2.02) > 0.0


class TestFirstIterate:
    @pytest.mark.parametrize("n", [1000, 10000])
    @pytest.mark.parametrize("om", [0.5, 1.0, 5.0])
    def test_matches_mpmath(self, n, om):
        cfg = A.AwgnConfig(n, om, 1e-3)
        lam = A.lambda_asymptotic(cfg)
        for got, args, right in (
            (A.log_p1_md(cfg, lam), A._md_args(cfg, lam), True),
            (A.log_p1_fa(cfg, lam), A._fa_args(cfg, lam), False),
        ):
            want = mp_log_first_iterate(*args, right)
            assert abs(got - want) <= 5e-13 * abs(want), (right, got, want)

    @pytest.mark.parametrize("n, om, lam", [(200, 1.0, 2.3), (200, 0.5, 3.4), (1000, 5.0, 1.3), (5000, 1.0, 2.05)])
    def test_matches_order_one_jets(self, n, om, lam):
        cfg = A.AwgnConfig(n, om, 1e-3)
        for got, args, right in (
            (A.log_p1_md(cfg, lam), A._md_args(cfg, lam), True),
            (A.log_p1_fa(cfg, lam), A._fa_args(cfg, lam), False),
        ):
            want = jet_log_first_iterate(*args, right)
            assert abs(got - want) <= 1e-10 * abs(want), (right, got, want)


class TestSlopes:
    """The slope each log bound carries, its derivative in lambda, against
    mpmath's numerical derivative of the same bound at 40 digits: the MD
    bounds at n lambda (the solves step on these) and the FA bounds at
    n lambda/(1 + Omega)."""

    @pytest.mark.parametrize("n", [200, 10**4, 10**6])
    @pytest.mark.parametrize("om, eps", PAIRS)
    def test_matches_mpmath_derivative(self, n, om, eps):
        cfg = A.AwgnConfig(n, om, eps)
        lam = A.lambda_asymptotic(cfg)
        # (ln P1)' takes (ln P0)'', whose O(n) terms cancel more than (ln P0)''s
        for log_bound, args, right, iterate, rel in (
            (A.log_p0_md, A._md_args, True, False, 1e-15 * n),
            (A.log_p1_md, A._md_args, True, True, 4e-14 * n),
            (A.log_p0_fa, A._fa_args, False, False, 1e-15 * n),
            (A.log_p1_fa, A._fa_args, False, True, 4e-14 * n),
        ):
            with mp.workdps(40):
                want = float(mp.diff(lambda L: mp_log_bound(*args(cfg, L), right, iterate), mp.mpf(lam)))
            got = log_bound(cfg, lam).slope
            assert abs(got - want) <= rel * abs(want), (log_bound.__name__, got, want)

    @pytest.mark.parametrize("n", [200, 10**4, 10**6])
    @pytest.mark.parametrize("om, eps", PAIRS)
    def test_curvature_matches_mpmath_second_derivative(self, n, om, eps):
        # the curvature the Halley steps take, against mpmath's second
        # derivative of the same bound at 40 digits. Each derivative taken
        # through the Riccati equation cancels O(1) terms down to O(1/n):
        # (ln P0)'' holds about n^1.5 ulp, and (ln P1)'', which takes the
        # third derivative of ln P0, about n^2 ulp (1.2e-4 relative at n = 1e6)
        cfg = A.AwgnConfig(n, om, eps)
        lam = A.lambda_asymptotic(cfg)
        for log_bound, args, right, iterate, rel in (
            (A.log_p0_md, A._md_args, True, False, 1e-15 * n**1.5),
            (A.log_p1_md, A._md_args, True, True, 1e-15 * n**2),
            (A.log_p0_fa, A._fa_args, False, False, 1e-15 * n**1.5),
            (A.log_p1_fa, A._fa_args, False, True, 1e-15 * n**2),
        ):
            with mp.workdps(40):
                want = float(mp.diff(lambda L: mp_log_bound(*args(cfg, L), right, iterate), mp.mpf(lam), 2))
            got = log_bound(cfg, lam).curvature
            assert abs(got - want) <= rel * abs(want), (log_bound.__name__, got, want)


class TestSolveLambda:
    def test_solution_above_lambda0(self):
        assert A.solve_lambda(CFG200, "p0") > 2.0

    def test_p1_solution_below_p0(self):
        assert A.solve_lambda(CFG200, "p1") <= A.solve_lambda(CFG200, "p0")

    @pytest.mark.parametrize("om, eps", [(1.0, 1e-3), (0.5, 1e-5)])
    def test_p1_residual_at_one_hundred_thousand(self, om, eps):
        cfg = A.AwgnConfig(10**5, om, eps)
        lam = A.solve_lambda(cfg, "p1")
        assert abs(A.log_p1_md(cfg, lam) - math.log(eps)) <= 1e-10

    @pytest.mark.parametrize("n", [200, 1000, 10000])
    def test_few_bound_evaluations_per_solve(self, monkeypatch, n):
        calls = []
        for name in ("log_p0_md", "log_p1_md"):
            bound = getattr(A, name)
            monkeypatch.setattr(A, name, lambda cfg, lam, bound=bound: calls.append(lam) or bound(cfg, lam))
        for om, eps in PAIRS:
            for which in ("p0", "p1"):
                calls.clear()
                lam = A.solve_lambda(A.AwgnConfig(n, om, eps), which)
                assert len(calls) <= 3, (om, eps, which, len(calls))
                assert lam.evaluations == len(calls)

    @pytest.mark.parametrize("n", [10**3, 10**5, 10**7, 10**8])
    def test_bound_evaluations_per_job(self, monkeypatch, n):
        # one wrapped call per Bessel pair, all counted by the two solves: the
        # P1 solve starts at lambda_p0 from the P0 solve's pair there, and a
        # solve ends at the bound's rounding level rather than seeding a bracket
        calls = []
        for name in ("log_p0_md", "log_p1_md"):
            bound = getattr(A, name)
            monkeypatch.setattr(A, name, lambda cfg, lam, bound=bound: calls.append(lam) or bound(cfg, lam))
        for om, eps in PAIRS:
            calls.clear()
            p = A.converse_bounds(A.AwgnConfig(n, om, eps))
            assert len(calls) == p.lambda_p0.evaluations + p.lambda_p1.evaluations
            assert len(calls) <= (5 if n <= 10**5 else 8), (om, eps, len(calls))

    def test_plain_float_bound_solves_by_the_fallback(self, monkeypatch):
        # a bound without a slope takes the seeded bracket and Illinois steps
        for n in (200, 10**4):
            cfg = A.AwgnConfig(n, 1.0, 1e-3)
            for which, name in (("p0", "log_p0_md"), ("p1", "log_p1_md")):
                want = A.solve_lambda(cfg, which)
                bound = getattr(A, name)
                monkeypatch.setattr(A, name, lambda cfg, lam, bound=bound: float(bound(cfg, lam)))
                got = A.solve_lambda(cfg, which)
                monkeypatch.undo()
                assert got.evaluations > want.evaluations and got.log_residual <= 1e-10
                assert abs(got - want) <= 1e-12 * want, (n, which, got, want)

    @pytest.mark.parametrize("n", [10**4, 10**7])
    def test_point_carries_the_solve_residuals(self, monkeypatch, n):
        cfg = A.AwgnConfig(n, 1.0, 1e-3)
        calls = []
        for name in ("log_p0_md", "log_p1_md"):
            bound = getattr(A, name)
            monkeypatch.setattr(A, name, lambda cfg, lam, bound=bound: calls.append(lam) or bound(cfg, lam))
        p = A.converse_bounds(cfg)
        in_bounds = len(calls)
        calls.clear()
        assert A.solve_lambda(cfg, "p0").evaluations == len(calls) == p.lambda_p0.evaluations
        # the residuals cost no evaluation (the P1 solve starts at lambda_p0,
        # from the P0 solve's Bessel pair there)
        assert in_bounds == p.lambda_p0.evaluations + p.lambda_p1.evaluations
        monkeypatch.undo()
        assert p.log_residual_p0 == abs(A.log_p0_md(cfg, p.lambda_p0) - math.log(cfg.eps))
        assert p.log_residual_p1 == abs(A.log_p1_md(cfg, p.lambda_p1) - math.log(cfg.eps))
        if n == 10**4:
            assert max(p.log_residual_p0, p.log_residual_p1) <= 1e-10

    def test_bracket_failure_when_target_unreachable(self, monkeypatch):
        # the MD equation always has a root on the valid branch (the
        # bound blows up at the validity wall), so unreachability is
        # simulated by a bound stuck below eps
        monkeypatch.setattr(A, "log_p0_md", lambda cfg, lam: -1e9)
        with pytest.raises(BracketFailed):
            A.solve_lambda(CFG200, "p0")


class TestAsymptotics:
    def test_lambda_limit(self):
        cfg = A.AwgnConfig(10**8, 1.0, 1e-3)
        assert abs(A.lambda_asymptotic(cfg) - 2.0) < 1e-3

    def test_rate_formula_at_lambda0_is_capacity(self):
        for om in (0.5, 1.0, 2.0, 5.0):
            assert abs(A.rate_formula(om, A.lambda0(om)) - A.capacity(om)) < 1e-12

    def test_normal_approximation_value(self):
        # evaluated independently: V = 3/8 (log2 e)^2, Qinv(1e-3) ~ 3.0902
        cfg = A.AwgnConfig(1000, 1.0, 1e-3)
        log2e = 1.0 / math.log(2.0)
        want = 0.5 - math.sqrt(0.375 * log2e**2 / 1000.0) * sf.gaussian_q_inverse(1e-3) + math.log2(1000) / 2000.0
        got = A.normal_approximation(cfg)
        assert abs(got - want) < 1e-12
        assert abs(got - 0.4186) < 2e-4

    def test_eps_balance_solution(self):
        # the Lambert-W displacement solves the scaled balance equation
        for om, eps in ((1.0, 1e-3), (5.0, 1e-5)):
            d = A.debye_internals(om)
            w = sf.lambert_w0(1.0 / (2.0 * math.pi * eps * eps))
            u = math.sqrt(2.0 * (om + 2.0) / om * w)
            assert abs(d["eps_balance"](u) - eps) / eps < 1e-10


class TestDebyeInternals:
    @pytest.mark.parametrize("om", [0.5, 1.0, 2.0, 5.0])
    def test_phi_vanishes_at_lambda0(self, om):
        assert abs(A.debye_internals(om)["phi"]) <= 1e-12

    @pytest.mark.parametrize("om", [0.5, 1.0, 2.0, 5.0])
    def test_phi_prime_zero_by_finite_difference(self, om):
        lam0 = A.lambda0(om)
        h = 1e-6 * lam0
        fd = (A._phi(om, lam0 + h) - A._phi(om, lam0 - h)) / (2 * h)
        assert abs(fd) <= 1e-9

    def test_phi_second_closed_values(self):
        assert abs(A.debye_internals(2.0)["phi2_at_lambda0"] + 0.25) < 1e-10
        for om in (0.5, 1.0, 5.0):
            want = -om / (2.0 * (om + 2.0))
            assert abs(A.debye_internals(om)["phi2_at_lambda0"] - want) < 1e-10

    def test_jprime_closed_values(self):
        assert abs(A.debye_internals(1.0)["jprime_at_lambda0"] + 2.0 / 3.0) < 1e-10
        for om in (0.5, 2.0, 5.0):
            want = -(om + 1.0) / (om + 2.0)
            assert abs(A.debye_internals(om)["jprime_at_lambda0"] - want) < 1e-10

    def test_phi_prime_analytic_matches_fd_away_from_lambda0(self):
        om, lam = 1.5, 3.1
        h = 1e-6
        fd = (A._phi(om, lam + h) - A._phi(om, lam - h)) / (2 * h)
        assert abs(A._phi_prime(om, lam) - fd) < 1e-9


class TestConverseBounds:
    def test_point_fields(self):
        p = A.converse_bounds(CFG200)
        assert p.capacity == 0.5
        assert p.r_lower <= p.r_upper
        assert p.lambda_p0 > A.lambda0(1.0)
        assert p.lambda_p1 <= p.lambda_p0

    def test_oracle_inside_sandwich_at_ten_thousand(self):
        for om, eps in ((1.0, 1e-3), (5.0, 1e-5)):
            cfg = A.AwgnConfig(10**4, om, eps)
            p = A.converse_bounds(cfg)
            assert p.r_lower <= A.oracle_converse(cfg) <= p.r_upper

    @pytest.mark.parametrize("n", [10**5, 10**6])
    def test_oracle_inside_sandwich_up_to_the_cli_cap(self, n):
        for om, eps in PAIRS:
            cfg = A.AwgnConfig(n, om, eps)
            p = A.converse_bounds(cfg)
            assert p.r_lower <= A.oracle_converse(cfg) <= p.r_upper, (om, eps)

    def test_stable_at_ten_million(self):
        # the log-space assembly stays finite and ordered at n = 1e7
        for om, eps in ((1.0, 1e-3), (5.0, 1e-5)):
            p = A.converse_bounds(A.AwgnConfig(10**7, om, eps))
            assert math.isfinite(p.r_lower) and math.isfinite(p.r_upper)
            assert p.r_lower <= p.r_upper <= A.capacity(om)
            assert p.r_upper - p.r_lower < 1e-5
