import math

import mpmath as mp
import numpy as np
import pytest

from tailkit import _kernels_py as kp
from tailkit import jet as J
from tailkit import specfun as sf
from tailkit.errors import DomainError
from tailkit.jet import Jet, jet_var

mp.mp.dps = 40


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestErfc:
    def test_symmetry_at_zero(self):
        assert sf.erfc(0.0) == 1.0

    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
    def test_reflection(self, x):
        assert abs(sf.erfc(x) + sf.erfc(-x) - 2.0) < 1e-15

    def test_value_from_normal_quadrature(self):
        # 2 * Pr{N(0,1) >= 2}, frozen from 50-digit quadrature of the
        # normal density over [2, inf)
        assert rel(sf.erfc(2.0 / math.sqrt(2.0)), 0.04550026389635841) < 1e-14

    def test_accuracy_sweep(self):
        for x in np.linspace(-6, 6, 121):
            assert rel(sf.erfc(float(x)), float(mp.erfc(mp.mpf(float(x))))) < 1e-14

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            sf.erfc(math.nan)


class TestGaussianQInverse:
    def test_median(self):
        assert sf.gaussian_q_inverse(0.5) == 0.0

    def test_value(self):
        # frozen from bisection against the erfc implementation
        assert abs(sf.gaussian_q_inverse(1e-3) - 3.0902323061678132) < 1e-9

    def test_symmetric_tail(self):
        assert abs(sf.gaussian_q_inverse(0.9) + sf.gaussian_q_inverse(0.1)) < 1e-12

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                sf.gaussian_q_inverse(bad)

    @pytest.mark.parametrize("eps", [5e-324, 1e-320, 1e-300, 1e-20, 1e-3, 0.5 - 1e-10, 0.5 + 1e-10, 1 - 1e-16])
    def test_round_trip_whole_domain(self, eps):
        # down to the smallest subnormal, where Q underflows to 0 on the
        # far side of the root: 1e-10 relative in Q where Q is a normal
        # double, one subnormal spacing where it is not
        x = sf.gaussian_q_inverse(eps)
        assert abs(sf.gaussian_q(x) - eps) <= max(1e-10 * eps, 5e-324)
        if eps > 0.5:
            assert x == -sf.gaussian_q_inverse(1.0 - eps)

    def test_subnormal_values(self):
        # Q(x) ~ phi(x)/x: the root of ln Q(x) = ln eps near 38.3 and 38.5
        assert abs(sf.gaussian_q_inverse(1e-320) - 38.2691284) < 1e-6
        assert abs(sf.gaussian_q_inverse(5e-324) - 38.4729647) < 1e-6


class TestIncompleteGamma:
    def test_zero(self):
        assert sf.reg_inc_gamma_P(2.5, 0.0) == 0.0

    @pytest.mark.parametrize("x", [0.5, 2.0])
    def test_exponential_special_case(self, x):
        assert rel(sf.reg_inc_gamma_P(1.0, x), 1.0 - math.exp(-x)) < 1e-14

    def test_against_mpmath(self):
        for a in (0.3, 1.7, 10.0, 120.5):
            for x in (0.01, 0.5, 3.0, 42.0, 180.0):
                got = sf.reg_inc_gamma_P(a, x)
                want = float(mp.gammainc(a, 0, x, regularized=True))
                assert abs(got - want) < 1e-12, (a, x)

    def test_log_version_deep_tail(self):
        got = sf.log_reg_inc_gamma_P(500.0, 100.0)
        want = float(mp.log(mp.gammainc(500, 0, 100, regularized=True)))
        assert rel(got, want) < 1e-12

    @pytest.mark.parametrize("a", [1e-300, 1e-20, 1e-12, 1e-8, 1e-5, 1e-3])
    @pytest.mark.parametrize("x", [1e-6, 1e-3, 0.1, 0.5, 1.0])
    def test_log_q_at_small_a(self, a, x):
        # P is near 1 here, so ln Q is not log1p(-P): at (1e-20, 1e-3) that
        # took log1p(-1), and at (1e-12, 1.0) it was 6e-4 off
        want = float(mp.log(mp.gammainc(a, x, mp.inf, regularized=True)))
        assert rel(sf.log_reg_inc_gamma_Q(a, x), want) <= 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.reg_inc_gamma_P(-1.0, 1.0)
        with pytest.raises(DomainError):
            sf.reg_inc_gamma_P(1.0, -1.0)

    @pytest.mark.parametrize("fn", [sf.reg_inc_gamma_P, sf.log_reg_inc_gamma_P, sf.log_reg_inc_gamma_Q])
    @pytest.mark.parametrize("a,x", [(math.inf, 1.0), (math.nan, 1.0), (0.0, 1.0), (1.0, math.inf), (1.0, math.nan), (1.0, -1.0)])
    def test_all_forms_reject_the_same_inputs(self, fn, a, x):
        # at once: a = inf used to spin the series to its step cap
        with pytest.raises(DomainError):
            fn(a, x)

    def test_forms_agree(self):
        for a in (0.3, 1.7, 10.0, 120.5):
            for x in (0.0, 0.01, 0.5, 3.0, 42.0, 180.0):
                ln_p = sf.log_reg_inc_gamma_P(a, x)
                assert sf.reg_inc_gamma_P(a, x) == min(1.0, math.exp(ln_p))
                assert abs(math.exp(ln_p) + math.exp(sf.log_reg_inc_gamma_Q(a, x)) - 1.0) < 1e-13


class TestIncompleteBeta:
    def test_endpoints(self):
        assert sf.reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert sf.reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_against_quadrature_oracle(self):
        # adaptive quadrature of the Beta(2.1, 1.3) density on [0, 0.5]
        a, b = 2.1, 1.3
        dens = lambda t: t ** (a - 1) * (1 - t) ** (b - 1)
        want = float(mp.quad(dens, [0, 0.5]) / mp.beta(a, b))
        assert abs(sf.reg_inc_beta(0.5, a, b) - want) < 1e-10

    def test_against_mpmath_sweep(self):
        for a, b in ((2.1, 1.3), (0.4, 0.7), (8.0, 3.5)):
            for x in (0.05, 0.3, 0.62, 0.97):
                got = sf.reg_inc_beta(x, a, b)
                want = float(mp.betainc(a, b, 0, x, regularized=True))
                assert abs(got - want) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.reg_inc_beta(0.5, -1.0, 1.0)
        with pytest.raises(DomainError):
            sf.reg_inc_beta(1.5, 1.0, 1.0)


class TestLambertW:
    def test_zero(self):
        assert sf.lambert_w0(0.0) == 0.0

    def test_at_e(self):
        assert abs(sf.lambert_w0(math.e) - 1.0) < 1e-14

    def test_capacity_argument(self):
        x = 1.0 / (2.0 * math.pi * 1e-6)
        w = sf.lambert_w0(x)
        assert abs(w * math.exp(w) - x) / x < 1e-12

    def test_near_branch_point(self):
        x = -1.0 / math.e + 1e-4
        w = sf.lambert_w0(x)
        assert abs(w * math.exp(w) - x) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.lambert_w0(-1.0)

    @pytest.mark.parametrize("x", [1e-3, 0.5, math.e, 10.0, 1e3, 1e100, 1e300])
    def test_from_the_logarithm(self, x):
        # from x = e on lambert_w0 is lambert_w0_exp(ln x): both against mpmath
        want = mp.lambertw(x)
        for w in (sf.lambert_w0(x), sf.lambert_w0_exp(math.log(x))):
            assert abs(w - want) <= 1e-15 * want, (w, want)

    @pytest.mark.parametrize("log_x", [710.0, 1384.0, 1e5])
    def test_from_the_logarithm_past_overflow(self, log_x):
        # e^log_x is not a double, but it is an mpf
        want = mp.lambertw(mp.exp(log_x))
        assert abs(sf.lambert_w0_exp(log_x) - want) <= 1e-15 * want


def _series_log_scaled(mu, u):
    """ln(e^{-u} I_mu(u)) by the ascending series, one order per loop: the
    reference for the loop that sums two orders together."""
    q = 0.25 * u * u
    term = np.ones_like(u)
    total = np.ones_like(u)
    j = 0
    while True:
        j += 1
        term = term * (q / (j * (mu + j)))
        total = total + term
        if (term < total * 1e-18).all():
            break
    return -u + mu * np.log(0.5 * u) - math.lgamma(mu + 1.0) + np.log(total)


#: The Debye U and V polynomials as float tables over every power of p,
#: zeros included
_PADDED_U, _PADDED_V = (
    [tuple(float(c) for c in poly) for poly in polys] for polys in (sf._DEBYE_U, sf._DEBYE_V)
)


def _polyval(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _uniform_pair_nested(nu, u):
    """The uniform expansion with a Horner over every power of p in each
    term and a division by nu between terms: the reference for the sums
    in p/nu and p^2 over the nonzero coefficients only."""
    z = u / nu
    w = math.sqrt(1.0 + z * z)
    p = 1.0 / w
    su = 0.0
    sv = 0.0
    for k in range(sf._DEBYE_TERMS, 0, -1):
        su = (su + _polyval(_PADDED_U[k], p)) / nu
        sv = (sv + _polyval(_PADDED_V[k], p)) / nu
    su += 1.0
    sv += 1.0
    log_upper = (
        nu * (1.0 / (w + z) - math.log((1.0 + w) / z))
        - 0.5 * math.log(2.0 * math.pi * nu)
        - 0.25 * math.log(1.0 + z * z)
        + math.log(su)
    )
    return log_upper, z / (1.0 + w * sv / su)


class TestScaledBessel:
    @pytest.mark.parametrize("nu,u", [(5.0, 10.0), (50.0, 120.0), (500.0, 900.0)])
    def test_three_term_recurrence(self, nu, u):
        r1 = sf.log_bessel_i_scaled(nu, u).ratio
        r2 = sf.log_bessel_i_scaled(nu + 1.0, u).ratio
        assert abs(1.0 / r1 - r2 - 2.0 * nu / u) / (2.0 * nu / u) < 1e-9

    def test_large_order_ratio_limit(self):
        # nu = 200, z = 1: ratio -> z/(1 + sqrt(1+z^2))
        pair = sf.log_bessel_i_scaled(200.0, 200.0)
        assert abs(pair.ratio - 1.0 / (1.0 + math.sqrt(2.0))) < 2e-3

    def test_leading_debye_match(self):
        # ln I_nu(nu z) vs the leading uniform term at nu=100, z=2
        nu, z = 100.0, 2.0
        u = nu * z
        pair = sf.log_bessel_i_scaled(nu + 1.0, u)  # lower order of the pair is nu
        ln_i = u + pair.log_scaled_lower
        eta = math.sqrt(1 + z * z) + math.log(z / (1 + math.sqrt(1 + z * z)))
        leading = nu * eta - 0.5 * math.log(2 * math.pi * nu) - 0.25 * math.log(1 + z * z)
        assert abs(ln_i - leading) <= 1e-2

    def test_against_mpmath_all_regimes(self):
        # the last rows are uniform-regime points at orders below 2, where
        # the expansion is at its least accurate, at orders of 1e3 and up,
        # and both regimes at orders below 1, where the lower order nu - 1
        # is negative (the ratio exceeds 1 at (0.25, 100))
        below_one = tuple((nu, u) for nu in (0.01, 0.25, 0.5, 0.99)
                          for u in (1e-6, 0.5, 8.0, 29.9, 30.01, 31.0, 45.0, 100.0, 2000.0))
        for nu, u in ((1.0, 0.5), (2.5, 8.0), (5.0, 29.0), (5.0, 31.0), (40.0, 15.0),
                      (200.0, 99.0), (200.0, 101.0), (1.0, 60.0), (1.3, 45.0), (800.0, 350.0),
                      (1.0, 2000.0), (1.5, 35.0), (1.99, 31.0), (1.9, 500.0),
                      (1000.0, 450.0), (1000.0, 600.0), (1000.0, 2500.0), (3000.0, 1600.0),
                      (3000.0, 7000.0)) + below_one:
            pair = sf.log_bessel_i_scaled(nu, u)
            want_l = float(mp.log(mp.besseli(nu - 1, u)) - u)
            want_r = float(mp.besseli(nu, u) / mp.besseli(nu - 1, u))
            assert rel(pair.log_scaled_lower, want_l) < 1e-11, (nu, u)
            assert rel(pair.ratio, want_r) < 1e-11, (nu, u)

    def test_ratio_above_one_below_order_half(self):
        # I_nu/I_{nu-1} nears 1 + (1/2 - nu)/u at large u (the value
        # itself is checked against mpmath above)
        assert sf.log_bessel_i_scaled(0.25, 100.0).ratio > 1.0025

    def test_debye_rows_drop_only_zeros(self):
        # U_k and V_k vanish off p^k, p^{k+2}, ..., p^{3k}
        assert len(sf._DEBYE_U) == len(sf._DEBYE_V) == sf._DEBYE_TERMS + 1
        for k, polys in enumerate(zip(sf._DEBYE_U, sf._DEBYE_V)):
            for poly in polys:
                assert len(poly) == 3 * k + 1
                assert all(c == 0 for j, c in enumerate(poly) if j < k or (j - k) % 2), k

    def test_uniform_pair_matches_nested_polyval(self):
        # the sums in p/nu and p^2 against the Horner over every power of
        # p, at uniform-regime points with nu in [1, 5e7]: within 2 ulp
        rng = np.random.default_rng(24)
        nus = np.exp(rng.uniform(0.0, math.log(5e7), 3000))
        us = nus * np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 3000))
        pts = [(nu, u) for nu, u in zip(nus.tolist(), us.tolist()) if not sf._series_regime(nu, u)]
        assert len(pts) >= 2000
        for nu, u in pts:
            for got, want in zip(sf._uniform_pair(nu, u), _uniform_pair_nested(nu, u)):
                assert abs(got - want) <= 2.0 * math.ulp(want), (nu, u)

    @pytest.mark.parametrize("omega", [0.5, 1.0, 5.0])
    @pytest.mark.parametrize("nu", [40.5, 500.0, 5000.0])
    def test_against_mpmath_at_awgn_arguments(self, omega, nu):
        # the AWGN converse evaluates at nu = n/2 and, near its threshold
        # lambda = 1 + 1/Omega, at z = u/nu = 2 sqrt(1 + Omega)/Omega
        u = nu * 2.0 * math.sqrt(1.0 + omega) / omega
        assert not sf._series_regime(nu, u)
        lower, upper = sf._scaled_seed(nu, u)
        i_lower, i_upper = (mp.besseli(mu, u, maxterms=10**6) for mu in (nu - 1, nu))
        assert rel(lower, float(mp.log(i_lower) - u)) < 1e-13
        assert rel(upper, float(mp.log(i_upper) - u)) < 1e-13
        assert rel(sf.log_bessel_i_scaled(nu, u).ratio, float(i_upper / i_lower)) < 1e-13

    @pytest.mark.parametrize("nu", [1.0, 1.5, 5.0, 60.0, 800.0])
    def test_series_pair_matches_separate_loops(self, nu):
        # one loop over both orders gives each order the bits of its own loop
        top = min(max(30.0, 0.5 * nu), sf._SERIES_U_CAP)
        grid = np.geomspace(1e-3, top * (1.0 - 1e-12), 512)
        for u in [grid] + [np.array([v]) for v in grid[::51].tolist() + [top * (1.0 - 1e-12)]]:
            assert sf._series_regime(nu, u).all()
            lower, upper = sf._series_pair(nu, u)
            assert lower.tobytes() == _series_log_scaled(nu - 1.0, u).tobytes()
            assert upper.tobytes() == _series_log_scaled(nu, u).tobytes()

    def test_float_results_in_both_regimes(self):
        # the series regime runs its one array routine on a one-point grid
        for nu, u in ((1.0, 0.5), (5.0, 29.0), (200.0, 99.0), (5.0, 31.0)):
            pair = sf.log_bessel_i_scaled(nu, u)
            assert type(pair.log_scaled_lower) is float and type(pair.ratio) is float

    def test_domain(self):
        for nu in (0.0, -1.0):
            with pytest.raises(DomainError):
                sf.log_bessel_i_scaled(nu, 1.0)
        with pytest.raises(DomainError):
            sf.log_bessel_i_scaled(2.0, 0.0)


class TestBesselJets:
    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 5.0, 60.0, 1000.0, 5e3, 5e7])
    def test_grid_seed_matches_scalar(self, nu):
        # both regimes (series, uniform, past the series cap): within 1e-13
        # relative (numpy's exp and log against libm's), and NaN at every
        # undefined input
        us = np.concatenate((np.geomspace(1e-3, 2000.0, 120), [0.0, -1.0, math.nan, math.inf]))
        lower, upper = sf._scaled_seed(nu, us)
        for i, u in enumerate(us.tolist()):
            try:
                want = sf._scaled_seed(nu, u)
            except DomainError:
                assert math.isnan(lower[i]) and math.isnan(upper[i]), u
                continue
            np.testing.assert_allclose([lower[i], upper[i]], want, rtol=1e-13, atol=0.0, err_msg=str(u))

    def test_grid_uniform_points_in_one_call(self, monkeypatch):
        us = np.geomspace(1e-3, 2000.0, 120)
        sizes = []
        uniform_pair = sf._uniform_pair

        def counted(nu, u):
            sizes.append(u.size)
            return uniform_pair(nu, u)

        monkeypatch.setattr(sf, "_uniform_pair", counted)
        sf._scaled_seed(60.0, us)
        assert sizes == [(~sf._series_regime(60.0, us)).sum()] and 0 < sizes[0] < us.size

    @pytest.mark.parametrize("nu,u", [(1.0, 0.5), (5.0, 29.0), (800.0, 350.0), (1.5, 35.0),
                                      (200.0, 101.0), (3000.0, 7000.0)])
    def test_seed_and_pair_read_one_evaluation(self, nu, u):
        # series and uniform regimes: the seed's lower log is the pair's,
        # and its upper log is the one the pair's ratio comes from
        lower, upper = sf._scaled_seed(nu, u)
        pair = sf.log_bessel_i_scaled(nu, u)
        assert type(lower) is float and type(upper) is float
        assert lower == pair.log_scaled_lower
        assert abs(upper - lower - math.log(pair.ratio)) <= 1e-15 * max(1.0, abs(upper))

    def test_order0_matches_scalar(self):
        pair = sf.log_bessel_i_scaled(25.0, 40.0)
        a, b = map(J.exp, sf.log_bessel_i_jet(25.0, jet_var(40.0, 2)))
        assert rel(a.value, math.exp(pair.log_scaled_lower)) < 1e-13
        assert rel(b.value, math.exp(pair.log_scaled_lower) * pair.ratio) < 1e-13

    def test_order1_matches_finite_difference(self):
        nu, u0 = 25.0, 40.0
        h = 1e-6 * u0

        def scaled_upper(u):
            p = sf.log_bessel_i_scaled(nu, u)
            return math.exp(p.log_scaled_lower) * p.ratio

        fd = (scaled_upper(u0 + h) - scaled_upper(u0 - h)) / (2 * h)
        b = J.exp(sf.log_bessel_i_jet(nu, jet_var(u0, 1))[1])
        assert rel(b.coeffs[1], fd) < 1e-6

    def test_derivative_recurrence_identity(self):
        # d/du e^{-u} I_1(u) = e^{-u}(I_0 - I_1/u - I_1) at u = 2
        u0 = 2.0
        a, b = map(J.exp, sf.log_bessel_i_jet(1.0, jet_var(u0, 1)))
        i0, i1 = a.value, b.value
        rhs = i0 - i1 / u0 - i1
        assert abs(b.coeffs[1] - rhs) < 1e-10

    def test_log_jet_higher_orders_vs_mpmath(self):
        nu, u0 = 7.0, 11.0
        la, lb = sf.log_bessel_i_jet(nu, jet_var(u0, 4))

        def f(u):
            return mp.log(mp.besseli(nu, u)) - u

        for k in range(5):
            want = float(mp.diff(f, u0, k)) / math.factorial(k)
            assert abs(lb.coeffs[k] - want) < 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("nu,u0", [(0.25, 11.0), (0.75, 11.0), (0.25, 40.0), (0.75, 40.0)])
    def test_log_jet_below_order_one_vs_mpmath(self, nu, u0):
        # the lower order nu - 1 is negative; series and uniform seeds
        la, lb = sf.log_bessel_i_jet(nu, jet_var(u0, 5))
        for jet, mu in ((la, nu - 1), (lb, nu)):
            for k in range(6):
                want = float(mp.diff(lambda u: mp.log(mp.besseli(mu, u)) - u, u0, k)) / math.factorial(k)
                assert abs(jet.coeffs[k] - want) < 1e-10 * max(1.0, abs(want)), (mu, k)

    def test_domain(self):
        from tailkit.jet import jet_const

        with pytest.raises(DomainError):
            sf.log_bessel_i_jet(5.0, jet_const(-1.0, 0.0, 2))

    def test_chained_argument(self):
        # u(x) = sqrt(2 x): propagate through a non-trivial inner jet
        import tailkit.jet as J

        x0 = 3.0
        u = J.sqrt(2.0 * jet_var(x0, 3))
        la, lb = sf.log_bessel_i_jet(4.0, u)

        def f(x):
            uu = mp.sqrt(2 * x)
            return mp.log(mp.besseli(3.0, uu)) - uu

        for k in range(4):
            want = float(mp.diff(f, x0, k)) / math.factorial(k)
            assert abs(la.coeffs[k] - want) < 1e-10 * max(1.0, abs(want))


def _ode_rebuilt_per_order(nu, u_coeffs):
    """The Bessel ODE with both exp jets rebuilt from scratch at every
    order: the reference for the jets grown one coefficient per order."""
    n = len(u_coeffs) - 1
    lower, upper = sf._scaled_seed(nu, u_coeffs[0])
    a = [lower] + [0.0] * n
    b = [upper] + [0.0] * n
    if n == 0:
        return a, b
    inv_u = kp.div((1.0,) + (0.0,) * n, u_coeffs)
    du = tuple((k + 1) * u_coeffs[k + 1] for k in range(n))

    def conv_at(p, q, m):
        acc = 0
        for j in range(m + 1):
            acc = acc + p[j] * q[m - j]
        return acc

    for m in range(n):
        diff_ba = tuple(b[k] - a[k] for k in range(m + 1))
        diff_ab = tuple(-d for d in diff_ba)
        e_ba = kp.exp(diff_ba)
        e_ab = kp.exp(diff_ab)
        g1 = [e_ba[k] + (nu - 1.0) * inv_u[k] for k in range(m + 1)]
        g1[0] = g1[0] - 1.0
        g2 = [e_ab[k] - nu * inv_u[k] for k in range(m + 1)]
        g2[0] = g2[0] - 1.0
        a[m + 1] = conv_at(g1, du, m) / (m + 1)
        b[m + 1] = conv_at(g2, du, m) / (m + 1)
    return a, b


class TestBesselOde:
    """The ODE of ``log_bessel_i_jet`` grows e^{B-A} and e^{A-B} by one
    coefficient per order: the same bits as rebuilding them at every
    order, with two grid exp maps per call instead of two per order."""

    # (nu, s, x): u = sqrt(s x) in the series regime, in the uniform one,
    # and across both at an AWGN-sized order (k = 1000); the grids hold
    # undefined points too
    CASES = {
        "series": (5.0, 2.0, np.concatenate((np.geomspace(0.05, 6.0, 40), [0.0, -1.0]))),
        "uniform": (5.0, 2.0, np.geomspace(500.0, 5000.0, 40)),
        "awgn": (500.0, 1000.0, np.concatenate((np.geomspace(50.0, 2000.0, 40), [-3.0]))),
    }

    @staticmethod
    def _u(s, x, order):
        return J.sqrt(s * jet_var(x, order))

    @staticmethod
    def _bits(coeffs):
        return [np.asarray(c, dtype=float).tobytes() for c in coeffs]

    @pytest.mark.parametrize("order", range(11))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_rebuilt_per_order(self, case, order):
        nu, s, xs = self.CASES[case]
        anchors = [xs] + [x for x in xs.tolist()[::8] if x > 0.0]
        with np.errstate(all="ignore"):
            for x in anchors:
                u = self._u(s, x, order)
                la, lb = sf.log_bessel_i_jet(nu, u)
                want_a, want_b = _ode_rebuilt_per_order(nu, u.coeffs)
                assert self._bits(la.coeffs) == self._bits(Jet(u.anchor, tuple(want_a)).coeffs), x
                assert self._bits(lb.coeffs) == self._bits(Jet(u.anchor, tuple(want_b)).coeffs), x

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_two_grid_exp_maps(self, monkeypatch, case):
        nu, s, xs = self.CASES[case]
        maps = []
        each = kp.each

        def counted(fn, v):
            if fn is math.exp and isinstance(v, np.ndarray):
                maps.append(v.size)
            return each(fn, v)

        monkeypatch.setattr(kp, "each", counted)
        with np.errstate(all="ignore"):
            calls = []
            for order in (0, 10):
                u = self._u(s, xs, order)
                del maps[:]
                sf.log_bessel_i_jet(nu, u)
                calls.append(len(maps))
        assert calls[1] - calls[0] == 2  # the seed's own maps are in both
