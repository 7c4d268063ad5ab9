import math

import mpmath as mp
import numpy as np
import pytest

from tailkit import awgn as A
from tailkit import dist as D
from tailkit import oracle as O
from tailkit import specfun as sf
from tailkit.engine import TailSide
from tailkit.errors import DomainError, ToleranceNotMet

mp.mp.dps = 30


@pytest.fixture(scope="module")
def catalog():
    return {
        "gaussian": D.make_gaussian(0.0, 1.0),
        "beta_prime": D.make_beta_prime(2.1, 1.3),
        "ncchi2": D.make_noncentral_chi2(10.0, 2.0),
    }


class TestQuadrature:
    def test_gaussian_tail_at_2(self, catalog):
        res = O.tail_by_quadrature(catalog["gaussian"], 2.0, TailSide.RIGHT, 1e-12)
        # cross-validated against erfc(2/sqrt(2))/2
        assert abs(res.value - 0.5 * sf.erfc(2.0 / math.sqrt(2.0))) < 1e-10
        assert res.abs_error_estimate <= 1e-12

    def test_total_probability(self, catalog):
        for name, d in catalog.items():
            mid = 0.0 if name == "gaussian" else 1.0
            right = O.tail_by_quadrature(d, mid, TailSide.RIGHT, 1e-11)
            left = O.tail_by_quadrature(d, mid, TailSide.LEFT, 1e-11)
            assert abs(right.value + left.value - 1.0) <= 2e-11

    def test_beta_prime_vs_incomplete_beta(self, catalog):
        res = O.tail_by_quadrature(catalog["beta_prime"], 10.0, TailSide.RIGHT, 1e-12)
        want = 1.0 - sf.reg_inc_beta(10.0 / 11.0, 2.1, 1.3)
        assert abs(res.value - want) < 1e-9

    def test_rejects_unreachable_tolerance(self, catalog):
        with pytest.raises(DomainError):
            O.tail_by_quadrature(catalog["gaussian"], 1.0, TailSide.RIGHT, 1e-14)

    def test_rejects_x_outside_support(self, catalog):
        with pytest.raises(DomainError):
            O.tail_by_quadrature(catalog["beta_prime"], -1.0, TailSide.RIGHT)


class TestNcChi2Series:
    def test_zero(self):
        assert O.ncchi2_cdf_series(10.0, 2.0, 0.0) == 0.0

    def test_central_reduction(self):
        for x in (0.5, 4.0, 11.0):
            assert abs(O.ncchi2_cdf_series(7.0, 0.0, x) - sf.reg_inc_gamma_P(3.5, x / 2)) < 1e-14

    def test_against_quadrature(self, catalog):
        got = O.ncchi2_cdf_series(10.0, 2.0, 5.0)
        quad = O.tail_by_quadrature(catalog["ncchi2"], 5.0, TailSide.LEFT, 1e-12)
        assert abs(got - quad.value) < 1e-9

    def test_log_version_matches_mpmath_deep_tail(self):
        k, s, x = 400.0, 800.0, 120.0
        got = O.ncchi2_cdf_log(k, s, x)
        half_s = mp.mpf(s) / 2
        want = mp.log(
            mp.fsum(
                mp.e ** (-half_s) * half_s ** j / mp.factorial(j)
                * mp.gammainc(mp.mpf(k) / 2 + j, 0, mp.mpf(x) / 2, regularized=True)
                for j in range(int(s / 2 + 40 * math.sqrt(s / 2 + 1) + 60))
            )
        )
        assert abs(got - float(want)) < 1e-10 * abs(float(want))

    def test_monotone_and_in_range(self):
        prev = -1.0
        for x in np.linspace(0.0, 60.0, 1000):
            v = O.ncchi2_cdf_series(10.0, 2.0, float(x))
            assert 0.0 <= v <= 1.0
            assert v >= prev
            prev = v

    def test_domain(self):
        with pytest.raises(DomainError):
            O.ncchi2_cdf_series(-1.0, 2.0, 1.0)


def mp_log_mixture(k, s, x, upper):
    """ln sum_j Pois(j; s/2) G(k/2 + j, x/2) with G = Q (upper) or P, each
    G from mpmath's gammainc.  Summed outward from j = s/2 until the terms
    shrink below 1e-25 of the total (they are unimodal in j)."""
    with mp.workdps(30):
        hs, hk, hx = mp.mpf(s) / 2, mp.mpf(k) / 2, mp.mpf(x) / 2
        lims = (hx, mp.inf) if upper else (0, hx)

        def term(j):
            g = mp.gammainc(hk + j, *lims, regularized=True)
            return mp.exp(j * mp.log(hs) - hs - mp.loggamma(j + 1)) * g

        j_mid = int(s) // 2
        total = term(j_mid)
        for step in (1, -1):
            j, prev = j_mid + step, total
            while j >= 0:
                t = term(j)
                total += t
                if t < prev and t < total * mp.mpf(10) ** -25:
                    break
                prev, j = t, j + step
        return float(mp.log(total))


class TestRecurrence:
    def test_sf_deep_tail_matches_mpmath(self):
        # the summand peaks near j = 1400, well above the Poisson mean 1040:
        # a window centred on the mean a dozen deviations wide misses it
        k, s, x = 1040.0, 2080.0, 1040.0 * 4.958
        want = mp_log_mixture(k, s, x, upper=True)
        assert want < -150.0
        assert abs(O.ncchi2_sf_log(k, s, x) - want) <= 1e-10

    @pytest.mark.parametrize("x", [1.3, 20.0, 60.0, 90.0])
    def test_oracle_tail_is_the_survival_series(self, catalog, x):
        # the tail is 1.05e-12 at x = 90, beyond what 1 - CDF resolves
        want = math.exp(mp_log_mixture(10.0, 2.0, x, upper=True))
        assert abs(O.oracle_tail(catalog["ncchi2"], x) - want) <= 1e-10 * want

    @pytest.mark.parametrize("x", [60.0, 90.0])
    def test_cdf_near_one_through_the_survival(self, catalog, x):
        # 1 - F is 1.3e-7 at x = 60 and 1.05e-12 at x = 90: a sum of P
        # terms with a few ulp of error on F would lose it
        want = mp_log_mixture(10.0, 2.0, x, upper=False)
        assert abs(O.ncchi2_cdf_log(10.0, 2.0, x) - want) <= 1e-10 * abs(want)
        assert abs(O.oracle_cdf(catalog["ncchi2"], x) - math.exp(want)) <= 2.0 * 2.0**-53

    @pytest.mark.parametrize(
        "k, s, x",
        [(10.0, 2.0, 1.3), (10.0, 2.0, 90.0), (0.3, 5.0, 0.01), (400.0, 800.0, 120.0),
         (2000.0, 4000.0, 6600.0), (7.0, 0.0, 4.0)],
    )
    def test_one_special_function_call_per_tail(self, monkeypatch, k, s, x):
        calls = []
        for name in ("_gamma_q_cf_h", "_gamma_p_series_h"):
            kernel = getattr(sf, name)
            monkeypatch.setattr(sf, name, lambda a, y, kernel=kernel: calls.append(a) or kernel(a, y))
        for tail in (O.ncchi2_sf_log, O.ncchi2_cdf_log):
            calls.clear()
            assert math.isfinite(tail(k, s, x))
            assert len(calls) == 1, tail.__name__

    def test_sf_and_cdf_complement(self):
        for k, s, x in ((10.0, 2.0, 5.0), (200.0, 400.0, 610.0), (3.0, 40.0, 41.0)):
            total = math.exp(O.ncchi2_sf_log(k, s, x)) + math.exp(O.ncchi2_cdf_log(k, s, x))
            assert abs(total - 1.0) <= 1e-13

    def test_sf_far_tail_above_the_window(self):
        # ln sf is near -1165 here (scipy underflows); the Poisson mass
        # above the window's top m + W = 449, about e^-73, cannot bound the
        # remainder below tol times that, so the sum is taken again over
        # taller windows (three extensions here)
        want = mp_log_mixture(243.0, 486.0, 5336.0, upper=True)
        assert abs(want + 1164.99376607119) < 1e-9
        assert abs(O.ncchi2_sf_log(243.0, 486.0, 5336.0) - want) <= 1e-10 * abs(want)

    def test_unbounded_remainder_raises(self):
        # the summand peaks near j = y - a ~ 3e4, beyond every extension
        # of the window above m + W
        with pytest.raises(ToleranceNotMet):
            O.ncchi2_sf_log(243.0, 486.0, 6e4)

    @pytest.mark.parametrize("k, s, x, upper", [(1949.0, 3898.0, 5652.1, True), (1949.0, 5847.0, 2338.8, False)])
    def test_wide_windows_match_mpmath(self, k, s, x, upper):
        # windows of about 5,000 terms, as at Omega = 0.5 near n = 2,000;
        # log weights of the form j ln m - m - lgamma(j + 1) put the first
        # point 8e-12 off
        want = mp_log_mixture(k, s, x, upper)
        got = (O.ncchi2_sf_log if upper else O.ncchi2_cdf_log)(k, s, x)
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_oracle_converse_builds_each_window_once(self, monkeypatch):
        # the weights and the t_b take lgamma only below order 10: the
        # rest of the 22 calls are one per incomplete gamma
        calls = []
        lgamma = math.lgamma
        monkeypatch.setattr(math, "lgamma", lambda v: calls.append(v) or lgamma(v))
        O._window.cache_clear()
        A.oracle_converse(A.AwgnConfig(1990, 0.5, 1e-5))
        assert len(calls) <= 50
        assert O._window.cache_info().misses == 2

    def test_oracle_lambda_meets_eps_against_mpmath(self):
        # eps = 1e-5 at small n, where a tail taken as 1 - CDF is least accurate
        cfg = A.AwgnConfig(200, 0.5, 1e-5)
        lam = A.oracle_lambda(cfg)
        ln_sf = mp_log_mixture(cfg.n, cfg.n / cfg.omega, cfg.n * lam, upper=True)
        assert abs(ln_sf - math.log(cfg.eps)) <= 1e-10


def full_window_log_tail(k, s, x, upper):
    """ln sf (upper) or ln F of ncx2(k, s) at x over the wide windows the
    oracle summed before its windows followed the summand: j in
    [max(0, m - W), m + W] for the survival and [0, m + W] for the CDF,
    m = s/2, W = 40 sqrt(m + 1) + 50, in the same swapped order."""
    a, y, m = 0.5 * k, 0.5 * x, 0.5 * s
    w = 40.0 * math.sqrt(m + 1.0) + 50.0
    j0, j1 = (max(0, int(m - w)) if upper else 0), int(m + w)
    j = np.arange(max(j0, 1), j1 + 1, dtype=float)
    ln_w = np.concatenate(([-m] if j0 == 0 else [], O._log_pois(j, m, O._loader_c(j))))
    b = a + np.arange(j0, j1, dtype=float)
    if upper:
        mass = np.logaddexp.accumulate(ln_w[::-1])[::-1]
        edge, mass = sf.log_reg_inc_gamma_Q(a + j0, y) + mass[0], mass[1:]
    else:
        mass = np.logaddexp.accumulate(ln_w)
        edge, mass = sf.log_reg_inc_gamma_P(a + j1, y) + mass[-1], mass[:-1]
    v = np.concatenate(([edge], O._log_pois(b, y, O._loader_c(b) + mass)))
    top = float(v.max())
    return top + math.log(float(np.exp(v - top).sum()))


class TestWindows:
    @pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
    @pytest.mark.parametrize("om, eps", [(om, eps) for om in (0.5, 1.0, 5.0) for eps in (1e-3, 1e-5)])
    def test_match_the_full_windows(self, n, om, eps):
        # near the oracle root: the survival of the missed detection and
        # the CDF of the false alarm, as oracle_converse takes them
        cfg = A.AwgnConfig(n, om, eps)
        lam = A.lambda_asymptotic(cfg)
        k, s_md, s_fa = float(n), n / om, n * (1.0 + om) / om
        for tail, s, x, upper in ((O.ncchi2_sf_log, s_md, n * lam, True),
                                  (O.ncchi2_cdf_log, s_fa, n * lam / (1.0 + om), False)):
            want = full_window_log_tail(k, s, x, upper)
            assert abs(tail(k, s, x, 1e-11) - want) <= 1e-13 * abs(want), tail.__name__

    def test_cdf_window_from_zero_near_the_mean(self):
        # just left of the mean k + s, y = 2995 lies above a + j0 + 1 = 2632
        # for the window around the peak, so the bound below it does not
        # hold and the window starts at j = 0
        k, s, x = 2000.0, 4000.0, 5990.0
        assert O._cdf_range(0.5 * k, 0.5 * s, 0.5 * x)[0] == 0
        want = full_window_log_tail(k, s, x, upper=False)
        assert abs(O.ncchi2_cdf_log(k, s, x) - want) <= 1e-13 * abs(want)

    def test_cdf_window_is_narrow_at_a_million(self):
        # the summand w_j P_j peaks at j* = n/(2 Omega) = 1e6, a third of
        # the way below the Poisson mean 1.5e6, and is about 775 wide
        n, om = 10**6, 0.5
        lam = A.oracle_lambda(A.AwgnConfig(n, om, 1e-5))
        j0, j1 = O._cdf_range(0.5 * n, 0.5 * n * (1.0 + om) / om, 0.5 * n * lam / (1.0 + om))
        assert 0 < j0 < n < j1
        assert j1 - j0 + 1 < 20.0 * math.sqrt(n)


class TestClosedCdfs:
    def test_oracle_vs_quadrature_all(self, catalog):
        points = {"gaussian": (-1.0, 0.7, 2.5), "beta_prime": (0.5, 3.0, 12.0), "ncchi2": (1.0, 6.0, 20.0)}
        for name, d in catalog.items():
            for x in points[name]:
                got = O.oracle_cdf(d, x)
                quad = O.tail_by_quadrature(d, x, TailSide.LEFT, 1e-12).value
                assert abs(got - quad) < 1e-9, (name, x)

    @pytest.mark.parametrize("x", [1e3, 1e5, 1e7, 1e9])
    def test_beta_prime_far_right_tail(self, catalog, x):
        # 1 - CDF was 9.3e-9 off at x = 1e7 and 3.6e-6 at 1e9
        want = mp.betainc(1.3, 2.1, 0, 1 / (1 + mp.mpf(x)), regularized=True)
        assert abs(O.oracle_tail(catalog["beta_prime"], x) - want) <= 1e-13 * want

    def test_tail_is_complement(self, catalog):
        for d in catalog.values():
            x = 1.3
            assert abs(O.oracle_tail(d, x) + O.oracle_cdf(d, x) - 1.0) < 1e-12

    def test_monotone_cdfs(self, catalog):
        grids = {"gaussian": np.linspace(-6, 6, 1000), "beta_prime": np.linspace(0.01, 40, 1000),
                 "ncchi2": np.linspace(0.01, 50, 1000)}
        for name, d in catalog.items():
            vals = [O.oracle_cdf(d, float(x)) for x in grids[name]]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))

    def test_normalization(self, catalog):
        for d in catalog.values():
            assert abs(O.normalization(d) - 1.0) < 1e-8
