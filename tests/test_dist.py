import math

import mpmath as mp
import numpy as np
import pytest

from tailkit import dist as D
from tailkit import oracle as O
from tailkit.engine import SeedKind, TailSide, make_seed
from tailkit.errors import DomainError, ParamError

mp.mp.dps = 30


class TestGaussian:
    def test_pdf_at_zero(self):
        g = D.make_gaussian(0.0, 1.0)
        assert abs(g.pdf_jet(0.0, 0).value - 0.3989422804014327) < 1e-15

    def test_pdf_jet_derivatives_vs_mpmath(self):
        g = D.make_gaussian(-1.7, 1.9)
        x0 = 2.5
        jet = g.pdf_jet(x0, 5)

        def f(x):
            return mp.npdf(x, -1.7, 1.9)

        for k in range(6):
            want = float(mp.diff(f, x0, k)) / math.factorial(k)
            assert abs(jet.coeffs[k] - want) < 1e-12 * max(1.0, abs(want))

    def test_params(self):
        with pytest.raises(ParamError):
            D.make_gaussian(0.0, -1.0)


class TestBetaPrime:
    def test_normalizes(self):
        bp = D.make_beta_prime(2.1, 1.3)
        assert abs(O.normalization(bp, 1e-10) - 1.0) < 1e-8

    def test_pdf_positive_inside_support(self):
        bp = D.make_beta_prime(2.1, 1.3)
        for x in np.geomspace(1e-3, 1e3, 30):
            assert bp.pdf_jet(float(x), 0).value > 0.0

    def test_needs_positive_anchor(self):
        bp = D.make_beta_prime(2.1, 1.3)
        with pytest.raises(DomainError):
            bp.pdf_jet(-0.5, 1)

    def test_params(self):
        with pytest.raises(ParamError):
            D.make_beta_prime(0.0, 1.0)
        for alpha, beta in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ParamError):
                D.make_beta_prime(alpha, beta)


class TestNoncentralChi2:
    @staticmethod
    def _mixture_pdf(k, s, x, terms=120):
        total = 0.0
        for j in range(terms):
            lw = -s / 2 + j * math.log(s / 2) - math.lgamma(j + 1)
            dof = k / 2 + j
            ld = (dof - 1) * math.log(x) - x / 2 - dof * math.log(2.0) - math.lgamma(dof)
            total += math.exp(lw + ld)
        return total

    def test_pdf_matches_mixture_series(self):
        # independent oracle: Poisson-weighted central chi^2 densities
        k, s, x = 10.0, 2.0, 5.0
        nc = D.make_noncentral_chi2(k, s)
        assert abs(nc.pdf_jet(x, 0).value - self._mixture_pdf(k, s, x)) < 1e-10

    def test_low_dof_pdf(self):
        nc = D.make_noncentral_chi2(3.0, 1.5)
        assert abs(nc.pdf_jet(2.0, 0).value - self._mixture_pdf(3.0, 1.5, 2.0)) < 1e-12

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.5, 3.9])
    def test_small_k_log_pdf_vs_mpmath(self, k):
        # below k = 4 the Bessel order k/2 - 1 is below 1, and negative
        # below k = 2; ln f on a float and on a grid, out to x = 3000
        xs = np.concatenate((np.geomspace(1e-8, 3000.0, 40), [900.0, 2000.0]))
        for s in (1.5, 9.0, 50.0):
            d = D.make_noncentral_chi2(k, s)
            grid = d.log_pdf_jet(xs, 0).coeffs[0]
            for x, at_grid in zip(xs.tolist(), grid.tolist()):
                u = mp.sqrt(mp.mpf(s) * x)
                want = float(-mp.log(2) - (x + mp.mpf(s)) / 2 + (mp.mpf(k) / 4 - mp.mpf(1) / 2) * mp.log(x / mp.mpf(s))
                             + mp.log(mp.besseli(mp.mpf(k) / 2 - 1, u, maxterms=10**6)))
                tol = 1e-13 * max(1.0, abs(want))
                assert abs(d.log_pdf_jet(x, 0).value - want) <= tol, (s, x)
                assert abs(at_grid - want) <= tol, (s, x)

    def test_central_case(self):
        nc = D.make_noncentral_chi2(6.0, 0.0)
        x = 3.0
        want = x ** 2 * math.exp(-x / 2) / 16.0
        assert abs(nc.pdf_jet(x, 0).value - want) < 1e-14

    def test_pdf_jet_derivative_vs_fd(self):
        nc = D.make_noncentral_chi2(10.0, 2.0)
        x0, h = 4.0, 1e-6
        fd = (nc.pdf_jet(x0 + h, 0).value - nc.pdf_jet(x0 - h, 0).value) / (2 * h)
        assert abs(nc.pdf_jet(x0, 1).coeffs[1] - fd) < 1e-7

    def test_params(self):
        with pytest.raises(ParamError):
            D.make_noncentral_chi2(0.0, 1.0)
        with pytest.raises(ParamError):
            D.make_noncentral_chi2(4.0, -0.5)
        for k, s in ((math.inf, 2.0), (4.0, math.inf), (math.nan, 2.0), (4.0, math.nan)):
            with pytest.raises(ParamError):
                D.make_noncentral_chi2(k, s)


class TestGaussianClosedIterates:
    def test_p0_at_2(self):
        # phi(2)/2, cross-checked against the oracle tail from below
        v = D.gaussian_closed_iterates(0.0, 1.0, 0, 2.0)
        assert abs(v - 0.02699548325659403) < 1e-15
        assert v >= O.gaussian_tail(0.0, 1.0, 2.0)

    def test_p1_at_2(self):
        v = D.gaussian_closed_iterates(0.0, 1.0, 1, 2.0)
        assert abs(v - 0.021596386605275222) < 1e-15
        assert v <= O.gaussian_tail(0.0, 1.0, 2.0)

    def test_p2_ratio_far_out(self):
        p0 = D.gaussian_closed_iterates(0.0, 1.0, 0, 8.0)
        p1 = D.gaussian_closed_iterates(0.0, 1.0, 1, 8.0)
        p2 = D.gaussian_closed_iterates(0.0, 1.0, 2, 8.0)
        assert p1 / p0 <= p2 / p0 <= 1.0

    def test_location_scale(self):
        # P_i for N(mu, sigma) is the standardized formula
        v = D.gaussian_closed_iterates(-1.7, 1.9, 2, 3.0)
        y = (3.0 + 1.7) / 1.9
        phi = math.exp(-y * y / 2) / math.sqrt(2 * math.pi)
        want = phi * (y ** 3 + y) / (y ** 4 + 2 * y ** 2 - 1)
        assert abs(v - want) < 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            D.gaussian_closed_iterates(0.0, 1.0, 0, -0.5)
        with pytest.raises(DomainError):
            D.gaussian_closed_iterates(0.0, 1.0, 2, 0.5)  # below sqrt(sqrt2-1)
        with pytest.raises(DomainError):
            D.gaussian_closed_iterates(0.0, 1.0, 4, 3.0)


class TestBetaPrimeClosedIterates:
    def test_p0_above_tail(self):
        v = D.beta_prime_closed_iterates(2.1, 1.3, 0, 10.0)
        assert math.isfinite(v) and v > 0.0
        assert v >= 1.0 - O.beta_prime_cdf(2.1, 1.3, 10.0)

    def test_p1_below_tail(self):
        tail = 1.0 - O.beta_prime_cdf(2.1, 1.3, 10.0)
        assert D.beta_prime_closed_iterates(2.1, 1.3, 1, 10.0) <= tail

    def test_pole_at_alpha_over_beta(self):
        with pytest.raises(DomainError):
            D.beta_prime_closed_iterates(2.1, 1.3, 0, 2.1 / 1.3)

    def test_large_x_log_space(self):
        v = D.beta_prime_closed_iterates(2.1, 1.3, 0, 1e12)
        assert math.isfinite(v) and v > 0.0


class TestNcChi2LeftClosedP0:
    def test_value_bounds_cdf(self):
        v = D.ncchi2_left_closed_p0(10.0, 2.0, 1.0)
        assert 0.0 < v < 1.0
        assert v >= O.ncchi2_cdf_series(10.0, 2.0, 1.0)

    def test_matches_direct_seed_construction(self):
        # g = x f built numerically: P0 = f g / g'
        k, s, x = 10.0, 2.0, 1.0
        nc = D.make_noncentral_chi2(k, s)
        h = 1e-6

        def g(t):
            return t * nc.pdf_jet(t, 0).value

        gp = (g(x + h) - g(x - h)) / (2 * h)
        want = nc.pdf_jet(x, 0).value * g(x) / gp
        assert abs(D.ncchi2_left_closed_p0(k, s, x) - want) < 1e-9 * want

    @pytest.mark.parametrize("k", [0.5, 1.0, 3.0])
    def test_small_k_matches_engine_seed(self, k):
        # the closed form holds for every k > 0: the engine's shifted-pdf
        # left seed, from the ln f jet, gives the same P0
        seed = make_seed(D.make_noncentral_chi2(k, 2.0), SeedKind.SHIFTED_PDF, TailSide.LEFT)
        for x in (0.01, 0.3, 1.0, 1.7):
            want = seed.log_evaluator(x, 0).value
            assert abs(math.log(D.ncchi2_left_closed_p0(k, 2.0, x)) - want) < 1e-13 * max(1.0, abs(want)), x

    def test_domain(self):
        with pytest.raises(ParamError):
            D.ncchi2_left_closed_p0(0.0, 2.0, 1.0)
        with pytest.raises(ParamError):
            D.ncchi2_left_closed_p0(3.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            D.ncchi2_left_closed_p0(10.0, 2.0, -1.0)
