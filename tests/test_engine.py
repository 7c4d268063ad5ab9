import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import chain, make_exp1
from tailkit import connections
from tailkit import dist as D
from tailkit import engine as E
from tailkit import jet as J
from tailkit import oracle as O
from tailkit import rootfind
from tailkit.engine import GridSpec, SeedKind, TailSide, Verdict
from tailkit.errors import (
    DomainError,
    OrderExhausted,
    ParamError,
    PoleEncountered,
    SeedIncompatible,
    SeedInvalid,
    TailkitError,
    WindowTooSmall,
)
from tailkit.jet import jet_var

SQRT_X2 = math.sqrt(math.sqrt(2.0) - 1.0)


@pytest.fixture(scope="module")
def g01():
    return D.make_gaussian(0.0, 1.0)


@pytest.fixture(scope="module")
def chain01(g01):
    return chain(g01, SeedKind.PDF, TailSide.RIGHT, 4)


class TestMakeSeed:
    def test_gaussian_pdf_seed_value_and_derivative(self, chain01):
        jet = chain01[0].evaluator(2.0, 1)
        assert abs(jet.value - 0.02699548325659403) < 1e-12
        # finite difference of the closed form phi(x)/x
        h = 1e-6
        p0 = lambda x: math.exp(-x * x / 2) / (math.sqrt(2 * math.pi) * x)
        fd = (p0(2 + h) - p0(2 - h)) / (2 * h)
        assert abs(jet.coeffs[1] - fd) < 1e-3
        # algebraically P0' = -phi(x)(1 + 1/x^2) = -1.25 phi(2)
        assert abs(jet.coeffs[1] + 1.25 * math.exp(-2.0) / math.sqrt(2 * math.pi)) < 1e-12

    def test_beta_prime_shifted_seed_matches_printed(self):
        bp = D.make_beta_prime(2.1, 1.3)
        seed = E.make_seed(bp, SeedKind.SHIFTED_PDF, TailSide.RIGHT)
        want = D.beta_prime_closed_iterates(2.1, 1.3, 0, 10.0)
        assert abs(seed.value(10.0) - want) < 1e-10 * want

    def test_ncchi2_left_seed_matches_closed_form(self):
        nc = D.make_noncentral_chi2(10.0, 2.0)
        seed = E.make_seed(nc, SeedKind.SHIFTED_PDF, TailSide.LEFT)
        want = D.ncchi2_left_closed_p0(10.0, 2.0, 1.0)
        assert abs(seed.value(1.0) - want) < 1e-9 * want

    def test_shifted_seed_needs_finite_endpoint(self, g01):
        with pytest.raises(SeedIncompatible):
            E.make_seed(g01, SeedKind.SHIFTED_PDF, TailSide.RIGHT)

    def test_custom_g_seed(self, g01):
        # g = f reproduces the pdf seed
        custom = E.make_seed(
            g01, SeedKind.CUSTOM_G, TailSide.RIGHT, g_jet=lambda a, o: g01.pdf_jet(a, o)
        )
        pdf_seed = E.make_seed(g01, SeedKind.PDF, TailSide.RIGHT)
        assert abs(custom.value(2.0) - pdf_seed.value(2.0)) < 1e-15

    def test_pole_at_mean(self, chain01):
        with pytest.raises(PoleEncountered):
            chain01[0].evaluator(0.0, 1)

    def test_direct_h_seed(self):
        # a user h candidate routed through the engine: E{X}/x on Exp(1)
        exp1 = make_exp1()

        def h_jet(anchor, order):
            return 1.0 / jet_var(anchor, order)

        it = E.make_seed(exp1, SeedKind.DIRECT_H, TailSide.RIGHT, h_jet=h_jet)
        assert abs(it.value(2.0) - 0.5) < 1e-15
        cls = E.classify(it, (0.5, 50.0), GridSpec(128))
        assert cls.verdict is Verdict.UPPER

    def test_direct_h_requires_evaluator(self, g01):
        with pytest.raises(SeedIncompatible):
            E.make_seed(g01, SeedKind.DIRECT_H, TailSide.RIGHT)


class TestIterate:
    def test_first_iterate_matches_closed_form(self, chain01):
        assert abs(chain01[1].value(2.0) - 0.021596386605275222) < 1e-12

    def test_second_iterate_matches_closed_form(self, chain01):
        want = D.gaussian_closed_iterates(0.0, 1.0, 2, 2.0)
        assert abs(chain01[2].value(2.0) - want) < 1e-9 * want

    def test_exponential_fixed_point(self):
        exp1 = make_exp1()
        it = E.make_seed(exp1, SeedKind.PDF, TailSide.RIGHT)
        for _ in range(3):
            it = E.iterate(it)
            for x in (0.5, 1.0, 4.0):
                assert abs(it.value(x) - math.exp(-x)) < 1e-12 * math.exp(-x)

    def test_order_cap_enforced(self, chain01):
        with pytest.raises(DomainError):
            chain01[4].log_evaluator(2.0, 13)

    def test_indices_and_links(self, chain01):
        assert [it.index for it in chain01] == [0, 1, 2, 3, 4]
        assert chain01[3].prev is chain01[2]


class TestClassify:
    def test_gaussian_p0_upper_from_window_start(self, chain01):
        cls = E.classify(chain01[0], (0.05, 8.0))
        assert cls.verdict is Verdict.UPPER
        assert cls.threshold == 0.05
        assert cls.limit_ok

    def test_gaussian_p1_lower(self, chain01):
        cls = E.classify(chain01[1], (0.05, 8.0))
        assert cls.verdict is Verdict.LOWER
        assert cls.threshold == 0.05
        assert cls.tightness_ok is True  # flip holds for all x > 0

    def test_gaussian_p2_threshold(self, chain01):
        cls = E.classify(chain01[2], (0.1, 8.0))
        assert cls.verdict is Verdict.UPPER
        assert abs(cls.threshold - SQRT_X2) < 1e-6

    def test_gaussian_p3_threshold(self, chain01):
        # P3's positivity edge coincides with P2's pole at sqrt(sqrt2-1);
        # the later point ~1.11122 where P3 turns decreasing only gates
        # the construction of P4, not P3's own validity as a bound
        cls = E.classify(chain01[3], (0.1, 8.0))
        assert cls.verdict is Verdict.LOWER
        assert abs(cls.threshold - SQRT_X2) < 1e-6

    def test_tightness_fails_on_narrow_window(self, chain01):
        # the P1 -> P2 tightness condition only holds from ~1.713 on
        cls = E.classify(chain01[2], (0.7, 1.6))
        assert cls.verdict is Verdict.UPPER
        assert cls.tightness_ok is False

    def test_for_all_flags(self, chain01):
        # P0 holds on the whole window and decreases throughout
        p0 = E.classify(chain01[0], (0.05, 8.0))
        assert p0.everywhere is True
        assert p0.monotone is True
        # P1 holds on the whole window but rises below sqrt(sqrt2-1),
        # where P2 has its pole
        p1 = E.classify(chain01[1], (0.05, 8.0))
        assert p1.everywhere is True
        assert p1.monotone is False
        # P2 holds only from its bisected threshold and is undefined below it
        p2 = E.classify(chain01[2], (0.1, 8.0))
        assert p2.everywhere is False
        assert p2.monotone is False
        assert abs(p2.threshold - SQRT_X2) < 1e-6

    def test_exact_verdict_for_exponential(self):
        exp1 = make_exp1()
        seed = E.make_seed(exp1, SeedKind.PDF, TailSide.RIGHT)
        cls = E.classify(seed, (0.5, 10.0))
        assert cls.verdict is Verdict.EXACT

    def test_relative_tolerance(self, chain01):
        # |expm1(d_0)| = 1/(1 + x^2) is at most 1/2 on [1, 5]: within a
        # tolerance of 1/2 both conditions hold; from 1 on, the lower one
        # holds wherever the iterate is defined
        assert E.classify(chain01[0], (1.0, 5.0), tol=0.4).verdict is Verdict.UPPER
        for tol in (0.5, 1.0, 2.0):
            assert E.classify(chain01[0], (1.0, 5.0), tol=tol).verdict is Verdict.EXACT

    def test_window_too_small(self, g01):
        seed = E.make_seed(g01, SeedKind.PDF, TailSide.LEFT)  # needs f increasing
        with pytest.raises(WindowTooSmall):
            E.classify(seed, (1.0, 6.0))

    def test_grid_spec_validation(self):
        with pytest.raises(DomainError):
            GridSpec(points=32)

    def test_residuals_sampled(self, chain01):
        # the relative residual expm1(d_0) = P1/P0 - 1 = -1/(1 + x^2) of
        # the upper bound phi(x)/x, sampled along the grid
        cls = E.classify(chain01[0], (0.5, 8.0))
        xs = E.grid_points((0.5, 8.0), GridSpec(), TailSide.RIGHT)[:: 512 // 16]
        assert len(cls.residuals) >= 16
        assert all(-1.0 < r <= E.DEFAULT_TOL for r in cls.residuals)  # upper bound residuals
        for r, x in zip(cls.residuals, xs.tolist()):
            assert abs(r * (1.0 + x * x) + 1.0) <= 1e-14

    def test_left_side_classification(self):
        nc = D.make_noncentral_chi2(10.0, 2.0)
        seed = E.make_seed(nc, SeedKind.SHIFTED_PDF, TailSide.LEFT)
        chain = [seed, E.iterate(seed)]
        cls1 = E.classify(chain[1], (0.02, 11.0), GridSpec(256))
        assert cls1.verdict is Verdict.LOWER
        # valid throughout the window (oracle-checked lower bound up to
        # x ~ 10.9); the threshold reports the window end
        assert cls1.threshold == 11.0
        for x in (5.0, 9.0, 10.5):
            assert chain[1].value(x) <= O.ncchi2_cdf_series(10.0, 2.0, x)


class TestRunAlgorithm:
    def test_gaussian_verdict_sequence(self, g01):
        res = E.run_algorithm(g01, SeedKind.PDF, TailSide.RIGHT, 2.0, 4, (2.0, 8.0))
        assert [v.value for v in res.verdicts] == ["U", "L", "U", "L", "U"]
        # at x0 = 2 the P3 -> P4 tightness gate (holds only from ~2.439)
        # stops the storage loop; P_U stays P2, P_L stays P3
        assert res.p_u.index == 2
        assert res.p_l.index == 3
        assert res.stop_reason == "tightness-failed"

    def test_gaussian_full_storage_beyond_gate(self, g01):
        res = E.run_algorithm(g01, SeedKind.PDF, TailSide.RIGHT, 2.5, 4, (2.5, 9.0))
        assert [v.value for v in res.verdicts] == ["U", "L", "U", "L", "U"]
        assert res.p_u.index == 4
        assert res.p_l.index == 3
        assert res.stop_reason == "max-iterations"

    def test_exponential_exact_stop(self):
        exp1 = make_exp1()
        res = E.run_algorithm(exp1, SeedKind.PDF, TailSide.RIGHT, 0.5, 4, (0.5, 10.0))
        assert res.stop_reason == "exact"
        assert res.p_l is res.p_u

    def test_seed_invalid(self, g01):
        with pytest.raises(SeedInvalid):
            E.run_algorithm(g01, SeedKind.PDF, TailSide.LEFT, 5.0, 2, (1.0, 5.0))

    def test_left_tail_run(self):
        nc = D.make_noncentral_chi2(10.0, 2.0)
        res = E.run_algorithm(nc, SeedKind.SHIFTED_PDF, TailSide.LEFT, 6.0, 2, (0.05, 6.0))
        assert [v.value for v in res.verdicts] == ["U", "L", "U"]

    def test_left_tail_full_storage(self):
        # all tightness gates clear below x0 ~ 2.89 for these parameters
        nc = D.make_noncentral_chi2(10.0, 2.0)
        res = E.run_algorithm(nc, SeedKind.SHIFTED_PDF, TailSide.LEFT, 2.5, 4, (0.05, 2.5))
        assert [v.value for v in res.verdicts] == ["U", "L", "U", "L", "U"]
        assert res.p_u.index == 4 and res.p_l.index == 3
        assert res.stop_reason == "max-iterations"

    def test_beta_prime_alternation_far_window(self):
        # successive gates clear only at ever larger x (monotonicity of
        # P1/P2 from ~3.8, P3 from ~7.4; tightness gates up to ~95), so
        # the full alternating storage needs a far window
        bp = D.make_beta_prime(2.1, 1.3)
        res = E.run_algorithm(bp, SeedKind.SHIFTED_PDF, TailSide.RIGHT, 100.0, 4, (100.0, 1e4))
        assert [v.value for v in res.verdicts] == ["U", "L", "U", "L", "U"]
        assert res.p_u.index == 4 and res.p_l.index == 3

    def test_beta_prime_near_window_stops_at_outer_check(self):
        # at x0=2 the first iterate is stored as a lower bound, but it
        # is still increasing there, so the next outer check trips after
        # P2 is formed (the published loop forms-then-checks)
        bp = D.make_beta_prime(2.1, 1.3)
        res = E.run_algorithm(bp, SeedKind.SHIFTED_PDF, TailSide.RIGHT, 2.0, 4, (2.0, 60.0))
        assert [v.value for v in res.verdicts] == ["U", "L", "U"]
        assert res.p_l.index == 1 and res.p_u is None
        assert res.stop_reason == "invalid-iterate"

    def test_upper_stored_after_upper(self):
        # the direct-h seed E/x is an upper bound, and so is P1: the
        # storage branch after an upper keeps the newer upper
        h = connections.markov_h(1.0).evaluator
        res = E.run_algorithm(make_exp1(), SeedKind.DIRECT_H, TailSide.RIGHT, 2.0, 4, (2.0, 60.0), h_jet=h)
        assert [v.value for v in res.verdicts] == ["U", "U", "U", "L", "U"]
        assert res.p_l.index == 3 and res.p_u.index == 2
        assert res.stop_reason == "tightness-failed"

    def test_tightness_fails_after_upper(self):
        bp = D.make_beta_prime(0.5, 3.0)
        res = E.run_algorithm(bp, SeedKind.PDF, TailSide.RIGHT, 0.5, 4, (0.5, 3.0))
        assert [v.value for v in res.verdicts] == ["L", "U", "L"]
        assert res.p_l is None and res.p_u.index == 1
        assert res.stop_reason == "tightness-failed"

    def test_lower_stored_after_lower(self):
        bp = D.make_beta_prime(2.1, 1.3)
        res = E.run_algorithm(bp, SeedKind.PDF, TailSide.RIGHT, 2.0, 4, (2.0, 60.0))
        assert [v.value for v in res.verdicts] == ["L", "L", "U"]
        assert res.p_l.index == 1 and res.p_u is None
        assert res.stop_reason == "tightness-failed"

    def test_window_must_anchor_at_x0(self, g01):
        with pytest.raises(DomainError):
            E.run_algorithm(g01, SeedKind.PDF, TailSide.RIGHT, 2.0, 2, (1.0, 8.0))


class TestLeftRightSymmetry:
    def test_gaussian_mirror(self, g01):
        # for the symmetric Gaussian, the left-tail machinery at -x must
        # reproduce the right-tail machinery at x, iterate by iterate
        right = E.make_seed(g01, SeedKind.PDF, TailSide.RIGHT)
        left = E.make_seed(g01, SeedKind.PDF, TailSide.LEFT)
        for _ in range(3):
            for x in (0.8, 1.5, 2.5, 4.0):
                assert abs(left.value(-x) - right.value(x)) < 1e-13 * right.value(x)
                assert abs(E.convergence_rate(left, -x) - E.convergence_rate(right, x)) < 1e-11
            right = E.iterate(right)
            left = E.iterate(left)

    def test_gaussian_left_verdicts(self, g01):
        left = E.make_seed(g01, SeedKind.PDF, TailSide.LEFT)
        cls0 = E.classify(left, (-8.0, -0.05))
        assert cls0.verdict is Verdict.UPPER
        cls1 = E.classify(E.iterate(left), (-8.0, -0.05))
        assert cls1.verdict is Verdict.LOWER
        res = E.run_algorithm(g01, SeedKind.PDF, TailSide.LEFT, -2.0, 4, (-8.0, -2.0))
        assert [v.value for v in res.verdicts] == ["U", "L", "U", "L", "U"]


class TestConvergenceRate:
    def test_exact_value_at_2(self, chain01):
        assert abs(E.convergence_rate(chain01[0], 2.0) - 0.25) < 1e-10

    def test_scales_with_sigma(self):
        g = D.make_gaussian(-1.7, 1.9)
        seed = E.make_seed(g, SeedKind.PDF, TailSide.RIGHT)
        x = 5.0
        want = 1.9 ** 2 / (x + 1.7) ** 2
        assert abs(E.convergence_rate(seed, x) - want) < 1e-12

    def test_forms_agree(self, chain01):
        # |P_i/P_{i+1} - 1| from the chain's step and from the printed iterates
        for i, it in enumerate(chain01[:3]):
            for x in (1.5, 2.0, 4.0):
                a = E.convergence_rate(it, x)
                p = [D.gaussian_closed_iterates(0.0, 1.0, k, x) for k in (i, i + 1)]
                b = abs(p[0] / p[1] - 1.0)
                assert abs(a - b) <= 1e-10 * max(a, b)

    def test_figure_rate_orientation(self, chain01):
        # |P1/P0 - 1| at x=2 is 0.2 while |P0/P1 - 1| is 0.25
        assert abs(E.figure_rate(chain01[0], 2.0) - 0.2) < 1e-12

    def test_pole(self, chain01):
        with pytest.raises(PoleEncountered):
            E.convergence_rate(chain01[0], 0.0)


class TestSandwichProperty:
    @pytest.mark.parametrize(
        "dist,seed,side,window",
        [
            (D.make_gaussian(-1.7, 1.9), SeedKind.PDF, TailSide.RIGHT, (1.0, 30.0)),
            (D.make_beta_prime(2.1, 1.3), SeedKind.SHIFTED_PDF, TailSide.RIGHT, (2.0, 60.0)),
            (D.make_noncentral_chi2(10.0, 2.0), SeedKind.SHIFTED_PDF, TailSide.LEFT, (0.05, 6.0)),
        ],
        ids=["gaussian", "beta_prime", "ncchi2_left"],
    )
    def test_iterates_bound_the_oracle(self, dist, seed, side, window):
        for it in chain(dist, seed, side, 3):
            cls = E.classify(it, window, GridSpec(128))
            lo = cls.threshold if side is TailSide.RIGHT else window[0]
            hi = window[1] if side is TailSide.RIGHT else cls.threshold
            for x in np.geomspace(lo + 1e-6 * (hi - lo) + 1e-9, hi, 40):
                truth = O.oracle_tail(dist, float(x)) if side is TailSide.RIGHT else O.oracle_cdf(dist, float(x))
                v = it.value(float(x))
                if cls.verdict in (Verdict.UPPER, Verdict.EXACT):
                    assert v >= truth - 1e-9
                if cls.verdict in (Verdict.LOWER, Verdict.EXACT):
                    assert v <= truth + 1e-9


class TestGridPoints:
    def test_geometric_right_clusters_at_start(self):
        xs = E.grid_points((1.0, 10.0), GridSpec(points=64), TailSide.RIGHT)
        assert xs[0] == pytest.approx(1.0, abs=1e-4)
        assert xs[-1] == pytest.approx(10.0)
        assert xs[1] - xs[0] < xs[-1] - xs[-2]

    def test_geometric_left_clusters_at_end(self):
        xs = E.grid_points((1.0, 10.0), GridSpec(points=64), TailSide.LEFT)
        assert xs[-1] == pytest.approx(10.0, abs=1e-3)
        assert xs[-1] - xs[-2] < xs[1] - xs[0]


class TestOrderCap:
    """An iterate deeper than the jet order cap can serve is refused up
    front with a documented error, not deep inside the chain."""

    def _chain(self, g01, depth):
        it = E.make_seed(g01, SeedKind.PDF, TailSide.RIGHT)
        for _ in range(depth):
            it = E.iterate(it)
        return it

    def test_classify_refuses_beyond_cap(self, g01):
        # P_i's slope needs jet order i + 2; the cap is 16
        with pytest.raises(OrderExhausted, match="iterate 15"):
            E.classify(self._chain(g01, 15), (2.0, 8.0))

    def test_classify_accepts_deepest_servable(self, g01):
        cls = E.classify(self._chain(g01, 14), (2.0, 8.0), GridSpec(64))
        assert cls.verdict in tuple(Verdict)

    def test_run_algorithm_refuses_deep_max_iter(self, g01):
        with pytest.raises(ParamError, match="max_iter 15"):
            E.run_algorithm(g01, SeedKind.PDF, TailSide.RIGHT, 2.0, 15, (2.0, 8.0))
        with pytest.raises(ParamError):
            E.run_algorithm(g01, SeedKind.PDF, TailSide.RIGHT, 2.0, 20, (2.0, 8.0))


def _bits(values):
    return [float(v).hex() for v in values]


def assert_batch_matches_scalar(it, xs, order=1):
    """The batched evaluator equals the scalar one at every point of xs:
    coefficients within 1e-13 relative where the scalar call succeeds
    (numpy's exp and log against libm's), NaN in every coefficient exactly
    where it raises a TailkitError. Returns the number of undefined
    points."""
    batch = it.log_evaluator(xs, order)
    assert batch.batched and batch.order == order
    undefined = 0
    for i, x in enumerate(xs.tolist()):
        got = [c[i] for c in batch.coeffs]
        try:
            want = it.log_evaluator(x, order).coeffs
        except TailkitError:
            assert all(math.isnan(g) for g in got), (it.index, x, got)
            undefined += 1
            continue
        np.testing.assert_allclose(np.array(got, dtype=float), want, rtol=1e-13, atol=0.0,
                                   err_msg=f"iterate {it.index} at x={x}")
    return undefined


class TestBatchedChain:
    """One batched pass over a grid gives, point by point, what the scalar
    evaluation gives at that point, to 1e-13 relative."""

    def _check(self, chain, xs):
        undefined = [assert_batch_matches_scalar(it, xs) for it in chain]
        assert any(undefined), "the grid should reach an undefined point"
        assert not all(u == len(xs) for u in undefined)

    def test_gaussian_pdf_seed_with_poles(self):
        # the window contains mu, where the right-tail seed has its pole;
        # mu itself is a grid point
        d = D.make_gaussian(-1.7, 1.9)
        xs = np.sort(np.append(np.linspace(-6.0, 6.0, 60), -1.7))
        self._check(chain(d, SeedKind.PDF, TailSide.RIGHT, 6), xs)

    def test_beta_prime_shifted_seed(self):
        d = D.make_beta_prime(2.1, 1.3)
        xs = np.concatenate(([-0.5, 0.0], np.geomspace(0.02, 80.0, 60)))
        self._check(chain(d, SeedKind.SHIFTED_PDF, TailSide.RIGHT, 6), xs)

    def test_ncchi2_left_shifted_seed(self):
        d = D.make_noncentral_chi2(10.0, 2.0)
        xs = np.concatenate(([0.0], np.geomspace(0.01, 30.0, 50)))
        self._check(chain(d, SeedKind.SHIFTED_PDF, TailSide.LEFT, 6), xs)

    def test_ncchi2_both_bessel_regimes(self):
        # u = sqrt(s x) crosses 30 inside the grid: the Bessel seed takes
        # its vectorised series below and its per-point uniform branch above
        d = D.make_noncentral_chi2(10.0, 50.0)
        xs = np.concatenate(([0.0], np.geomspace(0.05, 90.0, 40)))
        self._check(chain(d, SeedKind.SHIFTED_PDF, TailSide.LEFT, 3), xs)

    @pytest.mark.parametrize("side", [TailSide.RIGHT, TailSide.LEFT], ids=["right", "left"])
    @pytest.mark.parametrize("k,s", [(3.0, 1.5), (1.0, 1.5), (0.5, 9.0)])
    def test_ncchi2_small_k(self, k, s, side):
        # k < 4: the Bessel order k/2 - 1 of ln f is below 1, and negative
        # below k = 2
        d = D.make_noncentral_chi2(k, s)
        xs = np.concatenate(([0.0], np.geomspace(0.05, 25.0, 24)))
        self._check(chain(d, SeedKind.SHIFTED_PDF, side, 3), xs)

    def test_central_chi2(self):
        d = D.make_noncentral_chi2(5.0, 0.0)
        xs = np.concatenate(([-1.0], np.geomspace(0.05, 40.0, 40)))
        self._check(chain(d, SeedKind.SHIFTED_PDF, TailSide.RIGHT, 4), xs)

    def test_custom_g_seed(self):
        # g = 1/x raises at x <= 0 (stacked per point on the grid)
        g = connections.markov_h(1.0).evaluator
        d = D.make_gaussian(0.0, 1.0)
        xs = np.linspace(-2.0, 6.0, 41)
        self._check(chain(d, SeedKind.CUSTOM_G, TailSide.RIGHT, 4, g_jet=g), xs)

    def test_direct_h_seed(self):
        d = D.make_beta_prime(2.1, 1.3)
        h = connections.markov_h(2.1 / 0.3).evaluator
        xs = np.concatenate(([-1.0, 0.0], np.geomspace(0.1, 60.0, 40)))
        self._check(chain(d, SeedKind.DIRECT_H, TailSide.RIGHT, 4, h_jet=h), xs)

    @pytest.mark.parametrize("make", [
        lambda: (D.make_gaussian(-1.7, 1.9), SeedKind.PDF, TailSide.RIGHT, {},
                 np.sort(np.append(np.linspace(-6.0, 6.0, 60), -1.7))),
        lambda: (D.make_beta_prime(2.1, 1.3), SeedKind.SHIFTED_PDF, TailSide.RIGHT, {},
                 np.concatenate(([-0.5, 0.0], np.geomspace(0.02, 80.0, 60)))),
        lambda: (D.make_noncentral_chi2(10.0, 50.0), SeedKind.SHIFTED_PDF, TailSide.LEFT, {},
                 np.concatenate(([0.0], np.geomspace(0.05, 90.0, 40)))),
        lambda: (D.make_gaussian(0.0, 1.0), SeedKind.CUSTOM_G, TailSide.RIGHT,
                 {"g_jet": connections.markov_h(1.0).evaluator}, np.linspace(-2.0, 6.0, 41)),
        lambda: (D.make_beta_prime(2.1, 1.3), SeedKind.DIRECT_H, TailSide.RIGHT,
                 {"h_jet": connections.markov_h(2.1 / 0.3).evaluator},
                 np.concatenate(([-1.0, 0.0], np.geomspace(0.1, 60.0, 40)))),
    ], ids=["gaussian-pdf", "beta-prime-shifted", "ncchi2-left", "custom-g", "direct-h"])
    def test_sweep_levels_match_each_iterate(self, make):
        # one sweep of P_i gives every P_j at order o + i - j bit for bit,
        # NaN masks included, and its ln f truncates to the ln f jet of
        # every lower order
        d, seed_kind, side, kw, xs = make()
        its = chain(d, seed_kind, side, 4, **kw)
        for o in (0, 1, 2):
            levels, lf = E.log_chain(its[-1], xs, o)
            assert len(levels) == len(its)
            for j, (it, level) in enumerate(zip(its, levels)):
                want = it.log_evaluator(xs, o + 4 - j)
                assert level.order == want.order
                assert [_bits(c) for c in level.coeffs] == [_bits(c) for c in want.coeffs], (o, j)
            for m in range(lf.order + 1):
                want = d.log_pdf_jet(xs, m)
                assert [_bits(c) for c in lf.coeffs[: m + 1]] == [_bits(c) for c in want.coeffs], (o, m)

    def test_higher_order(self, chain01):
        xs = np.linspace(-1.0, 5.0, 31)
        for it in chain01:
            assert_batch_matches_scalar(it, xs, order=3)

    @settings(max_examples=40, deadline=None, database=None)
    @seed(20261018)
    @given(st.data())
    def test_random_parameters_and_windows(self, data):
        kind = data.draw(st.sampled_from(["gaussian", "beta-prime", "ncchi2"]), label="kind")
        side = data.draw(st.sampled_from([TailSide.RIGHT, TailSide.LEFT]), label="side")
        pos = st.floats(min_value=0.3, max_value=6.0)
        if kind == "gaussian":
            mu = data.draw(st.floats(min_value=-3.0, max_value=3.0), label="mu")
            sigma = data.draw(pos, label="sigma")
            d, seed_kind = D.make_gaussian(mu, sigma), SeedKind.PDF
            a = data.draw(st.floats(min_value=mu - 4.0 * sigma, max_value=mu + 4.0 * sigma), label="a")
        else:
            if kind == "beta-prime":
                d = D.make_beta_prime(data.draw(pos, label="alpha"), data.draw(pos, label="beta"))
            else:
                k = data.draw(st.floats(min_value=1.0, max_value=20.0), label="k")
                s = data.draw(st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=10.0)), label="s")
                d = D.make_noncentral_chi2(k, s)
            seed_kind = SeedKind.SHIFTED_PDF
            a = data.draw(st.floats(min_value=0.01, max_value=5.0), label="a")
        b = a + data.draw(st.floats(min_value=0.1, max_value=30.0), label="width")
        depth = data.draw(st.integers(min_value=0, max_value=4), label="depth")
        xs = np.linspace(a, b, 16)
        for it in chain(d, seed_kind, side, depth):
            assert_batch_matches_scalar(it, xs)


class TestOneSweep:
    """A grid classification reads ln f once: the chain, f and the
    predecessor's slope for tightness come from one sweep, and each
    bisection step is one scalar sweep with one more ln f call."""

    @staticmethod
    def _counted(spec):
        calls = {"grid": 0, "point": 0}
        inner = spec.log_pdf_jet

        def counted(anchor, order):
            calls["grid" if isinstance(anchor, np.ndarray) else "point"] += 1
            return inner(anchor, order)

        return dataclasses.replace(spec, log_pdf_jet=counted), calls

    @pytest.mark.parametrize("make, seed_kind, side, window, depth, bisects", [
        (lambda: D.make_gaussian(0.0, 1.0), SeedKind.PDF, TailSide.RIGHT, (0.05, 8.0), 1, False),
        (lambda: D.make_gaussian(0.0, 1.0), SeedKind.PDF, TailSide.RIGHT, (0.05, 8.0), 3, True),
        (lambda: D.make_beta_prime(2.1, 1.3), SeedKind.SHIFTED_PDF, TailSide.RIGHT, (0.5, 60.0), 0, True),
        (lambda: D.make_beta_prime(2.1, 1.3), SeedKind.SHIFTED_PDF, TailSide.RIGHT, (0.5, 60.0), 4, True),
        (lambda: D.make_noncentral_chi2(10.0, 2.0), SeedKind.SHIFTED_PDF, TailSide.LEFT, (0.05, 6.0), 2, False),
    ], ids=["gaussian-P1", "gaussian-P3", "beta-prime-P0", "beta-prime-P4", "ncchi2-P2"])
    def test_classify_reads_ln_f_once_per_pass(self, monkeypatch, make, seed_kind, side, window, depth, bisects):
        d, calls = self._counted(make())
        it = chain(d, seed_kind, side, depth)[-1]
        passes = {"grid": 0, "point": 0}
        sweep, conditions = E._sweep, E._conditions

        def counted_sweep(it, xs):
            passes["grid"] += 1
            return sweep(it, xs)

        def counted_conditions(it, x, tol):
            passes["point"] += 1
            return conditions(it, x, tol)

        monkeypatch.setattr(E, "_sweep", counted_sweep)
        monkeypatch.setattr(E, "_conditions", counted_conditions)
        cls = E.classify(it, window)
        assert cls.everywhere is not bisects
        assert passes["grid"] == 1 and calls["grid"] == 1
        assert calls["point"] == passes["point"]
        assert (passes["point"] > 0) is bisects


def _outcomes(classifications):
    """Each level's classification in comparable form, up to and
    including the first level that raises."""
    out = []
    try:
        for c in classifications:
            out.append((c.verdict, repr(c.threshold), [repr(r) for r in c.residuals], c.limit_ok,
                        c.tightness_ok, c.everywhere, c.monotone, c.window, c.tol))
    except TailkitError as exc:
        out.append((type(exc), str(exc)))
    return out


_SETTINGS = {
    "fig1": (lambda: D.make_gaussian(-1.7, 1.9), SeedKind.PDF, TailSide.RIGHT, (1.0, 30.0)),
    "fig2": (lambda: D.make_beta_prime(2.1, 1.3), SeedKind.SHIFTED_PDF, TailSide.RIGHT, (2.0, 60.0)),
    "fig3": (lambda: D.make_noncentral_chi2(10.0, 2.0), SeedKind.SHIFTED_PDF, TailSide.LEFT, (0.05, 6.0)),
    "tour": (lambda: D.make_gaussian(0.0, 1.0), SeedKind.PDF, TailSide.RIGHT, (2.0, 8.0)),
    "narrow": (lambda: D.make_gaussian(0.0, 1.0), SeedKind.PDF, TailSide.RIGHT, (0.7, 1.6)),
}


class TestClassifyChain:
    """One grid sweep of the deepest iterate classifies every iterate of
    the chain as ``classify`` does each one on its own sweep."""

    @pytest.mark.parametrize("depth", [4, 8])
    @pytest.mark.parametrize("name", sorted(_SETTINGS))
    def test_equals_per_iterate_classify(self, name, depth):
        make, seed_kind, side, window = _SETTINGS[name]
        its = chain(make(), seed_kind, side, depth)
        want = _outcomes(E.classify(it, window) for it in its)
        got = _outcomes(E.tabulate_chain(its[-1], window, np.empty(0))[0])
        assert got == want
        if name == "narrow" and depth == 8:
            assert want[-1][0] is WindowTooSmall  # a level that fails stops both

    def test_checks_before_the_sweep(self, g01):
        its = chain(g01, SeedKind.PDF, TailSide.RIGHT, 2)
        with pytest.raises(DomainError, match="not inside the open support"):
            E.tabulate_chain(its[-1], (-math.inf, 3.0), np.empty(0))

    def test_one_grid_sweep(self, monkeypatch):
        d, calls = TestOneSweep._counted(D.make_beta_prime(2.1, 1.3))
        it = chain(d, SeedKind.SHIFTED_PDF, TailSide.RIGHT, 4)[-1]
        passes, sweeps = [], []
        sweep, conditions = E._sweep, E._conditions
        monkeypatch.setattr(E, "_sweep", lambda it, xs: sweeps.append(it.index) or sweep(it, xs))
        monkeypatch.setattr(E, "_conditions", lambda it, x, tol: passes.append(x) or conditions(it, x, tol))
        levels = list(E.tabulate_chain(it, (0.5, 60.0), np.empty(0))[0])
        assert len(levels) == 5 and not all(c.everywhere for c in levels)
        assert sweeps == [4] and calls["grid"] == 1
        # the threshold searches are the scalar passes, one ln f each
        assert passes and calls["point"] == len(passes)


def _per_iterate_levels(seed_it, depth, window, grid, tol):
    """``run_algorithm``'s levels as ``classify`` of each iterate on its
    own sweep: the reference for the sweeps of doubling depth."""
    it = seed_it
    yield it, E.classify(it, window, grid, tol)
    for _ in range(depth):
        it = E.iterate(it)
        yield it, E.classify(it, window, grid, tol)


def _run_outcome(run_it):
    """A run's classifications, stored bounds and stop reason in
    comparable form, or the error it raised."""
    try:
        res = run_it()
    except TailkitError as exc:
        return type(exc), str(exc)
    stored = tuple(None if it is None else it.index for it in (res.p_l, res.p_u))
    return [it.index for it, _ in res.iterates], _outcomes(c for _, c in res.iterates), stored, res.stop_reason


def _order_capped(spec, cap):
    """``spec`` whose ln f jet exists only up to order ``cap``: a grid
    sweep of an iterate that needs more fails whole."""
    inner = spec.log_pdf_jet

    def log_pdf_jet(anchor, order):
        if order > cap:
            raise OrderExhausted(f"ln f jet of order {order} above {cap}")
        return inner(anchor, order)

    return dataclasses.replace(spec, log_pdf_jet=log_pdf_jet)


_RUN_SETTINGS = dict(
    _SETTINGS, far=(lambda: D.make_gaussian(0.0, 1.0), SeedKind.PDF, TailSide.RIGHT, (7.0, 9.0))
)


class TestRunSweeps:
    """``run_algorithm`` judges its iterates from chain sweeps of doubling
    depth (P_2, P_4, P_8, capped at max_iter), each level once, as
    ``classify`` of each iterate on its own sweep judges it."""

    @staticmethod
    def _both(monkeypatch, make, seed_kind, side, window, max_iter):
        x0 = window[0] if side is TailSide.RIGHT else window[1]

        def run():
            return E.run_algorithm(make(), seed_kind, side, x0, max_iter, window)

        got = _run_outcome(run)
        monkeypatch.setattr(E, "_run_levels", _per_iterate_levels)
        want = _run_outcome(run)
        monkeypatch.undo()
        return got, want

    @pytest.mark.parametrize("max_iter", [1, 2, 4, 8])
    @pytest.mark.parametrize("name", sorted(_RUN_SETTINGS))
    def test_equals_per_iterate_classify(self, monkeypatch, name, max_iter):
        got, want = self._both(monkeypatch, *_RUN_SETTINGS[name], max_iter)
        assert got == want
        assert len(got[0]) >= 2  # every setting gets past its seed

    @pytest.mark.parametrize("cap", [2, 4, 6])
    def test_sweep_that_fails_whole(self, monkeypatch, cap):
        # the sweep of P_2 (or P_8) fails at a level that classify reaches
        # later; the levels below it are judged and the run stops there
        make = lambda: _order_capped(D.make_gaussian(0.0, 1.0), cap)  # noqa: E731
        got, want = self._both(monkeypatch, make, SeedKind.PDF, TailSide.RIGHT, (2.5, 9.0), 8)
        assert got == want
        assert got[3].startswith("iterate-failed") and len(got[0]) == cap - 1

    @pytest.mark.parametrize("name, max_iter, sweeps, levels", [
        ("fig1", 4, 1, 3),  # stops at P_2: one sweep, of P_2
        ("fig1", 8, 1, 3),
        ("far", 1, 1, 2),
        ("far", 5, 3, 6),  # P_2, P_4, P_5
        ("far", 8, 3, 9),  # P_2, P_4, P_8
    ])
    def test_work(self, monkeypatch, name, max_iter, sweeps, levels):
        make, seed_kind, side, window = _RUN_SETTINGS[name]
        d, calls = TestOneSweep._counted(make())
        judged = []
        judge = E._judge
        monkeypatch.setattr(E, "_judge", lambda it, *a: judged.append(it.index) or judge(it, *a))
        res = E.run_algorithm(d, seed_kind, side, window[0], max_iter, window)
        assert len(res.iterates) == levels
        assert calls["grid"] == sweeps
        assert judged == list(range(levels))  # each level once, in order


def _passes(it, verdict, x):
    """Whether ``it`` meets the conditions of its verdict at x (one scalar
    pass)."""
    e = E._conditions(it, x, E.DEFAULT_TOL)[0]
    return e.defined and {Verdict.UPPER: e.up_ok, Verdict.LOWER: e.lo_ok}.get(verdict, e.up_ok and e.lo_ok)


class TestThresholdSearch:
    """A threshold inside the window is the root of the quantity that
    fails first at the failing grid point, found by Illinois with one
    scalar pass per step and closed by one more pass on the passing side;
    where that quantity is undefined the bracket is bisected."""

    @staticmethod
    def _counting(monkeypatch):
        passes, searches = [], []
        conditions, illinois = E._conditions, rootfind.illinois

        def counted(it, x, tol):
            passes.append(x)
            return conditions(it, x, tol)

        monkeypatch.setattr(E, "_conditions", counted)
        monkeypatch.setattr(rootfind, "illinois", lambda *a, **k: searches.append(a) or illinois(*a, **k))
        return passes, searches

    @staticmethod
    def _bisected(it, verdict, fail, ok):
        """The pass/fail boundary between a failing and a passing point, by
        plain bisection of the conditions to rounding."""
        assert not _passes(it, verdict, fail) and _passes(it, verdict, ok)
        for _ in range(200):
            mid = 0.5 * (fail + ok)
            if not (min(fail, ok) < mid < max(fail, ok)):
                break
            if _passes(it, verdict, mid):
                ok = mid
            else:
                fail = mid
        return ok

    @pytest.mark.parametrize("depth, verdict", [(2, Verdict.UPPER), (3, Verdict.LOWER)])
    def test_gaussian_pole_in_few_passes(self, monkeypatch, chain01, depth, verdict):
        # P2's pole, and P3's edge with it, is the zero of (ln P1)' at
        # sqrt(sqrt2 - 1): bisection took 25 passes to get there
        passes, searches = self._counting(monkeypatch)
        a, b = 0.1, 8.0
        cls = E.classify(chain01[depth], (a, b))
        assert cls.verdict is verdict
        assert 0.0 <= cls.threshold - SQRT_X2 <= 1e-10 * (b - a)
        assert len(searches) == 1 and len(passes) <= 8
        assert _passes(chain01[depth], verdict, cls.threshold)

    @pytest.mark.parametrize("side, window", [(TailSide.RIGHT, (0.5, 60.0)), (TailSide.RIGHT, (2.0, 60.0)),
                                              (TailSide.LEFT, (0.05, 3.0))])
    def test_beta_prime_shifted_seed(self, monkeypatch, side, window):
        # the seed's own denominator alpha - (alpha + beta) x/(1 + x) has its
        # zero at alpha/beta; the deeper thresholds are poles of the levels
        alpha, beta = 2.1, 1.3
        its = chain(D.make_beta_prime(alpha, beta), SeedKind.SHIFTED_PDF, side, 4 if side is TailSide.RIGHT else 3)
        a, b = window
        into = 1.0 if side is TailSide.RIGHT else -1.0  # toward the passing side
        searched = 0
        for it in its:
            passes, searches = self._counting(monkeypatch)
            cls = E.classify(it, window)
            monkeypatch.undo()
            if cls.everywhere:
                continue
            searched += 1
            assert len(searches) == 1 and len(passes) <= 10
            step = 1e-6 * (b - a)
            root = self._bisected(it, cls.verdict, cls.threshold - into * step, cls.threshold + into * step)
            assert 0.0 <= into * (cls.threshold - root) <= 1e-10 * (b - a)
            if it.index == 0:
                assert 0.0 <= into * (cls.threshold - alpha / beta) <= 1e-10 * (b - a)
        assert searched >= 3

    def test_undefined_quantity_is_bisected(self, monkeypatch):
        # a custom g that raises below x = 4 leaves P0 undefined there
        # without a sign to search on: the bracket is bisected
        d = D.make_beta_prime(2.1, 1.3)

        def g_jet(anchor, order):
            if anchor < 4.0:
                raise DomainError("no g below 4")
            return jet_var(anchor, order) * J.exp(d.log_pdf_jet(anchor, order))

        it = E.make_seed(d, SeedKind.CUSTOM_G, TailSide.RIGHT, g_jet=g_jet)
        passes, searches = self._counting(monkeypatch)
        cls = E.classify(it, (2.0, 60.0))
        assert cls.verdict is Verdict.UPPER and not searches
        assert 20 <= len(passes) <= 40
        assert 0.0 <= cls.threshold - 4.0 <= 1e-10 * 58.0
