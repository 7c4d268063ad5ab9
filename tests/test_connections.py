import math

import numpy as np
import pytest

from tailkit import connections as C
from tailkit import dist as D
from tailkit import engine as E
from tailkit import jet as J
from tailkit import oracle as O
from tailkit.engine import GridSpec, SeedKind, TailSide, Verdict
from tailkit.errors import (
    DivisionByZeroJet,
    DomainError,
    MgfDiverged,
    OrderExhausted,
    ParamError,
    PoleEncountered,
    WindowTooSmall,
)
from tailkit.jet import Jet, jet_var


def make_exp1():
    def log_jet(anchor, order):
        return -jet_var(anchor, order)

    return D.DistributionSpec(
        "exp1", {}, D.SupportInterval(0.0, math.inf),
        lambda a, o: J.exp(log_jet(a, o)), lambda x: -x, log_jet,
    )


def _chain(dist, seed, side, depth):
    chain = [E.make_seed(dist, seed, side)]
    for _ in range(depth):
        chain.append(E.iterate(chain[-1]))
    return chain


_GAUSS = _chain(D.make_gaussian(0.0, 1.0), SeedKind.PDF, TailSide.RIGHT, 3)
_NCCHI2 = _chain(D.make_noncentral_chi2(10.0, 2.0), SeedKind.SHIFTED_PDF, TailSide.LEFT, 1)


class TestSharedVerdictRule:
    """An iterate handed to classify_h as a candidate h = P_i gets the
    verdict, threshold and limit check classify gives the iterate."""

    @pytest.mark.parametrize(
        "it, window",
        [(it, w) for w in ((0.05, 8.0), (0.1, 8.0)) for it in _GAUSS]
        + [(_GAUSS[2], (0.7, 1.6))]
        + [(it, (0.05, 6.0)) for it in _NCCHI2],
    )
    def test_iterate_as_candidate(self, it, window):
        a, b = window
        want = E.classify(it, window)
        got = C.classify_h(it.dist, C.CandidateH(it.evaluator, it.side), window)
        assert got.verdict is want.verdict
        assert got.limit_ok == want.limit_ok
        assert abs(got.threshold - want.threshold) <= 1e-10 * (b - a)
        assert got.everywhere == want.everywhere
        assert got.monotone is None and got.tightness_ok is None


class TestCandidateIsDirectHSeed:
    """classify_h classifies the direct-h seed P0 = h, so it checks the
    window and words a nowhere-defined candidate as classify does."""

    def test_window_outside_support(self):
        with pytest.raises(DomainError, match="not inside the open support"):
            C.classify_h(make_exp1(), C.markov_h(1.0), (-1.0, 5.0), GridSpec(128))

    def test_nowhere_defined(self):
        h = C.CandidateH(lambda a, o: Jet(a, (-1.0,) + (0.0,) * o), TailSide.RIGHT)
        with pytest.raises(WindowTooSmall, match="iterate 0 satisfies no base condition anywhere"):
            C.classify_h(make_exp1(), h, (0.5, 60.0), GridSpec(128))


class TestMarkovH:
    def test_unbounded_values(self):
        h = C.markov_h(1.0)
        jet = h.evaluator(2.0, 1)
        assert jet.value == 0.5
        assert jet.coeffs[1] == -0.25

    def test_bounded_variant(self):
        h = C.markov_h(1.0, r=4.0)
        assert h.evaluator(2.0, 0).value == 0.25

    def test_classified_upper_on_exp1(self):
        exp1 = make_exp1()
        cls = C.classify_h(exp1, C.markov_h(1.0), (0.5, 60.0), GridSpec(128))
        assert cls.verdict is Verdict.UPPER
        # h(x) = E/x satisfies the governing condition for all x > 0
        # here (x^2 e^{-x} <= 1 everywhere), so the whole window verifies
        assert cls.threshold == 0.5

    def test_looser_than_engine_seed(self):
        # the g = f seed for Exp(1) is the exact tail e^{-x}
        for x in np.geomspace(1.0, 40.0, 30):
            assert 1.0 / x >= math.exp(-float(x))

    def test_params(self):
        with pytest.raises(ParamError):
            C.markov_h(-1.0)
        with pytest.raises(ParamError):
            C.markov_h(1.0, r=-2.0)


class TestExactCandidates:
    def test_right_tail_itself_is_exact(self):
        g = D.make_gaussian(0.0, 1.0)

        def h_eval(anchor, order):
            tail = O.gaussian_tail(0.0, 1.0, anchor)
            if order == 0:
                return Jet(anchor, (tail,))
            return Jet(anchor, (tail, -g.pdf_jet(anchor, 0).value) + (0.0,) * (order - 1))

        cls = C.classify_h(g, C.CandidateH(h_eval, TailSide.RIGHT, "1-F"), (0.5, 8.0))
        assert cls.verdict is Verdict.EXACT

    def test_left_tail_cdf_is_exact(self):
        g = D.make_gaussian(0.0, 1.0)

        def h_eval(anchor, order):
            cdf = O.gaussian_cdf(0.0, 1.0, anchor)
            if order == 0:
                return Jet(anchor, (cdf,))
            return Jet(anchor, (cdf, g.pdf_jet(anchor, 0).value) + (0.0,) * (order - 1))

        cls = C.classify_h(g, C.CandidateH(h_eval, TailSide.LEFT, "F"), (-8.0, -0.5))
        assert cls.verdict is Verdict.EXACT


class TestChernoffH:
    def test_matches_gaussian_mgf_minimum(self):
        # min_t e^{t^2/2 - t x} = e^{-x^2/2} at t = x
        ts = list(np.linspace(0.1, 6.0, 60))
        h = C.chernoff_h(lambda t: math.exp(0.5 * t * t), ts)
        for x in (0.5, 1.5, 3.0):
            got = h.evaluator(x, 0).value
            assert abs(got - math.exp(-0.5 * x * x)) < 1e-9

    def test_classified_upper_on_gaussian(self):
        g = D.make_gaussian(0.0, 1.0)
        h = C.chernoff_h(lambda t: math.exp(0.5 * t * t), list(np.linspace(0.05, 12.0, 120)))
        cls = C.classify_h(g, h, (0.6, 8.0), GridSpec(128))
        assert cls.verdict is Verdict.UPPER
        # residual h' + f = -x e^{-x^2/2} + phi(x) <= 0 for x >= 1/sqrt(2 pi)
        assert 1.0 - O.gaussian_cdf(0.0, 1.0, 0.6) > h.evaluator(8.0, 0).value  # sanity

    def test_fine_grid_dominates_coarse(self):
        # the fine grid is an actual superset of the coarse points, so
        # its minimum can only be lower
        mgf = lambda t: math.exp(0.5 * t * t)
        coarse = C.chernoff_h(mgf, [0.5, 2.0, 5.0], refine=False)
        fine = C.chernoff_h(mgf, list(np.linspace(0.5, 5.0, 301)), refine=False)
        for x in np.linspace(0.5, 5.0, 40):
            assert fine.evaluator(float(x), 0).value <= coarse.evaluator(float(x), 0).value + 1e-15

    def test_refined_grids_agree(self):
        mgf = lambda t: math.exp(0.5 * t * t)
        coarse = C.chernoff_h(mgf, [0.5, 2.0, 5.0])
        fine = C.chernoff_h(mgf, list(np.linspace(0.1, 6.0, 301)))
        for x in np.linspace(0.6, 4.5, 20):
            a = fine.evaluator(float(x), 0).value
            b = coarse.evaluator(float(x), 0).value
            assert a <= b * (1.0 + 1e-9)

    def test_envelope_derivative_matches_fd(self):
        ts = list(np.linspace(0.05, 8.0, 400))
        h = C.chernoff_h(lambda t: math.exp(0.5 * t * t), ts)
        for x in (0.8, 1.7, 3.1):
            hj = h.evaluator(x, 1)
            step = 1e-5
            fd = (h.evaluator(x + step, 0).value - h.evaluator(x - step, 0).value) / (2 * step)
            assert abs(hj.coeffs[1] - fd) / abs(fd) < 1e-5

    def test_bounded_support_variant(self):
        mgf = lambda t: math.exp(0.5 * t * t)
        hb = C.chernoff_h(mgf, [1.0, 2.0], r=5.0, refine=False)
        hu = C.chernoff_h(mgf, [1.0, 2.0], refine=False)
        x = 2.0
        assert hb.evaluator(x, 0).value < hu.evaluator(x, 0).value

    def test_mgf_diverged(self):
        h = C.chernoff_h(lambda t: math.inf, [1.0, 2.0])
        with pytest.raises(MgfDiverged):
            h.evaluator(1.0, 0)

    def test_params(self):
        with pytest.raises(ParamError):
            C.chernoff_h(lambda t: 1.0, [])
        with pytest.raises(ParamError):
            C.chernoff_h(lambda t: 1.0, [-1.0, 2.0])


class TestClassifyHInvariant:
    def test_upper_candidates_bound_the_tail(self):
        exp1 = make_exp1()
        h = C.markov_h(1.0)
        cls = C.classify_h(exp1, h, (0.5, 60.0), GridSpec(128))
        assert cls.verdict is Verdict.UPPER
        for x in np.geomspace(max(cls.threshold, 0.5), 50.0, 30):
            assert h.evaluator(float(x), 0).value >= math.exp(-float(x)) - 1e-9


class TestClassifyHErrors:
    """A point where the candidate raises what a seed turns into a pole
    is undefined, on the grid and in the bisection alike, as a point
    where it is non-positive; MgfDiverged is not such an error."""

    @staticmethod
    def _below(cut, low):
        h = C.markov_h(1.0)

        def evaluator(anchor, order):
            if anchor < cut:
                return low(anchor, order)
            return h.evaluator(anchor, order)

        return C.CandidateH(evaluator, TailSide.RIGHT)

    @staticmethod
    def _summary(cls):
        return (cls.verdict, cls.threshold, [repr(r) for r in cls.residuals], cls.limit_ok, cls.everywhere)

    @pytest.mark.parametrize("error", [
        DivisionByZeroJet, OrderExhausted, PoleEncountered, DomainError, OverflowError, ValueError,
    ])
    def test_raising_point_is_undefined(self, error):
        exp1 = make_exp1()

        def raising(anchor, order):
            raise error(f"no candidate at x={anchor}")

        def non_positive(anchor, order):
            return Jet(anchor, (-1.0,) + (0.0,) * order)

        window = (0.5, 60.0)
        got = C.classify_h(exp1, self._below(2.0, raising), window, GridSpec(128))
        want = C.classify_h(exp1, self._below(2.0, non_positive), window, GridSpec(128))
        assert self._summary(got) == self._summary(want)
        assert got.verdict is Verdict.UPPER and not got.everywhere
        assert 2.0 <= got.threshold <= 2.0 + 1e-8 * (window[1] - window[0])

    def test_mgf_diverged_propagates(self):
        def diverged(anchor, order):
            raise MgfDiverged(f"MGF non-finite at x={anchor}")

        with pytest.raises(MgfDiverged):
            C.classify_h(make_exp1(), self._below(2.0, diverged), (0.5, 60.0), GridSpec(128))
