import math

import mpmath as mp
import numpy as np
import pytest

from conftest import chain, make_exp1
from tailkit import connections as C
from tailkit import dist as D
from tailkit import engine as E
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
from tailkit.jet import Jet

_GAUSS = chain(D.make_gaussian(0.0, 1.0), SeedKind.PDF, TailSide.RIGHT, 3)
_NCCHI2 = chain(D.make_noncentral_chi2(10.0, 2.0), SeedKind.SHIFTED_PDF, TailSide.LEFT, 1)


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

    @pytest.mark.parametrize("c,near", [(0.3, 3.952842874573293), (0.5, 2.617866613)])
    def test_step_driven_threshold(self, c, near):
        # no margin fails at the failing grid point: the threshold is
        # where the step crosses the tolerance, the right root of
        # x^2 e^{-x} = c (1 + tol), and it lies on the root's passing side
        window = (0.5, 20.0)
        cls = C.classify_h(make_exp1(), C.markov_h(c), window)
        assert cls.verdict is Verdict.UPPER
        root = float(mp.findroot(lambda x: 2 * mp.log(x) - x - mp.log(c * (1 + mp.mpf(cls.tol))), near))
        assert abs(root - near) < 1e-9
        assert root <= cls.threshold <= root + 1e-10 * (window[1] - window[0])

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

        cls = C.classify_h(g, C.CandidateH(h_eval, TailSide.RIGHT), (0.5, 8.0))
        assert cls.verdict is Verdict.EXACT

    def test_left_tail_cdf_is_exact(self):
        g = D.make_gaussian(0.0, 1.0)

        def h_eval(anchor, order):
            cdf = O.gaussian_cdf(0.0, 1.0, anchor)
            if order == 0:
                return Jet(anchor, (cdf,))
            return Jet(anchor, (cdf, g.pdf_jet(anchor, 0).value) + (0.0,) * (order - 1))

        cls = C.classify_h(g, C.CandidateH(h_eval, TailSide.LEFT), (-8.0, -0.5))
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
        hb = C.chernoff_h(mgf, [1.0, 2.0], r=5.0)
        hu = C.chernoff_h(mgf, [1.0, 2.0])
        x = 2.0
        assert hb.evaluator(x, 0).value < hu.evaluator(x, 0).value

    def test_mgf_diverged(self):
        h = C.chernoff_h(lambda t: math.inf, [1.0, 2.0])
        with pytest.raises(MgfDiverged, match=r"at t=1\.0$"):
            h.evaluator(1.0, 0)
        # a point stops at its first failure, in the scan: a grid raises
        # what the float evaluation raises, not a failure of a refinement
        with pytest.raises(MgfDiverged, match=r"at t=1\.0$"):
            h.evaluator(np.array([1.0, 2.0]), 0)

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

    def test_candidate_far_above_f(self):
        # E{X}/x over a Gaussian f: h/f passes e^709 from x ~ 39 on, where
        # the candidate is still an upper bound and still defined
        cls = C.classify_h(D.make_gaussian(1.0, 1.0), C.markov_h(1.0), (2.0, 60.0), GridSpec(128))
        assert cls.verdict is Verdict.UPPER and cls.everywhere


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


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


_FIG1_GRID = E.grid_points((1.0, 30.0), GridSpec(), TailSide.RIGHT)


def _gauss_mgf(mu, sigma):
    return lambda t: math.exp(mu * t + 0.5 * sigma * sigma * t * t)


def _chernoff_reference(mgf, t_grid, x, r=math.inf):
    """(h, h') at one float x by the per-point minimisation, one scalar
    ``mgf`` call per branch: the scan, then Brent's parabolic minimisation
    of phi(t) (ln M(t) - t x, or ln of the branch value when r is finite)
    from the scan's minimum and its neighbours. The reference for the
    lock-step evaluator."""
    ts = sorted(float(t) for t in t_grid)

    def branch(t):
        m = mgf(t)
        v = m * math.exp(-t * x)
        if math.isfinite(r):
            v -= m * math.exp(-t * r)
        return v, m

    def phi(v, m, t):
        if math.isfinite(r):
            return math.log(v) if v > 0.0 else math.nan
        return (math.log(m) if m > 0.0 else math.nan) - t * x

    vals = [branch(t) for t in ts]
    j = min(range(len(ts)), key=lambda i: (vals[i][0], ts[i]))
    t_star, (v_star, m_star) = ts[j], vals[j]
    if len(ts) > 1:
        jl, jh = max(j - 1, 0), min(j + 1, len(ts) - 1)
        lo, hi = ts[jl], ts[jh]
        t, v_t, m_t, f_t = t_star, v_star, m_star, phi(v_star, m_star, t_star)
        tw, f_w, tv, f_v = lo, phi(*vals[jl], lo), hi, phi(*vals[jh], hi)
        d = e = hi - lo
        for _ in range(100 if hi > lo and f_t == f_t else 0):
            mid = 0.5 * (lo + hi)
            tol1 = 1e-6 * t
            tol2 = 2.0 * tol1
            if abs(t - mid) <= tol2 - 0.5 * (hi - lo):
                break
            pr = (t - tw) * (f_t - f_v)
            q = (t - tv) * (f_t - f_w)
            p = (t - tv) * q - (t - tw) * pr
            q = 2.0 * (q - pr)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(e) > tol1 and abs(p) < abs(0.5 * q * e) and q * (lo - t) < p < q * (hi - t):
                e, d = d, p / q
                if t + d - lo < tol2 or hi - (t + d) < tol2:
                    d = math.copysign(tol1, mid - t)
            else:
                e = lo - t if t >= mid else hi - t
                d = 0.5 * (3.0 - math.sqrt(5.0)) * e
            u = t + d if abs(d) >= tol1 else t + math.copysign(tol1, d)
            v_u, m_u = branch(u)
            f_u = phi(v_u, m_u, u)
            if f_u != f_u:
                break
            if f_u <= f_t:
                if u >= t:
                    lo = t
                else:
                    hi = t
                tv, f_v, tw, f_w = tw, f_w, t, f_t
                t, f_t, v_t, m_t = u, f_u, v_u, m_u
            else:
                if u < t:
                    lo = u
                else:
                    hi = u
                if f_u <= f_w or tw == t:
                    tv, f_v, tw, f_w = tw, f_w, u, f_u
                elif f_u <= f_v or tv == t or tv == tw:
                    tv, f_v = u, f_u
        if v_t < v_star:
            t_star, v_star, m_star = t, v_t, m_t
    return v_star, -t_star * m_star * math.exp(-t_star * x)


_REFERENCE_CASES = [
    (_gauss_mgf(-1.7, 1.9), list(np.linspace(0.05, 12.0, 80)), {}),
    (_gauss_mgf(0.0, 1.0), list(np.linspace(0.05, 3.0, 30)), {"r": 40.0}),
    (_gauss_mgf(-1.7, 1.9), [0.5, 0.5, 1.0, 2.0, 2.0, 3.0, 6.0, 6.0], {}),
    (lambda t: 1e-300, list(np.linspace(1.0, 40.0, 40)), {}),
]
_REFERENCE_IDS = ["chernoff", "bounded", "repeated-t", "zero-ties"]


class TestGridCandidates:
    """The Markov and Chernoff evaluators take the whole grid, and give
    at every grid point the bits of their float evaluation there. For
    Chernoff both agree with the per-point minimisation by libm to 1e-13
    relative (numpy's exp and log against libm's)."""

    @pytest.mark.parametrize("mgf, ts, kw", _REFERENCE_CASES, ids=_REFERENCE_IDS)
    def test_chernoff_matches_per_point_reference(self, mgf, ts, kw):
        grid = C.chernoff_h(mgf, ts, **kw).evaluator(_FIG1_GRID, 1)
        want = [_chernoff_reference(mgf, ts, x, **kw) for x in _FIG1_GRID.tolist()]
        np.testing.assert_allclose(grid.coeffs[0], [v for v, _ in want], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(grid.coeffs[1], [dv for _, dv in want], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("mgf, ts, kw", _REFERENCE_CASES, ids=_REFERENCE_IDS)
    def test_chernoff_float_matches_per_point_reference(self, mgf, ts, kw):
        # a float anchor is a one-point grid, with float coefficients
        h = C.chernoff_h(mgf, ts, **kw)
        for x in _FIG1_GRID[::4].tolist():
            jet = h.evaluator(x, 2)
            assert [type(c) for c in jet.coeffs] == [float] * 3
            np.testing.assert_allclose(jet.coeffs[:2], _chernoff_reference(mgf, ts, x, **kw),
                                       rtol=1e-13, atol=0.0, err_msg=str(x))
            assert jet.coeffs[2] == 0.0

    @staticmethod
    def _assert_grid_is_pointwise(h, xs, order):
        grid = h.evaluator(xs, order)
        assert grid.order == order
        for i, x in enumerate(xs.tolist()):
            point = h.evaluator(x, order)
            assert _bits([c[i] for c in grid.coeffs]) == _bits(point.coeffs), (x, order)

    @pytest.mark.parametrize("make", [
        lambda: C.chernoff_h(_gauss_mgf(-1.7, 1.9), list(np.linspace(0.05, 12.0, 80))),
        lambda: C.chernoff_h(_gauss_mgf(0.0, 1.0), list(np.linspace(0.05, 3.0, 30)), r=40.0),
        # exact ties in the scan: repeated t values, and values that
        # underflow to 0.0 for every large t
        lambda: C.chernoff_h(_gauss_mgf(-1.7, 1.9), [0.5, 0.5, 1.0, 2.0, 2.0, 3.0, 6.0, 6.0]),
        lambda: C.chernoff_h(lambda t: 1e-300, list(np.linspace(1.0, 40.0, 40))),
        lambda: C.markov_h(2.1 / 0.3),
        lambda: C.markov_h(2.1 / 0.3, r=45.0),
    ], ids=["chernoff", "chernoff-bounded", "chernoff-repeated-t", "chernoff-zero-ties",
            "markov", "markov-bounded"])
    def test_fig1_grid_bit_for_bit(self, make):
        h = make()
        for order in (0, 1, 2):
            self._assert_grid_is_pointwise(h, _FIG1_GRID, order)

    def test_scan_ties_are_exercised(self):
        # the tie cases above do reach equal minima in the scan
        for mgf, ts in ((_gauss_mgf(-1.7, 1.9), [0.5, 0.5, 1.0, 2.0, 2.0, 3.0, 6.0, 6.0]),
                        (lambda t: 1e-300, list(np.linspace(1.0, 40.0, 40)))):
            tied = 0
            for x in _FIG1_GRID.tolist():
                vals = [mgf(t) * math.exp(-t * x) for t in ts]
                tied += vals.count(min(vals)) > 1
            assert tied > 0

    def test_scan_calls_mgf_once_per_t(self):
        ts = list(np.linspace(0.05, 12.0, 80))
        calls = []
        mgf = _gauss_mgf(-1.7, 1.9)
        h = C.chernoff_h(lambda t: calls.append(t) or mgf(t), ts)
        h.evaluator(_FIG1_GRID, 1)
        assert calls[: len(ts)] == ts  # the scan, before the refinement's calls

    def test_refinement_calls_mgf_a_few_times_per_point(self):
        calls = []
        mgf = _gauss_mgf(-1.7, 1.9)
        h = C.chernoff_h(lambda t: calls.append(t) or mgf(t), list(np.linspace(0.05, 12.0, 80)))
        h.evaluator(_FIG1_GRID, 1)
        assert len(calls) <= 80 + 8 * _FIG1_GRID.size

    def test_envelope_slope_is_exact_for_a_gaussian(self):
        # phi(t) = ln M(t) - t x is a parabola with its vertex at
        # t* = (x - mu)/sigma^2, so the parabolic step lands on it
        mu, sigma = -1.7, 1.9
        jet = C.chernoff_h(_gauss_mgf(mu, sigma), list(np.linspace(0.05, 12.0, 80))).evaluator(_FIG1_GRID, 1)
        for x, h, dh in zip(_FIG1_GRID.tolist(), *(c.tolist() for c in jet.coeffs)):
            t = (mp.mpf(x) - mu) / mp.mpf(sigma) ** 2
            want = mp.exp(-((mp.mpf(x) - mu) ** 2) / (2 * mp.mpf(sigma) ** 2))
            assert abs(h / want - 1) <= 1e-12
            assert abs(dh / (-t * want) - 1) <= 1e-12

    def test_markov_non_positive_anchor(self):
        h = C.markov_h(1.0)
        jet = h.evaluator(np.array([-1.0, 0.0, 2.0]), 1)
        assert all(math.isnan(c[0]) and math.isnan(c[1]) for c in jet.coeffs)
        assert (jet.coeffs[0][2], jet.coeffs[1][2]) == (0.5, -0.25)
        for x in (-1.0, 0.0):
            with pytest.raises(DomainError):
                h.evaluator(x, 1)

    def test_chernoff_overflow_is_undefined(self):
        # e^{-tx} overflows at x = -100 before M(t) e^{-tx} does: a float
        # raises, as the scalar minimisation did, and the grid point is NaN
        h = C.chernoff_h(_gauss_mgf(-100.0, 1.0), list(np.linspace(0.05, 12.0, 80)))
        with pytest.raises(OverflowError):
            h.evaluator(-100.0, 1)
        jet = h.evaluator(np.array([-100.0, 2.0]), 1)
        assert math.isnan(jet.coeffs[0][0]) and math.isnan(jet.coeffs[1][0])
        assert _bits([c[1] for c in jet.coeffs]) == _bits(h.evaluator(2.0, 1).coeffs)

    def test_mgf_diverged_propagates_from_the_grid(self):
        # M(t) is finite up to t = 5 only; every point's scan reaches t > 5
        mgf = _gauss_mgf(0.0, 1.0)
        h = C.chernoff_h(lambda t: mgf(t) if t <= 5.0 else math.inf, list(np.linspace(0.05, 12.0, 80)))
        with pytest.raises(MgfDiverged):
            h.evaluator(_FIG1_GRID, 1)
        with pytest.raises(MgfDiverged):
            C.classify_h(D.make_gaussian(0.0, 1.0), h, (1.0, 30.0))

    @pytest.mark.parametrize("error", [ValueError, ZeroDivisionError])
    def test_raising_mgf_above_a_t(self, error):
        # mgf raises above t = 5, which every point's scan reaches: a float
        # anchor raises it; on the grid, an error a seed turns into a pole
        # (ValueError) leaves every point NaN, and any other is raised
        mgf = _gauss_mgf(0.0, 1.0)

        def raising(t):
            if t > 5.0:
                raise error("no moment above t = 5")
            return mgf(t)

        h = C.chernoff_h(raising, list(np.linspace(0.05, 12.0, 80)))
        with pytest.raises(error, match="no moment"):
            h.evaluator(2.0, 1)
        if error is ValueError:
            jet = h.evaluator(_FIG1_GRID, 1)
            assert _FIG1_GRID.size == 512
            assert all(np.isnan(c).all() for c in jet.coeffs)
        else:
            with pytest.raises(error, match="no moment"):
                h.evaluator(_FIG1_GRID, 1)

    def test_branch_non_finite(self):
        # M(t) is finite but M(t) e^{-tx} overflows at t = 2, x = -10
        h = C.chernoff_h(lambda t: 1e300, [1.0, 2.0, 12.0])
        for anchor in (-10.0, np.array([-10.0, 1.0])):
            with pytest.raises(MgfDiverged) as info:
                h.evaluator(anchor, 1)
            assert str(info.value) == "Chernoff branch non-finite at t=2.0, x=-10.0"

    def test_failed_grid_pass_raises(self):
        # an evaluator that takes the grid and fails on it fails the pass,
        # with the error a seed gives, not as a grid of undefined points
        def broken(anchor, order):
            raise ValueError("no candidate on this grid")

        h = C.CandidateH(E._takes_grid(broken), TailSide.RIGHT)
        with pytest.raises(PoleEncountered, match="no candidate on this grid"):
            C.classify_h(D.make_gaussian(0.0, 1.0), h, (1.0, 5.0))

    def test_classify_h_takes_the_grid_whole(self, monkeypatch):
        # a marked candidate is evaluated once on the grid, not per point
        calls = []
        pointwise = E._pointwise

        def counted(fn, anchor, order):
            calls.append(isinstance(anchor, np.ndarray))
            return pointwise(fn, anchor, order)

        monkeypatch.setattr(E, "_pointwise", counted)
        for h in (C.markov_h(2.1 / 0.3), C.chernoff_h(_gauss_mgf(-1.7, 1.9), list(np.linspace(0.05, 12.0, 80)))):
            calls.clear()
            evaluated = []
            inner = h.evaluator

            def evaluator(anchor, order, inner=inner):
                evaluated.append(anchor)
                return inner(anchor, order)

            cls = C.classify_h(D.make_gaussian(-1.7, 1.9), C.CandidateH(E._takes_grid(evaluator), h.side), (1.0, 30.0))
            assert cls.everywhere
            assert calls == [True] and len(evaluated) == 1
