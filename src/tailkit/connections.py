"""Markov/Chernoff bridge.

Classifies arbitrary candidate bound functions h(x) and builds the
concrete h instances: the mean-over-x Markov form, its bounded-support
variant, and the grid-minimized Chernoff envelope.

A candidate is the direct-h seed P0 = h (``SeedKind.DIRECT_H``), so
``classify_h`` is ``engine.classify`` of that seed: h > 0 and the
governing sign (the relative residual f/(-h') - 1 against the tolerance
for the right tail, f/h' - 1 for the left) on the grid, with the
verdict, threshold, limit check and residuals every iterate gets. A
point where the candidate raises what a seed turns into a pole, or where
it is non-positive, is undefined. ``markov_h`` and ``chernoff_h``
evaluate the whole grid at once, and ``chernoff_h`` evaluates a float
as a one-point grid, with the same numpy code, so a grid point has the
bits of a float evaluation there; a user's candidate takes one float
anchor and runs point by point through ``engine._pointwise``. Unlike an
iterate, an h candidate carries no monotonicity requirement, so its
``monotone`` and ``tightness_ok`` stay None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import engine as eng
from . import jet as J
from .dist import DistributionSpec
from .engine import Classification, GridSpec, SeedKind, TailSide
from .errors import DomainError, MgfDiverged, ParamError
from .jet import Jet, jet_var


@dataclass(frozen=True)
class CandidateH:
    """A candidate bound function with a jet evaluator of order <= 1."""

    evaluator: Callable[[float, int], Jet]
    side: TailSide
    description: str = ""


def classify_h(
    dist: DistributionSpec,
    h: CandidateH,
    window: tuple[float, float],
    grid: GridSpec = GridSpec(),
    tol: float = eng.DEFAULT_TOL,
) -> Classification:
    """Upper/Lower/Invalid verdict for h on the window: ``engine.classify``
    of the direct-h seed P0 = h, without the monotonicity verdict."""
    seed = eng.make_seed(dist, SeedKind.DIRECT_H, h.side, h_jet=h.evaluator)
    return replace(eng.classify(seed, window, grid, tol), monotone=None)


def markov_h(mean: float, r: float = math.inf) -> CandidateH:
    """h(x) = E{X}/x, or E{X}/x - E{X}/r when the support is bounded on
    the right by r; at a float or on a grid, undefined at x <= 0 (a float
    raises DomainError, a grid point is NaN)."""
    if not (mean > 0.0 and math.isfinite(mean)):
        raise ParamError("markov_h needs a finite positive mean")
    if not r > 0.0:
        raise ParamError("markov_h needs r > 0")
    shift = 0.0 if math.isinf(r) else mean / r

    @eng._takes_grid
    def evaluator(anchor, order: int) -> Jet:
        x = J.check(jet_var(anchor, order), anchor <= 0.0, lambda: DomainError("markov_h needs x > 0"))
        return mean / x - shift

    desc = "E{X}/x" if math.isinf(r) else f"E{{X}}/x - E{{X}}/{r:g}"
    return CandidateH(evaluator, TailSide.RIGHT, desc)


#: Brent's golden-section fraction (3 - sqrt 5)/2.
_CGOLD = 0.5 * (3.0 - math.sqrt(5.0))

#: Relative stop of the t* search: Brent closes its bracket to this width
#: around t*. The parabolic steps put t* itself much closer; the probes at
#: this distance must differ from t*'s in phi by more than its rounding.
_T_RTOL = 1e-6

#: Points per block of the Chernoff scan, whose arrays hold one value
#: per t and point.
_SCAN_BLOCK = 64


def chernoff_h(
    mgf: Callable[[float], float],
    t_grid: list[float],
    r: float = math.inf,
) -> CandidateH:
    """h(x) = min over t of M(t) e^{-tx} (minus M(t) e^{-tr} when r is
    finite), minimized by a grid scan and refined between the bracketing
    grid points; ties in the scan break toward the smaller t.

    h'(x) is the envelope derivative -t* M(t*) e^{-t* x} of the active
    branch.

    The refinement is Brent's safeguarded parabolic minimisation (Brent
    1973, ch. 5) of phi(t) = ln M(t) - t x, or of the ln of the branch
    value when r is finite, started from the scan's minimum and its two
    grid neighbours, and stopped once its bracket is within 1e-6
    relative of t*. phi of a Gaussian is a parabola, so its t* comes out
    to rounding. The refined t* replaces the scan's only where its branch
    value is smaller.

    The evaluator runs on a grid of points, and a float anchor is the grid
    of that one point, with float coefficients: the scan is one array over
    t (and x), with one ``mgf`` call per t, and the refinement runs in
    lock-step over the points, each with its own bracket and stop, with
    numpy's exp and log, so a grid point gets the bits a float evaluation
    gets there. A point stops at the first failure of its evaluation. At a
    float anchor that failure is raised, whatever it is. On a grid, a
    point where it is what a seed turns into a pole (e^{-tx} overflows,
    or ``mgf`` raises such an error) is NaN; anything else, such as
    MgfDiverged for a non-finite M(t) or branch value, the grid
    evaluation raises.
    """
    ts = np.array(sorted(float(t) for t in t_grid))
    if not ts.size or ts[0] <= 0.0:
        raise ParamError("chernoff_h needs a nonempty positive t grid")
    if not r > 0.0:
        raise ParamError("chernoff_h needs r > 0")
    top = ts.size - 1

    def moments(t: np.ndarray) -> tuple[np.ndarray, dict]:
        """M at every t, NaN where ``mgf`` raised; what it raised, by
        flat index."""
        flat = t.ravel().tolist()
        try:
            return np.array(list(map(mgf, flat)), dtype=float).reshape(t.shape), {}
        except Exception:  # kept, and raised where the float evaluation meets it
            m, raised = [], {}
            for i, v in enumerate(flat):
                try:
                    m.append(mgf(v))
                except Exception as exc:
                    m.append(math.nan)
                    raised[i] = exc
            return np.array(m, dtype=float).reshape(t.shape), raised

    def branch(t: np.ndarray, x: np.ndarray, fates: dict, cols, mr=None):
        """M(t) e^{-tx} (- M(t) e^{-tr}) and M(t) elementwise, rows of t
        evaluated in order and columns the points ``x`` (global indices
        ``cols``), with ``mr`` the ``moments`` of t if known: a point stops
        at its first non-finite value, its column is NaN and why it stopped
        goes into ``fates``."""
        m, raised = moments(t) if mr is None else mr
        e = np.exp(-t * x)
        v = m * np.where(e == math.inf, math.nan, e)  # NaN: e^{-tx} overflowed
        if math.isfinite(r):
            v = v - m * np.exp(-t * r)
        bad = ~np.isfinite(v)
        if bad.any():
            shape = v.shape
            hit = np.flatnonzero(bad.any(axis=0))
            rows = bad[:, hit].argmax(axis=0)
            mi = np.broadcast_to(np.arange(m.size).reshape(m.shape), shape)[rows, hit].tolist()
            tt = np.broadcast_to(t, shape)[rows, hit].tolist()
            xx = np.broadcast_to(x, shape)[rows, hit].tolist()
            for col, i, ti, xi, vi in zip(hit.tolist(), mi, tt, xx, v[rows, hit].tolist()):
                if i in raised:
                    fate = raised[i]
                elif not math.isfinite(m.flat[i]):
                    fate = MgfDiverged(f"MGF non-finite at t={ti}")
                elif math.isnan(vi):
                    fate = OverflowError("math range error")
                else:
                    fate = MgfDiverged(f"Chernoff branch non-finite at t={ti}, x={xi}")
                fates[int(cols[col])] = fate
            v[:, hit] = math.nan
        return v, m

    def at(go: np.ndarray, t, x, fates: dict):
        """``branch`` at the points where ``go`` holds, NaN elsewhere."""
        k = np.flatnonzero(go)
        v, m = np.full(go.shape, math.nan), np.full(go.shape, math.nan)
        (v[k],), (m[k],) = branch(t[k][None], x[k], fates, k)
        return v, m

    def phi(v, m, t, x):
        """The refinement's objective from a branch value v and M(t) = m:
        ln M(t) - t x, or ln v when r is finite; NaN where the log is
        not defined."""
        if math.isfinite(r):
            return np.log(np.where(v > 0.0, v, math.nan))
        return np.log(np.where(m > 0.0, m, math.nan)) - t * x

    def scan(x: np.ndarray, fates: dict):
        """The t-grid scan at the points x, in blocks of points to keep its
        arrays small: t*, the minimum and M(t*), and the grid neighbours
        lo and hi of t* with phi there."""
        mr = moments(ts[:, None])
        j = np.empty(x.size, dtype=np.intp)
        v_star, v_lo, v_hi = np.empty(x.size), np.empty(x.size), np.empty(x.size)
        for s in range(0, x.size, _SCAN_BLOCK):
            e = min(s + _SCAN_BLOCK, x.size)
            cols = np.arange(e - s)
            vals, _ = branch(ts[:, None], x[s:e], fates, np.arange(s, e), mr)
            j[s:e] = np.argmin(vals, axis=0)  # the first minimum: the smaller t on a tie
            v_star[s:e] = vals[j[s:e], cols]
            v_lo[s:e] = vals[np.maximum(j[s:e] - 1, 0), cols]
            v_hi[s:e] = vals[np.minimum(j[s:e] + 1, top), cols]
        jl, jh = np.maximum(j - 1, 0), np.minimum(j + 1, top)
        m = mr[0][:, 0]
        return (ts[j], v_star, m[j], ts[jl], ts[jh],
                phi(v_lo, m[jl], ts[jl], x), phi(v_hi, m[jh], ts[jh], x))

    def minimize(x: np.ndarray, fates: dict):
        """t*, the minimum and M(t*) at every point of x; why a point's
        evaluation failed goes into ``fates``. ``v == v`` is "not NaN".

        Brent's state per point: the bracket [lo, hi], the best point t
        and the two before it, tw and tv, with phi there, the last step d
        and the one before it, e."""
        t_star, v_star, m_star, lo, hi, f_lo, f_hi = scan(x, fates)
        if not top:
            return t_star, v_star, m_star
        t, v_t, m_t = t_star, v_star, m_star
        f_t = phi(v_star, m_star, t_star, x)
        tw, f_w, tv, f_v = lo, f_lo, hi, f_hi
        d = e = hi - lo
        ok = (hi > lo) & (v_star == v_star) & (f_t == f_t)  # a point that failed in the scan stops there
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            tol1 = _T_RTOL * t
            tol2 = 2.0 * tol1
            go = ok & (abs(t - mid) > tol2 - 0.5 * (hi - lo))
            if not go.any():
                break
            # the vertex of the parabola through t, tw and tv, taken when it
            # lies inside the bracket and moves less than half the step
            # before last; else a golden-section step into the larger part
            pr = (t - tw) * (f_t - f_v)
            q = (t - tv) * (f_t - f_w)
            p = (t - tv) * q - (t - tw) * pr
            q = 2.0 * (q - pr)
            p = np.where(q > 0.0, -p, p)
            q = abs(q)
            para = (abs(e) > tol1) & (abs(p) < abs(0.5 * q * e)) & (p > q * (lo - t)) & (p < q * (hi - t))
            d_para = p / np.where(para, q, 1.0)
            u = t + d_para
            d_para = np.where((u - lo < tol2) | (hi - u < tol2), np.copysign(tol1, mid - t), d_para)
            e_gold = np.where(t >= mid, lo - t, hi - t)
            e = np.where(go, np.where(para, d, e_gold), e)
            d = np.where(go, np.where(para, d_para, _CGOLD * e_gold), d)
            u = np.where(abs(d) >= tol1, t + d, t + np.copysign(tol1, d))
            v_u, m_u = at(go, u, x, fates)
            f_u = phi(v_u, m_u, u, x)
            live = go & (f_u == f_u)
            ok = np.where(go, live, ok)
            best = live & (f_u <= f_t)
            worse = live & (f_u > f_t)
            lo = np.where(best & (u >= t), t, np.where(worse & (u < t), u, lo))
            hi = np.where(best & (u < t), t, np.where(worse & (u >= t), u, hi))
            second = worse & ((f_u <= f_w) | (tw == t))
            third = worse & ((f_u <= f_v) | (tv == t) | (tv == tw))  # where not ``second``
            tv, f_v = np.where(best | second, tw, np.where(third, u, tv)), np.where(best | second, f_w, np.where(third, f_u, f_v))
            tw, f_w = np.where(best, t, np.where(second, u, tw)), np.where(best, f_t, np.where(second, f_u, f_w))
            t, f_t, v_t, m_t = np.where(best, u, t), np.where(best, f_u, f_t), np.where(best, v_u, v_t), np.where(best, m_u, m_t)
        better = v_t < v_star
        return np.where(better, t, t_star), np.where(better, v_t, v_star), np.where(better, m_t, m_star)

    @eng._takes_grid
    def evaluator(anchor, order: int) -> Jet:
        grid = isinstance(anchor, np.ndarray)
        x = anchor if grid else np.array([float(anchor)])
        fates: dict = {}
        with np.errstate(all="ignore"):
            t_star, v, m_star = minimize(x, fates)
        for _, fate in sorted(fates.items()):
            if not (grid and isinstance(fate, eng._UNDEFINED)):
                raise fate
        if fates:
            v[list(fates)] = math.nan
        coeffs = [v]
        if order > 0:
            coeffs.append(-t_star * m_star * np.exp(-t_star * x))
        if not grid:
            coeffs = [c.item() for c in coeffs]
        return Jet(anchor, tuple(coeffs) + (0.0,) * (order - 1))

    desc = "min_t M(t)e^{-tx}" + ("" if math.isinf(r) else " (bounded-support variant)")
    return CandidateH(evaluator, TailSide.RIGHT, desc)
