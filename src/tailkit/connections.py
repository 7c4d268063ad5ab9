"""Markov/Chernoff bridge.

Classifies arbitrary candidate bound functions h(x) and builds the
concrete h instances: the mean-over-x Markov form, its bounded-support
variant, and the grid-minimized Chernoff envelope.

A candidate is the direct-h seed P0 = h (``SeedKind.DIRECT_H``), so
``classify_h`` is ``engine.classify`` of that seed: h > 0 and the
governing sign (h' + f against the tolerance for the right tail, h' - f
for the left) on the grid, with the verdict, threshold, limit check and
residuals every iterate gets. A point where the candidate raises what a
seed turns into a pole, or where it is non-positive, is undefined.
``markov_h`` and ``chernoff_h`` evaluate the whole grid at once, by the
same code as at a float, so a grid point has the bits of a float
evaluation there; a user's candidate takes one float anchor and runs
point by point through ``engine._pointwise``. Unlike an iterate, an h
candidate carries no monotonicity requirement, so its ``monotone`` and
``tightness_ok`` stay None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import engine as eng
from . import jet as J
from ._kernels_py import each
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


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Points per block of the Chernoff scan, whose arrays hold one value
#: per t and point.
_SCAN_BLOCK = 64


def _pick(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``: at a float or elementwise."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def chernoff_h(
    mgf: Callable[[float], float],
    t_grid: list[float],
    r: float = math.inf,
    refine: bool = True,
) -> CandidateH:
    """h(x) = min over t of M(t) e^{-tx} (minus M(t) e^{-tr} when r is
    finite), minimized by a grid scan with optional golden-section
    refinement between the bracketing grid points; ties break toward the
    smaller t.

    h'(x) is the envelope derivative -t* M(t*) e^{-t* x} of the active
    branch.

    The evaluator takes a float or a grid of points, by one code path:
    the scan is one array over t (and x), with one ``mgf`` call per t, and
    the golden section runs in lock-step over the points, each with its
    own bracket and stop. Each step is the float evaluation's arithmetic,
    with libm's exp, so a grid point gets the bits a float evaluation
    gets there. Where that evaluation raises what a seed turns into a
    pole (e^{-tx} overflows, or ``mgf`` raises such an error) a grid
    point is NaN; anything else it raises, such as MgfDiverged for a
    non-finite M(t) or branch value, the grid evaluation raises too.
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

    def branch(t, x, fates: dict, cols, mr=None):
        """M(t) e^{-tx} (- M(t) e^{-tr}) and M(t). At a float t, as the
        scalar evaluation: raising where it fails. On arrays elementwise,
        rows of t evaluated in order and columns the points ``x`` (global
        indices ``cols``), with ``mr`` the ``moments`` of t if known: a
        point stops at its first non-finite value, its column is NaN and
        why it stopped goes into ``fates``."""
        if not isinstance(t, np.ndarray):
            m = mgf(t)
            if not math.isfinite(m):
                raise MgfDiverged(f"MGF non-finite at t={t}")
            v = m * math.exp(-t * x)
            if math.isfinite(r):
                v -= m * math.exp(-t * r)
            if not math.isfinite(v):
                raise MgfDiverged(f"Chernoff branch non-finite at t={t}, x={x}")
            return v, m
        m, raised = moments(t) if mr is None else mr
        with np.errstate(all="ignore"):
            v = m * each(math.exp, -t * x)
            if math.isfinite(r):
                v = v - m * each(math.exp, -t * r)
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

    def at(go, t, x, fates: dict):
        """``branch`` at the points where ``go`` holds, NaN elsewhere."""
        if not isinstance(go, np.ndarray):
            return branch(t, x, fates, None) if go else (math.nan, math.nan)
        k = np.flatnonzero(go)
        v, m = np.full(go.shape, math.nan), np.full(go.shape, math.nan)
        (v[k],), (m[k],) = branch(t[k][None], x[k], fates, k)
        return v, m

    def scan(x: np.ndarray, fates: dict):
        """The t-grid scan at the points x, in blocks of points to keep its
        arrays small: t*, the minimum, M(t*) and the grid neighbours
        (lo, hi) of t*."""
        mr = moments(ts[:, None])
        j = np.empty(x.size, dtype=np.intp)
        v_star = np.empty(x.size)
        for s in range(0, x.size, _SCAN_BLOCK):
            e = min(s + _SCAN_BLOCK, x.size)
            vals, _ = branch(ts[:, None], x[s:e], fates, np.arange(s, e), mr)
            j[s:e] = np.argmin(vals, axis=0)  # the first minimum: the smaller t on a tie
            v_star[s:e] = vals[j[s:e], np.arange(e - s)]
        return ts[j], v_star, mr[0][j, 0], ts[np.maximum(j - 1, 0)], ts[np.minimum(j + 1, top)]

    def minimize(x, fates: dict):
        """t*, the minimum and M(t*) at a float x, or at every point of a
        grid x (NaN where the float evaluation raises: why is in
        ``fates``). Masks are bools at a float; ``v == v`` is "not NaN"."""
        if isinstance(x, np.ndarray):
            t_star, v_star, m_star, lo, hi = scan(x, fates)
        else:
            found = scan(np.array([x]), fates)
            if fates:
                raise fates[0]
            t_star, v_star, m_star, lo, hi = (a.item() for a in found)
        if not (refine and top):
            return t_star, v_star, m_star
        tol = 1e-12 * (1.0 + abs(t_star))
        ok = (hi > lo) & (v_star == v_star)
        c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
        fc, _ = at(ok, c, x, fates)
        ok = ok & (fc == fc)
        fd, _ = at(ok, d, x, fates)
        ok = ok & (fd == fd)
        for _ in range(120):
            go = ok & (hi - lo > tol)
            if not (go.any() if isinstance(go, np.ndarray) else go):
                break
            left = fc < fd
            lo_n, hi_n = _pick(left, lo, c), _pick(left, d, hi)
            t_new = _pick(left, hi_n - _INVPHI * (hi_n - lo_n), lo_n + _INVPHI * (hi_n - lo_n))
            f_new, _ = at(go, t_new, x, fates)
            c, d, fc, fd = (
                _pick(go, _pick(left, t_new, d), c), _pick(go, _pick(left, c, t_new), d),
                _pick(go, _pick(left, f_new, fd), fc), _pick(go, _pick(left, fc, f_new), fd),
            )
            lo, hi = _pick(go, lo_n, lo), _pick(go, hi_n, hi)
            ok = _pick(go, f_new == f_new, ok)
        t_ref = 0.5 * (lo + hi)
        v_ref, m_ref = at(ok, t_ref, x, fates)
        better = v_ref < v_star
        return _pick(better, t_ref, t_star), _pick(better, v_ref, v_star), _pick(better, m_ref, m_star)

    @eng._takes_grid
    def evaluator(anchor, order: int) -> Jet:
        grid = isinstance(anchor, np.ndarray)
        fates: dict = {}
        t_star, v, m_star = minimize(anchor if grid else float(anchor), fates)
        for _, fate in sorted(fates.items()):
            if not isinstance(fate, eng._UNDEFINED):
                raise fate
        if fates:
            v[list(fates)] = math.nan
        coeffs = (v,)
        if order > 0:
            coeffs += (-t_star * m_star * each(math.exp, -t_star * anchor),) + (0.0,) * (order - 1)
        return Jet(anchor, coeffs if grid else tuple(float(c) for c in coeffs))

    desc = "min_t M(t)e^{-tx}" + ("" if math.isinf(r) else " (bounded-support variant)")
    return CandidateH(evaluator, TailSide.RIGHT, desc)
