"""Markov/Chernoff bridge.

Classifies arbitrary candidate bound functions h(x) and builds the
concrete h instances: the mean-over-x Markov form, its bounded-support
variant, and the grid-minimized Chernoff envelope.

Only the conditions are h's own: h > 0 and the governing sign (h' + f
against the tolerance for the right tail, h' - f for the left), built on
the whole grid as ``engine.classify`` builds an iterate's. The candidate
takes one float anchor, so it runs point by point through
``engine._pointwise``; f comes from one batched ``pdf_jet`` call. A point
where h raises what a seed turns into a pole is undefined. The verdict,
threshold, limit check and residuals come from the rule
``engine._classify_grid`` applies to iterates as well.
Unlike engine iterates, an h candidate carries no monotonicity
requirement, so its ``monotone`` and ``tightness_ok`` stay None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import engine as eng
from . import jet as J
from .dist import DistributionSpec
from .engine import Classification, GridSpec, TailSide, grid_points
from .errors import DomainError, MgfDiverged, ParamError, PoleEncountered
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
    limit_tol: float = 1e-3,
) -> Classification:
    """Upper/Lower/Invalid verdict for h on the window, by the verdict
    rule engine.classify applies to iterates (threshold search,
    bisection refinement, limit check and sampled residuals)."""
    def conditions(x) -> eng._PointEval:
        try:
            hj = eng._pointwise(h.evaluator, x, 1)
            hj = J.check(hj, hj.value <= 0.0, lambda: PoleEncountered(f"h non-positive at x={x}"))
            f = dist.pdf_jet(x, 0).value
        except (PoleEncountered,) + eng._POINT_ERRORS:
            return eng._PointEval(False)
        return eng._point(h.side is TailSide.RIGHT, hj.coeffs[0], hj.coeffs[1], f, tol)

    xs = grid_points(window, grid, h.side)
    return eng._classify_grid(
        conditions(xs), conditions, xs, h.side, window, tol, limit_tol,
        "h undefined or non-positive everywhere",
    )


def markov_h(mean: float, r: float = math.inf) -> CandidateH:
    """h(x) = E{X}/x, or E{X}/x - E{X}/r when the support is bounded on
    the right by r."""
    if not (mean > 0.0 and math.isfinite(mean)):
        raise ParamError("markov_h needs a finite positive mean")
    if not r > 0.0:
        raise ParamError("markov_h needs r > 0")
    shift = 0.0 if math.isinf(r) else mean / r

    def evaluator(anchor: float, order: int) -> Jet:
        if anchor <= 0.0:
            raise DomainError("markov_h needs x > 0")
        x = jet_var(anchor, order)
        return mean / x - shift

    desc = "E{X}/x" if math.isinf(r) else f"E{{X}}/x - E{{X}}/{r:g}"
    return CandidateH(evaluator, TailSide.RIGHT, desc)


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
    """
    ts = sorted(float(t) for t in t_grid)
    if not ts or ts[0] <= 0.0:
        raise ParamError("chernoff_h needs a nonempty positive t grid")
    if not r > 0.0:
        raise ParamError("chernoff_h needs r > 0")

    def branch(t: float, x: float) -> float:
        m = mgf(t)
        if not math.isfinite(m):
            raise MgfDiverged(f"MGF non-finite at t={t}")
        v = m * math.exp(-t * x)
        if math.isfinite(r):
            v -= m * math.exp(-t * r)
        if not math.isfinite(v):
            raise MgfDiverged(f"Chernoff branch non-finite at t={t}, x={x}")
        return v

    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def minimize(x: float) -> tuple[float, float]:
        vals = [branch(t, x) for t in ts]
        j = min(range(len(ts)), key=lambda i: (vals[i], ts[i]))
        t_star, v_star = ts[j], vals[j]
        if refine and len(ts) > 1:
            lo = ts[j - 1] if j > 0 else ts[0]
            hi = ts[j + 1] if j + 1 < len(ts) else ts[-1]
            if hi > lo:
                c = hi - invphi * (hi - lo)
                d = lo + invphi * (hi - lo)
                fc, fd = branch(c, x), branch(d, x)
                for _ in range(120):
                    if hi - lo <= 1e-12 * (1.0 + abs(t_star)):
                        break
                    if fc < fd:
                        hi, d, fd = d, c, fc
                        c = hi - invphi * (hi - lo)
                        fc = branch(c, x)
                    else:
                        lo, c, fc = c, d, fd
                        d = lo + invphi * (hi - lo)
                        fd = branch(d, x)
                t_ref = 0.5 * (lo + hi)
                v_ref = branch(t_ref, x)
                if v_ref < v_star:
                    t_star, v_star = t_ref, v_ref
        return t_star, v_star

    def evaluator(anchor: float, order: int) -> Jet:
        t_star, v = minimize(anchor)
        if order == 0:
            return Jet(anchor, (v,))
        dv = -t_star * mgf(t_star) * math.exp(-t_star * anchor)
        return Jet(anchor, (v, dv) + (0.0,) * (order - 1))

    desc = "min_t M(t)e^{-tx}" + ("" if math.isinf(r) else " (bounded-support variant)")
    return CandidateH(evaluator, TailSide.RIGHT, desc)
