"""Markov/Chernoff bridge.

Classifies arbitrary candidate bound functions h(x) and builds the
concrete h instances: the mean-over-x Markov form, its bounded-support
variant, and the grid-minimized Chernoff envelope.

A candidate is the direct-h seed P0 = h (``SeedKind.DIRECT_H``), so
``classify_h`` is ``engine.classify`` of that seed: h > 0 and the
governing sign (h' + f against the tolerance for the right tail, h' - f
for the left) on the grid, with the verdict, threshold, limit check and
residuals every iterate gets. The candidate takes one float anchor and
runs point by point through ``engine._pointwise``; a point where it
raises what a seed turns into a pole, or where it is non-positive, is
undefined. Unlike an iterate, an h candidate carries no monotonicity
requirement, so its ``monotone`` and ``tightness_ok`` stay None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from . import engine as eng
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
