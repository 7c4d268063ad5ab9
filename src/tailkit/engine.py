"""Seed construction, bound iteration, and numeric classification.

The seed P0 = -+ f g/g' (sign - for the right tail, + for the left) and
every iterate P_{i+1} = -+ f P_i/P_i' are represented as jets of ln P_i:
the iteration only ever needs (ln P_i)' and ln f, so the log form stays
finite arbitrarily far into the tails where raw PDF values underflow.
An iterate is a link of its chain, and ``log_chain`` evaluates the whole
chain P_0..P_i in one forward sweep from a single ln f jet.

Classification is numeric and honest about it: the conditions
("for all x > x0") are verified on a dense grid over a stated window,
the threshold where they start to hold is refined by root finding, and
the result is reported as "numerically verified on [a, b] with
tolerance tol".

Anchors are a float or the whole grid (see ``jet``): ``classify`` reads
an iterate's conditions, f and the predecessor's slope from one sweep
on its grid, where a point at which a single evaluation would raise
comes back NaN (undefined). The sweep also carries the chain's margins,
the quantities whose sign decides where each level is defined (the
seed's denominator and each -+(ln P_k)'). A threshold is the root of
the quantity that fails first at the first failing grid point (a
margin, at a pole, or else the residual), found by Illinois with scalar
sweeps and closed by one more sweep on the passing side.
``classify_chain`` classifies every iterate of a chain from one sweep of
the deepest one, whose lower levels are the lower iterates' own sweeps.

The verdict rule lives in one place, ``_judge``: an iterate's
conditions on the grid in; verdict, threshold, limit check, sampled
residuals, the whole-window flag, tightness and monotonicity out. A
Markov/Chernoff candidate h is the direct-h seed P0 = h, so
``connections.classify_h`` is ``classify`` of that seed.
``run_algorithm`` takes its "for all x > x0" checks from the
classifications it already runs, one iterate at a time, since it may
stop early.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional

import numpy as np

from . import jet as J
from . import rootfind
from ._kernels_py import each
from .dist import DistributionSpec
from .errors import (
    DivisionByZeroJet,
    DomainError,
    OrderExhausted,
    ParamError,
    PoleEncountered,
    SeedIncompatible,
    SeedInvalid,
    WindowTooSmall,
)
from .jet import MAX_ORDER, Jet, jet_shift_derivative, jet_var


#: Default absolute tolerance on condition residuals (they are products
#: of PDFs and decay fast; an absolute floor avoids relative blowup
#: where f ~ 0).
DEFAULT_TOL = 1e-12

#: The numeric surrogate of the limit condition: P at the support-edge
#: end of the window is at most this.
LIMIT_TOL = 1e-3


class TailSide(Enum):
    RIGHT = "right"
    LEFT = "left"


class SeedKind(Enum):
    PDF = "pdf"                  # g = f
    SHIFTED_PDF = "shifted-pdf"  # g = (x - l) f
    DIRECT_H = "direct-h"        # user h(x), Corollary-style candidate
    CUSTOM_G = "custom-g"        # user jet evaluator for g


class Verdict(Enum):
    UPPER = "U"
    LOWER = "L"
    INVALID = "X"
    EXACT = "E"


@dataclass(frozen=True)
class GridSpec:
    points: int = 512
    spacing: str = "geometric"  # or "linear"

    def __post_init__(self):
        if self.points < 64:
            raise DomainError("grid needs at least 64 points")
        if self.spacing not in ("geometric", "linear"):
            raise DomainError(f"unknown spacing {self.spacing!r}")


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    threshold: float
    tightness_ok: Optional[bool]
    residuals: tuple[float, ...]
    limit_ok: bool
    window: tuple[float, float]
    tol: float
    #: the verdict holds at every grid point, so no threshold lies
    #: inside the window (the algorithm's "for all x > x0")
    everywhere: bool
    #: P' has the tail's sign at every grid point; None for Markov and
    #: Chernoff candidates, which need no monotonicity
    monotone: Optional[bool]

    def describe(self) -> str:
        a, b = self.window
        return (
            f"{self.verdict.name} from x={self.threshold:.12g}, numerically verified "
            f"on [{a:.6g}, {b:.6g}] with tolerance {self.tol:g}"
        )


@dataclass(frozen=True, eq=False)
class BoundIterate:
    """One member of the iterative bound sequence.

    A link of its chain; ``log_chain`` evaluates it. ``log_evaluator``
    returns the jet of ln P_i, ``evaluator`` that of P_i itself (may
    under/overflow far out in the tails). Both take a float anchor, where
    an undefined point raises, or an array of points, where it is NaN.
    """

    index: int
    side: TailSide
    dist: DistributionSpec
    seed: SeedKind
    #: (anchor, order) -> (ln P0 at that order, the ln f jet it read, the
    #: seed's denominator: P0 is defined where it is positive)
    log_seed: Callable[[float, int], tuple[Jet, Jet, object]]
    prev: Optional["BoundIterate"] = None

    def log_evaluator(self, anchor, order: int) -> Jet:
        return log_chain(self, anchor, order)[0][-1]

    def evaluator(self, anchor, order: int) -> Jet:
        return J.exp(self.log_evaluator(anchor, order))

    def value(self, x):
        return self.evaluator(x, 0).value


def _log_pdf_jet(dist: DistributionSpec, anchor, order: int) -> Jet:
    if dist.log_pdf_jet is not None:
        return dist.log_pdf_jet(anchor, order)
    return J.ln(dist.pdf_jet(anchor, order))


def _truncate(j: Jet, order: int) -> Jet:
    return Jet(j.anchor, j.coeffs[: order + 1])


def _as_pole(exc: Exception, where: str) -> PoleEncountered:
    return PoleEncountered(f"{where}: {exc}")


#: What a seed turns into a pole at one point: errors of the jet
#: arithmetic and of the user's g/h evaluators.
_POINT_ERRORS = (DomainError, DivisionByZeroJet, OrderExhausted, OverflowError, ValueError)

#: What leaves a user's evaluator undefined at a point of a grid, rather
#: than failing the whole pass.
_UNDEFINED = (PoleEncountered,) + _POINT_ERRORS


def _takes_grid(fn: Callable) -> Callable:
    """Mark a jet evaluator that takes a grid anchor itself, NaN at every
    point where its float evaluation raises what a seed turns into a
    pole, so that ``_pointwise`` hands it the whole grid."""
    fn._takes_grid = True
    return fn


def _pointwise(fn: Callable[[float, int], Jet], anchor, order: int) -> Jet:
    """A user's jet evaluator, which takes one float anchor, on a float or
    a grid: on a grid it runs point by point and the results are
    stacked, NaN where it raises what a seed turns into a pole. An
    evaluator marked by ``_takes_grid`` gets the grid whole."""
    if not isinstance(anchor, np.ndarray) or getattr(fn, "_takes_grid", False):
        return fn(anchor, order)
    rows = np.full((order + 1, anchor.size), math.nan)
    for i, x in enumerate(anchor.tolist()):
        try:
            rows[:, i] = fn(x, order).coeffs
        except _UNDEFINED:
            pass
    return Jet(anchor, tuple(rows))


def make_seed(
    dist: DistributionSpec,
    seed: SeedKind,
    side: TailSide,
    g_jet: Callable[[float, int], Jet] | None = None,
    h_jet: Callable[[float, int], Jet] | None = None,
) -> BoundIterate:
    """Assemble the seed iterate P0 from the chosen g (no classification
    yet)."""
    sign = -1.0 if side is TailSide.RIGHT else 1.0

    if seed is SeedKind.SHIFTED_PDF:
        lo = dist.support.lower
        if not math.isfinite(lo):
            raise SeedIncompatible(
                f"shifted-pdf seed needs a finite lower support endpoint, got {lo}"
            )
    if seed is SeedKind.CUSTOM_G and g_jet is None:
        raise SeedIncompatible("custom-g seed needs a g jet evaluator")
    if seed is SeedKind.DIRECT_H and h_jet is None:
        raise SeedIncompatible("direct-h seed needs an h jet evaluator")

    def log_seed(anchor, order: int) -> tuple[Jet, Jet, object]:
        try:
            if seed is SeedKind.DIRECT_H:  # P_1 reads ln f one order below P0
                h = _pointwise(h_jet, anchor, order)
                d = h.value
                h = J.check(h, d <= 0.0, lambda: PoleEncountered(
                    f"candidate h not positive at x={anchor}", margins=(d,)
                ))
                return J.ln(h), _log_pdf_jet(dist, anchor, max(order - 1, 0)), d
            if seed is SeedKind.PDF:
                lf = _log_pdf_jet(dist, anchor, order + 1)
                lfd = jet_shift_derivative(lf)
                d = sign * lfd.value
                lfd = J.check(lfd, d <= 0.0, lambda: PoleEncountered(
                    f"pdf seed needs f {'decreasing' if sign < 0 else 'increasing'} at x={anchor}", margins=(d,)
                ))
                return _truncate(lf, order) - J.ln(sign * lfd), lf, d
            if seed is SeedKind.SHIFTED_PDF:
                lo = dist.support.lower
                x = J.check(jet_var(anchor, order), anchor <= lo, lambda: PoleEncountered(
                    f"anchor {anchor} at/below support endpoint {lo}"
                ))
                lf = _log_pdf_jet(dist, anchor, order + 1)
                lfd = jet_shift_derivative(lf)
                t = 1.0 + (x - lo) * _truncate(lfd, order)
                d = sign * t.value
                t = J.check(t, d <= 0.0, lambda: PoleEncountered(
                    f"shifted seed denominator sign at x={anchor}", margins=(d,)
                ))
                return J.ln(x - lo) + _truncate(lf, order) - J.ln(sign * t), lf, d
            # CUSTOM_G
            g = _pointwise(g_jet, anchor, order + 1)
            gd = jet_shift_derivative(g)
            d = sign * gd.value
            gd = J.check(gd, d <= 0.0, lambda: PoleEncountered(
                f"custom g not strictly {'decreasing' if sign < 0 else 'increasing'} at x={anchor}", margins=(d,)
            ))
            lf = _log_pdf_jet(dist, anchor, order)
            return lf + J.ln(_truncate(g, order)) - J.ln(sign * gd), lf, d
        except PoleEncountered:
            raise
        except _POINT_ERRORS as exc:
            raise _as_pole(exc, f"seed at x={anchor}") from exc

    return BoundIterate(0, side, dist, seed, log_seed)


def iterate(prev: BoundIterate) -> BoundIterate:
    """P_{i+1} = -+ f P_i/P_i' as the next link of the chain."""
    return BoundIterate(prev.index + 1, prev.side, prev.dist, prev.seed, prev.log_seed, prev)


def log_chain(it: BoundIterate, anchor, order: int) -> tuple[list[Jet], Jet]:
    """ln P_0 .. ln P_i of ``it``'s chain in one forward sweep, level k
    at order ``order + i - k``, and the ln f jet the seed read once.

    Each level takes its truncation of ln f (a jet's low coefficients do
    not depend on its order): ln P_k = ln f - ln(-+ (ln P_{k-1})'). At a
    float anchor the first pole raises PoleEncountered; on a grid it is NaN.
    """
    return _chain(it, anchor, order)[:2]


def _chain(it: BoundIterate, anchor, order: int) -> tuple[list[Jet], Jet, list]:
    """``log_chain`` with the chain's margins: the seed's denominator and
    -+(ln P_k)' for k < i, each of which must be positive for the next
    level to be defined. On a grid they are arrays, NaN where a lower
    level is undefined; at a float anchor the PoleEncountered of the
    first that is not positive carries the margins up to it."""
    i = it.index
    if i and order + i + 1 > MAX_ORDER:
        raise DomainError(f"order {order} at iterate {i} exceeds the jet cap {MAX_ORDER}")
    sign = -1.0 if it.side is TailSide.RIGHT else 1.0
    lp, lf, d = it.log_seed(anchor, order + i)
    levels, margins = [lp], [d]
    for k in range(1, i + 1):
        lpd = jet_shift_derivative(levels[-1])
        m = sign * lpd.value
        margins.append(m)
        lpd = J.check(lpd, m <= 0.0, lambda: PoleEncountered(
            f"P_{k - 1}' has the wrong sign at x={anchor} (iterate pole)", margins=tuple(margins)
        ))
        try:
            levels.append(_truncate(lf, order + i - k) - J.ln(sign * lpd))
        except (DomainError, DivisionByZeroJet, OverflowError, ValueError) as exc:
            raise _as_pole(exc, f"iterate {k} at x={anchor}") from exc
    return levels, lf, margins


# ---------------------------------------------------------------------------
# Grid classification


def grid_points(window: tuple[float, float], grid: GridSpec, side: TailSide) -> np.ndarray:
    """Evaluation grid on [a, b], geometric spacing clustered toward the
    threshold end (window start for the right tail, window end for the
    left)."""
    a, b = window
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"bad window ({a}, {b})")
    n = grid.points
    if grid.spacing == "linear":
        return np.linspace(a, b, n)
    offs = np.geomspace(1e-6, 1.0, n) * (b - a)
    if side is TailSide.RIGHT:
        return a + offs
    return b - offs[::-1]


@dataclass
class _PointEval:
    """The conditions at one point, or on the whole grid with one array
    per field. An undefined point (a pole, a non-positive candidate)
    fails every condition."""

    defined: bool
    mono_ok: bool = False
    up_ok: bool = False
    lo_ok: bool = False
    value: float = math.nan
    residual: float = math.nan
    slope: float = math.nan  # P'(x)
    f: float = math.nan


def _point(right: bool, value, slope, f, tol: float, mono_ok=True) -> _PointEval:
    """The governing sign conditions of a bound with value P and slope P'
    against the PDF f: P' + f <= tol (upper) / >= -tol (lower) for the
    right tail, P' - f >= -tol (upper) / <= tol (lower) for the left.
    Floats or grid arrays; a grid point where P or f is NaN is undefined
    and fails both."""
    defined = ~(np.isnan(value) | np.isnan(f)) if isinstance(value, np.ndarray) else True
    if right:
        resid = slope + f
        up, lo = resid <= tol, resid >= -tol
    else:
        resid = slope - f
        up, lo = resid >= -tol, resid <= tol
    return _PointEval(defined, mono_ok, up, lo, value, resid, slope, f)


def _safe_exp(x):
    """e^x, capped at e^700 and 0 below -745; on a grid by the same libm
    call per element as at a float."""
    if isinstance(x, np.ndarray):
        out = each(math.exp, np.minimum(x, 700.0))
        out[x < -745.0] = 0.0
        return out
    if x > 700.0:
        return math.exp(700.0)
    if x < -745.0:
        return 0.0
    return math.exp(x)


def _level_conditions(side: TailSide, lp: Jet, f, tol: float) -> _PointEval:
    """Positivity, monotonicity, and the governing sign condition of the
    level ln P (order >= 1) of a pass against the PDF f."""
    right = side is TailSide.RIGHT
    lpd = lp.coeffs[1]
    p = _safe_exp(lp.coeffs[0])
    # monotonicity: P' < 0 (right) / P' > 0 (left)
    mono = (lpd < 0.0) if right else (lpd > 0.0)
    return _point(right, p, p * lpd, f, tol, mono)


def _conditions(it: BoundIterate, x, tol: float) -> tuple[_PointEval, list[Jet], list]:
    """The conditions of ``it`` at a point, or on a grid (undefined points
    NaN), from one pass of the chain; with the pass's levels and margins
    (see ``_chain``). A pole at a point leaves it undefined, with the
    margins up to the pole when a sign check found it; a grid pass that
    raises has failed whole."""
    try:
        levels, lf, margins = _chain(it, x, 1)
    except PoleEncountered as exc:
        if isinstance(x, np.ndarray):
            raise
        return _PointEval(False), [], exc.margins
    return _level_conditions(it.side, levels[-1], _safe_exp(lf.coeffs[0]), tol), levels, margins


def _run(ok: np.ndarray) -> int:
    """Number of leading passing points."""
    failing = np.flatnonzero(~ok)
    return int(failing[0]) if failing.size else ok.size


def _grid(it: BoundIterate, window: tuple[float, float], grid: GridSpec) -> np.ndarray:
    """The classification grid of ``it`` (and of every iterate below it)
    on the window, after the order-cap and support checks."""
    if it.index + 2 > MAX_ORDER:
        raise OrderExhausted(
            f"iterate {it.index} needs jet order {it.index + 2}, above the cap {MAX_ORDER}"
        )
    a, b = window
    if not it.dist.support.contains_open(a) or not it.dist.support.contains_open(b):
        raise DomainError(f"window ({a}, {b}) not inside the open support")
    return grid_points(window, grid, it.side)


def classify(
    it: BoundIterate,
    window: tuple[float, float],
    grid: GridSpec = GridSpec(),
    tol: float = DEFAULT_TOL,
) -> Classification:
    """Verdict, validity threshold, and diagnostics for one iterate.

    One chain pass on the grid gives the conditions and the predecessor's
    slope for tightness. The verified region is the maximal run of
    passing grid points touching the support-edge end of the window (the
    bounds hold from a threshold onward); its boundary is refined by root
    finding on the quantity that fails there (``_threshold``), with
    scalar passes, to 1e-10 window-relative. The bound
    verdict needs positivity (implied by P_i being defined) and the
    governing sign; monotonicity of P_i gates only the construction of
    the NEXT iterate, and is reported in ``monotone`` for the algorithm
    loop.

    Raises OrderExhausted when P_i's slope needs a jet order above the
    cap (each iterate consumes one order on top of the seed's two).
    """
    xs = _grid(it, window, grid)
    with np.errstate(all="ignore"):
        cond, levels, margins = _conditions(it, xs, tol)
    return _judge(it, xs, cond, levels, margins, window, tol)


def classify_chain(
    it: BoundIterate,
    window: tuple[float, float],
    grid: GridSpec = GridSpec(),
    tol: float = DEFAULT_TOL,
) -> Iterator[Classification]:
    """``classify`` of P_0 .. P_i of ``it``'s chain, in that order, from
    one grid sweep of P_i: a sweep's lower levels are those of the lower
    iterates' own sweeps bit for bit, so each level's conditions and
    margins, and the level below it for tightness, come from the one
    sweep. Each level's threshold is root-found with scalar passes of its
    own chain, as ``classify`` finds it. A generator, so that a caller
    stops at the first level that fails; the sweep runs on the first
    ``next``, and the checks are those of ``classify`` of P_i.
    """
    xs = _grid(it, window, grid)
    with np.errstate(all="ignore"):
        levels, lf, margins = _chain(it, xs, 1)
        f = _safe_exp(lf.coeffs[0])
    links = [it]
    while links[-1].prev is not None:
        links.append(links[-1].prev)
    for k, link in enumerate(reversed(links)):
        with np.errstate(all="ignore"):
            cond = _level_conditions(it.side, levels[k], f, tol)
        yield _judge(link, xs, cond, levels[: k + 1], margins[: k + 1], window, tol)


def _judge(
    it: BoundIterate,
    xs: np.ndarray,
    cond: _PointEval,
    levels: list[Jet],
    margins: list,
    window: tuple[float, float],
    tol: float,
) -> Classification:
    """The classification of ``it`` from its conditions on the grid
    ``xs`` and the levels and margins of the same sweep, up to its own:
    the verdict, the threshold (``_threshold``), the limit check, the
    sampled residuals, tightness against the predecessor's level and
    monotonicity."""
    a, b = window
    if not cond.defined.any():
        raise WindowTooSmall(f"iterate {it.index} satisfies no base condition anywhere on [{a}, {b}]")
    right = it.side is TailSide.RIGHT
    n = len(xs)
    # the grid walked inward from the support-edge end of the window; a
    # verified run is the number of passing points before the first failure
    inward = slice(None, None, -1) if right else slice(None)
    run_up = _run(cond.up_ok[inward])
    run_lo = _run(cond.lo_ok[inward])
    run = max(run_up, run_lo)
    if run == 0:
        verdict = Verdict.INVALID
    elif run_up == run_lo:
        # both governing signs hold within tol on the same region
        verdict = Verdict.EXACT
    elif run_up > run_lo:
        verdict = Verdict.UPPER
    else:
        verdict = Verdict.LOWER

    if verdict is Verdict.INVALID:
        threshold = b if right else a
    elif run == n:
        threshold = a if right else b
    else:
        # between the first failing and the last passing grid point
        at = (n - 1 - run, n - run) if right else (run, run - 1)
        threshold = _threshold(it, verdict, cond, margins, xs, at, window, tol)

    # numeric surrogate for the limit condition at the support-edge-most point
    edge, inner = (n - 1, n - 2) if right else (0, 1)
    value = cond.value
    limit_ok = bool(
        cond.defined[edge]
        and value[edge] <= LIMIT_TOL
        and (not cond.defined[inner] or value[edge] <= value[inner] + tol)
    )

    residuals = tuple(cond.residual[:: max(1, n // 16)].tolist())
    lp_prev = levels[-2] if len(levels) > 1 else None
    tightness_ok = _tightness(it.side, cond, lp_prev, verdict, tol) if lp_prev is not None else None
    monotone = bool(np.all(cond.defined & cond.mono_ok))
    return Classification(verdict, threshold, tightness_ok, residuals, limit_ok, (a, b), tol, run == n, monotone)


def _threshold(
    it: BoundIterate,
    verdict: Verdict,
    cond: _PointEval,
    margins: list,
    xs: np.ndarray,
    at: tuple[int, int],
    window: tuple[float, float],
    tol: float,
) -> float:
    """A passing point within 1e-10 (b - a) of where the verdict starts to
    hold, between the failing and the passing grid point (indices ``at``
    into ``xs``).

    The search is on the quantity that fails first at the failing point:
    the first margin that is not positive there (a pole of the next
    level, or the seed's own denominator), or else the residual against
    tol. Illinois (``rootfind.illinois``) brackets its root to half of
    1e-10 (b - a), with one scalar pass of the chain per step; one more
    pass, that half width past the point it returns, closes the bracket
    on the other side. Where that quantity is undefined at either end, or
    the closing pass does not cross, the bracket is bisected on the
    conditions.
    """
    a, b = window
    x_tol = 1e-10 * (b - a)
    bad, good = at
    x_bad, x_good = float(xs[bad]), float(xs[good])

    def passes(e: _PointEval) -> bool:
        if not e.defined:
            return False
        if verdict is Verdict.UPPER:
            return e.up_ok
        if verdict is Verdict.LOWER:
            return e.lo_ok
        return e.up_ok and e.lo_ok

    # q, positive on the passing side: the first margin not positive at
    # the failing point, else how far the residual r is inside the
    # condition that fails there: tol - s r for the upper one, tol + s r
    # for the lower, s = 1 on the right tail
    first = next((k for k, m in enumerate(margins) if not m[bad] > 0.0), None)
    if first is not None:
        q_bad, q_good = margins[first][bad], margins[first][good]

        def q_of(e: _PointEval, ms):
            return ms[first] if len(ms) > first else None
    else:
        s = 1.0 if it.side is TailSide.RIGHT else -1.0
        if not cond.up_ok[bad]:
            s = -s
        q_bad, q_good = tol + s * cond.residual[bad], tol + s * cond.residual[good]

        def q_of(e: _PointEval, ms):
            return tol + s * e.residual if e.defined else None

    seen = {x_bad: False, x_good: True}

    def minus_q(x: float):
        e, _, ms = _conditions(it, x, tol)
        seen[x] = passes(e)
        q = q_of(e, ms)
        return None if q is None else -q

    if math.isfinite(q_bad) and q_good > 0.0:
        # to half the width, so that rounding cannot carry the result past it
        x, _ = rootfind.illinois(minus_q, x_bad, x_good, -q_bad, -q_good, 0.0, 0.5 * x_tol)
        ok = seen[x]
        close = x + math.copysign(0.5 * x_tol, x_good - x_bad) * (-1.0 if ok else 1.0)
        if passes(_conditions(it, close, tol)[0]) != ok:
            return float(x if ok else close)
    for _ in range(200):
        if abs(x_good - x_bad) <= x_tol:
            break
        mid = 0.5 * (x_bad + x_good)
        if passes(_conditions(it, mid, tol)[0]):
            x_good = mid
        else:
            x_bad = mid
    return x_good


def _tightness(side: TailSide, cond: _PointEval, lp_prev: Jet, verdict, tol) -> Optional[bool]:
    """Lemma-style tightness condition when the verdict flips from the
    predecessor: the sum P_i + P_{i+1} meets the predecessor's governing
    sign against 2f (P'_{i+1} + P'_i +- 2f) on the defined part of the grid;
    ``lp_prev`` is the predecessor's level in the grid pass."""
    if verdict not in (Verdict.UPPER, Verdict.LOWER):
        return None
    with np.errstate(all="ignore"):
        dp_prev = _safe_exp(lp_prev.coeffs[0]) * lp_prev.coeffs[1]
        pair = _point(side is TailSide.RIGHT, math.nan, cond.slope + dp_prev, 2.0 * cond.f, tol)
    held = pair.up_ok if verdict is Verdict.LOWER else pair.lo_ok
    counted = held[cond.defined & ~np.isnan(dp_prev)]
    return bool(counted.all()) if counted.size else None


# ---------------------------------------------------------------------------
# The published iterative algorithm


@dataclass
class RunResult:
    iterates: list[tuple[BoundIterate, Classification]]
    p_l: Optional[BoundIterate]
    p_u: Optional[BoundIterate]
    stop_reason: str

    @property
    def verdicts(self) -> list[Verdict]:
        return [c.verdict for _, c in self.iterates]


def _holds(cls: Classification) -> tuple[bool, bool]:
    """Whether the upper and the lower sign condition hold at every grid
    point (an undefined point fails both)."""
    return (
        cls.everywhere and cls.verdict is not Verdict.LOWER,
        cls.everywhere and cls.verdict is not Verdict.UPPER,
    )


def run_algorithm(
    dist: DistributionSpec,
    seed: SeedKind,
    side: TailSide,
    x0: float,
    max_iter: int,
    window: tuple[float, float],
    grid: GridSpec = GridSpec(),
    tol: float = DEFAULT_TOL,
    g_jet=None,
    h_jet=None,
) -> RunResult:
    """The published iterative control flow, conditions checked on a grid
    over ``window`` (which must start at x0 for the right tail / end at
    x0 for the left).

    Returns every formed iterate with its classification plus the last
    stored lower/upper bounds; p_l/p_u stay None ("NaN") when no bound of
    that kind was produced. Raises ParamError when ``max_iter`` is deeper
    than the jet order cap can classify (``MAX_ORDER - 2``).
    """
    if max_iter > MAX_ORDER - 2:
        raise ParamError(
            f"max_iter {max_iter} exceeds {MAX_ORDER - 2}, the deepest iterate the jet cap {MAX_ORDER} serves"
        )
    a, b = window
    if side is TailSide.RIGHT and not math.isclose(a, x0):
        raise DomainError("right-tail window must start at x0")
    if side is TailSide.LEFT and not math.isclose(b, x0):
        raise DomainError("left-tail window must end at x0")

    cur = make_seed(dist, seed, side, g_jet=g_jet, h_jet=h_jet)
    try:
        cls = classify(cur, window, grid, tol)
    except WindowTooSmall as exc:
        raise SeedInvalid(f"seed fails classification on ({a}, {b}): {exc}") from exc
    if not (cls.monotone and cls.everywhere):
        raise SeedInvalid(f"seed classifies as {cls.verdict.name} on ({a}, {b}): {cls.describe()}")

    results = [(cur, cls)]
    p_l: Optional[BoundIterate] = None
    p_u: Optional[BoundIterate] = None
    stop = "max-iterations"

    # each pass forms the next iterate first (the published loop does),
    # then applies the outer validity check to the current one; the
    # inner storage branches test only the governing sign and tightness
    # conditions of the new iterate -- its own monotonicity is examined
    # when it becomes the current one on the next pass. The "for all
    # x > x0" facts come from each iterate's classification; tightness
    # is consulted only where the new iterate is defined on the whole grid
    for _ in range(max_iter):
        try:
            nxt = iterate(cur)
            nxt_cls = classify(nxt, window, grid, tol)
        except (PoleEncountered, WindowTooSmall) as exc:
            stop = f"iterate-failed: {exc}"
            break
        results.append((nxt, nxt_cls))
        nxt_up, nxt_lo = _holds(nxt_cls)

        if not cls.monotone:
            stop = "invalid-iterate"
            break
        if nxt_up and nxt_lo:
            # both conditions hold with equality within tol: exact tail
            p_u = nxt
            p_l = nxt
            stop = "exact"
            break
        if _holds(cls)[0]:
            if nxt_up:
                p_u = nxt
            elif nxt_lo and nxt_cls.tightness_ok:
                p_l = nxt
            else:
                stop = "tightness-failed"
                break
        else:
            if nxt_up and nxt_cls.tightness_ok:
                p_u = nxt
            elif nxt_lo:
                p_l = nxt
            else:
                stop = "tightness-failed"
                break
        cur, cls = nxt, nxt_cls

    return RunResult(results, p_l, p_u, stop)


# ---------------------------------------------------------------------------
# Rate of convergence


def _rate_ratio(side: TailSide, lp: Jet, lf: Jet):
    """P_i/P_{i+1} = -+P_i'/f = -+(ln P_i)' e^{ln P_i - ln f} (identical by
    construction of the next iterate, no need to form it), stable in the
    far tail where P and f underflow separately. From a pass's level ln P_i
    (order >= 1) and ln f, at a point or on a grid (NaN where undefined)."""
    sign = -1.0 if side is TailSide.RIGHT else 1.0
    return sign * lp.coeffs[1] * each(math.exp, lp.coeffs[0] - lf.coeffs[0])


def _figure_rate(side: TailSide, lp: Jet, lf: Jet):
    """|P_{i+1}/P_i - 1| from a pass's level ln P_i (see ``figure_rate``)."""
    return abs(1.0 / _rate_ratio(side, lp, lf) - 1.0)


def _value(lp: Jet):
    """P_i itself from a pass's level ln P_i."""
    return J.exp(_truncate(lp, 0)).value


def convergence_rate(it, x: float) -> float:
    """|P_i/P_{i+1} - 1| in derivative form |-+P_i'/f - 1|.

    Accepts a bare iterate, an (iterate, next_iterate) pair, or an
    (iterate, classification) pair; the rate is always driven by the
    lower-indexed iterate's derivative.
    """
    if isinstance(it, tuple):
        first, second = it
        if isinstance(second, BoundIterate) and second.index < first.index:
            first = second
        it = first
    levels, lf = log_chain(it, x, 1)
    return abs(_rate_ratio(it.side, levels[-1], lf) - 1.0)


def convergence_rate_ratio_form(it: BoundIterate, x: float) -> float:
    """|P_i/P_{i+1} - 1| by explicitly forming the next iterate."""
    levels, _ = log_chain(iterate(it), x, 0)
    return abs(math.exp(levels[-2].coeffs[0] - levels[-1].coeffs[0]) - 1.0)


def figure_rate(it: BoundIterate, x):
    """|P_{i+1}/P_i - 1|, the quantity the reference figures plot (the
    reciprocal orientation of convergence_rate; both vanish together as
    the bounds converge). At a float x or on an array of points (NaN
    where undefined)."""
    levels, lf = log_chain(it, x, 1)
    return _figure_rate(it.side, levels[-1], lf)
