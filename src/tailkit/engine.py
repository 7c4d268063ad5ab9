"""Seed construction, bound iteration, and numeric classification.

The seed P0 = -+ f g/g' (sign - for the right tail, + for the left) and
every iterate P_{i+1} = -+ f P_i/P_i' are represented relative to f, as
jets of the log Mills ratio q_i = ln(P_i/f), and of the steps d_i =
q_{i+1} - q_i = ln(P_{i+1}/P_i). The chain runs on q_0 and on a_i =
expm1(-d_i) = P_i/P_{i+1} - 1, by d_{i-1} = -log1p(a_{i-1}) and
a_i = d_{i-1}'/((ln f)' + q_{i-1}'), with q_i = q_{i-1} + d_{i-1}: no
term of size ln f enters, so q and the steps keep their digits
arbitrarily far into the tails, where f and P underflow and ln P and
ln f cancel. An iterate is a link of its chain, and ``_chain``
evaluates the whole chain P_0..P_i in one forward sweep from a single
ln f jet; ``log_chain`` gives ln P_k = ln f + q_k.

Every condition of the paper is the sign of P' +- f, which relative to
f is the residual expm1(d_i) = P_{i+1}/P_i - 1 = f/(-+P_i') - 1: upper
where it is at most tol, lower where it is at least -tol. The same
step gives the tightness sum, the threshold search and the rates
(``figure_rate`` |expm1(d_i)|, ``convergence_rate`` |expm1(-d_i)|).

Classification is numeric and honest about it: the conditions
("for all x > x0") are verified on a dense grid over a stated window,
the threshold where they start to hold is refined by root finding, and
the result is reported as "numerically verified on [a, b] with
tolerance tol".

Anchors are a float or the whole grid (see ``jet``): ``classify`` reads
an iterate's step and its predecessor's from one sweep on its grid,
where a point at which a single evaluation would raise comes back NaN
(undefined). The sweep also carries the chain's margins, the quantities
whose sign decides where each level is defined (the seed's denominator
and each -+(ln P_k)'). A threshold is the root of the quantity that
fails first at the first failing grid point (a margin, at a pole, or
else the step against the tolerance), found by Illinois with scalar
sweeps and closed by one more sweep on the passing side.
``tabulate_chain`` classifies every iterate of a chain from one sweep of
the deepest one, whose lower levels are the lower iterates' own sweeps,
and gives the chain's values at a table's points from the same pass.

The verdict rule lives in one place, ``_judge``: an iterate's
conditions on the grid in; verdict, threshold, limit check, sampled
residuals, the whole-window flag, tightness and monotonicity out. A
Markov/Chernoff candidate h is the direct-h seed P0 = h, so
``connections.classify_h`` is ``classify`` of that seed.
``run_algorithm`` takes its "for all x > x0" checks from the same
classifications, judged from chain sweeps of doubling depth (P_2, then
P_4, then P_8, capped at ``max_iter``), each level once and only when
the loop reaches it: most runs stop by P_2 and pay for one sweep, and a
deep ``max_iter`` never pays for a deeper sweep than the loop reaches.
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
from .jet import MAX_ORDER, Jet, jet_shift_derivative, jet_var, truncate


#: Default tolerance on the relative residual expm1(d_i) = f/(-+P_i') - 1
#: of the conditions. Relative, so that it means the same where f is
#: 1e-300 as where it is 1: an upper bound verified on [x, inf) with P -> 0
#: satisfies P >= tail/(1 + tol) there, a lower one P <= tail/(1 - tol).
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

    def __post_init__(self):
        if self.points < 64:
            raise DomainError("grid needs at least 64 points")


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    threshold: float
    tightness_ok: Optional[bool]
    #: expm1(d_i) = f/(-+P_i') - 1 sampled along the grid: below -1 where
    #: P_i is not monotone, NaN where it is undefined
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
    #: (anchor, order) -> (q_0 = ln(P0/f) at that order, a_0 = P0/P1 - 1 one
    #: order lower where it has a closed form (else, and at order 0, None),
    #: the ln f jet it read, the seed's denominator: P0 is defined where it
    #: is positive)
    log_seed: Callable[[float, int], tuple[Jet, Optional[Jet], Jet, object]]
    prev: Optional["BoundIterate"] = None

    def log_evaluator(self, anchor, order: int) -> Jet:
        qs, _, lf, _ = _chain(self, anchor, order)
        return truncate(lf, order) + qs[-1]

    def evaluator(self, anchor, order: int) -> Jet:
        return J.exp(self.log_evaluator(anchor, order))

    def value(self, x):
        return self.evaluator(x, 0).value


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
    return Jet(anchor, rows)


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

    def log_seed(anchor, order: int) -> tuple[Jet, Optional[Jet], Jet, object]:
        try:
            if seed is SeedKind.DIRECT_H:  # q_0 = ln h - ln f
                h = _pointwise(h_jet, anchor, order)
                d = h.value
                h = J.check(h, d <= 0.0, lambda: PoleEncountered(
                    f"candidate h not positive at x={anchor}", margins=(d,)
                ))
                lf = dist.log_pdf_jet(anchor, order)
                return J.ln(h) - lf, None, lf, d
            if seed is SeedKind.PDF:  # q_0 = -ln(-+(ln f)'), a_0 = q_0'/(ln f)'
                lf = dist.log_pdf_jet(anchor, order + 1)
                lfd = jet_shift_derivative(lf)
                d = sign * lfd.value
                lfd = J.check(lfd, d <= 0.0, lambda: PoleEncountered(
                    f"pdf seed needs f {'decreasing' if sign < 0 else 'increasing'} at x={anchor}", margins=(d,)
                ))
                q = -J.ln(sign * lfd)
                return q, jet_shift_derivative(q) / truncate(lfd, order - 1) if order else None, lf, d
            if seed is SeedKind.SHIFTED_PDF:  # t = 1 + (x - lo)(ln f)', a_0 = -(x - lo) t'/t^2
                lo = dist.support.lower
                x = J.check(jet_var(anchor, order), anchor <= lo, lambda: PoleEncountered(
                    f"anchor {anchor} at/below support endpoint {lo}"
                ))
                lf = dist.log_pdf_jet(anchor, order + 1)
                u = x - lo
                t = 1.0 + u * truncate(jet_shift_derivative(lf), order)
                d = sign * t.value
                t = J.check(t, d <= 0.0, lambda: PoleEncountered(
                    f"shifted seed denominator sign at x={anchor}", margins=(d,)
                ))
                lt = J.ln(sign * t)
                a = -(jet_shift_derivative(lt) * truncate(u, order - 1)) / truncate(t, order - 1) if order else None
                return J.ln(u) - lt, a, lf, d
            # CUSTOM_G: q_0 = ln g - ln(-+g')
            g = _pointwise(g_jet, anchor, order + 1)
            gd = jet_shift_derivative(g)
            d = sign * gd.value
            gd = J.check(gd, d <= 0.0, lambda: PoleEncountered(
                f"custom g not strictly {'decreasing' if sign < 0 else 'increasing'} at x={anchor}", margins=(d,)
            ))
            lf = dist.log_pdf_jet(anchor, order)
            return J.ln(truncate(g, order)) - J.ln(sign * gd), None, lf, d
        except PoleEncountered:
            raise
        except _POINT_ERRORS as exc:
            raise PoleEncountered(f"seed at x={anchor}: {exc}") from exc

    return BoundIterate(0, side, dist, seed, log_seed)


def iterate(prev: BoundIterate) -> BoundIterate:
    """P_{i+1} = -+ f P_i/P_i' as the next link of the chain."""
    return BoundIterate(prev.index + 1, prev.side, prev.dist, prev.seed, prev.log_seed, prev)


def log_chain(it: BoundIterate, anchor, order: int) -> tuple[list[Jet], Jet]:
    """ln P_0 .. ln P_i of ``it``'s chain in one forward sweep, level k
    at order ``order + i - k``, and the ln f jet the seed read once: ln P_k
    = ln f + q_k (see ``_chain``). At a float anchor the first pole raises
    PoleEncountered; on a grid it is NaN.
    """
    qs, _, lf, _ = _chain(it, anchor, order)
    return [truncate(lf, q.order) + q for q in qs], lf


def _chain(it: BoundIterate, anchor, order: int) -> tuple[list[Jet], list, Jet, list]:
    """q_0 .. q_i of ``it``'s chain, q_k = ln(P_k/f) at order ``order + i
    - k``; the values of the steps a_k = P_k/P_{k+1} - 1 = expm1(-d_k) of
    the levels k whose q_k has order >= 1; the ln f jet the seed read; and
    the chain's margins: the seed's denominator and -+(ln P_k)' = -+((ln
    f)' + q_k') for k < i, each of which must be positive for the next
    level to be defined.

    Each level takes its truncation of ln f (a jet's low coefficients do
    not depend on its order): d_k = -log1p(a_k), q_{k+1} = q_k + d_k, and
    a_{k+1} = d_k'/((ln f)' + q_k'). A seed without a closed form for a_0
    starts from q_1 = -ln(-+(ln P0)') and a_0 = -+(ln P0)' e^{q_0} - 1,
    with e^{q_0} capped at e^709 where P0/f overflows (only its sign
    against 1 is read there). On a grid the margins are arrays, NaN where
    a lower level is undefined; at a float anchor the PoleEncountered of
    the first that is not positive carries the margins up to it."""
    i = it.index
    if i and order + i + 1 > MAX_ORDER:
        raise DomainError(f"order {order} at iterate {i} exceeds the jet cap {MAX_ORDER}")
    sign = -1.0 if it.side is TailSide.RIGHT else 1.0
    q, a, lf, d = it.log_seed(anchor, order + i)
    qs, steps, margins = [q], [], [d]
    neg_lfd = -jet_shift_derivative(lf) if q.order else None
    for k in range(i + 1):
        n = qs[-1].order  # a_k is one order lower
        if n == 0:
            break
        if k < i or a is None:
            neg_lpd = truncate(neg_lfd, n - 1) - jet_shift_derivative(qs[-1])  # -(ln P_k)'
            m = -sign * neg_lpd.value
        steps.append(a.value if a is not None else m * each(math.exp, np.minimum(q.value, 709.0)) - 1.0)
        if k == i:
            break
        margins.append(m)
        pole = lambda: PoleEncountered(
            f"P_{k}' has the wrong sign at x={anchor} (iterate pole)", margins=tuple(margins)
        )
        try:  # e = -d_k = ln(P_k/P_{k+1})
            if a is None:
                nxt = -J.ln(J.check(-sign * neg_lpd, m <= 0.0, pole))
                e = truncate(qs[-1], n - 1) - nxt
            else:
                e = J.jet_elementary(J.check(a, m <= 0.0, pole), "log1p")
                nxt = truncate(qs[-1], n - 1) - e
            qs.append(nxt)
            a = jet_shift_derivative(e) / truncate(neg_lpd, n - 2) if n > 1 else None
        except _POINT_ERRORS as exc:
            raise PoleEncountered(f"iterate {k + 1} at x={anchor}: {exc}") from exc
    return qs, steps, lf, margins


# ---------------------------------------------------------------------------
# Grid classification


def grid_points(window: tuple[float, float], grid: GridSpec, side: TailSide) -> np.ndarray:
    """Evaluation grid on [a, b], geometric spacing clustered toward the
    threshold end (window start for the right tail, window end for the
    left)."""
    a, b = window
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"bad window ({a}, {b})")
    offs = np.geomspace(1e-6, 1.0, grid.points) * (b - a)
    if side is TailSide.RIGHT:
        return a + offs
    return b - offs[::-1]


@dataclass
class _PointEval:
    """The conditions of a level at one point, or on the whole grid with
    one array per field (see ``_level``). An undefined point (a pole, a
    non-positive candidate) fails every condition."""

    defined: bool
    up_ok: bool = False
    lo_ok: bool = False
    step: float = math.nan  # a = P_i/P_{i+1} - 1 = expm1(-d_i)


def _flip(v):
    """expm1(d) from expm1(-d), and back: -v/(1 + v)."""
    return -v / (1.0 + v)


def _level(a, tol: float) -> _PointEval:
    """The conditions of a level P_i from its step a = expm1(-d_i): the
    residual expm1(d_i) = _flip(a) at most tol (upper) or at least -tol
    (lower, which every residual meets once tol >= 1), compared as a,
    which stays finite through a pole of P_{i+1}: where a <= -1, P_i' has
    the wrong sign (P_i is not monotone), so the lower condition holds and
    the upper one fails. Floats or grid arrays; a NaN point is undefined
    and fails both."""
    return _PointEval(a == a, a >= _flip(tol), a <= (_flip(-tol) if tol < 1.0 else math.inf), a)


def _conditions(it: BoundIterate, x: float, tol: float) -> tuple[_PointEval, list]:
    """The conditions of ``it`` at the point x from one scalar pass of the
    chain, with its margins (see ``_chain``). A pole leaves the point
    undefined, with the margins up to the pole when a sign check found
    it."""
    try:
        _, steps, _, margins = _chain(it, x, 1)
    except PoleEncountered as exc:
        return _PointEval(False), exc.margins
    return _level(steps[-1], tol), margins


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

    One grid sweep of the chain (``_sweep``) gives the step and the
    predecessor's step for tightness, judged by ``_judged`` as
    ``tabulate_chain`` judges its levels. The verified region is the
    maximal run of passing grid points touching the support-edge end of
    the window (the bounds hold from a threshold onward); its boundary is
    refined by root finding on the quantity that fails there
    (``_threshold``), with scalar passes, to 1e-10 window-relative. The
    bound verdict needs positivity (implied by P_i being defined) and the
    governing sign; monotonicity of P_i gates only the construction of
    the NEXT iterate, and is reported in ``monotone`` for the algorithm
    loop.

    Raises OrderExhausted when P_i's slope needs a jet order above the
    cap (each iterate consumes one order on top of the seed's two).
    """
    xs = _grid(it, window, grid)
    return next(_judged(_links(it), it.index, xs, _sweep(it, xs), window, tol))


def tabulate_chain(
    it: BoundIterate,
    window: tuple[float, float],
    points: np.ndarray,
    grid: GridSpec = GridSpec(),
    tol: float = DEFAULT_TOL,
) -> tuple[Iterator[Classification], tuple]:
    """``classify`` of P_0 .. P_i of ``it``'s chain, and the chain at
    ``points``, from one grid pass of P_i over the classification grid and
    the points together.

    The levels are judged on the grid's part of the pass: a pass's lower
    levels are those of the lower iterates' own sweeps bit for bit, so
    each level's step and margins, and the step below it for tightness,
    come from the one pass, and each level's threshold is root-found with
    scalar passes of its own chain, as ``classify`` finds it. They come
    as a generator, judging each level on its ``next``, so that a caller
    stops at the first level that fails; the checks are those of
    ``classify`` of P_i, and the pass runs here.

    The points' part gives (ln f, [q_0 .. q_i], [a_0 .. a_{i-1}]), one
    array over the points each, NaN where a level is undefined (ln P_k =
    ln f + q_k, a_k = P_k/P_{k+1} - 1). A point's values do not depend on
    the other points, so they are those of a pass at order 1 over the
    points alone; where that is defined they equal an order-0 pass's (a
    jet's low coefficients do not depend on its order). A point where
    only the coefficient one order up overflows is undefined here and not
    at order 0 (the ln x of a density near x = 0: below about 1e-31 at
    depth 8, 1e-77 at depth 2).
    """
    xs = _grid(it, window, grid)
    n = xs.size
    lf, qs, steps, margins = _sweep(it, np.concatenate((xs, points)))
    on_grid = (lf[:n], [q[:n] for q in qs], [a[:n] for a in steps], [m[:n] for m in margins])
    at_points = (lf[n:], [q[n:] for q in qs], [a[n:] for a in steps[:-1]])
    return _judged(_links(it), 0, xs, on_grid, window, tol), at_points


def _links(it: BoundIterate) -> list[BoundIterate]:
    """P_0 .. P_i of ``it``'s chain."""
    links = [it]
    while links[-1].prev is not None:
        links.append(links[-1].prev)
    return links[::-1]


def _sweep(it: BoundIterate, xs: np.ndarray) -> tuple:
    """One grid pass of ``it``'s chain at order 1 (see ``_chain``), as its
    values on ``xs``: ln f, [q_0 .. q_i], the steps [a_0 .. a_i] and the
    margins."""
    with np.errstate(all="ignore"):
        qs, steps, lf, margins = _chain(it, xs, 1)
    return lf.value, [q.value for q in qs], steps, margins


def _judged(
    links: list[BoundIterate],
    first: int,
    xs: np.ndarray,
    sweep: tuple,
    window: tuple[float, float],
    tol: float,
) -> Iterator[Classification]:
    """``classify`` of ``links[first:]``, the levels ``first`` and up of
    the chain P_0 .. P_i in ``links``, from ``sweep``, one grid pass of
    P_i (see ``_sweep``): each level's ln P, step and margins, and the
    step below it for tightness, are read from the pass. A generator,
    judging each level on its ``next``."""
    lf, qs, steps, margins = sweep
    for k in range(first, len(links)):
        with np.errstate(all="ignore"):
            cond = _level(steps[k], tol)
            log_p = lf + qs[k]
        prev = steps[k - 1] if k else None
        yield _judge(links[k], xs, cond, log_p, prev, margins[: k + 1], window, tol)


def _judge(
    it: BoundIterate,
    xs: np.ndarray,
    cond: _PointEval,
    log_p: np.ndarray,
    step_prev: Optional[np.ndarray],
    margins: list,
    window: tuple[float, float],
    tol: float,
) -> Classification:
    """The classification of ``it`` from its conditions on the grid
    ``xs``, and from the same sweep its ln P, its predecessor's step
    (None for a seed) and the margins up to its own: the verdict, the
    threshold (``_threshold``), the limit check, the sampled residuals
    expm1(d_i), tightness against the predecessor's step and
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

    # numeric surrogate for the limit condition at the support-edge-most
    # point, on ln P = ln f + q
    edge, inner = (n - 1, n - 2) if right else (0, 1)
    limit_ok = bool(
        cond.defined[edge]
        and log_p[edge] <= math.log(LIMIT_TOL)
        and (not cond.defined[inner] or log_p[edge] <= log_p[inner] + tol)
    )

    residuals = tuple(_flip(cond.step[:: max(1, n // 16)]).tolist())
    tightness_ok = _tightness(cond.step, step_prev, verdict, tol) if step_prev is not None else None
    monotone = bool(np.all(cond.step > -1.0))  # P_{i+1} defined: P_i' has the tail's sign
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
    level, or the seed's own denominator), or else the step against the
    tolerance (``_level``). Illinois (``rootfind.illinois``) brackets its
    root to half of 1e-10 (b - a), with one scalar pass of the chain per
    step; one more pass, that half width past the point it returns,
    closes the bracket on the other side. Where that quantity is
    undefined at either end, or the closing pass does not cross, the
    bracket is bisected on the conditions.
    """
    a, b = window
    x_tol = 1e-10 * (b - a)
    bad, good = at
    x_bad, x_good = float(xs[bad]), float(xs[good])

    def passes(e: _PointEval) -> bool:  # an undefined point meets neither condition
        return (e.up_ok or verdict is Verdict.LOWER) and (e.lo_ok or verdict is Verdict.UPPER)

    # q, positive on the passing side: the first margin not positive at
    # the failing point, else how far the step a is inside the condition
    # that fails there: a - _flip(tol) for the upper one, _flip(-tol) - a
    # for the lower (which fails only where tol < 1)
    first = next((k for k, m in enumerate(margins) if not m[bad] > 0.0), None)
    if first is not None:
        q_bad, q_good = margins[first][bad], margins[first][good]

        def q_of(e: _PointEval, ms):
            return ms[first] if len(ms) > first else None
    else:
        s, c = (1.0, _flip(tol)) if not cond.up_ok[bad] else (-1.0, _flip(-tol))
        q_bad, q_good = s * (cond.step[bad] - c), s * (cond.step[good] - c)

        def q_of(e: _PointEval, ms):
            return s * (e.step - c) if e.defined else None

    seen = {x_bad: False, x_good: True}

    def minus_q(x: float):
        e, ms = _conditions(it, x, tol)
        seen[x] = passes(e)
        q = q_of(e, ms)
        return None if q is None else -q

    if math.isfinite(q_bad) and q_good > 0.0:
        # to half the width, so that rounding cannot carry the result past it
        x, _ = rootfind.illinois(minus_q, (x_bad, x_good, -q_bad, -q_good), 0.0, 0.5 * x_tol)
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


def _tightness(a, a_prev, verdict, tol) -> Optional[bool]:
    """Lemma-style tightness condition when the verdict flips from the
    predecessor: the sum P_i + P_{i-1} meets the predecessor's governing
    sign against 2f on the defined part of the grid. Relative to f, P_k' =
    -+f (1 + a_k), so the sum's residual is a_i + a_{i-1} = expm1(-d_i) +
    expm1(-d_{i-1}), at least -tol after an upper bound and at most tol
    after a lower one; ``a_prev`` is the predecessor's step in the pass."""
    if verdict not in (Verdict.UPPER, Verdict.LOWER):
        return None
    pair = a + a_prev
    held = pair >= -tol if verdict is Verdict.LOWER else pair <= tol
    counted = held[~np.isnan(pair)]
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


def _run_levels(
    seed: BoundIterate,
    depth: int,
    window: tuple[float, float],
    grid: GridSpec,
    tol: float,
) -> Iterator[tuple[BoundIterate, Classification]]:
    """(P_k, ``classify`` of P_k) for k = 0 .. ``depth`` of the seed's
    chain, in order, from grid sweeps of doubling depth: one sweep of P_2
    judges P_0 .. P_2, one of P_4 judges P_3 and P_4, one of P_8 P_5 ..
    P_8, each capped at P_depth (as ``tabulate_chain`` judges its levels).
    A generator, so a run that stops at P_k pays for the sweeps up to the
    one that holds P_k and for no deeper one. A sweep that raises (a grid
    pass fails whole) says nothing of its lower levels: the next level is
    then swept on its own, and raises where ``classify`` of it would."""
    links = [seed]
    k, top = 0, 2
    while k <= depth:
        top = min(top, depth)
        while len(links) <= top:
            links.append(iterate(links[-1]))
        xs = _grid(links[top], window, grid)
        try:
            sweep = _sweep(links[top], xs)
        except PoleEncountered:
            if top == k:
                raise
            top = k
            continue
        yield from zip(links[k : top + 1], _judged(links[: top + 1], k, xs, sweep, window, tol))
        k, top = top + 1, max(2 * top, 2)


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
    that kind was produced. Each classification is ``classify`` of that
    iterate, read from chain sweeps of doubling depth (``_run_levels``):
    one sweep of P_2 for a run that stops by P_2. Raises ParamError when
    ``max_iter`` is deeper than the jet order cap can classify
    (``MAX_ORDER - 2``).
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

    levels = _run_levels(make_seed(dist, seed, side, g_jet=g_jet, h_jet=h_jet), max(max_iter, 0), window, grid, tol)
    try:
        cur, cls = next(levels)
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
    # x > x0" facts come from each iterate's classification, judged when
    # the loop first asks for it; tightness is consulted only where the
    # new iterate is defined on the whole grid
    for _ in range(max_iter):
        try:
            nxt, nxt_cls = next(levels)
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


def _step(it: BoundIterate, x):
    """a_i = P_i/P_{i+1} - 1 = expm1(-d_i) of ``it`` at a float x or on an
    array of points (NaN where undefined)."""
    return _chain(it, x, 1)[1][-1]


def convergence_rate(it: BoundIterate, x):
    """|P_i/P_{i+1} - 1| = |expm1(-d_i)|, driven by P_i's derivative. At a
    float x or on an array of points (NaN where undefined)."""
    return abs(_step(it, x))


def figure_rate(it: BoundIterate, x):
    """|P_{i+1}/P_i - 1| = |expm1(d_i)|, the quantity the reference
    figures plot (the reciprocal orientation of convergence_rate; both
    vanish together as the bounds converge). At a float x or on an array
    of points (NaN where undefined)."""
    return abs(_flip(_step(it, x)))
