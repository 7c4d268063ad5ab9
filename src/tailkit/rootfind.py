"""The library's one root finder: Newton steps where f's values carry
their slope, and Illinois (Dowell & Jarratt 1971) on a bracket otherwise.
Illinois is regula falsi that halves the value kept at an end which two
steps in a row left in place, so that both ends close in superlinearly.

It serves the AWGN lambda solves (``awgn.solve_lambda`` and
``awgn.oracle_lambda``, through ``awgn._solve_md``), the inverse
Gaussian Q function (``specfun.gaussian_q_inverse``) and the validity
thresholds of ``engine.classify``. The first two hand it slopes; the
thresholds do not, and get Illinois alone.
"""

from __future__ import annotations

import math


class Sloped(float):
    """A value of f that carries ``slope``, f' at the same point (made by
    ``sloped``)."""

    __slots__ = ("slope",)


def sloped(value: float, slope: float) -> Sloped:
    """value as a ``Sloped`` float that carries slope. (Setting the slot
    after a plain float construction costs a third of a ``__new__``.)"""
    obj = Sloped(value)
    obj.slope = slope
    return obj


def illinois(f, bracket, f_tol: float, x_tol: float = 0.0, start=None) -> tuple[float, float]:
    """A root of f, with bracket = (a, b, f(a), f(b)) where f(a) > 0 > f(b);
    a may lie on either side of b.

    Steps are Newton's, x - f(x)/f'(x), from start = (x, f(x)) (by
    default the bracket end with the smaller |f|), for as long as f's
    values carry a nonzero ``slope`` (``Sloped``) and each step lands
    strictly inside the bracket, where f is defined, and halves |f| or
    the bracket. From the first step that does not, the steps are
    Illinois steps.

    bracket may instead be a function that returns the tuple, where a
    start is given. It is called at the first Illinois step, unless the
    points seen by then straddle the root, and the latest point seen on
    either side of the root replaces that end where it lies inside.

    Stops once |f| <= f_tol at a step, the bracket is at most x_tol wide,
    or it or a Newton step is at ulp width, and returns the point with the
    smallest |f| seen and f there. f may return None where it is undefined
    on a's side of the root; such a point becomes the new a, keeping f(a).
    """
    known = not callable(bracket)  # both ends of the bracket
    if known:
        a, b, f_a, f_b = bracket
        best, best_f = (a, f_a) if f_a < -f_b else (b, f_b)
    else:
        a = b = f_a = f_b = None
        best, best_f = start[0], math.inf
    if start is None:
        start = (best, best_f)
    x, v = start
    if v is not None and abs(v) < abs(best_f):
        best, best_f = x, v
    if v is not None and abs(v) <= f_tol:
        return x, v
    if not known and v is not None:
        if v > 0.0:
            a, f_a = x, v
        else:
            b, f_b = x, v
    newton = True
    kept = 0  # +1: a was kept by the last step, -1: b was
    for _ in range(200):
        if known and abs(b - a) <= x_tol:
            break
        if newton:
            slope = getattr(v, "slope", 0.0)
            mid = x - v / slope if slope else math.nan
            if mid == x:
                break
            newton = (a < mid < b or b < mid < a) if known else math.isfinite(mid)
            width, v_prev = (abs(b - a) if known else math.inf), v
        if not newton:
            if not known:
                a0, f_a0, b0, f_b0 = a, f_a, b, f_b  # the latest point on either side, if any
                a, b, f_a, f_b = bracket()
                if f_a0 is not None and (a < a0 < b or b < a0 < a):
                    a, f_a = a0, f_a0
                if f_b0 is not None and (a < b0 < b or b < b0 < a):
                    b, f_b = b0, f_b0
                for end, f_end in ((a, f_a), (b, f_b)):
                    if abs(f_end) < abs(best_f):
                        best, best_f = end, f_end
                known = True
            mid = b - f_b * (b - a) / (f_b - f_a)
            if not (a < mid < b or b < mid < a):
                mid = 0.5 * (a + b)
                if not (a < mid < b or b < mid < a):
                    break
        x, v = mid, f(mid)
        if v is None:
            newton = False
            if known:
                a, kept = mid, 0
            continue
        if abs(v) < abs(best_f):
            best, best_f = mid, v
        if abs(v) <= f_tol:
            break
        if v > 0.0:
            a, f_a = mid, v
            if kept == -1:
                f_b *= 0.5
            kept = -1
        else:
            b, f_b = mid, v
            if kept == 1:
                f_a *= 0.5
            kept = 1
        if newton:
            kept = 0
            newton = abs(v) <= 0.5 * abs(v_prev) or (known and abs(b - a) <= 0.5 * width)
            if not known:
                known = f_a is not None and f_b is not None
    return best, best_f
