"""The library's one bracketing root finder: Illinois (Dowell & Jarratt
1971), regula falsi that halves the value kept at an end which two steps
in a row left in place, so that both ends close in superlinearly.

It serves the AWGN lambda solves (``awgn.solve_lambda`` and
``awgn.oracle_lambda``, through ``awgn._solve_md``), the inverse
Gaussian Q function (``specfun.gaussian_q_inverse``) and the validity
thresholds of ``engine.classify``.
"""

from __future__ import annotations


def illinois(f, a: float, b: float, f_a: float, f_b: float, f_tol: float, x_tol: float = 0.0) -> tuple[float, float]:
    """A root of f between a and b, where f(a) > 0 > f(b); a may lie on
    either side of b.

    Stops once |f| <= f_tol at a step, the bracket is at most x_tol wide,
    or it is at ulp width, and returns the point with the smallest |f|
    seen and f there. f may return None where it is undefined on a's side
    of the root; such a point becomes the new a, keeping f(a).
    """
    best, best_f = (a, f_a) if f_a < -f_b else (b, f_b)
    kept = 0  # +1: a was kept by the last step, -1: b was
    for _ in range(200):
        if abs(b - a) <= x_tol:
            break
        mid = b - f_b * (b - a) / (f_b - f_a)
        if not (a < mid < b or b < mid < a):
            mid = 0.5 * (a + b)
            if not (a < mid < b or b < mid < a):
                break
        v = f(mid)
        if v is None:
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
    return best, best_f
