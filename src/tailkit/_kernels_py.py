"""Jet coefficient kernels.

Each kernel implements a truncated-power-series recurrence on a tuple of
normalized Taylor coefficients (coeffs[k] = F^(k)(x)/k!).  A coefficient
is a float, or an ndarray holding one value per grid point; the same
code runs on both, in the same operation order, so a grid result equals
the scalar result at every point bit for bit.  Two rules keep that true:
the order-0 transcendentals go through ``each`` (one libm call per
element, as on a float), and no kernel updates an input array in place.

No domain checking happens here (callers validate or mask); the only
hard error on floats is ZeroDivisionError from an exactly-zero leading
divisor coefficient, which callers pre-empt with their own floor check.
"""

import math

import numpy as np

_ndarray = np.ndarray


def each(fn, v):
    """``fn(v)`` for a float; for an array, ``fn`` on every element by the
    same libm call (numpy's SIMD exp and log differ from libm in the last
    bit on some inputs). An element where ``fn`` raises becomes NaN."""
    if not isinstance(v, _ndarray):
        return fn(v)
    flat = v.ravel().tolist()
    try:
        out = list(map(fn, flat))
    except (OverflowError, ValueError):
        out = [_or_nan(fn, x) for x in flat]
    return np.array(out).reshape(v.shape)


def _or_nan(fn, x):
    try:
        return fn(x)
    except (OverflowError, ValueError):
        return math.nan


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def scale(a, c):
    return tuple(c * x for x in a)


def mul(a, b):
    n = len(a)
    out = [0.0] * n
    for k in range(n):
        s = 0.0
        for j in range(k + 1):
            s = s + a[j] * b[k - j]
        out[k] = s
    return tuple(out)


def div(a, b):
    # long division of truncated power series: c = a / b
    n = len(a)
    b0 = b[0]
    out = [0.0] * n
    for k in range(n):
        s = a[k]
        for j in range(k):
            s = s - out[j] * b[k - j]
        out[k] = s / b0
    return tuple(out)


def exp(a):
    out = [each(math.exp, a[0])]
    for _ in range(1, len(a)):
        out.append(exp_next(a, out))
    return tuple(out)


def exp_next(a, out):
    # coefficient k = len(out) of exp(a) from out[:k]: it reads a[1..k]
    # only, so a series can be extended by one order at a time
    k = len(out)
    s = 0.0
    for j in range(1, k + 1):
        s = s + j * a[j] * out[k - j]
    return s / k


def ln(a, shift=0.0):
    # ln(shift + a); shift 1 is log1p, whose value libm keeps accurate near a = 0
    n = len(a)
    b0 = shift + a[0] if shift else a[0]
    out = [0.0] * n
    out[0] = each(math.log1p if shift else math.log, a[0])
    for k in range(1, n):
        s = k * a[k]
        for j in range(1, k):
            s = s - j * out[j] * a[k - j]
        out[k] = s / (k * b0)
    return tuple(out)


def sqrt(a):
    n = len(a)
    out = [0.0] * n
    s0 = each(math.sqrt, a[0])
    out[0] = s0
    for k in range(1, n):
        s = a[k]
        for j in range(1, k):
            s = s - out[j] * out[k - j]
        out[k] = s / (2.0 * s0)
    return tuple(out)


def powr(a, p):
    # (a ** p) for a[0] > 0 via the standard Euler recurrence
    n = len(a)
    a0 = a[0]
    out = [0.0] * n
    out[0] = each(lambda v: math.pow(v, p), a0)
    for k in range(1, n):
        s = 0.0
        for j in range(1, k + 1):
            s = s + ((p + 1.0) * j - k) * a[j] * out[k - j]
        out[k] = s / (k * a0)
    return tuple(out)
