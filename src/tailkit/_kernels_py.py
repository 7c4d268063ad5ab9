"""Jet coefficient kernels.

Each kernel implements a truncated-power-series recurrence on a sequence
of normalized Taylor coefficients (coeffs[k] = F^(k)(x)/k!) and returns
a tuple.  A coefficient is a float, or an ndarray holding one value per
grid point (a row of a grid jet's (order+1, n) array); the same
recurrence runs on both, and no kernel updates an input array in place.
``mul_rows``, ``div_rows`` and ``ln_rows`` are ``mul``, ``div`` and
``ln`` on a whole (order+1, n) array, with their bits: each takes the
terms of a coefficient in the same order, but as row updates, one array
operation per coefficient rather than one per term.  (exp, sqrt and
powr have no such form: coefficient k reads out[k - 1] in its first
term, so its terms cannot be taken in their order as the rows become
known.)
The order-0 transcendentals go through ``each``: libm on a float,
numpy's ufunc on an array, under the caller's ``np.errstate`` (every
grid jet operation holds one).  The two agree to a few ulp, not bit for
bit (numpy's SIMD exp and log differ from libm in the last bit on some
inputs).

No domain checking happens here (callers validate or mask); the only
hard error on floats is ZeroDivisionError from an exactly-zero leading
divisor coefficient, which callers pre-empt with their own floor check.
"""

import math

import numpy as np

_ndarray = np.ndarray

#: the ufunc that ``each`` runs on an array in place of a libm function
_UFUNCS = {math.exp: np.exp, math.log: np.log, math.log1p: np.log1p, math.sqrt: np.sqrt, math.pow: np.power}


def each(fn, v, *args):
    """``fn(v, *args)`` for a float, ``fn`` a libm function of ``math``;
    for an array, the matching numpy ufunc: where ``fn`` would raise, it
    gives NaN, or an infinity at a pole or on overflow, for the caller to
    mask, and the caller's ``np.errstate`` keeps that from warning."""
    if not isinstance(v, _ndarray):
        return fn(v, *args)
    return _UFUNCS[fn](v, *args)


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


def mul_rows(a, b):
    # mul on (order+1, n) arrays, one array operation per j: coefficient k
    # adds its terms a[j] * b[k - j] in mul's order, from 0.0, j = 0..k
    n = len(a)
    out = np.zeros_like(a)
    for j in range(n):
        out[j:] += a[j] * b[: n - j]
    return out


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


def div_rows(a, b):
    # div on (order+1, n) arrays, one array operation per j: once out[j] is
    # known, every coefficient k > j subtracts its term out[j] * b[k - j],
    # so coefficient k subtracts its terms in div's order, j = 0..k-1
    n = len(a)
    b0 = b[0]
    out = a.copy()
    for j in range(n):
        out[j] /= b0
        out[j + 1 :] -= out[j] * b[1 : n - j]
    return out


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
    # ln(shift + a); shift 1 is log1p, which keeps its value accurate near a = 0
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


def ln_rows(a, shift=0.0):
    # ln on (order+1, n) arrays, one array operation per j as in div_rows:
    # coefficient k starts from k * a[k] and subtracts j * out[j] * a[k - j]
    # in ln's order, j = 1..k-1
    n = len(a)
    b0 = shift + a[0] if shift else a[0]
    out = np.empty_like(a)
    out[0] = each(math.log1p if shift else math.log, a[0])
    out[1:] = np.arange(1.0, n)[:, None] * a[1:]
    for j in range(1, n):
        out[j] /= j * b0
        out[j + 1 :] -= j * out[j] * a[1 : n - j]
    return out


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
    out[0] = each(math.pow, a0, p)
    for k in range(1, n):
        s = 0.0
        for j in range(1, k + 1):
            s = s + ((p + 1.0) * j - k) * a[j] * out[k - j]
        out[k] = s / (k * a0)
    return tuple(out)
