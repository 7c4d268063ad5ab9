"""Truncated Taylor-series ("jet") arithmetic, at one point or on a grid.

A jet stores the normalized Taylor coefficients of a scalar function at
an anchor: coeffs[k] = F^(k)(x)/k!.  All higher-order derivatives that
the bound iteration needs are obtained by composing jets, never by
symbolic algebra or repeated numeric differentiation.

Scalar and batch anchors.  The anchor is a float, or a 1-D ndarray of
points (a grid).  With a float anchor every coefficient is a float; with
an array anchor every coefficient is an array of the anchor's shape, so
one pass of jet arithmetic evaluates a whole grid.  Library code is
written once for both shapes.

Raising versus NaN masking.  On a scalar anchor an operation outside
its domain raises, as a single evaluation must: ln, sqrt or pow of a
non-positive value, log1p at or below -1, a divisor below ``DIV_FLOOR``,
exp above 709, a non-finite coefficient.  On a grid nothing is raised:
a point where the scalar operation would raise becomes NaN in every
coefficient, and NaN carries through every later operation.  The result
of a grid pass is therefore the scalar result at every point where the
scalar path succeeds, and NaN exactly where it raises.  ``check``
applies the same rule to a caller's own conditions (poles, sign checks).

Same bits on both shapes.  The coefficient recurrences live in one
module, ``_kernels_py``, and run in the same operation order on floats
and arrays; numpy's elementwise + - * / round exactly as Python floats
do.  The order-0 transcendentals are the exception: numpy's SIMD exp
and log differ from libm in the last bit on some inputs, so they call
the same ``math`` function per element as the scalar path
(``_kernels_py.each``), and a grid result is bit-identical to the scalar
one point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels_py as _k
from .errors import DivisionByZeroJet, DomainError, OrderExhausted

#: Hard cap on the jet order; iteration depth <= 8 and each engine
#: iteration consumes one order, so 16 leaves ample headroom.
MAX_ORDER = 16

#: Floor on |divisor leading coefficient| below which division signals a
#: pole instead of producing garbage.
DIV_FLOOR = 1e-300

# a module-level name: the scalar path tests for it on every operation
_ndarray = np.ndarray


@dataclass(frozen=True)
class Jet:
    """Immutable truncated Taylor expansion at ``anchor``.

    coeffs[k] is the k-th derivative divided by k!; the order is
    len(coeffs) - 1.  With an ndarray anchor each coefficient is an
    array of its shape, NaN at the undefined points.
    """

    anchor: float | np.ndarray
    coeffs: tuple

    # numpy scalars and arrays on the left of an operator defer to Jet
    __array_ufunc__ = None

    def __post_init__(self):
        coeffs = self.coeffs
        if not coeffs:
            raise DomainError("jet needs at least one coefficient")
        if len(coeffs) - 1 > MAX_ORDER:
            raise DomainError(f"jet order {len(coeffs) - 1} exceeds cap {MAX_ORDER}")
        if isinstance(self.anchor, _ndarray):
            object.__setattr__(self, "coeffs", _grid_coeffs(self.anchor.shape, coeffs))
            return
        for c in coeffs:
            if not math.isfinite(c):
                raise DomainError("non-finite jet coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def batched(self) -> bool:
        """The anchor is a grid of points."""
        return isinstance(self.anchor, _ndarray)

    @property
    def value(self):
        """Order-0 truncation: plain function evaluation."""
        return self.coeffs[0]

    # Operator sugar. A number operand of + - * acts on the coefficients
    # (``_arith``) with the bits of the constant jet's convolution; a
    # number divisor is promoted to a constant jet, for the DIV_FLOOR check.
    def __add__(self, other):
        return _arith(self, other, "add")

    __radd__ = __add__

    def __sub__(self, other):
        return _arith(self, other, "sub")

    def __rsub__(self, other):
        return _arith(self, other, "rsub")

    def __mul__(self, other):
        return _arith(self, other, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        return jet_arith(self, _promote(other, self), "div")

    def __rtruediv__(self, other):
        return jet_arith(_promote(other, self), self, "div")

    def __neg__(self):
        return Jet(self.anchor, _k.scale(self.coeffs, -1.0))


def _grid_coeffs(shape: tuple, coeffs) -> tuple:
    """Coefficients of a grid jet as arrays of the anchor's shape (float
    coefficients broadcast), with every point that has a non-finite
    coefficient set to NaN in all of them."""
    rows = np.empty((len(coeffs),) + shape)
    for row, c in zip(rows, coeffs):
        row[...] = c
    ok = np.isfinite(rows).all(axis=0)
    if not ok.all():
        rows[:, ~ok] = np.nan
    return tuple(rows)


def _nan_at(coeffs: tuple, bad) -> tuple:
    """Grid coefficients with the points where ``bad`` holds set to NaN."""
    if not np.any(bad):
        return coeffs
    return tuple(np.where(bad, np.nan, c) for c in coeffs)


def check(a: Jet, bad, error: Callable[[], Exception]) -> Jet:
    """``a`` with the points where ``bad`` holds made undefined: a scalar
    jet raises ``error()`` there, a grid jet gets NaN in every
    coefficient at those points."""
    if isinstance(a.anchor, _ndarray):
        return Jet(a.anchor, _nan_at(a.coeffs, bad)) if np.any(bad) else a
    if bad:
        raise error()
    return a


#: a op c on the coefficients of a, with the bits of the kernels on the
#: constant jet (c, 0, ..., 0): its zeros give x + 0.0 (turning -0.0 into
#: 0.0) in the higher coefficients of add, x - 0.0 = x in those of sub,
#: 0.0 - x in those of rsub (c - a), and 0.0 + x*c in every coefficient of
#: mul (the zero products that the convolution adds first).
_NUMBER_OPS = {
    "add": lambda a, c: (a[0] + c, *(x + 0.0 for x in a[1:])),
    "sub": lambda a, c: (a[0] - c, *a[1:]),
    "rsub": lambda a, c: (c - a[0], *(0.0 - x for x in a[1:])),
    "mul": lambda a, c: tuple(0.0 + x * c for x in a),
}


def _arith(a: Jet, b, op: str) -> Jet:
    """``a`` op ``b`` for a jet b (``jet_arith``) or a number b, which
    builds no constant jet; a non-finite result fails as it does there
    (raises on a float anchor, NaN at the point of a grid)."""
    if isinstance(b, Jet):
        return jet_arith(a, b, op)
    c = float(b)
    if isinstance(a.anchor, _ndarray):
        with np.errstate(all="ignore"):
            return Jet(a.anchor, _NUMBER_OPS[op](a.coeffs, c))
    return Jet(a.anchor, _NUMBER_OPS[op](a.coeffs, c))


def _promote(x, like: Jet) -> Jet:
    if isinstance(x, Jet):
        return x
    return jet_const(float(x), like.anchor, like.order)


def jet_const(c: float, anchor, order: int) -> Jet:
    """Jet of the constant function c."""
    if order < 0:
        raise DomainError("order must be >= 0")
    return Jet(anchor, (float(c),) + (0.0,) * order)


def jet_var(anchor, order: int) -> Jet:
    """Jet of the identity F(x) = x."""
    if order < 0:
        raise DomainError("order must be >= 0")
    x0 = anchor if isinstance(anchor, _ndarray) else float(anchor)
    if order == 0:
        return Jet(anchor, (x0,))
    return Jet(anchor, (x0, 1.0) + (0.0,) * (order - 1))


def _check_compatible(a: Jet, b: Jet):
    pa, pb = a.anchor, b.anchor
    if pa is not pb:
        if isinstance(pa, _ndarray) or isinstance(pb, _ndarray):
            same = isinstance(pa, _ndarray) and isinstance(pb, _ndarray) and np.array_equal(pa, pb)
        else:
            same = pa == pb
        if not same:
            raise DomainError(f"jet anchors differ: {pa} vs {pb}")
    if a.order != b.order:
        raise DomainError(f"jet orders differ: {a.order} vs {b.order}")


def jet_arith(a: Jet, b: Jet, op: str) -> Jet:
    """Coefficient-wise arithmetic on two jets sharing anchor and order."""
    _check_compatible(a, b)
    if op == "add":
        kernel = _k.add
    elif op == "sub":
        kernel = _k.sub
    elif op == "mul":
        kernel = _k.mul
    elif op == "div":
        kernel = _k.div
    else:
        raise DomainError(f"unknown op {op!r}")
    b0 = b.coeffs[0]
    if isinstance(a.anchor, _ndarray):
        with np.errstate(all="ignore"):
            coeffs = kernel(a.coeffs, b.coeffs)
        if op == "div":
            coeffs = _nan_at(coeffs, np.abs(b0) < DIV_FLOOR)
        return Jet(a.anchor, coeffs)
    if op == "div" and abs(b0) < DIV_FLOOR:
        raise DivisionByZeroJet(
            f"divisor leading coefficient {b0!r} below floor at x={a.anchor!r}"
        )
    return Jet(a.anchor, kernel(a.coeffs, b.coeffs))


def jet_elementary(a: Jet, fn: str, p: float | None = None) -> Jet:
    """Compose an elementary function with a jet: exp, ln, log1p, sqrt or
    pow(p)."""
    a0 = a.coeffs[0]
    args = ()
    if fn == "exp":
        bad = a0 > 709.0  # exp overflow guard at the value level
        kernel = _k.exp
    elif fn == "ln":
        bad = a0 <= 0.0
        kernel = _k.ln
    elif fn == "log1p":
        bad = a0 <= -1.0
        kernel, args = _k.ln, (1.0,)
    elif fn == "sqrt":
        bad = a0 <= 0.0
        kernel = _k.sqrt
    elif fn == "pow":
        if p is None:
            raise DomainError("pow needs an exponent")
        bad = a0 <= 0.0
        kernel, args = _k.powr, (float(p),)
    else:
        raise DomainError(f"unknown elementary function {fn!r}")
    if isinstance(a.anchor, _ndarray):
        # undefined inputs (NaN) and domain failures alike: the kernel
        # sees NaN there, and its output is NaN there whatever it computes
        bad = bad | np.isnan(a0)
        with np.errstate(all="ignore"):
            return Jet(a.anchor, _nan_at(kernel(_nan_at(a.coeffs, bad), *args), bad))
    if bad:
        if fn == "exp":
            raise DomainError(f"exp of jet value {a0} overflows")
        raise DomainError(f"{fn} of jet value {a0} outside its domain")
    return Jet(a.anchor, kernel(a.coeffs, *args))


def jet_shift_derivative(a: Jet) -> Jet:
    """Jet of F' at the same anchor, one order lower."""
    if a.order == 0:
        raise OrderExhausted("cannot differentiate an order-0 jet")
    return Jet(a.anchor, tuple((k + 1) * a.coeffs[k + 1] for k in range(a.order)))


# Short aliases used heavily inside the library.
def exp(a: Jet) -> Jet:
    return jet_elementary(a, "exp")


def ln(a: Jet) -> Jet:
    return jet_elementary(a, "ln")


def sqrt(a: Jet) -> Jet:
    return jet_elementary(a, "sqrt")


def powj(a: Jet, p: float) -> Jet:
    return jet_elementary(a, "pow", p)
