"""Truncated Taylor-series ("jet") arithmetic, at one point or on a grid.

A jet stores the normalized Taylor coefficients of a scalar function at
an anchor: coeffs[k] = F^(k)(x)/k!.  All higher-order derivatives that
the bound iteration needs are obtained by composing jets, never by
symbolic algebra or repeated numeric differentiation.

Scalar and batch anchors.  The anchor is a float, or a 1-D ndarray of
n points (a grid).  With a float anchor the coefficients are a tuple of
floats; with an array anchor they are one float array of shape
(order + 1, n), row k holding coefficient k at every point, so one pass
of jet arithmetic evaluates a whole grid.  Library code is written once
for both shapes.

Raising versus NaN masking.  On a scalar anchor an operation outside
its domain raises, as a single evaluation must: ln, sqrt or pow of a
non-positive value, log1p at or below -1, a divisor below ``DIV_FLOOR``,
exp above 709, a non-finite coefficient.  On a grid nothing is raised:
a point where the scalar operation would raise becomes NaN in every
coefficient, and NaN carries through every later operation.  A grid
pass is therefore defined where the scalar path succeeds and NaN where
it raises.  ``check`` applies the same rule to a caller's own conditions
(poles, sign checks).  Each grid operation masks its own result once,
with one ``isfinite`` over its array, and builds the result jet without
a copy or a second check; negation and truncation keep their input's
mask.  The public constructor ``Jet(anchor, coeffs)`` still copies and
validates what a caller hands it (a user's jet evaluator, a special
function's coefficients): NaN at a grid point with a non-finite
coefficient, DomainError on a float anchor.

Agreement between the shapes.  The coefficient recurrences live in one
module, ``_kernels_py``, and run in the same operation order on floats
and arrays.  A float anchor computes with Python floats and libm, a grid
with numpy; the order-0 transcendentals are the one place where the two
differ (numpy's SIMD exp and log are not libm's), so a grid result
agrees with the scalar one to a few ulp per transcendental (1e-13
relative is what the tests require), and is NaN at the same points.
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
_all, _any = np.logical_and.reduce, np.logical_or.reduce


@dataclass(frozen=True)
class Jet:
    """Immutable truncated Taylor expansion at ``anchor``.

    coeffs[k] is the k-th derivative divided by k!; the order is
    len(coeffs) - 1.  With an ndarray anchor the coefficients are one
    (order + 1, n) array, NaN in every row at the undefined points.
    """

    anchor: float | np.ndarray
    coeffs: tuple | np.ndarray

    # numpy scalars and arrays on the left of an operator defer to Jet
    __array_ufunc__ = None

    def __post_init__(self):
        coeffs = self.coeffs
        if not len(coeffs):
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
        if isinstance(self.anchor, _ndarray):
            return _wrap(self.anchor, -self.coeffs)
        return Jet(self.anchor, _k.scale(self.coeffs, -1.0))


def _wrap(anchor: np.ndarray, rows: np.ndarray) -> Jet:
    """The grid jet of ``rows``, the masked (order+1, n) result of an
    operation, built without the public constructor's copy and check."""
    j = object.__new__(Jet)
    object.__setattr__(j, "anchor", anchor)
    object.__setattr__(j, "coeffs", rows)
    return j


def _mask(rows: np.ndarray, bad=None) -> np.ndarray:
    """``rows``, changed in place, with NaN in every coefficient at each
    point where one of them is not finite or ``bad`` holds."""
    finite = np.isfinite(rows)
    # ufunc reduces: ndarray.all goes through numpy's Python-level _all
    if _all(finite, axis=None) and (bad is None or not _any(bad)):
        return rows
    ok = _all(finite, axis=0)
    if bad is not None:
        ok &= ~bad
    rows[:, ~ok] = np.nan
    return rows


def _grid_coeffs(shape: tuple, coeffs) -> np.ndarray:
    """A caller's coefficients of a grid jet as one fresh array, row k
    coefficient k at every point (float coefficients broadcast), masked."""
    rows = np.empty((len(coeffs),) + shape)
    for row, c in zip(rows, coeffs):
        row[...] = c
    return _mask(rows)


def check(a: Jet, bad, error: Callable[[], Exception]) -> Jet:
    """``a`` with the points where ``bad`` holds made undefined: a scalar
    jet raises ``error()`` there, a grid jet gets NaN in every
    coefficient at those points."""
    if isinstance(a.anchor, _ndarray):
        return _wrap(a.anchor, np.where(bad, np.nan, a.coeffs)) if np.any(bad) else a
    if bad:
        raise error()
    return a


def truncate(a: Jet, order: int) -> Jet:
    """``a`` cut to ``order``: a jet's low coefficients do not depend on
    its order. A grid result is a view of ``a``'s rows."""
    if isinstance(a.anchor, _ndarray):
        return _wrap(a.anchor, a.coeffs[: order + 1])
    return Jet(a.anchor, a.coeffs[: order + 1])


#: a op c on the coefficients of a, with the bits of the kernels on the
#: constant jet (c, 0, ..., 0): its zeros give x + 0.0 (turning -0.0 into
#: 0.0) in the higher coefficients of add, x - 0.0 = x in those of sub,
#: 0.0 - x in those of rsub (c - a), and 0.0 + x*c in every coefficient of
#: mul (the zero products that the convolution adds first). On a grid
#: each is one array operation with the column (c, 0, ..., 0).
_NUMBER_OPS = {
    "add": lambda a, c: (a[0] + c, *(x + 0.0 for x in a[1:])),
    "sub": lambda a, c: (a[0] - c, *a[1:]),
    "rsub": lambda a, c: (c - a[0], *(0.0 - x for x in a[1:])),
    "mul": lambda a, c: tuple(0.0 + x * c for x in a),
}
_GRID_NUMBER_OPS = {
    "add": lambda a, c: a + _column(c, len(a)),
    "sub": lambda a, c: a - _column(c, len(a)),
    "rsub": lambda a, c: _column(c, len(a)) - a,
    "mul": lambda a, c: np.add(a * c, 0.0),
}


def _column(c: float, n: int) -> np.ndarray:
    col = np.zeros((n, 1))
    col[0] = c
    return col


def _arith(a: Jet, b, op: str) -> Jet:
    """``a`` op ``b`` for a jet b (``jet_arith``) or a number b, which
    builds no constant jet; a non-finite result fails as it does there
    (raises on a float anchor, NaN at the point of a grid)."""
    if isinstance(b, Jet):
        return jet_arith(a, b, op)
    c = float(b)
    if isinstance(a.anchor, _ndarray):
        with np.errstate(all="ignore"):
            return _wrap(a.anchor, _mask(_GRID_NUMBER_OPS[op](a.coeffs, c)))
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
    if op not in ("add", "sub", "mul", "div"):
        raise DomainError(f"unknown op {op!r}")
    b0 = b.coeffs[0]
    if isinstance(a.anchor, _ndarray):
        with np.errstate(all="ignore"):
            if op == "add":
                rows = a.coeffs + b.coeffs
            elif op == "sub":
                rows = a.coeffs - b.coeffs
            elif op == "mul":
                rows = _k.mul_rows(a.coeffs, b.coeffs)
            else:
                rows = _k.div_rows(a.coeffs, b.coeffs)
        return _wrap(a.anchor, _mask(rows, np.abs(b0) < DIV_FLOOR if op == "div" else None))
    if op == "div" and abs(b0) < DIV_FLOOR:
        raise DivisionByZeroJet(
            f"divisor leading coefficient {b0!r} below floor at x={a.anchor!r}"
        )
    return Jet(a.anchor, getattr(_k, op)(a.coeffs, b.coeffs))  # the kernel named by op


def jet_elementary(a: Jet, fn: str, p: float | None = None) -> Jet:
    """Compose an elementary function with a jet: exp, ln, log1p, sqrt or
    pow(p)."""
    a0 = a.coeffs[0]
    args = ()
    if fn == "exp":
        ok = a0 <= 709.0  # exp overflow guard at the value level
        kernel = _k.exp
    elif fn == "ln":
        ok = a0 > 0.0
        kernel = _k.ln
    elif fn == "log1p":
        ok = a0 > -1.0
        kernel, args = _k.ln, (1.0,)
    elif fn == "sqrt":
        ok = a0 > 0.0
        kernel = _k.sqrt
    elif fn == "pow":
        if p is None:
            raise DomainError("pow needs an exponent")
        ok = a0 > 0.0
        kernel, args = _k.powr, (float(p),)
    else:
        raise DomainError(f"unknown elementary function {fn!r}")
    if isinstance(a.anchor, _ndarray):
        # an undefined input (NaN) fails ``ok`` as a domain failure does:
        # the output is NaN there whatever the kernel computes; ln and
        # log1p run as row updates, the others term by term
        with np.errstate(all="ignore"):
            rows = _k.ln_rows(a.coeffs, *args) if kernel is _k.ln else np.array(kernel(a.coeffs, *args))
        return _wrap(a.anchor, _mask(rows, ~ok))
    if not ok:
        if fn == "exp":
            raise DomainError(f"exp of jet value {a0} overflows")
        raise DomainError(f"{fn} of jet value {a0} outside its domain")
    return Jet(a.anchor, kernel(a.coeffs, *args))


#: (k + 1) for row k of a derivative's coefficients
_DERIVATIVE_SCALE = np.arange(1.0, MAX_ORDER + 1.0)[:, None]


def jet_shift_derivative(a: Jet) -> Jet:
    """Jet of F' at the same anchor, one order lower."""
    if a.order == 0:
        raise OrderExhausted("cannot differentiate an order-0 jet")
    if isinstance(a.anchor, _ndarray):
        with np.errstate(all="ignore"):
            return _wrap(a.anchor, _mask(a.coeffs[1:] * _DERIVATIVE_SCALE[: a.order]))
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
