import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailkit import _kernels_py as _k
from tailkit import jet as J
from tailkit.errors import DivisionByZeroJet, DomainError, OrderExhausted, TailkitError
from tailkit.jet import Jet, jet_arith, jet_const, jet_elementary, jet_shift_derivative, jet_var


def close(a, b, rel=1e-12, abso=1e-12):
    return abs(a - b) <= max(abso, rel * max(abs(a), abs(b)))


def jets_close(a: Jet, b: Jet, rel=1e-12):
    assert a.order == b.order
    for x, y in zip(a.coeffs, b.coeffs):
        assert close(x, y, rel=rel), (a.coeffs, b.coeffs)


class TestConstructors:
    def test_const(self):
        j = jet_const(5.0, 2.0, 3)
        assert j.coeffs == (5.0, 0.0, 0.0, 0.0)
        assert jet_const(0.0, 0.0, 0).coeffs == (0.0,)
        assert jet_const(1.0, -3.0, 2).coeffs == (1.0, 0.0, 0.0)

    def test_var(self):
        assert jet_var(2.0, 2).coeffs == (2.0, 1.0, 0.0)
        assert jet_var(0.0, 1).coeffs == (0.0, 1.0)
        assert jet_var(-1.7, 4).coeffs == (-1.7, 1.0, 0.0, 0.0, 0.0)

    def test_order_cap(self):
        with pytest.raises(DomainError):
            jet_var(0.0, 17)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            Jet(0.0, (1.0, math.inf))


class TestArith:
    def test_square_of_x(self):
        x = jet_var(3.0, 2)
        sq = jet_arith(x, x, "mul")
        assert sq.coeffs == (9.0, 6.0, 1.0)

    def test_self_division_identity(self):
        a = Jet(1.0, (2.0, -0.3, 0.7, 0.1))
        one = jet_arith(a, a, "div")
        jets_close(one, jet_const(1.0, 1.0, 3))

    def test_one_plus_x_over_x_at_1(self):
        # hand expansion: (1+x)/x = 2 - (x-1) + (x-1)^2 - ... at x=1
        x = jet_var(1.0, 2)
        num = 1.0 + x
        q = jet_arith(num, x, "div")
        jets_close(q, Jet(1.0, (2.0, -1.0, 1.0)))

    def test_division_by_zero_floor(self):
        x = jet_var(0.0, 2)
        with pytest.raises(DivisionByZeroJet):
            jet_arith(jet_const(1.0, 0.0, 2), x, "div")

    def test_anchor_mismatch(self):
        with pytest.raises(DomainError):
            jet_arith(jet_var(0.0, 1), jet_var(1.0, 1), "add")


class TestElementary:
    def test_exp_of_zero(self):
        e = jet_elementary(jet_const(0.0, 5.0, 3), "exp")
        assert e.coeffs == (1.0, 0.0, 0.0, 0.0)

    def test_ln_exp_roundtrip(self):
        x = jet_var(1.0, 3)
        back = jet_elementary(jet_elementary(x, "exp"), "ln")
        jets_close(back, x)

    def test_sqrt_at_4(self):
        # Taylor of sqrt(x) at 4: 2 + (x-4)/4 - (x-4)^2/64
        s = jet_elementary(jet_var(4.0, 2), "sqrt")
        jets_close(s, Jet(4.0, (2.0, 0.25, -0.015625)))

    def test_pow_matches_exp_ln(self):
        a = Jet(2.0, (2.0, 1.0, -0.5, 0.25))
        p = jet_elementary(a, "pow", 1.7)
        via = jet_elementary(1.7 * jet_elementary(a, "ln"), "exp")
        jets_close(p, via)

    def test_domain_errors(self):
        neg = jet_const(-1.0, 0.0, 2)
        for fn in ("ln", "sqrt", "log1p"):
            with pytest.raises(DomainError):
                jet_elementary(neg, fn)

    def test_log1p_series(self):
        # log1p(x) at x0: log1p(x0), then (-1)^(k+1)/(k (1 + x0)^k)
        for x0 in (-0.75, -1e-20, 0.0, 3e-17, 0.5, 40.0):
            got = jet_elementary(jet_var(x0, 5), "log1p").coeffs
            assert got[0] == math.log1p(x0)
            for k in range(1, 6):
                assert close(got[k], (-1.0) ** (k + 1) / (k * (1.0 + x0) ** k), rel=1e-15)


class TestShiftDerivative:
    def test_x_squared(self):
        sq = Jet(3.0, (9.0, 6.0, 1.0))
        assert jet_shift_derivative(sq).coeffs == (6.0, 2.0)

    def test_constant(self):
        d = jet_shift_derivative(jet_const(4.0, 0.0, 3))
        assert d.coeffs == (0.0, 0.0, 0.0)

    def test_exp_derivative_matches_itself(self):
        e4 = jet_elementary(jet_var(0.0, 4), "exp")
        dd = jet_shift_derivative(jet_shift_derivative(e4))
        e2 = jet_elementary(jet_var(0.0, 2), "exp")
        jets_close(dd, e2)

    def test_order_exhausted(self):
        with pytest.raises(OrderExhausted):
            jet_shift_derivative(jet_const(1.0, 0.0, 0))


finite_coeff = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


@st.composite
def smooth_jets(draw, min_order=2, max_order=6):
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    anchor = draw(st.floats(min_value=-3, max_value=3, allow_nan=False))
    coeffs = tuple(draw(finite_coeff) for _ in range(order + 1))
    return Jet(anchor, coeffs)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(smooth_jets(), st.data())
    def test_product_rule(self, a, data):
        b = Jet(a.anchor, tuple(data.draw(finite_coeff) for _ in range(a.order + 1)))
        lhs = jet_shift_derivative(a * b)
        rhs = jet_shift_derivative(a) * Jet(b.anchor, b.coeffs[:-1]) + Jet(
            a.anchor, a.coeffs[:-1]
        ) * jet_shift_derivative(b)
        for x, y in zip(lhs.coeffs, rhs.coeffs):
            assert close(x, y, rel=1e-12, abso=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(smooth_jets(), st.data())
    def test_division_round_trip(self, a, data):
        # round-trip error is measured against the backward scale (the
        # largest product magnitude per coefficient): a divisor with a
        # tiny leading coefficient conditions the quotient by
        # (|b_k|/|b_0|)^order and a plain relative test would only
        # measure that amplification
        b_coeffs = tuple(data.draw(finite_coeff) for _ in range(a.order + 1))
        if abs(b_coeffs[0]) < 1e-6:
            b_coeffs = (1.0,) + b_coeffs[1:]
        b = Jet(a.anchor, b_coeffs)
        c = a / b
        back = c * b
        for k in range(a.order + 1):
            scale = max(
                abs(a.coeffs[k]),
                max(abs(c.coeffs[j] * b.coeffs[k - j]) for j in range(k + 1)),
                1.0,
            )
            assert abs(back.coeffs[k] - a.coeffs[k]) / scale < 1e-12


class TestGridAnchor:
    """A jet on an array anchor is the scalar jet at every point: within
    1e-13 relative where the scalar operation succeeds (numpy's exp and
    log against libm's), NaN in every coefficient where it raises."""

    XS = np.array([-2.0, -1e-310, 0.0, 1e-310, 0.3, 1.0, 2.5, 700.0, 709.5, 800.0])

    def _agree(self, build):
        batch = build(self.XS)
        assert batch.batched
        for i, x in enumerate(self.XS.tolist()):
            got = [c[i] for c in batch.coeffs]
            try:
                want = build(x).coeffs
            except TailkitError:
                assert all(math.isnan(g) for g in got), (x, got)
                continue
            np.testing.assert_allclose(np.array(got, dtype=float), want, rtol=1e-13, atol=0.0, err_msg=str(x))

    @pytest.mark.parametrize("fn", ["ln", "sqrt", "exp", "log1p"])
    def test_elementary(self, fn):
        self._agree(lambda x: jet_elementary(jet_var(x, 4) * 1.0 + 0.25 * jet_var(x, 4), fn))

    def test_pow(self):
        self._agree(lambda x: J.powj(jet_var(x, 3), 1.7))
        self._agree(lambda x: J.powj(jet_var(x, 0), 0.0))  # pow(NaN, 0) is 1 in libm

    def test_division_floor(self):
        self._agree(lambda x: jet_const(1.0, x, 3) / jet_var(x, 3))

    def test_non_finite_coefficient(self):
        # overflows from x ~ 586 on
        self._agree(lambda x: J.exp(jet_var(x, 2) * 0.001) * 1e308)

    def test_mixed_chain(self):
        def build(x):
            v = jet_var(x, 5)
            return J.ln(1.0 + v * v) / J.sqrt(v) - J.exp(-0.5 * v)

        self._agree(build)

    def test_check_masks_or_raises(self):
        xs = np.array([-1.0, 1.0])
        j = J.check(jet_var(xs, 1), xs < 0.0, lambda: DomainError("negative"))
        assert math.isnan(j.coeffs[0][0]) and math.isnan(j.coeffs[1][0])
        assert j.coeffs[0][1] == 1.0 and j.coeffs[1][1] == 1.0
        with pytest.raises(DomainError, match="negative"):
            J.check(jet_var(-1.0, 1), True, lambda: DomainError("negative"))

    def test_anchor_arrays_must_match(self):
        with pytest.raises(DomainError):
            jet_var(np.array([1.0, 2.0]), 1) + jet_var(np.array([1.0, 3.0]), 1)
        with pytest.raises(DomainError):
            jet_var(np.array([1.0, 2.0]), 1) + jet_var(1.0, 1)


class TestNumberOperand:
    """``+ - *`` with a number act on the coefficients directly, with the
    bits of the convolution with the constant jet (c, 0, ..., 0), and
    build no constant jet; division by a number still promotes it."""

    XS = np.array([0.5, 1.0, 2.0, 3.0, 4.0])
    JETS = [
        Jet(0.5, (-0.0, 0.0, -0.0, 1.25, -3.5e-300, 7.0)),
        Jet(-2.0, (1e308, -1e308, 0.5)),
        jet_var(3.0, 0),
        Jet(XS, (np.array([-0.0, 0.0, 1.0, math.nan, 1e308]),
                 np.array([-0.0, -0.0, 2.0, 1.0, -1e308]),
                 np.array([0.0, -0.0, -3.0, 1.0, 0.5]))),
        Jet(XS, (XS, np.full(5, -0.0))),
    ]
    NUMBERS = [0.0, -0.0, 2.5, -3.0, 1e308, 5e-324, 2, np.float64(-1.5), math.inf, -math.inf, math.nan]
    OPS = {
        "add": (lambda a, c: a + c, lambda a, c: c + a),
        "sub": (lambda a, c: a - c,),
        "rsub": (lambda a, c: c - a,),
        "mul": (lambda a, c: a * c, lambda a, c: c * a),
    }

    @staticmethod
    def _bits(build):
        try:
            j = build()
        except TailkitError as exc:
            return type(exc), str(exc)
        return [np.asarray(c, dtype=float).tobytes() for c in j.coeffs]

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("a", JETS, ids=["float-zeros", "float-huge", "float-order0", "grid-nan", "grid-zeros"])
    def test_equals_constant_jet(self, monkeypatch, a, op):
        def via_const(c):
            k = jet_const(c, a.anchor, a.order)
            return jet_arith(k, a, "sub") if op == "rsub" else jet_arith(a, k, op)

        want = [self._bits(lambda: via_const(c)) for c in self.NUMBERS]

        def no_const(*args):
            raise AssertionError("constant jet built")

        monkeypatch.setattr(J, "jet_const", no_const)
        for fn in self.OPS[op]:
            got = [self._bits(lambda: fn(a, c)) for c in self.NUMBERS]
            assert got == want

    def test_non_finite_number_raises_on_a_float_anchor(self):
        a = Jet(0.5, (1.0, 2.0))
        for build in (lambda: a + math.inf, lambda: math.nan - a, lambda: a * -math.inf):
            with pytest.raises(DomainError, match="non-finite jet coefficient"):
                build()

    def test_division_by_a_number_keeps_its_floor(self):
        a = Jet(0.5, (1.0, 2.0))
        with pytest.raises(DivisionByZeroJet):
            a / 1e-301
        g = Jet(self.XS, (self.XS, np.ones(5))) / 1e-301
        assert np.isnan(g.coeffs[0]).all()
        assert (a / 4.0).coeffs == jet_arith(a, jet_const(4.0, 0.5, 1), "div").coeffs


class TestGridLayout:
    """A grid jet holds its coefficients as one float (order+1, n) array.
    Each operation masks its own result (NaN in every coefficient at a
    point where one is not finite) and builds the result jet without the
    public constructor, which still copies and masks a caller's
    coefficients."""

    XS = np.array([0.5, 1.0, 2.0])

    def _jet(self, order=3):
        rows = [np.array([1.0, 2.0, 3.0])] + [np.array([0.5, -0.25, 1.5]) * k for k in range(1, order + 1)]
        return Jet(self.XS, tuple(rows))

    OPS = {
        "add": lambda a: a + a,
        "sub": lambda a: a - a,
        "mul": lambda a: a * a,
        "div": lambda a: a / a,
        "number-add": lambda a: a + 2.0,
        "number-sub": lambda a: a - 2.0,
        "number-rsub": lambda a: 2.0 - a,
        "number-mul": lambda a: 2.0 * a,
        "number-div": lambda a: a / 2.0,
        "neg": lambda a: -a,
        "check": lambda a: J.check(a, a.anchor > 1.5, lambda: DomainError("x")),
        "shift-derivative": jet_shift_derivative,
        "exp": J.exp,
        "ln": J.ln,
        "log1p": lambda a: jet_elementary(a, "log1p"),
        "sqrt": J.sqrt,
        "pow": lambda a: J.powj(a, 1.7),
        "truncate": lambda a: J.truncate(a, 1),
    }

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_one_float_array(self, op):
        a = self._jet()
        out = self.OPS[op](a)
        assert isinstance(out.coeffs, np.ndarray) and out.coeffs.dtype == np.float64
        assert out.coeffs.shape == (out.order + 1, self.XS.size)
        assert out.batched and out.anchor is a.anchor

    @pytest.mark.parametrize("op", sorted(set(OPS) - {"number-div"}))
    def test_op_results_skip_the_constructor(self, monkeypatch, op):
        a = self._jet()

        def built(self):
            raise AssertionError("grid op result re-validated")

        monkeypatch.setattr(Jet, "__post_init__", built)
        self.OPS[op](a)

    # at the last point the results' coefficient 0 is finite (9, 12 and 1)
    # and only a higher one overflows
    @pytest.mark.parametrize("build", [
        lambda a: a * a,  # 2 a0 a2 + a1^2
        lambda a: a * 4.0,
        jet_shift_derivative,  # 2 a2
    ], ids=["mul", "number-mul", "shift-derivative"])
    def test_higher_coefficient_overflow_masks_the_point(self, build):
        a = Jet(self.XS, (np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.0, 1.0]), np.array([0.25, 1.0, 1e308])))
        out = build(a)
        assert np.isnan(out.coeffs[:, 2]).all()
        for i, x in enumerate(self.XS.tolist()[:2]):
            point = build(Jet(x, tuple(float(c[i]) for c in a.coeffs)))
            assert out.coeffs[:, i].tolist() == list(point.coeffs)
        with pytest.raises(DomainError, match="non-finite"):
            build(Jet(3.0, tuple(float(c[2]) for c in a.coeffs)))

    def test_public_constructor_masks_and_copies(self):
        first = np.array([1.0, 2.0, 3.0])
        second = np.array([math.inf, 0.5, math.nan])
        j = Jet(self.XS, (first, second, 4.0))
        assert j.coeffs.shape == (3, 3)
        assert np.isnan(j.coeffs[:, 0]).all() and np.isnan(j.coeffs[:, 2]).all()
        assert j.coeffs[:, 1].tolist() == [2.0, 0.5, 4.0]
        assert first.tolist() == [1.0, 2.0, 3.0] and math.isinf(second[0])
        again = Jet(self.XS, j.coeffs)
        assert again.coeffs is not j.coeffs

    def test_masking_never_writes_into_an_input(self):
        a = self._jet()
        before = a.coeffs.copy()
        J.check(a, self.XS > 1.5, lambda: DomainError("x"))
        J.truncate(a, 1) * 1e308  # masks every point of a result made from a view
        -J.truncate(a, 2) + math.inf
        np.testing.assert_array_equal(a.coeffs, before)


def _div_loops(a, b):
    # the nested-loop recurrence of div, term by term
    n = len(a)
    out = [0.0] * n
    for k in range(n):
        s = a[k]
        for j in range(k):
            s = s - out[j] * b[k - j]
        out[k] = s / b[0]
    return np.array(out)


def _ln_loops(a, shift=0.0):
    # the nested-loop recurrence of ln(shift + a), term by term
    n = len(a)
    b0 = shift + a[0] if shift else a[0]
    out = [0.0] * n
    out[0] = np.log1p(a[0]) if shift else np.log(a[0])
    for k in range(1, n):
        s = k * a[k]
        for j in range(1, k):
            s = s - j * out[j] * a[k - j]
        out[k] = s / (k * b0)
    return np.array(out)


class TestRowKernels:
    """``div_rows`` and ``ln_rows`` update whole rows, one array operation
    per coefficient, and give the bits of the term-by-term recurrences."""

    @staticmethod
    def _rows(rng, order, n=48):
        # magnitudes 1e-5..1e5 of either sign, a zero leading coefficient
        # and a few NaN columns, as a masked grid jet holds them
        rows = rng.choice([-1.0, 1.0], (order + 1, n)) * 10.0 ** rng.uniform(-5.0, 5.0, (order + 1, n))
        rows[0, rng.integers(n)] = 0.0
        rows[:, rng.choice(n, 3, replace=False)] = math.nan
        return rows

    @staticmethod
    def _same(got, want):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", range(J.MAX_ORDER + 1))
    def test_bits_of_the_term_by_term_recurrences(self, order):
        rng = np.random.default_rng(1000 + order)
        with np.errstate(all="ignore"):
            for _ in range(30):
                a, b = self._rows(rng, order), self._rows(rng, order)
                before = a.copy(), b.copy()
                self._same(_k.div_rows(a, b), _div_loops(a, b))
                self._same(_k.div_rows(a, a), _div_loops(a, a))
                pos = np.abs(a)
                self._same(_k.ln_rows(pos), _ln_loops(pos))
                self._same(_k.ln_rows(a), _ln_loops(a))
                self._same(_k.ln_rows(a, 1.0), _ln_loops(a, 1.0))
                np.testing.assert_array_equal(a, before[0])  # inputs untouched
                np.testing.assert_array_equal(b, before[1])
