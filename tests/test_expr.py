"""Expression layer: parsing, printing, evaluation, exact differentiation."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acmsolitons.expr import (
    Add,
    Call,
    Const,
    Coord,
    Div,
    EvalError,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    add,
    call,
    coordinates_of,
    diff,
    div,
    evaluate,
    mul,
    neg,
    parse_expr,
    pow_,
    render,
    sub,
)

COORDS = ("x", "y", "z")


def ev(text, **point):
    return evaluate(parse_expr(text, coords=COORDS), point)


class TestParse:
    def test_precedence(self):
        assert ev("2+3*4") == 14.0
        assert ev("2*3^2") == 18.0
        assert ev("-2^2") == -4.0
        assert ev("(2+3)*4") == 20.0

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_unary_chain(self):
        assert ev("--3") == 3.0
        assert ev("2--3") == 5.0

    def test_functions_and_constants(self):
        assert ev("exp(0)") == 1.0
        assert ev("sin(pi)") == pytest.approx(0.0, abs=1e-15)
        assert ev("log(e)") == pytest.approx(1.0)
        assert ev("sqrt(4)") == 2.0

    def test_coordinates(self):
        assert ev("x + 2*y - z", x=1.0, y=2.0, z=3.0) == 2.0

    def test_unknown_coordinate_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("x + w", coords=COORDS)
        assert "w" in str(exc.value)
        assert exc.value.offset == 4

    def test_error_offsets(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("2 + * 3", coords=COORDS)
        assert exc.value.offset == 4
        with pytest.raises(ParseError) as exc:
            parse_expr("(1 + 2", coords=COORDS)
        assert exc.value.offset == 6

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("1 + 2 )", coords=COORDS)

    def test_bad_function_arity(self):
        with pytest.raises(ParseError):
            parse_expr("exp(1, 2)", coords=COORDS)

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse_expr("frob(1)", coords=COORDS)


class TestEvaluate:
    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            ev("1/x", x=0.0)

    def test_log_domain(self):
        with pytest.raises(EvalError):
            ev("log(x)", x=-1.0)

    def test_sqrt_domain(self):
        with pytest.raises(EvalError):
            ev("sqrt(x)", x=-1.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalError):
            ev("x^0.5", x=-1.0)

    def test_missing_coordinate(self):
        with pytest.raises(EvalError):
            evaluate(parse_expr("x + y", coords=COORDS), {"x": 1.0})

    def test_integer_power_of_negative(self):
        assert ev("x^3", x=-2.0) == -8.0

    # every refusal of a function call and a power, at one point and as
    # the first offending sample of a batch: a finite result skips the
    # checks, so each case here has a non-finite result or operand, and
    # the checks of a node run in order, whichever sample comes first
    @pytest.mark.parametrize("text, x, message", [
        ("log(x)", 0.0, "log of a non-positive value"),
        ("log(x)", -1.0, "log of a non-positive value"),
        ("sqrt(x)", -1.0, "sqrt of a negative value"),
        ("exp(x)", 1000.0, "exp failed (math range error)"),
        ("cosh(x)", 1000.0, "cosh failed (math range error)"),
        ("sin(x)", float("inf"), "sin failed (math domain error)"),
        ("tan(x)", float("-inf"), "tan failed (math domain error)"),
        ("x^(-1)", 0.0, "zero base with negative exponent"),
        ("x^0.5", -1.0, "negative base with non-integer exponent"),
        ("(-0.5)^x", float("inf"), "negative base with non-integer exponent"),
        ("x^(1/3)", -8.0, "negative base with non-integer exponent"),
        ("10^x", 400.0, "power failed (math range error)"),
        ("x^3", 1e200, "power failed (math range error)"),
    ])
    def test_refusals(self, text, x, message):
        e = parse_expr(text, coords=COORDS)
        with pytest.raises(EvalError) as one:
            evaluate(e, {"x": x})
        assert str(one.value).startswith(message + " in '")
        batch = {"x": np.array([1.0, 2.0, x, x])}
        with pytest.raises(EvalError) as info:
            evaluate(e, batch)
        assert str(info.value) == str(one.value)
        assert str(one.value).endswith(f"' at sample {{'x': {x!r}}}")

    @pytest.mark.parametrize("text, x", [
        ("log(x)", float("nan")), ("sqrt(x)", float("nan")),
        ("cosh(x)", float("inf")), ("exp(x)", float("-inf")),
        ("x^2", float("inf")), ("x^x", float("nan")), ("sqrt(x)", -0.0),
        ("(-0.5)^x", 2.0), ("x^(-2)", float("inf")),
    ])
    def test_passes_what_no_refusal_names(self, text, x):
        # NaN and infinite operands that no check names pass through
        e = parse_expr(text, coords=COORDS)
        batch = {"x": np.array([x, 2.0])}
        got = evaluate(e, batch)
        assert np.array_equal(got[:1], [evaluate(e, {"x": x})], equal_nan=True)

    def test_checks_run_in_order_over_the_batch(self):
        # the zero-base check is made over every sample before the
        # negative-base one, so it is named though its sample comes later
        e = parse_expr("x^y", coords=COORDS)
        batch = {"x": np.array([1.0, -2.0, 0.0]), "y": np.array([1.0, 0.5, -1.0])}
        with pytest.raises(EvalError, match="^zero base with negative "
                           r"exponent in 'x\^y' at sample \{'x': 0.0"):
            evaluate(e, batch)


class TestDiff:
    def test_polynomial(self):
        e = parse_expr("x^3 + 2*x", coords=COORDS)
        d = diff(e, "x")
        assert evaluate(d, {"x": 2.0}) == pytest.approx(14.0)

    def test_chain_rule(self):
        e = parse_expr("exp(2*z)", coords=COORDS)
        d = diff(e, "z")
        assert evaluate(d, {"z": 0.5}) == pytest.approx(2.0 * math.e)

    def test_quotient(self):
        e = parse_expr("x / (1 + x^2)", coords=COORDS)
        d = diff(e, "x")
        # (1 - x^2)/(1 + x^2)^2
        assert evaluate(d, {"x": 2.0}) == pytest.approx(-3.0 / 25.0)

    def test_mixed_partials_commute(self):
        e = parse_expr("exp(x*y) * sin(y*z) + x^2*z^3", coords=COORDS)
        d_xy = diff(diff(e, "x"), "y")
        d_yx = diff(diff(e, "y"), "x")
        pt = {"x": 0.7, "y": -0.4, "z": 1.3}
        assert evaluate(d_xy, pt) == pytest.approx(evaluate(d_yx, pt), abs=1e-12)

    def test_unused_coordinate(self):
        e = parse_expr("exp(2*z)", coords=COORDS)
        assert evaluate(diff(e, "x"), {"z": 1.0}) == 0.0


# strategy for random expression trees over (x, y, z)
def _exprs(depth):
    leaf = st.one_of(
        st.floats(
            min_value=-4.0, max_value=4.0,
            allow_nan=False, allow_infinity=False,
        ).map(lambda v: Const(round(v, 3))),
        st.sampled_from([Coord("x"), Coord("y"), Coord("z")]),
    )
    if depth == 0:
        return leaf
    sub_s = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub_s, sub_s).map(lambda t: Add(*t)),
        st.tuples(sub_s, sub_s).map(lambda t: Sub(*t)),
        st.tuples(sub_s, sub_s).map(lambda t: Mul(*t)),
        sub_s.map(Neg),
        sub_s.map(lambda e: Call("sin", e)),
        sub_s.map(lambda e: Call("exp", e)),
        st.tuples(sub_s, st.integers(1, 3)).map(
            lambda t: Pow(t[0], Const(float(t[1])))
        ),
    )


POINT = {"x": 0.37, "y": -0.81, "z": 1.29}


@settings(max_examples=300, deadline=None)
@given(_exprs(3))
def test_render_parse_round_trip(e):
    text = render(e)
    back = parse_expr(text, coords=COORDS)
    try:
        expected = evaluate(e, POINT)
    except EvalError:
        return
    if abs(expected) > 1e12:
        return
    assert evaluate(back, POINT) == pytest.approx(expected, rel=1e-12, abs=1e-12)


_MP_BINARY = {Add: lambda u, v: u + v, Sub: lambda u, v: u - v,
              Mul: lambda u, v: u * v, Div: lambda u, v: u / v}


def _mp_evaluate(e, point):
    """Evaluate an expression tree in mpmath at 50 significant digits."""
    with mpmath.workdps(50):
        if isinstance(e, Const):
            return mpmath.mpf(e.value)
        if isinstance(e, Coord):
            return mpmath.mpf(point[e.name])
        if isinstance(e, Neg):
            return -_mp_evaluate(e.arg, point)
        if isinstance(e, Call):
            return getattr(mpmath, e.func)(_mp_evaluate(e.arg, point))
        if isinstance(e, Pow):
            return _mp_evaluate(e.base, point) ** _mp_evaluate(e.exponent, point)
        op = _MP_BINARY[type(e)]
        return op(_mp_evaluate(e.left, point), _mp_evaluate(e.right, point))


@settings(max_examples=200, deadline=None)
@given(_exprs(3), st.sampled_from(COORDS))
def test_diff_matches_central_difference(e, name):
    d = diff(e, name)
    h = 1e-6
    lo = dict(POINT)
    hi = dict(POINT)
    lo[name] -= h
    hi[name] += h
    try:
        exact = evaluate(d, POINT)
        evaluate(e, hi)
        evaluate(e, lo)
    except EvalError:
        return
    # the difference quotient is taken in 50-digit arithmetic: in doubles,
    # f(x+h) - f(x-h) loses about eps*|f|/h, which for x + exp(exp(3)) is 0.1
    with mpmath.workdps(50):
        step = mpmath.mpf(hi[name]) - mpmath.mpf(lo[name])
        fd = float((_mp_evaluate(e, hi) - _mp_evaluate(e, lo)) / step)
    # skip badly conditioned samples; the fixed-seed sweep below is strict
    if abs(exact) > 1e6 or abs(fd) > 1e6:
        return
    assert fd == pytest.approx(exact, rel=2e-5, abs=2e-5)


def test_diff_fd_sweep_thousand_pairs(rng):
    """Exact derivatives against central differences on 1000 smooth samples."""
    pool = [
        "exp(x*y)", "sin(x + 2*y)", "cos(z)*sinh(x)", "x^3 - 2*x*y + z^2",
        "1/(2 + x^2 + y^2)", "sqrt(4 + x^2)", "log(3 + z^2)",
        "tanh(x*z)", "exp(z)*sin(x*y)", "x*y*z",
    ]
    exprs = [parse_expr(t, coords=COORDS) for t in pool]
    h = 1e-5
    checked = 0
    worst = 0.0
    while checked < 1000:
        e = exprs[checked % len(exprs)]
        name = COORDS[checked % 3]
        pt = {
            "x": float(rng.uniform(-1.5, 1.5)),
            "y": float(rng.uniform(-1.5, 1.5)),
            "z": float(rng.uniform(-1.5, 1.5)),
        }
        lo = dict(pt)
        hi = dict(pt)
        lo[name] -= h
        hi[name] += h
        exact = evaluate(diff(e, name), pt)
        fd = (evaluate(e, hi) - evaluate(e, lo)) / (2.0 * h)
        rel = abs(fd - exact) / max(1.0, abs(exact), abs(fd))
        worst = max(worst, rel)
        checked += 1
    assert worst <= 1e-6


class TestConstructors:
    def test_folding(self):
        x = Coord("x")
        assert mul(Const(1.0), x) is x
        assert mul(Const(0.0), x) == Const(0.0)
        assert add(x, Const(0.0)) is x
        assert sub(x, Const(0.0)) is x
        assert div(x, Const(1.0)) is x
        assert pow_(x, Const(1.0)) is x
        assert neg(Const(2.0)) == Const(-2.0)

    def test_constant_folding(self):
        assert add(Const(2.0), Const(3.0)) == Const(5.0)
        assert mul(Const(2.0), Const(3.0)) == Const(6.0)

    def test_call_rejects_unknown_function(self):
        with pytest.raises(ValueError):
            call("frob", Const(0.0))

    def test_coordinates_of(self):
        e = parse_expr("exp(2*z) + x*a", coords=("x", "z", "a"))
        assert coordinates_of(e) == {"x", "z", "a"}
        assert coordinates_of(Const(3.0)) == set()
