import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import unsimplified_differentiate, walk_evaluate
from ucp2d.fields import (
    FUNCTIONS,
    Bin,
    EvalDomainError,
    FieldError,
    FieldGroup,
    ParseError,
    ScalarField,
    differentiate,
    evaluate,
    parse,
)


def test_parse_zero_constant():
    f = parse("0")
    assert evaluate(f, 1.7, -2.3) == 0.0


def test_parse_exp_identity():
    f = parse("exp(x)")
    assert evaluate(f, 1.0, 0.0) == pytest.approx(math.e, rel=1e-15)


def test_parse_power_product():
    assert evaluate(parse("x*y^2"), 3.0, 2.0) == 12.0


def test_evaluate_examples():
    assert evaluate(parse("exp(x)+exp(y)"), 0.0, 0.0) == 2.0
    assert evaluate(parse("x*y"), 0.5, 0.5) == 0.25
    assert evaluate(parse("(2+4)/2"), 9.9, -1.0) == 3.0


def test_evaluate_deterministic_bits():
    f = parse("sin(x)*exp(y) - x/(y+2)")
    a = evaluate(f, 0.3141, 2.718)
    b = evaluate(f, 0.3141, 2.718)
    assert a == b


def test_precedence_and_unary_minus():
    assert evaluate(parse("-x^2"), 3.0, 0.0) == -9.0
    assert evaluate(parse("2^-2"), 0.0, 0.0) == 0.25
    assert evaluate(parse("2^3^2"), 0.0, 0.0) == 512.0  # right associative
    assert evaluate(parse("1 - 2 - 3"), 0.0, 0.0) == -4.0
    assert evaluate(parse("6/3/2"), 0.0, 0.0) == 1.0
    assert evaluate(parse("pi"), 0.0, 0.0) == math.pi


def test_derivative_examples():
    assert evaluate(differentiate(parse("x*y^2"), "x"), 3.0, 2.0) == 4.0
    assert evaluate(differentiate(parse("exp(y)"), "y"), 0.7, 0.0) == 1.0
    assert evaluate(differentiate(parse("exp(-x)"), "x"), 0.0, 0.4) == -1.0


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        parse("x + * y")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse("x + zz")
    assert err.value.offset == 4
    with pytest.raises(ParseError):
        parse("exp(x, y)")  # arity
    with pytest.raises(ParseError):
        parse("(x + y")
    with pytest.raises(ParseError):
        parse("")


@pytest.mark.parametrize("text, message, offset", [
    ("x $ y", "unexpected character '$'", 2),
    ("  x+\t@", "unexpected character '@'", 5),
    ("x y $", "unexpected character '$'", 4),  # the scan fails before the parse
    ("(x + y", "expected ')'", 6),
    ("sin(x", "expected ')'", 5),
    ("exp x", "expected '('", 4),
    ("x y", "unexpected token 'y'", 2),
    ("1.5.5", "unexpected token '.5'", 3),
    ("exp()", "unexpected token ')'", 4),
    ("x + zz", "unknown identifier 'zz'", 4),
    ("exp(x, y)", "exp takes 1 argument, got 2", 0),
    (" 2*sqrt(x,y,1)", "sqrt takes 1 argument, got 3", 3),
    ("1e400*x", "number literal 1e400 is not finite", 0),
    ("x + 2.5E+999", "number literal 2.5E+999 is not finite", 4),
    ("x +", "unexpected end of input", 3),
    ("(", "unexpected end of input", 1),
    ("", "empty expression", 0),
    (" \t\n", "empty expression", 0),
    (3, "expression must be a string", 0),
    (None, "expression must be a string", 0),
])
def test_parse_error_messages_and_offsets(text, message, offset):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"{message} (at offset {offset})"
    assert err.value.offset == offset


@pytest.mark.parametrize("build, limit, offset", [
    (lambda k: "(" * k + "x" + ")" * k, 100, 101),
    (lambda k: "exp(" * k + "x" + ")" * k, 100, 404),
    (lambda k: "-" * k + "x", 100, 101),
    (lambda k: "x" + "^x" * k, 100, 202),
    (lambda k: "+".join(["x"] * (k + 1)), 100, 201),
    (lambda k: "/".join(["x"] * (k + 1)), 100, 201),
    # a chain's first operand and a power's base: two levels per group
    (lambda k: "(" * k + "x" + "+x)" * k, 50, 199),
    (lambda k: "(" * k + "x" + ")^x" * k, 50, 1),
], ids=["parentheses", "calls", "minuses", "powers", "sum", "quotient", "first-operands",
        "power-bases"])
def test_nesting_past_the_bound_is_a_parse_error(build, limit, offset):
    assert parse(build(limit)).source == build(limit)
    with pytest.raises(ParseError) as err:
        parse(build(limit + 1))
    assert str(err.value) == f"expression nests deeper than 100 levels (at offset {offset})"


_pieces = st.sampled_from([
    "x", "y", "pi", "exp", "log", "sin", "cos", "sqrt", "zz", "0", "1", "7", ".", "e", "E",
    "1e400", "+", "-", "*", "/", "^", "(", ")", ",", " ", "\t", "\u00a0", "\u0663",
    "$", "@", "\u00e9",
])


@given(st.lists(_pieces, max_size=12).map("".join))
@settings(max_examples=500, deadline=None)
def test_parse_returns_a_field_or_raises_parse_error(text):
    try:
        f = parse(text)
    except ParseError as err:
        assert 0 <= err.offset <= len(text)
        return
    assert isinstance(f, ScalarField) and f.source == text


def test_domain_errors_are_raised_not_nan():
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/x"), 0.0, 1.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("log(x)"), -1.0, 0.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("sqrt(x)"), -0.5, 0.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("x^0.5"), -2.0, 0.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("exp(x)"), 1e6, 0.0)  # overflow -> inf


def test_parse_time_fold_keeps_domain_errors_lazy():
    f = parse("1/0 + x")  # must not raise at parse time
    with pytest.raises(EvalDomainError):
        evaluate(f, 1.0, 1.0)


def test_field_arithmetic_and_constant():
    f = parse("x") * parse("y") + 2.0
    assert evaluate(f, 3.0, 4.0) == 14.0
    g = ScalarField.constant(5.0) / parse("x")
    assert evaluate(g, 2.0, 0.0) == 2.5
    assert (-parse("x"))(2.0, 0.0) == -2.0


def test_vectorised_evaluation_matches_scalar():
    f = parse("exp(x)*cos(y) + x/(2+y)")
    xs = np.linspace(-1, 1, 7)
    ys = np.linspace(-0.5, 0.5, 7)
    grid = evaluate(f, xs[:, None], ys[None, :])
    for i, xv in enumerate(xs):
        for j, yv in enumerate(ys):
            assert grid[i, j] == evaluate(f, float(xv), float(yv))


# -- random well-formed expressions ------------------------------------

_leaf = st.sampled_from(["x", "y", "pi", "1", "2", "0.5", "3.25"])


def _expr_strategy(depth=3):
    if depth == 0:
        return _leaf
    sub = _expr_strategy(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(sub, st.sampled_from(["+", "-", "*"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(sub).map(lambda t: f"(-{t[0]})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), sub).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
        st.tuples(sub, st.sampled_from(["2", "3"])).map(lambda t: f"({t[0]})^{t[1]}"),
    )


@given(_expr_strategy())
@settings(max_examples=200, deadline=None)
def test_parser_totality_on_generated_expressions(text):
    f = parse(text)
    # evaluation must produce a finite value or a reported domain error
    # (nested exp can overflow), never a silent NaN/Inf
    try:
        v = evaluate(f, 0.37, -0.21)
    except EvalDomainError:
        return
    assert math.isfinite(v)


@given(_expr_strategy(), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
@settings(max_examples=200, deadline=None)
def test_mixed_partials_commute(text, x, y):
    f = parse(text)
    fxy = differentiate(differentiate(f, "x"), "y")
    fyx = differentiate(differentiate(f, "y"), "x")
    try:
        a = evaluate(fxy, x, y)
        b = evaluate(fyx, x, y)
    except EvalDomainError:
        return
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


@given(st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=100, deadline=None)
def test_derivative_linearity(alpha, beta):
    f = parse("sin(x)*y + x^3")
    g = parse("exp(x - y) + y^2")
    combo = alpha * f + beta * g
    rng = np.random.default_rng(42)
    pts = rng.uniform(-1.0, 1.0, size=(100, 2))
    for var in ("x", "y"):
        d_combo = differentiate(combo, var)
        df, dg = differentiate(f, var), differentiate(g, var)
        for px, py in pts[:10]:
            lhs = evaluate(d_combo, px, py)
            rhs = alpha * evaluate(df, px, py) + beta * evaluate(dg, px, py)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_derivative_matches_central_difference():
    exprs = ["exp(x)*sin(y)", "x^3 - 2*x*y^2", "1/(2 + x + y)", "sqrt(2 + x)", "log(2 + y)"]
    rng = np.random.default_rng(7)
    h = 1e-6
    for text in exprs:
        f = parse(text)
        for var in ("x", "y"):
            df = differentiate(f, var)
            for _ in range(20):
                x, y = rng.uniform(-0.9, 0.9, size=2)
                if var == "x":
                    fd = (evaluate(f, x + h, y) - evaluate(f, x - h, y)) / (2 * h)
                else:
                    fd = (evaluate(f, x, y + h) - evaluate(f, x, y - h)) / (2 * h)
                exact = evaluate(df, x, y)
                assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_source_round_trip():
    f = parse("exp(x)*y - 3/(y + 2)")
    g = parse(differentiate(f, "y").source)
    for x, y in [(0.1, 0.2), (-0.5, 1.3)]:
        assert evaluate(g, x, y) == pytest.approx(
            evaluate(differentiate(f, "y"), x, y), rel=1e-15
        )


# -- compiled evaluation against the tree walker --------------------------

_oracle_leaf = st.sampled_from(["x", "y", "0", "(-0)", "1", "2", "0.5", "(-1.5)", "pi"])


def _oracle_expr(depth=3):
    if depth == 0:
        return _oracle_leaf
    sub = _oracle_expr(depth - 1)
    return st.one_of(
        _oracle_leaf,
        st.tuples(sub, st.sampled_from(["+", "-", "*", "/", "^"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(sub).map(lambda t: f"(-{t[0]})"),
        st.tuples(st.sampled_from(FUNCTIONS), sub).map(lambda t: f"{t[0]}({t[1]})"),
        # equal subtrees from the text; the test also reuses node objects
        sub.map(lambda t: f"({t} * {t} - sin({t}))"),
    )


def _same_outcome(field, x, y):
    def outcome(fn):
        try:
            value = np.asarray(fn(field, x, y))
        except EvalDomainError as err:
            return "error", str(err)
        return value.dtype, value.shape, value.tobytes()

    assert outcome(evaluate) == outcome(walk_evaluate)


_points = st.sampled_from([0.0, -0.0, 0.37, -0.21, 1.0, -2.5])


@given(_oracle_expr(), _points, _points)
@settings(max_examples=300, deadline=None)
def test_compiled_evaluation_matches_tree_walk(text, x, y):
    f = parse(text)
    shared = f * f + f / (f - 1.0)
    cases = [f, shared, ScalarField.constant(-0.0) * f, -f + 0.0]
    cases += [differentiate(g, var) for g in (f, shared) for var in ("x", "y")]
    xs = np.array([x, 0.0, -0.0, 0.75])
    ys = np.array([[y], [-1.25]])
    for g in cases:
        _same_outcome(g, x, y)
        _same_outcome(g, xs, ys)


@given(_oracle_expr(), _oracle_expr(), _points)
@settings(max_examples=200, deadline=None)
def test_field_group_matches_evaluating_each_field_in_turn(text, other, y):
    f, g = parse(text), parse(other)
    # shared subtrees across the group; the later fields may fail where
    # the earlier ones do not, and the other way round
    fields = [f, differentiate(f, "y"), f * g, g / f]
    xs = np.array([0.37, 0.0, -0.0, 1.0])
    ys = np.array([y, -1.25, y, 0.5])

    def outcome(values):
        try:
            got = values()
        except EvalDomainError as err:
            return "error", str(err)
        return [np.broadcast_to(v, xs.shape).tobytes() for v in got]

    assert outcome(lambda: FieldGroup(*fields)(xs, ys)) == outcome(
        lambda: [evaluate(h, xs, ys) for h in fields])


def test_field_group_checks_each_field_before_running_the_next():
    # evaluated one after the other, the overflow of the first field is
    # reported before the second reaches its log of a negative argument
    group = FieldGroup(parse("exp(1000*x)"), parse("log(x - 5) + exp(1000*x)"))
    with pytest.raises(EvalDomainError, match=r"^non-finite value in 'exp\(1000\*x\)'$"):
        group(np.array([1.0, 0.0]), np.zeros(2))
    first, second = FieldGroup(parse("x*x"), parse("log(6 - x) + x*x"))(np.array([1.0]), 0.0)
    assert first.tolist() == [1.0] and second.tolist() == [math.log(5.0) + 1.0]


def test_compiled_program_shares_subtrees_and_keeps_signed_zeros():
    f = parse("sin(x + 1) * sin(x + 1) + sin(x + 1)")
    _, (steps,), _ = f._program()
    assert len(steps) == 4  # x + 1, sin, *, +
    g = parse("(-0) * x + 0 * x")
    slots, (steps,), (root,) = g._program()
    assert len(steps) == 3 and sum(v == 0.0 for v in slots[2:]) == 2
    # each product is released by the sum, its last reader
    assert steps[-1][3] == root and sorted(steps[-1][4]) == [steps[0][3], steps[1][3]]
    assert evaluate(g, -1.0, 0.0) == 0.0


def test_non_finite_literals_rejected_or_left_unfolded():
    with pytest.raises(ParseError) as err:
        parse("1e400*x + 1")
    assert err.value.offset == 0 and "not finite" in str(err.value)
    with pytest.raises(FieldError):
        ScalarField.constant(float("inf"))
    f = parse("1 + 0*10^400")  # the fold overflows: left for evaluation
    assert isinstance(f.ast, Bin)
    with pytest.raises(EvalDomainError, match="non-finite value"):
        evaluate(f, 0.0, 0.0)


# -- derivative trees without structurally zero terms ---------------------


@given(_oracle_expr(), _points, _points)
@settings(max_examples=300, deadline=None)
def test_folded_derivatives_equal_the_unsimplified_ones_wherever_those_evaluate(text, x, y):
    # first and second partials in every order; a signed zero may differ
    # (the dropped term is a +-0), so values compare with ==
    f = parse(text)
    pairs = []
    for var in ("x", "y"):
        new, ref = differentiate(f, var), unsimplified_differentiate(f, var)
        pairs.append((new, ref))
        pairs += [(differentiate(new, v2), unsimplified_differentiate(ref, v2)) for v2 in ("x", "y")]
    xs = np.array([x, 0.0, -0.0, 0.75])
    ys = np.array([[y], [-1.25]])
    for new, ref in pairs:
        for px, py in ((x, y), (xs, ys)):
            try:
                want = evaluate(ref, px, py)
            except EvalDomainError:
                continue
            got = evaluate(new, px, py)
            assert np.shape(got) == np.shape(want) and np.all(got == want)


def test_structurally_zero_derivative_is_the_literal_zero():
    assert parse("x*sin(x)").diff("y").is_zero()
    assert parse("-cos(x) + 3*x^2 / exp(x)").diff("y").diff("x").is_zero()
    # one factor's derivative is 0: d(u v) = u dv, and 0 - dv is -dv
    assert parse("sin(x) * y").diff("y").source == "(sin(x) * 1)"
    assert parse("2 - x*x").diff("x").source == "(-((1 * x) + (x * 1)))"


def test_folded_derivative_evaluates_where_the_unsimplified_one_divided_by_zero():
    f = parse("x + sqrt(0*y)")
    with pytest.raises(EvalDomainError, match="division by zero"):
        evaluate(unsimplified_differentiate(f, "x"), 0.5, 0.25)
    assert evaluate(differentiate(f, "x"), 0.5, 0.25) == 1.0


def test_negative_zero_literal_keeps_its_sign_in_the_source():
    f = ScalarField.constant(-0.0) * parse("x")
    assert f.source == "((-0) * x)"
    assert math.copysign(1.0, evaluate(parse(f.source), 1.0, 0.0)) == -1.0
    # a folded literal is a numpy scalar; its text is that of the float
    g = parse("2^0.5 * x").diff("x")
    assert g.source == "1.4142135623730951"


@given(_oracle_expr(), _points, _points)
@settings(max_examples=300, deadline=None)
def test_source_re_parses_to_a_field_with_the_same_bits(text, x, y):
    f = parse(text)
    fields = [f, ScalarField.constant(-0.0) * f, -f + 0.0]
    fields += [differentiate(g, var) for g in fields[:2] for var in ("x", "y")]
    fields += [differentiate(differentiate(f, "x"), var) for var in ("x", "y")]

    def outcome(g):
        try:
            value = np.asarray(evaluate(g, x, y))
        except EvalDomainError as err:
            return "error", str(err)
        return value.dtype, value.tobytes()

    for g in fields:
        assert outcome(parse(g.source)) == outcome(g)
