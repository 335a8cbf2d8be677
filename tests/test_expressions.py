import math
import sys
import tracemalloc

import numpy as np
import pytest

from spectralab.errors import EvaluationError, ParameterError
from spectralab.expressions import compile_expression


def test_polynomial_matches_numpy():
    fn = compile_expression("3*x^2 - 2*x + 1", 1)
    xs = np.linspace(-2, 2, 17)[:, None]
    assert np.allclose(fn(xs), 3 * xs[:, 0] ** 2 - 2 * xs[:, 0] + 1)


def test_two_coordinates_and_functions():
    fn = compile_expression("sin(x)*cosh(y) + sqrt(x + 2)", 2)
    pts = np.array([[0.3, -0.2], [1.0, 0.5]])
    expected = np.sin(pts[:, 0]) * np.cosh(pts[:, 1]) + np.sqrt(pts[:, 0] + 2)
    assert np.allclose(fn(pts), expected)


def test_power_is_right_associative():
    fn = compile_expression("2^3^2", 1)
    assert fn([[0.0]])[0] == 512.0


def test_unary_minus_and_constants():
    fn = compile_expression("-x + pi/2", 1)
    assert fn([[1.0]])[0] == pytest.approx(math.pi / 2 - 1.0)


def test_aliases_u_v():
    fn = compile_expression("u*v", 2)
    assert fn([[3.0, 4.0]])[0] == 12.0


def test_unknown_name_rejected():
    with pytest.raises(ParameterError):
        compile_expression("x + bogus", 1)


def test_second_coordinate_unavailable_in_1d():
    with pytest.raises(ParameterError):
        compile_expression("y", 1)


def test_malformed_expression_rejected():
    with pytest.raises(ParameterError):
        compile_expression("x + * 2", 1)


def test_non_finite_values_raise():
    fn = compile_expression("log(x)", 1)
    with pytest.raises(EvaluationError):
        fn([[-1.0]])


def test_division_and_precedence():
    fn = compile_expression("1 + 4/2*3", 1)
    assert fn([[0.0]])[0] == 7.0


@pytest.mark.parametrize("text", [
    "(" * 1000 + "x" + ")" * 1000,
    "-" * 5000 + "x",
    "2^" * 3000 + "x",
], ids=["parentheses", "unary_minus", "power"])
def test_deep_nesting_rejected(text):
    with pytest.raises(ParameterError):
        compile_expression(text, 1)


def test_deep_nesting_evaluation_raises_module_error():
    fn = compile_expression("-" * 400 + "x", 1)

    def nested(depth):
        return nested(depth - 1) if depth else fn([[1.0]])

    # evaluating from deep inside a call stack exhausts the recursion limit
    with pytest.raises(EvaluationError):
        nested(sys.getrecursionlimit() - 300)


# forward-mode derivatives against hand-written gradients and Hessians, at
# points with x, y > 0 so that log, sqrt and x^y are smooth
PTS = np.array([[0.3, 0.7], [0.8, 0.45], [1.4, 0.2], [2.5, 1.3]])

# each function of u = x*y: its value, first and second derivative
FUNCTION_FORMS = {
    "sin": (np.sin, np.cos, lambda u: -np.sin(u)),
    "cos": (np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u)),
    "cosh": (np.cosh, np.sinh, np.cosh),
    "sinh": (np.sinh, np.cosh, np.sinh),
    "exp": (np.exp, np.exp, np.exp),
    "log": (np.log, lambda u: 1 / u, lambda u: -1 / u ** 2),
    "sqrt": (np.sqrt, lambda u: 0.5 / np.sqrt(u), lambda u: -0.25 * u ** -1.5),
}

# each operator in an expression: its gradient and Hessian in (x, y)
OPERATOR_FORMS = {
    "x*y + sin(x)": (lambda x, y: [y + np.cos(x), x],
                     lambda x, y: [[-np.sin(x), 1 + 0 * x], [1 + 0 * x, 0 * x]]),
    "x^2 - y^3": (lambda x, y: [2 * x, -3 * y ** 2],
                  lambda x, y: [[2 + 0 * x, 0 * x], [0 * x, -6 * y]]),
    "x*y*y": (lambda x, y: [y ** 2, 2 * x * y], lambda x, y: [[0 * x, 2 * y], [2 * y, 2 * x]]),
    "x/y": (lambda x, y: [1 / y, -x / y ** 2],
            lambda x, y: [[0 * x, -1 / y ** 2], [-1 / y ** 2, 2 * x / y ** 3]]),
    "x^y": (lambda x, y: [y * x ** (y - 1), x ** y * np.log(x)],
            lambda x, y: [[y * (y - 1) * x ** (y - 2), x ** (y - 1) * (1 + y * np.log(x))],
                          [x ** (y - 1) * (1 + y * np.log(x)), x ** y * np.log(x) ** 2]]),
    "-x*y": (lambda x, y: [-y, -x], lambda x, y: [[0 * x, -1 + 0 * x], [-1 + 0 * x, 0 * x]]),
}


def _assert_close(got, expected):
    assert np.allclose(got, expected, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("name", sorted(FUNCTION_FORMS))
def test_function_derivatives_match_hand_written_forms(name):
    value, first, second = FUNCTION_FORMS[name]
    x, y = PTS.T
    u = x * y
    got = compile_expression(f"{name}(x*y)", 2).derivatives(PTS, 2)
    _assert_close(got[0], value(u))
    _assert_close(got[1], first(u)[:, None] * np.stack([y, x], axis=-1))
    # f'' grad u grad u^T + f' hess u, with hess u = [[0, 1], [1, 0]]
    outer = np.stack([np.stack([y * y, x * y], axis=-1), np.stack([x * y, x * x], axis=-1)], axis=1)
    _assert_close(got[2], second(u)[:, None, None] * outer
                  + first(u)[:, None, None] * np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("text", sorted(OPERATOR_FORMS))
def test_operator_derivatives_match_hand_written_forms(text):
    gradient, hessian = OPERATOR_FORMS[text]
    x, y = PTS.T
    value, grad, hess = compile_expression(text, 2).derivatives(PTS, 2)
    assert np.array_equal(value, compile_expression(text, 2)(PTS))
    _assert_close(grad, np.stack(gradient(x, y), axis=-1))
    _assert_close(hess, np.stack([np.stack(row, axis=-1) for row in hessian(x, y)], axis=1))


def test_constant_exponent_takes_the_power_rule_at_negative_base():
    xs = np.array([[-2.0], [-0.5], [0.0], [1.5]])
    x = xs[:, 0]
    for text, first, second in (("x^2", 2 * x, 2 + 0 * x), ("x^(1+1)", 2 * x, 2 + 0 * x),
                                ("x^3", 3 * x ** 2, 6 * x)):
        value, grad, hess = compile_expression(text, 1).derivatives(xs, 2)
        assert np.array_equal(grad[:, 0], first) and np.array_equal(hess[:, 0, 0], second), text


def test_values_only_build_no_derivatives():
    assert len(compile_expression("sin(x)*y", 2).derivatives(PTS, 0)) == 1
    points = np.random.default_rng(5).uniform(0.1, 1.0, (100_000, 2))
    fn = compile_expression("x*y + x", 2)
    tracemalloc.start()
    try:
        fn(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * len(points) + 4096  # two (N,) values at once, no gradient
    # a constant expression has zero derivatives
    value, grad, hess = compile_expression("sqrt(2)*pi", 2).derivatives(PTS, 2)
    assert np.all(value == math.sqrt(2) * math.pi)
    assert not grad.any() and not hess.any() and hess.shape == (len(PTS), 2, 2)


def test_non_finite_derivatives_raise():
    fn = compile_expression("sqrt(x)", 1)
    assert fn([[0.0]])[0] == 0.0  # the value exists, the derivative does not
    with pytest.raises(EvaluationError, match=r"'sqrt\(x\)' produced non-finite first derivatives"):
        fn.derivatives([[0.0], [1.0]], 1)
