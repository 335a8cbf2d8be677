import math
import sys

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
