"""Tiny arithmetic-expression compiler for user-defined scalar fields.

Accepted grammar: numbers, chart coordinates, ``+ - * / ^``, parentheses and
the functions sin, cos, cosh, sinh, exp, log, sqrt.  Coordinate names are
``x`` (first chart coordinate) and ``y`` (second); ``u``/``v`` and
``x1``/``x2`` are accepted as aliases.  Expressions are parsed into a small
AST and evaluated with numpy, so compiled fields broadcast over arrays of
sample points.  No Python ``eval`` is involved.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import EvaluationError, ParameterError

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "cosh": np.cosh,
    "sinh": np.sinh,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
}

_COORD_ALIASES = {
    "x": 0, "x1": 0, "u": 0, "xi": 0,
    "y": 1, "x2": 1, "v": 1,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None or match.end() == pos:
            raise ParameterError(f"cannot tokenize expression at: {text[pos:]!r}")
        pos = match.end()
        if match.group("num") is not None:
            tokens.append(("num", float(match.group("num"))))
        elif match.group("name") is not None:
            tokens.append(("name", match.group("name")))
        else:
            tokens.append(("op", match.group("op")))
    tokens.append(("end", None))
    return tokens


class _Parser:
    """Recursive descent over: sum -> term -> factor -> power -> atom."""

    def __init__(self, tokens, dim):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.take()
        if tok != ("op", op):
            raise ParameterError(f"expected {op!r} in expression, got {tok[1]!r}")

    def parse(self):
        node = self.sum()
        if self.peek()[0] != "end":
            raise ParameterError(f"trailing input in expression: {self.peek()[1]!r}")
        return node

    def sum(self):
        node = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self):
        if self.peek() == ("op", "-"):
            self.take()
            return ("neg", self.factor())
        if self.peek() == ("op", "+"):
            self.take()
            return self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            # right associative, unary minus binds looser than ^
            exponent = self.factor()
            return ("pow", base, exponent)
        return base

    def atom(self):
        kind, value = self.take()
        if kind == "num":
            return ("const", value)
        if kind == "name":
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return ("call", value, arg)
            if value in _CONSTANTS:
                return ("const", _CONSTANTS[value])
            if value in _COORD_ALIASES:
                axis = _COORD_ALIASES[value]
                if axis >= self.dim:
                    raise ParameterError(
                        f"coordinate {value!r} not available on a {self.dim}d chart")
                return ("coord", axis)
            raise ParameterError(f"unknown name {value!r} in expression")
        if (kind, value) == ("op", "("):
            node = self.sum()
            self.expect_op(")")
            return node
        raise ParameterError(f"unexpected token {value!r} in expression")


def _evaluate(node, coords):
    op = node[0]
    if op == "const":
        return np.full(coords.shape[0], node[1])
    if op == "coord":
        return coords[:, node[1]]
    if op == "neg":
        return -_evaluate(node[1], coords)
    if op == "call":
        return _FUNCTIONS[node[1]](_evaluate(node[2], coords))
    lhs = _evaluate(node[1], coords)
    rhs = _evaluate(node[2], coords)
    if op == "add":
        return lhs + rhs
    if op == "sub":
        return lhs - rhs
    if op == "mul":
        return lhs * rhs
    if op == "div":
        return lhs / rhs
    if op == "pow":
        return lhs ** rhs
    raise AssertionError(f"unhandled node {op}")


class CompiledExpression:
    """A parsed scalar expression over chart coordinates.

    Calling it with an ``(N, dim)`` array of points returns an ``(N,)``
    array of values.  Non-finite results raise :class:`EvaluationError`.
    """

    def __init__(self, text, dim):
        self.text = text
        self.dim = dim
        try:
            self._ast = _Parser(_tokenize(text), dim).parse()
        except RecursionError:
            raise ParameterError(f"expression {text[:20]!r}... nested too deeply") from None

    def __call__(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        try:
            with np.errstate(all="ignore"):
                values = _evaluate(self._ast, points)
        except RecursionError:
            raise EvaluationError(f"expression {self.text[:20]!r}... nested too deeply") from None
        if not np.all(np.isfinite(values)):
            raise EvaluationError(
                f"expression {self.text!r} produced non-finite values")
        return values

    def __repr__(self):
        return f"CompiledExpression({self.text!r}, dim={self.dim})"


def compile_expression(text, dim):
    """Compile ``text`` into a vectorized scalar field over ``dim`` coordinates."""
    return CompiledExpression(text, dim)
