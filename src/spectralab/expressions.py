"""Tiny arithmetic-expression compiler for user-defined scalar fields.

Accepted grammar: numbers, chart coordinates, ``+ - * / ^``, parentheses and
the functions sin, cos, cosh, sinh, exp, log, sqrt.  Coordinate names are
``x`` (first chart coordinate) and ``y`` (second); ``u``/``v`` and
``x1``/``x2`` are accepted as aliases.  Expressions are parsed into a small
AST and evaluated with numpy, so compiled fields broadcast over arrays of
sample points.  No Python ``eval`` is involved.  The same walk carries the
exact gradient and Hessian by forward mode when they are asked for.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import EvaluationError, ParameterError

# each function and its first and second derivatives, from the argument u
# and the value f = f(u)
_FUNCTIONS = {
    "sin": (np.sin, lambda u, f: (np.cos(u), -f)),
    "cos": (np.cos, lambda u, f: (-np.sin(u), -f)),
    "cosh": (np.cosh, lambda u, f: (np.sinh(u), f)),
    "sinh": (np.sinh, lambda u, f: (np.cosh(u), f)),
    "exp": (np.exp, lambda u, f: (f, f)),
    "log": (np.log, lambda u, f: (1.0 / u, -1.0 / (u * u))),
    "sqrt": (np.sqrt, lambda u, f: (0.5 / f, -0.25 / (f * u))),
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


def _evaluate(node, coords, order):
    """``[value, gradient, Hessian]`` of ``node`` at ``coords`` ``(N, d)``,
    shapes ``(N,)``, ``(N, d)`` and ``(N, d, d)``, up to ``order``
    derivatives by forward mode.  A subtree without coordinates is constant:
    it returns its value alone, and no chain rule runs through it."""
    op = node[0]
    if op == "const":
        return [np.full(coords.shape[0], node[1])]
    if op == "coord":
        parts = [coords[:, node[1]]]
        if order:
            parts.append(np.zeros(coords.shape))
            parts[1][:, node[1]] = 1.0
        if order > 1:
            parts.append(np.zeros(coords.shape + coords.shape[1:]))
        return parts
    if op == "neg":
        return [-part for part in _evaluate(node[1], coords, order)]
    if op == "call":
        inner = _evaluate(node[2], coords, order)
        function, derivatives = _FUNCTIONS[node[1]]
        return _chain(function(inner[0]), derivatives, inner)
    lhs, rhs = (_evaluate(child, coords, order) for child in node[1:])
    if op == "pow":
        return _power(lhs, rhs)
    lhs, rhs = _padded(lhs, rhs), _padded(rhs, lhs)  # a constant side gets zero derivatives
    if op == "add":
        return [a + b for a, b in zip(lhs, rhs)]
    if op == "sub":
        return [a - b for a, b in zip(lhs, rhs)]
    if op == "mul":
        return _product(lhs, rhs)
    if op == "div":  # a times 1/b, with the value a/b
        reciprocal = _chain(1.0 / rhs[0], lambda u, f: (-f * f, 2.0 * f * f * f), rhs)
        return [lhs[0] / rhs[0]] + _product(lhs, reciprocal)[1:]
    raise AssertionError(f"unhandled node {op}")


def _pending(node):
    """The most operands ``_evaluate`` keeps pending below ``node``: a binary
    node keeps its left operand while it evaluates the right one."""
    children = [child for child in node[1:] if isinstance(child, tuple)]
    return max([0] + [i + _pending(child) for i, child in enumerate(children)])


def _padded(parts, like):
    return parts + [np.zeros_like(part) for part in like[len(parts):]]


def _outer(a, b):
    return a[:, :, None] * b[:, None, :]


def _chain(value, derivatives, inner):
    """The parts of ``f(u)`` from its value, ``derivatives(u, f) = (f'(u),
    f''(u))`` and the parts of ``u``."""
    parts = [value]
    if len(inner) > 1:
        d1, d2 = derivatives(inner[0], value)
        parts.append(d1[:, None] * inner[1])
    if len(inner) > 2:
        parts.append(d1[:, None, None] * inner[2] + d2[:, None, None] * _outer(inner[1], inner[1]))
    return parts


def _product(a, b):
    parts = [a[0] * b[0]]
    if len(a) > 1:
        parts.append(a[0][:, None] * b[1] + b[0][:, None] * a[1])
    if len(a) > 2:
        parts.append(a[0][:, None, None] * b[2] + b[0][:, None, None] * a[2]
                     + _outer(a[1], b[1]) + _outer(b[1], a[1]))
    return parts


def _power(a, b):
    """``a^b``: by the power rule for a constant exponent, so a negative base
    stays finite, and as ``exp(b log a)`` otherwise."""
    value = a[0] ** b[0]
    if len(b) == 1:
        p = b[0]
        return _chain(value, lambda u, f: (
            np.where(p == 0.0, 0.0, p * u ** (p - 1.0)),
            np.where(p * (p - 1.0) == 0.0, 0.0, p * (p - 1.0) * u ** (p - 2.0))), a)
    log_a = _chain(np.log(a[0]), _FUNCTIONS["log"][1], a)
    return _chain(value, _FUNCTIONS["exp"][1], _product(b, _padded(log_a, b)))


class CompiledExpression:
    """A parsed scalar expression over chart coordinates.

    Calling it with an ``(N, dim)`` array of points returns an ``(N,)``
    array of values; :meth:`derivatives` adds the exact gradient and
    Hessian.  Non-finite results raise :class:`EvaluationError`.
    """

    def __init__(self, text, dim):
        self.text = text
        self.dim = dim
        try:
            self._ast = _Parser(_tokenize(text), dim).parse()
            # value, gradient and Hessian lists held at once: the pending operands, and
            # six for one operation's (most for a power with a varying exponent)
            self.parts = _pending(self._ast) + 6
        except RecursionError:
            raise ParameterError(f"expression {text[:20]!r}... nested too deeply") from None

    def __call__(self, points):
        return self.derivatives(points, 0)[0]

    def derivatives(self, points, order):
        """The values ``(N,)``, gradients ``(N, dim)`` and Hessians
        ``(N, dim, dim)`` at ``points``, the first ``order + 1`` of them."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        try:
            with np.errstate(all="ignore"):  # checked below so the error names the expression
                parts = _evaluate(self._ast, points, order)
        except RecursionError:
            raise EvaluationError(f"expression {self.text[:20]!r}... nested too deeply") from None
        parts += [np.zeros(points.shape[:1] + points.shape[1:] * k)  # a constant expression
                  for k in range(len(parts), order + 1)]
        for what, part in zip(("values", "first derivatives", "second derivatives"), parts):
            if not np.all(np.isfinite(part)):
                raise EvaluationError(f"expression {self.text!r} produced non-finite {what}")
        return parts

    def __repr__(self):
        return f"CompiledExpression({self.text!r}, dim={self.dim})"


def compile_expression(text, dim):
    """Compile ``text`` into a vectorized scalar field over ``dim`` coordinates."""
    return CompiledExpression(text, dim)
