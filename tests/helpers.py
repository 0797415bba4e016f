"""Shared independent oracles for solver tests.

Kept apart from the package on purpose: these recompute reference
values through a different route than the code under test.
"""

import math

import numpy as np

from ucp2d.fields import Bin, Const, EvalDomainError, Neg, Var


def hyperbolic_bessel_series(z, terms=60):
    """sum_k (-z)^k / (k!)^2, the closed-form Riemann kernel for the
    constant-coefficient equation ds dt w + c w = 0 at z = c (s-xi)(t-eta).

    Equals J0(2 sqrt(z)) for z >= 0 and I0(2 sqrt(-z)) for z < 0.
    """
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    term = np.ones_like(z)
    out += term
    for k in range(1, terms):
        term = term * (-z) / (k * k)
        out += term
    return out


def hyperbolic_bessel_series_d(z, terms=60):
    """Derivative of the series with respect to z."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    for k in range(1, terms):
        coeff = (-1.0) ** k / (math.factorial(k) ** 2)
        out += coeff * k * z ** (k - 1)
    return out


def _walk_pow(base, expo):
    base = np.asarray(base, dtype=float)
    expo = np.asarray(expo, dtype=float)
    if np.any((base < 0.0) & (expo != np.floor(expo))):
        raise EvalDomainError("negative base raised to a non-integer power")
    if np.any((base == 0.0) & (expo < 0.0)):
        raise EvalDomainError("zero raised to a negative power")
    return np.power(base, expo)


def walk(node, x, y):
    """Value of an expression tree by recursive descent, every node
    evaluated where it occurs: the reference for the compiled evaluator
    of ``ucp2d.fields``, with the same domain checks in the same order."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x if node.name == "x" else y
    if isinstance(node, Neg):
        return -walk(node.arg, x, y)
    if isinstance(node, Bin):
        a = walk(node.lhs, x, y)
        b = walk(node.rhs, x, y)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if np.any(np.asarray(b) == 0.0):
                raise EvalDomainError("division by zero")
            return a / b
        return _walk_pow(a, b)
    a = walk(node.arg, x, y)
    if node.fn == "exp":
        return np.exp(a)
    if node.fn == "log":
        if np.any(np.asarray(a) <= 0.0):
            raise EvalDomainError("log of a non-positive argument")
        return np.log(a)
    if node.fn == "sin":
        return np.sin(a)
    if node.fn == "cos":
        return np.cos(a)
    if np.any(np.asarray(a) < 0.0):
        raise EvalDomainError("sqrt of a negative argument")
    return np.sqrt(a)


def walk_evaluate(field, x, y):
    """``ucp2d.fields.evaluate`` with the tree walked instead of compiled."""
    scalar = np.isscalar(x) and np.isscalar(y)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = walk(field.ast, np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = np.asarray(out, dtype=float)
    if not np.all(np.isfinite(out)):
        raise EvalDomainError(f"non-finite value in {field.source!r}")
    if scalar:
        return float(out)
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    return np.broadcast_to(out, shape).copy() if out.shape != shape else out
