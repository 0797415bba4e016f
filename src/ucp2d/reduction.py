"""Reduction to the overdetermined pair for the second component.

With the first displacement component identically zero on a
neighbourhood, the governing system collapses to two scalar equations
for the remaining component ``u``::

    a1112 uxx + (a1212 + a1122) uxy + a1222 uyy + b121 ux + b122 uy + c12 u = 0
    a1212 uxx + 2 a1222 uxy + a2222 uyy + b221 ux + b222 uy + c22 u = 0

The first is hyperbolic wherever the discriminant is positive, the
second is elliptic wherever the tensor is strongly elliptic; together
they overdetermine ``u``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ucp2d.fields import ScalarField

__all__ = [
    "SecondOrderOperator",
    "U2System",
    "discriminant",
    "reduce_system",
    "second_order_rank",
]

_COLS = {"xx": 0, "xy": 1, "yy": 2}


def discriminant(c20, c11, c02):
    """``c11^2 - 4 c20 c02`` of the principal part ``c20 dxx + c11 dxy +
    c02 dyy``: positive where it is hyperbolic, negative where elliptic.

    Takes numbers, arrays or :class:`ScalarField` s alike; for fields the
    result is a field.
    """
    return c11 * c11 - 4.0 * c20 * c02


@dataclass(frozen=True)
class SecondOrderOperator:
    """Scalar operator c20 dxx + c11 dxy + c02 dyy + c10 dx + c01 dy + c00."""

    c20: ScalarField
    c11: ScalarField
    c02: ScalarField
    c10: ScalarField
    c01: ScalarField
    c00: ScalarField

    def coefficients(self):
        return (self.c20, self.c11, self.c02, self.c10, self.c01, self.c00)

    def values(self, x, y):
        """All six coefficients at ``(x, y)``, in the order of ``coefficients``."""
        return tuple(f(x, y) for f in self.coefficients())

    def principal_values(self, x, y):
        """``c20``, ``c11`` and ``c02`` at ``(x, y)``; the lower-order
        fields are not evaluated."""
        return self.c20(x, y), self.c11(x, y), self.c02(x, y)

    def apply(self, u):
        """Apply to a field symbolically; exact, no differencing."""
        ux, uy = u.diff("x"), u.diff("y")
        return (
            self.c20 * ux.diff("x")
            + self.c11 * ux.diff("y")
            + self.c02 * uy.diff("y")
            + self.c10 * ux
            + self.c01 * uy
            + self.c00 * u
        )


@dataclass(frozen=True)
class U2System:
    hyper: SecondOrderOperator
    ell: SecondOrderOperator


def reduce_system(coeffs):
    """Extract the hyperbolic-elliptic pair from a coefficient set."""
    return U2System(
        hyper=SecondOrderOperator(
            c20=coeffs.a1112,
            c11=coeffs.a1212 + coeffs.a1122,
            c02=coeffs.a1222,
            c10=coeffs.b_(1, 2, 1),
            c01=coeffs.b_(1, 2, 2),
            c00=coeffs.c_(1, 2),
        ),
        ell=SecondOrderOperator(
            c20=coeffs.a1212,
            c11=2.0 * coeffs.a1222,
            c02=coeffs.a2222,
            c10=coeffs.b_(2, 2, 1),
            c01=coeffs.b_(2, 2, 2),
            c00=coeffs.c_(2, 2),
        ),
    )


def second_order_matrix(sys, x, y, drop=None):
    """The 2x3 matrix of second-order coefficients at a point.

    ``drop`` removes the named column ("xx", "xy" or "yy"), which models
    imposing that second derivative as known point data.
    """
    m = np.array([sys.hyper.principal_values(x, y), sys.ell.principal_values(x, y)])
    if drop is None:
        return m
    if drop not in _COLS:
        raise ValueError(f"drop must be one of 'xx', 'xy', 'yy', got {drop!r}")
    return np.delete(m, _COLS[drop], axis=1)


def second_order_rank(sys, x, y, tol=1e-9, drop=None):
    """Numerical rank of the second-order coefficient matrix at a point.

    Rank below 2 flags the degeneracy that lets nontrivial second
    derivatives slip through reduced point data.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = second_order_matrix(sys, x, y, drop=drop)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))
