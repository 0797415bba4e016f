"""Elasticity coefficient sets and the hypotheses imposed on them.

The stiffness tensor is fully symmetric (``a_ijkl = a_jikl = a_klij``),
which in 2D leaves six independent components; storing exactly those six
makes the symmetry hold by construction.  This module audits, for a
given coefficient set:

* strong ellipticity   -- positivity of ``sum a_ijkl xi_i eta_j xi_k eta_l``
  over unit direction pairs, minimised exactly over directions per node;
* strong convexity     -- positivity of ``sum a_ijkl e_ij e_kl`` over
  symmetric matrices, via the 3x3 Voigt matrix;
* eigenpairs of the quadratic matrix pencil
  ``L11 th^2 + L12 th + L22`` together with the nonsingularity measure
  ``|det(z, conj z)|`` per root.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ucp2d.fields import ScalarField, parse

__all__ = [
    "ElasticityCoefficients",
    "PencilEigenpairs",
    "lambda_matrices",
    "ellipticity_margin",
    "convexity_margin",
    "pencil_eigenpairs",
]

A_NAMES = ("a1111", "a1112", "a1122", "a1212", "a1222", "a2222")
B_NAMES = tuple(f"b{i}{j}{k}" for i in (1, 2) for j in (1, 2) for k in (1, 2))
C_NAMES = ("c11", "c12", "c21", "c22")

_ZERO = ScalarField.constant(0.0)

_NULLITY_TOL = 1e-8  # singular values below this times the scale count as null


def _as_field(v):
    if isinstance(v, ScalarField):
        return v
    if isinstance(v, str):
        return parse(v)
    return ScalarField.constant(v)


def _named_field(key, v):
    """``_as_field(v)``; an error names ``key``."""
    try:
        return _as_field(v)
    except (TypeError, ValueError) as err:  # FieldError is a ValueError
        raise ValueError(f"{key}: {err}") from err


def _a_name(i, j, k, l):
    """The stored component that ``a_ijkl`` equals under the full symmetry
    ``a_ijkl = a_jikl = a_klij``."""
    p1, p2 = sorted((tuple(sorted((i, j))), tuple(sorted((k, l)))))
    return f"a{p1[0]}{p1[1]}{p2[0]}{p2[1]}"


@dataclass(frozen=True)
class ElasticityCoefficients:
    """Six independent stiffness components plus lower-order terms.

    ``b_ijk`` multiplies ``d_k u_j`` in equation row ``i``; ``c_ij``
    multiplies ``u_j`` in row ``i``.  All default to zero.
    """

    a1111: ScalarField
    a1112: ScalarField
    a1122: ScalarField
    a1212: ScalarField
    a1222: ScalarField
    a2222: ScalarField
    b: dict = field(default_factory=dict)  # (i, j, k) -> ScalarField
    c: dict = field(default_factory=dict)  # (i, j) -> ScalarField

    def a(self, i, j, k, l):
        """Resolve any index quadruple through the full symmetry."""
        return getattr(self, _a_name(i, j, k, l))

    def b_(self, i, j, k):
        return self.b.get((i, j, k), _ZERO)

    def c_(self, i, j):
        return self.c.get((i, j), _ZERO)

    def a_array(self, x, y):
        """Full 2x2x2x2 tensor of values at a point (or grid of points)."""
        vals = {name: getattr(self, name)(x, y) for name in A_NAMES}
        shape = np.shape(vals["a1111"])
        out = np.empty((2, 2, 2, 2) + shape)
        for i in (1, 2):
            for j in (1, 2):
                for k in (1, 2):
                    for l in (1, 2):
                        out[i - 1, j - 1, k - 1, l - 1] = vals[_a_name(i, j, k, l)]
        return out

    @classmethod
    def from_components(cls, tensor, lower_order=None):
        """Build from name->expression mappings.

        ``tensor`` must supply all six a-components; ``lower_order`` may
        supply any of ``b111..b222`` and ``c11..c22``.
        """
        missing = [n for n in A_NAMES if n not in tensor]
        if missing:
            raise ValueError(f"missing tensor components: {', '.join(missing)}")
        unknown = [n for n in tensor if n not in A_NAMES]
        if unknown:
            raise ValueError(f"unknown tensor components: {', '.join(unknown)}")
        a = {n: _named_field(f"tensor.{n}", tensor[n]) for n in A_NAMES}
        b, c = {}, {}
        for name, expr in (lower_order or {}).items():
            if name in B_NAMES:
                i, j, k = (int(ch) for ch in name[1:])
                b[(i, j, k)] = _named_field(f"lower_order.{name}", expr)
            elif name in C_NAMES:
                i, j = (int(ch) for ch in name[1:])
                c[(i, j)] = _named_field(f"lower_order.{name}", expr)
            else:
                raise ValueError(f"lower_order: unknown coefficient {name!r}")
        return cls(b=b, c=c, **a)

    @classmethod
    def isotropic(cls, mu, lam):
        """Stiffness of an isotropic medium (no lower-order terms)."""
        mu, lam = _as_field(mu), _as_field(lam)
        return cls(
            a1111=2.0 * mu + lam,
            a1112=_ZERO,
            a1122=lam,
            a1212=mu,
            a1222=_ZERO,
            a2222=2.0 * mu + lam,
        )


@dataclass(frozen=True)
class PencilEigenpairs:
    """Roots and null vectors of the quadratic pencil at one point.

    ``conditioning[r] = |det([z, conj z])|`` for the unit null vector of
    root ``r``; the continuation hypothesis needs it bounded away from
    zero.  ``nullity[r]`` is the geometric null-space dimension of the
    pencil matrix at the root; values other than 1 flag a defective or
    totally degenerate root (reported, never silently patched).
    """

    roots: np.ndarray        # (4,) complex
    vectors: np.ndarray      # (4, 2) complex, unit columns per root
    conditioning: np.ndarray  # (4,) float
    nullity: np.ndarray      # (4,) int
    residuals: np.ndarray    # (4,) float, ||P(th) z||

    @property
    def defective(self):
        return bool(np.any(self.nullity != 1))


def lambda_matrices(coeffs, x, y):
    """The three symmetric 2x2 blocks of the second-order symbol.

    Returns ``(L11, L12, L22)`` with::

        L11 = [[a1111, a1112], [a1112, a1212]]
        L12 = [[2 a1112, a1212 + a1122], [a1212 + a1122, 2 a1222]]
        L22 = [[a1212, a1222], [a1222, a2222]]
    """
    a1111 = coeffs.a1111(x, y)
    a1112 = coeffs.a1112(x, y)
    a1122 = coeffs.a1122(x, y)
    a1212 = coeffs.a1212(x, y)
    a1222 = coeffs.a1222(x, y)
    a2222 = coeffs.a2222(x, y)
    l11 = np.array([[a1111, a1112], [a1112, a1212]])
    l12 = np.array([[2 * a1112, a1212 + a1122], [a1212 + a1122, 2 * a1222]])
    l22 = np.array([[a1212, a1222], [a1222, a2222]])
    return l11, l12, l22


def _grid_values(coeffs, region, n):
    """The six a-components on the ``n x n`` grid of ``region``, flattened."""
    if n < 2:
        raise ValueError("need n >= 2")
    xg, yg = np.meshgrid(*region.grid(n), indexing="ij")
    return {name: getattr(coeffs, name)(xg, yg).ravel() for name in A_NAMES}


def _least_eigenvalue(a, theta):
    """Least eigenvalue of the acoustic tensor ``M_ik = a_ijkl eta_j eta_l``
    at ``eta = (cos theta, sin theta)``: the minimum of the ellipticity
    form over unit xi."""
    c, s = np.cos(theta), np.sin(theta)
    cc, cs, ss = c * c, c * s, s * s
    m11 = a["a1111"] * cc + 2 * a["a1112"] * cs + a["a1212"] * ss
    m12 = a["a1112"] * cc + (a["a1122"] + a["a1212"]) * cs + a["a1222"] * ss
    m22 = a["a1212"] * cc + 2 * a["a1222"] * cs + a["a2222"] * ss
    return 0.5 * (m11 + m22) - np.hypot(0.5 * (m11 - m22), m12)


def _times(p, q):
    """Products of polynomials along the last axis (ascending coefficients)."""
    out = np.zeros(p.shape[:-1] + (p.shape[-1] + q.shape[-1] - 1,))
    for i in range(p.shape[-1]):
        out[..., i:i + q.shape[-1]] += p[..., i:i + 1] * q
    return out


def _candidates(a):
    """Per node, theta at the 8 roots of the margin's polynomial, T's minimiser and pi/2."""
    a1111, a1112, a1122, a1212, a1222, a2222 = (a[k] for k in A_NAMES)
    # 2 T, 2 U and 2 V times 1 + tan(theta)^2, in ascending powers of tan(theta)
    q = np.array([[a1111 + a1212, 2 * (a1112 + a1222), a1212 + a2222],
                  [a1111 - a1212, 2 * (a1112 - a1222), a1212 - a2222],
                  [2 * a1112, 2 * (a1122 + a1212), 2 * a1222]]).transpose(0, 2, 1)
    q = q / np.maximum(np.abs(q).max(axis=(0, 2), keepdims=True), np.finfo(float).tiny)
    d = np.stack([q[..., 1], 2 * (q[..., 2] - q[..., 0]), -q[..., 1]], -1)  # d/d(2 theta)
    w = _times(q[1:], d[1:]).sum(axis=0)
    c = _times(_times(d[0], d[0]), _times(q[1:], q[1:]).sum(axis=0)) - _times(w, w)
    c /= np.maximum(np.abs(c).max(axis=1, keepdims=True), np.finfo(float).tiny)
    c[:, 8] += np.abs(c).max(axis=1) == 0  # the zero polynomial as x^8
    # negligible leading terms go, the rest rise by as many degrees
    j = np.arange(9) - np.argmax(np.abs(c[:, ::-1]) > np.finfo(float).eps, axis=1)[:, None]
    c = np.where(j >= 0, np.take_along_axis(c, np.maximum(j, 0), axis=1), 0.0)
    comp = np.repeat(np.eye(8, k=-1)[None], len(c), axis=0)
    comp[:, :, 7] = -c[:, :8] / c[:, 8:]
    t_min = np.arctan2(-q[0, :, 1:2], q[0, :, 2:] - q[0, :, :1]) / 2
    return np.concatenate([np.arctan(np.linalg.eigvals(comp).real), t_min,
                           np.full_like(t_min, np.pi / 2)], axis=1)


def ellipticity_margin(coeffs, region, n):
    """Least value of the strong-ellipticity form on the ``n x n`` grid of
    a region, over unit direction pairs.

    At ``eta = (cos theta, sin theta)`` the minimum over xi is the least
    eigenvalue ``T - hypot(U, V)`` of the acoustic tensor, T, U and V being
    first-degree trigonometric polynomials in 2 theta.  Each node's minimum
    over eta is exact: at a root of ``T'^2 (U^2 + V^2) - (U U' + V V')^2``,
    of degree <= 8 in ``tan(theta)`` (one batched companion-matrix solve),
    at pi/2 where the degree drops, or at T's minimiser, where a constant
    greater eigenvalue makes the polynomial zero.  Every value is the form
    at a unit pair, so a positive return certifies the ellipticity constant
    up to the region's sampling.
    """
    a = _grid_values(coeffs, region, n)
    return float(_least_eigenvalue({k: v[:, None] for k, v in a.items()}, _candidates(a)).min())


def convexity_margin(coeffs, region, n):
    """Minimum over the region of the best strong-convexity constant.

    In the basis ``(e11, e22, sqrt2 e12)`` the convexity form is the 3x3
    Voigt matrix, so its smallest eigenvalue at a point equals the
    sharpest constant there.
    """
    a = _grid_values(coeffs, region, n)
    r2 = np.sqrt(2.0)
    voigt = np.array(
        [
            [a["a1111"], a["a1122"], r2 * a["a1112"]],
            [a["a1122"], a["a2222"], r2 * a["a1222"]],
            [r2 * a["a1112"], r2 * a["a1222"], 2 * a["a1212"]],
        ]
    )
    return float(np.linalg.eigvalsh(np.moveaxis(voigt, -1, 0))[:, 0].min())


def _pencil_matrix(l11, l12, l22, theta):
    return l11 * theta**2 + l12 * theta + l22


def pencil_eigenpairs(coeffs, x, y):
    """All four eigenpairs of ``L11 th^2 + L12 th + L22`` at ``(x, y)``.

    Roots come from the eigenvalues of the 4x4 companion linearisation
    and are polished by a multiplicity-tolerant Newton iteration on the
    scalar quartic ``det``; null vectors are smallest right singular
    vectors of the pencil matrix at each root.
    """
    l11, l12, l22 = lambda_matrices(coeffs, x, y)
    scale = max(np.abs(l11).max(), np.abs(l12).max(), np.abs(l22).max())
    if scale == 0.0:
        raise ValueError("zero pencil")
    if abs(np.linalg.det(l11)) <= 1e-14 * scale**2:
        raise ValueError("leading block L11 is singular at the point")

    inv11 = np.linalg.inv(l11)
    companion = np.zeros((4, 4))
    companion[:2, 2:] = np.eye(2)
    companion[2:, :2] = -inv11 @ l22
    companion[2:, 2:] = -inv11 @ l12
    roots = np.linalg.eigvals(companion).astype(complex)

    # quartic det(L(th)) with descending coefficients; convolve keeps
    # leading zeros that poly1d-based helpers would trim
    p11 = np.array([l11[0, 0], l12[0, 0], l22[0, 0]])
    p12 = np.array([l11[0, 1], l12[0, 1], l22[0, 1]])
    p22 = np.array([l11[1, 1], l12[1, 1], l22[1, 1]])
    quartic = np.convolve(p11, p22) - np.convolve(p12, p12)
    dq = np.polyder(quartic)
    d2q = np.polyder(dq)

    def polish(th):
        # Newton on p/p' converges quadratically even at multiple roots
        for _ in range(50):
            p = np.polyval(quartic, th)
            p1 = np.polyval(dq, th)
            p2 = np.polyval(d2q, th)
            denom = p1 * p1 - p * p2
            if denom == 0:
                break
            step = p * p1 / denom
            th = th - step
            if abs(step) <= 1e-16 * (1.0 + abs(th)):
                break
        return th

    roots = np.array([polish(th) for th in roots])

    vectors = np.zeros((4, 2), dtype=complex)
    conditioning = np.zeros(4)
    nullity = np.zeros(4, dtype=int)
    residuals = np.zeros(4)
    for r, th in enumerate(roots):
        pm = _pencil_matrix(l11.astype(complex), l12.astype(complex), l22.astype(complex), th)
        _, sv, vh = np.linalg.svd(pm)
        z = vh[-1].conj()
        z = z / np.linalg.norm(z)
        vectors[r] = z
        det_zz = z[0] * np.conj(z[1]) - np.conj(z[0]) * z[1]
        conditioning[r] = abs(det_zz)
        local_scale = scale * max(1.0, abs(th)) ** 2
        nullity[r] = int(np.sum(sv <= _NULLITY_TOL * local_scale))
        residuals[r] = float(np.linalg.norm(pm @ z))
    return PencilEigenpairs(
        roots=roots,
        vectors=vectors,
        conditioning=conditioning,
        nullity=nullity,
        residuals=residuals,
    )
