"""Characteristic coordinates for the hyperbolic member of the pair.

Wherever the discriminant ``Delta = h11^2 - 4 h20 h02`` of the
hyperbolic equation is positive, there is an invertible change of
variables ``(x, y) -> (s, t)`` that brings it to the normal form::

    ds dt w + B11 ds w + B12 dt w + C1 w = 0,

with ``w(s(x,y), t(x,y)) = u(x, y)``.  The same substitution carries the
elliptic equation into::

    A11 ds^2 w + 2 A12 ds dt w + A22 dt^2 w + B21 ds w + B22 dt w + C2 w = 0,

which stays elliptic because ``A12^2 - A11 A22`` is the original
(negative) elliptic discriminant times a square of the Jacobian
determinant.

Coordinate conventions.  The quadratic ``h20 m^2 + h11 m + h02 = 0``
fixes the slope ratios ``m = dx s / dy s``.  The ``s`` coordinate uses
the root with the minus sign in front of the square root, ``t`` the plus
sign.  Scale is pinned by measuring ``s`` and ``t`` as intercepts on the
reference line through ``(x0, y0)`` (so in the generic case
``dy s = dy t = 1`` there), and both vanish at ``(x0, y0)``.  When the
leading coefficient ``h20`` vanishes identically but ``h02`` does not,
the mirrored parametrisation in ``dy s / dx s`` is used with intercepts
on the horizontal reference line.  When both vanish, the map is the
identity shifted to ``(x0, y0)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ucp2d.fields import Call, ScalarField

__all__ = [
    "MapError",
    "TransformError",
    "CharacteristicMap",
    "TransformedSystem",
    "WPointData",
    "characteristic_slopes",
    "build_map",
    "transform_system",
    "transfer_point_data",
    "second_derivative_matrix",
]

CASE_IDENTITY = "orthotropic-identity"
CASE_A1112 = "a1112-nonzero"
CASE_A1222 = "a1222-nonzero"

_EPS_CANDIDATES = [0.5 / 2**k for k in range(12)]
_ZERO_TOL = 1e-13  # relative coefficient size (or Jacobian determinant) taken as zero
_N_SAMPLE = 9  # nodes per axis of the grids that sample the region and the square
_NORMAL_FORM_TOL = 1e-8  # admissible ds^2/dt^2 residue relative to the mixed term
_RK4_STEPS = 64  # Runge-Kutta steps along each traced characteristic
_NEWTON_STEPS = 25  # Newton steps allowed to invert a traced map


class MapError(ValueError):
    """Characteristic map construction failed (hyperbolicity, escape,
    or degenerate Jacobian)."""


class TransformError(ValueError):
    """Coordinate change did not produce the expected normal form."""


def _sqrt_field(f):
    return ScalarField(Call("sqrt", f.ast))


def _second_order_values(op, x, y):
    c20, c11, c02, c10, c01, c00 = op.coefficients()
    return c20(x, y), c11(x, y), c02(x, y), c10(x, y), c01(x, y), c00(x, y)


def characteristic_slopes(sys, x, y):
    """Classify the point and return the characteristic slope pair.

    Returns ``(case, roots)`` where roots is ``None`` in the identity
    case, the pair ``(m-, m+)`` of ``dx s/dy s`` values in the generic
    case, and the pair of ``dy s/dx s`` values in the mirrored case.
    """
    h20 = sys.hyper.c20(x, y)
    h11 = sys.hyper.c11(x, y)
    h02 = sys.hyper.c02(x, y)
    delta = h11 * h11 - 4.0 * h20 * h02
    if delta <= 0.0:
        raise MapError(f"hyperbolicity fails at ({x}, {y}): Delta = {delta}")
    scale = max(abs(h20), abs(h11), abs(h02))
    rt = np.sqrt(delta)
    if abs(h20) > _ZERO_TOL * scale:
        return CASE_A1112, (-(h11 - rt) / (2 * h20), -(h11 + rt) / (2 * h20))
    if abs(h02) > _ZERO_TOL * scale:
        return CASE_A1222, (-(h11 - rt) / (2 * h02), -(h11 + rt) / (2 * h02))
    return CASE_IDENTITY, None


@dataclass(frozen=True)
class CharacteristicMap:
    """Invertible change of variables to characteristic coordinates.

    All evaluators accept scalars or arrays.  ``jacobian`` returns the
    tuple ``(sx, tx, sy, ty)`` of first partials and
    ``second_derivatives`` the tuple ``(sxx, sxy, syy, txx, txy, tyy)``.
    """

    case: str
    x0: float
    y0: float
    forward: object
    jacobian: object
    second_derivatives: object
    inverse: object
    linear: bool

    def jacobian_matrix(self, x, y):
        sx, tx, sy, ty = self.jacobian(x, y)
        return np.array([[sx, tx], [sy, ty]])

    def det_jacobian(self, x, y):
        sx, tx, sy, ty = self.jacobian(x, y)
        return sx * ty - tx * sy


def _linear_map(case, x0, y0, roots):
    if case == CASE_IDENTITY:
        ms = mt = None
    else:
        ms, mt = roots

    if case == CASE_A1222:
        # s, t measured as x-intercepts on the line y = y0
        j = np.array([[1.0, 1.0], [ms, mt]])
    elif case == CASE_A1112:
        j = np.array([[ms, mt], [1.0, 1.0]])
    else:
        j = np.eye(2)
    jt_inv = np.linalg.inv(j.T)

    def forward(x, y):
        scalar = not (np.shape(x) or np.shape(y))
        dx, dy = np.asarray(x, dtype=float) - x0, np.asarray(y, dtype=float) - y0
        s = j[0, 0] * dx + j[1, 0] * dy
        t = j[0, 1] * dx + j[1, 1] * dy
        if scalar:
            return float(s), float(t)
        return s, t

    def jacobian(x, y):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        vals = (j[0, 0], j[0, 1], j[1, 0], j[1, 1])
        if not shape:
            return vals
        return tuple(np.full(shape, v) for v in vals)

    def second_derivatives(x, y):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        if not shape:
            return (0.0,) * 6
        return (np.zeros(shape),) * 6

    def inverse(s, t):
        scalar = not (np.shape(s) or np.shape(t))
        s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
        x = x0 + jt_inv[0, 0] * s + jt_inv[0, 1] * t
        y = y0 + jt_inv[1, 0] * s + jt_inv[1, 1] * t
        if scalar:
            return float(x), float(y)
        return x, y

    return CharacteristicMap(
        case=case,
        x0=x0,
        y0=y0,
        forward=forward,
        jacobian=jacobian,
        second_derivatives=second_derivatives,
        inverse=inverse,
        linear=True,
    )


class _CurveTracer:
    """Batched trace of characteristic curves to the reference line.

    For the generic case the level curves of the coordinate satisfy
    ``dy/dx = -m(x, y)``; the coordinate value is the ``y``-intercept on
    ``x = x0`` (minus ``y0``).  The sensitivity to the starting point is
    integrated alongside through the variational equation, which also
    yields the spatial gradient because ``dx s = m(x*, y*) dy s``.
    ``mirrored=True`` swaps the roles of ``x`` and ``y``.
    """

    def __init__(self, m_field, x0, y0, bounds, mirrored=False):
        self.m = m_field
        self.dm = m_field.diff("x" if mirrored else "y")
        self.x0, self.y0 = x0, y0
        self.bounds = bounds  # padded containment box as ((lo_x, hi_x), (lo_y, hi_y))
        self.mirrored = mirrored

    def _slope(self, a, b):
        # independent variable first; mirrored tracing integrates x over y
        if self.mirrored:
            return -self.m(b, a), -self.dm(b, a)
        return -self.m(a, b), -self.dm(a, b)

    def _check(self, a, b):
        (lo_a, hi_a), (lo_b, hi_b) = self.bounds
        if np.any(b < lo_b) or np.any(b > hi_b) or np.any(a < lo_a - 1e-12) or np.any(a > hi_a + 1e-12):
            raise MapError("characteristic curve escapes the working region")

    def intercept_and_sensitivity(self, x, y):
        """Intercept value and its derivative along the secondary axis.

        Returns ``(value, dvalue/d b0)`` where ``b0`` is y in the generic
        case and x in the mirrored one.  The derivative along the primary
        axis follows from the slope ratio at the starting point, so it is
        not integrated here.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        x, y = (a.ravel() for a in np.broadcast_arrays(x, y))
        if self.mirrored:
            a0, b0, a_ref, ref = y.astype(float), x.astype(float), self.y0, self.x0
        else:
            a0, b0, a_ref, ref = x.astype(float), y.astype(float), self.x0, self.y0
        span = a_ref - a0
        # rescaled independent variable tau in [0, 1]: db/dtau = span * f
        b = b0.copy()
        v = np.ones_like(b)  # sensitivity d b(tau) / d b0

        def rhs(a_val, b_val, v_val):
            f, df = self._slope(a_val, b_val)
            return span * f, span * df * v_val

        h = 1.0 / _RK4_STEPS
        for k in range(_RK4_STEPS):
            tau = k * h
            self._check(a0 + span * tau, b)
            k1b, k1v = rhs(a0 + span * tau, b, v)
            k2b, k2v = rhs(a0 + span * (tau + h / 2), b + h / 2 * k1b, v + h / 2 * k1v)
            k3b, k3v = rhs(a0 + span * (tau + h / 2), b + h / 2 * k2b, v + h / 2 * k2v)
            k4b, k4v = rhs(a0 + span * (tau + h), b + h * k3b, v + h * k3v)
            b = b + h / 6 * (k1b + 2 * k2b + 2 * k3b + k4b)
            v = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        self._check(np.full_like(b, a_ref), b)
        return b - ref, v


def _traced_map(case, sys, x0, y0, region):
    h20, h11, h02 = sys.hyper.c20, sys.hyper.c11, sys.hyper.c02
    delta = h11 * h11 - 4.0 * h20 * h02
    rt = _sqrt_field(delta)
    lead = h20 if case == CASE_A1112 else h02
    m_minus = (0.0 - (h11 - rt)) / (2.0 * lead)
    m_plus = (0.0 - (h11 + rt)) / (2.0 * lead)
    mirrored = case == CASE_A1222

    (rx0, rx1), (ry0, ry1) = region.xlim, region.ylim
    pad_x = region.halfwidths[0]
    pad_y = region.halfwidths[1]
    bounds_xy = ((rx0 - pad_x, rx1 + pad_x), (ry0 - pad_y, ry1 + pad_y))
    bounds = (bounds_xy[1], bounds_xy[0]) if mirrored else bounds_xy

    tracer_s = _CurveTracer(m_minus, x0, y0, bounds, mirrored=mirrored)
    tracer_t = _CurveTracer(m_plus, x0, y0, bounds, mirrored=mirrored)

    def _shape_back(arr, x, y):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        if shape:
            return np.reshape(arr, shape)
        return float(np.asarray(arr).ravel()[0])

    def forward(x, y):
        s, _ = tracer_s.intercept_and_sensitivity(x, y)
        t, _ = tracer_t.intercept_and_sensitivity(x, y)
        return _shape_back(s, x, y), _shape_back(t, x, y)

    def partials(s_sec, t_sec, x, y):
        mm = np.asarray(m_minus(x, y)).ravel()
        mp = np.asarray(m_plus(x, y)).ravel()
        if mirrored:
            # intercepts on y = y0: d/dx is the sensitivity factor and
            # d/dy follows from the slope ratio dy s / dx s = m
            sx, sy = s_sec, mm * s_sec
            tx, ty = t_sec, mp * t_sec
        else:
            sy, sx = s_sec, mm * s_sec
            ty, tx = t_sec, mp * t_sec
        return sx, tx, sy, ty

    def jacobian(x, y):
        _, s_sec = tracer_s.intercept_and_sensitivity(x, y)
        _, t_sec = tracer_t.intercept_and_sensitivity(x, y)
        return tuple(_shape_back(a, x, y) for a in partials(s_sec, t_sec, x, y))

    fd = 1e-5 * max(region.halfwidths)

    def second_derivatives(x, y):
        # first derivatives come from the variational solve; curvature by
        # central differencing of those (the fields are smooth)
        sx_px, tx_px, sy_px, ty_px = jacobian(np.asarray(x) + fd, y)
        sx_mx, tx_mx, sy_mx, ty_mx = jacobian(np.asarray(x) - fd, y)
        sx_py, tx_py, sy_py, ty_py = jacobian(x, np.asarray(y) + fd)
        sx_my, tx_my, sy_my, ty_my = jacobian(x, np.asarray(y) - fd)
        sxx = (sx_px - sx_mx) / (2 * fd)
        txx = (tx_px - tx_mx) / (2 * fd)
        syy = (sy_py - sy_my) / (2 * fd)
        tyy = (ty_py - ty_my) / (2 * fd)
        sxy = 0.5 * ((sx_py - sx_my) / (2 * fd) + (sy_px - sy_mx) / (2 * fd))
        txy = 0.5 * ((tx_py - tx_my) / (2 * fd) + (ty_px - ty_mx) / (2 * fd))
        return sxx, sxy, syy, txx, txy, tyy

    def inverse(s, t):
        s_in = np.atleast_1d(np.asarray(s, dtype=float))
        t_in = np.atleast_1d(np.asarray(t, dtype=float))
        sb, tb = np.broadcast_arrays(s_in, t_in)
        shape = sb.shape
        sf, tf = sb.ravel(), tb.ravel()
        sx0, tx0, sy0, ty0 = jacobian(x0, y0)
        det0 = sx0 * ty0 - tx0 * sy0
        # start from the linearisation at the base point
        x = x0 + (ty0 * sf - sy0 * tf) / det0
        y = y0 + (-tx0 * sf + sx0 * tf) / det0
        for _ in range(_NEWTON_STEPS):
            s_cur, s_sec = tracer_s.intercept_and_sensitivity(x, y)
            t_cur, t_sec = tracer_t.intercept_and_sensitivity(x, y)
            sx, tx, sy, ty = partials(s_sec, t_sec, x, y)
            rs = sf - s_cur
            rt_ = tf - t_cur
            det = sx * ty - tx * sy
            if np.any(np.abs(det) < 1e-14):
                raise MapError("Jacobian degenerate during inversion")
            dx = (ty * rs - sy * rt_) / det
            dy = (-tx * rs + sx * rt_) / det
            x = x + dx
            y = y + dy
            step = np.max(np.abs(dx)) + np.max(np.abs(dy))
            if step < 1e-13:
                break
        else:
            raise MapError(
                f"inversion did not converge in {_NEWTON_STEPS} Newton steps "
                f"(last step {step:.3g})"
            )
        if np.shape(np.asarray(s)) or np.shape(np.asarray(t)):
            return x.reshape(shape), y.reshape(shape)
        return float(x[0]), float(y[0])

    return CharacteristicMap(
        case=case,
        x0=x0,
        y0=y0,
        forward=forward,
        jacobian=jacobian,
        second_derivatives=second_derivatives,
        inverse=inverse,
        linear=False,
    )


def build_map(sys, region, x0, y0):
    """Construct the characteristic map on a region around ``(x0, y0)``.

    Requires ``Delta > 0`` on the closed region and, outside the
    identity case, the relevant leading coefficient bounded away from
    zero there.  Constant-coefficient systems get closed-form linear
    maps; otherwise coordinates are traced along characteristic curves
    with a fourth-order integrator and Jacobians from the variational
    equation.
    """
    if not region.contains(x0, y0):
        raise MapError("base point must lie inside the region")
    xs, ys = region.grid(_N_SAMPLE)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    h20 = np.broadcast_to(sys.hyper.c20(xg, yg), xg.shape)
    h11 = np.broadcast_to(sys.hyper.c11(xg, yg), xg.shape)
    h02 = np.broadcast_to(sys.hyper.c02(xg, yg), xg.shape)
    delta = h11 * h11 - 4 * h20 * h02
    if delta.min() <= 0:
        raise MapError(f"hyperbolicity fails on the region: min Delta = {delta.min()}")
    scale = max(np.abs(h20).max(), np.abs(h11).max(), np.abs(h02).max())
    if np.abs(h20).max() <= _ZERO_TOL * scale and np.abs(h02).max() <= _ZERO_TOL * scale:
        case = CASE_IDENTITY
    elif np.abs(h20).min() > _ZERO_TOL * scale:
        case = CASE_A1112
    elif np.abs(h02).min() > _ZERO_TOL * scale:
        case = CASE_A1222
    else:
        raise MapError(
            "neither leading coefficient is bounded away from zero on the region"
        )

    if case == CASE_IDENTITY:
        # h20 = h02 = 0: the coordinate lines are the characteristics,
        # so the identity map is exact even for variable coefficients
        return _linear_map(case, x0, y0, None)
    spread = max(
        np.ptp(h20), np.ptp(h11), np.ptp(h02)
    )
    if spread <= 1e-13 * max(scale, 1.0):
        case_pt, roots = characteristic_slopes(sys, x0, y0)
        return _linear_map(case_pt, x0, y0, roots)
    return _traced_map(case, sys, x0, y0, region)


@dataclass(frozen=True)
class TransformedSystem:
    """Coefficients of the pair in characteristic coordinates on
    ``[-epsilon, epsilon]^2``.

    Hyperbolic normal form: ``ds dt w + B11 ds w + B12 dt w + C1 w = 0``.
    Elliptic form: ``A11 ds^2 + 2 A12 ds dt + A22 dt^2 + B21 ds +
    B22 dt + C2``.  All coefficient evaluators are vectorised in (s, t).
    """

    b11: object
    b12: object
    c1: object
    a11: object
    a12: object
    a22: object
    b21: object
    b22: object
    c2: object
    epsilon: float

    @classmethod
    def from_constants(cls, b11=0.0, b12=0.0, c1=0.0, a11=1.0, a12=0.0,
                       a22=1.0, b21=0.0, b22=0.0, c2=0.0, epsilon=0.5):
        """Build directly from numbers or (s, t) callables (for solver
        tests and synthetic problems)."""

        def lift(v):
            if callable(v):
                return v
            return lambda s, t, v=float(v): np.broadcast_to(
                v, np.broadcast_shapes(np.shape(s), np.shape(t))
            ).copy() if np.shape(s) or np.shape(t) else v

        return cls(
            b11=lift(b11), b12=lift(b12), c1=lift(c1),
            a11=lift(a11), a12=lift(a12), a22=lift(a22),
            b21=lift(b21), b22=lift(b22), c2=lift(c2),
            epsilon=float(epsilon),
        )


def _choose_epsilon(sys, cmap, region):
    """Largest dyadic epsilon <= 0.5 whose square pulls back into the
    region with the discriminant no worse than half its base value.

    Returns epsilon and the pullback ``(x, y)`` of the ``_N_SAMPLE x
    _N_SAMPLE`` grid of the square, flattened in ``ij`` order.  Scaling
    by a power of two is exact, so that grid has the same bits as one
    built by ``np.linspace(-epsilon, epsilon, _N_SAMPLE)``.
    """
    delta0 = float(
        sys.hyper.c11(cmap.x0, cmap.y0) ** 2
        - 4 * sys.hyper.c20(cmap.x0, cmap.y0) * sys.hyper.c02(cmap.x0, cmap.y0)
    )
    u = np.linspace(-1.0, 1.0, _N_SAMPLE)
    su, tu = np.meshgrid(u, u, indexing="ij")
    for eps in _EPS_CANDIDATES:
        try:
            x, y = cmap.inverse(su.ravel() * eps, tu.ravel() * eps)
        except MapError:
            continue
        if not region.contains(x, y):
            continue
        h20 = sys.hyper.c20(x, y)
        h11 = sys.hyper.c11(x, y)
        h02 = sys.hyper.c02(x, y)
        delta = h11 * h11 - 4 * h20 * h02
        if np.min(delta) >= 0.5 * delta0:
            return eps, x, y
    raise MapError("no admissible square neighbourhood found")


def transform_system(sys, cmap, region):
    """Push the pair through the characteristic map.

    The collected ``ds^2``/``dt^2`` coefficients of the hyperbolic
    equation must vanish (that is what makes the map characteristic);
    they are verified to ``_NORMAL_FORM_TOL`` on a sample grid and the
    mixed coefficient is divided out.
    """
    epsilon, xp, yp = _choose_epsilon(sys, cmap, region)

    # validate the normal form on the probe grid of the square
    h20, h11, h02, _, _, _ = _second_order_values(sys.hyper, xp, yp)
    jac = cmap.jacobian(xp, yp)
    qs, half_mixed, qt = _principal(h20, h11, h02, jac)
    scale = np.abs(2 * half_mixed)
    if np.any(scale <= 0):
        raise TransformError("mixed-derivative coefficient vanished on the square")
    if np.max(np.abs([qs, qt]) / scale) > _NORMAL_FORM_TOL:
        raise TransformError(
            "pure second-derivative residue survives the change of variables"
        )

    a11p, a12p, a22p = _principal(*_second_order_values(sys.ell, xp, yp)[:3], jac)
    if np.any(a12p**2 - a11p * a22p >= 0):
        raise TransformError("ellipticity lost under the change of variables")
    if np.min(np.abs(a11p)) == 0 or np.min(np.abs(a22p)) == 0:
        raise TransformError("degenerate principal elliptic coefficient")

    # Solver grids hit these callables once per coefficient with the
    # same (s, t) arrays; for traced maps the pullback dominates the
    # cost, so the full coefficient bundle is computed per distinct
    # grid and memoised.
    memo = {}

    def bundle(s, t):
        key = (np.asarray(s, dtype=float).tobytes(), np.asarray(t, dtype=float).tobytes())
        got = memo.get(key)
        if got is not None:
            return got
        x, y = cmap.inverse(s, t)
        h20, h11, h02, h10, h01, h00 = _second_order_values(sys.hyper, x, y)
        jac = cmap.jacobian(x, y)
        sx, tx, sy, ty = jac
        sxx, sxy, syy, txx, txy, tyy = cmap.second_derivatives(x, y)
        e20, e11, e02, e10, e01, e00 = _second_order_values(sys.ell, x, y)
        mixed = 2 * _principal(h20, h11, h02, jac)[1]
        a11, a12, a22 = _principal(e20, e11, e02, jac)
        got = {
            "b11": (h20 * sxx + h11 * sxy + h02 * syy + h10 * sx + h01 * sy) / mixed,
            "b12": (h20 * txx + h11 * txy + h02 * tyy + h10 * tx + h01 * ty) / mixed,
            "c1": h00 / mixed,
            "a11": a11,
            "a12": a12,
            "a22": a22,
            "b21": e20 * sxx + e11 * sxy + e02 * syy + e10 * sx + e01 * sy,
            "b22": e20 * txx + e11 * txy + e02 * tyy + e10 * tx + e01 * ty,
            "c2": e00 + 0.0 * np.asarray(sx),
        }
        if len(memo) > 64:
            memo.clear()
        memo[key] = got
        return got

    def coeff(which):
        def f(s, t):
            return bundle(s, t)[which]

        return f

    return TransformedSystem(
        b11=coeff("b11"), b12=coeff("b12"), c1=coeff("c1"),
        a11=coeff("a11"), a12=coeff("a12"), a22=coeff("a22"),
        b21=coeff("b21"), b22=coeff("b22"), c2=coeff("c2"),
        epsilon=float(epsilon),
    )


def _principal(c20, c11, c02, jac):
    """Principal coefficients ``(A11, A12, A22)`` in (s, t) of
    ``c20 dx^2 + c11 dx dy + c02 dy^2`` under a map with Jacobian
    ``jac``; the mixed term is ``2 A12 ds dt``."""
    sx, tx, sy, ty = jac
    a11 = c20 * sx * sx + c11 * sx * sy + c02 * sy * sy
    a12 = 0.5 * (2 * c20 * sx * tx + c11 * (sx * ty + sy * tx) + 2 * c02 * sy * ty)
    a22 = c20 * tx * tx + c11 * tx * ty + c02 * ty * ty
    return a11, a12, a22


def second_derivative_matrix(sx, tx, sy, ty):
    """The 3x3 matrix relating (wss, wst, wtt) to (uxx, uxy, uyy).

    Its determinant equals det(J)^3, so invertibility of the map makes
    the second-derivative transfer uniquely solvable.
    """
    return np.array(
        [
            [sx * sx, 2 * sx * tx, tx * tx],
            [sx * sy, sx * ty + sy * tx, tx * ty],
            [sy * sy, 2 * sy * ty, ty * ty],
        ]
    )


@dataclass(frozen=True)
class WPointData:
    """Derivatives of w at the origin of characteristic coordinates,
    together with the mixed x-y derivative deduced from the pair."""

    w: float
    ws: float
    wt: float
    wss: float
    wst: float
    wtt: float
    uxy: float

    def as_array(self):
        return np.array([self.w, self.ws, self.wt, self.wss, self.wst, self.wtt])


def transfer_point_data(sys, cmap, data):
    """Transfer point data of u at (x0, y0) to data of w at (0, 0).

    ``data`` maps the keys ``u, ux, uy, uxx, uyy`` to values.  The mixed
    derivative ``uxy`` is deduced from whichever equation of the pair
    has the larger mixed-derivative coefficient at the point (positivity
    of the discriminant keeps them from vanishing together).  First
    derivatives of w invert the Jacobian relation; second derivatives
    solve the 3x3 system whose determinant is det(J)^3.
    """
    missing = [k for k in ("u", "ux", "uy", "uxx", "uyy") if k not in data]
    if missing:
        raise ValueError(f"point data missing entries: {', '.join(missing)}")
    x0, y0 = cmap.x0, cmap.y0
    h20, h11, h02, h10, h01, h00 = _second_order_values(sys.hyper, x0, y0)
    e20, e11, e02, e10, e01, e00 = _second_order_values(sys.ell, x0, y0)
    u, ux, uy = data["u"], data["ux"], data["uy"]
    uxx, uyy = data["uxx"], data["uyy"]

    scale = max(abs(v) for v in (h20, h11, h02, e20, e11, e02)) or 1.0
    if abs(h11) >= abs(e11):
        denom, rest = h11, h20 * uxx + h02 * uyy + h10 * ux + h01 * uy + h00 * u
    else:
        denom, rest = e11, e20 * uxx + e02 * uyy + e10 * ux + e01 * uy + e00 * u
    if abs(denom) <= _ZERO_TOL * scale:
        raise MapError(
            "mixed-derivative coefficients of both equations vanish at the point"
        )
    uxy = -rest / denom

    sx, tx, sy, ty = cmap.jacobian(x0, y0)
    det = sx * ty - tx * sy
    if abs(det) <= _ZERO_TOL:
        raise MapError("Jacobian singular at the base point")
    ws = (ty * ux - sy * uy) / det
    wt = (-tx * ux + sx * uy) / det

    sxx, sxy, syy, txx, txy, tyy = cmap.second_derivatives(x0, y0)
    rhs = np.array(
        [
            uxx - sxx * ws - txx * wt,
            uxy - sxy * ws - txy * wt,
            uyy - syy * ws - tyy * wt,
        ]
    )
    m3 = second_derivative_matrix(sx, tx, sy, ty)
    wss, wst, wtt = np.linalg.solve(m3, rhs)
    return WPointData(
        w=float(u), ws=float(ws), wt=float(wt),
        wss=float(wss), wst=float(wst), wtt=float(wtt), uxy=float(uxy),
    )
