"""Shared independent oracles for solver tests.

Kept apart from the package on purpose: these recompute reference
values through a different route than the code under test.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ucp2d import characteristics as ch
from ucp2d import pipeline as pl
from ucp2d import riemann as rm
from ucp2d.fields import Bin, Call, Const, EvalDomainError, Neg, ScalarField, Var, _bin, _neg
from ucp2d.geometry import Rect
from ucp2d.reduction import discriminant, reduce_system
from ucp2d.riemann import CauchyTraces
from ucp2d.tensors import A_NAMES, ElasticityCoefficients, ellipticity_margin

_ANISOTROPY = 0.25  # random tensors perturb each component by up to this times mu
_MAX_TRIES = 200  # draws before random_elliptic_tensor gives up
_SCAN_ANGLES = 360  # eta angles scanned per node by sampled_ellipticity_margin
_GOLDEN_STEPS = 60  # its golden-section steps around each node's scan minimum


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


@functools.cache
def bessel_representation():
    """``represent_solution`` of w = F(s t) with F the series above, which
    solves ds dt w + w = 0 (c1 = 1, epsilon = 0.5) with w(0, 0) = 1 and
    axis traces that vanish, on n = 257 nodes per axis with Picard
    tolerance 1e-12, at the 13 x 13 targets of the square; returns those
    values and the series at the targets.  Computed once, for the two
    tests that read it."""
    tsys = ch.TransformedSystem.from_constants(c1=1.0, epsilon=0.5)
    nodes = np.linspace(-0.5, 0.5, 257)
    traces = CauchyTraces(nodes, 0 * nodes, 0 * nodes)
    grid = np.linspace(-0.5, 0.5, 13)
    targets = [(s, t) for s in grid for t in grid]
    values = rm.represent_solution(rm.RiemannProvider(tsys, 257, tol=1e-12), 1.0, traces, targets)
    reference = np.array([hyperbolic_bessel_series(s * t) for s, t in targets])
    values.flags.writeable = reference.flags.writeable = False  # shared by every caller
    return values, reference


def hyperbolic_bessel_series_d(z, terms=60):
    """Derivative of the series with respect to z."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    for k in range(1, terms):
        coeff = (-1.0) ** k / (math.factorial(k) ** 2)
        out += coeff * k * z ** (k - 1)
    return out


def laplace_riemann(b11, b12, form, s, t, xi, eta):
    """R(s, t; xi, eta) of ``ds dt w + B11 ds w + B12 dt w + C1 w = 0`` when
    a Laplace invariant of the normal form vanishes, for callable B11 and
    B12 of (s, t).  The adjoint operator then factorises and R is the
    exponential of two line integrals:

    - ``form == 1``, C1 = dt B12 + B11 B12:
      R = exp(int_xi^s B12(sig, eta) dsig + int_eta^t B11(s, tau) dtau);
    - ``form == 2``, C1 = ds B11 + B11 B12:
      R = exp(int_eta^t B11(xi, tau) dtau + int_xi^s B12(sig, t) dsig).

    The integrals use 8-point Gauss-Legendre quadrature, exact for
    polynomial coefficients of degree below 16.
    """
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    x, w = np.polynomial.legendre.leggauss(8)

    def integral(f, a, b):
        # int_a^b f(u) du, the quadrature nodes u on a trailing axis
        half, mid = (b - a)[..., None] / 2.0, (b + a)[..., None] / 2.0
        u = half * x + mid
        return (half * np.broadcast_to(f(u), u.shape)) @ w

    xi, eta = np.full(s.shape, float(xi)), np.full(s.shape, float(eta))
    if form == 1:
        along_s = integral(lambda u: b12(u, eta[..., None]), xi, s)
        along_t = integral(lambda u: b11(s[..., None], u), eta, t)
    else:
        along_s = integral(lambda u: b12(u, t[..., None]), xi, s)
        along_t = integral(lambda u: b11(xi[..., None], u), eta, t)
    return np.exp(along_s + along_t)


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


def unsimplified_diff_node(node, var):
    """Derivative tree by the textbook rules with every ``0 * expr`` and
    ``expr + 0`` term kept: the reference for ``ucp2d.fields``, whose
    derivative trees drop the terms that are structurally zero."""
    if isinstance(node, (Const,)):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0 if node.name == var else 0.0)
    if isinstance(node, Neg):
        return _neg(unsimplified_diff_node(node.arg, var))
    if isinstance(node, Bin):
        u, v = node.lhs, node.rhs
        du, dv = unsimplified_diff_node(u, var), unsimplified_diff_node(v, var)
        if node.op in "+-":
            return _bin(node.op, du, dv)
        if node.op == "*":
            return _bin("+", _bin("*", du, v), _bin("*", u, dv))
        if node.op == "/":
            num = _bin("-", _bin("*", du, v), _bin("*", u, dv))
            return _bin("/", num, _bin("*", v, v))
        # power: literal exponents get the plain power rule (valid for
        # negative bases); general exponents go through exp/log
        if isinstance(v, Const):
            c = v.value
            return _bin("*", _bin("*", Const(c), _bin("^", u, Const(c - 1.0))), du)
        term1 = _bin("*", dv, Call("log", u))
        term2 = _bin("/", _bin("*", v, du), u)
        return _bin("*", node, _bin("+", term1, term2))
    a, da = node.arg, unsimplified_diff_node(node.arg, var)
    if node.fn == "exp":
        return _bin("*", node, da)
    if node.fn == "log":
        return _bin("/", da, a)
    if node.fn == "sin":
        return _bin("*", Call("cos", a), da)
    if node.fn == "cos":
        return _neg(_bin("*", Call("sin", a), da))
    return _bin("/", da, _bin("*", Const(2.0), node))


def unsimplified_differentiate(field, var):
    """``ucp2d.fields.differentiate`` with :func:`unsimplified_diff_node`."""
    return ScalarField(unsimplified_diff_node(field.ast, var))


def trace_family(m_field, x0, y0, bounds, mirrored, x, y):
    """Intercept, sensitivity and second variation ``(value, dvalue/d b0,
    d2value/d b0^2)`` of one family of characteristic curves, with ``m``
    and its first two derivatives along ``b`` evaluated through
    ``ucp2d.fields.evaluate`` at every RK4 stage: the reference for the
    tracer of ``ucp2d.characteristics``, which runs them from one compiled
    program.  ``bounds`` is the padded box ``((lo_a, hi_a), (lo_b,
    hi_b))`` in tracing order (independent variable first)."""
    dm_field = m_field.diff("x" if mirrored else "y")
    ddm_field = dm_field.diff("x" if mirrored else "y")

    def slope(a, b):
        if mirrored:
            return -m_field(b, a), -dm_field(b, a), -ddm_field(b, a)
        return -m_field(a, b), -dm_field(a, b), -ddm_field(a, b)

    def check(a, b):
        (lo_a, hi_a), (lo_b, hi_b) = bounds
        if np.any(b < lo_b) or np.any(b > hi_b) or np.any(a < lo_a - 1e-12) or np.any(a > hi_a + 1e-12):
            raise ch.MapError("characteristic curve escapes the working region")

    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    x, y = (a.ravel() for a in np.broadcast_arrays(x, y))
    if mirrored:
        a0, b0, a_ref, ref = y.astype(float), x.astype(float), y0, x0
    else:
        a0, b0, a_ref, ref = x.astype(float), y.astype(float), x0, y0
    span = a_ref - a0
    b = b0.copy()
    v = np.ones_like(b)
    w = np.zeros_like(b)

    def rhs(a_val, b_val, v_val, w_val):
        # dw/dtau = span (f_bb v^2 + f_b w), the second variational equation
        f, df, ddf = slope(a_val, b_val)
        return span * f, span * df * v_val, span * (ddf * v_val * v_val + df * w_val)

    h = 1.0 / ch._RK4_STEPS
    for k in range(ch._RK4_STEPS):
        tau = k * h
        check(a0 + span * tau, b)
        k1b, k1v, k1w = rhs(a0 + span * tau, b, v, w)
        k2b, k2v, k2w = rhs(a0 + span * (tau + h / 2), b + h / 2 * k1b, v + h / 2 * k1v,
                            w + h / 2 * k1w)
        k3b, k3v, k3w = rhs(a0 + span * (tau + h / 2), b + h / 2 * k2b, v + h / 2 * k2v,
                            w + h / 2 * k2w)
        k4b, k4v, k4w = rhs(a0 + span * (tau + h), b + h * k3b, v + h * k3v, w + h * k3w)
        b = b + h / 6 * (k1b + 2 * k2b + 2 * k3b + k4b)
        v = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        w = w + h / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
    check(np.full_like(b, a_ref), b)
    return b - ref, v, w


# -- the scalar kernel path: one table read and one coefficient lookup at a time


def grid_step(provider):
    """Spacing of the ``provider.n`` uniform nodes on [-epsilon, epsilon]."""
    return 2 * provider.tsys.epsilon / (provider.n - 1)


def _fd1(f, x, d, lo, hi):
    """Second-order first derivative with one-sided fallback at bounds."""
    if x - d < lo:
        return (-3 * f(x) + 4 * f(x + d) - f(x + 2 * d)) / (2 * d)
    if x + d > hi:
        return (3 * f(x) - 4 * f(x - d) + f(x - 2 * d)) / (2 * d)
    return (f(x + d) - f(x - d)) / (2 * d)


def _fd2(f, x, d, lo, hi):
    """Second derivative; shifts to a one-sided stencil at the bounds."""
    if x - d < lo:
        return (f(x) - 2 * f(x + d) + f(x + 2 * d)) / d**2
    if x + d > hi:
        return (f(x) - 2 * f(x - d) + f(x - 2 * d)) / d**2
    return (f(x + d) - 2 * f(x) + f(x - d)) / d**2


def scalar_kernel_PQ(tsys, provider, axis, nodes):
    """P(s, 0) or Q(0, t) node by node, with point coefficients and
    nested scalar difference quotients: the reference for
    ``ucp2d.riemann.kernel_PQ``."""
    eps = tsys.epsilon
    h = grid_step(provider)
    if axis == "s":
        lead, damp, pair = tsys.a11, tsys.b21, lambda a, b: (a, b)
    else:
        lead, damp, pair = tsys.a22, tsys.b22, lambda a, b: (b, a)
    out = np.empty(len(nodes))
    for k, v in enumerate(np.asarray(nodes, dtype=float)):
        here = pair(v, 0.0)
        tab = provider.table(here)
        d_eval = _fd1(lambda z: tab.value(*pair(z, 0.0)), v, h, -eps, eps)
        d_cross = _fd1(lambda z: tab.value(*pair(v, z)), 0.0, h, -eps, eps)
        d_param = _fd1(
            lambda z: provider.table(pair(z, 0.0)).value(*here),
            v, min(2 * h, max(eps - abs(v), h)), -eps, eps,
        )
        out[k] = (float(lead(*here)) * (d_eval + 2 * d_param)
                  + 2 * float(tsys.a12(*here)) * d_cross
                  + float(damp(*here)) * tab.value(*here))
    return out


def scalar_apply_L(tsys, f, at, step):
    """The parameter-space elliptic operator at one point, from nested
    scalar difference quotients: the reference for
    ``ucp2d.riemann.apply_L``."""
    lo, hi = -tsys.epsilon, tsys.epsilon
    xi0, eta0 = at
    fxx = _fd2(lambda z: f(z, eta0), xi0, step, lo, hi)
    fyy = _fd2(lambda z: f(xi0, z), eta0, step, lo, hi)
    fx = _fd1(lambda z: f(z, eta0), xi0, step, lo, hi)
    fy = _fd1(lambda z: f(xi0, z), eta0, step, lo, hi)
    fxy = _fd1(lambda z: _fd1(lambda zz: f(zz, z), xi0, step, lo, hi), eta0, step, lo, hi)
    return (
        float(tsys.a11(xi0, eta0)) * fxx + 2 * float(tsys.a12(xi0, eta0)) * fxy
        + float(tsys.a22(xi0, eta0)) * fyy + float(tsys.b21(xi0, eta0)) * fx
        + float(tsys.b22(xi0, eta0)) * fy + float(tsys.c2(xi0, eta0)) * f(xi0, eta0)
    )


def scalar_kernel_table(tsys, provider, axis, nodes, step):
    """Kernel rows of the trace equation on ``axis`` over all of
    ``nodes``, one scalar ``apply_L`` call per row on tables of the whole
    square: the reference for the ucp stage's kernel tables."""
    rows = []
    for s in nodes:
        if axis == "s":
            rows.append(scalar_apply_L(
                tsys, lambda xi, eta: provider.table((xi, eta)).value(nodes, 0.0), (s, 0.0), step))
        else:
            rows.append(scalar_apply_L(
                tsys, lambda xi, eta: provider.table((xi, eta)).value(0.0, nodes), (0.0, s), step))
    return np.array(rows)


# -- the per-table Riemann path: one Picard loop per table, rows read by value


def round_key(parameter):
    """A parameter point rounded to 14 decimals, one Python ``round`` per
    entry: the reference for ``ucp2d.riemann._keys``."""
    return (round(float(parameter[0]), 14), round(float(parameter[1]), 14))


def solve_riemann_tables(tsys, parameters, n, tol=1e-10, reach=np.inf):
    """One table per parameter point, in order, each solved in one batch of
    ``ucp2d.riemann._solve_windows`` and owning its values."""
    points = np.array([(float(p[0]), float(p[1])) for p in parameters]).reshape(-1, 2)
    solved = rm._solve_windows(tsys, points, n, tol, reach)
    return [solved.table(k) for k in range(len(points))]


class CachedTables(rm.RiemannProvider):
    """A ``RiemannProvider`` that keeps each table it builds, keyed by
    :func:`round_key`: one table object per key, whichever route built it."""

    def __init__(self, tsys, n, tol=1e-10, reach=np.inf):
        super().__init__(tsys, n, tol, reach)
        self._cache = {}

    def table(self, parameter):
        key = round_key(parameter)
        if key not in self._cache:
            self._cache[key] = super().table(parameter)
        return self._cache[key]

    def tables(self, parameters):
        """The tables of ``parameters``, in order; those not yet kept are
        solved in one :func:`solve_riemann_tables` batch."""
        keys = [round_key(p) for p in parameters]
        missing = [k for k in dict.fromkeys(keys) if k not in self._cache]
        if missing:
            solved = solve_riemann_tables(self.tsys, missing, self.n, self.tol, self.reach)
            self._cache.update(zip(missing, solved))
        return [self._cache[k] for k in keys]


def axis_slice(tab, axis):
    """The values of ``tab`` along t = 0 (axis 's') or s = 0 (axis 't'),
    with their nodes."""
    if axis == "s":
        return tab.s_nodes, tab.values[:, rm._origin(tab.t_nodes)]
    return tab.t_nodes, tab.values[rm._origin(tab.s_nodes), :]


def window(uniform, centre, reach):
    """Nodes of one axis of a table's window, one centre at a time: the
    ``uniform`` nodes on [-eps, eps] from ``reach`` below min(0, centre) to
    ``reach`` above max(0, centre), augmented with ``centre`` when it is off
    that grid.  Returns the nodes, the index of ``centre`` among them, and
    the slice of ``uniform`` they are (None once augmented): the reference
    for ``ucp2d.riemann._windows`` and ``_window_rows``."""
    pad = 1e-12 * max(uniform[-1], 1.0)
    lo, hi = min(0.0, centre) - reach - pad, max(0.0, centre) + reach + pad
    cut = slice(int(np.searchsorted(uniform, lo)), int(np.searchsorted(uniform, hi, "right")))
    nodes = uniform[cut]
    if not np.any(np.abs(nodes - centre) <= pad):
        nodes, cut = np.sort(np.append(nodes, centre)), None
    return nodes, int(np.argmin(np.abs(nodes - centre))), cut


def picard_solve_riemann(tsys, parameter, n, tol=1e-10, reach=np.inf):
    """One table from its own Picard loop, the iterate compared with the
    previous one after every step: the reference for
    ``ucp2d.riemann._solve_windows``, which iterates a padded stack
    of tables of one shape class together.  ``reach`` is one distance or
    a pair (along s, along t).  A window of uniform nodes is sliced from
    the coefficients on the whole uniform grid, as there."""
    if n < 9:
        raise ValueError("need at least 9 nodes per axis")
    if tol <= 0:
        raise ValueError("tol must be positive")
    xi, eta = (float(parameter[0]), float(parameter[1]))
    eps = tsys.epsilon
    if abs(xi) > eps + 1e-12 or abs(eta) > eps + 1e-12:
        raise ValueError("parameter point outside the working square")
    uniform = np.linspace(-eps, eps, n)
    s_reach, t_reach = np.broadcast_to(reach, 2)
    s_nodes, i_xi, s_cut = window(uniform, xi, s_reach)
    t_nodes, j_eta, t_cut = window(uniform, eta, t_reach)
    if s_cut is not None and t_cut is not None:
        grid = rm._coefficient_grid(tsys, uniform, uniform)
        b12, b11, c1 = (g[s_cut, t_cut] for g in grid)
    else:
        b12, b11, c1 = rm._coefficient_grid(tsys, s_nodes, t_nodes)
    ds, dt = np.diff(s_nodes)[:, None], np.diff(t_nodes)[None, :]

    def picard(r):
        cs = rm._cumulative_trapezoid(b12 * r, ds, 0)
        int_s = cs - cs[i_xi, :][None, :]
        ct = rm._cumulative_trapezoid(b11 * r, dt, 1)
        int_t = ct - ct[:, j_eta][:, None]
        d = rm._cumulative_trapezoid(c1 * r, dt, 1)
        d = d - d[:, j_eta][:, None]
        dd = rm._cumulative_trapezoid(d, ds, 0)
        int_st = dd - dd[i_xi, :][None, :]
        return 1.0 + int_s + int_t - int_st

    r = np.ones(b12.shape)
    for it in range(1, rm._PICARD_MAX_ITER + 1):
        r_new = picard(r)
        diff = float(np.max(np.abs(r_new - r)))
        r = r_new
        if diff <= tol:
            break
    else:
        raise rm.SolveError(
            f"Picard iteration did not contract to {tol} within {rm._PICARD_MAX_ITER} steps"
        )
    residual = float(np.max(np.abs(picard(r) - r)))
    return rm.RiemannTable(
        parameter=(xi, eta), s_nodes=s_nodes, t_nodes=t_nodes, values=r,
        iterations=it, residual=residual,
    )


def nine_call_apply_L(tsys, f, at, step):
    """``ucp2d.riemann.apply_L`` with ``f`` called once per stencil point
    pair ``(m, k)`` instead of once on the nine stacked: the reference for
    its summation order."""
    lo, hi = -tsys.epsilon, tsys.epsilon
    xi0, eta0 = at
    a11, a12, a22, b21, b22, c2 = (
        np.asarray(c(xi0, eta0), dtype=float)
        for c in (tsys.a11, tsys.a12, tsys.a22, tsys.b21, tsys.b22, tsys.c2)
    )
    xs, ex, d1x, d2x = rm._stencils(xi0, step, lo, hi)
    ys, ey, d1y, d2y = rm._stencils(eta0, step, lo, hi)
    out = 0.0
    for m in range(3):
        for k in range(3):
            w = (
                a11 * d2x[m] * ey[k] + 2 * a12 * d1x[m] * d1y[k] + a22 * ex[m] * d2y[k]
                + b21 * d1x[m] * ey[k] + b22 * ex[m] * d1y[k] + c2 * ex[m] * ey[k]
            )
            vals = np.asarray(f(xs[m], ys[k]), dtype=float)
            out = out + w.reshape(w.shape + (1,) * (vals.ndim - w.ndim)) * vals
    return out


def value_kernel_table(tsys, provider, axis, nodes, step):
    """Kernel rows of the trace equation on ``axis``, each row segment read
    through ``RiemannTable.value`` one table at a time: the reference for
    ``ucp2d.riemann._kernel_table``, which batches the tables and reads
    rows at the tables' nodes."""
    zero = np.zeros_like(nodes)
    at = (nodes, zero) if axis == "s" else (zero, nodes)
    i0 = int(np.argmin(np.abs(nodes)))
    segments = [np.arange(min(i, i0), max(i, i0) + 1) for i in range(len(nodes))]

    def rows(xi, eta):
        out = np.full((len(nodes), len(nodes)), np.nan)
        for i, seg in enumerate(segments):
            sig = nodes[seg]
            point = (sig, 0.0) if axis == "s" else (0.0, sig)
            out[i, seg] = provider.table((xi[i], eta[i])).value(*point)
        return out

    return nine_call_apply_L(tsys, rows, at, step)


def loop_represent_solution(provider, w00, traces, targets):
    """The representation formula at each target, one table at a time from
    ``provider.tables``, read on its two axis slices with ``np.interp``:
    the reference for ``ucp2d.riemann.represent_solution``, which reads
    the tables as stack arrays."""

    def integral_to(nodes, values, b):
        cum = rm._cumulative_trapezoid(values, np.diff(nodes), 0)
        return np.interp(b, nodes, cum) - np.interp(0.0, nodes, cum)

    out = np.empty(len(targets))
    for k, ((s, t), tab) in enumerate(zip(targets, provider.tables(targets))):
        s_nodes, s_vals = axis_slice(tab, "s")
        t_nodes, t_vals = axis_slice(tab, "t")
        val = w00 * t_vals[np.argmin(np.abs(t_nodes))]
        val += integral_to(s_nodes, s_vals * np.interp(s_nodes, traces.nodes, traces.phi), s)
        val += integral_to(t_nodes, t_vals * np.interp(t_nodes, traces.nodes, traces.psi), t)
        out[k] = val
    return out


def list_volterra_ivp(leading, damping, kernel, forcing, interval, n):
    """``ucp2d.riemann.volterra_ivp`` with the known nodes of each step taken
    as a list of indices, both ways from 0, and each step's trapezoid
    weights formed anew: the reference for its march on slices and
    reversed views with weights formed once per march."""
    nodes = np.linspace(float(interval[0]), float(interval[1]), n)
    i0 = int(np.argmin(np.abs(nodes)))
    lead, damp, force = (np.asarray([f(s) for s in nodes], dtype=float)
                         for f in (leading, damping, forcing))
    k_table = np.array([np.broadcast_to(kernel(s, nodes), (n,)) for s in nodes], dtype=float)
    u = np.zeros(n)
    for direction, idx in ((1, range(i0, n - 1)), (-1, range(i0, 0, -1))):
        for i in idx:
            j = i + direction
            h_s = nodes[j] - nodes[i]
            known = list(range(i0, i + direction, direction))
            sig = nodes[known]
            int_i = np.trapezoid(k_table[i, known] * u[known], sig) if len(sig) > 1 else 0.0
            du_i = (force[i] - damp[i] * u[i] - int_i) / lead[i]
            steps = np.diff(nodes[known + [j]])
            w = np.zeros(len(known) + 1)
            w[:-1] += steps / 2
            w[1:] += steps / 2
            int_j_known = float(np.dot(w[:-1], k_table[j, known] * u[known]))
            denom = 1.0 + (h_s / 2) * (damp[j] + w[-1] * k_table[j, j]) / lead[j]
            rhs = u[i] + (h_s / 2) * du_i + (h_s / 2) * (force[j] - int_j_known) / lead[j]
            u[j] = rhs / denom
    return nodes, u


def bilinear(table, s, t):
    """Bilinear interpolation in a Riemann table, clamped to its end cells
    and extrapolated linearly beyond them: the reference for
    ``RiemannTable.value`` inside the table."""
    s, t = np.broadcast_arrays(np.atleast_1d(np.asarray(s, dtype=float)),
                               np.atleast_1d(np.asarray(t, dtype=float)))
    i = np.clip(np.searchsorted(table.s_nodes, s) - 1, 0, len(table.s_nodes) - 2)
    j = np.clip(np.searchsorted(table.t_nodes, t) - 1, 0, len(table.t_nodes) - 2)
    s0, s1 = table.s_nodes[i], table.s_nodes[i + 1]
    t0, t1 = table.t_nodes[j], table.t_nodes[j + 1]
    ws = np.where(s1 > s0, (s - s0) / np.where(s1 > s0, s1 - s0, 1.0), 0.0)
    wt = np.where(t1 > t0, (t - t0) / np.where(t1 > t0, t1 - t0, 1.0), 0.0)
    return (
        table.values[i, j] * (1 - ws) * (1 - wt)
        + table.values[i + 1, j] * ws * (1 - wt)
        + table.values[i, j + 1] * (1 - ws) * wt
        + table.values[i + 1, j + 1] * ws * wt
    )


# -- criterion 3's symbolic oracle: point data on a closed-form family


@dataclass(frozen=True)
class PointDataFit:
    coefficients: np.ndarray
    rank: int
    deficient: bool
    matrix: np.ndarray
    observed: tuple
    null_combinations: np.ndarray  # (n_free, n_basis) unresolved directions


def _field_derivative(f, key):
    if key == "u":
        return f
    if key == "ux":
        return f.diff("x")
    if key == "uy":
        return f.diff("y")
    if key == "uxx":
        return f.diff("x").diff("x")
    if key == "uxy":
        return f.diff("x").diff("y")
    if key == "uyy":
        return f.diff("y").diff("y")
    raise ValueError(f"unknown point-data key {key!r}")


def point_data_solve(family_basis, data, at, rank_threshold=1e-9):
    """Fit family coefficients to observed point values, reporting rank.

    ``data`` maps observation keys (among u, ux, uy, uxx, uxy, uyy) to
    values at the point ``at``.  Full column rank with zero data forces
    the zero member; rank deficiency means the observations cannot pin
    the family, and the unresolved directions are returned.
    """
    keys = [k for k in ("u", "ux", "uy", "uxx", "uxy", "uyy") if k in data]
    if set(keys) != set(data):
        raise ValueError("unknown point-data keys present")
    x0, y0 = at
    m = np.array(
        [[_field_derivative(f, k)(x0, y0) for f in family_basis] for k in keys]
    )
    rhs = np.array([float(data[k]) for k in keys])
    coeffs, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    sv = np.linalg.svd(m, compute_uv=False)
    rank = int(np.sum(sv > rank_threshold * sv[0])) if sv[0] > 0 else 0
    deficient = rank < len(family_basis)
    if deficient:
        _, _, vt = np.linalg.svd(m)
        null = vt[rank:]
    else:
        null = np.zeros((0, len(family_basis)))
    return PointDataFit(
        coefficients=coeffs,
        rank=rank,
        deficient=deficient,
        matrix=m,
        observed=tuple(keys),
        null_combinations=null,
    )


# -- test inputs and symbolic checks --------------------------------------


def _least_eigenvalue(a, theta):
    """Least eigenvalue of the acoustic tensor at eta = (cos theta, sin theta)."""
    c, s = np.cos(theta), np.sin(theta)
    cc, cs, ss = c * c, c * s, s * s
    m11 = a["a1111"] * cc + 2 * a["a1112"] * cs + a["a1212"] * ss
    m12 = a["a1112"] * cc + (a["a1122"] + a["a1212"]) * cs + a["a1222"] * ss
    m22 = a["a1212"] * cc + 2 * a["a1222"] * cs + a["a2222"] * ss
    return 0.5 * (m11 + m22) - np.hypot(0.5 * (m11 - m22), m12)


def sampled_ellipticity_margin(coeffs, region, n):
    """Reference for ``ellipticity_margin`` by sampling: per node of the
    ``n x n`` grid, the least eigenvalue of the acoustic tensor on 360 eta
    angles, then 60 golden-section steps around the scan minimum.  Every
    value is the form at a unit pair, so the exact minimum lies at or
    below it.  Returns that value and the largest tensor entry on the grid."""
    xg, yg = np.meshgrid(*region.grid(n), indexing="ij")
    a = {name: getattr(coeffs, name)(xg, yg).reshape(-1, 1) for name in A_NAMES}
    h = np.pi / _SCAN_ANGLES
    scan = _least_eigenvalue(a, h * np.arange(_SCAN_ANGLES))
    k = np.argmin(scan, axis=1)[:, None]
    lo, hi = h * (k - 1), h * (k + 1)
    best = scan.min()
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(_GOLDEN_STEPS):
        c, d = hi - g * (hi - lo), lo + g * (hi - lo)
        fc, fd = _least_eigenvalue(a, c), _least_eigenvalue(a, d)
        best = min(best, fc.min(), fd.min())
        left = fc < fd  # the minimum lies in [lo, d]
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
    return float(best), max(float(np.abs(v).max()) for v in a.values())


def random_elliptic_tensor(rng, require_delta_positive=True):
    """Random constant coefficient set with a certified ellipticity margin.

    Perturbs an isotropic base tensor componentwise and rejects samples
    whose ellipticity margin or discriminant is not safely positive.
    """
    probe = Rect.square(0.0, 0.0, 1e-3)
    for _ in range(_MAX_TRIES):
        mu = rng.uniform(0.5, 2.0)
        lam = rng.uniform(-0.4 * mu, 2.0)
        base = {
            "a1111": 2 * mu + lam,
            "a1112": 0.0,
            "a1122": lam,
            "a1212": mu,
            "a1222": 0.0,
            "a2222": 2 * mu + lam,
        }
        delta = {k: rng.uniform(-_ANISOTROPY, _ANISOTROPY) * mu for k in base}
        comp = {k: base[k] + delta[k] for k in base}
        coeffs = ElasticityCoefficients.from_components(comp)
        if ellipticity_margin(coeffs, probe, 2) <= 0.01 * mu:
            continue
        hyper = reduce_system(coeffs).hyper
        if require_delta_positive and discriminant(*hyper.principal_values(0.0, 0.0)) <= 0.01:
            continue
        return coeffs
    raise RuntimeError("failed to sample a strongly elliptic tensor")


def with_divergence_form_lower_order(coeffs):
    """Lower-order terms produced by expanding div(a grad u).

    ``b_ikl = dx a_i1kl + dy a_i2kl``; zeroth-order terms stay zero.
    Constant-coefficient tensors come back unchanged apart from
    explicit zero entries.
    """
    b = {}
    for i in (1, 2):
        for k in (1, 2):
            for l in (1, 2):
                f = coeffs.a(i, 1, k, l).diff("x") + coeffs.a(i, 2, k, l).diff("y")
                b[(i, k, l)] = f
    return ElasticityCoefficients(
        a1111=coeffs.a1111,
        a1112=coeffs.a1112,
        a1122=coeffs.a1122,
        a1212=coeffs.a1212,
        a1222=coeffs.a1222,
        a2222=coeffs.a2222,
        b=b,
        c=dict(coeffs.c),
    )


def residual(sys, u2, region, n):
    """Sup-norms of both operators applied to a candidate solution.

    The application is symbolic; the returned pair is the max of the
    absolute residuals over an ``n x n`` grid on ``region``.
    """
    xs, ys = region.grid(n)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    r_hyper = sys.hyper.apply(u2)(xg, yg)
    r_ell = sys.ell.apply(u2)(xg, yg)
    return float(np.max(np.abs(r_hyper))), float(np.max(np.abs(r_ell)))


def cauchy_traces_from_w(tsys, w, ws, wt, n):
    """Build traces from callables for w and its first partials."""
    nodes = np.linspace(-tsys.epsilon, tsys.epsilon, n)
    zero = np.zeros_like(nodes)
    phi = np.asarray(ws(nodes, zero)) + np.asarray(tsys.b12(nodes, zero)) * np.asarray(
        w(nodes, zero)
    )
    psi = np.asarray(wt(zero, nodes)) + np.asarray(tsys.b11(zero, nodes)) * np.asarray(
        w(zero, nodes)
    )
    return CauchyTraces(nodes=nodes, phi=phi, psi=psi)


# -- the null-space solver on full-width block rows -------------------------
# The banded QR factor, its solves and the inverse iteration as they were
# while R's block rows were stored at the band's full width w + p, read the
# rows through a sorted copy of the operator and checked every step on A V:
# references that the envelope-width solver must match byte for byte.


def full_width_band_sorted(a):
    a = a.tocsr(copy=True)
    a.eliminate_zeros()
    a.sort_indices()
    rows = np.flatnonzero(np.diff(a.indptr))
    lead = a.indices[a.indptr[rows]]
    last = a.indices[a.indptr[rows + 1] - 1]
    order = np.argsort(lead, kind="stable")
    return a[rows[order]], lead[order], int((last - lead).max())


def full_width_banded_r(a_sparse):
    """R as ``(p, w + p, m)`` block rows, zero past each row's envelope."""
    from scipy.linalg.lapack import dtpqrt

    a, lead, w = full_width_band_sorted(a_sparse)
    ncol, p = a.shape[1], max(w // pl._PANEL_DIVISOR, 1)
    size, m = w + p, -(-ncol // p)
    last = a.indices[a.indptr[1:] - 1] + 1
    reach = 0
    window = np.zeros((0, 0), order="F")
    blocks = np.zeros((p, size, m), order="F")
    for i, c0 in enumerate(range(0, m * p, p)):
        r0, r1 = np.searchsorted(lead, [c0, c0 + p])
        reach = max(reach, last[r0:r1].max(initial=0))
        e = min(max(reach - c0, p), size)
        held, window = window[p:, p:], np.zeros((e, e), order="F")
        window[:len(held), :len(held)] = held
        lo, hi = a.indptr[r0], a.indptr[r1]
        rows = np.zeros((r1 - r0, e), order="F")
        row_of = np.repeat(np.arange(r1 - r0), np.diff(a.indptr[r0:r1 + 1]))
        rows[row_of, a.indices[lo:hi] - c0] = a.data[lo:hi]
        window, *_ = dtpqrt(0, min(pl._TPQRT_BLOCK, e), window, rows,
                            overwrite_a=True, overwrite_b=True)
        blocks[:, :e, i] = window[:p]
    pad = np.arange(ncol - (m - 1) * p, p)
    blocks[pad, pad, -1] = 1.0
    return blocks


def full_width_block_solve(blocks, y, trans):
    from scipy.linalg.blas import dgemm, dtrsm

    p, size, m = blocks.shape
    ncol, k = y.shape
    xt = np.zeros((k, (m - 1) * p + size), order="F")
    xt[:, :ncol] = y.T
    for i in range(m) if trans else range(m - 1, -1, -1):
        c0 = i * p
        tri, rest = blocks[:, :p, i], blocks[:, p:, i]
        head, tail = xt[:, c0:c0 + p], xt[:, c0 + p:c0 + size]
        if trans:
            dtrsm(1.0, tri, head, side=1, overwrite_b=1)
            dgemm(-1.0, head, rest, 1.0, tail, overwrite_c=1)
        else:
            dgemm(-1.0, tail, rest, 1.0, head, trans_b=1, overwrite_c=1)
            dtrsm(1.0, tri, head, side=1, trans_a=1, overwrite_b=1)
    return xt[:, :ncol].T


def full_width_floor_pivots(blocks):
    on_diagonal = np.arange(blocks.shape[0])
    diag = blocks[on_diagonal, on_diagonal]
    floor = max(np.abs(diag).max(), 1.0) * 1e-150
    blocks[on_diagonal, on_diagonal] = np.where(np.abs(diag) < floor, floor, diag)


def full_width_smallest_right_vectors(a_sparse, blocks, k, sigma_max):
    """Ritz values and vectors with a Rayleigh-Ritz step on ``A V`` every
    step, the count of steps, and the largest distance over the steps
    between those Ritz values and ``1 / sigma(T)`` for the triangle ``T``
    of the step's last QR, relative to the stopping rule's scale."""
    from scipy.linalg.lapack import dtrtri

    full_width_floor_pivots(blocks)
    rng = np.random.default_rng(0)
    v, _ = np.linalg.qr(rng.standard_normal((a_sparse.shape[1], k)))
    watched = slice(0, max(k - pl._RITZ_GUARD, 1))
    previous, discrepancy = None, 0.0
    for step in range(1, pl._INVERSE_ITERATION_CAP + 1):
        v, _ = np.linalg.qr(full_width_block_solve(blocks, v, True))
        v, t = np.linalg.qr(full_width_block_solve(blocks, v, False))
        _, ritz, zt = np.linalg.svd(np.linalg.qr(a_sparse @ v, mode="r"))
        ritz = ritz[::-1]
        scale = np.maximum(ritz, 1e-2 * sigma_max)[watched]
        guess = np.linalg.svd(dtrtri(t)[0], compute_uv=False)[::-1]
        discrepancy = max(discrepancy, float((np.abs(guess - ritz)[watched] / scale).max()))
        if previous is not None:
            change = float((np.abs(ritz - previous)[watched] / scale).max())
            if change <= 1e-13:
                return ritz, v @ zt.T[:, ::-1], step, discrepancy
        previous = ritz
    raise ValueError("inverse iteration did not converge")
