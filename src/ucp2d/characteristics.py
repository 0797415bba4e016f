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

Maps.  Each kind of map gives one evaluator of (s, t) and, by order,
their first and second partials, and one inverse, both on flat arrays;
:func:`_map` builds every evaluator of a :class:`CharacteristicMap` from
them under one shape rule.  Constant coefficients give a closed-form
linear map.  Otherwise each coordinate of a point is found by tracing
its characteristic to the reference line with RK4.  The first
variational equation, integrated alongside, gives the derivative along
the reference line's direction, and the slope ratio the other one; the
second variation gives the second derivatives in the same trace.  The
inverse is a Newton iteration from the base point's jet, which is
computed once per map and also serves the origin's coefficients and the
transfer of point data.  The slopes m- and m+ are built from the same
coefficients, so either both depend on the traced axis or neither does.
When neither does, one loop traces both families: RK4 is then Simpson's
rule and the variations keep their start, and since the slopes then
depend on a start only through its coordinate along the traced axis, that
loop reads them once per distinct start, a block of nodes per program
run.  Otherwise the four-stage loop runs once per family.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ucp2d.fields import Call, EvalDomainError, FieldGroup, ScalarField
from ucp2d.reduction import discriminant

__all__ = [
    "MapError",
    "TransformError",
    "CharacteristicMap",
    "TransformedSystem",
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
# Points (nodes x distinct starts) that one slope-program run of a
# slope-only trace reads at most: its block of RK4 steps is as long as keeps
# it within this (_trace_slopes).  8,192 points are arrays of 64 kB, under
# glibc's 128 kB mmap threshold.  On the benchmark's traced scenario (2 to
# 749 distinct starts per trace) the traces took 22-24 ms per run at 8,192,
# 30 ms at 16,384 and 33-35 ms at 4,096, against about 95 ms reading every
# point at every node; fixed blocks of 8 steps (16 x 708 points on its
# Riemann grid) raised the peak of its anonymous memory by about 0.2 MB.
_TRACE_BLOCK_POINTS = 8192
_NEWTON_STEPS = 25  # Newton steps allowed to invert a traced map


class MapError(ValueError):
    """Characteristic map construction failed (hyperbolicity, escape,
    or degenerate Jacobian)."""


class TransformError(ValueError):
    """Coordinate change did not produce the expected normal form."""


def _case(h20, h11, h02):
    """The case of the map from the hyperbolic principal coefficients at
    one point or on a grid: the identity when ``h20`` and ``h02`` are
    negligible everywhere, else the parametrisation whose leading
    coefficient is bounded away from zero."""
    h20, h02 = np.abs(h20), np.abs(h02)
    tol = _ZERO_TOL * max(np.max(h20), np.max(np.abs(h11)), np.max(h02))
    if np.max(h20) <= tol and np.max(h02) <= tol:
        return CASE_IDENTITY
    if np.min(h20) > tol:
        return CASE_A1112
    if np.min(h02) > tol:
        return CASE_A1222
    raise MapError("neither leading coefficient is bounded away from zero on the region")


@dataclass(frozen=True)
class CharacteristicMap:
    """Invertible change of variables to characteristic coordinates.

    ``jacobian`` returns the tuple ``(sx, tx, sy, ty)`` of first
    partials, ``second_derivatives`` the tuple ``(sxx, sxy, syy, txx,
    txy, tyy)``, and ``jet`` both tuples from one evaluation.
    ``base_jet()`` is the jet at ``(x0, y0)``, computed once per map.
    Every evaluator takes floats or arrays, under :func:`_shaped`'s rule.
    """

    case: str
    x0: float
    y0: float
    forward: object
    jacobian: object
    second_derivatives: object
    jet: object
    base_jet: object
    inverse: object
    linear: bool


def _shaped(fn, x, y, *args):
    """The tuple ``fn(x, y, *args)`` on ``x`` and ``y`` broadcast and
    flattened to float arrays, each value put back in the broadcast
    shape, or a float when both arguments are scalars."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    values = fn(np.ravel(x), np.ravel(y), *args)
    if shape:
        return tuple(np.reshape(v, shape) for v in values)
    return tuple(float(v[0]) for v in values)


def _map(case, x0, y0, evaluate, inverse, linear):
    """The map of one kind from its primitives on flat float arrays:
    ``evaluate(x, y, order)`` gives ``(s, t)``, then from order 1 the
    first partials ``(sx, tx, sy, ty)`` and at order 2 the second
    ``(sxx, sxy, syy, txx, txy, tyy)``; ``inverse(s, t, base_jet)`` gives
    ``(x, y)`` and may start from the map's cached base jet."""

    def jet(x, y):
        values = _shaped(evaluate, x, y, 2)
        return values[2:6], values[6:]

    base_jet = functools.cache(lambda: jet(x0, y0))
    return CharacteristicMap(
        case=case,
        x0=x0,
        y0=y0,
        forward=lambda x, y: _shaped(evaluate, x, y, 0),
        jacobian=lambda x, y: _shaped(evaluate, x, y, 1)[2:],
        second_derivatives=lambda x, y: jet(x, y)[1],
        jet=jet,
        base_jet=base_jet,
        inverse=lambda s, t: _shaped(inverse, s, t, base_jet),
        linear=linear,
    )


def _linear_map(case, x0, y0, roots):
    """The closed-form map of the constant slope ratios ``roots``."""
    if case == CASE_A1222:
        # s, t measured as x-intercepts on the line y = y0
        j = np.array([[1.0, 1.0], roots])
    elif case == CASE_A1112:
        j = np.array([roots, [1.0, 1.0]])
    else:
        j = np.eye(2)
    jt_inv = np.linalg.inv(j.T)
    (sx, tx), (sy, ty) = j

    def evaluate(x, y, order):
        dx, dy = x - x0, y - y0
        values = (sx * dx + sy * dy, tx * dx + ty * dy)
        if order:
            values += tuple(np.full_like(x, v) for v in (sx, tx, sy, ty))
        if order == 2:
            values += (np.zeros_like(x),) * 6
        return values

    def inverse(s, t, _):
        return (x0 + jt_inv[0, 0] * s + jt_inv[0, 1] * t,
                y0 + jt_inv[1, 0] * s + jt_inv[1, 1] * t)

    return _map(case, x0, y0, evaluate, inverse, linear=True)


def _check(bounds, b, a=None):
    """Raise when a curve leaves the padded box ``bounds``, given as
    ``((lo_a, hi_a), (lo_b, hi_b))`` in tracing order.  ``b`` is checked
    at every step; ``a`` only at the two ends of the trace, before the
    first step, since a = a0 + span * tau is affine in tau and the bound
    has 1e-12 of slack for its rounding in between."""
    (lo_a, hi_a), (lo_b, hi_b) = bounds
    if np.any(b < lo_b) or np.any(b > hi_b) or (
        a is not None and (np.any(a < lo_a - 1e-12) or np.any(a > hi_a + 1e-12))
    ):
        raise MapError("characteristic curve escapes the working region")


def _trace_family(slope, a0, b0, span, bounds, mirrored):
    """Trace one family of characteristic curves from ``(a0, b0)`` to the
    reference line ``a = a0 + span`` with four-stage RK4.

    The rescaled independent variable tau runs over [0, 1] with
    ``db/dtau = -span * m``.  ``slope`` is the group ``(m, dm)`` or
    ``(m, dm, d2m)``, derivatives along b.  The sensitivity ``v = db/db0``
    is integrated alongside through the variational equation and, for
    the second group, the second variation ``w = dv/db0`` through its own
    (Hairer, Norsett & Wanner, Solving ODEs I, sec. I.14).  Returns the
    end state ``[b, v]`` or ``[b, v, w]``; the caller checks the start.
    """
    state = [b0, np.ones_like(b0)]
    if len(slope.fields) == 3:
        state.append(np.zeros_like(b0))

    def rhs(a_val, state):
        # independent variable first; mirrored tracing integrates x over y
        derivs = slope(state[0], a_val) if mirrored else slope(a_val, state[0])
        v_val, df = state[1], -derivs[1]
        out = [span * -derivs[0], span * df * v_val]
        if len(state) == 3:
            # dw/dtau = span (f_bb v^2 + f_b w)
            ddf = -derivs[2]
            out.append(span * (ddf * v_val * v_val + df * state[2]))
        return out

    h = 1.0 / _RK4_STEPS
    for k in range(_RK4_STEPS):
        tau = k * h
        k1 = rhs(a0 + span * tau, state)
        k2 = rhs(a0 + span * (tau + h / 2), [u + h / 2 * d for u, d in zip(state, k1)])
        k3 = rhs(a0 + span * (tau + h / 2), [u + h / 2 * d for u, d in zip(state, k2)])
        k4 = rhs(a0 + span * (tau + h), [u + h * d for u, d in zip(state, k3)])
        state = [u + h / 6 * (d1 + 2 * d2 + 2 * d3 + d4)
                 for u, d1, d2, d3, d4 in zip(state, k1, k2, k3, k4)]
        _check(bounds, state[0])
    return state


def _start_groups(a0):
    """``(reps, group)``: one point of each distinct bit pattern of ``a0``,
    and each point's group, an index into ``reps``.  The patterns go
    through a dict: a numpy sort of them would page in about 0.2 MB of
    sort code that a traced run does not otherwise touch."""
    keys = np.ascontiguousarray(a0).view(np.uint64).tolist()
    last = dict(zip(keys, range(len(keys))))  # each pattern's last point
    rep = np.fromiter(map(last.__getitem__, keys), np.intp, len(keys))
    reps = np.flatnonzero(rep == np.arange(len(keys)))
    group = np.empty(len(keys), np.intp)
    group[reps] = np.arange(reps.size)
    return reps, group[rep]


def _trace_slopes(slopes, a0, b0, span, bounds, mirrored):
    """End ``b`` of one family per field of ``slopes``, all traced as
    :func:`_trace_family` traces them, through the same points in one
    loop; no field may depend on b.

    RK4 on a right-hand side that does not read the state is Simpson's
    rule (Hairer, Norsett & Wanner, sec. II.1): the two midpoint stages
    are equal and each step's last stage is the next step's first, so
    ``slopes`` is read at ``2 * _RK4_STEPS + 1`` nodes.  The update keeps
    its four-stage form, so b has the bits of the four-stage loop, whose
    steps add span * (+-0) to v and w and so leave them at 1 and 0.

    A curve's nodes depend on its start only through a0, as the span
    ``a_ref - a0`` does, so points whose a0 has the same bits get the same
    increment ``h/6 (d1 + 2 d2 + 2 d2 + d4)`` at every step.  The slopes
    are read once per distinct a0 (once per point when the program reads
    b, if only under a literal-0 factor): at node 0, then at the nodes of
    a block of steps per program run, as many steps as keep a run within
    ``_TRACE_BLOCK_POINTS`` points, each block's increments formed at
    once.  Each point adds its start's increments to its own b, a step at
    a time, so every end keeps the bits of the loop that reads every point
    at every node.  So does the first error along tau: node 0 is read with
    each value checked; a block with a domain error or a non-finite
    increment is read again node by node, checked, and only a block that
    holds neither is stepped from its unchecked values.  At one node m- is
    read before m+, an escape is checked after each step and comes before
    an error at a later node, and NaN in b passes the bound.
    """
    h = 1.0 / _RK4_STEPS
    if slopes.reads("x" if mirrored else "y"):
        reps = group = np.arange(a0.size)
    else:
        reps, group = _start_groups(a0)
    starts, b_starts, spans = a0[reps], b0[reps], span[reps]
    lo_b, hi_b = bounds[1]

    def rhs(taus, read):
        # span * -m of each field at the nodes taus (rows) of each start
        # (columns), by ``read``; the start's b stands in for b
        a = starts + spans * np.array(taus)[:, None]
        values = read(b_starts, a) if mirrored else read(a, b_starts)
        return [np.broadcast_to(spans * -m, a.shape) for m in values]

    def simpson(d1, d2, d4):
        return h / 6 * (d1 + 2 * d2 + 2 * d2 + d4)

    def step(inc):
        # b plus its start's increment, in place, then _check's test by
        # reductions that pass NaN over, as _check's comparisons do
        np.add(b, np.take(inc, group, axis=1), out=b)
        if np.fmin.reduce(b, axis=None) < lo_b or np.fmax.reduce(b, axis=None) > hi_b:
            raise MapError("characteristic curve escapes the working region")

    def advance(k1, block):
        # the steps of block from the node values k1; returns the last node's
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                # rows 2i and 2i + 1 hold the mid and the end node of step i
                d = rhs([t for k in block for t in (k * h + h / 2, k * h + h)], slopes.unchecked)
            except EvalDomainError:
                d = None
            else:
                inc = np.stack([simpson(np.vstack([d1, nodes[1:-1:2]]), nodes[::2], nodes[1::2])
                                for d1, nodes in zip(k1, d)], axis=1)
        if d is not None and np.isfinite(inc).all():
            for row in inc:
                step(row)
            return [nodes[-1].copy() for nodes in d]
        for k in block:
            k2, k4 = ([v[0] for v in rhs([tau], slopes)] for tau in (k * h + h / 2, k * h + h))
            step(np.stack([simpson(*ds) for ds in zip(k1, k2, k4)]))
            k1 = k4
        return k1

    b = np.tile(b0, (len(slopes.fields), 1))
    k1 = [v[0] for v in rhs([0.0], slopes)]
    steps = min(_RK4_STEPS, max(1, _TRACE_BLOCK_POINTS // (2 * starts.size)))
    for lo in range(0, _RK4_STEPS, steps):
        k1 = advance(k1, range(lo, min(lo + steps, _RK4_STEPS)))
    return list(b)


def _variation_groups(m, b_var):
    """The groups ``(m, dm)`` and ``(m, dm, d2m)`` along ``b_var`` that
    the first and the second variation of a family read."""
    dm = m.diff(b_var)
    return FieldGroup(m, dm), FieldGroup(m, dm, dm.diff(b_var))


def _slope_fields(sys, case):
    """The slope ratios ``(m-, m+)`` of the s and t families as fields."""
    h20, h11, h02 = sys.hyper.coefficients()[:3]
    rt = ScalarField(Call("sqrt", discriminant(h20, h11, h02).ast))
    lead = h20 if case == CASE_A1112 else h02
    return (0.0 - (h11 - rt)) / (2.0 * lead), (0.0 - (h11 + rt)) / (2.0 * lead)


def _traced_map(case, sys, x0, y0, region):
    m_minus, m_plus = _slope_fields(sys, case)
    mirrored = case == CASE_A1222
    # a is the primary (independent) axis of the trace, b the secondary one
    a_var, b_var = ("y", "x") if mirrored else ("x", "y")
    # the slopes at the starting points, and for the jet their first partials
    slopes = FieldGroup(m_minus, m_plus)
    slope_jet = FieldGroup(m_minus, m_plus, m_minus.diff(a_var), m_minus.diff(b_var),
                           m_plus.diff(a_var), m_plus.diff(b_var))

    # the region padded by its halfwidths, in tracing order
    (rx0, rx1), (ry0, ry1), (pad_x, pad_y) = region.xlim, region.ylim, region.halfwidths
    bounds = ((rx0 - pad_x, rx1 + pad_x), (ry0 - pad_y, ry1 + pad_y))
    if mirrored:
        bounds = bounds[::-1]

    variations = [_variation_groups(m, b_var) for m in (m_minus, m_plus)]
    # m- and m+ are built from the same h11, sqrt(Delta) and leading
    # coefficient, so either both read b or neither does; then one
    # Simpson loop traces both families from one program of m- and m+
    slope_only = all(first.fields[1].is_zero() for first, _ in variations)
    a_ref, ref = (y0, x0) if mirrored else (x0, y0)

    def trace(x, y, order):
        """``((s, s_b[, s_bb]), (t, t_b[, t_bb]))`` at the points, with the
        second variations when ``order`` is 2."""
        a0, b0 = (y, x) if mirrored else (x, y)
        span = a_ref - a0
        if not np.any(span):
            # curves of zero length (the base point): every step would add
            # span * (...) = 0, so the start is the end, with no field read
            ends = [b0, b0]
        else:
            _check(bounds, b0, np.append(a0, a_ref))
            if not slope_only:
                ends = [_trace_family(groups[order - 1], a0, b0, span, bounds, mirrored)
                        for groups in variations]
                return tuple((b - ref, *rest) for b, *rest in ends)
            ends = _trace_slopes(slopes, a0, b0, span, bounds, mirrored)
        return tuple((b - ref, np.ones_like(b0), np.zeros_like(b0))[:order + 1] for b in ends)

    def partials(s_b, t_b, ms, mt):
        # d/db is the sensitivity factor and d/da follows from the slope
        # ratio m = da s / db s; b is y in the generic case, x in the mirrored
        if mirrored:
            return s_b, t_b, ms * s_b, mt * t_b
        return ms * s_b, mt * t_b, s_b, t_b

    def evaluate(x, y, order):
        (s, s_b, *s_w), (t, t_b, *t_w) = trace(x, y, max(order, 1))
        if order < 2:
            return (s, t, *partials(s_b, t_b, *slopes(x, y))) if order else (s, t)
        # S_b = v and S_bb = w from one trace of each family; along the level
        # curve S_a = m S_b, so S_ab = m_b v + m w and S_aa = m_a v + m S_ab
        (s_bb,), (t_bb,) = s_w, t_w
        ms, mt, ms_a, ms_b, mt_a, mt_b = slope_jet(x, y)
        s_ab, t_ab = ms_b * s_b + ms * s_bb, mt_b * t_b + mt * t_bb
        s_aa, t_aa = ms_a * s_b + ms * s_ab, mt_a * t_b + mt * t_ab
        if mirrored:
            second = (s_bb, s_ab, s_aa, t_bb, t_ab, t_aa)
        else:
            second = (s_aa, s_ab, s_bb, t_aa, t_ab, t_bb)
        return (s, t, *partials(s_b, t_b, ms, mt), *second)

    def inverse(sf, tf, base_jet):
        sx0, tx0, sy0, ty0 = base_jet()[0]  # computed once per map
        det0 = sx0 * ty0 - tx0 * sy0
        # start from the linearisation at the base point
        x = x0 + (ty0 * sf - sy0 * tf) / det0
        y = y0 + (-tx0 * sf + sx0 * tf) / det0
        for _ in range(_NEWTON_STEPS):
            s_cur, t_cur, sx, tx, sy, ty = evaluate(x, y, 1)
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
        return x, y

    return _map(case, x0, y0, evaluate, inverse, linear=False)


def build_map(sys, region, x0, y0):
    """Construct the characteristic map on a region around ``(x0, y0)``.

    Requires ``Delta > 0`` on the closed region and, outside the
    identity case, the relevant leading coefficient bounded away from
    zero there.  Constant-coefficient systems get closed-form linear
    maps; otherwise coordinates are traced along characteristic curves
    with a fourth-order integrator, and the Jacobian and the second
    derivatives come from the first and second variational equations.
    """
    if not region.contains(x0, y0):
        raise MapError("base point must lie inside the region")
    xs, ys = region.grid(_N_SAMPLE)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    h20, h11, h02 = sys.hyper.principal_values(xg, yg)
    delta = discriminant(h20, h11, h02)
    if delta.min() <= 0:
        raise MapError(f"hyperbolicity fails on the region: min Delta = {delta.min()}")
    case = _case(h20, h11, h02)
    if case == CASE_IDENTITY:
        # h20 = h02 = 0: the coordinate lines are the characteristics,
        # so the identity map is exact even for variable coefficients
        return _linear_map(case, x0, y0, None)
    h = np.array([h20, h11, h02])
    if np.ptp(h, axis=(1, 2)).max() <= 1e-13 * max(np.abs(h).max(), 1.0):
        return _linear_map(case, x0, y0, [m(x0, y0) for m in _slope_fields(sys, case)])
    return _traced_map(case, sys, x0, y0, region)


@dataclass(frozen=True)
class TransformedSystem:
    """Coefficients of the pair in characteristic coordinates on
    ``[-epsilon, epsilon]^2``.

    Hyperbolic normal form: ``ds dt w + B11 ds w + B12 dt w + C1 w = 0``.
    Elliptic form: ``A11 ds^2 + 2 A12 ds dt + A22 dt^2 + B21 ds +
    B22 dt + C2``.  All coefficient evaluators are vectorised in (s, t).
    ``probe_det_jacobian`` and ``probe_elliptic_discriminant`` hold det J
    and ``A12^2 - A11 A22`` on the pullback of the ``_N_SAMPLE x
    _N_SAMPLE`` probe grid of the square, flattened in ``ij`` order;
    systems built from constants have none.
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
    probe_det_jacobian: np.ndarray | None = None
    probe_elliptic_discriminant: np.ndarray | None = None

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


def _reference_segment_fits(cmap, region, eps):
    """Whether the segment of the reference line where ``s = t`` in
    ``[-eps, eps]``, ``(x0, y0 +- eps)`` or ``(x0 +- eps, y0)`` on the
    mirrored case, stays within ``1e-9`` halfwidths of the region.  The
    square's pullback contains that segment exactly, with no tracing."""
    ends = np.array([-eps, eps])
    if cmap.case == CASE_A1222:
        return region.contains(cmap.x0 + ends, cmap.y0, pad=1e-9 * region.halfwidths[0])
    return region.contains(cmap.x0, cmap.y0 + ends, pad=1e-9 * region.halfwidths[1])


def _choose_epsilon(sys, cmap, region):
    """Largest dyadic epsilon <= 0.5 whose square pulls back into the
    region with the discriminant no worse than half its base value.

    Returns epsilon and the pullback ``(x, y)`` of the ``_N_SAMPLE x
    _N_SAMPLE`` grid of the square, flattened in ``ij`` order.  Scaling
    by a power of two is exact, so that grid has the same bits as one
    built by ``np.linspace(-epsilon, epsilon, _N_SAMPLE)``.  A traced
    map skips, untraced, each candidate whose reference segment already
    leaves the region.  A candidate whose inverse fails, by a
    ``MapError`` or a non-finite field value, is skipped too; when every
    candidate fails, the ``MapError`` names the last one's error.
    """
    delta0 = float(discriminant(*sys.hyper.principal_values(cmap.x0, cmap.y0)))
    u = np.linspace(-1.0, 1.0, _N_SAMPLE)
    su, tu = np.meshgrid(u, u, indexing="ij")
    for eps in _EPS_CANDIDATES:
        error = None
        if not cmap.linear and not _reference_segment_fits(cmap, region, eps):
            continue
        try:
            x, y = cmap.inverse(su.ravel() * eps, tu.ravel() * eps)
        except (MapError, EvalDomainError) as err:
            error = err
            continue
        if not region.contains(x, y):
            continue
        if np.min(discriminant(*sys.hyper.principal_values(x, y))) >= 0.5 * delta0:
            return eps, x, y
    raise MapError("no admissible square neighbourhood found"
                   + (f" (the last square: {error})" if error else ""))


def _memo_key(s, t):
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    return s.shape, t.shape, s.tobytes(), t.tobytes()


def transform_system(sys, cmap, region):
    """Push the pair through the characteristic map.

    The collected ``ds^2``/``dt^2`` coefficients of the hyperbolic
    equation must vanish (that is what makes the map characteristic);
    they are verified to ``_NORMAL_FORM_TOL`` on a sample grid and the
    mixed coefficient is divided out.
    """
    epsilon, xp, yp = _choose_epsilon(sys, cmap, region)

    # validate the normal form on the probe grid of the square
    h20, h11, h02, _, _, _ = sys.hyper.values(xp, yp)
    jac = cmap.jacobian(xp, yp)
    qs, half_mixed, qt = _principal(h20, h11, h02, jac)
    scale = np.abs(2 * half_mixed)
    if np.any(scale <= 0):
        raise TransformError("mixed-derivative coefficient vanished on the square")
    if np.max(np.abs([qs, qt]) / scale) > _NORMAL_FORM_TOL:
        raise TransformError(
            "pure second-derivative residue survives the change of variables"
        )

    a11p, a12p, a22p = _principal(*sys.ell.values(xp, yp)[:3], jac)
    elliptic_discriminant = a12p**2 - a11p * a22p
    if np.any(elliptic_discriminant >= 0):
        raise TransformError("ellipticity lost under the change of variables")
    if np.min(np.abs(a11p)) == 0 or np.min(np.abs(a22p)) == 0:
        raise TransformError("degenerate principal elliptic coefficient")

    def coefficients(x, y, jac, second):
        h20, h11, h02, h10, h01, h00 = sys.hyper.values(x, y)
        sx, tx, sy, ty = jac
        sxx, sxy, syy, txx, txy, tyy = second
        e20, e11, e02, e10, e01, e00 = sys.ell.values(x, y)
        mixed = 2 * _principal(h20, h11, h02, jac)[1]
        a11, a12, a22 = _principal(e20, e11, e02, jac)
        return {
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

    # Solver grids hit these callables once per coefficient with the
    # same (s, t) arrays; for traced maps the pullback dominates the
    # cost, so the full coefficient bundle is computed per distinct
    # grid (values and shape) and memoised.  The origin pulls back to
    # the base point exactly, so its entry comes from the base jet.
    memo = {_memo_key(0.0, 0.0): coefficients(cmap.x0, cmap.y0, *cmap.base_jet())}

    def bundle(s, t):
        key = _memo_key(s, t)
        got = memo.get(key)
        if got is None:
            x, y = cmap.inverse(s, t)
            got = memo[key] = coefficients(x, y, *cmap.jet(x, y))
        return got

    def coeff(which):
        def f(s, t):
            return bundle(s, t)[which]

        return f

    sx, tx, sy, ty = jac
    return TransformedSystem(
        b11=coeff("b11"), b12=coeff("b12"), c1=coeff("c1"),
        a11=coeff("a11"), a12=coeff("a12"), a22=coeff("a22"),
        b21=coeff("b21"), b22=coeff("b22"), c2=coeff("c2"),
        epsilon=float(epsilon),
        probe_det_jacobian=sx * ty - tx * sy,
        probe_elliptic_discriminant=elliptic_discriminant,
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


def transfer_point_data(cmap, jet):
    """Carry the 2-jet of u at (x0, y0) to the 2-jet of w at (0, 0).

    ``jet`` maps ``u, ux, uy, uxx, uxy, uyy`` to values (see
    :func:`ucp2d.pipeline.complete_second_derivatives`).  The chain rule
    alone: first derivatives of w invert the Jacobian relation; second
    derivatives solve the 3x3 system whose determinant is det(J)^3.
    Returns a dict with the keys ``w, ws, wt, wss, wst, wtt``.
    """
    (sx, tx, sy, ty), (sxx, sxy, syy, txx, txy, tyy) = cmap.base_jet()
    det = sx * ty - tx * sy
    if abs(det) <= _ZERO_TOL:
        raise MapError("Jacobian singular at the base point")
    ux, uy = jet["ux"], jet["uy"]
    ws = (ty * ux - sy * uy) / det
    wt = (-tx * ux + sx * uy) / det

    rhs = np.array(
        [
            jet["uxx"] - sxx * ws - txx * wt,
            jet["uxy"] - sxy * ws - txy * wt,
            jet["uyy"] - syy * ws - tyy * wt,
        ]
    )
    m3 = second_derivative_matrix(sx, tx, sy, ty)
    wss, wst, wtt = np.linalg.solve(m3, rhs)
    return {
        "w": float(jet["u"]), "ws": float(ws), "wt": float(wt),
        "wss": float(wss), "wst": float(wst), "wtt": float(wtt),
    }
