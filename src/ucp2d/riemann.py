"""Riemann function machinery for the characteristic normal form.

Argument order convention used throughout: ``R(s, t, xi, eta)`` has
evaluation point ``(s, t)`` in the first pair and parameter point
``(xi, eta)`` in the second.  One :class:`RiemannTable` holds the grid
of evaluation values for a single parameter point, defined by the
Volterra integral equation::

    R(s,t) = 1 + int_xi^s B12(sig,t) R(sig,t) dsig
               + int_eta^t B11(s,tau) R(s,tau) dtau
               - int_xi^s int_eta^t C1(sig,tau) R(sig,tau) dtau dsig,

solved by Picard iteration with composite trapezoid quadrature (the
Volterra structure makes the iteration contract).  Taking ``(s,t)`` at
the parameter point makes every integral empty, so ``R = 1`` there by
construction.

A table is solved on a window: the rectangle between the origin and its
parameter, widened by a reach along each axis (the whole square by
default).  :func:`solve_riemann_tables` is the one Picard loop: it takes
many parameter points, evaluates the coefficients once on the uniform
grid, pads the windows of one shape class to one shape and stacks them,
and iterates each stack until its last table converges.  Each table's
step is taken over its own window, and each table keeps its iterate
from the step where that step reaches the tolerance, so a table's bits
do not depend on its batch.  :func:`solve_riemann` is its one-parameter
call.

:func:`riemann_chain` is the vanishing chain on these tables.  Zero point
data make the Cauchy traces phi and psi solve two homogeneous Volterra
equations on the axes, whose kernels are the elliptic operator applied
to R in its parameter (:func:`apply_L` on the tables); solving them is
the computational content of forcing the traces to vanish, and the
representation formula then rebuilds the solution from the traces.  Each
use solves its tables only where it reads them (:func:`_chain_reach`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SolveError",
    "RiemannTable",
    "RiemannProvider",
    "CauchyTraces",
    "solve_riemann",
    "solve_riemann_tables",
    "represent_solution",
    "kernel_PQ",
    "apply_L",
    "volterra_ivp",
    "riemann_chain",
]


class SolveError(RuntimeError):
    """Iteration failed to contract or a solver precondition broke."""


_PICARD_MAX_ITER = 200  # Picard steps before a table is declared divergent
_LEAD_FLOOR = 1e-12  # least admissible |A(s)| in volterra_ivp


def _window(uniform, centre, reach):
    """Nodes of one axis of a table's window: the ``uniform`` nodes on
    [-eps, eps] from ``reach`` below min(0, centre) to ``reach`` above
    max(0, centre), augmented with ``centre`` when it is off that grid.
    Returns the nodes, the index of ``centre`` among them, and the slice
    of ``uniform`` they are (None once augmented)."""
    pad = 1e-12 * max(uniform[-1], 1.0)
    lo, hi = min(0.0, centre) - reach - pad, max(0.0, centre) + reach + pad
    cut = slice(int(np.searchsorted(uniform, lo)), int(np.searchsorted(uniform, hi, "right")))
    nodes = uniform[cut]
    if not np.any(np.abs(nodes - centre) <= pad):
        nodes, cut = np.sort(np.append(nodes, centre)), None
    return nodes, int(np.argmin(np.abs(nodes - centre))), cut


def _windows(uniform, centres, reach):
    """:func:`_window` of every centre on one axis, in one array pass.

    Returns the first uniform index of each window, its node count, the
    index of its centre among its nodes, and a dict from the position of
    each off-grid centre to its augmented nodes (whose windows
    :func:`_window` builds alone)."""
    pad = 1e-12 * max(uniform[-1], 1.0)
    start = np.searchsorted(uniform, np.minimum(0.0, centres) - reach - pad)
    stop = np.searchsorted(uniform, np.maximum(0.0, centres) + reach + pad, "right")
    right = np.clip(np.searchsorted(uniform, centres), 1, len(uniform) - 1)
    near = right - (centres - uniform[right - 1] < uniform[right] - centres)
    index, augmented = near - start, {}
    for k in np.flatnonzero(np.abs(uniform[near] - centres) > pad):
        nodes, index[k], _ = _window(uniform, centres[k], reach)
        augmented[int(k)] = nodes
        stop[k] = start[k] + len(nodes)
    return start, stop - start, index, augmented


def _coefficient_grid(tsys, s_nodes, t_nodes):
    """B12, B11 and C1 on the node grid ``s_nodes x t_nodes``."""
    sg, tg = np.meshgrid(s_nodes, t_nodes, indexing="ij")
    return tuple(np.broadcast_to(c(sg, tg), sg.shape) for c in (tsys.b12, tsys.b11, tsys.c1))


@dataclass(frozen=True)
class RiemannTable:
    """Grid values of R(., ., xi, eta) for one fixed parameter point."""

    parameter: tuple
    s_nodes: np.ndarray
    t_nodes: np.ndarray
    values: np.ndarray  # shape (len(s_nodes), len(t_nodes))
    iterations: int
    residual: float

    def value(self, s, t):
        """Bilinear interpolation; exact on grid nodes and along an axis of
        one node.  A point outside the table's nodes by more than 1e-12
        raises ValueError."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        scalar = s.ndim == 0 and t.ndim == 0
        s, t = np.broadcast_arrays(np.atleast_1d(s), np.atleast_1d(t))
        self._require_inside(s, t)
        i, i1, ws = _cell(self.s_nodes, s)
        j, j1, wt = _cell(self.t_nodes, t)
        out = (
            self.values[i, j] * (1 - ws) * (1 - wt)
            + self.values[i1, j] * ws * (1 - wt)
            + self.values[i, j1] * (1 - ws) * wt
            + self.values[i1, j1] * ws * wt
        )
        return float(out[0]) if scalar else out

    def _require_inside(self, s, t):
        """Raise ValueError, naming the point and the parameter, unless every
        point ``(s, t)`` lies within 1e-12 of the table's nodes."""
        s, t = np.broadcast_arrays(np.atleast_1d(s), np.atleast_1d(t))
        outside = (
            (s < self.s_nodes[0] - 1e-12) | (s > self.s_nodes[-1] + 1e-12)
            | (t < self.t_nodes[0] - 1e-12) | (t > self.t_nodes[-1] + 1e-12)
        )
        if outside.any():
            k = np.flatnonzero(outside)[0]
            raise ValueError(
                f"point ({s.flat[k]}, {t.flat[k]}) lies outside the Riemann table "
                f"of parameter {self.parameter}"
            )

    def axis_slice(self, axis):
        """Values along t = 0 (axis 's') or s = 0 (axis 't'), with nodes."""
        if axis == "s":
            j = int(np.argmin(np.abs(self.t_nodes)))
            if abs(self.t_nodes[j]) > 1e-12:
                raise ValueError("0 is not a grid node; use an odd node count")
            return self.s_nodes, self.values[:, j]
        i = int(np.argmin(np.abs(self.s_nodes)))
        if abs(self.s_nodes[i]) > 1e-12:
            raise ValueError("0 is not a grid node; use an odd node count")
        return self.t_nodes, self.values[i, :]


def _cell(nodes, x):
    """The nodes of the cell of each ``x`` among strictly increasing
    ``nodes``, and its weight on the right one; on an axis of one node both
    are that node, with weight 0."""
    if len(nodes) == 1:
        zero = np.zeros(x.shape, dtype=int)
        return zero, zero, np.zeros(x.shape)
    i = np.searchsorted(nodes[1:-1], x)
    return i, i + 1, (x - nodes[i]) / (nodes[i + 1] - nodes[i])


def _cumulative_trapezoid(y, steps, axis):
    """Trapezoid integrals of ``y`` along ``axis`` from the first node to
    each node, with ``steps = np.diff(nodes)`` shaped to broadcast along
    that axis.  The arithmetic is that of
    ``scipy.integrate.cumulative_trapezoid(y, nodes, axis=axis,
    initial=0.0)``, so the bits are the same, without its per-call
    dispatch."""
    lo = (slice(None),) * axis + (slice(None, -1),)
    hi = (slice(None),) * axis + (slice(1, None),)
    out = np.zeros_like(y)
    np.cumsum(steps * (y[hi] + y[lo]) / 2.0, axis=axis, out=out[hi])
    return out


def solve_riemann(tsys, parameter, n, tol=1e-10, reach=np.inf):
    """Fixed point of the Riemann integral equation on the table's window.

    The window is the rectangle of the ``n`` uniform nodes per axis that
    the origin and the parameter span, widened by ``reach`` on both sides
    and clipped to the square (the whole square by default); ``reach`` is
    one distance for both axes or a pair (along s, along t).  A parameter
    abscissa off the uniform grid is added as a node.  R at a point
    depends only on the rectangle between the point and the parameter, so
    on its window a table agrees with the whole square's up to rounding
    and the stopping tolerance.  Iteration stops when successive iterates
    differ by at most ``tol`` in sup norm over the window.  This is the
    one-parameter call of :func:`solve_riemann_tables`.
    """
    return solve_riemann_tables(tsys, [parameter], n, tol, reach)[0]


def solve_riemann_tables(tsys, parameters, n, tol=1e-10, reach=np.inf):
    """One table per parameter point, in order, each as :func:`solve_riemann`
    gives it for that point alone.

    B12, B11 and C1 are evaluated once on the uniform ``n x n`` grid (on
    a traced map ``transform_system`` memoises that grid, so only the
    first call pulls it back); a window of uniform nodes is sliced from
    that evaluation, a window augmented with an off-grid node is
    evaluated on its own nodes.  The windows of one shape class (node
    counts rounded up to powers of 2) are stacked, each padded at its far
    end with zero coefficients and zero steps to the stack's shape, and
    iterated in one Picard loop until the last of them converges.  The
    trapezoid sums run from each window's first node, so the padding
    never reaches a table's cells, and a table's step is the sup norm
    over its own window.  A table's values are its iterate at the step
    where its own step reaches ``tol``, and the next step's sup norm is
    its residual, so its bits do not depend on its stack.  A table still
    above ``tol`` after ``_PICARD_MAX_ITER`` steps raises
    :class:`SolveError` naming its parameter.
    """
    if n < 9:
        raise ValueError("need at least 9 nodes per axis")
    if tol <= 0:
        raise ValueError("tol must be positive")
    eps = tsys.epsilon
    points = np.array([(float(p[0]), float(p[1])) for p in parameters]).reshape(-1, 2)
    if np.any(np.abs(points) > eps + 1e-12):
        raise ValueError("parameter point outside the working square")
    uniform = np.linspace(-eps, eps, n)
    axes = [_windows(uniform, points[:, a], r) for a, r in enumerate(np.broadcast_to(reach, 2))]
    classes = np.ceil(np.log2(np.stack([axes[0][1], axes[1][1]], axis=1)))
    _, stack_of = np.unique(classes, axis=0, return_inverse=True)
    grid = _coefficient_grid(tsys, uniform, uniform)
    tables = [None] * len(points)
    for stack in range(stack_of.max(initial=-1) + 1):
        members = np.flatnonzero(stack_of.ravel() == stack)
        solved = _solve_stack(tsys, points[members], [
            (start[members], count[members], index[members],
             {m: augmented[k] for m, k in enumerate(members) if k in augmented})
            for start, count, index, augmented in axes
        ], uniform, grid, tol)
        for k, tab in zip(members, solved):
            tables[k] = tab
    return tables


def _picard_step(r, b12, b11, c1, ds, dt, i_xi, j_eta):
    """One Picard step on a stack of iterates, one table per leading index,
    each integrating from its own parameter node ``(i_xi, j_eta)``."""
    k = np.arange(len(r))
    cs = _cumulative_trapezoid(b12 * r, ds, 1)
    int_s = cs - cs[k, i_xi][:, None, :]
    ct = _cumulative_trapezoid(b11 * r, dt, 2)
    int_t = ct - ct[k, :, j_eta][:, :, None]
    d = _cumulative_trapezoid(c1 * r, dt, 2)
    d = d - d[k, :, j_eta][:, :, None]
    dd = _cumulative_trapezoid(d, ds, 1)
    int_st = dd - dd[k, i_xi][:, None, :]
    return 1.0 + int_s + int_t - int_st


def _solve_stack(tsys, parameters, axes, uniform, grid, tol):
    """Tables of one stack of windows, from one Picard loop.

    ``axes`` holds, per axis, each window's first uniform index, node
    count, parameter index and augmented nodes (as :func:`_windows` gives
    them); ``grid`` holds B12, B11 and C1 on the ``uniform`` grid.  The
    stack's padding has zero coefficients and zero steps, and the iterate
    is zeroed there after each step, so its step is 0 and each table's
    step is its own window's."""
    (s0, ls, i_xi, s_aug), (t0, lt, j_eta, t_aug) = axes
    n = len(uniform)
    in_s = np.arange(ls.max()) < ls[:, None]
    in_t = np.arange(lt.max()) < lt[:, None]
    mask = (in_s[:, :, None] & in_t[:, None, :]).astype(float)
    rows = np.minimum(s0[:, None] + np.arange(in_s.shape[1]), n - 1)
    cols = np.minimum(t0[:, None] + np.arange(in_t.shape[1]), n - 1)
    b12, b11, c1 = (g[rows[:, :, None], cols[:, None, :]] * mask for g in grid)
    du = np.diff(uniform)
    ds = du[np.minimum(rows[:, :-1], n - 2)] * in_s[:, 1:]
    dt = du[np.minimum(cols[:, :-1], n - 2)] * in_t[:, 1:]
    nodes = []
    for m in range(len(parameters)):
        s = s_aug.get(m, uniform[s0[m]:s0[m] + ls[m]])
        t = t_aug.get(m, uniform[t0[m]:t0[m] + lt[m]])
        nodes.append((s, t))
        if m in s_aug or m in t_aug:
            b12[m, :ls[m], :lt[m]], b11[m, :ls[m], :lt[m]], c1[m, :ls[m], :lt[m]] = (
                _coefficient_grid(tsys, s, t))
            ds[m, :ls[m] - 1], dt[m, :lt[m] - 1] = np.diff(s), np.diff(t)
    stack = (b12, b11, c1, ds[:, :, None], dt[:, None, :], i_xi, j_eta)
    count = len(parameters)
    converged = np.full(count, -1)  # the step where each table's step reached tol
    values, residuals = [None] * count, [0.0] * count
    r = mask
    for it in range(1, _PICARD_MAX_ITER + 2):
        r_new = _picard_step(r, *stack)
        r_new *= mask
        step = np.max(np.abs(r_new - r), axis=(1, 2))
        for e in np.flatnonzero(converged == it - 1):
            values[e], residuals[e] = r[e, :ls[e], :lt[e]].copy(), float(step[e])
        converged[(converged < 0) & (step <= tol)] = it
        if all(v is not None for v in values):
            break
        if it == _PICARD_MAX_ITER and np.any(converged < 0):
            e = int(np.argmax(converged < 0))
            raise SolveError(
                f"Picard iteration for the Riemann table of parameter "
                f"{tuple(map(float, parameters[e]))} did not contract to {tol} within "
                f"{_PICARD_MAX_ITER} steps (last sup-norm step {step[e]:.3g})"
            )
        r = r_new
    return [
        RiemannTable(parameter=tuple(map(float, p)), s_nodes=s, t_nodes=t, values=v,
                     iterations=int(i), residual=res)
        for p, (s, t), v, i, res in zip(parameters, nodes, values, converged, residuals)
    ]


def _key(parameter):
    return (round(float(parameter[0]), 14), round(float(parameter[1]), 14))


class RiemannProvider:
    """Memoised Riemann tables keyed by parameter point.

    Each table is solved on its window of ``reach``, one distance or a
    pair (along s, along t) (see :func:`solve_riemann`; the whole square
    by default).  :meth:`table` solves one parameter through
    :func:`solve_riemann`; :meth:`tables` solves every parameter not yet
    cached in one :func:`solve_riemann_tables` batch, so tables of one
    shape class share a Picard loop.  A table has the same bits on either
    route.
    """

    def __init__(self, tsys, n, tol=1e-10, reach=np.inf):
        self.tsys = tsys
        self.n = n
        self.tol = tol
        self.reach = reach
        self._cache = {}

    def table(self, parameter):
        key = _key(parameter)
        tab = self._cache.get(key)
        if tab is None:
            tab = solve_riemann(self.tsys, key, self.n, self.tol, self.reach)
            self._cache[key] = tab
        return tab

    def tables(self, parameters):
        """The tables of ``parameters``, in order."""
        keys = [_key(p) for p in parameters]
        missing = [k for k in dict.fromkeys(keys) if k not in self._cache]
        if missing:
            solved = solve_riemann_tables(self.tsys, missing, self.n, self.tol, self.reach)
            self._cache.update(zip(missing, solved))
        return [self._cache[k] for k in keys]


@dataclass(frozen=True)
class CauchyTraces:
    """Values of the axis traces phi(s) = ds w(s,0) + B12(s,0) w(s,0)
    and psi(t) = dt w(0,t) + B11(0,t) w(0,t) on uniform axis nodes."""

    nodes: np.ndarray
    phi: np.ndarray
    psi: np.ndarray


def _integral_to(nodes, values, b):
    """Signed trapezoid integral from 0 to b along tabulated values;
    both 0 and b must lie within the node range."""
    cum = _cumulative_trapezoid(values, np.diff(nodes), 0)
    c0 = np.interp(0.0, nodes, cum)
    cb = np.interp(b, nodes, cum)
    return cb - c0


def represent_solution(provider, w00, traces, targets):
    """Evaluate the representation formula at each target point.

    ``w(s,t) = w00 R(0,0,s,t) + int_0^s R(sig,0,s,t) phi(sig) dsig
    + int_0^t R(0,tau,s,t) psi(tau) dtau``.  Each target point is the
    parameter of its own Riemann table; the tables come from one
    ``provider.tables`` call, and each is read on its two axis slices only,
    R(0, 0) at the node where they cross.
    """
    out = np.empty(len(targets))
    for k, ((s, t), tab) in enumerate(zip(targets, provider.tables(targets))):
        s_nodes, s_vals = tab.axis_slice("s")
        t_nodes, t_vals = tab.axis_slice("t")
        val = w00 * t_vals[np.argmin(np.abs(t_nodes))]
        integrand = s_vals * np.interp(s_nodes, traces.nodes, traces.phi)
        val += _integral_to(s_nodes, integrand, s)
        integrand = t_vals * np.interp(t_nodes, traces.nodes, traces.psi)
        val += _integral_to(t_nodes, integrand, t)
        out[k] = val
    return out


# First-derivative weights, times 2 d, on the points x + (shift + m) d for
# m = -1, 0, 1; rows are shift -1 (backward), 0 (central), 1 (forward).
_D1 = np.array([[1.0, -4.0, 3.0], [-1.0, 0.0, 1.0], [-3.0, 4.0, -1.0]])


def _stencils(x, d, lo, hi):
    """Three-point stencils of step ``d`` at each ``x``: central, shifted
    one-sided where a central one would leave [lo, hi].

    Returns the points ``x + (shift + m) d`` for m = -1, 0, 1, and on
    them the weights of the value at ``x``, of the second-order first
    derivative and of the second derivative, each of shape
    ``(3,) + x.shape``.
    """
    x, d = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(d, dtype=float))
    shift = np.where(x - d < lo, 1, np.where(x + d > hi, -1, 0))
    column = (3,) + (1,) * x.ndim
    offsets = shift + np.arange(-1, 2).reshape(column)
    d1 = np.moveaxis(_D1[shift + 1], -1, 0) / (2 * d)
    d2 = np.array([1.0, -2.0, 1.0]).reshape(column) / d**2
    return x + offsets * d, (offsets == 0).astype(float), d1, np.broadcast_to(d2, d1.shape)


def kernel_PQ(tsys, axis, nodes):
    """Damping coefficients P(s,0) (axis 's') or Q(0,t) (axis 't').

    ``P = A11 (ds + 2 dxi) R(s,0,xi,t)|xi=s + 2 A12 dt R(s,0,s,t)
    + B21 R(s,0,s,t)`` evaluated at t = 0; Q is the mirrored expression
    on the other axis.  R is 1 at its parameter and obeys ``ds R = B12 R``
    on t = eta and ``dt R = B11 R`` on s = xi, so there ``ds R = B12``,
    ``dt R = B11`` and ``dxi R = -B12``.  Hence, exactly,
    ``P = -A11 B12 + 2 A12 B11 + B21`` and
    ``Q = -A22 B11 + 2 A12 B12 + B22``, with no Riemann table.  The
    coefficients are evaluated once on the node array.
    """
    if axis not in ("s", "t"):
        raise ValueError("axis must be 's' or 't'")
    v = np.asarray(nodes, dtype=float)
    zero = np.zeros_like(v)
    if axis == "s":
        here, lead, along, across, damp = (v, zero), tsys.a11, tsys.b12, tsys.b11, tsys.b21
    else:
        here, lead, along, across, damp = (zero, v), tsys.a22, tsys.b11, tsys.b12, tsys.b22
    a_lead, a12, b_along, b_across, b_damp = (
        np.asarray(c(*here), dtype=float) for c in (lead, tsys.a12, along, across, damp)
    )
    return -a_lead * b_along + 2 * a12 * b_across + b_damp


# riemann_chain's apply_L stencil step, in grid steps, and its reach: a
# shifted one-sided stencil ends two stencil steps from its point.
_CHAIN_STEP = 2
_CHAIN_REACH = 2 * _CHAIN_STEP


def _chain_reach(axis, h):
    """Reach (along s, along t) of the chain's tables on a grid of step
    ``h``: of the kernel rows on ``axis`` ('s' or 't'), or of the
    representation (None).  A kernel row on axis s at node s reads
    R(sig, 0; xi, eta) for sig between 0 and s, and the stencil puts
    ``xi`` up to ``_CHAIN_REACH`` steps from s, so those tables reach that
    far along s and not at all along t (0 and ``eta`` are in every
    window); axis t is the mirror.  A representation table reads only
    the rectangle between the origin and its parameter."""
    reach = _CHAIN_REACH * h
    return {"s": (reach, 0.0), "t": (0.0, reach), None: (0.0, 0.0)}[axis]


def apply_L(tsys, f, at, step):
    """Apply the elliptic operator in the parameter variables.

    ``f`` is a callable of the parameter pair; ``at = (xi0, eta0)`` is
    where the derivatives are taken, a point or arrays of points.  Near
    the edges of the square the stencils shift one-sided rather than
    leaving it.  The operator is one weighted sum of ``f`` on the nine
    points of the stencils in both directions, and the coefficients are
    evaluated once, on ``at``.  ``f`` is called once, on the nine points
    stacked: it takes arrays of shape ``(3, 3) + shape(at)``, entry
    ``[m, k]`` the ``m``-th stencil point in xi and ``k``-th in eta, and
    returns values whose leading axes have that shape; it may return R
    on a row of evaluation points after them: the stencils are linear,
    so each entry is what a scalar call gives.
    """
    lo, hi = -tsys.epsilon, tsys.epsilon
    xi0, eta0 = at
    a11, a12, a22, b21, b22, c2 = (
        np.asarray(c(xi0, eta0), dtype=float)
        for c in (tsys.a11, tsys.a12, tsys.a22, tsys.b21, tsys.b22, tsys.c2)
    )
    xs, ex, d1x, d2x = _stencils(xi0, step, lo, hi)
    ys, ey, d1y, d2y = _stencils(eta0, step, lo, hi)
    vals = np.asarray(f(*np.broadcast_arrays(xs[:, None], ys[None, :])), dtype=float)
    out = 0.0
    for m in range(3):
        for k in range(3):
            w = (
                a11 * d2x[m] * ey[k] + 2 * a12 * d1x[m] * d1y[k] + a22 * ex[m] * d2y[k]
                + b21 * d1x[m] * ey[k] + b22 * ex[m] * d1y[k] + c2 * ex[m] * ey[k]
            )
            out = out + w.reshape(w.shape + (1,) * (vals.ndim - 2 - w.ndim)) * vals[m, k]
    return out


def volterra_ivp(leading, damping, kernel, forcing, interval, n):
    """March ``A(s) u' + P(s) u + int_0^s K(s,sig) u(sig) dsig = g(s)``
    outward from ``u(0) = 0`` in both directions.

    Second-order implicit trapezoid stepping with trapezoid-in-integral;
    ``n`` odd nodes across ``interval`` (which must contain 0).  The
    leading coefficient must stay above ``_LEAD_FLOOR`` in magnitude.
    ``kernel(s, nodes)`` is called once per node and returns the row
    K(s, nodes), or a scalar for a constant row.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (a < 0.0 < b):
        raise ValueError("interval must contain 0 in its interior")
    if n % 2 == 0:
        raise ValueError("need an odd number of nodes so 0 is a node")
    nodes = np.linspace(a, b, n)
    i0 = int(np.argmin(np.abs(nodes)))
    if abs(nodes[i0]) > 1e-14 * max(abs(a), b):
        raise ValueError("grid does not contain 0")
    lead = np.asarray([leading(s) for s in nodes], dtype=float)
    if np.min(np.abs(lead)) < _LEAD_FLOOR:
        raise SolveError("leading coefficient falls below the admissible floor")
    damp = np.asarray([damping(s) for s in nodes], dtype=float)
    force = np.asarray([forcing(s) for s in nodes], dtype=float)
    k_table = np.array([np.broadcast_to(kernel(s, nodes), (n,)) for s in nodes], dtype=float)
    u = np.zeros(n)

    def march(direction):
        idx = range(i0, n - 1) if direction > 0 else range(i0, 0, -1)
        for i in idx:
            j = i + direction
            h_s = nodes[j] - nodes[i]
            known = list(range(i0, i + direction, direction))  # nodes from 0 to s_i
            span = known + [j]
            # trapezoid over [0, s] with the outer kernel argument fixed
            sig = nodes[known]
            int_i = np.trapezoid(k_table[i, known] * u[known], sig) if len(sig) > 1 else 0.0
            du_i = (force[i] - damp[i] * u[i] - int_i) / lead[i]
            sig_j = nodes[span]
            w = np.zeros(len(sig_j))  # span holds 0 and s_j, so two nodes at least
            steps = np.diff(sig_j)
            w[:-1] += steps / 2
            w[1:] += steps / 2
            int_j_known = float(np.dot(w[:-1], k_table[j, known] * u[known]))
            coupling = w[-1] * k_table[j, j]
            denom = 1.0 + (h_s / 2) * (damp[j] + coupling) / lead[j]
            rhs = u[i] + (h_s / 2) * du_i + (h_s / 2) * (force[j] - int_j_known) / lead[j]
            u[j] = rhs / denom

    march(+1)
    march(-1)
    return nodes, u


def _kernel_table(tsys, provider, axis, nodes, step):
    """Kernel rows of the trace equation on ``axis``: ``L R(sig, 0; .)`` at
    ``(s, 0)`` (axis 's') or ``L R(0, sig; .)`` at ``(0, s)`` (axis 't'),
    from one ``apply_L`` pass over the axis, whose nine stencil parameters
    per node are solved in one ``provider.tables`` batch.  Row ``s``
    holds only the segment of ``sig`` between 0 and ``s`` that
    ``volterra_ivp``'s march reads, read at the table's own nodes on the
    axis; the rest is NaN.  A shifted stencil puts a parameter two steps
    of ``step`` from its node, so the provider's windows must reach that
    far along ``axis`` (:func:`_chain_reach`); a segment outside a table
    raises ValueError naming the point and the parameter."""
    zero = np.zeros_like(nodes)
    at = (nodes, zero) if axis == "s" else (zero, nodes)
    i0 = int(np.argmin(np.abs(nodes)))
    segments = [np.arange(min(i, i0), max(i, i0) + 1) for i in range(len(nodes))]
    ends = [(float(nodes[seg[0]]), float(nodes[seg[-1]])) for seg in segments]

    def rows(xi, eta):
        out = np.full(xi.shape + nodes.shape, np.nan)
        flat = out.reshape(-1, len(nodes))
        tables = provider.tables(list(zip(xi.ravel(), eta.ravel())))
        for k, tab in enumerate(tables):
            seg, (lo, hi) = segments[k % len(nodes)], ends[k % len(nodes)]
            along, vals = tab.axis_slice(axis)
            if lo < along[0] - 1e-12 or hi > along[-1] + 1e-12:
                tab._require_inside(*(([lo, hi], 0.0) if axis == "s" else (0.0, [lo, hi])))
            flat[k, seg] = vals[np.searchsorted(along, nodes[seg])]
        return out

    return apply_L(tsys, rows, at, step)


def riemann_chain(tsys, n, tol, w00, targets):
    """The vanishing chain on ``n`` (odd) nodes per axis: the Cauchy traces
    and the values of the representation formula at ``targets``.

    phi solves ``A11(s,0) phi' + P(s) phi + int_0^s K_phi(s,sig)
    phi(sig) dsig = 0`` from ``phi(0) = 0`` on the s axis, with
    ``K_phi(s,sig) = L R(sig,0; s,0)`` applied in the parameter; psi
    solves the mirrored equation on the t axis with A22, Q and
    ``K_psi``.  Each use solves its tables on the windows it reads
    (:func:`_chain_reach`): a kernel table on axis s reaches
    ``_CHAIN_REACH`` grid steps beyond its rectangle along s only, one on
    axis t along t only, and a representation table is its rectangle.
    Each use's tables are one batch.  Returns ``(traces, values)``.
    """
    eps = tsys.epsilon
    h = 2 * eps / (n - 1)
    nodes = np.linspace(-eps, eps, n)
    zero = np.zeros_like(nodes)

    def by_node(values):
        """The entry or row of ``values`` at a node of ``nodes``."""
        return lambda s, *_: values[np.searchsorted(nodes, s)]

    marched = []
    for axis, lead in (("s", tsys.a11(nodes, zero)), ("t", tsys.a22(zero, nodes))):
        _, u = volterra_ivp(
            leading=by_node(lead),
            damping=by_node(kernel_PQ(tsys, axis, nodes)),
            kernel=by_node(_kernel_table(
                tsys, RiemannProvider(tsys, n, tol, _chain_reach(axis, h)), axis, nodes,
                _CHAIN_STEP * h,
            )),
            forcing=lambda s: 0.0,
            interval=(-eps, eps),
            n=n,
        )
        marched.append(u)
    traces = CauchyTraces(nodes, *marched)
    provider = RiemannProvider(tsys, n, tol, _chain_reach(None, h))
    return traces, represent_solution(provider, w00, traces, targets)
