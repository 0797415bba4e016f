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
default).  An off-grid parameter is inserted as a node of its window and
carried in the same arrays (no golden and no workload has one).  One
Picard loop serves every route: a batch of parameter points has its
coefficients evaluated once on the uniform grid, the windows of one
shape class padded to one shape and stacked, and each stack iterated in
buffers of its own until its last table converges.  Each table's step is
taken over its own window, and each table keeps its iterate from the
step where that step reaches the tolerance, so a table's bits do not
depend on its batch.  :class:`RiemannProvider` has the two entry
points: :meth:`RiemannProvider.solve` gives a batch as stack arrays, and
:meth:`RiemannProvider.table` gives one :class:`RiemannTable` that owns
its values (:func:`solve_riemann`).

:func:`riemann_chain` is the vanishing chain on these tables.  Zero point
data make the Cauchy traces phi and psi solve two homogeneous Volterra
equations on the axes, whose kernels are the elliptic operator applied
to R in its parameter (:func:`apply_L` on the tables); solving them is
the computational content of forcing the traces to vanish, and the
representation formula then rebuilds the solution from the traces.  Each
use solves its tables only where it reads them (:func:`_chain_reach`) and
reads them in the stack arrays, one gather per stack, with no table
object.
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


def _windows(uniform, centres, reach):
    """The window of each centre on one axis: the ``uniform`` nodes on
    [-eps, eps] from ``reach`` below min(0, centre) to ``reach`` above
    max(0, centre), with the centre inserted as a node where it is off that
    grid.  Returns each window's first uniform index, its node count, the
    index of its centre among its nodes, and its inserted node (NaN where
    there is none)."""
    pad = 1e-12 * max(uniform[-1], 1.0)
    start = np.searchsorted(uniform, np.minimum(0.0, centres) - reach - pad)
    stop = np.searchsorted(uniform, np.maximum(0.0, centres) + reach + pad, "right")
    right = np.clip(np.searchsorted(uniform, centres), 1, len(uniform) - 1)
    near = right - (centres - uniform[right - 1] < uniform[right] - centres)
    off = np.abs(uniform[near] - centres) > pad
    index = np.where(off, np.searchsorted(uniform, centres), near) - start
    return start, stop - start + off, index, np.where(off, centres, np.nan)


def _window_rows(uniform, window, width):
    """The node rows of the windows ``window`` (as :func:`_windows` gives
    them), continued with uniform nodes to ``width``; an inserted node sits
    at its centre's index."""
    start, _, index, inserted = window
    j, has, index = np.arange(width), np.isfinite(inserted)[:, None], index[:, None]
    at = start[:, None] + j
    at -= has & (j > index)
    rows = uniform[np.minimum(at, len(uniform) - 1, out=at)]
    np.copyto(rows, inserted[:, None], where=has & (j == index))
    return rows


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
            raise _outside(s.flat[k], t.flat[k], self.parameter)


def _outside(s, t, parameter):
    """The ValueError of a read at ``(s, t)`` outside the table of ``parameter``."""
    return ValueError(
        f"point ({s}, {t}) lies outside the Riemann table of parameter {parameter}")


def _origin(nodes):
    """The index of the node at 0; ValueError if none is."""
    i0 = int(np.argmin(np.abs(nodes)))
    if abs(nodes[i0]) > 1e-12:
        raise ValueError("0 is not a grid node; use an odd node count")
    return i0


def _cell(nodes, x):
    """The nodes of the cell of each ``x`` among strictly increasing
    ``nodes``, and its weight on the right one; on an axis of one node both
    are that node, with weight 0."""
    if len(nodes) == 1:
        zero = np.zeros(x.shape, dtype=int)
        return zero, zero, np.zeros(x.shape)
    i = np.searchsorted(nodes[1:-1], x)
    return i, i + 1, (x - nodes[i]) / (nodes[i + 1] - nodes[i])


def _cumulative_trapezoid(y, steps, axis, out=None):
    """Trapezoid integrals of ``y`` along ``axis`` from the first node to
    each node, with ``steps = np.diff(nodes)`` shaped to broadcast along
    that axis.  The arithmetic is that of
    ``scipy.integrate.cumulative_trapezoid(y, nodes, axis=axis,
    initial=0.0)``, so the bits are the same, without its per-call
    dispatch.  Given ``out``, not ``y``, it writes the integrals there."""
    lead = (slice(None),) * axis
    if out is None:
        out = np.empty_like(y)
    out[lead + (0,)] = 0.0
    if y.shape[axis] > 3:
        # the cells in one contiguous temporary, where numpy's loops run
        # faster than on the strided view of ``out``
        cell = np.add(y[lead + (slice(1, None),)], y[lead + (slice(None, -1),)])
        np.multiply(steps, cell, out=cell)
        np.divide(cell, 2.0, out=cell)
        np.cumsum(cell, axis=axis, out=out[lead + (slice(1, None),)])
        return out
    # numpy's loops over the many short lines of an axis of 2 or 3 nodes are
    # slow: the same arithmetic, and cumsum's order, one plane at a time
    tail = (slice(None),) * (y.ndim - 1 - axis)  # steps broadcast from the right
    for k in range(y.shape[axis] - 1):
        at, to = lead + (slice(k, k + 1),), lead + (slice(k + 1, k + 2),)
        cell = np.add(y[to], y[at], out=out[to])
        np.multiply(steps[(Ellipsis, slice(k, k + 1)) + tail], cell, out=cell)
        np.divide(cell, 2.0, out=cell)
        if k:
            np.add(out[at], cell, out=cell)
    return out


def solve_riemann(tsys, parameter, n, tol=1e-10, reach=np.inf):
    """Fixed point of the Riemann integral equation on the table's window.

    The window is the rectangle of the ``n`` uniform nodes per axis that
    the origin and the parameter span, widened by ``reach`` on both sides
    and clipped to the square (the whole square by default); ``reach`` is
    one distance for both axes or a pair (along s, along t).  A parameter
    coordinate off the uniform grid is inserted as a node
    (:func:`_windows`).  R at a point depends only on the rectangle
    between the point and the parameter, so on its window a table agrees
    with the whole square's up to rounding and the stopping tolerance.
    Iteration stops when successive iterates differ by at most ``tol`` in
    sup norm over the window.  This is the one-parameter call of
    :func:`_solve_windows`, and the table owns a copy of its values.
    """
    point = np.array([(float(parameter[0]), float(parameter[1]))])
    return _solve_windows(tsys, point, n, tol, reach).table(0)


@dataclass(frozen=True)
class _Stacks:
    """The tables of a batch of parameter ``points`` as the arrays of their
    Picard stacks.

    ``windows`` holds, per axis, each point's window as :func:`_windows`
    gives it: first uniform index, node count, parameter index and
    inserted node (NaN where the parameter is on the uniform grid).  Point
    ``k`` is member ``member[k]`` of stack ``stack[k]``, whose converged
    iterates ``values[stack[k]]`` are zero in the padding."""

    points: np.ndarray
    uniform: np.ndarray
    windows: list
    stack: np.ndarray
    member: np.ndarray
    values: list
    iterations: np.ndarray
    residuals: np.ndarray

    def table(self, k):
        """The :class:`RiemannTable` of point ``k``, owning its values."""
        s, t = (self.nodes(axis, [k], self.windows[axis][1][k])[0] for axis in (0, 1))
        values = self.values[self.stack[k]][self.member[k], :len(s), :len(t)].copy()
        return RiemannTable(parameter=tuple(map(float, self.points[k])), s_nodes=s,
                            t_nodes=t, values=values, iterations=int(self.iterations[k]),
                            residual=float(self.residuals[k]))

    def groups(self, k):
        """For each stack holding one of the points ``k``: its values and
        the positions in ``k`` of its points."""
        for stack, values in enumerate(self.values):
            rows = np.flatnonzero(self.stack[k] == stack)
            if len(rows):
                yield values, rows

    def position(self, axis, k, j):
        """The index of uniform node ``j`` among the window nodes on
        ``axis`` (0 for s, 1 for t) of point ``k``, elementwise, and whether
        the window has that node.  A window with an inserted node has it
        among them, at its parameter's index."""
        start, count, index, inserted = self.windows[axis]
        p = j - start[k]
        p += np.isfinite(inserted)[k] & (p >= index[k])
        return p, (p >= 0) & (p < count[k])

    def nodes(self, axis, k, width):
        """The window nodes on ``axis`` of each point ``k``, one row per
        point, continued with uniform nodes to ``width``."""
        return _window_rows(self.uniform, [w[k] for w in self.windows[axis]], width)

    def read(self, k, i, j):
        """The value at window indices ``(i, j)`` of the table of point
        ``k``, for arrays of one shape: one gather per stack."""
        out = np.empty(k.shape)
        for values, rows in self.groups(k):
            out[rows] = values[self.member[k[rows]], i[rows], j[rows]]
        return out


def _solve_windows(tsys, points, n, tol, reach):
    """The tables of ``points``, an (m, 2) array, as a :class:`_Stacks`:
    each table as :func:`solve_riemann` gives it for its point alone.

    B12, B11 and C1 are evaluated once on the uniform ``n x n`` grid (on a
    traced map ``transform_system`` memoises that grid, so only the first
    call pulls it back); a window of uniform nodes is sliced from that
    evaluation, a window with an inserted node is evaluated on its own
    nodes.  The windows of one shape class (node counts rounded up to
    powers of 2) are stacked, each padded at its far end with zero
    coefficients and zero steps to the stack's shape, and iterated in one
    Picard loop until the last of them converges.  The trapezoid sums run
    from each window's first node, so the padding never reaches a table's
    cells, and a table's step is the sup norm over its own window.  A
    table's values are its iterate at the step where its own step reaches
    ``tol``, and the next step's sup norm is its residual, so its bits do
    not depend on its stack.  A table still above ``tol`` after
    ``_PICARD_MAX_ITER`` steps raises :class:`SolveError` naming its
    parameter.
    """
    if n < 9:
        raise ValueError("need at least 9 nodes per axis")
    if tol <= 0:
        raise ValueError("tol must be positive")
    eps = tsys.epsilon
    if np.any(np.abs(points) > eps + 1e-12):
        raise ValueError("parameter point outside the working square")
    uniform = np.linspace(-eps, eps, n)
    axes = [_windows(uniform, points[:, a], r) for a, r in enumerate(np.broadcast_to(reach, 2))]
    classes = np.ceil(np.log2(np.stack([axes[0][1], axes[1][1]], axis=1)))
    stack_of = np.unique(classes, axis=0, return_inverse=True)[1].ravel()
    grid = _coefficient_grid(tsys, uniform, uniform)
    member = np.zeros(len(points), dtype=int)
    iterations, residuals, values = np.zeros(len(points), dtype=int), np.zeros(len(points)), []
    for stack in range(stack_of.max(initial=-1) + 1):
        members = np.flatnonzero(stack_of == stack)
        member[members] = np.arange(len(members))
        final, iterations[members], residuals[members] = _solve_stack(
            tsys, points[members], [tuple(w[members] for w in window) for window in axes],
            uniform, grid, tol)
        values.append(final)
    return _Stacks(points, uniform, axes, stack_of, member, values, iterations, residuals)


def _solve_stack(tsys, parameters, axes, uniform, grid, tol):
    """One stack of windows, from one Picard loop: the converged iterates,
    stack-shaped and zero in the padding, with each table's iterations and
    residual.

    ``axes`` holds, per axis, each window's first uniform index, node
    count, parameter index and inserted node (as :func:`_windows` gives
    them); ``grid`` holds B12, B11 and C1 on the ``uniform`` grid, and a
    window with an inserted node has them evaluated on its own nodes.  The
    stack's padding has zero coefficients and zero steps, and the iterate
    is zeroed there after each step, so its step is 0 and each table's
    step is its own window's.  A Picard step writes its products,
    integrals, iterate and step into buffers allocated once per stack
    (each trapezoid's cells aside), in the order of the per-table loop,
    and copies the iterates of the tables whose step reached ``tol`` at
    the step before into the stack-shaped result."""
    (s0, ls, i_xi, s_ins), (t0, lt, j_eta, t_ins) = axes
    in_s, in_t = (np.arange(c.max()) < c[:, None] for c in (ls, lt))
    mask = in_s[:, :, None] & in_t[:, None, :]
    rows = np.minimum(s0[:, None] + np.arange(in_s.shape[1]), len(uniform) - 1)
    cols = np.minimum(t0[:, None] + np.arange(in_t.shape[1]), len(uniform) - 1)
    b12, b11, c1 = (g[rows[:, :, None], cols[:, None, :]] * mask for g in grid)
    s, t = (_window_rows(uniform, w, inside.shape[1]) for w, inside in zip(axes, (in_s, in_t)))
    for m in np.flatnonzero(np.isfinite(s_ins) | np.isfinite(t_ins)):
        b12[m, :ls[m], :lt[m]], b11[m, :ls[m], :lt[m]], c1[m, :ls[m], :lt[m]] = (
            _coefficient_grid(tsys, s[m, :ls[m]], t[m, :lt[m]]))
    ds, dt = (np.diff(s) * in_s[:, 1:])[:, :, None], (np.diff(t) * in_t[:, 1:])[:, None, :]
    count = len(parameters)
    k = np.arange(count)
    r = mask.astype(float)
    out, prod, final, along_s, along_t = (np.empty_like(r) for _ in range(5))
    converged = np.full(count, -1)  # the step where each table's step reached tol
    captured, residuals = np.zeros(count, dtype=bool), np.zeros(count)
    for it in range(1, _PICARD_MAX_ITER + 2):
        # one step, each table integrating from its own parameter node
        # (i_xi, j_eta): out = 1 + int_s + int_t - int_st, zeroed in the padding
        _cumulative_trapezoid(np.multiply(b12, r, out=prod), ds, 1, along_s)
        along_s -= along_s[k, i_xi][:, None, :]
        np.add(along_s, 1.0, out=out)
        _cumulative_trapezoid(np.multiply(b11, r, out=prod), dt, 2, along_t)
        along_t -= along_t[k, :, j_eta][:, :, None]
        out += along_t
        _cumulative_trapezoid(np.multiply(c1, r, out=prod), dt, 2, along_t)
        along_t -= along_t[k, :, j_eta][:, :, None]
        _cumulative_trapezoid(along_t, ds, 1, along_s)
        along_s -= along_s[k, i_xi][:, None, :]
        out -= along_s
        out *= mask
        step = np.abs(np.subtract(out, r, out=prod), out=prod).max(axis=(1, 2))
        newly = converged == it - 1
        if newly.any():
            np.copyto(final, r, where=newly[:, None, None])
            residuals[newly] = step[newly]
            captured |= newly
            if captured.all():
                break
        converged[(converged < 0) & (step <= tol)] = it
        if it == _PICARD_MAX_ITER and np.any(converged < 0):
            e = int(np.argmax(converged < 0))
            raise SolveError(
                f"Picard iteration for the Riemann table of parameter "
                f"{tuple(map(float, parameters[e]))} did not contract to {tol} within "
                f"{_PICARD_MAX_ITER} steps (last sup-norm step {step[e]:.3g})"
            )
        r, out = out, r
    return final, converged, residuals


def _keys(points):
    """The key of each row of ``points``, the parameter a table is solved
    at: each entry rounded to 14 decimals as Python's ``round(x, 14)``
    rounds it, in array passes.  The scaled value's ``rint`` is the
    integer that correctly rounded ``round`` picks wherever the scaled
    value lies farther than its spacing from a half-integer, and dividing
    it back is then the same correctly rounded division; the other
    entries go through ``round``."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = points * 1e14
        near = np.rint(scaled)
        keys = near / 1e14
        tie = ~(np.abs(np.abs(scaled - near) - 0.5) > np.spacing(np.abs(scaled)))
    keys[tie] = [round(float(x), 14) for x in points[tie]]
    return keys


class RiemannProvider:
    """Where Riemann tables are solved: on ``n`` uniform nodes per axis, to
    ``tol``, each on its window of ``reach``, one distance or a pair
    (along s, along t) (see :func:`solve_riemann`; the whole square by
    default), and each at its parameter's key (:func:`_keys`).
    :meth:`solve` gives a batch of tables as stack arrays, the form that
    :func:`_kernel_table` and :func:`represent_solution` read;
    :meth:`table` gives one table.  A table has the same bits on either
    route."""

    def __init__(self, tsys, n, tol=1e-10, reach=np.inf):
        self.tsys = tsys
        self.n = n
        self.tol = tol
        self.reach = reach

    def solve(self, parameters):
        """The tables of ``parameters``, one per distinct key, each solved
        at its key: a :class:`_Stacks` of the keys in order of first
        appearance, and each parameter's key."""
        keys = _keys(np.reshape(np.asarray(parameters, dtype=float), (-1, 2)))
        _, first, of = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        order = np.argsort(first)
        solved = _solve_windows(self.tsys, keys[first[order]], self.n, self.tol, self.reach)
        return solved, np.argsort(order)[of.ravel()]

    def table(self, parameter):
        """The :class:`RiemannTable` of ``parameter``'s key, from
        :func:`solve_riemann`, owning its values."""
        key = _keys(np.reshape(np.asarray(parameter, dtype=float), (1, 2)))[0]
        return solve_riemann(self.tsys, key, self.n, self.tol, self.reach)


@dataclass(frozen=True)
class CauchyTraces:
    """Values of the axis traces phi(s) = ds w(s,0) + B12(s,0) w(s,0)
    and psi(t) = dt w(0,t) + B11(0,t) w(0,t) on uniform axis nodes."""

    nodes: np.ndarray
    phi: np.ndarray
    psi: np.ndarray


def represent_solution(provider, w00, traces, targets):
    """Evaluate the representation formula at each target point.

    ``w(s,t) = w00 R(0,0,s,t) + int_0^s R(sig,0,s,t) phi(sig) dsig
    + int_0^t R(0,tau,s,t) psi(tau) dtau``.  Each target point is the
    parameter of its own Riemann table; the tables are solved in one
    :meth:`RiemannProvider.solve` batch, and each is read on its two axis
    slices only, R(0, 0) at the node where they cross.  The formula is
    taken at each table's parameter, its target's key (:func:`_keys`), so
    both ends of each integral are window nodes: the parameter at its
    index, 0 at the crossing.  Each stack of tables is read in array
    passes: the slices, R(0, 0) and the ends in one gather each, and the
    trapezoid sums of the integrands along each window's nodes, padded at
    the far end.  The values have the bits of the same formula on each
    table.
    """
    solved, key = provider.solve(targets)
    i0, out = _origin(solved.uniform), np.empty(len(key))
    for values, rows in solved.groups(key):
        k, r = key[rows], np.arange(len(rows))
        m = solved.member[k]
        (ps, _), (pt, _) = (solved.position(axis, k, i0) for axis in (0, 1))
        val = w00 * values[m, ps, pt]
        for axis, along, trace, origin in ((0, values[m, :, pt], traces.phi, ps),
                                           (1, values[m, ps], traces.psi, pt)):
            nodes = solved.nodes(axis, k, along.shape[1])
            cum = _cumulative_trapezoid(along * np.interp(nodes, traces.nodes, trace),
                                        np.diff(nodes, axis=1), 1)
            val += cum[r, solved.windows[axis][2][k]] - cum[r, origin]
        out[rows] = val
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

    def march(x, u, k, lead, damp, force, start):
        """March from node ``start`` of these views to their last node."""
        # trapezoid weights over the nodes from 0 to s_j: ``inner`` holds
        # those of the nodes before s_j (half the first step at 0, the half
        # steps on either side after it), and s_j's is its half step
        half = np.diff(x[start:]) / 2
        inner = np.concatenate((half[:1], half[1:] + half[:-1]))
        for i in range(start, n - 1):
            j = i + 1
            h_s = x[j] - x[i]
            known = slice(start, j)  # nodes from 0 to s_i
            # trapezoid over [0, s] with the outer kernel argument fixed
            sig = x[known]
            int_i = np.trapezoid(k[i, known] * u[known], sig) if i > start else 0.0
            du_i = (force[i] - damp[i] * u[i] - int_i) / lead[i]
            int_j_known = float(np.dot(inner[:j - start], k[j, known] * u[known]))
            coupling = half[j - 1 - start] * k[j, j]
            denom = 1.0 + (h_s / 2) * (damp[j] + coupling) / lead[j]
            rhs = u[i] + (h_s / 2) * du_i + (h_s / 2) * (force[j] - int_j_known) / lead[j]
            u[j] = rhs / denom

    march(nodes, u, k_table, lead, damp, force, i0)
    # the backward march is the forward one on reversed views
    march(nodes[::-1], u[::-1], k_table[::-1, ::-1], lead[::-1], damp[::-1], force[::-1],
          n - 1 - i0)
    return nodes, u


def _kernel_table(tsys, provider, axis, nodes, step):
    """Kernel rows of the trace equation on ``axis``: ``L R(sig, 0; .)`` at
    ``(s, 0)`` (axis 's') or ``L R(0, sig; .)`` at ``(0, s)`` (axis 't'),
    from one ``apply_L`` pass over the axis, whose nine stencil parameters
    per node are solved in one :meth:`RiemannProvider.solve` batch of
    ``provider`` on the ``nodes``.  Row ``s`` holds only the segment of
    ``sig`` between 0 and ``s`` that ``volterra_ivp``'s march reads, read
    at the table's own nodes on the axis; the rest is NaN.  The rows of one
    stack of tables are one gather from its values: on axis s, entry ``j``
    of a table whose window starts at uniform node ``(s0, t0)`` is its
    value at ``(j - s0, i0 - t0)``, with ``i0`` the node at 0; axis t is
    the mirror.  A shifted stencil puts a parameter two steps of ``step``
    from its node, so the windows must reach that far along ``axis``
    (:func:`_chain_reach`); a segment beyond a window's own nodes raises
    ValueError naming the point and the parameter."""
    zero = np.zeros_like(nodes)
    at = (nodes, zero) if axis == "s" else (zero, nodes)
    along = "st".index(axis)

    def rows(xi, eta):
        solved, key = provider.solve(np.stack([xi.ravel(), eta.ravel()], axis=1))
        i0, column = _origin(solved.uniform), np.arange(len(nodes))
        node = np.arange(key.size) % len(nodes)  # the node of each stencil parameter
        lo, hi = np.minimum(node, i0), np.maximum(node, i0)
        r, j = np.nonzero((column >= lo[:, None]) & (column <= hi[:, None]))  # the entries read
        k = key[r]
        p, inside = solved.position(along, k, j)
        if not inside.all():
            e = int(np.argmin(inside))
            end = float(nodes[lo[r[e]] if j[e] == lo[r[e]] else hi[r[e]]])
            raise _outside(*((end, 0.0) if axis == "s" else (0.0, end)),
                           tuple(map(float, solved.points[k[e]])))
        q, _ = solved.position(1 - along, k, i0)
        out = np.full((key.size, len(nodes)), np.nan)
        out[r, j] = solved.read(k, *((p, q) if axis == "s" else (q, p)))
        return out.reshape(xi.shape + nodes.shape)

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
    Each use's tables are one batch, read as stack arrays: the chain
    builds no :class:`RiemannTable`.  Returns ``(traces, values)``.
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
