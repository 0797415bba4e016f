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

The solution representation and the two integro-differential initial
value problems for the Cauchy traces use these tables: solving the
homogeneous problems is the computational content of forcing the traces
to vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

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
]


class SolveError(RuntimeError):
    """Iteration failed to contract or a solver precondition broke."""


_PICARD_MAX_ITER = 200  # Picard steps before a table is declared divergent
_LEAD_FLOOR = 1e-12  # least admissible |A(s)| in volterra_ivp


def _axis_nodes(eps, n, extra):
    """Uniform nodes on [-eps, eps] augmented with one extra abscissa."""
    nodes = np.linspace(-eps, eps, n)
    if np.min(np.abs(nodes - extra)) > 1e-12 * max(eps, 1.0):
        nodes = np.sort(np.append(nodes, extra))
    idx = int(np.argmin(np.abs(nodes - extra)))
    return nodes, idx


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
        """Bilinear interpolation; exact on grid nodes."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        scalar = s.ndim == 0 and t.ndim == 0
        s, t = np.atleast_1d(s), np.atleast_1d(t)
        s, t = np.broadcast_arrays(s, t)
        i = np.clip(np.searchsorted(self.s_nodes, s) - 1, 0, len(self.s_nodes) - 2)
        j = np.clip(np.searchsorted(self.t_nodes, t) - 1, 0, len(self.t_nodes) - 2)
        s0, s1 = self.s_nodes[i], self.s_nodes[i + 1]
        t0, t1 = self.t_nodes[j], self.t_nodes[j + 1]
        ws = np.where(s1 > s0, (s - s0) / np.where(s1 > s0, s1 - s0, 1.0), 0.0)
        wt = np.where(t1 > t0, (t - t0) / np.where(t1 > t0, t1 - t0, 1.0), 0.0)
        v00 = self.values[i, j]
        v10 = self.values[i + 1, j]
        v01 = self.values[i, j + 1]
        v11 = self.values[i + 1, j + 1]
        out = (
            v00 * (1 - ws) * (1 - wt)
            + v10 * ws * (1 - wt)
            + v01 * (1 - ws) * wt
            + v11 * ws * wt
        )
        return float(out[0]) if scalar else out

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


def solve_riemann(tsys, parameter, n, tol=1e-10):
    """Fixed point of the Riemann integral equation on the square.

    ``n`` uniform nodes per axis (augmented with the parameter
    abscissae when they fall off the uniform grid); iteration stops when
    successive iterates differ by at most ``tol`` in sup norm.
    """
    if n < 9:
        raise ValueError("need at least 9 nodes per axis")
    if tol <= 0:
        raise ValueError("tol must be positive")
    xi, eta = (float(parameter[0]), float(parameter[1]))
    eps = tsys.epsilon
    if abs(xi) > eps + 1e-12 or abs(eta) > eps + 1e-12:
        raise ValueError("parameter point outside the working square")
    s_nodes, i_xi = _axis_nodes(eps, n, xi)
    t_nodes, j_eta = _axis_nodes(eps, n, eta)
    sg, tg = np.meshgrid(s_nodes, t_nodes, indexing="ij")
    b12 = np.broadcast_to(tsys.b12(sg, tg), sg.shape)
    b11 = np.broadcast_to(tsys.b11(sg, tg), sg.shape)
    c1 = np.broadcast_to(tsys.c1(sg, tg), sg.shape)

    def picard(r):
        cs = cumulative_trapezoid(b12 * r, s_nodes, axis=0, initial=0.0)
        int_s = cs - cs[i_xi, :][None, :]
        ct = cumulative_trapezoid(b11 * r, t_nodes, axis=1, initial=0.0)
        int_t = ct - ct[:, j_eta][:, None]
        d = cumulative_trapezoid(c1 * r, t_nodes, axis=1, initial=0.0)
        d = d - d[:, j_eta][:, None]
        dd = cumulative_trapezoid(d, s_nodes, axis=0, initial=0.0)
        int_st = dd - dd[i_xi, :][None, :]
        return 1.0 + int_s + int_t - int_st

    r = np.ones_like(sg)
    diff = np.inf
    for it in range(1, _PICARD_MAX_ITER + 1):
        r_new = picard(r)
        diff = float(np.max(np.abs(r_new - r)))
        r = r_new
        if diff <= tol:
            break
    else:
        raise SolveError(
            f"Picard iteration did not contract to {tol} within {_PICARD_MAX_ITER} steps"
        )
    residual = float(np.max(np.abs(picard(r) - r)))
    return RiemannTable(
        parameter=(xi, eta),
        s_nodes=s_nodes,
        t_nodes=t_nodes,
        values=r,
        iterations=it,
        residual=residual,
    )


class RiemannProvider:
    """Memoised Riemann tables keyed by parameter point."""

    def __init__(self, tsys, n, tol=1e-10):
        self.tsys = tsys
        self.n = n
        self.tol = tol
        self._cache = {}

    def table(self, parameter):
        key = (round(float(parameter[0]), 14), round(float(parameter[1]), 14))
        tab = self._cache.get(key)
        if tab is None:
            tab = solve_riemann(self.tsys, key, self.n, self.tol)
            self._cache[key] = tab
        return tab

    def value(self, s, t, xi, eta):
        """R(s, t, xi, eta) -- evaluation point first, then parameter."""
        return self.table((xi, eta)).value(s, t)

    @property
    def grid_step(self):
        return 2 * self.tsys.epsilon / (self.n - 1)


@dataclass(frozen=True)
class CauchyTraces:
    """Values of the axis traces phi(s) = ds w(s,0) + B12(s,0) w(s,0)
    and psi(t) = dt w(0,t) + B11(0,t) w(0,t) on uniform axis nodes."""

    nodes: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    provenance: str

    @classmethod
    def from_w(cls, tsys, w, ws, wt, n):
        """Build traces from callables for w and its first partials."""
        nodes = np.linspace(-tsys.epsilon, tsys.epsilon, n)
        zero = np.zeros_like(nodes)
        phi = np.asarray(ws(nodes, zero)) + np.asarray(tsys.b12(nodes, zero)) * np.asarray(
            w(nodes, zero)
        )
        psi = np.asarray(wt(zero, nodes)) + np.asarray(tsys.b11(zero, nodes)) * np.asarray(
            w(zero, nodes)
        )
        return cls(nodes=nodes, phi=phi, psi=psi, provenance="from-w-traces")

    @classmethod
    def from_arrays(cls, nodes, phi, psi, provenance="from-volterra-solve"):
        return cls(
            nodes=np.asarray(nodes, dtype=float),
            phi=np.asarray(phi, dtype=float),
            psi=np.asarray(psi, dtype=float),
            provenance=provenance,
        )

    def phi_at(self, s):
        return np.interp(s, self.nodes, self.phi)

    def psi_at(self, t):
        return np.interp(t, self.nodes, self.psi)


def _integral_to(nodes, values, b):
    """Signed trapezoid integral from 0 to b along tabulated values;
    both 0 and b must lie within the node range."""
    cum = cumulative_trapezoid(values, nodes, initial=0.0)
    c0 = np.interp(0.0, nodes, cum)
    cb = np.interp(b, nodes, cum)
    return cb - c0


def represent_solution(tsys, provider, w00, traces, targets):
    """Evaluate the representation formula at each target point.

    ``w(s,t) = w00 R(0,0,s,t) + int_0^s R(sig,0,s,t) phi(sig) dsig
    + int_0^t R(0,tau,s,t) psi(tau) dtau``.  Each target point is the
    parameter of its own Riemann table.
    """
    out = np.empty(len(targets))
    for k, (s, t) in enumerate(targets):
        tab = provider.table((s, t))
        val = w00 * tab.value(0.0, 0.0)
        s_nodes, s_vals = tab.axis_slice("s")
        integrand = s_vals * traces.phi_at(s_nodes)
        val += _integral_to(s_nodes, integrand, s)
        t_nodes, t_vals = tab.axis_slice("t")
        integrand = t_vals * traces.psi_at(t_nodes)
        val += _integral_to(t_nodes, integrand, t)
        out[k] = val
    return out


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


def kernel_PQ(tsys, provider, axis, nodes, fd_step=None):
    """Damping coefficients P(s,0) (axis 's') or Q(0,t) (axis 't').

    ``P = A11 (ds + 2 dxi) R(s,0,xi,t)|xi=s + 2 A12 dt R(s,0,s,t)
    + B21 R(s,0,s,t)`` evaluated at t = 0; Q is the mirrored expression
    on the other axis.  Evaluation-point derivatives are differenced on
    the stored grid; parameter derivatives re-solve at perturbed
    parameter points (memoised by the provider).
    """
    if axis not in ("s", "t"):
        raise ValueError("axis must be 's' or 't'")
    eps = tsys.epsilon
    h = provider.grid_step
    d = 2 * h if fd_step is None else float(fd_step)
    if d < h - 1e-14:
        raise ValueError("parameter differencing step must not undercut the grid step")
    if axis == "s":
        lead, damp, pair = tsys.a11, tsys.b21, lambda a, b: (a, b)
    else:
        lead, damp, pair = tsys.a22, tsys.b22, lambda a, b: (b, a)
    out = np.empty(len(nodes))
    for k, v in enumerate(np.asarray(nodes, dtype=float)):
        here = pair(v, 0.0)
        tab = provider.table(here)
        a_lead = float(lead(*here))
        a12 = float(tsys.a12(*here))
        b_damp = float(damp(*here))
        r_here = tab.value(*here)  # equals 1 by construction
        d_eval = _fd1(lambda z: tab.value(*pair(z, 0.0)), v, h, -eps, eps)
        d_cross = _fd1(lambda z: tab.value(*pair(v, z)), 0.0, h, -eps, eps)
        d_param = _fd1(
            lambda z: provider.table(pair(z, 0.0)).value(*here), v, min(d, max(eps - abs(v), h)), -eps, eps
        )
        out[k] = a_lead * (d_eval + 2 * d_param) + 2 * a12 * d_cross + b_damp * r_here
    return out


def apply_L(tsys, f, at, step):
    """Apply the elliptic operator in the parameter variables.

    ``f`` is a callable of the parameter pair; ``at = (xi0, eta0)`` is
    where the derivatives are taken.  Near the edges of the square the
    stencils shift one-sided rather than leaving it.  ``f`` may return R
    on a row of evaluation points: the stencils are linear, so each entry
    is what a scalar call gives.
    """
    lo, hi = -tsys.epsilon, tsys.epsilon
    xi0, eta0 = at
    a11 = float(tsys.a11(xi0, eta0))
    a12 = float(tsys.a12(xi0, eta0))
    a22 = float(tsys.a22(xi0, eta0))
    b21 = float(tsys.b21(xi0, eta0))
    b22 = float(tsys.b22(xi0, eta0))
    c2 = float(tsys.c2(xi0, eta0))

    fxx = _fd2(lambda z: f(z, eta0), xi0, step, lo, hi)
    fyy = _fd2(lambda z: f(xi0, z), eta0, step, lo, hi)
    fx = _fd1(lambda z: f(z, eta0), xi0, step, lo, hi)
    fy = _fd1(lambda z: f(xi0, z), eta0, step, lo, hi)
    fxy = _fd1(
        lambda z: _fd1(lambda zz: f(zz, z), xi0, step, lo, hi), eta0, step, lo, hi
    )
    return (
        a11 * fxx + 2 * a12 * fxy + a22 * fyy + b21 * fx + b22 * fy + c2 * f(xi0, eta0)
    )


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
