"""End-to-end verification pipeline and solution-family estimation.

A scenario bundles a coefficient set, a base point, a working rectangle
and tolerances.  Running it audits the tensor hypotheses, reduces to the
overdetermined pair, builds characteristic coordinates, constructs the
Riemann machinery, demonstrates the vanishing argument on supplied point
data, and estimates the dimension of the local solution family of the
pair by singular-value analysis of its finite-difference discretisation.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import factorial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dtbtrs
from scipy.sparse.linalg import svds

from ucp2d import characteristics as ch
from ucp2d import riemann as rm
from ucp2d import tensors
from ucp2d.geometry import Rect
from ucp2d.reduction import reduce_system, second_order_matrix, second_order_rank

__all__ = [
    "Tolerances",
    "Scenario",
    "StageError",
    "DegenerateDataError",
    "NullSpaceResult",
    "PointDataFit",
    "run",
    "null_space_dimension",
    "point_data_solve",
    "complete_second_derivatives",
]

TASKS = ("conditions", "reduce", "characteristics", "riemann", "ucp", "nullspace")


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for reporting."""

    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class DegenerateDataError(RuntimeError):
    """Reduced point data cannot pin the remaining second derivatives."""


@dataclass(frozen=True)
class Tolerances:
    rank_threshold: float = 1e-9
    picard_tol: float = 1e-10
    ivp_tol: float = 1e-10
    nullspace_threshold: float = 1e-6
    conditions_n: int = 9

    def updated(self, overrides):
        known = {f_.name for f_ in self.__dataclass_fields__.values()}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(f"unknown tolerance keys: {', '.join(sorted(unknown))}")
        return replace(self, **overrides)


@dataclass(frozen=True)
class Scenario:
    name: str
    coefficients: tensors.ElasticityCoefficients
    point: tuple
    omega: Rect
    n: int = 65
    tolerances: Tolerances = field(default_factory=Tolerances)
    tasks: tuple = TASKS[:2]
    point_data: dict | None = None
    expect: dict = field(default_factory=dict)
    jobs: int = 1

    def __post_init__(self):
        if not self.omega.contains(*self.point):
            raise ValueError("base point must lie inside omega")
        bad = [t for t in self.tasks if t not in TASKS]
        if bad:
            raise ValueError(f"unknown tasks: {', '.join(bad)}")


def _parallel_map(fn, items, jobs):
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# -- finite-difference discretisation of the pair -------------------------


def _fd_weights(offsets, deriv):
    """Exact weights ``w`` with ``sum_k w_k p(o_k) = p^(deriv)(0)`` for every
    polynomial ``p`` of degree below ``len(offsets)`` (Lagrange basis
    derivatives in rational arithmetic, rounded once at the end)."""
    offsets = [Fraction(o) for o in offsets]
    weights = []
    for k, ok in enumerate(offsets):
        poly = [Fraction(1)]  # ascending coefficients of the k-th Lagrange basis
        for j, oj in enumerate(offsets):
            if j != k:
                poly = [(s - oj * c) / (ok - oj) for s, c in zip([0] + poly, poly + [0])]
        weights.append(float(poly[deriv] * factorial(deriv)))
    return weights


def _fd_matrix(n, h, deriv):
    """Fourth-order ``deriv``-th derivative on ``n`` uniform nodes.

    Five-point central rows inside; the two rows nearest each end use
    one-sided stencils of ``deriv + 4`` nodes, also fourth order.
    """
    mat = sp.diags(_fd_weights(range(-2, 3), deriv), range(-2, 3), shape=(n, n)).toarray()
    width = deriv + 4
    for i in (0, 1):
        mat[i] = 0.0
        mat[i, :width] = _fd_weights(range(-i, width - i), deriv)
        mat[-1 - i] = 0.0
        mat[-1 - i, -width:] = _fd_weights(range(i + 1 - width, i + 1), deriv)
    return sp.csr_matrix(mat / h**deriv)


def _d1_matrix(n, h):
    return _fd_matrix(n, h, 1)


def _d2_matrix(n, h):
    return _fd_matrix(n, h, 2)


def _assemble_operator(sys, region, n):
    """Stacked FD discretisation of both equations on all grid values.

    Fourth-order stencils (five-point central rows, one-sided fourth-order
    closures on the two rows nearest each edge) so the operator acts on
    the full grid.  Each row is scaled by its node's trapezoid-rule weight
    (1/2 on edges, 1/4 at corners), so the residual norm is an area-weighted
    norm over the region and the wide one-sided closure rows do not
    dominate ``sigma_max``.  Positive row weights leave the exact null
    space as it is.
    """
    xs, ys = region.grid(n)
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    trapezoid = np.ones(n)
    trapezoid[[0, -1]] = 0.5
    row_weights = sp.diags(np.outer(trapezoid, trapezoid).ravel())
    eye = sp.identity(n, format="csr")
    dx, dy = _d1_matrix(n, hx), _d1_matrix(n, hy)
    dxx, dyy = _d2_matrix(n, hx), _d2_matrix(n, hy)
    ops = {
        "xx": sp.kron(dxx, eye, format="csr"),
        "xy": sp.kron(dx, dy, format="csr"),
        "yy": sp.kron(eye, dyy, format="csr"),
        "x": sp.kron(dx, eye, format="csr"),
        "y": sp.kron(eye, dy, format="csr"),
        "id": sp.identity(n * n, format="csr"),
    }

    def block(op):
        c20, c11, c02, c10, c01, c00 = op.coefficients()
        total = None
        for coeff, key in (
            (c20, "xx"), (c11, "xy"), (c02, "yy"),
            (c10, "x"), (c01, "y"), (c00, "id"),
        ):
            if coeff.is_zero():
                continue
            vals = np.broadcast_to(coeff(xg, yg), xg.shape).ravel()
            term = sp.diags(vals) @ ops[key]
            total = term if total is None else total + term
        if total is None:
            total = sp.csr_matrix((n * n, n * n))
        return row_weights @ total

    return sp.vstack([block(sys.hyper), block(sys.ell)], format="csr"), (xs, ys)


# Ritz values past the ones the report reads: the block's last columns
# converge slowest, so they are iterated but not read.
_RITZ_GUARD = 8


@dataclass(frozen=True)
class NullSpaceResult:
    dimension: int
    basis: np.ndarray          # (dimension, n, n) grid functions, unit norm
    gap: float
    sigma_max: float
    smallest: np.ndarray       # ascending small singular values (relative)
    threshold: float
    ambiguous: bool
    basis_residuals: np.ndarray  # ||A v|| / sigma_max per basis vector
    grid: tuple


def _band_sorted(a):
    """Nonzero rows of the sparse ``a`` in a stable order of their leading
    column, with those leading columns and the bandwidth ``w``: every row
    spans at most ``w + 1`` columns from its leading one."""
    a = a.tocsr(copy=True)
    a.eliminate_zeros()
    a.sort_indices()
    rows = np.flatnonzero(np.diff(a.indptr))
    lead = a.indices[a.indptr[rows]]
    last = a.indices[a.indptr[rows + 1] - 1]
    order = np.argsort(lead, kind="stable")
    return a[rows[order]], lead[order], int((last - lead).max())


def _banded_r(a_sparse):
    """Upper-triangular factor R of a QR factorisation of the sparse
    ``a_sparse`` (so ``R^T R = A^T A``), in LAPACK upper-band storage
    ``ab[w + i - j, j] = R[i, j]``.

    With rows sorted by leading column, row ``i`` of R is a combination of
    rows leading at or before column ``i``, so R has the rows' bandwidth
    ``w`` (Golub & Van Loan, *Matrix Computations*, 5.7).  Householder QR
    then slides along the diagonal in panels of ``w`` columns: each dense
    block holds the rows left over from the previous panel plus the rows
    leading inside the panel, over the ``2 w`` columns they can reach.
    Its first ``w`` rows of R are final; the rest carry over.
    """
    a, lead, w = _band_sorted(a_sparse)
    ncol, panel = a.shape[1], max(w, 1)
    ab = np.zeros((w + 1, ncol))
    carry = np.zeros((0, 0))
    for c0 in range(0, ncol, panel):
        width, c_end = min(panel, ncol - c0), min(c0 + panel + w, ncol)
        r0, r1 = np.searchsorted(lead, [c0, c0 + width])
        block = np.zeros((len(carry) + r1 - r0, c_end - c0))
        block[: len(carry), : carry.shape[1]] = carry
        block[len(carry):] = a[r0:r1, c0:c_end].toarray()
        r = sla.qr(block, mode="r", overwrite_a=True, check_finite=False)[0]
        r = r[: min(r.shape)]
        # row k of the panel, offset d from the diagonal, inside the block
        k, d = np.nonzero(
            np.arange(min(width, len(r)))[:, None] + np.arange(w + 1) < r.shape[1]
        )
        ab[w - d, c0 + k + d] = r[k, k + d]
        carry = r[width:, width:]
    return ab


def _smallest_right_vectors(a_sparse, r_band, k, sigma_max):
    """Block inverse iteration on the banded QR factor.

    Returns the ascending Ritz values of ``a_sparse`` on a ``k``-column
    subspace and its orthonormal Ritz vectors (columns), which approximate
    the right-singular vectors of the ``k`` smallest singular values.
    Each step solves with ``R^T`` and then with ``R`` (``dtbtrs``),
    orthonormalising after every solve, and finishes with a Rayleigh-Ritz
    SVD of ``A V``.  It stops once the first ``k - 8`` Ritz values repeat
    to 1e-13 relative, or to 1e-15 of ``sigma_max`` for rounding-level
    values.
    """
    w = r_band.shape[0] - 1
    diag = r_band[w]
    floor = max(np.abs(diag).max(), 1.0) * 1e-150
    r_safe = r_band.copy()
    r_safe[w] = np.where(np.abs(diag) < floor, floor, diag)
    rng = np.random.default_rng(0)
    v, _ = np.linalg.qr(rng.standard_normal((r_band.shape[1], k)))
    watched = slice(0, max(k - _RITZ_GUARD, 1))
    previous = None
    for _ in range(100):
        for trans in ("T", "N"):
            v, _ = dtbtrs(r_safe, v, trans=trans)
            v, _ = np.linalg.qr(v)
        _, ritz, zt = np.linalg.svd(a_sparse @ v, full_matrices=False)
        ritz = ritz[::-1]
        if previous is not None and np.all(
            np.abs(ritz - previous)[watched]
            <= np.maximum(1e-13 * ritz, 1e-15 * sigma_max)[watched]
        ):
            break
        previous = ritz
    return ritz, v @ zt.T[:, ::-1]


def null_space_dimension(sys, region, n, threshold=1e-6, k_report=12):
    """Dimension, basis and spectral gap of the pair's discrete null space.

    Both equations are discretised on an ``n x n`` grid with fourth-order
    stencils and stacked, rows weighted by the trapezoid rule (see
    ``_assemble_operator``); smooth solutions then leave O(h^4) images.
    The dimension is the count of singular values at or below
    ``threshold * sigma_max``.  The reported gap is the ratio across the
    threshold index (or first-singular-value over threshold when the
    count is zero); ratios under 1e3 mark the dimension as ambiguous.

    Only the singular values the report reads are computed: ``sigma_max``
    by ARPACK on the sparse operator, and the smallest ``k_report + 8``
    by block inverse iteration on a banded QR factor (``_banded_r``).
    The block doubles while the dimension fills its converged part, so
    the dimension is never capped.
    """
    if n < 17:
        raise ValueError("need n >= 17 for a meaningful discretisation")
    a_sp, grid = _assemble_operator(sys, region, n)
    nn = n * n
    k_report = min(k_report, nn - 1)
    if a_sp.count_nonzero() == 0:
        raise ValueError("zero operator; null space is everything")
    v0 = np.random.default_rng(0).standard_normal(nn)  # fixed: reports are deterministic
    sigma_max = float(svds(a_sp, k=1, v0=v0, tol=0, return_singular_vectors=False)[0])
    r_band = _banded_r(a_sp)
    block = k_report + _RITZ_GUARD
    while True:
        asc, vecs = _smallest_right_vectors(a_sp, r_band, min(block, nn), sigma_max)
        d = int(np.sum(asc <= threshold * sigma_max))
        if d + _RITZ_GUARD < block or block >= nn:
            break
        block *= 2
    vecs = vecs[:, :d]
    small = asc[: max(k_report, d + 1)] / sigma_max
    if d == 0:
        gap = float(asc[0] / (threshold * sigma_max))
    elif d < len(asc):
        gap = float(asc[d] / max(asc[d - 1], np.finfo(float).tiny))
    else:
        gap = np.inf
    residuals = np.array(
        [np.linalg.norm(a_sp @ vecs[:, i]) / sigma_max for i in range(d)]
    )
    basis = np.transpose(vecs).reshape(d, n, n) if d else np.zeros((0, n, n))
    return NullSpaceResult(
        dimension=d,
        basis=basis,
        gap=gap,
        sigma_max=sigma_max,
        smallest=np.asarray(small, dtype=float),
        threshold=float(threshold),
        ambiguous=bool(gap < 1e3),
        basis_residuals=residuals,
        grid=grid,
    )


def projection_defect(result, values):
    """Distance of a unit-normalised grid function from the numerical
    null space, measured in the grid 2-norm."""
    g = np.asarray(values, dtype=float).ravel()
    g = g / np.linalg.norm(g)
    if result.dimension == 0:
        return 1.0
    v = result.basis.reshape(result.dimension, -1).T
    coeffs = v.T @ g
    return float(np.linalg.norm(g - v @ coeffs))


# -- point-data analysis ---------------------------------------------------


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


def complete_second_derivatives(sys, x0, y0, data, given_second, rank_threshold=1e-9):
    """Recover the unobserved second derivatives from four-value data.

    With ``u, ux, uy`` and one of ``uxx/uyy`` given, the two equations
    of the pair restrict the remaining pair ``(uxy, other)`` at the
    point.  A nonsingular 2x2 system pins them (this always happens when
    the mixed-offdiagonal coefficient ``a1222`` vanishes at the point);
    a rank-deficient one is the counterexample situation and raises
    :class:`DegenerateDataError`.
    """
    if given_second not in ("uxx", "uyy"):
        raise ValueError("given_second must be 'uxx' or 'uyy'")
    h = second_order_matrix(sys, x0, y0)  # rows: hyper, ell; cols xx, xy, yy
    lower = np.array(
        [
            [sys.hyper.c10(x0, y0), sys.hyper.c01(x0, y0), sys.hyper.c00(x0, y0)],
            [sys.ell.c10(x0, y0), sys.ell.c01(x0, y0), sys.ell.c00(x0, y0)],
        ]
    )
    known_col = 0 if given_second == "uxx" else 2
    unknown_key = "uyy" if given_second == "uxx" else "uxx"
    unknown_col = 2 - known_col
    m = h[:, [1, unknown_col]]  # columns: uxy, missing second derivative
    rhs = -(
        h[:, known_col] * data[given_second]
        + lower @ np.array([data["ux"], data["uy"], data["u"]])
    )
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] == 0 or sv[1] <= rank_threshold * sv[0]:
        raise DegenerateDataError(
            "the pair degenerates under the reduced data: remaining second "
            "derivatives are not determined at the point"
        )
    uxy, missing = np.linalg.solve(m, rhs)
    completed = dict(data)
    completed[unknown_key] = float(missing)
    return completed, float(uxy)


# -- scenario execution ----------------------------------------------------

_EXPECT_KEYS = {
    "ellipticity_positive",
    "convexity_positive",
    "delta_positive",
    "pencil_defective",
    "rank_at_point",
    "nullspace_dim",
    "nullspace_gap_min",
    "reduced_data_degenerate",
    "transferred_data_max",
    "traces_sup_max",
    "w_sup_max",
    "riemann_residual_max",
}


def run(scenario):
    """Execute the scenario's tasks in dependency order.

    Returns ``(report, failures)``: a nested dict of computed values
    (stable structure, JSON-serialisable) and the list of expectation
    mismatches (empty when all ``expect`` entries hold).
    """
    unknown = set(scenario.expect) - _EXPECT_KEYS
    if unknown:
        raise StageError("expect", f"unknown expectation keys: {', '.join(sorted(unknown))}")
    tol = scenario.tolerances
    x0, y0 = scenario.point
    report = {
        "scenario": scenario.name,
        "point": [x0, y0],
        "omega": {
            "center": list(scenario.omega.center),
            "halfwidths": list(scenario.omega.halfwidths),
        },
        "grid_n": scenario.n,
        "tasks": list(scenario.tasks),
        "tolerances": {
            "rank_threshold": tol.rank_threshold,
            "picard_tol": tol.picard_tol,
            "ivp_tol": tol.ivp_tol,
            "nullspace_threshold": tol.nullspace_threshold,
            "conditions_n": tol.conditions_n,
        },
    }
    sys = reduce_system(scenario.coefficients)
    needs_hyperbolic = any(
        t in scenario.tasks for t in ("characteristics", "riemann", "ucp")
    )

    xs, ys = scenario.omega.grid(tol.conditions_n)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    delta_grid = np.broadcast_to(tensors.delta_field(scenario.coefficients)(xg, yg), xg.shape)
    delta_min, delta_max = float(delta_grid.min()), float(delta_grid.max())

    if "conditions" in scenario.tasks:
        try:
            pencil = tensors.pencil_eigenpairs(scenario.coefficients, x0, y0)
            pencil_report = {
                "roots": [[float(r.real), float(r.imag)] for r in pencil.roots],
                "conditioning_min": float(pencil.conditioning.min()),
                "nullities": [int(v) for v in pencil.nullity],
                "defective": pencil.defective,
                "residual_max": float(pencil.residuals.max()),
            }
        except ValueError as err:
            pencil_report = {"error": str(err)}
        report["conditions"] = {
            "ellipticity_margin": float(
                tensors.ellipticity_margin(scenario.coefficients, scenario.omega, tol.conditions_n)
            ),
            "convexity_margin": float(
                tensors.convexity_margin(scenario.coefficients, scenario.omega, tol.conditions_n)
            ),
            "delta_min": delta_min,
            "delta_max": delta_max,
            "pencil": pencil_report,
        }

    if "reduce" in scenario.tasks:
        e20, e11, e02 = (f(xg, yg) for f in sys.ell.coefficients()[:3])
        edisc = np.broadcast_to(e11 * e11 - 4.0 * np.asarray(e20) * np.asarray(e02), xg.shape)
        report["reduce"] = {
            "rank_at_point": second_order_rank(sys, x0, y0, tol.rank_threshold),
            "elliptic_discriminant_max": float(edisc.max()),
            "hyper_second_order": [
                float(f(x0, y0)) for f in sys.hyper.coefficients()[:3]
            ],
            "ell_second_order": [float(f(x0, y0)) for f in sys.ell.coefficients()[:3]],
        }

    cmap = tsys = None
    if needs_hyperbolic:
        if delta_min <= 0.0:
            raise StageError(
                "characteristics",
                f"hyperbolicity precondition violated: min Delta = {delta_min} on omega",
            )
        try:
            cmap = ch.build_map(sys, scenario.omega, x0, y0)
            tsys = ch.transform_system(sys, cmap, scenario.omega)
        except (ch.MapError, ch.TransformError) as err:
            raise StageError("characteristics", str(err)) from err

    if "characteristics" in scenario.tasks:
        u = np.linspace(-tsys.epsilon, tsys.epsilon, 7)
        sgr, tgr = np.meshgrid(u, u, indexing="ij")
        xb, yb = cmap.inverse(sgr.ravel(), tgr.ravel())
        detj = cmap.det_jacobian(np.asarray(xb), np.asarray(yb))
        a11g = np.asarray(tsys.a11(sgr.ravel(), tgr.ravel()))
        a12g = np.asarray(tsys.a12(sgr.ravel(), tgr.ravel()))
        a22g = np.asarray(tsys.a22(sgr.ravel(), tgr.ravel()))
        report["characteristics"] = {
            "case": cmap.case,
            "linear": cmap.linear,
            "epsilon": tsys.epsilon,
            "det_jacobian_range": [float(np.min(np.abs(detj))), float(np.max(np.abs(detj)))],
            "elliptic_discriminant_max": float(np.max(a12g**2 - a11g * a22g)),
            "normal_form_coefficients_at_origin": {
                "B11": float(tsys.b11(0.0, 0.0)),
                "B12": float(tsys.b12(0.0, 0.0)),
                "C1": float(tsys.c1(0.0, 0.0)),
                "A11": float(tsys.a11(0.0, 0.0)),
                "A12": float(tsys.a12(0.0, 0.0)),
                "A22": float(tsys.a22(0.0, 0.0)),
            },
        }

    provider = None
    if tsys is not None and ("riemann" in scenario.tasks or "ucp" in scenario.tasks):
        n_axis = scenario.n if scenario.n % 2 == 1 else scenario.n + 1
        provider = rm.RiemannProvider(tsys, n_axis, tol.picard_tol)

    if "riemann" in scenario.tasks:
        tab = provider.table((0.0, 0.0))
        report["riemann"] = {
            "nodes_per_axis": int(len(tab.s_nodes)),
            "iterations": tab.iterations,
            "residual": tab.residual,
            "value_at_parameter": tab.value(0.0, 0.0),
        }

    if "ucp" in scenario.tasks:
        report["ucp"] = _run_ucp_stage(scenario, sys, cmap, tsys, provider)

    if "nullspace" in scenario.tasks:
        ns = null_space_dimension(
            sys, scenario.omega, scenario.n, tol.nullspace_threshold
        )
        report["nullspace"] = {
            "dimension": ns.dimension,
            "gap": ns.gap if np.isfinite(ns.gap) else 1e308,
            "ambiguous": ns.ambiguous,
            "threshold": ns.threshold,
            "sigma_max": ns.sigma_max,
            "smallest_relative_sigmas": [float(v) for v in ns.smallest[:8]],
            "basis_residuals": [float(v) for v in ns.basis_residuals],
        }

    failures = _check_expectations(scenario, report)
    report["expect"] = dict(sorted(scenario.expect.items()))
    report["verdict"] = {"passed": not failures, "failures": failures}
    return report, failures


def _run_ucp_stage(scenario, sys, cmap, tsys, provider):
    tol = scenario.tolerances
    x0, y0 = scenario.point
    if scenario.point_data is None:
        raise StageError("ucp", "the ucp task needs point_data in the scenario")
    data = dict(scenario.point_data)
    result = {}
    seconds = [k for k in ("uxx", "uyy") if k in data]
    if len(seconds) == 1:
        result["data_mode"] = f"four-value ({seconds[0]} given)"
        try:
            data, _ = complete_second_derivatives(
                sys, x0, y0, data, seconds[0], tol.rank_threshold
            )
            result["reduced_data_degenerate"] = False
            result["a1222_at_point"] = float(scenario.coefficients.a1222(x0, y0))
        except DegenerateDataError as err:
            result["reduced_data_degenerate"] = True
            result["declined"] = str(err)
            return result
    elif len(seconds) == 2:
        result["data_mode"] = "five-value"
        result["reduced_data_degenerate"] = False
    else:
        raise StageError("ucp", "point_data must carry one or both second derivatives")

    wdata = ch.transfer_point_data(sys, cmap, data)
    result["transferred"] = {
        "w": wdata.w, "ws": wdata.ws, "wt": wdata.wt,
        "wss": wdata.wss, "wst": wdata.wst, "wtt": wdata.wtt,
        "uxy_deduced": wdata.uxy,
    }
    transferred_max = float(np.max(np.abs(wdata.as_array())))
    result["transferred_max"] = transferred_max
    if transferred_max > 100 * tol.ivp_tol:
        result["declined"] = (
            "point data does not vanish, so the vanishing argument does not apply"
        )
        return result

    eps = tsys.epsilon
    n_axis = provider.n
    nodes = np.linspace(-eps, eps, n_axis)
    h = provider.grid_step
    p_vals = rm.kernel_PQ(tsys, provider, "s", nodes)
    q_vals = rm.kernel_PQ(tsys, provider, "t", nodes)

    def kernel_phi(s, sig):
        return rm.apply_L(
            tsys, lambda xi, eta: provider.value(sig, 0.0, xi, eta), (s, 0.0), 2 * h
        )

    def kernel_psi(t, tau):
        return rm.apply_L(
            tsys, lambda xi, eta: provider.value(0.0, tau, xi, eta), (0.0, t), 2 * h
        )

    _, phi = rm.volterra_ivp(
        leading=lambda s: float(tsys.a11(s, 0.0)),
        damping=lambda s: float(np.interp(s, nodes, p_vals)),
        kernel=kernel_phi,
        forcing=lambda s: 0.0,
        interval=(-eps, eps),
        n=n_axis,
    )
    _, psi = rm.volterra_ivp(
        leading=lambda t: float(tsys.a22(0.0, t)),
        damping=lambda t: float(np.interp(t, nodes, q_vals)),
        kernel=kernel_psi,
        forcing=lambda t: 0.0,
        interval=(-eps, eps),
        n=n_axis,
    )
    result["phi_sup"] = float(np.max(np.abs(phi)))
    result["psi_sup"] = float(np.max(np.abs(psi)))

    traces = rm.CauchyTraces.from_arrays(nodes, phi, psi)
    probe = np.linspace(-eps, eps, 9)
    targets = [(s, t) for s in probe for t in probe]

    def eval_chunk(chunk):
        return rm.represent_solution(tsys, provider, wdata.w, traces, chunk)

    chunks = [targets[i::max(scenario.jobs, 1)] for i in range(max(scenario.jobs, 1))]
    vals = _parallel_map(eval_chunk, [c for c in chunks if c], scenario.jobs)
    w_sup = float(max(np.max(np.abs(v)) for v in vals))
    result["w_sup"] = w_sup
    return result


def _check_expectations(scenario, report):
    failures = []

    def fail(key, want, got):
        failures.append(f"{key}: expected {want}, got {got}")

    exp = scenario.expect
    cond = report.get("conditions", {})
    if "ellipticity_positive" in exp:
        got = cond.get("ellipticity_margin", np.nan) > 0
        if got != exp["ellipticity_positive"]:
            fail("ellipticity_positive", exp["ellipticity_positive"], got)
    if "convexity_positive" in exp:
        got = cond.get("convexity_margin", np.nan) > 0
        if got != exp["convexity_positive"]:
            fail("convexity_positive", exp["convexity_positive"], got)
    if "delta_positive" in exp:
        got = cond.get("delta_min", np.nan) > 0
        if got != exp["delta_positive"]:
            fail("delta_positive", exp["delta_positive"], got)
    if "pencil_defective" in exp:
        got = cond.get("pencil", {}).get("defective")
        if got != exp["pencil_defective"]:
            fail("pencil_defective", exp["pencil_defective"], got)
    if "rank_at_point" in exp:
        got = report.get("reduce", {}).get("rank_at_point")
        if got != exp["rank_at_point"]:
            fail("rank_at_point", exp["rank_at_point"], got)
    if "nullspace_dim" in exp:
        got = report.get("nullspace", {}).get("dimension")
        if got != exp["nullspace_dim"]:
            fail("nullspace_dim", exp["nullspace_dim"], got)
    if "nullspace_gap_min" in exp:
        got = report.get("nullspace", {}).get("gap", 0.0)
        if not got >= exp["nullspace_gap_min"]:
            fail("nullspace_gap_min", f">= {exp['nullspace_gap_min']}", got)
    if "reduced_data_degenerate" in exp:
        got = report.get("ucp", {}).get("reduced_data_degenerate")
        if got != exp["reduced_data_degenerate"]:
            fail("reduced_data_degenerate", exp["reduced_data_degenerate"], got)
    if "transferred_data_max" in exp:
        got = report.get("ucp", {}).get("transferred_max", np.inf)
        if not got <= exp["transferred_data_max"]:
            fail("transferred_data_max", f"<= {exp['transferred_data_max']}", got)
    if "traces_sup_max" in exp:
        ucp = report.get("ucp", {})
        got = max(ucp.get("phi_sup", np.inf), ucp.get("psi_sup", np.inf))
        if not got <= exp["traces_sup_max"]:
            fail("traces_sup_max", f"<= {exp['traces_sup_max']}", got)
    if "w_sup_max" in exp:
        got = report.get("ucp", {}).get("w_sup", np.inf)
        if not got <= exp["w_sup_max"]:
            fail("w_sup_max", f"<= {exp['w_sup_max']}", got)
    if "riemann_residual_max" in exp:
        got = report.get("riemann", {}).get("residual", np.inf)
        if not got <= exp["riemann_residual_max"]:
            fail("riemann_residual_max", f"<= {exp['riemann_residual_max']}", got)
    return failures
