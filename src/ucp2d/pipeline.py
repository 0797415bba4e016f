"""End-to-end verification pipeline and solution-family estimation.

A scenario bundles a coefficient set, a base point, a working rectangle
and tolerances.  Running it audits the tensor hypotheses, reduces to the
overdetermined pair, builds characteristic coordinates, constructs the
Riemann machinery, demonstrates the vanishing argument on supplied point
data, and estimates the dimension of the local solution family of the
pair by singular-value analysis of its finite-difference discretisation.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
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
from ucp2d.fields import FieldError
from ucp2d.geometry import Rect
from ucp2d.reduction import reduce_system, second_order_matrix, second_order_rank

__all__ = [
    "Tolerances",
    "Scenario",
    "StageError",
    "stage",
    "DegenerateDataError",
    "NullSpaceResult",
    "PointDataFit",
    "run",
    "null_space_dimension",
    "point_data_solve",
    "complete_second_derivatives",
    "point_data_mode",
    "EXPECTATIONS",
    "validate_expect",
    "check_expectations",
    "expectations_for",
    "json_type_error",
    "characteristics",
    "riemann_provider",
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

    def __post_init__(self):
        if not self.omega.contains(*self.point):
            raise ValueError("base point must lie inside omega")
        bad = [t for t in self.tasks if t not in TASKS]
        if bad:
            raise ValueError(f"unknown tasks: {', '.join(bad)}")


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
# Smallest singular values a NullSpaceResult keeps (more when the dimension needs them).
_K_REPORT = 12


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


def null_space_dimension(sys, region, n, threshold=1e-6):
    """Dimension, basis and spectral gap of the pair's discrete null space.

    Both equations are discretised on an ``n x n`` grid with fourth-order
    stencils and stacked, rows weighted by the trapezoid rule (see
    ``_assemble_operator``); smooth solutions then leave O(h^4) images.
    The dimension is the count of singular values at or below
    ``threshold * sigma_max``.  The reported gap is the ratio across the
    threshold index (or first-singular-value over threshold when the
    count is zero); ratios under 1e3 mark the dimension as ambiguous.

    Only the singular values the report reads are computed: ``sigma_max``
    by ARPACK on the sparse operator, and the smallest ``_K_REPORT + 8``
    by block inverse iteration on a banded QR factor (``_banded_r``).
    The block doubles while the dimension fills its converged part, so
    the dimension is never capped.
    """
    if n < 17:
        raise ValueError("need n >= 17 for a meaningful discretisation")
    a_sp, grid = _assemble_operator(sys, region, n)
    nn = n * n
    k_report = min(_K_REPORT, nn - 1)
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

_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number"}
_RULES = {"==": operator.eq, ">=": operator.ge, "<=": operator.le}


def json_type_error(key, value, kind):
    """The message naming ``key`` when the parsed JSON ``value`` is not of
    ``kind`` (bool, int or float), else None.  Booleans are not numbers;
    integers are also floats."""
    if isinstance(value, bool) or kind is bool:
        ok = isinstance(value, bool) and kind is bool
    else:
        ok = isinstance(value, int if kind is int else (int, float))
    return None if ok else f"{key}: expected {_JSON_TYPES[kind]}, got {value!r}"


def _get(name, default=None):
    return lambda section: section.get(name, default)


def _positive(name):
    return lambda section: section.get(name, np.nan) > 0


# How one ``expect`` entry is checked: the task whose report section holds
# the value, the reader of the value from that section, the rule the value
# must meet against the expected one ("==", ">=" or "<="), and the JSON
# type of the expected value.
Expectation = namedtuple("Expectation", "task read rule kind")


# Every ``expect`` key, in the order its failures are listed.
EXPECTATIONS = {
    "ellipticity_positive": Expectation("conditions", _positive("ellipticity_margin"), "==", bool),
    "convexity_positive": Expectation("conditions", _positive("convexity_margin"), "==", bool),
    "delta_positive": Expectation("conditions", _positive("delta_min"), "==", bool),
    "pencil_defective": Expectation(
        "conditions", lambda c: c.get("pencil", {}).get("defective"), "==", bool
    ),
    "rank_at_point": Expectation("reduce", _get("rank_at_point"), "==", int),
    "nullspace_dim": Expectation("nullspace", _get("dimension"), "==", int),
    "nullspace_gap_min": Expectation("nullspace", _get("gap", 0.0), ">=", float),
    "reduced_data_degenerate": Expectation("ucp", _get("reduced_data_degenerate"), "==", bool),
    "transferred_data_max": Expectation("ucp", _get("transferred_max", np.inf), "<=", float),
    "traces_sup_max": Expectation(
        "ucp", lambda u: max(u.get("phi_sup", np.inf), u.get("psi_sup", np.inf)), "<=", float
    ),
    "w_sup_max": Expectation("ucp", _get("w_sup", np.inf), "<=", float),
    "riemann_residual_max": Expectation("riemann", _get("residual", np.inf), "<=", float),
}


def validate_expect(expect):
    """Raise ValueError, naming the key, when ``expect`` is not an object,
    holds a key missing from ``EXPECTATIONS`` or a value of the wrong type."""
    if not isinstance(expect, dict):
        raise ValueError(f"expect: expected an object, got {expect!r}")
    unknown = set(expect) - set(EXPECTATIONS)
    if unknown:
        raise ValueError(f"unknown expect keys: {', '.join(sorted(unknown))}")
    for key, value in expect.items():
        message = json_type_error(f"expect.{key}", value, EXPECTATIONS[key].kind)
        if message:
            raise ValueError(message)


def expectations_for(expect, tasks):
    """The entries of ``expect`` whose values the report sections of ``tasks`` hold."""
    return {k: v for k, v in expect.items() if EXPECTATIONS[k].task in tasks}


def check_expectations(expect, report):
    """Failure messages of the ``expect`` entries that ``report`` breaks."""
    failures = []
    for key, (task, read, rule, _) in EXPECTATIONS.items():
        if key in expect:
            want, got = expect[key], read(report.get(task, {}))
            if not _RULES[rule](got, want):
                shown = want if rule == "==" else f"{rule} {want}"
                failures.append(f"{key}: expected {shown}, got {got}")
    return failures


@contextmanager
def stage(name):
    """Run stage ``name`` with floating-point overflow and invalid
    operations raised; re-raise those and field, map and transform
    errors as errors of the stage."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, FieldError, ch.MapError, ch.TransformError) as err:
        raise StageError(name, str(err)) from err


def _delta_range(scenario):
    """Least and greatest Delta on the audit grid of omega."""
    xg, yg = np.meshgrid(*scenario.omega.grid(scenario.tolerances.conditions_n), indexing="ij")
    delta = np.broadcast_to(tensors.delta_field(scenario.coefficients)(xg, yg), xg.shape)
    return float(delta.min()), float(delta.max())


def characteristics(scenario, sys):
    """Characteristic map of the pair at the base point and the pair in its
    coordinates.  Needs Delta > 0 on the audit grid of omega."""
    with stage("characteristics"):
        delta_min = _delta_range(scenario)[0]
        if delta_min <= 0.0:
            raise StageError(
                "characteristics",
                f"hyperbolicity precondition violated: min Delta = {delta_min} on omega",
            )
        cmap = ch.build_map(sys, scenario.omega, *scenario.point)
        return cmap, ch.transform_system(sys, cmap, scenario.omega)


def riemann_provider(scenario, tsys):
    """Riemann tables of the transformed pair on an odd number of nodes per
    axis, so that 0 is a node."""
    n_axis = scenario.n if scenario.n % 2 == 1 else scenario.n + 1
    return rm.RiemannProvider(tsys, n_axis, scenario.tolerances.picard_tol)


def run(scenario):
    """Execute the scenario's tasks in dependency order.

    Returns ``(report, failures)``: a nested dict of computed values
    (stable structure, JSON-serialisable) and the list of expectation
    mismatches (empty when all ``expect`` entries hold).
    """
    try:
        validate_expect(scenario.expect)
    except ValueError as err:
        raise StageError("expect", str(err)) from err
    tol = scenario.tolerances
    tasks = scenario.tasks
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
        "tolerances": asdict(tol),
    }
    sys = reduce_system(scenario.coefficients)

    if "conditions" in tasks:
        with stage("conditions"):
            report["conditions"] = _conditions_report(scenario)

    if "reduce" in tasks:
        with stage("reduce"):
            xg, yg = np.meshgrid(*scenario.omega.grid(tol.conditions_n), indexing="ij")
            e20, e11, e02 = (f(xg, yg) for f in sys.ell.coefficients()[:3])
            edisc = np.broadcast_to(
                e11 * e11 - 4.0 * np.asarray(e20) * np.asarray(e02), xg.shape
            )
            report["reduce"] = {
                "rank_at_point": second_order_rank(sys, x0, y0, tol.rank_threshold),
                "elliptic_discriminant_max": float(edisc.max()),
                "hyper_second_order": [
                    float(f(x0, y0)) for f in sys.hyper.coefficients()[:3]
                ],
                "ell_second_order": [float(f(x0, y0)) for f in sys.ell.coefficients()[:3]],
            }

    if any(t in tasks for t in ("characteristics", "riemann", "ucp")):
        cmap, tsys = characteristics(scenario, sys)

    if "characteristics" in tasks:
        with stage("characteristics"):
            report["characteristics"] = _characteristics_report(cmap, tsys)

    if "riemann" in tasks or "ucp" in tasks:
        provider = riemann_provider(scenario, tsys)

    if "riemann" in tasks:
        with stage("riemann"):
            tab = provider.table((0.0, 0.0))
            report["riemann"] = {
                "nodes_per_axis": int(len(tab.s_nodes)),
                "iterations": tab.iterations,
                "residual": tab.residual,
                "value_at_parameter": tab.value(0.0, 0.0),
            }

    if "ucp" in tasks:
        with stage("ucp"):
            report["ucp"] = _run_ucp_stage(scenario, sys, cmap, tsys, provider)

    if "nullspace" in tasks:
        with stage("nullspace"):
            ns = null_space_dimension(sys, scenario.omega, scenario.n, tol.nullspace_threshold)
        report["nullspace"] = {
            "dimension": ns.dimension,
            "gap": ns.gap if np.isfinite(ns.gap) else 1e308,
            "ambiguous": ns.ambiguous,
            "threshold": ns.threshold,
            "sigma_max": ns.sigma_max,
            "smallest_relative_sigmas": [float(v) for v in ns.smallest[:8]],
            "basis_residuals": [float(v) for v in ns.basis_residuals],
        }

    failures = check_expectations(scenario.expect, report)
    report["expect"] = dict(sorted(scenario.expect.items()))
    report["verdict"] = {"passed": not failures, "failures": failures}
    return report, failures


def _conditions_report(scenario):
    x0, y0 = scenario.point
    n = scenario.tolerances.conditions_n
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
    delta_min, delta_max = _delta_range(scenario)
    return {
        "ellipticity_margin": float(
            tensors.ellipticity_margin(scenario.coefficients, scenario.omega, n)
        ),
        "convexity_margin": float(
            tensors.convexity_margin(scenario.coefficients, scenario.omega, n)
        ),
        "delta_min": delta_min,
        "delta_max": delta_max,
        "pencil": pencil_report,
    }


def _characteristics_report(cmap, tsys):
    u = np.linspace(-tsys.epsilon, tsys.epsilon, 7)
    sgr, tgr = np.meshgrid(u, u, indexing="ij")
    xb, yb = cmap.inverse(sgr.ravel(), tgr.ravel())
    detj = cmap.det_jacobian(np.asarray(xb), np.asarray(yb))
    a11g = np.asarray(tsys.a11(sgr.ravel(), tgr.ravel()))
    a12g = np.asarray(tsys.a12(sgr.ravel(), tgr.ravel()))
    a22g = np.asarray(tsys.a22(sgr.ravel(), tgr.ravel()))
    return {
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


def point_data_mode(scenario, sys):
    """The point data as u, ux, uy, uxx, uyy (four values completed through
    the pair; None when it degenerates under them) and the ``ucp`` report
    entries that describe it."""
    if scenario.point_data is None:
        raise StageError("ucp", "the ucp task needs point_data in the scenario")
    data = dict(scenario.point_data)
    seconds = [k for k in ("uxx", "uyy") if k in data]
    if len(seconds) == 2:
        return data, {"data_mode": "five-value", "reduced_data_degenerate": False}
    if len(seconds) != 1:
        raise StageError("ucp", "point_data must carry one or both second derivatives")
    entries = {"data_mode": f"four-value ({seconds[0]} given)"}
    x0, y0 = scenario.point
    try:
        data, _ = complete_second_derivatives(
            sys, x0, y0, data, seconds[0], scenario.tolerances.rank_threshold
        )
    except DegenerateDataError as err:
        return None, dict(entries, reduced_data_degenerate=True, declined=str(err))
    a1222 = float(scenario.coefficients.a1222(x0, y0))
    return data, dict(entries, reduced_data_degenerate=False, a1222_at_point=a1222)


def _run_ucp_stage(scenario, sys, cmap, tsys, provider):
    data, result = point_data_mode(scenario, sys)
    if data is None:
        return result

    wdata = ch.transfer_point_data(sys, cmap, data)
    result["transferred"] = {
        "w": wdata.w, "ws": wdata.ws, "wt": wdata.wt,
        "wss": wdata.wss, "wst": wdata.wst, "wtt": wdata.wtt,
        "uxy_deduced": wdata.uxy,
    }
    transferred_max = float(np.max(np.abs(wdata.as_array())))
    result["transferred_max"] = transferred_max
    if transferred_max > 100 * scenario.tolerances.ivp_tol:
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

    vals = rm.represent_solution(tsys, provider, wdata.w, traces, targets)
    result["w_sup"] = float(np.max(np.abs(vals)))
    return result
