"""End-to-end verification pipeline and solution-family estimation.

A scenario bundles a coefficient set, a base point, a working rectangle
and tolerances.  Running it audits the tensor hypotheses, reduces to the
overdetermined pair, builds characteristic coordinates, solves the
whole-square Riemann table at the origin, demonstrates the vanishing
argument on supplied point data, and estimates the dimension of the
local solution family of the pair by singular-value analysis of its
finite-difference discretisation.

The ucp stage decides what the point data allow (completing four or five
values through the pair to the 2-jet at the point, declining data the
pair leaves open and nonzero data) and reports it; the vanishing chain
itself is :func:`ucp2d.riemann.riemann_chain`.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from functools import cache
from math import factorial

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dgemm, dtrsm
from scipy.linalg.lapack import dtpqrt
from scipy.sparse.linalg import svds

from ucp2d import characteristics as ch
from ucp2d import riemann as rm
from ucp2d import tensors
from ucp2d.geometry import Rect
from ucp2d.reduction import discriminant, reduce_system, second_order_rank

__all__ = [
    "Tolerances",
    "Scenario",
    "StageError",
    "stage",
    "DegenerateDataError",
    "NullSpaceResult",
    "run",
    "null_space_dimension",
    "complete_second_derivatives",
    "point_data_mode",
    "EXPECTATIONS",
    "validate_expect",
    "check_expectations",
    "expectations_for",
    "json_type_error",
    "characteristics",
    "riemann_provider",
    "riemann_section",
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


@cache
def _fd_weights(offsets, deriv):
    """Exact weights ``w`` with ``sum_k w_k p(o_k) = p^(deriv)(0)`` for every
    polynomial ``p`` of degree below ``len(offsets)`` (Lagrange basis
    derivatives in rational arithmetic, rounded once at the end).

    ``offsets`` is a tuple, the cache key; the weights come back as a tuple.
    """
    offsets = [Fraction(o) for o in offsets]
    weights = []
    for k, ok in enumerate(offsets):
        poly = [Fraction(1)]  # ascending coefficients of the k-th Lagrange basis
        for j, oj in enumerate(offsets):
            if j != k:
                poly = [(s - oj * c) / (ok - oj) for s, c in zip([0] + poly, poly + [0])]
        weights.append(float(poly[deriv] * factorial(deriv)))
    return tuple(weights)


def _fd_matrix(n, h, deriv):
    """Fourth-order ``deriv``-th derivative on ``n`` uniform nodes.

    Five-point central rows inside; the two rows nearest each end use
    one-sided stencils of ``deriv + 4`` nodes, also fourth order.
    """
    central = tuple(range(-2, 3))
    mat = sp.diags(_fd_weights(central, deriv), central, shape=(n, n)).toarray()
    width = deriv + 4
    for i in (0, 1):
        mat[i] = 0.0
        mat[i, :width] = _fd_weights(tuple(range(-i, width - i)), deriv)
        mat[-1 - i] = 0.0
        mat[-1 - i, -width:] = _fd_weights(tuple(range(i + 1 - width, i + 1)), deriv)
    return sp.csr_matrix(mat / h**deriv)


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
    dx, dy = _fd_matrix(n, hx, 1), _fd_matrix(n, hy, 1)
    dxx, dyy = _fd_matrix(n, hx, 2), _fd_matrix(n, hy, 2)
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
            vals = coeff(xg, yg).ravel()
            term = sp.diags(vals) @ ops[key]
            total = term if total is None else total + term
        if total is None:
            total = sp.csr_matrix((n * n, n * n))
        return row_weights @ total

    return sp.vstack([block(sys.hyper), block(sys.ell)], format="csr"), (xs, ys)


# Ritz values past the ones the report reads: the block's last columns
# converge slowest, so they are iterated but not read.
_RITZ_GUARD = 8
# Smallest singular values the report prints, and the Ritz values the
# inverse iteration converges (a NullSpaceResult keeps more when the
# dimension needs them).
_K_REPORT = 8
# Column block of the compact WY reflectors in each ``dtpqrt`` call: 16 to 32
# time alike at n = 65 and 129; one block of the whole window took forty
# times as long at n = 65.
_TPQRT_BLOCK = 32
# The QR factor's panel, and the height of R's block rows, is
# p = max(w // _PANEL_DIVISOR, 1) for bandwidth w.  Block rows hold
# (w + p) / (w + 1) times the entries of R's band: on lame_constant at
# n = 129 a divisor of 8 took the solve's peak RSS to 194 MB and 12 to
# 190 MB; 16 ran the factor and the solves about a fifth slower than 8 or
# 12 at n = 65.
_PANEL_DIVISOR = 12
# Inverse iteration steps before an unconverged block is an error.
_INVERSE_ITERATION_CAP = 100


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
    ``a_sparse`` (so ``R^T R = A^T A``), as block rows.

    With rows sorted by leading column, row ``i`` of R is a combination of
    rows leading at or before column ``i``, so R has the rows' bandwidth
    ``w``, and R's rows reach no further than the rows of A merged into
    them (Golub & Van Loan, *Matrix Computations*, 5.7).  The rows of R
    not yet final live in an upper-triangular window that slides down the
    diagonal ``p = max(w // _PANEL_DIVISOR, 1)`` columns at a time.  Each
    step appends the rows leading inside the next ``p`` columns, read
    straight from the sorted CSR arrays, with one triangular-pentagonal QR
    (``dtpqrt``, which leaves the window's zero triangle alone), and keeps
    the window's first ``p`` rows as the next block row of R.  The window
    is ``e x e`` with ``e = min(max(reach - c0, p), w + p)``, where ``c0``
    is its first column and ``reach`` one past the last column of every
    row merged so far: on the FD operator only the boundary-closure rows
    span the full ``w + 1`` columns, so interior steps factor a narrower
    window (0.63 to 0.66 of the ``(w + p)^2`` work at n = 33 to 129).  The
    next window is a fresh ``e' x e'`` array holding this one's
    ``[p:, p:]``.

    Returns ``blocks`` of shape ``(p, w + p, m)``, Fortran-ordered, with
    ``m = ceil(ncol / p)``: ``blocks[:, :, i]`` holds rows ``i p`` to
    ``i p + p`` of R in columns ``i p`` to ``i p + w + p``, upper
    trapezoidal, so its triangle ``blocks[:, :p, i]`` and the rest
    ``blocks[:, p:, i]`` are Fortran-contiguous views.  Rows past the last
    column are padding with unit pivots and no other entries.
    """
    a, lead, w = _band_sorted(a_sparse)
    ncol, p = a.shape[1], max(w // _PANEL_DIVISOR, 1)
    size, m = w + p, -(-ncol // p)
    # one past each row's last column; reach is its maximum over the rows merged
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
        window, *_ = dtpqrt(0, min(_TPQRT_BLOCK, e), window, rows,
                            overwrite_a=True, overwrite_b=True)
        blocks[:, :e, i] = window[:p]
    pad = np.arange(ncol - (m - 1) * p, p)
    blocks[pad, pad, -1] = 1.0
    return blocks


def _block_solve(blocks, y, trans):
    """``x`` with ``R x = y``, or ``R^T x = y`` if ``trans``, for the block
    rows of ``_banded_r`` and the ``(ncol, k)`` right-hand sides ``y``.

    Works on ``X^T``, whose block columns are Fortran-contiguous, so each
    block row costs one ``dgemm`` and one ``dtrsm`` in place and hands BLAS
    views of ``blocks``, never copies.  ``R x = y`` runs backward,
    ``x_i = T_i^-1 (y_i - B_i x_(i+1..))``; ``R^T x = y`` runs forward,
    ``x_i = T_i^-T y_i`` followed by ``y_(i+1..) -= B_i^T x_i``.
    """
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


def _floor_pivots(blocks):
    """Raise the pivots on the block diagonals of ``blocks`` to at least
    1e-150 of the largest (or of 1), in place, so an exact zero pivot
    leaves the solves finite."""
    on_diagonal = np.arange(blocks.shape[0])
    diag = blocks[on_diagonal, on_diagonal]
    floor = max(np.abs(diag).max(), 1.0) * 1e-150
    blocks[on_diagonal, on_diagonal] = np.where(np.abs(diag) < floor, floor, diag)


def _smallest_right_vectors(a_sparse, blocks, k, sigma_max):
    """Block inverse iteration on the QR factor's block rows.

    Returns the ascending Ritz values of ``a_sparse`` on a ``k``-column
    subspace and its orthonormal Ritz vectors (columns), which approximate
    the right-singular vectors of the ``k`` smallest singular values.
    Each step solves with ``R^T`` and then with ``R`` (``_block_solve``,
    level-3 BLAS one block row at a time), orthonormalising after every
    solve, and finishes with a Rayleigh-Ritz step: the SVD of the ``k x k``
    triangle of a QR of ``A V``, which has the right singular vectors of
    ``A V`` and forms no left ones.  It stops once the first
    ``k - _RITZ_GUARD`` Ritz values repeat to 1e-13 relative, or to
    1e-15 of ``sigma_max`` for rounding-level values, and raises
    ``ValueError`` if that takes more than ``_INVERSE_ITERATION_CAP``
    steps.  The pivots of ``blocks`` are floored in place first
    (``_floor_pivots``).
    """
    _floor_pivots(blocks)
    rng = np.random.default_rng(0)
    v, _ = np.linalg.qr(rng.standard_normal((a_sparse.shape[1], k)))
    watched = slice(0, max(k - _RITZ_GUARD, 1))
    previous, change = None, np.inf
    for _ in range(_INVERSE_ITERATION_CAP):
        for trans in (True, False):
            v, _ = np.linalg.qr(_block_solve(blocks, v, trans))
        _, ritz, zt = np.linalg.svd(np.linalg.qr(a_sparse @ v, mode="r"))
        ritz = ritz[::-1]
        if previous is not None:
            # 1e-2 sigma_max is where 1e-13 * ritz meets 1e-15 * sigma_max
            scale = np.maximum(ritz, 1e-2 * sigma_max)[watched]
            change = float((np.abs(ritz - previous)[watched] / scale).max())
            if change <= 1e-13:
                return ritz, v @ zt.T[:, ::-1]
        previous = ritz
    raise ValueError(
        f"inverse iteration did not converge in {_INVERSE_ITERATION_CAP} steps "
        f"(last relative change of the Ritz values {change:.3g}, tolerance 1e-13)"
    )


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
    by ARPACK on the sparse operator, and the smallest ones by block
    inverse iteration on the block rows of a banded QR factor
    (``_banded_r``, solved with level-3 BLAS by ``_block_solve``).  The
    block has ``_K_REPORT + _RITZ_GUARD`` (8 + 8) columns, and its first
    ``_K_REPORT``, the values the report prints, decide convergence.  The
    block doubles while the dimension fills its converged part, so the
    dimension is never capped.
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
    blocks = _banded_r(a_sp)
    block = k_report + _RITZ_GUARD
    while True:
        asc, vecs = _smallest_right_vectors(a_sp, blocks, min(block, nn), sigma_max)
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


def complete_second_derivatives(sys, x0, y0, data, rank_threshold=1e-9):
    """The 2-jet ``u, ux, uy, uxx, uxy, uyy`` that point data give at the point.

    ``data`` carries ``u, ux, uy`` and one or both of ``uxx, uyy``.  With
    both, ``uxy`` comes from whichever member of the pair has the larger
    mixed-derivative coefficient at the point.  With one, the two members
    restrict ``(uxy, missing)`` to a 2x2 system; a nonsingular one pins
    them (this always happens when ``a1222`` vanishes at the point).
    Data the pair leaves open at the point -- both mixed coefficients
    zero, or a rank-deficient 2x2 system, the counterexample situation --
    raise :class:`DegenerateDataError`.
    """
    # rows: hyper, ell; columns xx, xy, yy, then x, y, u
    values = np.array([sys.hyper.values(x0, y0), sys.ell.values(x0, y0)])
    h, lower = values[:, :3], values[:, 3:]
    if "uxx" in data and "uyy" in data:
        c20, c11, c02, c10, c01, c00 = values[0 if abs(h[0, 1]) >= abs(h[1, 1]) else 1]
        if abs(c11) <= ch._ZERO_TOL * (np.max(np.abs(h)) or 1.0):
            raise DegenerateDataError(
                "mixed-derivative coefficients of both equations vanish at the point"
            )
        rest = (c20 * data["uxx"] + c02 * data["uyy"]
                + c10 * data["ux"] + c01 * data["uy"] + c00 * data["u"])
        return dict(data, uxy=float(-rest / c11))
    given, unknown = ("uxx", "uyy") if "uxx" in data else ("uyy", "uxx")
    known_col = 0 if given == "uxx" else 2
    m = h[:, [1, 2 - known_col]]  # columns: uxy, missing second derivative
    rhs = -(
        h[:, known_col] * data[given]
        + lower @ np.array([data["ux"], data["uy"], data["u"]])
    )
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] == 0 or sv[1] <= rank_threshold * sv[0]:
        raise DegenerateDataError(
            "the pair degenerates under the reduced data: remaining second "
            "derivatives are not determined at the point"
        )
    uxy, missing = np.linalg.solve(m, rhs)
    return dict(data, uxy=float(uxy), **{unknown: float(missing)})


# -- scenario execution ----------------------------------------------------

_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a finite number"}
_RULES = {"==": operator.eq, ">=": operator.ge, "<=": operator.le}


def _finite(value):
    """Whether the JSON number ``value`` is a finite double: NaN and
    Infinity parse as floats, and an integer past the float range is none."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def json_type_error(key, value, kind):
    """The message naming ``key`` when the parsed JSON ``value`` is not of
    ``kind`` (bool, int or float), else None.  Booleans are not numbers;
    integers are also floats; a float must be finite."""
    if isinstance(value, bool) or kind is bool:
        ok = isinstance(value, bool) and kind is bool
    elif kind is int:
        ok = isinstance(value, int)
    else:
        ok = isinstance(value, (int, float)) and _finite(value)
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
    operations raised; re-raise those, value errors (field, map and
    transform errors among them) and Riemann solve errors as errors of
    the stage."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, ValueError, rm.SolveError) as err:
        raise StageError(name, str(err)) from err


def _delta_range(scenario, sys):
    """Least and greatest Delta of the pair's hyperbolic member on the
    audit grid of omega."""
    xg, yg = np.meshgrid(*scenario.omega.grid(scenario.tolerances.conditions_n), indexing="ij")
    delta = discriminant(*sys.hyper.coefficients()[:3])(xg, yg)
    return float(delta.min()), float(delta.max())


def characteristics(scenario, sys):
    """Characteristic map of the pair at the base point and the pair in its
    coordinates.  Needs Delta > 0 on the audit grid of omega."""
    with stage("characteristics"):
        delta_min = _delta_range(scenario, sys)[0]
        if delta_min <= 0.0:
            raise StageError(
                "characteristics",
                f"hyperbolicity precondition violated: min Delta = {delta_min} on omega",
            )
        cmap = ch.build_map(sys, scenario.omega, *scenario.point)
        return cmap, ch.transform_system(sys, cmap, scenario.omega)


def _axis_nodes(scenario):
    """Nodes per axis of the Riemann tables: ``scenario.n`` made odd, so
    that 0 is a node."""
    return scenario.n if scenario.n % 2 == 1 else scenario.n + 1


def riemann_provider(scenario, tsys):
    """Riemann tables of the transformed pair on the whole square, with
    :func:`_axis_nodes` nodes per axis."""
    return rm.RiemannProvider(tsys, _axis_nodes(scenario), scenario.tolerances.picard_tol)


def riemann_section(scenario, tsys):
    """The whole-square Riemann table of parameter (0, 0) and the entries of
    the ``riemann`` report section read from it."""
    with stage("riemann"):
        tab = riemann_provider(scenario, tsys).table((0.0, 0.0))
        return tab, {
            "nodes_per_axis": int(len(tab.s_nodes)),
            "iterations": tab.iterations,
            "residual": tab.residual,
            "value_at_parameter": tab.value(0.0, 0.0),
        }


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
    for key in scenario.expect:
        task = EXPECTATIONS[key].task
        if task not in scenario.tasks:
            raise StageError("expect", f"expect.{key}: reads the {task} task, which is not run")
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
            report["conditions"] = _conditions_report(scenario, sys)

    if "reduce" in tasks:
        with stage("reduce"):
            xg, yg = np.meshgrid(*scenario.omega.grid(tol.conditions_n), indexing="ij")
            edisc = discriminant(*sys.ell.principal_values(xg, yg))
            report["reduce"] = {
                "rank_at_point": second_order_rank(sys, x0, y0, tol.rank_threshold),
                "elliptic_discriminant_max": float(edisc.max()),
                "hyper_second_order": [float(v) for v in sys.hyper.principal_values(x0, y0)],
                "ell_second_order": [float(v) for v in sys.ell.principal_values(x0, y0)],
            }

    if any(t in tasks for t in ("characteristics", "riemann", "ucp")):
        cmap, tsys = characteristics(scenario, sys)

    if "characteristics" in tasks:
        with stage("characteristics"):
            report["characteristics"] = _characteristics_report(cmap, tsys)

    if "riemann" in tasks:
        report["riemann"] = riemann_section(scenario, tsys)[1]

    if "ucp" in tasks:
        with stage("ucp"):
            report["ucp"] = _run_ucp_stage(scenario, sys, cmap, tsys)

    if "nullspace" in tasks:
        with stage("nullspace"):
            ns = null_space_dimension(sys, scenario.omega, scenario.n, tol.nullspace_threshold)
        report["nullspace"] = {
            "dimension": ns.dimension,
            "gap": ns.gap if np.isfinite(ns.gap) else 1e308,
            "ambiguous": ns.ambiguous,
            "threshold": ns.threshold,
            "sigma_max": ns.sigma_max,
            "smallest_relative_sigmas": [float(v) for v in ns.smallest[:_K_REPORT]],
            "basis_residuals": [float(v) for v in ns.basis_residuals],
        }

    failures = check_expectations(scenario.expect, report)
    report["expect"] = dict(sorted(scenario.expect.items()))
    report["verdict"] = {"passed": not failures, "failures": failures}
    return report, failures


def _conditions_report(scenario, sys):
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
    delta_min, delta_max = _delta_range(scenario, sys)
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
    # det J and the elliptic discriminant on the probe grid transform_system
    # pulled back; the origin's coefficients come from the base point's jet
    detj = np.abs(tsys.probe_det_jacobian)
    return {
        "case": cmap.case,
        "linear": cmap.linear,
        "epsilon": tsys.epsilon,
        "det_jacobian_range": [float(np.min(detj)), float(np.max(detj))],
        "elliptic_discriminant_max": float(np.max(tsys.probe_elliptic_discriminant)),
        "normal_form_coefficients_at_origin": {
            k: float(getattr(tsys, k.lower())(0.0, 0.0))
            for k in ("B11", "B12", "C1", "A11", "A12", "A22")
        },
    }


def point_data_mode(scenario, sys):
    """The 2-jet the point data give (see :func:`complete_second_derivatives`;
    None when the pair leaves it open) and the ``ucp`` report entries that
    describe the data."""
    if scenario.point_data is None:
        raise StageError("ucp", "the ucp task needs point_data in the scenario")
    data = scenario.point_data
    seconds = [k for k in ("uxx", "uyy") if k in data]
    if not seconds:
        raise StageError("ucp", "point_data must carry one or both second derivatives")
    four = len(seconds) == 1
    entries = {"data_mode": f"four-value ({seconds[0]} given)" if four else "five-value"}
    x0, y0 = scenario.point
    try:
        jet = complete_second_derivatives(sys, x0, y0, data, scenario.tolerances.rank_threshold)
    except DegenerateDataError as err:
        return None, dict(entries, reduced_data_degenerate=four, declined=str(err))
    entries["reduced_data_degenerate"] = False
    if four:
        entries["a1222_at_point"] = float(scenario.coefficients.a1222(x0, y0))
    return jet, entries


def _run_ucp_stage(scenario, sys, cmap, tsys):
    jet, result = point_data_mode(scenario, sys)
    if jet is None:
        return result

    wjet = ch.transfer_point_data(cmap, jet)
    result["transferred"] = dict(wjet, uxy_deduced=jet["uxy"])
    transferred_max = float(np.max(np.abs(list(wjet.values()))))
    result["transferred_max"] = transferred_max
    if transferred_max > 100 * scenario.tolerances.ivp_tol:
        result["declined"] = (
            "point data does not vanish, so the vanishing argument does not apply"
        )
        return result

    probe = np.linspace(-tsys.epsilon, tsys.epsilon, 9)
    traces, vals = rm.riemann_chain(
        tsys, _axis_nodes(scenario), scenario.tolerances.picard_tol, wjet["w"],
        [(s, t) for s in probe for t in probe],
    )
    result["phi_sup"] = float(np.max(np.abs(traces.phi)))
    result["psi_sup"] = float(np.max(np.abs(traces.psi)))
    result["w_sup"] = float(np.max(np.abs(vals)))
    return result
