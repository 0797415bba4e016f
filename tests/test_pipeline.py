import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import blas, lapack

from helpers import (
    full_width_banded_r,
    full_width_block_solve,
    full_width_floor_pivots,
    full_width_smallest_right_vectors,
    grid_step,
    point_data_solve,
    random_elliptic_tensor,
    residual,
)
from ucp2d import characteristics as ch
from ucp2d import pipeline as pl
from ucp2d import riemann as rm
from ucp2d.characteristics import TransformedSystem
from ucp2d.cli import load_scenario, scenario_dir
from ucp2d.fields import parse
from ucp2d.geometry import Rect
from ucp2d.pipeline import (
    DegenerateDataError,
    _fd_matrix,
    Scenario,
    StageError,
    Tolerances,
    complete_second_derivatives,
    null_space_dimension,
    projection_defect,
    run,
)
from ucp2d.reduction import SecondOrderOperator, U2System, reduce_system
from ucp2d.tensors import ElasticityCoefficients

OMEGA = Rect.square(0.0, 0.0, 0.3)


def iso_with(mu, lam, **lower):
    comp = {
        "a1111": 2 * mu + lam, "a1112": 0.0, "a1122": lam,
        "a1212": mu, "a1222": 0.0, "a2222": 2 * mu + lam,
    }
    return ElasticityCoefficients.from_components(comp, lower_order=lower or None)


def counterexample_a():
    return ElasticityCoefficients.from_components(
        {
            "a1111": 100.0, "a1112": 0.0, "a1122": 0.0,
            "a1212": 2.0, "a1222": 1.0, "a2222": 1.0,
        }
    )


def counterexample_b():
    return ElasticityCoefficients.from_components(
        {
            "a1111": 100.0, "a1112": 2.0, "a1122": 4.0,
            "a1212": 2.0, "a1222": 3.0, "a2222": 100.0,
        }
    )


LAME_BASIS = [parse("1"), parse("x"), parse("y"), parse("x^2 - y^2/3")]
FAMILY_A = [parse("1"), parse("x"), parse("y"), parse("x*y - y^2")]
FAMILY_B = [parse("1"), parse("x"), parse("y"), parse("x*y - 1.5*x^2")]


# -- null space -------------------------------------------------------------


@pytest.mark.parametrize("n", [17, 33])
def test_fd_matrices_exact_on_quartics(n):
    # criterion 2 relies on fourth order: every row, the one-sided
    # closures included, must differentiate degree <= 4 exactly
    xs = np.linspace(-0.3, 0.3, n)
    h = xs[1] - xs[0]
    d1, d2 = _fd_matrix(n, h, 1), _fd_matrix(n, h, 2)
    for p in range(5):
        f = (xs - 0.1) ** p
        df = p * (xs - 0.1) ** max(p - 1, 0)
        ddf = p * (p - 1) * (xs - 0.1) ** max(p - 2, 0)
        assert np.allclose(d1 @ f, df, rtol=0, atol=1e-11)
        assert np.allclose(d2 @ f, ddf, rtol=0, atol=1e-9)
    # the check resolves truncation: a quintic is not differentiated exactly
    f5 = (xs - 0.1) ** 5
    assert np.abs(d1 @ f5 - 5 * (xs - 0.1) ** 4).max() > 1e-8


def _dense_upper(blocks, ncol):
    p, m = blocks[0].shape[0], len(blocks)
    r = np.zeros((m * p, m * p))
    for i, block in enumerate(blocks):
        r[i * p:i * p + p, i * p:i * p + block.shape[1]] = block
    return r[:ncol, :ncol]


ORACLE_CASES = [
    (iso_with(1.0, 1.0), 1e-6),
    (iso_with(0.1, 0.1, b221="exp(y)"), 1e-6),
    (iso_with(1.0, 1.0, b221="x*y", b222="x*y^2"), 1e-10),
]


@pytest.mark.parametrize("n", [17, 25, 33])
@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_nullspace_solver_matches_dense_oracle(n, case):
    coeffs, thr = ORACLE_CASES[case]
    sys = reduce_system(coeffs)
    a_sp, _ = pl._assemble_operator(sys, OMEGA, n)
    a = a_sp.toarray()
    ata = a.T @ a
    r = _dense_upper(pl._banded_r(a_sp), a_sp.shape[1])
    assert np.abs(r.T @ r - ata).max() <= 1e-13 * np.abs(ata).max()

    sv = np.linalg.svd(a, compute_uv=False)
    res = null_space_dimension(sys, OMEGA, n, threshold=thr)
    assert abs(res.sigma_max - sv[0]) <= 1e-12 * sv[0]
    assert res.dimension == int(np.sum(sv <= thr * sv[0]))
    ladder = sv[::-1][: len(res.smallest)] / sv[0]
    # both solvers round A v to about 1e-17 of sigma_max, hence the
    # absolute term; structural entries agree to 1e-13
    big = ladder >= 1e-12
    assert big.any()
    assert np.all(np.abs(res.smallest - ladder)[big] <= 1e-8 * ladder[big] + 1e-17)


def _with_gap():
    # bandwidth 8 over 60 columns: two random rows lead at every column
    # outside 20..29, none inside
    rng = np.random.default_rng(3)
    lead = np.repeat([c for c in range(60) if not 20 <= c < 30], 2)
    dense = np.zeros((len(lead), 60))
    for row, c in zip(dense, lead):
        end = min(c + 9, 60)
        row[c:end] = rng.uniform(0.5, 1.5, end - c)
    return sp.csr_matrix(dense)


def _stacked_d2(n=17):
    d2 = _fd_matrix(n, 0.6 / (n - 1), 2)
    return sp.vstack([sp.kron(sp.identity(n), d2), sp.kron(sp.identity(n), d2 * 0.5)])


EDGE_SHAPES = ["ragged", "gap", "thin", "d2"]


def _edge_shape(shape):
    if shape == "ragged":
        return pl._assemble_operator(reduce_system(iso_with(1.0, 1.0)), OMEGA, 17)[0]
    if shape == "thin":
        # bandwidth 2, below 4: w // 4 is 0 and the panel is one column
        return sp.kron(sp.identity(17), sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(17, 17)))
    return _with_gap() if shape == "gap" else _stacked_d2()


@pytest.mark.parametrize("shape", EDGE_SHAPES)
def test_banded_r_matches_the_dense_oracle_on_edge_shapes(shape):
    a_sp = _edge_shape(shape)
    blocks = pl._banded_r(a_sp)
    p = blocks[0].shape[0]  # the factor's panel
    _, lead, _, w = pl._band_order(a_sp.tocsr())
    assert max(block.shape[1] for block in blocks) <= w + p
    if shape == "ragged":
        assert a_sp.shape[1] % p != 0
    elif shape == "gap":
        panels = np.arange(0, a_sp.shape[1], p)
        assert np.any(np.searchsorted(lead, panels) == np.searchsorted(lead, panels + p))
    else:
        assert p == 1 and (w < 4) == (shape == "thin")
    a = a_sp.toarray()
    ata = a.T @ a
    r = _dense_upper(blocks, a_sp.shape[1])
    assert np.abs(r.T @ r - ata).max() <= 1e-13 * np.abs(ata).max()
    # rows past the last column are padding: a unit pivot and nothing else
    ncol, padded = a_sp.shape[1], p * len(blocks)
    full = _dense_upper(blocks, padded)
    assert np.array_equal(full[ncol:], np.eye(padded)[ncol:])
    assert not full[:ncol, ncol:].any()


@pytest.mark.parametrize("trans", [True, False])
@pytest.mark.parametrize("shape", EDGE_SHAPES)
def test_block_solve_matches_the_dense_factor_on_edge_shapes(shape, trans):
    a_sp = _edge_shape(shape)
    blocks = pl._banded_r(a_sp)
    pl._floor_pivots(blocks)  # "gap" leaves columns 28 and 29 empty: zero pivots
    r = _dense_upper(blocks, a_sp.shape[1])
    if trans:
        r = r.T
    v = np.random.default_rng(5).standard_normal((a_sp.shape[1], 3))
    x = pl._block_solve(blocks, v, trans)
    assert x.shape == v.shape and np.all(np.isfinite(x))
    eps = np.finfo(float).eps
    assert np.linalg.norm(r @ x - v) <= 1e3 * eps * np.linalg.norm(r, 2) * np.linalg.norm(x)
    # row by row too, so the floored pivots of "gap", whose x reaches 1e150,
    # leave the rows they do not touch checked at rounding level
    assert np.all(np.abs(r @ x - v) <= 1e3 * eps * (np.abs(r) @ np.abs(x)))


def _recording(calls, fn):
    def call(*args, **kw):
        out = fn(*args, **kw)
        calls.append((fn, args, out))
        return out

    return call


def test_block_solve_hands_blas_views_of_the_factor(monkeypatch):
    # f2py copies an operand that is not Fortran-contiguous, so the layout
    # must give every block row to BLAS as views: of the factor, and of the
    # work array that BLAS overwrites
    a_sp = _edge_shape("ragged")
    blocks = pl._banded_r(a_sp)
    p, widths = blocks[0].shape[0], [block.shape[1] for block in blocks]
    calls, dtrsm = [], blas.dtrsm
    monkeypatch.setattr(blas, "dtrsm", _recording(calls, dtrsm))
    monkeypatch.setattr(blas, "dgemm", _recording(calls, blas.dgemm))
    v = np.random.default_rng(5).standard_normal((a_sp.shape[1], 3))
    for trans in (True, False):
        pl._block_solve(blocks, v, trans)
    # one dtrsm per block row and solve, one dgemm where the row reaches
    # past its triangle, each on exactly that row's envelope
    reaching = [e - p for e in widths if e > p]
    assert 0 < len(reaching) < len(blocks)
    assert len(calls) == 2 * len(blocks) + 2 * len(reaching)
    trsm_shapes = [args[1].shape for fn, args, _ in calls if fn is dtrsm]
    gemm_shapes = [args[2].shape for fn, args, _ in calls if fn is not dtrsm]
    assert trsm_shapes == [(p, p)] * 2 * len(blocks)
    assert gemm_shapes == [(p, r) for r in reaching] + [(p, r) for r in reaching[::-1]]
    for fn, args, out in calls:
        # dtrsm(alpha, T, X) overwrites X; dgemm(alpha, X, B, beta, C) overwrites C
        factor, written = (args[1], args[2]) if fn is dtrsm else (args[2], args[4])
        assert np.shares_memory(factor, blocks[0].base) and factor.flags.f_contiguous
        assert np.shares_memory(out, written)


def test_banded_r_windows_follow_the_rows_envelope(monkeypatch):
    # on the n = 17 Lame operator, second-derivative rows on the x-closure
    # lines span at least the 5n + 1 columns of their six-point stencils,
    # and the corner rows the whole band; every other row spans at most
    # 4n + 5.  Panels from 3n on are past every top closure row's reach,
    # and panels ending by (n - 6) n lie before the bottom ones lead.
    n = 17
    a_sp = _edge_shape("ragged")
    calls = []
    monkeypatch.setattr(lapack, "dtpqrt", _recording(calls, lapack.dtpqrt))
    blocks = pl._banded_r(a_sp)
    p, m = blocks[0].shape[0], len(blocks)
    _, _, _, w = pl._band_order(a_sp)
    assert len(calls) == m
    for _, args, _ in calls:
        window, rows = args[2], args[3]
        assert window.shape[0] == window.shape[1] == rows.shape[1]
    widths = np.array([args[2].shape[0] for _, args, _ in calls])
    # each block row is stored at its window's width, known before factoring
    assert [block.shape for block in blocks] == [(p, e) for e in widths]
    # the windows are factored in place in two buffers of (w + p)^2 values:
    # one as wide as the last starts p (e + 1) values past it, where the
    # last one's [p:, p:] lies, while its buffer holds it; any other starts
    # the other buffer
    windows = [args[2] for _, args, _ in calls]
    assert all(np.shares_memory(out[0], args[2]) for _, args, out in calls)
    size, slides = (w + p) ** 2, 0
    offsets = [(window.ctypes.data - windows[0].ctypes.data) // 8 for window in windows]
    for before, after, e0, e in zip(offsets, offsets[1:], widths, widths[1:]):
        if e == e0 and before % size + p * (e + 1) + e * e <= size:
            assert after == before + p * (e + 1)
            slides += 1
        else:
            assert after == size - (before - before % size)
    assert 0 < slides < len(windows) - 1
    a = a_sp.tocsr()
    a.sort_indices()
    lead, last = a.indices[a.indptr[:-1]], a.indices[a.indptr[1:] - 1]
    c0 = np.arange(m) * p
    closure = np.isin(c0 // p, lead[last - lead >= 5 * n] // p)
    interior = (c0 >= 3 * n) & (c0 + p <= (n - 6) * n)
    assert closure.sum() >= 6 and interior.sum() >= 12
    assert widths[interior].max() < 5 * n + 1 <= widths[closure].min()
    assert w < widths.max() <= w + p


def test_banded_r_stores_each_block_row_to_its_envelope():
    # one flat buffer of sum(p e_i) values, block row after block row, each
    # reaching its last nonzero column ("gap", whose empty columns leave
    # zero pivots, would end a block row in a zero column)
    blocks = pl._banded_r(_edge_shape("ragged"))
    flat, p = blocks[0].base, blocks[0].shape[0]
    widths = np.array([block.shape[1] for block in blocks])
    assert flat.size == p * widths.sum() and widths.min() < widths.max()
    starts = [block.ctypes.data - flat.ctypes.data for block in blocks]
    assert starts == [flat.itemsize * p * widths[:i].sum() for i in range(len(blocks))]
    assert all(block.flags.f_contiguous for block in blocks)
    assert all(block[:, -1].any() for block in blocks)


def test_banded_r_reads_stored_zeros_as_absent():
    # a stored zero that leads or ends its row must not widen the band or a
    # window; the caller's matrix keeps its stored zeros
    a_sp = _edge_shape("ragged").tocsr()
    a_sp.data[::5] = 0.0
    stored = a_sp.nnz
    clean = a_sp.copy()
    clean.eliminate_zeros()
    got, want = pl._banded_r(a_sp), pl._banded_r(clean)
    assert [block.shape for block in got] == [block.shape for block in want]
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert a_sp.nnz == stored > clean.nnz


def test_inverse_iteration_solves_on_the_factor_it_was_given(monkeypatch):
    a_sp = pl._assemble_operator(reduce_system(iso_with(1.0, 1.0)), OMEGA, 17)[0]
    # no equation reads unknown 40, so R has an exact zero pivot there
    keep = np.ones(a_sp.shape[1])
    keep[40] = 0.0
    a_sp = a_sp @ sp.diags(keep)
    blocks = pl._banded_r(a_sp)
    p = blocks[0].shape[0]
    block, row = divmod(40, p)
    assert blocks[block][row, row] == 0.0
    sigma_max = np.linalg.norm(a_sp.toarray(), 2)
    calls = []
    monkeypatch.setattr(blas, "dtrsm", _recording(calls, blas.dtrsm))
    ritz, vecs = pl._smallest_right_vectors(a_sp, blocks, 12, sigma_max)
    assert calls and all(np.shares_memory(args[1], blocks[0].base) for _, args, _ in calls)
    assert np.all(np.isfinite(ritz)) and np.all(np.isfinite(vecs))
    assert 0.0 < blocks[block][row, row] <= 1e-140  # floored in place
    assert ritz[0] <= 1e-15 * sigma_max and abs(abs(vecs[40, 0]) - 1.0) <= 1e-12


# every shipped golden that runs the null space, at two grids, and random
# constant tensors on small grids
BIT_CASES = [
    (path.stem, n)
    for path in sorted(scenario_dir().glob("*.json"))
    if "nullspace" in load_scenario(path).tasks
    for n in (33, 65)
] + [(f"random-{seed}", n) for seed, n in enumerate((25, 29, 33, 37, 41, 33))]


def _bit_case_operator(name, n):
    if name.startswith("random-"):
        coeffs, omega = random_elliptic_tensor(np.random.default_rng(int(name[7:]))), OMEGA
    else:
        sc = load_scenario(scenario_dir() / f"{name}.json")
        coeffs, omega = sc.coefficients, sc.omega
    return pl._assemble_operator(reduce_system(coeffs), omega, n)[0]


@pytest.mark.parametrize("name, n", BIT_CASES)
def test_envelope_factor_and_solves_match_full_width_bit_for_bit(monkeypatch, name, n):
    a_sp = _bit_case_operator(name, n)
    reference = full_width_banded_r(a_sp)
    calls = []
    monkeypatch.setattr(lapack, "dtpqrt", _recording(calls, lapack.dtpqrt))
    blocks = pl._banded_r(a_sp)
    # the widths fixed before factoring are those of the dtpqrt windows
    assert [block.shape[1] for block in blocks] == [args[2].shape[0] for _, args, _ in calls]
    assert len(blocks) == reference.shape[2] and blocks[0].shape[0] == reference.shape[0]
    for i, block in enumerate(blocks):
        e = block.shape[1]
        assert block.tobytes() == reference[:, :e, i].tobytes()
        assert not reference[:, e:, i].any()
    pl._floor_pivots(blocks)
    full_width_floor_pivots(reference)
    y = np.random.default_rng(n).standard_normal((a_sp.shape[1], pl._K_REPORT + pl._RITZ_GUARD))
    for trans in (True, False):
        x = pl._block_solve(blocks, y, trans)
        assert x.tobytes() == full_width_block_solve(reference, y, trans).tobytes()


@pytest.mark.parametrize("name, n", BIT_CASES)
def test_envelope_inverse_iteration_matches_full_width_bit_for_bit(monkeypatch, name, n):
    from scipy.sparse.linalg import svds

    a_sp = _bit_case_operator(name, n)
    v0 = np.random.default_rng(0).standard_normal(a_sp.shape[1])
    sigma_max = float(svds(a_sp, k=1, v0=v0, tol=0, return_singular_vectors=False)[0])
    k = pl._K_REPORT + pl._RITZ_GUARD
    ritz_ref, vecs_ref, steps, discrepancy = full_width_smallest_right_vectors(
        a_sp, full_width_banded_r(a_sp), k, sigma_max)
    solves, passes, qr = [], [], pl._qr
    monkeypatch.setattr(pl, "_block_solve", _recording(solves, pl._block_solve))
    monkeypatch.setattr(pl, "_qr", lambda a, mode="reduced": (
        passes.append(mode) if mode == "r" else None, qr(a, mode))[1])
    ritz, vecs = pl._smallest_right_vectors(a_sp, pl._banded_r(a_sp), k, sigma_max)
    assert ritz.tobytes() == ritz_ref.tobytes() and vecs.tobytes() == vecs_ref.tobytes()
    assert len(solves) == 2 * steps
    # Rayleigh-Ritz on A V runs only near the stop, and the Ritz values read
    # from the solve's triangle lie well inside the margin that relies on
    assert 2 <= len(passes) < steps
    assert discrepancy < pl._RITZ_ESTIMATE_MARGIN / 10


@pytest.mark.parametrize("name, n", [("lame_constant", 65), ("random-4", 41)])
def test_banded_r_on_maps_full_of_nan_matches_bit_for_bit(monkeypatch, name, n):
    # each step zeroes only its window's new border and scatters its rows
    # from one gather of every entry: no entry of a map is read unwritten
    assert (name, n) in BIT_CASES
    a_sp = _bit_case_operator(name, n)
    indices = a_sp.indices.copy()
    want = pl._banded_r(a_sp)
    assert np.array_equal(a_sp.indices, indices)  # the gather is a copy
    maps, mapped = [], pl._mapped

    def full_of_nan(size):
        maps.append(mapped(size))
        maps[-1].fill(np.nan)
        return maps[-1]

    monkeypatch.setattr(pl, "_mapped", full_of_nan)
    got = pl._banded_r(a_sp)
    assert len(maps) == 2 and np.shares_memory(got[0], maps[0])
    assert [block.shape for block in got] == [block.shape for block in want]
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_mapped_populates_its_pages_only_where_mmap_can(monkeypatch):
    import mmap

    # without the flag, the maps are mmap's default (shared); with it, private
    flags, real = [], mmap.mmap
    monkeypatch.setattr(mmap, "mmap", lambda *args, **kwargs: (
        flags.append(kwargs.get("flags")), real(*args, **kwargs))[1])
    a_sp = _edge_shape("ragged")
    want = pl._banded_r(a_sp)
    if hasattr(mmap, "MAP_POPULATE"):
        assert flags == [mmap.MAP_PRIVATE | mmap.MAP_POPULATE] * 2
    monkeypatch.delattr(mmap, "MAP_POPULATE", raising=False)
    got = pl._banded_r(a_sp)
    assert flags[-2:] == [None] * 2
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_inverse_iteration_converges_in_eight_steps(monkeypatch):
    # two block solves per step; a 20-column block watching 12 Ritz
    # values took 9 steps here
    sc = load_scenario(scenario_dir() / "lame_constant.json")
    calls = []
    monkeypatch.setattr(pl, "_block_solve", _recording(calls, pl._block_solve))
    res = null_space_dimension(
        reduce_system(sc.coefficients), sc.omega, 33, sc.tolerances.nullspace_threshold)
    assert res.dimension == 4
    assert len(calls) <= 16


def test_report_prints_the_sigmas_the_solver_converges(monkeypatch):
    sc = load_scenario(scenario_dir() / "example_exp.json")
    results = []
    monkeypatch.setattr(pl, "null_space_dimension", _recording(results, null_space_dimension))
    report, _ = run(dataclasses.replace(sc, tasks=("nullspace",), expect={}))
    (_, _, res), = results
    printed = report["nullspace"]["smallest_relative_sigmas"]
    assert len(printed) == pl._K_REPORT
    assert printed == [float(v) for v in res.smallest[:pl._K_REPORT]]


def test_nullspace_block_grows_past_first_block(monkeypatch):
    # every grid line in y carries the null space {1, y} of the second
    # derivative, so the dimension is 2n = 34, past the first block of 16
    n = 17
    op = _stacked_d2(n)
    monkeypatch.setattr(pl, "_assemble_operator", lambda sys, region, n: (
        op.tocsr(), region.grid(n)))
    res = null_space_dimension(reduce_system(iso_with(1.0, 1.0)), OMEGA, n, 1e-8)
    assert res.dimension == 2 * n
    assert res.gap >= 1e3 and not res.ambiguous
    xs, ys = res.grid
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    for values in (np.exp(xg), xg * xg * yg, np.sin(7 * xg) * (1 + yg)):
        assert projection_defect(res, values) <= 1e-8
    assert projection_defect(res, yg * yg) > 1e-3


def test_nullspace_solver_stays_sparse(monkeypatch):
    # no dense operator, no dense R and no full SVD: every dense LAPACK
    # call sees a panel or a block of vectors, under half the n^2 columns
    n = 25
    seen = []

    def recording(fn, dense):
        def call(*args, **kwargs):
            seen.append(np.shape(args[dense]))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(lapack, "dtpqrt", recording(lapack.dtpqrt, 2))
    monkeypatch.setattr(pl.np.linalg, "svd", recording(np.linalg.svd, 0))
    monkeypatch.setattr(scipy.linalg, "qr", None)
    monkeypatch.setattr(scipy.linalg, "svdvals", None)
    res = null_space_dimension(reduce_system(iso_with(1.0, 1.0)), OMEGA, n)
    assert res.dimension == 4
    assert seen and max(shape[1] for shape in seen) < n * n // 2


def test_nullspace_constant_lame_dimension_four():
    sys = reduce_system(iso_with(1.0, 1.0))
    res = null_space_dimension(sys, OMEGA, 33, threshold=1e-6)
    assert res.dimension == 4
    assert res.gap >= 1e3 and not res.ambiguous
    xs, ys = res.grid
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    for f in LAME_BASIS:
        assert projection_defect(res, f(xg, yg)) <= 1e-8
    assert np.all(res.basis_residuals <= 1e-10)


def test_nullspace_counterexample_family():
    sys = reduce_system(counterexample_a())
    # the family {1, x, y, xy - y^2} solves the pair exactly
    rh, re = residual(sys, FAMILY_A[3], OMEGA, 9)
    assert rh == 0.0 and re == 0.0
    res = null_space_dimension(sys, OMEGA, 33, threshold=1e-6)
    assert res.dimension == 4
    xs, ys = res.grid
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    for f in FAMILY_A:
        assert projection_defect(res, f(xg, yg)) <= 1e-8


def test_nullspace_single_constant_family():
    sys = reduce_system(iso_with(1.0, 1.0, b221="x*y", b222="x*y^2"))
    res = null_space_dimension(sys, OMEGA, 33, threshold=1e-10)
    assert res.dimension == 1
    assert res.gap >= 1e3


def test_nullspace_empty_family():
    sys = reduce_system(iso_with(1.0, 1.0, c22="x*y"))
    res = null_space_dimension(sys, OMEGA, 33, threshold=5e-12)
    assert res.dimension == 0
    assert res.gap >= 1e3
    assert res.basis.shape == (0, 33, 33)


@pytest.mark.slow
def test_nullspace_stable_under_refinement():
    cases = [
        (iso_with(1.0, 1.0), 1e-6, 4),
        (iso_with(0.1, 0.1, b221="exp(y)"), 1e-6, 3),
        (iso_with(1.0, 1.0, b221="x*y", b222="x*y^2"), 1e-10, 1),
        (iso_with(1.0, 1.0, c22="x*y"), 5e-12, 0),
    ]
    for coeffs, thr, want in cases:
        sys = reduce_system(coeffs)
        for n in (25, 49):
            res = null_space_dimension(sys, OMEGA, n, threshold=thr)
            assert res.dimension == want, (thr, n)
            assert res.gap >= 1e3


@pytest.mark.slow
def test_nullspace_feasible_at_n129():
    sys = reduce_system(iso_with(1.0, 1.0))  # the lame_constant golden
    res = null_space_dimension(sys, OMEGA, 129, threshold=1e-6)
    assert res.dimension == 4
    assert res.gap >= 1e3
    xs, ys = res.grid
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    for values in (np.ones_like(xg), xg, yg):
        assert projection_defect(res, values) <= 1e-6


def test_nullspace_scaling_invariance():
    base = reduce_system(iso_with(1.0, 1.0, b221="x*y", b222="x*y^2"))
    factor = parse("1 + x^2/2 + y^2/4")

    def scale(op):
        return SecondOrderOperator(*(factor * c for c in op.coefficients()))

    scaled = U2System(hyper=scale(base.hyper), ell=scale(base.ell))
    r1 = null_space_dimension(base, OMEGA, 25, threshold=1e-10)
    r2 = null_space_dimension(scaled, OMEGA, 25, threshold=1e-10)
    assert r1.dimension == r2.dimension == 1


def test_nullspace_guards():
    sys = reduce_system(iso_with(1.0, 1.0))
    with pytest.raises(ValueError):
        null_space_dimension(sys, OMEGA, 9)


def test_nullspace_basis_residual_is_truncation_level():
    sys = reduce_system(iso_with(0.1, 0.1, b221="exp(y)"))
    res = null_space_dimension(sys, OMEGA, 25, threshold=1e-6)
    assert res.dimension == 3
    h = 0.6 / 24
    assert np.all(res.basis_residuals <= 10 * h * h)


# -- point-data fitting ------------------------------------------------------


def test_point_data_full_rank_five_values():
    data = {k: 0.0 for k in ("u", "ux", "uy", "uxx", "uyy")}
    fit = point_data_solve(LAME_BASIS, data, at=(0.0, 0.0))
    assert fit.rank == 4 and not fit.deficient
    assert np.allclose(fit.coefficients, 0.0, atol=1e-14)


def test_point_data_four_values_still_full_rank_for_lame():
    for second in ("uxx", "uyy"):
        data = {"u": 0.0, "ux": 0.0, "uy": 0.0, second: 0.0}
        fit = point_data_solve(LAME_BASIS, data, at=(0.0, 0.0))
        assert fit.rank == 4 and not fit.deficient


def test_point_data_single_constant_family():
    fit = point_data_solve([parse("1")], {"u": 0.0}, at=(0.3, -0.1))
    assert fit.rank == 1
    assert fit.coefficients[0] == 0.0


def test_point_data_counterexample_a_deficient():
    # every member has uxx = 0, so observing uxx adds nothing
    data = {"u": 0.0, "ux": 0.0, "uy": 0.0, "uxx": 0.0}
    fit = point_data_solve(FAMILY_A, data, at=(0.0, 0.0))
    assert fit.rank == 3 and fit.deficient
    combo = fit.null_combinations[0]
    survivor = sum((float(c) * f for c, f in zip(combo, FAMILY_A)), parse("0"))
    uxy = survivor.diff("x").diff("y")(0.0, 0.0)
    uyy = survivor.diff("y").diff("y")(0.0, 0.0)
    assert abs(uxy) > 0.1 or abs(uyy) > 0.1


def test_point_data_counterexample_b_deficient():
    data = {"u": 0.0, "ux": 0.0, "uy": 0.0, "uyy": 0.0}
    fit = point_data_solve(FAMILY_B, data, at=(0.0, 0.0))
    assert fit.rank == 3 and fit.deficient
    combo = fit.null_combinations[0]
    survivor = sum((float(c) * f for c, f in zip(combo, FAMILY_B)), parse("0"))
    assert abs(survivor.diff("x").diff("y")(0.0, 0.0)) > 0.1


def test_point_data_five_values_pin_counterexample_families():
    data = {k: 0.0 for k in ("u", "ux", "uy", "uxx", "uyy")}
    for family in (FAMILY_A, FAMILY_B):
        fit = point_data_solve(family, data, at=(0.0, 0.0))
        assert fit.rank == 4 and not fit.deficient


# -- four-value completion ----------------------------------------------------


def test_complete_seconds_lame_either_direction():
    sys = reduce_system(iso_with(1.0, 1.0))
    for given in ("uxx", "uyy"):
        data = {"u": 0.0, "ux": 0.0, "uy": 0.0, given: 0.0}
        jet = complete_second_derivatives(sys, 0.0, 0.0, data)
        assert jet["uxy"] == 0.0
        assert jet["uxx"] == 0.0 and jet["uyy"] == 0.0


def test_complete_seconds_nonzero_consistent_data():
    sys = reduce_system(iso_with(1.0, 1.0))
    u = parse("x^2 - y^2/3")
    x0, y0 = 0.1, -0.2
    data = {
        "u": u(x0, y0),
        "ux": u.diff("x")(x0, y0),
        "uy": u.diff("y")(x0, y0),
        "uxx": 2.0,
    }
    jet = complete_second_derivatives(sys, x0, y0, data)
    assert jet["uxy"] == pytest.approx(0.0, abs=1e-14)
    assert jet["uyy"] == pytest.approx(-2.0 / 3.0, abs=1e-14)


def test_complete_seconds_degenerate_counterexamples():
    sys_a = reduce_system(counterexample_a())
    with pytest.raises(DegenerateDataError):
        complete_second_derivatives(sys_a, 0.0, 0.0, {"u": 0, "ux": 0, "uy": 0, "uxx": 0})
    sys_b = reduce_system(counterexample_b())
    with pytest.raises(DegenerateDataError):
        complete_second_derivatives(sys_b, 0.0, 0.0, {"u": 0, "ux": 0, "uy": 0, "uyy": 0})


# -- scenario runs -------------------------------------------------------------


def lame_scenario(**kw):
    defaults = dict(
        name="lame",
        coefficients=iso_with(1.0, 1.0),
        point=(0.0, 0.0),
        omega=OMEGA,
        n=33,
        tasks=("conditions", "reduce", "characteristics", "riemann", "ucp"),
        point_data={k: 0.0 for k in ("u", "ux", "uy", "uxx", "uyy")},
    )
    defaults.update(kw)
    return Scenario(**defaults)


def test_run_constant_lame_end_to_end_zero():
    sc = lame_scenario(
        expect={
            "ellipticity_positive": True,
            "delta_positive": True,
            "rank_at_point": 2,
            "transferred_data_max": 1e-12,
            "traces_sup_max": 1e-10,
            "w_sup_max": 1e-8,
        }
    )
    report, failures = run(sc)
    assert failures == []
    assert report["ucp"]["transferred_max"] <= 1e-12
    assert max(report["ucp"]["phi_sup"], report["ucp"]["psi_sup"]) <= 1e-10
    assert report["ucp"]["w_sup"] <= 1e-8
    assert report["characteristics"]["case"] == "orthotropic-identity"
    assert report["verdict"]["passed"]
    # end-to-end zero-data runs stay within 10x the marching tolerance
    assert report["ucp"]["w_sup"] <= 10 * sc.tolerances.ivp_tol


def test_run_four_value_variant_succeeds_for_lame():
    sc = lame_scenario(
        point_data={"u": 0.0, "ux": 0.0, "uy": 0.0, "uxx": 0.0},
        expect={"reduced_data_degenerate": False, "w_sup_max": 1e-8},
    )
    report, failures = run(sc)
    assert failures == []
    assert report["ucp"]["data_mode"] == "four-value (uxx given)"
    assert report["ucp"]["a1222_at_point"] == 0.0
    assert report["ucp"]["w_sup"] <= 1e-8


def test_run_counterexample_a_declines_reduced_data():
    sc = Scenario(
        name="counterexample-a",
        coefficients=counterexample_a(),
        point=(0.0, 0.0),
        omega=OMEGA,
        n=33,
        tasks=("conditions", "reduce", "characteristics", "ucp"),
        point_data={"u": 0.0, "ux": 0.0, "uy": 0.0, "uxx": 0.0},
        expect={
            "ellipticity_positive": True,
            "delta_positive": True,
            "reduced_data_degenerate": True,
        },
    )
    report, failures = run(sc)
    assert failures == []
    assert report["ucp"]["reduced_data_degenerate"]
    assert "declined" in report["ucp"]
    assert "w_sup" not in report["ucp"]


def test_four_values_and_the_five_they_complete_transfer_alike():
    # on lame_traced the pair completes uxx = 6 to uyy = -2 exactly; the
    # five values then give uxy from one member, the four from the 2x2
    # system, and the transferred w-jets agree to the bit
    sc = load_scenario(scenario_dir() / "lame_traced.json")
    four = {"u": 0.02, "ux": 0.3, "uy": -0.1, "uxx": 6.0}
    five = dict(four, uyy=-2.0)
    sys = reduce_system(sc.coefficients)
    assert complete_second_derivatives(sys, *sc.point, four)["uyy"] == -2.0
    blocks = []
    for data in (four, five):
        sub = dataclasses.replace(sc, tasks=("characteristics", "ucp"), expect={}, point_data=data)
        report, _ = run(sub)
        blocks.append({k: v.hex() for k, v in report["ucp"]["transferred"].items()})
    assert blocks[0] == blocks[1]


def test_chain_carries_the_transferred_value_into_w_sup():
    # u = 1e-9, under the decline gate of 100 ivp_tol, so the chain runs on
    # a w00 that is not zero: the traces stay zero, and w_sup is w00 times
    # the largest R(0, 0; probe), so it is positive and linear in u.  A chain
    # that drops w00, or a ucp stage that zeroes the transferred values,
    # reads 0 here
    sc = load_scenario(scenario_dir() / "lame_lower_order.json")
    sups = []
    for u in (1e-9, 2e-9):
        data = {"u": u, "ux": 0.0, "uy": 0.0, "uxx": 0.0, "uyy": 0.0}
        report, _ = run(dataclasses.replace(sc, point_data=data, expect={}))
        assert "declined" not in report["ucp"]
        assert report["ucp"]["phi_sup"] == report["ucp"]["psi_sup"] == 0.0
        sups.append(report["ucp"]["w_sup"])
    assert 1e-9 < sups[0] < 2e-9
    assert sups[1] == pytest.approx(2 * sups[0], rel=1e-12)


def test_point_data_mode_declines_five_values_the_pair_leaves_open():
    # a1122 = -a1212 and a1112 = a1222 = 0: both mixed coefficients vanish
    # at the point (Delta = 0 there), so five values leave uxy open
    coeffs = ElasticityCoefficients.from_components(
        {"a1111": 3.0, "a1112": 0.0, "a1122": -1.0, "a1212": 1.0, "a1222": 0.0, "a2222": 3.0}
    )
    jet, entries = pl.point_data_mode(lame_scenario(coefficients=coeffs), reduce_system(coeffs))
    assert jet is None
    assert entries["data_mode"] == "five-value"
    assert entries["reduced_data_degenerate"] is False
    assert "mixed-derivative coefficients" in entries["declined"]


def test_run_rejects_hyperbolicity_violation():
    sc = Scenario(
        name="bad-delta",
        coefficients=iso_with(1.0, -1.0),  # mu + lam = 0 -> Delta = 0
        point=(0.0, 0.0),
        omega=OMEGA,
        n=33,
        tasks=("conditions", "reduce", "ucp"),
        point_data={k: 0.0 for k in ("u", "ux", "uy", "uxx", "uyy")},
    )
    with pytest.raises(StageError) as err:
        run(sc)
    assert err.value.stage == "characteristics"
    assert "hyperbolicity" in str(err.value)


def test_run_reports_expectation_mismatch():
    sc = lame_scenario(tasks=("conditions", "reduce"), point_data=None,
                       expect={"rank_at_point": 1})
    report, failures = run(sc)
    assert failures and "rank_at_point" in failures[0]
    assert not report["verdict"]["passed"]


def test_run_rejects_unknown_expect_key():
    with pytest.raises(StageError):
        run(lame_scenario(expect={"no_such_key": 1}))


def test_expectation_rules_and_messages():
    report = {"nullspace": {"dimension": 4, "gap": 10.0}, "reduce": {"rank_at_point": 2}}
    expect = {"w_sup_max": 1e-8, "nullspace_gap_min": 1e3, "rank_at_point": 1,
              "nullspace_dim": 4}
    # table order, missing values read as failing, "==" shows the bare value
    assert pl.check_expectations(expect, report) == [
        "rank_at_point: expected 1, got 2",
        "nullspace_gap_min: expected >= 1000.0, got 10.0",
        "w_sup_max: expected <= 1e-08, got inf",
    ]
    assert pl.expectations_for(expect, ("nullspace",)) == {
        "nullspace_gap_min": 1e3, "nullspace_dim": 4,
    }


def test_run_nullspace_task_reports_dimension():
    sc = Scenario(
        name="xy-single-constant",
        coefficients=iso_with(1.0, 1.0, b221="x*y", b222="x*y^2"),
        point=(0.0, 0.0),
        omega=OMEGA,
        n=33,
        tolerances=Tolerances(nullspace_threshold=1e-10),
        tasks=("conditions", "reduce", "nullspace"),
        expect={"nullspace_dim": 1, "nullspace_gap_min": 1e3},
    )
    report, failures = run(sc)
    assert failures == []
    assert report["nullspace"]["dimension"] == 1


def test_run_report_is_json_serialisable_and_jobs_invariant():
    sc1 = lame_scenario()
    sc4 = lame_scenario()
    r1, _ = run(sc1)
    r4, _ = run(sc4)
    s1 = json.dumps(r1, sort_keys=True)
    s4 = json.dumps(r4, sort_keys=True)
    assert s1 == s4


def test_tolerances_override_validation():
    t = Tolerances().updated({"ivp_tol": 1e-9})
    assert t.ivp_tol == 1e-9
    with pytest.raises(ValueError):
        Tolerances().updated({"bogus": 1})


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(
            name="bad",
            coefficients=iso_with(1.0, 1.0),
            point=(9.0, 9.0),
            omega=OMEGA,
        )
    with pytest.raises(ValueError):
        Scenario(
            name="bad-task",
            coefficients=iso_with(1.0, 1.0),
            point=(0.0, 0.0),
            omega=OMEGA,
            tasks=("nope",),
        )


# -- the ucp stage's vanishing chain ----------------------------------------


def test_kernel_rows_hold_only_the_segment_the_march_reads():
    tsys = TransformedSystem.from_constants(
        b11=lambda s, t: 0.3 + 0.2 * s * t, b12=-0.2, c1=lambda s, t: 0.5 + 0.3 * s,
        a12=0.2, a22=2.0, b21=0.4, b22=-0.3, c2=0.6,
    )
    n = 33
    prov = rm.RiemannProvider(tsys, n, reach=4 * 2 * tsys.epsilon / (n - 1))
    nodes = np.linspace(-tsys.epsilon, tsys.epsilon, n)
    for axis in ("s", "t"):
        k = rm._kernel_table(tsys, prov, axis, nodes, 2 * grid_step(prov))
        i0 = n // 2
        for i in range(n):
            read = np.zeros(n, dtype=bool)
            read[min(i, i0):max(i, i0) + 1] = True
            assert np.all(np.isfinite(k[i, read])) and np.all(np.isnan(k[i, ~read]))
        filled = np.where(np.isnan(k), 1e300, k)
        traces = []
        for table in (k, filled):
            _, u = rm.volterra_ivp(
                leading=lambda s: 1.0 + 0.1 * s, damping=lambda s: 0.3,
                kernel=lambda s, sig, table=table: table[np.searchsorted(nodes, s)],
                forcing=np.cos, interval=(-tsys.epsilon, tsys.epsilon), n=n,
            )
            traces.append(u)
        assert np.all(np.isfinite(traces[0])) and np.max(np.abs(traces[0])) > 0.1
        assert traces[0].tobytes() == traces[1].tobytes()


def test_characteristics_report_pulls_back_its_grid_once():
    # its grid is transform_system's 9 x 9 probe, pulled back once there; the
    # origin's coefficients come from the base point's jet
    for name in ("lame_lower_order", "lame_traced"):
        sc = load_scenario(scenario_dir() / f"{name}.json")
        sys = reduce_system(sc.coefficients)
        cmap = ch.build_map(sys, sc.omega, *sc.point)
        calls = []

        def counted(s, t, inverse=cmap.inverse):
            calls.append(np.shape(s))
            return inverse(s, t)

        def jet_counted(x, y, jet=cmap.jet):
            calls.append(("jet", np.shape(x)))
            return jet(x, y)

        cmap = dataclasses.replace(cmap, inverse=counted, jet=jet_counted)
        tsys = ch.transform_system(sys, cmap, sc.omega)
        assert calls[-1] == (81,)  # the accepted square's probe grid
        calls.clear()
        report = pl._characteristics_report(cmap, tsys)
        assert calls == []
        at_origin = report["normal_form_coefficients_at_origin"]
        for key, value in at_origin.items():
            assert value == float(getattr(tsys, key.lower())(0.0, 0.0))
        detj = np.abs(tsys.probe_det_jacobian)
        assert detj.shape == (81,)
        assert report["det_jacobian_range"] == [float(detj.min()), float(detj.max())]


def test_riemann_and_ucp_stages_pull_the_coefficient_grid_back_once():
    # every Riemann solve evaluates the coefficients on the whole n x n
    # grid; transform_system's memo makes all but the first a lookup
    sc = load_scenario(scenario_dir() / "lame_traced.json")
    sys = reduce_system(sc.coefficients)
    cmap = ch.build_map(sys, sc.omega, *sc.point)
    calls = []

    def counted(s, t, inverse=cmap.inverse):
        calls.append(np.shape(s))
        return inverse(s, t)

    tsys = ch.transform_system(sys, dataclasses.replace(cmap, inverse=counted), sc.omega)
    calls.clear()
    tab, _ = pl.riemann_section(sc, tsys)
    with pl.stage("ucp"):
        result = pl._run_ucp_stage(sc, sys, cmap, tsys)
    assert result["w_sup"] == 0.0
    n = len(tab.s_nodes)
    assert calls.count((n, n)) == 1 and calls[0] == (n, n)


def test_ucp_stage_evaluates_the_coefficients_once_per_axis():
    # one pullback for the grid the windows are sliced from, one per axis
    sc = load_scenario(scenario_dir() / "lame_lower_order.json")
    sys = reduce_system(sc.coefficients)
    cmap = ch.build_map(sys, sc.omega, *sc.point)
    calls = []

    def counted(s, t, inverse=cmap.inverse):
        calls.append(np.shape(s))
        return inverse(s, t)

    tsys = ch.transform_system(sys, dataclasses.replace(cmap, inverse=counted), sc.omega)
    calls.clear()
    with pl.stage("ucp"):
        result = pl._run_ucp_stage(sc, sys, cmap, tsys)
    assert result["w_sup"] == 0.0
    assert sorted(calls) == [(65,), (65,), (65, 65)]
