import re

import numpy as np
import pytest
from scipy.special import j0

from helpers import (
    CachedTables,
    axis_slice,
    bessel_representation,
    bilinear,
    cauchy_traces_from_w,
    grid_step,
    hyperbolic_bessel_series,
    hyperbolic_bessel_series_d,
    laplace_riemann,
    list_volterra_ivp,
    loop_represent_solution,
    nine_call_apply_L,
    picard_solve_riemann,
    round_key,
    scalar_apply_L,
    scalar_kernel_PQ,
    scalar_kernel_table,
    solve_riemann_tables,
    value_kernel_table,
    window,
)
from ucp2d import pipeline as pl
from ucp2d import riemann as rm
from ucp2d.characteristics import TransformedSystem
from ucp2d.cli import load_scenario, scenario_dir
from ucp2d.reduction import reduce_system
from ucp2d.riemann import (
    CauchyTraces,
    RiemannProvider,
    SolveError,
    apply_L,
    kernel_PQ,
    represent_solution,
    solve_riemann,
    volterra_ivp,
)


def plain_system(**kw):
    return TransformedSystem.from_constants(epsilon=0.5, **kw)


def each_point(g):
    """``g`` of one parameter point, over ``apply_L``'s stacked stencil points."""
    def f(xi, eta):
        vals = [g(x, e) for x, e in zip(xi.ravel(), eta.ravel())]
        return np.reshape(vals, xi.shape + np.shape(vals[0]))
    return f


def test_series_oracle_agrees_with_scipy_bessel():
    z = np.linspace(0.0, 1.0, 11)
    assert np.allclose(hyperbolic_bessel_series(z), j0(2 * np.sqrt(z)), atol=1e-14)


# -- integral equation ----------------------------------------------------


def test_zero_coefficients_give_unit_kernel_in_one_iteration():
    tab = solve_riemann(plain_system(), (0.0, 0.0), 33)
    assert tab.iterations == 1
    assert np.all(tab.values == 1.0)
    assert tab.residual == 0.0


def test_kernel_is_one_at_its_parameter_point():
    # every integral is empty at the parameter, on the whole square and on
    # windows, on grid nodes and on an added off-grid node alike: the
    # closed form of kernel_PQ starts from this value
    tsys = plain_system(b11=0.3, b12=-0.2, c1=1.0)
    for reach in (np.inf, 4 / 64):
        for param in [(0.0, 0.0), (0.125, -0.25), (0.2, -0.1), (0.37, 0.11)]:
            tab = solve_riemann(tsys, param, 65, reach=reach)
            assert tab.value(*param) == 1.0


def test_constant_c1_matches_bessel_series():
    tsys = plain_system(c1=1.0)
    tab = solve_riemann(tsys, (0.0, 0.0), 257, tol=1e-12)
    assert tab.value(0.5, 0.5) == pytest.approx(
        float(hyperbolic_bessel_series(0.25)), abs=2e-6
    )
    sg, tg = np.meshgrid(tab.s_nodes, tab.t_nodes, indexing="ij")
    ref = hyperbolic_bessel_series(sg * tg)
    assert np.max(np.abs(tab.values - ref)) <= 1e-4


def test_constant_c1_offcentre_parameter():
    tsys = plain_system(c1=1.0)
    xi, eta = 0.13, -0.21
    tab = solve_riemann(tsys, (xi, eta), 129, tol=1e-12)
    sg, tg = np.meshgrid(tab.s_nodes, tab.t_nodes, indexing="ij")
    ref = hyperbolic_bessel_series((sg - xi) * (tg - eta))
    assert np.max(np.abs(tab.values - ref)) <= 5e-4


def test_constant_b12_exponential_closed_form():
    b = 0.7
    tsys = plain_system(b12=b)
    tab = solve_riemann(tsys, (-0.1, 0.2), 129, tol=1e-12)
    sg = tab.s_nodes[:, None]
    ref = np.exp(b * (sg + 0.1)) * np.ones_like(tab.values)
    assert np.max(np.abs(tab.values - ref)) <= 5e-5


def test_grid_convergence_is_second_order():
    tsys = plain_system(c1=1.0)
    errs = []
    for n in (65, 129, 257):
        tab = solve_riemann(tsys, (0.0, 0.0), n, tol=1e-13)
        sg, tg = np.meshgrid(tab.s_nodes, tab.t_nodes, indexing="ij")
        ref = hyperbolic_bessel_series(sg * tg)
        errs.append(np.max(np.abs(tab.values - ref)))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_cumulative_trapezoid_matches_scipy_bit_for_bit():
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(3)
    uniform = np.linspace(-0.25, 0.25, 33)
    s_nodes = window(uniform, 0.013, np.inf)[0]  # augmented: not uniform
    t_nodes = window(uniform, -0.2071, np.inf)[0]
    assert len(s_nodes) == len(t_nodes) == 34
    y = rng.standard_normal((len(s_nodes), len(t_nodes)))
    for axis, nodes in ((0, s_nodes), (1, t_nodes)):
        steps = np.diff(nodes).reshape((-1, 1) if axis == 0 else (1, -1))
        got = rm._cumulative_trapezoid(y, steps, axis)
        want = cumulative_trapezoid(y, nodes, axis=axis, initial=0.0)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    got = rm._cumulative_trapezoid(y[:, 5], np.diff(s_nodes), 0)
    assert got.tobytes() == cumulative_trapezoid(y[:, 5], s_nodes, initial=0.0).tobytes()
    # axes of 1, 2 and 3 nodes, summed plane by plane, across a stack of 7;
    # first cells of -0.0, which a sum starting from 0.0 would turn to 0.0
    y = rng.standard_normal((7, len(s_nodes), 3))
    y[2:4, :, :2] = y[:, :2] = -0.0
    for axis, nodes in ((2, t_nodes[:3]), (2, t_nodes[:2]), (2, t_nodes[:1]), (1, s_nodes)):
        steps = np.diff(nodes).reshape((-1, 1) if axis == 1 else (1, -1))
        part = y[:, :, :len(nodes)] if axis == 2 else y
        got = rm._cumulative_trapezoid(part, steps, axis)
        want = cumulative_trapezoid(part, nodes, axis=axis, initial=0.0)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if axis == 2:  # one line of the stack alone
            got = rm._cumulative_trapezoid(part[3, 4], np.diff(nodes), 0)
            assert got.tobytes() == cumulative_trapezoid(part[3, 4], nodes, initial=0.0).tobytes()


def test_picard_contraction_is_geometric():
    tsys = plain_system(b11=0.4, b12=-0.3, c1=2.0)
    xi, eta = 0.1, 0.1
    eps = tsys.epsilon
    n = 65
    nodes = np.linspace(-eps, eps, n)
    sg, tg = np.meshgrid(nodes, nodes, indexing="ij")
    from scipy.integrate import cumulative_trapezoid

    b12g = np.broadcast_to(tsys.b12(sg, tg), sg.shape)
    b11g = np.broadcast_to(tsys.b11(sg, tg), sg.shape)
    c1g = np.broadcast_to(tsys.c1(sg, tg), sg.shape)
    i_xi = int(np.argmin(np.abs(nodes - xi)))
    j_eta = int(np.argmin(np.abs(nodes - eta)))

    def picard(r):
        cs = cumulative_trapezoid(b12g * r, nodes, axis=0, initial=0.0)
        int_s = cs - cs[i_xi, :][None, :]
        ct = cumulative_trapezoid(b11g * r, nodes, axis=1, initial=0.0)
        int_t = ct - ct[:, j_eta][:, None]
        d = cumulative_trapezoid(c1g * r, nodes, axis=1, initial=0.0)
        d = d - d[:, j_eta][:, None]
        dd = cumulative_trapezoid(d, nodes, axis=0, initial=0.0)
        int_st = dd - dd[i_xi, :][None, :]
        return 1.0 + int_s + int_t - int_st

    r = np.ones_like(sg)
    diffs = []
    for _ in range(12):
        r_new = picard(r)
        diffs.append(np.max(np.abs(r_new - r)))
        r = r_new
    ratios = [b / a for a, b in zip(diffs[1:-1], diffs[2:]) if a > 1e-14]
    assert all(rho < 1.0 for rho in ratios)


def test_reciprocity_for_selfadjoint_constant_case():
    # the closed form depends only on (s-xi)(t-eta), so swapping the
    # evaluation and parameter pairs is exact; the tables must agree to
    # within quadrature error
    tsys = TransformedSystem.from_constants(c1=1.3, epsilon=0.25)
    rng = np.random.default_rng(0)
    prov = RiemannProvider(tsys, 257, tol=1e-12)
    for _ in range(20):
        s, t, xi, eta = rng.uniform(-0.22, 0.22, 4)
        a = prov.table((xi, eta)).value(s, t)
        b = prov.table((s, t)).value(xi, eta)
        assert a == pytest.approx(b, abs=1e-6)


def test_parameter_outside_square_rejected():
    with pytest.raises(ValueError):
        solve_riemann(plain_system(), (0.9, 0.0), 33)
    with pytest.raises(ValueError):
        solve_riemann(plain_system(), (0.0, 0.0), 5)


def test_lower_order_golden_table_matches_bessel_oracle():
    # lame_lower_order: B11 = 0.25, B12 = 0.15, C1 = 0.35, so
    # R(s, t, 0, 0) = exp(B12 s + B11 t) F((C1 - B11 B12) s t)
    sc = load_scenario(scenario_dir() / "lame_lower_order.json")
    _, tsys = pl.characteristics(sc, reduce_system(sc.coefficients))
    tab = rm.RiemannProvider(tsys, pl._axis_nodes(sc), sc.tolerances.picard_tol).table((0.0, 0.0))
    b11, b12, c1 = 0.25, 0.15, 0.35
    sg, tg = np.meshgrid(tab.s_nodes, tab.t_nodes, indexing="ij")
    ref = np.exp(b12 * sg + b11 * tg) * hyperbolic_bessel_series((c1 - b11 * b12) * sg * tg)
    assert np.max(np.abs(ref - 1.0)) > 0.1
    assert np.max(np.abs(tab.values - ref)) <= 1e-6


# -- variable coefficients with a vanishing Laplace invariant ----------------


def laplace_b11(s, t):
    return 0.3 + 0.4 * s


def laplace_b12(s, t):
    return 0.5 * t + 0.2 * s


def laplace_system(form):
    """B11 and B12 above, and the C1 that makes a Laplace invariant vanish:
    dt B12 + B11 B12 (form 1) or ds B11 + B11 B12 (form 2)."""
    d = 0.5 if form == 1 else 0.4
    return plain_system(b11=laplace_b11, b12=laplace_b12,
                        c1=lambda s, t: d + laplace_b11(s, t) * laplace_b12(s, t))


def laplace_error(tab, form):
    sg, tg = np.meshgrid(tab.s_nodes, tab.t_nodes, indexing="ij")
    ref = laplace_riemann(laplace_b11, laplace_b12, form, sg, tg, *tab.parameter)
    return float(np.max(np.abs(tab.values - ref))), ref


@pytest.mark.parametrize("form, measured", [
    (1, (5.06e-6, 1.26e-6, 3.17e-7, 7.93e-8)),
    (2, (7.40e-6, 1.86e-6, 4.65e-7, 1.16e-7)),
])
def test_variable_coefficient_tables_converge_to_the_laplace_closed_form(form, measured):
    # the sup errors measured at n = 33, 65, 129 and 257, each bounded by
    # twice its value, and falling by about 4 per halving of the step
    tsys = laplace_system(form)
    errors = []
    for n, bound in zip((33, 65, 129, 257), measured):
        err, ref = laplace_error(solve_riemann(tsys, (-0.1, 0.2), n, tol=1e-12), form)
        assert np.max(np.abs(ref - 1.0)) > 0.2
        assert err <= 2 * bound
        errors.append(err)
    assert all(a / b >= 3.9 for a, b in zip(errors, errors[1:])), errors


@pytest.mark.parametrize("form", [1, 2])
def test_chain_windows_match_the_laplace_closed_form(form):
    # the windows of each of the vanishing chain's uses, one parameter off
    # the grid and one at a corner, each against the closed form of its
    # own parameter; the largest error measured is 4.2e-6 = 0.017 h^2
    tsys, n = laplace_system(form), 65
    h = 2 * tsys.epsilon / (n - 1)
    parameters = [(0.0, 0.0), (0.125, -0.25), (-0.1, 0.2), (0.5, -0.5)]
    for use in ("s", "t", None):
        tables = solve_riemann_tables(tsys, parameters, n, tol=1e-12,
                                      reach=rm._chain_reach(use, h))
        for parameter, tab in zip(parameters, tables):
            assert tab.parameter == parameter and tab.values.size < n * n
            assert laplace_error(tab, form)[0] <= 0.035 * h**2, (use, parameter)


# -- windows: each table solved only where the chain reads it -----------------


def variable_system():
    """Variable B, C and elliptic coefficients, so that R is not 1."""
    return plain_system(
        b11=lambda s, t: 0.3 + 0.2 * s * t, b12=lambda s, t: -0.2 + 0.1 * np.sin(t),
        c1=lambda s, t: 0.5 + 0.3 * s, a11=lambda s, t: 1.0 + 0.1 * s, a12=0.2,
        a22=lambda s, t: 2.0 + 0.1 * t, b21=0.4, b22=-0.3,
        c2=lambda s, t: 0.6 + 0.0 * s,
    )


@pytest.mark.parametrize("parameter", [(0.0, 0.0), (0.25, -0.125), (-0.5, 0.5),
                                       (0.1, 0.0), (0.37, -0.11)])
def test_windowed_table_equals_the_whole_square_on_its_window(parameter):
    # on-grid and augmented parameters, one at a corner of the square
    tsys = variable_system()
    reach = 4 * 2 * tsys.epsilon / 64
    win = RiemannProvider(tsys, 65, reach=reach).table(parameter)
    full = solve_riemann(tsys, parameter, 65)
    assert win.values.size < full.values.size
    lo = [min(0.0, p) - reach - 1e-12 for p in parameter]
    hi = [max(0.0, p) + reach + 1e-12 for p in parameter]
    for nodes, a, b in ((win.s_nodes, lo[0], hi[0]), (win.t_nodes, lo[1], hi[1])):
        assert set(nodes) <= set(full.s_nodes) | set(full.t_nodes)
        assert nodes[0] >= max(a, -tsys.epsilon) and nodes[-1] <= min(b, tsys.epsilon)
    sg, tg = np.meshgrid(win.s_nodes, win.t_nodes, indexing="ij")
    assert np.max(np.abs(win.values - full.value(sg, tg))) <= 10 * 1e-10


def test_window_arrays_equal_the_per_centre_window_bit_for_bit():
    # on-grid, off-grid (one between the last two nodes, one within the pad
    # of a node), corner and signed-zero centres, at reaches 0, 4h and the
    # whole square, all in one array pass per reach
    n, eps = 33, 0.25
    uniform = np.linspace(-eps, eps, n)
    h = uniform[1] - uniform[0]
    centres = np.array([uniform[5], uniform[20], 0.013, -0.2071, uniform[7] + h / 3,
                        eps - h / 2, uniform[9] + 1e-13, -eps, eps, 0.0, -0.0])
    for reach in (0.0, 4 * h, np.inf):
        got = rm._windows(uniform, centres, reach)
        start, count, index, inserted = got
        width = count.max() + 3
        rows = rm._window_rows(uniform, got, width)
        assert rows.shape == (len(centres), width)
        for k, centre in enumerate(centres):
            nodes, i, cut = window(uniform, centre, reach)
            assert (count[k], index[k]) == (len(nodes), i), (reach, centre)
            assert rows[k, :count[k]].tobytes() == nodes.tobytes(), (reach, centre)
            assert np.isnan(inserted[k]) == (cut is not None), (reach, centre)
            if cut is None:
                assert inserted[k] == centre
            else:
                assert start[k] == cut.start
            # continued with the uniform nodes after the window's last
            own = nodes if cut is not None else np.delete(nodes, i)  # its uniform nodes
            last = int(np.searchsorted(uniform, own[-1]))
            tail = uniform[np.minimum(last + 1 + np.arange(width - count[k]), n - 1)]
            assert rows[k, count[k]:].tobytes() == tail.tobytes(), (reach, centre)
        assert np.isnan(inserted).sum() == 7 and np.all(np.diff(rows, axis=1) >= 0)


def test_value_outside_a_window_raises_and_reads_inside_keep_their_bits():
    tsys = variable_system()
    tab = RiemannProvider(tsys, 65, reach=4 / 64).table((0.1, 0.0))
    eps = tsys.epsilon
    message = r"point \(-0.5, 0.2\) lies outside the Riemann table of parameter \(0.1, 0.0\)"
    with pytest.raises(ValueError, match=message):
        tab.value(-eps, 0.2)
    with pytest.raises(pl.StageError, match=r"^\[ucp\] " + message):
        with pl.stage("ucp"):
            tab.value(np.array([0.0, -eps]), np.array([0.0, 0.2]))
    with pytest.raises(ValueError):
        tab.value(tab.s_nodes[-1] + 1e-9, 0.0)
    rng = np.random.default_rng(4)
    s = np.concatenate([tab.s_nodes, rng.uniform(tab.s_nodes[0], tab.s_nodes[-1], 50),
                        [tab.s_nodes[0] - 1e-13, tab.s_nodes[-1] + 1e-13]])
    t = np.concatenate([np.zeros(len(tab.s_nodes)),
                        rng.uniform(tab.t_nodes[0], tab.t_nodes[-1], 52)])
    assert tab.value(s, t).tobytes() == bilinear(tab, s, t).tobytes()
    assert tab.value(0.1, 0.0) == 1.0


@pytest.mark.parametrize("parameter, axis", [((0.25, 0.0), "s"), ((0.0, 0.25), "t"),
                                            ((0.0, 0.0), None)])
def test_a_table_of_one_node_on_an_axis_reads_exactly_along_it(parameter, axis):
    # reach 0 leaves one node on the axis across the parameter's segment
    # (both, at the origin): reads along the other axis are the linear
    # interpolation of its nodes, and a read beyond the node names the table
    tsys = plain_system(b12=0.3, b11=-0.2, c1=1.0)
    tab = solve_riemann(tsys, parameter, 33, reach=0.0)
    name = r"of parameter \(%r, %r\)$" % parameter
    if axis is None:
        assert tab.values.shape == (1, 1) and tab.value(0.0, 0.0) == 1.0
        for point in ((0.01, 0.0), (0.0, -0.01)):
            with pytest.raises(ValueError, match=r"lies outside the Riemann table " + name):
                tab.value(*point)
        return
    along, vals = axis_slice(tab, axis)
    assert tab.values.shape == ((9, 1) if axis == "s" else (1, 9))
    at = np.concatenate([along, [0.1, 0.2 + 1e-3]])
    i = np.minimum(np.searchsorted(along, at, "right") - 1, len(along) - 2)
    w = (at - along[i]) / (along[i + 1] - along[i])
    want = vals[i] * (1 - w) + vals[i + 1] * w
    got = tab.value(at, 0.0) if axis == "s" else tab.value(0.0, at)
    assert got.tobytes() == want.tobytes()
    assert abs(got[-2] - np.exp(0.3 * (0.1 - 0.25) if axis == "s" else -0.2 * (0.1 - 0.25))) < 1e-3
    beyond = (0.1, 0.05) if axis == "s" else (0.05, 0.1)
    with pytest.raises(ValueError, match=r"point \(%r, %r\) lies outside .*" % beyond + name):
        tab.value(*beyond)


@pytest.mark.parametrize("steps", [0, 1])
def test_a_kernel_table_of_too_small_a_reach_names_the_table(steps):
    # the rows of a stencil parameter shifted 2h from its node reach past
    # a window of reach 0 or h along the axis: the first to leave is the
    # backward stencil point of node steps + 1 past 0, whose segment ends
    # beyond its window
    sc = load_scenario(scenario_dir() / "lame_lower_order.json")
    _, tsys = pl.characteristics(sc, reduce_system(sc.coefficients))
    n = pl._axis_nodes(sc)
    h = 2 * tsys.epsilon / (n - 1)
    nodes = np.linspace(-tsys.epsilon, tsys.epsilon, n)
    x = float(nodes[n // 2 + 1 + steps])
    for axis, reach in (("s", (steps * h, 0.0)), ("t", (0.0, steps * h))):
        prov = RiemannProvider(tsys, n, sc.tolerances.picard_tol, reach)
        point, parameter = (((x, 0.0), (x - 2 * h, -2 * h)) if axis == "s"
                            else ((0.0, x), (-2 * h, x - 2 * h)))
        message = "^" + re.escape(f"[ucp] point {point} lies outside the Riemann table "
                                  f"of parameter {round_key(parameter)}") + "$"
        with pytest.raises(pl.StageError, match=message):
            with pl.stage("ucp"):
                rm._kernel_table(tsys, prov, axis, nodes, rm._CHAIN_STEP * h)


# -- batches: tables of one shape class share a Picard loop ------------------


def _same_table(a, b):
    return (
        a.parameter == b.parameter and a.iterations == b.iterations
        and a.residual == b.residual
        and all(x.tobytes() == y.tobytes() for x, y in (
            (a.s_nodes, b.s_nodes), (a.t_nodes, b.t_nodes), (a.values, b.values)))
    )


def counted_stacks(monkeypatch):
    """The stacks ``rm._solve_stack`` solves from now on, each as its
    converged iterates, iterations and residuals."""
    stacks, solve_stack = [], rm._solve_stack

    def counted(*args):
        stacks.append(solve_stack(*args))
        return stacks[-1]

    monkeypatch.setattr(rm, "_solve_stack", counted)
    return stacks


# one reach for both axes, the chain's per-axis reaches, and none at all
REACHES = [4 * 2 * 0.5 / 32, np.inf, (4 * 2 * 0.5 / 32, 0.0), (0.0, 4 * 2 * 0.5 / 32), 0.0]


def test_tables_equal_the_per_table_picard_loop_bit_for_bit(monkeypatch):
    # grid-aligned windows of several sizes, pairs of one shape whose
    # parameters sit at different nodes, an off-grid parameter that adds
    # a node, a repeated key, and whole-square tables, all in one call;
    # each batch pads its windows into fewer Picard loops than it has
    # window shapes
    tsys = variable_system()
    n = 33
    nodes = np.linspace(-tsys.epsilon, tsys.epsilon, n)
    parameters = [
        (0.0, 0.0), (nodes[20], 0.0), (nodes[12], 0.0), (nodes[20], nodes[12]),
        (nodes[12], nodes[20]), (nodes[3], nodes[30]), (0.123, -0.071), (0.0, 0.0),
        (nodes[0], nodes[32]), (nodes[25], nodes[9]), (nodes[22], nodes[22]),
        (nodes[5], nodes[26]),
    ]
    stacks = counted_stacks(monkeypatch)
    batches = {}
    for reach in REACHES:
        del stacks[:]
        batches[reach] = CachedTables(tsys, n, reach=reach).tables(parameters)
        shapes = {tab.values.shape for tab in batches[reach]}
        assert len(shapes) >= (2 if reach == np.inf else 5)
        assert len(stacks) < len(shapes) < len(set(parameters))
    monkeypatch.setattr(rm, "solve_riemann", picard_solve_riemann)
    for reach, batch in batches.items():
        reference = RiemannProvider(tsys, n, reach=reach)
        assert batch[0] is batch[7]
        for parameter, tab in zip(parameters, batch):
            assert _same_table(tab, reference.table(parameter)), (reach, parameter)
    assert (n + 1, n + 1) in {tab.values.shape for tab in batches[np.inf]}


def test_a_padded_table_keeps_its_iterations_when_its_neighbour_converges_later(monkeypatch):
    # windows of 5 x 5 and 8 x 8 nodes share a stack; the larger one needs
    # more Picard steps, and the smaller keeps its own count and residual
    tsys = variable_system()
    n = 33
    nodes = np.linspace(-tsys.epsilon, tsys.epsilon, n)
    parameters = [(nodes[20], nodes[20]), (nodes[23], nodes[23])]
    stacks = counted_stacks(monkeypatch)
    small, large = solve_riemann_tables(tsys, parameters, n, reach=0.0)
    assert len(stacks) == 1
    assert small.values.shape == (5, 5) and large.values.shape == (8, 8)
    assert small.iterations < large.iterations
    for parameter, tab in zip(parameters, (small, large)):
        assert _same_table(tab, picard_solve_riemann(tsys, parameter, n, reach=0.0))


@pytest.mark.parametrize("reach", REACHES)
def test_a_table_has_the_same_bits_on_each_route(reach):
    # solve_riemann alone, the provider's one-table route, and a mixed
    # batch: grid-aligned, off-grid and corner parameters whose windows
    # take coefficients sliced from the uniform grid or evaluated on
    # their own nodes
    tsys = variable_system()
    n, tol = 33, 1e-10
    nodes = np.linspace(-tsys.epsilon, tsys.epsilon, n)
    parameters = [(nodes[20], nodes[12]), (0.123, -0.071), (nodes[0], nodes[32]),
                  (0.0, 0.0), (nodes[3], 0.0), (nodes[12], nodes[20]), (0.0, 0.2)]
    batch = CachedTables(tsys, n, tol, reach).tables(parameters)
    for parameter, tab in zip(parameters, batch):
        alone = solve_riemann(tsys, parameter, n, tol, reach)
        one = RiemannProvider(tsys, n, tol, reach).table(parameter)
        assert _same_table(tab, alone) and _same_table(tab, one), parameter
        # a table owns its values, so a cached table keeps no Picard stack alive
        assert all(t.values.flags.owndata for t in (tab, alone, one))
    assert len({tab.values.shape for tab in batch}) < len(batch)


def test_one_non_contracting_table_in_a_batch_names_its_parameter():
    # C1 = 1e3: the corner window grows R past 1e17, whose rounding keeps
    # each Picard step above 1e-10; the windows near the origin contract
    tsys = plain_system(c1=1e3)
    prov = CachedTables(tsys, 33, reach=4 / 32)
    contracting = [(0.0, 0.0), (0.0625, 0.0), (0.0, -0.0625)]
    assert all(t.iterations < 200 for t in prov.tables(contracting))
    message = (r"^Picard iteration for the Riemann table of parameter \(0\.5, 0\.5\) did not "
               r"contract to 1e-10 within 200 steps \(last sup-norm step [0-9.e+]+\)$")
    with pytest.raises(SolveError, match=message):
        prov.tables(contracting[:2] + [(0.5, 0.5), (0.0625, 0.0625)])
    with pytest.raises(SolveError, match=r"parameter \(0\.0, 0\.0\) did not contract"):
        solve_riemann(tsys, (0.0, 0.0), 33)


# -- representation formula ------------------------------------------------


def test_zero_traces_zero_seed_reproduce_zero():
    tsys = plain_system(b11=0.2, b12=0.1, c1=0.5)
    prov = RiemannProvider(tsys, 65)
    nodes = np.linspace(-0.5, 0.5, 65)
    traces = CauchyTraces(nodes, 0 * nodes, 0 * nodes)
    targets = [(-0.3, 0.4), (0.2, 0.2), (0.45, -0.45)]
    vals = represent_solution(prov, 0.0, traces, targets)
    assert np.all(vals == 0.0)


def test_dalembert_reconstruction_from_traces():
    # with all coefficients zero, R = 1 and the formula telescopes to
    # w(s,t) = w(0,0) + [f(s) - f(0)] + [g(t) - g(0)] for w = f + g
    tsys = plain_system()
    prov = RiemannProvider(tsys, 129)

    def w(s, t):
        return np.asarray(s) ** 2 + np.sin(np.asarray(t))

    traces = cauchy_traces_from_w(
        tsys,
        w,
        lambda s, t: 2 * np.asarray(s),
        lambda s, t: np.cos(np.asarray(t)),
        129,
    )
    rng = np.random.default_rng(1)
    targets = rng.uniform(-0.5, 0.5, size=(20, 2))
    vals = represent_solution(prov, float(w(0.0, 0.0)), traces, list(targets))
    ref = np.array([w(s, t) for s, t in targets])
    assert np.max(np.abs(vals - ref)) <= 5e-5


def test_bessel_solution_reconstruction():
    # w = J0(2 sqrt(st)) solves ds dt w + w = 0; its axis traces vanish
    # and w(0,0) = 1, so the formula must reproduce the closed form
    tsys = plain_system(c1=1.0)
    traces = cauchy_traces_from_w(
        tsys,
        lambda s, t: hyperbolic_bessel_series(np.asarray(s) * np.asarray(t)),
        lambda s, t: hyperbolic_bessel_series_d(np.asarray(s) * np.asarray(t)) * np.asarray(t),
        lambda s, t: hyperbolic_bessel_series_d(np.asarray(s) * np.asarray(t)) * np.asarray(s),
        257,
    )
    assert np.max(np.abs(traces.phi)) == 0.0
    assert np.max(np.abs(traces.psi)) == 0.0
    assert np.array_equal(traces.nodes, np.linspace(-0.5, 0.5, 257))
    # the representation from these zero traces on the same system and grid
    vals, ref = bessel_representation()
    assert np.max(np.abs(vals - ref)) <= 1e-4


def test_superposed_shifted_kernels_reconstruct_with_active_trace():
    # any shift a gives another solution F((s-a)t) of ds dt w + w = 0;
    # superposing one with the centred kernel produces a nonzero psi
    # trace, exercising the trace integrals of the representation
    a = 0.2
    tsys = plain_system(c1=1.0)

    def w_ref(s, t):
        return hyperbolic_bessel_series(s * t) + 0.5 * hyperbolic_bessel_series(
            (s - a) * t
        )

    def psi_exact(t):
        # dt w(0, t): the centred part has zero t-derivative on s = 0
        return 0.5 * (-a) * hyperbolic_bessel_series_d(-a * t)

    rng = np.random.default_rng(2)
    targets = list(rng.uniform(-0.45, 0.45, size=(20, 2)))

    def sup_error(n):
        prov = RiemannProvider(tsys, n, tol=1e-12)
        nodes = np.linspace(-0.5, 0.5, n)
        traces = CauchyTraces(nodes, 0 * nodes, psi_exact(nodes))
        vals = represent_solution(prov, float(w_ref(0.0, 0.0)), traces, targets)
        ref = np.array([w_ref(s, t) for s, t in targets])
        return np.max(np.abs(vals - ref))

    e1, e2 = sup_error(65), sup_error(129)
    assert e2 <= 1e-4
    # representation inherits the quadrature order
    assert e1 / e2 >= 3.0


# -- P/Q damping kernels ---------------------------------------------------


def test_kernel_P_zero_for_trivial_system():
    tsys = plain_system(a11=1.0, a12=0.5, a22=2.0)
    nodes = np.linspace(-0.5, 0.5, 11)
    p = kernel_PQ(tsys, "s", nodes)
    assert np.max(np.abs(p)) <= 1e-12


def test_kernel_P_reduces_to_b21_when_kernel_is_unit():
    tsys = plain_system(b21=1.0, b22=-2.0)
    nodes = np.linspace(-0.5, 0.5, 11)
    p = kernel_PQ(tsys, "s", nodes)
    assert np.allclose(p, 1.0, atol=1e-12)
    q = kernel_PQ(tsys, "t", nodes)
    assert np.allclose(q, -2.0, atol=1e-12)


def test_kernel_P_constant_c1_against_series():
    # analytic value of P(s, 0) for the pure-C1 system with A11 = 1:
    # (ds + 2 dxi) R (s,0,xi,t)|xi=s picks up -c (0 - t) F'(0); at t = 0
    # every term vanishes, and B11 = B12 = B21 = 0, so P(s, 0) = 0 exactly
    tsys = plain_system(c1=1.0, a11=1.0, a12=0.7)
    nodes = np.linspace(-0.45, 0.45, 9)
    p = kernel_PQ(tsys, "s", nodes)
    assert np.all(p == 0.0)


def test_kernel_PQ_is_exact_for_constant_coefficients():
    # R = exp(b12 (s - xi) + b11 (t - eta)) F((s - xi)(t - eta)) with
    # F(0) = 1, so its first derivatives at the parameter are those of
    # the exponential, whatever c1 is
    c = dict(b11=0.3, b12=-0.7, c1=1.1, a11=1.3, a12=0.4, a22=2.1, b21=0.9, b22=-0.6, c2=0.5)
    tsys = plain_system(**c)
    nodes = np.linspace(-0.5, 0.5, 11)
    p_ref = -c["a11"] * c["b12"] + 2 * c["a12"] * c["b11"] + c["b21"]
    q_ref = -c["a22"] * c["b11"] + 2 * c["a12"] * c["b12"] + c["b22"]
    assert np.max(np.abs(kernel_PQ(tsys, "s", nodes) - p_ref)) <= 1e-15
    assert np.max(np.abs(kernel_PQ(tsys, "t", nodes) - q_ref)) <= 1e-15


def test_kernel_step_validation():
    tsys = plain_system()
    with pytest.raises(ValueError):
        kernel_PQ(tsys, "x", [0.0])


@pytest.mark.parametrize("axis", ["s", "t"])
def test_kernel_PQ_closed_form_against_table_differences(axis):
    # second-order difference quotients of whole-square tables converge to
    # the closed form at rate h^2
    tsys = variable_system()
    errors = []
    for n in (17, 33, 65):
        full = CachedTables(tsys, n)
        nodes = np.linspace(-tsys.epsilon, tsys.epsilon, n)
        ref = scalar_kernel_PQ(tsys, full, axis, nodes)
        err = np.max(np.abs(kernel_PQ(tsys, axis, nodes) - ref))
        assert err <= 0.1 * grid_step(full)**2
        errors.append(err)
    assert errors[0] / errors[1] >= 3.5
    assert errors[1] / errors[2] >= 3.5


def oracle_cases():
    sc = load_scenario(scenario_dir() / "lame_lower_order.json")
    _, tsys = pl.characteristics(sc, reduce_system(sc.coefficients))
    yield pytest.param(tsys, pl._axis_nodes(sc), id="lame_lower_order")
    yield pytest.param(variable_system(), 33, id="plain_variable")


def recorded_solves(monkeypatch):
    """``(provider, tables)`` for each ``rm.RiemannProvider.solve`` call from
    now on, its tables a dict from key to the :class:`RiemannTable` that
    ``_Stacks.table`` builds from the stack arrays."""
    solves, solve = [], rm.RiemannProvider.solve

    def recorded(self, parameters):
        solved, key = solve(self, parameters)
        solves.append((self, {tuple(map(float, p)): solved.table(k)
                              for k, p in enumerate(solved.points)}))
        return solved, key

    monkeypatch.setattr(rm.RiemannProvider, "solve", recorded)
    return solves


@pytest.mark.parametrize("tsys, n", oracle_cases())
def test_kernels_on_windows_match_the_scalar_oracle(tsys, n, monkeypatch):
    # both kernel tables of the ucp stage, each on the chain's windows of
    # its axis, against the node-by-node path on tables of the whole square
    full = CachedTables(tsys, n)
    h = grid_step(full)
    windows = {axis: rm.RiemannProvider(tsys, n, reach=rm._chain_reach(axis, h)) for axis in "st"}
    nodes = np.linspace(-tsys.epsilon, tsys.epsilon, n)
    assert np.max(np.abs(full.table((0.0, 0.0)).values - 1.0)) > 1e-3
    solves = recorded_solves(monkeypatch)
    for axis in ("s", "t"):
        k = rm._kernel_table(tsys, windows[axis], axis, nodes, 2 * h)
        ref = scalar_kernel_table(tsys, full, axis, nodes, 2 * h)
        read = ~np.isnan(k)
        assert np.max(np.abs(ref)) > 0.1
        assert np.max(np.abs(k[read] - ref[read])) <= 1e-8
    assert [w for w, _ in solves] == [windows["s"], windows["t"]]
    assert sum(t.values.size for _, tables in solves for t in tables.values()) < 0.25 * sum(
        t.values.size for t in full._cache.values())


def test_riemann_chain_marches_both_axes_on_the_oracle_kernels(monkeypatch):
    # what the chain hands volterra_ivp on each axis: A11 or A22 and P or
    # Q there, and kernel rows that match the scalar oracle on tables of
    # the whole square wherever the march reads them
    tsys = variable_system()
    n = 33
    nodes = np.linspace(-tsys.epsilon, tsys.epsilon, n)
    zero = np.zeros_like(nodes)
    marched = []
    real = rm.volterra_ivp

    def record(leading, damping, kernel, forcing, interval, n):
        marched.append([np.array([f(s, nodes) for s in nodes]) for f in (leading, damping, kernel)])
        return real(leading, damping, kernel, forcing, interval, n)

    monkeypatch.setattr(rm, "volterra_ivp", record)
    traces, values = rm.riemann_chain(tsys, n, 1e-10, 0.0, [(0.1, -0.2)])
    assert values.tolist() == [0.0] and not traces.phi.any() and not traces.psi.any()
    full = CachedTables(tsys, n)
    leads = (tsys.a11(nodes, zero), tsys.a22(zero, nodes))
    assert len(marched) == 2
    for (lead, damp, k), axis, want in zip(marched, ("s", "t"), leads):
        assert lead.tobytes() == want.tobytes()
        assert damp.tobytes() == kernel_PQ(tsys, axis, nodes).tobytes()
        ref = scalar_kernel_table(tsys, full, axis, nodes, 2 * grid_step(full))
        read = ~np.isnan(k)
        assert np.max(np.abs(k[read] - ref[read])) <= 1e-8


# -- parameter-space elliptic operator --------------------------------------


def test_apply_L_trivial_cases():
    prov = RiemannProvider(plain_system(), 65)

    def unit(xi, eta):
        return np.ones(np.shape(xi))

    tsys0 = plain_system(c2=0.0)
    assert apply_L(tsys0, unit, (0.1, 0.1), 0.02) == pytest.approx(0.0, abs=1e-12)
    tsys1 = plain_system(c2=1.0)
    assert apply_L(tsys1, unit, (0.1, 0.1), 0.02) == pytest.approx(1.0, abs=1e-12)


def test_apply_L_bessel_parameter_derivatives():
    # for the constant-C1 kernel, R(sig,0,xi,eta) = F(c (sig-xi)(0-eta));
    # with a pure-Laplacian L the parameter derivatives have closed form
    c = 1.0
    tsys = plain_system(c1=c, a11=1.0, a22=1.0)
    prov = RiemannProvider(tsys, 257, tol=1e-12)
    sig = 0.2
    at = (0.3, 0.25)

    def f(xi, eta):
        return prov.table((xi, eta)).value(sig, 0.0)

    got = apply_L(tsys, each_point(f), at, step=2 * grid_step(prov))

    def ref_f(xi, eta):
        return hyperbolic_bessel_series(c * (sig - xi) * (0.0 - eta))

    d = 1e-4
    ref = (
        (ref_f(at[0] + d, at[1]) - 2 * ref_f(*at) + ref_f(at[0] - d, at[1])) / d**2
        + (ref_f(at[0], at[1] + d) - 2 * ref_f(*at) + ref_f(at[0], at[1] - d)) / d**2
    )
    assert got == pytest.approx(ref, abs=1e-3)


def test_apply_L_edge_stencils_shift_inside():
    tsys = plain_system(a11=1.0, a22=1.0)

    def quad(xi, eta):
        return xi**2 + 3 * eta**2

    # exact Laplacian everywhere, including at the corner of the square
    assert apply_L(tsys, quad, (0.5, 0.5), 0.05) == pytest.approx(8.0, abs=1e-8)


def test_apply_L_on_a_row_matches_entrywise_calls():
    tsys = plain_system(b11=0.25, b12=0.15, c1=0.35, a11=1.0, a12=0.2, a22=3.0,
                        b21=0.4, b22=-0.3, c2=0.6)
    prov = CachedTables(tsys, 33)
    nodes = np.linspace(-tsys.epsilon, tsys.epsilon, prov.n)
    step = 2 * grid_step(prov)
    # first two and last two rows take the one-sided stencils
    for i in (0, 1, prov.n // 2, prov.n - 2, prov.n - 1):
        at = (nodes[i], 0.0)
        row = apply_L(tsys, each_point(lambda xi, eta: prov.table((xi, eta)).value(nodes, 0.0)), at, step)
        entries = [
            apply_L(tsys, each_point(lambda xi, eta: prov.table((xi, eta)).value(sig, 0.0)), at, step)
            for sig in nodes
        ]
        assert row.shape == nodes.shape
        np.testing.assert_allclose(row, entries, rtol=1e-14, atol=0.0)


def test_apply_L_on_an_axis_matches_the_scalar_oracle():
    # one call at all the nodes of an axis, rows of evaluation points after them
    tsys = variable_system()
    prov = CachedTables(tsys, 33)
    nodes = np.linspace(-tsys.epsilon, tsys.epsilon, prov.n)
    step = 2 * grid_step(prov)
    zero = np.zeros_like(nodes)

    got = apply_L(tsys, each_point(lambda x, e: prov.table((x, e)).value(nodes, 0.0)), (nodes, zero), step)
    ref = np.array([
        scalar_apply_L(tsys, lambda xi, eta: prov.table((xi, eta)).value(nodes, 0.0), (s, 0.0), step)
        for s in nodes
    ])
    assert got.shape == (prov.n, prov.n)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-10)


def test_apply_L_calls_f_once_and_sums_the_nine_stencil_points_in_order():
    tsys = variable_system()
    nodes = np.linspace(-tsys.epsilon, tsys.epsilon, 33)
    row_nodes = np.linspace(-0.3, 0.4, 7)
    calls = []

    def f(xi, eta):
        calls.append(np.shape(xi))
        return np.sin(3 * xi[..., None] + row_nodes) * np.exp(eta[..., None] * row_nodes)

    for at in ((nodes, np.zeros_like(nodes)), (np.zeros_like(nodes), nodes), (0.1, -0.5)):
        calls.clear()
        got = apply_L(tsys, f, at, 2 / 32)
        assert calls == [(3, 3) + np.shape(at[0])]
        want = nine_call_apply_L(tsys, f, at, 2 / 32)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# -- Volterra integro-differential IVP --------------------------------------


def test_homogeneous_ivp_is_identically_zero():
    nodes, u = volterra_ivp(
        leading=lambda s: 1.0 + 0.2 * s,
        damping=lambda s: 0.5 - s,
        kernel=lambda s, sig: np.cos(s - sig),
        forcing=lambda s: 0.0,
        interval=(-0.5, 0.5),
        n=129,
    )
    assert np.max(np.abs(u)) <= 1e-12


def test_ivp_sine_solution_and_convergence_order():
    errs = []
    for n in (65, 129, 257):
        nodes, u = volterra_ivp(
            leading=lambda s: 1.0,
            damping=lambda s: 0.0,
            kernel=lambda s, sig: 0.0,
            forcing=np.cos,
            interval=(-0.5, 0.5),
            n=n,
        )
        errs.append(np.max(np.abs(u - np.sin(nodes))))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 >= 1.8 and order2 >= 1.8


def test_ivp_memory_kernel_manufactured_solution():
    # u(s) = s satisfies u' + int_0^s sig u'(sig)... with K = 1:
    # u' + int_0^s sigma dsig = 1 + s^2/2 = g(s); the scheme integrates
    # linear data exactly
    nodes, u = volterra_ivp(
        leading=lambda s: 1.0,
        damping=lambda s: 0.0,
        kernel=lambda s, sig: 1.0,
        forcing=lambda s: 1.0 + s**2 / 2,
        interval=(-0.5, 0.5),
        n=65,
    )
    assert np.max(np.abs(u - nodes)) <= 1e-12


def test_ivp_full_coefficients_manufactured():
    # choose u = sin(s), A = 1 + s^2, P = s, K(s,sig) = s - sig and
    # derive g accordingly: int_0^s (s - sig) sin(sig) dsig = s - sin(s)
    def forcing(s):
        return (1 + s**2) * np.cos(s) + s * np.sin(s) + (s - np.sin(s))

    errs = []
    for n in (129, 257):
        nodes, u = volterra_ivp(
            leading=lambda s: 1 + s**2,
            damping=lambda s: s,
            kernel=lambda s, sig: s - sig,
            forcing=forcing,
            interval=(-0.5, 0.5),
            n=n,
        )
        errs.append(np.max(np.abs(u - np.sin(nodes))))
    assert np.log2(errs[0] / errs[1]) >= 1.8


def test_ivp_leading_coefficient_floor():
    with pytest.raises(SolveError):
        volterra_ivp(
            leading=lambda s: s,  # vanishes at 0
            damping=lambda s: 0.0,
            kernel=lambda s, sig: 0.0,
            forcing=lambda s: 1.0,
            interval=(-0.5, 0.5),
            n=33,
        )


def test_ivp_calls_kernel_once_per_node_on_all_nodes():
    calls = []

    def kernel(s, sig):
        calls.append((s, np.array(sig, dtype=float)))
        return np.cos(s - sig)

    nodes, _ = volterra_ivp(
        leading=lambda s: 1.0,
        damping=lambda s: 0.0,
        kernel=kernel,
        forcing=np.cos,
        interval=(-0.5, 0.5),
        n=33,
    )
    assert [s for s, _ in calls] == list(nodes)
    for _, sig in calls:
        assert np.array_equal(sig, nodes)



@pytest.mark.parametrize("name", ["lame_lower_order", "lame_traced"])
def test_kernel_table_equals_the_value_read_rows_bit_for_bit(name, monkeypatch):
    # the ucp stage's kernel tables and every table behind them, against
    # per-table Picard loops, nine f calls per apply_L and rows read
    # through RiemannTable.value
    sc = load_scenario(scenario_dir() / f"{name}.json")
    _, tsys = pl.characteristics(sc, reduce_system(sc.coefficients))
    n = pl._axis_nodes(sc)
    h = 2 * tsys.epsilon / (n - 1)

    def chain_provider(axis):
        return CachedTables(tsys, n, sc.tolerances.picard_tol, rm._chain_reach(axis, h))

    nodes = np.linspace(-tsys.epsilon, tsys.epsilon, n)
    step = rm._CHAIN_STEP * h
    solves = recorded_solves(monkeypatch)
    got = [rm._kernel_table(tsys, rm.RiemannProvider(tsys, n, sc.tolerances.picard_tol,
                                                     rm._chain_reach(axis, h)), axis, nodes, step)
           for axis in "st"]
    monkeypatch.setattr(rm, "solve_riemann", picard_solve_riemann)
    reference = {axis: chain_provider(axis) for axis in "st"}
    want = [value_kernel_table(tsys, reference[axis], axis, nodes, step) for axis in "st"]
    for k, ref in zip(got, want):
        assert np.nanmax(np.abs(ref)) > 0.01
        assert k.tobytes() == ref.tobytes()
    assert len(solves) == 2
    for (_, tables), axis in zip(solves, "st"):
        assert list(tables) == list(reference[axis]._cache)
        assert all(_same_table(tables[key], tab) for key, tab in reference[axis]._cache.items())


def test_the_chain_solves_each_table_only_where_it_reads_it(monkeypatch):
    # the chain's three batches (kernel rows on s, on t, representation):
    # every node a kernel row or the representation reads is a node of its
    # table, and their cells sum to under half those of one provider
    # whose windows reach _CHAIN_REACH steps along both axes
    sc = load_scenario(scenario_dir() / "lame_lower_order.json")
    _, tsys = pl.characteristics(sc, reduce_system(sc.coefficients))
    n, tol, eps = pl._axis_nodes(sc), sc.tolerances.picard_tol, tsys.epsilon
    h = 2 * eps / (n - 1)
    solves = recorded_solves(monkeypatch)
    probe = np.linspace(-eps, eps, 9)
    targets = [(s, t) for s in probe for t in probe]
    rm.riemann_chain(tsys, n, tol, 0.0, targets)
    kernels, representation = {"s": solves[0][1], "t": solves[1][1]}, solves[2][1]
    assert [w.reach for w, _ in solves] == [rm._chain_reach(use, h) for use in ("s", "t", None)]

    def has_nodes(axis_nodes, points):
        return all(np.min(np.abs(axis_nodes - p)) <= 1e-12 for p in points)

    nodes = np.linspace(-eps, eps, n)
    i0 = n // 2
    for axis, tables in kernels.items():
        for i, s in enumerate(nodes):
            at = (s, 0.0) if axis == "s" else (0.0, s)
            xs, ys = (rm._stencils(x, 2 * h, -eps, eps)[0] for x in at)
            for xi in xs:
                for eta in ys:
                    tab = tables[round_key((xi, eta))]
                    along, across = ((tab.s_nodes, tab.t_nodes) if axis == "s"
                                     else (tab.t_nodes, tab.s_nodes))
                    assert has_nodes(along, nodes[min(i, i0):max(i, i0) + 1]), (axis, i)
                    assert has_nodes(across, [0.0]), (axis, i)
    for s, t in targets:
        tab = representation[round_key((s, t))]
        assert has_nodes(tab.s_nodes, [0.0, s]) and has_nodes(tab.t_nodes, [0.0, t])
    cells = sum(t.values.size for _, tables in solves for t in tables.values())
    parent_rule = CachedTables(tsys, n, tol, rm._CHAIN_REACH * h)
    keys = {key for _, tables in solves for key in tables}
    assert cells < 0.5 * sum(t.values.size for t in parent_rule.tables(sorted(keys)))


# -- the chain on stack arrays ------------------------------------------------


def test_a_run_builds_one_riemann_table(monkeypatch):
    # the riemann stage's table; the chain reads its 471 tables as stack arrays
    built, init = [], rm.RiemannTable.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("parameter", args[0] if args else None))
        init(self, *args, **kwargs)

    monkeypatch.setattr(rm.RiemannTable, "__init__", counted)
    report, failures = pl.run(load_scenario(scenario_dir() / "lame_lower_order.json"))
    assert not failures and "w_sup" in report["ucp"] and "riemann" in report
    assert built == [(0.0, 0.0)]


@pytest.mark.parametrize("name", ["lame_lower_order", "lame_traced"])
def test_representation_with_nonzero_data_equals_the_table_loop_bit_for_bit(name):
    # w00, phi and psi nonzero, so every table value the formula reads shows
    # in its result: on the ucp stage's 9 x 9 probe, whose windows are
    # uniform nodes, and on random targets, whose windows gain an off-grid node
    sc = load_scenario(scenario_dir() / f"{name}.json")
    _, tsys = pl.characteristics(sc, reduce_system(sc.coefficients))
    n, tol, eps = pl._axis_nodes(sc), sc.tolerances.picard_tol, tsys.epsilon
    nodes = np.linspace(-eps, eps, n)
    traces = CauchyTraces(nodes, np.sin(3 * nodes) + 0.2, np.cos(2 * nodes) - 0.1)
    probe = np.linspace(-eps, eps, 9)
    random = [tuple(p) for p in np.random.default_rng(6).uniform(-eps, eps, (40, 2))]
    reach = rm._chain_reach(None, 2 * eps / (n - 1))
    for targets, augmented in (([(s, t) for s in probe for t in probe], False), (random, True)):
        windows = rm.RiemannProvider(tsys, n, tol, reach)
        solved, _ = windows.solve(targets)
        assert all(np.isfinite(w[3]).any() == augmented for w in solved.windows)
        got = represent_solution(windows, 0.37, traces, targets)
        want = loop_represent_solution(CachedTables(tsys, n, tol, reach), 0.37, traces, targets)
        assert np.min(np.abs(want)) > 1e-3
        assert got.tobytes() == want.tobytes()


def test_interp_rows_equals_np_interp_bit_for_bit():
    # rows of 1 to 9 nodes padded to 9, read at their nodes, between them,
    # beyond both ends and an ulp from a node, with infinities in fp
    rng = np.random.default_rng(8)
    rows, width = 400, 9
    count = rng.integers(1, width + 1, rows)
    xp = np.cumsum(rng.uniform(0.01, 1.0, (rows, width)), axis=1) - 2.0
    fp = rng.normal(size=(rows, width))
    fp[rng.random((rows, width)) < 0.03] = np.inf
    pick = xp[np.arange(rows), rng.integers(0, count)]
    x = np.stack([pick, np.nextafter(pick, np.inf), np.nextafter(pick, -np.inf),
                  rng.uniform(-3.0, 8.0, rows), xp[:, 0] - 1.0,
                  xp[np.arange(rows), count - 1] + 1.0], axis=1)
    got = rm._interp_rows(x, xp, fp, count)
    want = [np.interp(x[r], xp[r, :count[r]], fp[r, :count[r]]) for r in range(rows)]
    assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("n", [9, 33, 65, 129])
def test_volterra_ivp_equals_the_list_march_bit_for_bit(n):
    # the march on slices and reversed views against known nodes as index lists
    rng = np.random.default_rng(n)
    nodes = np.linspace(-0.4, 0.4, n)
    k_table, lead = rng.normal(size=(n, n)), rng.uniform(0.5, 2.0, n)
    damp, force = rng.normal(size=n), rng.normal(size=n)

    def at(values):
        return lambda s, *_: values[np.searchsorted(nodes, s)]

    kwargs = dict(leading=at(lead), damping=at(damp), kernel=at(k_table), forcing=at(force),
                  interval=(-0.4, 0.4), n=n)
    got, want = volterra_ivp(**kwargs), list_volterra_ivp(**kwargs)
    assert np.max(np.abs(want[1])) > 0.01
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def test_windows_solve_each_distinct_key_once_in_order_of_first_appearance():
    # keys rounded as round_key rounds them, on values a scaled half-integer away
    # from a tie, signed zeros and repeats; the tables of the keys, in order
    tsys = variable_system()
    rng = np.random.default_rng(9)
    ties = (rng.integers(-4 * 10**12, 4 * 10**12, 60) + 0.5) / 1e14
    values = np.concatenate([ties, np.nextafter(ties, 1.0), rng.uniform(-0.5, 0.5, 60),
                             [0.0, -0.0, 0.1 + 1e-16, 0.1, 1e-20, -1e-20, 0.25]])
    keys = rm._keys(np.stack([values, values[::-1]], axis=1))
    want = [round_key(p) for p in zip(values, values[::-1])]
    assert keys.tobytes() == np.array(want).tobytes()
    draws = rng.integers(0, len(values), 300)
    parameters = [(values[k], values[-1 - k]) for k in draws]
    provider = rm.RiemannProvider(tsys, 17, reach=0.0)
    solved, key = provider.solve(parameters)
    distinct = list(dict.fromkeys(round_key(p) for p in parameters))
    assert [tuple(p) for p in solved.points.tolist()] == distinct
    assert [distinct[k] for k in key] == [round_key(p) for p in parameters]
    tables = solve_riemann_tables(tsys, distinct, 17, reach=0.0)
    assert all(_same_table(solved.table(k), tab) for k, tab in enumerate(tables))
    # the one-table route rounds as the batch does: ties, values an ulp
    # above a tie, and a tie beside +0.0 or -0.0 on either axis
    picked = [k for k, j in enumerate(draws) if j in (0, 1, 2, 5, 6, 60, 62, 180, 181)]
    assert {int(draws[k]) for k in picked} == {0, 1, 2, 5, 6, 60, 62, 180, 181}
    for k in picked:
        alone, batched = provider.table(parameters[k]), solved.table(key[k])
        assert _same_table(alone, batched), parameters[k]
        assert np.array(alone.parameter).tobytes() == np.array(batched.parameter).tobytes()
