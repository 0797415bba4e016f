import numpy as np
import pytest
from scipy.special import j0

from helpers import (
    bilinear,
    cauchy_traces_from_w,
    grid_step,
    hyperbolic_bessel_series,
    hyperbolic_bessel_series_d,
    nine_call_apply_L,
    picard_solve_riemann,
    scalar_apply_L,
    scalar_kernel_PQ,
    scalar_kernel_table,
    value_kernel_table,
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
    s_nodes = rm._window(uniform, 0.013, np.inf)[0]  # augmented: not uniform
    t_nodes = rm._window(uniform, -0.2071, np.inf)[0]
    assert len(s_nodes) == len(t_nodes) == 34
    y = rng.standard_normal((len(s_nodes), len(t_nodes)))
    for axis, nodes in ((0, s_nodes), (1, t_nodes)):
        steps = np.diff(nodes).reshape((-1, 1) if axis == 0 else (1, -1))
        got = rm._cumulative_trapezoid(y, steps, axis)
        want = cumulative_trapezoid(y, nodes, axis=axis, initial=0.0)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    got = rm._cumulative_trapezoid(y[:, 5], np.diff(s_nodes), 0)
    assert got.tobytes() == cumulative_trapezoid(y[:, 5], s_nodes, initial=0.0).tobytes()


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
    tab = pl.riemann_provider(sc, tsys).table((0.0, 0.0))
    b11, b12, c1 = 0.25, 0.15, 0.35
    sg, tg = np.meshgrid(tab.s_nodes, tab.t_nodes, indexing="ij")
    ref = np.exp(b12 * sg + b11 * tg) * hyperbolic_bessel_series((c1 - b11 * b12) * sg * tg)
    assert np.max(np.abs(ref - 1.0)) > 0.1
    assert np.max(np.abs(tab.values - ref)) <= 1e-6


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


# -- batches: tables of one window shape share a Picard loop -----------------


def _same_table(a, b):
    return (
        a.parameter == b.parameter and a.iterations == b.iterations
        and a.residual == b.residual
        and all(x.tobytes() == y.tobytes() for x, y in (
            (a.s_nodes, b.s_nodes), (a.t_nodes, b.t_nodes), (a.values, b.values)))
    )


def test_tables_equal_the_per_table_picard_loop_bit_for_bit(monkeypatch):
    # grid-aligned windows of several sizes, pairs of one shape whose
    # parameters sit at different nodes, an off-grid parameter that adds
    # a node, a repeated key, and whole-square tables, all in one call
    tsys = variable_system()
    n = 33
    h = 2 * tsys.epsilon / (n - 1)
    nodes = np.linspace(-tsys.epsilon, tsys.epsilon, n)
    parameters = [
        (0.0, 0.0), (nodes[20], 0.0), (nodes[12], 0.0), (nodes[20], nodes[12]),
        (nodes[12], nodes[20]), (nodes[3], nodes[30]), (0.123, -0.071), (0.0, 0.0),
        (nodes[0], nodes[32]), (nodes[25], nodes[9]),
    ]
    batches = {reach: RiemannProvider(tsys, n, reach=reach).tables(parameters)
               for reach in (4 * h, np.inf)}
    monkeypatch.setattr(rm, "solve_riemann", picard_solve_riemann)
    for reach, batch in batches.items():
        reference = RiemannProvider(tsys, n, reach=reach)
        assert batch[0] is batch[7]
        for parameter, tab in zip(parameters, batch):
            assert _same_table(tab, reference.table(parameter)), (reach, parameter)
        shapes = {tab.values.shape for tab in batch}
        assert len(shapes) >= (5 if reach < np.inf else 2)
        assert len(shapes) < len(set(tab.parameter for tab in batch))
    assert (n + 1, n + 1) in {tab.values.shape for tab in batches[np.inf]}


@pytest.mark.parametrize("reach", [4 * 2 * 0.5 / 32, np.inf])
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
    batch = RiemannProvider(tsys, n, tol, reach).tables(parameters)
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
    prov = RiemannProvider(tsys, 33, reach=4 / 32)
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
    prov = RiemannProvider(tsys, 257, tol=1e-12)
    traces = cauchy_traces_from_w(
        tsys,
        lambda s, t: hyperbolic_bessel_series(np.asarray(s) * np.asarray(t)),
        lambda s, t: hyperbolic_bessel_series_d(np.asarray(s) * np.asarray(t)) * np.asarray(t),
        lambda s, t: hyperbolic_bessel_series_d(np.asarray(s) * np.asarray(t)) * np.asarray(s),
        257,
    )
    assert np.max(np.abs(traces.phi)) == 0.0
    assert np.max(np.abs(traces.psi)) == 0.0
    grid = np.linspace(-0.5, 0.5, 13)
    targets = [(s, t) for s in grid for t in grid]
    vals = represent_solution(prov, 1.0, traces, targets)
    ref = np.array([hyperbolic_bessel_series(s * t) for s, t in targets])
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
        full = RiemannProvider(tsys, n)
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
    yield pytest.param(tsys, pl.riemann_provider(sc, tsys).n, id="lame_lower_order")
    yield pytest.param(variable_system(), 33, id="plain_variable")


@pytest.mark.parametrize("tsys, n", oracle_cases())
def test_kernels_on_windows_match_the_scalar_oracle(tsys, n):
    # both kernel tables of the ucp stage against the node-by-node path on
    # tables of the whole square
    full = RiemannProvider(tsys, n)
    h = grid_step(full)
    windows = RiemannProvider(tsys, n, reach=4 * h)
    nodes = np.linspace(-tsys.epsilon, tsys.epsilon, n)
    assert np.max(np.abs(windows.table((0.0, 0.0)).values - 1.0)) > 1e-3
    for axis in ("s", "t"):
        k = rm._kernel_table(tsys, windows, axis, nodes, 2 * h)
        ref = scalar_kernel_table(tsys, full, axis, nodes, 2 * h)
        read = ~np.isnan(k)
        assert np.max(np.abs(ref)) > 0.1
        assert np.max(np.abs(k[read] - ref[read])) <= 1e-8
    assert sum(t.values.size for t in windows._cache.values()) < 0.25 * sum(
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
    full = RiemannProvider(tsys, n)
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
    prov = RiemannProvider(tsys, 33)
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
    prov = RiemannProvider(tsys, 33)
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
    n = pl.riemann_provider(sc, tsys).n
    h = 2 * tsys.epsilon / (n - 1)

    def chain_provider():
        return RiemannProvider(tsys, n, sc.tolerances.picard_tol, rm._CHAIN_REACH * h)

    windows = chain_provider()
    nodes = np.linspace(-tsys.epsilon, tsys.epsilon, n)
    step = rm._CHAIN_STEP * h
    got = [rm._kernel_table(tsys, windows, axis, nodes, step) for axis in ("s", "t")]
    monkeypatch.setattr(rm, "solve_riemann", picard_solve_riemann)
    reference = chain_provider()
    want = [value_kernel_table(tsys, reference, axis, nodes, step) for axis in ("s", "t")]
    for k, ref in zip(got, want):
        assert np.nanmax(np.abs(ref)) > 0.01
        assert k.tobytes() == ref.tobytes()
    assert windows._cache.keys() == reference._cache.keys()
    assert all(_same_table(windows._cache[key], tab) for key, tab in reference._cache.items())
