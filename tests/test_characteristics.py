import dataclasses
import traceback
from collections import Counter

import numpy as np
import pytest
from helpers import random_elliptic_tensor, trace_family

from ucp2d import characteristics as ch
from ucp2d.characteristics import (
    CASE_A1112,
    CASE_A1222,
    CASE_IDENTITY,
    MapError,
    build_map,
    second_derivative_matrix,
    transfer_point_data,
    transform_system,
)
from ucp2d.cli import load_scenario, scenario_dir
from ucp2d.fields import EvalDomainError, FieldGroup, parse
from ucp2d.geometry import Rect
from ucp2d.pipeline import complete_second_derivatives
from ucp2d.reduction import reduce_system
from ucp2d.tensors import ElasticityCoefficients

REGION = Rect.square(0.0, 0.0, 0.3)


def tensor(**kw):
    comp = {k: 0.0 for k in ("a1111", "a1112", "a1122", "a1212", "a1222", "a2222")}
    lower = {}
    for key, val in kw.items():
        if key in comp:
            comp[key] = val
        else:
            lower[key] = val
    return ElasticityCoefficients.from_components(comp, lower_order=lower)


EX41B = tensor(a1111=100.0, a2222=100.0, a1212=2.0, a1122=4.0, a1112=2.0, a1222=3.0)


def manufactured_variable_tensor():
    """Hyperbolic equation with slope roots 1 + 0.1y and -(1 + 0.3x).

    Leading coefficient 1 forces h11 = 0.3x - 0.1y and
    h02 = -(1 + 0.3x)(1 + 0.1y); both characteristic families then have
    closed-form traces, giving an independent oracle for the traced map.
    """
    return ElasticityCoefficients.from_components(
        {
            "a1111": 10.0,
            "a1112": "1",
            "a1212": "5",
            "a1122": "0.3*x - 0.1*y - 5",
            "a1222": "-(1 + 0.3*x)*(1 + 0.1*y)",
            "a2222": 10.0,
        }
    )


def exact_variable_map(x, y):
    """Closed-form (s, t) for the manufactured tensor, base point (0,0)."""
    s = 10.0 * (1 + 0.1 * y) * np.exp(x / 10.0) - 10.0
    t = y - x - 0.15 * x**2
    return s, t


# -- slope classification -----------------------------------------------


def _linear_jacobian(sys):
    """The case and the base-point Jacobian ``(sx, tx, sy, ty)`` of the
    linear map of the constant ``sys`` on REGION: ``(m-, m+, 1, 1)`` in
    the generic case, ``(1, 1, r-, r+)`` in the mirrored one."""
    cmap = build_map(sys, REGION, 0.0, 0.0)
    assert cmap.linear
    return cmap.case, cmap.jacobian(0.0, 0.0)


def test_slopes_constant_lame_identity_case():
    sys = reduce_system(ElasticityCoefficients.isotropic(1.0, 1.0))
    case, jac = _linear_jacobian(sys)
    assert case == CASE_IDENTITY and jac == (1.0, 0.0, 0.0, 1.0)


def test_slopes_counterexample_b():
    sys = reduce_system(EX41B)
    case, (m_minus, m_plus, sy, ty) = _linear_jacobian(sys)
    assert case == CASE_A1112 and (sy, ty) == (1.0, 1.0)
    rt = np.sqrt(12.0)
    assert m_minus == pytest.approx(-(6 - rt) / 4, abs=1e-14)
    assert m_plus == pytest.approx(-(6 + rt) / 4, abs=1e-14)
    for m in (m_minus, m_plus):
        assert abs(2 * m**2 + 6 * m + 3) <= 1e-12


def test_slopes_mirrored_case():
    sys = reduce_system(tensor(a1212=3.0, a1222=1.0, a2222=1.0))
    # h = (0, 3, 1): the mirrored quadratic r^2 + 3r + 0 has roots 0, -3
    case, (sx, tx, r_minus, r_plus) = _linear_jacobian(sys)
    assert case == CASE_A1222 and (sx, tx) == (1.0, 1.0)
    rt = 3.0
    assert r_minus == pytest.approx(-(3 - rt) / 2, abs=1e-14)
    assert r_plus == pytest.approx(-(3 + rt) / 2, abs=1e-14)


def test_slopes_require_hyperbolicity():
    sys = reduce_system(ElasticityCoefficients.isotropic(1.0, -1.0))
    with pytest.raises(MapError):
        build_map(sys, REGION, 0.0, 0.0)


# -- map construction ----------------------------------------------------


def test_identity_map_shifted_to_base_point():
    sys = reduce_system(ElasticityCoefficients.isotropic(1.0, 1.0))
    cmap = build_map(sys, Rect.square(0.1, -0.2, 0.3), 0.1, -0.2)
    assert cmap.case == CASE_IDENTITY and cmap.linear
    s, t = cmap.forward(0.25, -0.1)
    assert s == pytest.approx(0.15, abs=1e-15)
    assert t == pytest.approx(0.1, abs=1e-15)
    assert np.allclose(cmap.jacobian(0.0, 0.0), [1.0, 0.0, 0.0, 1.0])  # (sx, tx, sy, ty)
    assert abs(cmap.forward(0.1, -0.2)[0]) + abs(cmap.forward(0.1, -0.2)[1]) <= 1e-12


def test_linear_map_satisfies_slope_quadratic():
    sys = reduce_system(EX41B)
    cmap = build_map(sys, REGION, 0.0, 0.0)
    assert cmap.case == CASE_A1112 and cmap.linear
    sx, tx, sy, ty = cmap.jacobian(0.2, -0.1)
    for m in (sx / sy, tx / ty):
        assert abs(2 * m**2 + 6 * m + 3) <= 1e-12
    sx, tx, sy, ty = cmap.jacobian(0.0, 0.0)
    assert sx * ty - tx * sy != 0.0
    s, t = cmap.forward(0.07, -0.04)
    x, y = cmap.inverse(s, t)
    assert x == pytest.approx(0.07, abs=1e-13)
    assert y == pytest.approx(-0.04, abs=1e-13)


def test_mirrored_linear_map_orientation():
    sys = reduce_system(tensor(a1212=3.0, a1222=1.0, a2222=1.0))
    cmap = build_map(sys, REGION, 0.0, 0.0)
    assert cmap.case == CASE_A1222
    sx, tx, sy, ty = cmap.jacobian(0.0, 0.0)
    for r in (sy / sx, ty / tx):
        assert abs(r**2 + 3 * r + 0.0) <= 1e-12
    assert abs(sx * ty - tx * sy) > 0


def test_traced_map_matches_closed_form():
    sys = reduce_system(manufactured_variable_tensor())
    cmap = build_map(sys, REGION, 0.0, 0.0)
    assert cmap.case == CASE_A1112 and not cmap.linear
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.1, 0.1, size=(12, 2))
    for x, y in pts:
        s, t = cmap.forward(x, y)
        s_ref, t_ref = exact_variable_map(x, y)
        assert s == pytest.approx(s_ref, abs=1e-6)
        assert t == pytest.approx(t_ref, abs=1e-6)
    # vectorised evaluation agrees with pointwise
    s_vec, t_vec = cmap.forward(pts[:, 0], pts[:, 1])
    s_ref, t_ref = exact_variable_map(pts[:, 0], pts[:, 1])
    assert np.allclose(s_vec, s_ref, atol=1e-6)
    assert np.allclose(t_vec, t_ref, atol=1e-6)


def test_traced_map_jacobian_closed_form_and_fd():
    sys = reduce_system(manufactured_variable_tensor())
    cmap = build_map(sys, REGION, 0.0, 0.0)
    x, y = 0.08, -0.06
    sx, tx, sy, ty = cmap.jacobian(x, y)
    assert sy == pytest.approx(np.exp(x / 10), rel=1e-8)
    assert sx == pytest.approx((1 + 0.1 * y) * np.exp(x / 10), rel=1e-8)
    assert ty == pytest.approx(1.0, rel=1e-8)
    assert tx == pytest.approx(-(1 + 0.3 * x), rel=1e-8)
    # independent cross-check: difference the traced forward map
    h = 1e-6
    s_px, t_px = cmap.forward(x + h, y)
    s_mx, t_mx = cmap.forward(x - h, y)
    s_py, t_py = cmap.forward(x, y + h)
    s_my, t_my = cmap.forward(x, y - h)
    assert (s_px - s_mx) / (2 * h) == pytest.approx(sx, rel=1e-6)
    assert (t_px - t_mx) / (2 * h) == pytest.approx(tx, rel=1e-6)
    assert (s_py - s_my) / (2 * h) == pytest.approx(sy, rel=1e-6)
    assert (t_py - t_my) / (2 * h) == pytest.approx(ty, rel=1e-6)


def test_traced_map_second_derivatives_closed_form():
    sys = reduce_system(manufactured_variable_tensor())
    cmap = build_map(sys, REGION, 0.0, 0.0)
    x, y = 0.05, 0.02
    sxx, sxy, syy, txx, txy, tyy = cmap.second_derivatives(x, y)
    assert sxx == pytest.approx((1 + 0.1 * y) * np.exp(x / 10) / 10, abs=1e-12)
    assert sxy == pytest.approx(0.1 * np.exp(x / 10), abs=1e-12)
    assert syy == pytest.approx(0.0, abs=1e-12)
    assert txx == pytest.approx(-0.3, abs=1e-12)
    assert txy == pytest.approx(0.0, abs=1e-12)
    assert tyy == pytest.approx(0.0, abs=1e-12)


def test_traced_map_normalisation_and_inverse():
    sys = reduce_system(manufactured_variable_tensor())
    cmap = build_map(sys, REGION, 0.0, 0.0)
    s0, t0 = cmap.forward(0.0, 0.0)
    assert abs(s0) + abs(t0) <= 1e-12
    rng = np.random.default_rng(1)
    st = rng.uniform(-0.08, 0.08, size=(8, 2))
    x, y = cmap.inverse(st[:, 0], st[:, 1])
    s_back, t_back = cmap.forward(x, y)
    assert np.allclose(s_back, st[:, 0], atol=1e-9)
    assert np.allclose(t_back, st[:, 1], atol=1e-9)


def test_traced_inverse_raises_when_newton_does_not_converge(monkeypatch):
    cmap = build_map(reduce_system(manufactured_variable_tensor()), REGION, 0.0, 0.0)
    monkeypatch.setattr(ch, "_NEWTON_STEPS", 1)
    with pytest.raises(MapError, match="did not converge in 1 Newton steps"):
        cmap.inverse(0.05, 0.02)


def _count_traces(monkeypatch):
    # every run of a trace loop, of the first variation or of the second, as
    # the number of families it follows: 1 for the four-stage loop, 2 for the
    # Simpson loop of a slope-only pair.  Curves of zero length (the base
    # point's) are not traced, so they run no loop
    calls = []
    trace_family, trace_slopes = ch._trace_family, ch._trace_slopes

    def counted(slope, *args):
        calls.append(1)
        return trace_family(slope, *args)

    def counted_slopes(slopes, *args):
        calls.append(len(slopes.fields))
        return trace_slopes(slopes, *args)

    monkeypatch.setattr(ch, "_trace_family", counted)
    monkeypatch.setattr(ch, "_trace_slopes", counted_slopes)
    return calls


def test_traced_inverse_traces_each_curve_once_per_newton_step(monkeypatch):
    def fresh_map():
        return build_map(reduce_system(manufactured_variable_tensor()), REGION, 0.0, 0.0)

    s, t = np.array([0.05, -0.04, 0.0]), np.array([0.02, 0.06, -0.07])
    steps = 1  # the fewest Newton steps the inversion needs
    while True:
        monkeypatch.setattr(ch, "_NEWTON_STEPS", steps)
        try:
            expected = fresh_map().inverse(s, t)
            break
        except MapError:
            steps += 1
    monkeypatch.undo()
    cmap = fresh_map()
    calls = _count_traces(monkeypatch)
    got = cmap.inverse(s, t)
    assert steps > 1
    assert len(calls) == 2 * steps  # both families per step; the base point has zero length
    again = cmap.inverse(s, t)
    assert len(calls) == 4 * steps
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))
    assert all(np.array_equal(a, b) for a, b in zip(again, expected))


def test_jet_traces_each_family_once(monkeypatch):
    cmap = build_map(reduce_system(manufactured_variable_tensor()), REGION, 0.0, 0.0)
    calls = _count_traces(monkeypatch)
    x, y = np.array([0.05, -0.1, 0.0]), np.array([[0.02], [-0.07]])
    jac, second = cmap.jet(x, y)
    assert len(calls) == 2  # one trace of each family
    assert all(np.shape(d) == (2, 3) for d in jac + second)
    point_jac, point_second = cmap.jet(0.05, 0.02)
    assert len(calls) == 4
    assert all(isinstance(d, float) for d in point_jac + point_second)
    # one point gives the same bits whatever else is traced with it
    assert [d[0, 0] for d in jac + second] == list(point_jac + point_second)
    # the jet's Jacobian is the first-variation Jacobian, bit for bit
    assert all(np.array_equal(a, b) for a, b in zip(jac, cmap.jacobian(x, y)))
    base = cmap.base_jet()
    assert base == cmap.jet(0.0, 0.0) and cmap.base_jet() is base


def test_transformed_coefficients_differentiate_the_map_once_per_grid(monkeypatch):
    sys = reduce_system(manufactured_variable_tensor())
    cmap = build_map(sys, REGION, 0.0, 0.0)
    counts = {"jacobian": 0, "second_derivatives": 0, "jet": 0}

    def counted(name):
        fn = getattr(cmap, name)

        def call(x, y):
            counts[name] += 1
            return fn(x, y)

        return call

    cmap = dataclasses.replace(cmap, **{name: counted(name) for name in counts})
    tsys = transform_system(sys, cmap, REGION)
    counts.update(dict.fromkeys(counts, 0))
    u = np.linspace(-tsys.epsilon, tsys.epsilon, 5)
    sg, tg = np.meshgrid(u, u, indexing="ij")
    for name in ("b11", "b12", "c1", "a11", "a12", "a22", "b21", "b22", "c2"):
        getattr(tsys, name)(sg, tg)
    assert counts == {"jacobian": 0, "second_derivatives": 0, "jet": 1}


def test_transform_system_reuses_the_probe_pullback(monkeypatch):
    # the probe grid is pulled back once, by _choose_epsilon; the normal
    # form check there needs the Jacobian only, one trace of each family
    sys = reduce_system(manufactured_variable_tensor())
    cmap = build_map(sys, REGION, 0.0, 0.0)
    callers = Counter()
    trace = ch._trace_family

    def counted(slope, *args):
        if len(slope.fields) == 2:  # a trace of the first variation
            names = [f.name for f in traceback.extract_stack()]
            callers[next(n for n in reversed(names)
                         if n in ("_choose_epsilon", "transform_system"))] += 1
        return trace(slope, *args)

    monkeypatch.setattr(ch, "_trace_family", counted)
    transform_system(sys, cmap, REGION)
    assert callers["transform_system"] == 2
    assert callers["_choose_epsilon"] > 2


def test_transformed_coefficients_keep_every_queried_grid():
    # a grid queried again after 70 other points is not pulled back again
    sc = load_scenario(scenario_dir() / "lame_lower_order.json")
    sys = reduce_system(sc.coefficients)
    cmap = build_map(sys, sc.omega, *sc.point)
    calls = []

    def counted(s, t, inverse=cmap.inverse):
        calls.append((s, t))
        return inverse(s, t)

    tsys = transform_system(sys, dataclasses.replace(cmap, inverse=counted), sc.omega)
    u = np.linspace(-tsys.epsilon, tsys.epsilon, 5)
    sg, tg = np.meshgrid(u, u, indexing="ij")
    tsys.a11(sg, tg)
    for s in np.linspace(-tsys.epsilon, tsys.epsilon, 70):
        tsys.b21(s, 0.0)
    calls.clear()
    tsys.c2(sg, tg)
    assert calls == []


def _lame_traced():
    sc = load_scenario(scenario_dir() / "lame_traced.json")
    sys = reduce_system(sc.coefficients)
    return sc, sys, build_map(sys, sc.omega, *sc.point)


def _leaves(value):
    return [leaf for part in value for leaf in (_leaves(part) if isinstance(part, tuple)
                                                 else [part])]


@pytest.mark.parametrize("which", ["ex41b", "mirrored", "lame_traced"])
def test_every_evaluator_follows_one_shape_rule(which):
    # floats and 0-d arrays give floats, arrays give their broadcast shape,
    # and each entry has the bits of a scalar call at its point; inverse's
    # Newton stop is global over the batch, so its entries agree to 1e-12
    if which == "lame_traced":
        cmap = _lame_traced()[2]
    else:
        coeffs = EX41B if which == "ex41b" else tensor(a1212=3.0, a1222=1.0, a2222=1.0)
        cmap = build_map(reduce_system(coeffs), REGION, 0.0, 0.0)
    assert cmap.linear == (which != "lame_traced")
    u, v = np.array([0.03, -0.02, 0.01]), np.array([[-0.01], [0.02]])
    for name in ("forward", "jacobian", "second_derivatives", "jet", "inverse"):
        evaluate = getattr(cmap, name)
        for a, b in [(u, u[::-1]), (v, u)]:  # shapes (3,) and (2, 3)
            got = _leaves(evaluate(a, b))
            a, b = np.broadcast_arrays(a, b)
            assert all(np.shape(d) == a.shape for d in got)
            want = []
            for p, q in zip(a.ravel(), b.ravel()):
                want.append(_leaves(evaluate(float(p), float(q))))
                assert all(type(d) is float for d in want[-1])
                assert _leaves(evaluate(np.array(p), np.array(q))) == want[-1]
            got, want = np.array([np.ravel(d) for d in got]), np.array(want).T
            if name == "inverse":
                assert np.allclose(got, want, rtol=0.0, atol=1e-12)
            else:
                assert got.tobytes() == want.tobytes()


def test_transformed_coefficients_keep_grids_of_equal_bits_and_other_shapes_apart():
    sc, sys, cmap = _lame_traced()
    tsys = transform_system(sys, cmap, sc.omega)
    u = np.linspace(-tsys.epsilon, tsys.epsilon, 5)
    sg, tg = np.meshgrid(u, u, indexing="ij")
    assert tsys.a22(sg, tg).shape == (5, 5)
    flat = tsys.a22(sg.ravel(), tg.ravel())
    assert flat.shape == (25,)
    assert np.array_equal(flat, tsys.a22(sg, tg).ravel())
    assert isinstance(tsys.b12(0.0, 0.0), float)
    one = tsys.b12(np.zeros(1), np.zeros(1))
    assert isinstance(one, np.ndarray) and one.shape == (1,)


def test_origin_coefficients_are_those_of_the_pulled_back_origin():
    # the origin's entry comes from the base jet with no pullback, and has
    # the bits that pulling (0, 0) back and taking the jet there gives
    names = ("b11", "b12", "c1", "a11", "a12", "a22", "b21", "b22", "c2")
    calls = []

    def counted(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)

        return call

    for coeffs in (manufactured_variable_tensor(), EX41B):
        sys = reduce_system(coeffs)
        cmap = build_map(sys, REGION, 0.0, 0.0)
        cmap = dataclasses.replace(cmap, **{k: counted(k, getattr(cmap, k))
                                            for k in ("inverse", "jet")})
        tsys = transform_system(sys, cmap, REGION)
        calls.clear()
        origin = [getattr(tsys, k)(0.0, 0.0) for k in names]
        assert calls == []
        pulled = [getattr(tsys, k)(np.zeros(1), np.zeros(1)) for k in names]
        assert calls == ["inverse", "jet"]
        assert [np.float64(v).tobytes() for v in origin] == [p.tobytes() for p in pulled]


def test_choose_epsilon_skips_a_square_whose_reference_segment_leaves_omega(monkeypatch):
    # on lame_traced (omega of halfwidth 0.3) the 0.5 square's segment x = 0,
    # |y| <= 0.5 leaves omega, so it is passed over without a trace
    sc, sys, cmap = _lame_traced()
    inverses = []

    def counted(s, t, inverse=cmap.inverse):
        inverses.append(np.shape(s))
        return inverse(s, t)

    calls = _count_traces(monkeypatch)
    eps, x, y = ch._choose_epsilon(sys, dataclasses.replace(cmap, inverse=counted), sc.omega)
    assert eps == 0.25 and inverses == [(81,)]
    chosen = len(calls)
    u = np.linspace(-1.0, 1.0, ch._N_SAMPLE)
    su, tu = np.meshgrid(u, u, indexing="ij")
    x_ref, y_ref = cmap.inverse(su.ravel() * 0.25, tu.ravel() * 0.25)
    # the same Newton solve, one trace of both families per step
    assert set(calls) == {2} and len(calls) == 2 * chosen
    assert x.tobytes() == x_ref.tobytes() and y.tobytes() == y_ref.tobytes()


@pytest.mark.parametrize("h", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 2.0),
                               (1e-14, 1.0, 2.0), (3.0, 2.0, 1e-15), (0.0, -1.0, 1e-30)])
def test_case_rule_agrees_on_a_point_and_a_constant_grid(h):
    grid = [np.full((3, 3), v) for v in h]
    assert ch._case(*h) == ch._case(*grid)


MIRRORED_TENSOR = {
    "a1111": 10.0,
    "a1112": "0",
    "a1212": "5",
    "a1122": "0.3*y - 0.1*x - 3",
    "a1222": "1 + 0.2*sin(3*x)",
    "a2222": 10.0,
}
TRACE_BOUNDS = ((-0.6, 0.6), (-0.6, 0.6))


def _loop_start(x0, y0, mirrored, x, y):
    """``(a0, b0, span, ref)`` as a map's trace hands them to either loop:
    the flattened start in tracing order, the span to the reference line
    and b's value there, after the start check the trace makes."""
    x, y = (np.ravel(v) for v in np.broadcast_arrays(np.asarray(x, dtype=float),
                                                     np.asarray(y, dtype=float)))
    (a0, b0), (a_ref, ref) = ((y, x), (y0, x0)) if mirrored else ((x, y), (x0, y0))
    ch._check(TRACE_BOUNDS, b0, np.append(a0, a_ref))
    return a0, b0, a_ref - a0, ref


def _four_stage(slope, x0, y0, mirrored, x, y):
    """The four-stage loop on the group ``slope``, as ``trace_family``
    returns it: ``(value, v[, w])``."""
    a0, b0, span, ref = _loop_start(x0, y0, mirrored, x, y)
    b, *rest = ch._trace_family(slope, a0, b0, span, TRACE_BOUNDS, mirrored)
    return (b - ref, *rest)


def _simpson(slopes, x0, y0, mirrored, x, y):
    """The Simpson loop on the group ``slopes``: the value of each family."""
    a0, b0, span, ref = _loop_start(x0, y0, mirrored, x, y)
    return [b - ref for b in ch._trace_slopes(slopes, a0, b0, span, TRACE_BOUNDS, mirrored)]


def _loops(m, mirrored):
    """Each loop that traces the family of a slope ``m`` not reading b: the
    four-stage loop of the first and of the second variation, and Simpson's."""
    first, second = ch._variation_groups(m, "x" if mirrored else "y")
    return [(_four_stage, first), (_four_stage, second), (_simpson, FieldGroup(m))]


def test_lame_traced_tracers_compile_no_steps_for_slope_derivatives_that_are_zero():
    # m does not depend on y on lame_traced (h02 = 0 enters only as a
    # factor 0), so dm/dy and d2m/dy2 are the literal 0 and cost no step
    sc, sys, cmap = _lame_traced()
    assert cmap.case == CASE_A1112
    for m in ch._slope_fields(sys, cmap.case):
        first, second = (group._program[1] for group in ch._variation_groups(m, "y"))
        k = len(first[0])
        assert k > 0 and [len(s) for s in first] == [k, 0]
        assert [len(s) for s in second] == [k, 0, 0]
    # a slope that depends on y keeps its derivative programs
    m = ch._slope_fields(reduce_system(manufactured_variable_tensor()), CASE_A1112)[0]
    first, second = (group._program[1] for group in ch._variation_groups(m, "y"))
    assert all(first) and all(second)


def test_tracer_integrating_b_alone_matches_the_evaluate_oracle_bit_for_bit():
    # the Simpson loop on lame_traced's slopes gives the oracle's b, and the
    # oracle's v and w keep their start, as its RK4 steps, which add
    # span * (+-0) to them, leave them
    sc, sys, cmap = _lame_traced()
    rng = np.random.default_rng(3)
    # the second batch mixes a curve of zero length with another
    points = [(0.04, -0.03), (np.array([0.0, 0.04]), np.array([0.02, 0.0])),
              (rng.uniform(-0.04, 0.04, 7), rng.uniform(-0.05, 0.05, (3, 1)))]
    slopes = ch._slope_fields(sys, cmap.case)
    for x, y in points:
        got = _simpson(FieldGroup(*slopes), *sc.point, False, x, y)
        assert len(got) == 2
        for m, value in zip(slopes, got):
            oracle = trace_family(m, *sc.point, TRACE_BOUNDS, False, x, y)
            assert value.tobytes() == oracle[0].tobytes()
            assert oracle[1].tobytes() == np.ones_like(value).tobytes()
            assert oracle[2].tobytes() == np.zeros_like(value).tobytes()


@pytest.mark.parametrize("coeffs, case", [
    (manufactured_variable_tensor(), CASE_A1112),
    (ElasticityCoefficients.from_components(MIRRORED_TENSOR), CASE_A1222),
])
def test_tracer_matches_the_evaluate_oracle_bit_for_bit(coeffs, case):
    sys = reduce_system(coeffs)
    mirrored = case == CASE_A1222
    rng = np.random.default_rng(5)
    # the third batch holds a point of the generic and one of the mirrored
    # reference line, where the curve has zero length
    points = [(0.07, -0.08), (np.float64(-0.1), 0.0),
              (np.array([0.01, 0.05]), np.array([0.05, -0.02])),
              (rng.uniform(-0.1, 0.1, 7), rng.uniform(-0.1, 0.1, (3, 1)))]
    for m in ch._slope_fields(sys, case):
        groups = ch._variation_groups(m, "x" if mirrored else "y")
        for x, y in points:
            oracle = trace_family(m, 0.01, -0.02, TRACE_BOUNDS, mirrored, x, y)
            first, second = (_four_stage(g, 0.01, -0.02, mirrored, x, y) for g in groups)
            assert len(first) == 2 and len(second) == 3
            for got in (first, second):
                for a, b in zip(got, oracle):
                    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mirrored", [False, True])
def test_slope_turning_non_finite_mid_trace_raises_the_oracle_error(mirrored):
    # the slope is 0 until its exponential overflows mid-trace (below 0.06
    # on curves traced from 0.3 and 0.25 to 0.01) and 0 * inf turns it
    # non-finite
    m = parse("0*exp(8000*(0.14 - x))" if not mirrored else "0*exp(8000*(0.14 - y))")
    x, y = np.array([0.3, 0.25]), np.array([0.1, 0.0])
    if mirrored:
        x, y = y, x
    with pytest.raises(EvalDomainError) as want:
        trace_family(m, 0.01, 0.01, TRACE_BOUNDS, mirrored, x, y)
    for loop, group in _loops(m, mirrored):
        with pytest.raises(EvalDomainError) as got:
            loop(group, 0.01, 0.01, mirrored, x, y)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("non-finite value in '0*exp(8000*")


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize("start, slope", [
    ((0.3, 0.1), "20"),  # b leaves the box mid-trace
    ((0.3, float("nan")), "20"),  # NaN in b passes the bound, as in the oracle
    ((0.9, 0.1), "0"),  # a starts outside the box
])
def test_escaping_curves_raise_the_oracle_error(mirrored, start, slope):
    # a is checked at the ends of the trace only, b at every step
    m = parse(slope)
    x, y = np.array([start[0], 0.02]), np.array([start[1], 0.0])
    if mirrored:
        x, y = y, x
    try:
        want = trace_family(m, 0.01, 0.01, TRACE_BOUNDS, mirrored, x, y)
    except MapError as err:
        want = err
    for loop, group in _loops(m, mirrored):
        if isinstance(want, MapError):
            with pytest.raises(MapError, match=str(want)):
                loop(group, 0.01, 0.01, mirrored, x, y)
        else:
            assert loop(group, 0.01, 0.01, mirrored, x, y)[0].tobytes() == want[0].tobytes()


# a mirrored tensor whose coefficients depend on y alone, so neither slope
# reads b = x and both families are traced in one loop
MIRRORED_SLOPE_ONLY = dict(MIRRORED_TENSOR, a1122="0.3*y - 3", a1222="1 + 0.2*sin(3*y)")


def _oracle_map(sys, region, x0, y0):
    """The map of ``sys`` with every trace ``trace_family``'s, one family
    at a time: each evaluator runs with both trace loops replaced."""

    def family(m, a0, b0, bounds, mirrored, order):
        # trace_family gives b less its value on the reference line; with
        # that line moved to b = 0 it gives b itself, bit for bit
        x, y = (b0, a0) if mirrored else (a0, b0)
        line = (0.0, y0) if mirrored else (x0, 0.0)
        return list(trace_family(m, *line, bounds, mirrored, x, y)[:order + 1])

    def trace_one(slope, a0, b0, span, bounds, mirrored):
        return family(slope.fields[0], a0, b0, bounds, mirrored, len(slope.fields) - 1)

    def trace_each(slopes, a0, b0, span, bounds, mirrored):
        return [family(m, a0, b0, bounds, mirrored, 0)[0] for m in slopes.fields]

    def traced_by_oracle(evaluate):
        def call(*args):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ch, "_trace_family", trace_one)
                patch.setattr(ch, "_trace_slopes", trace_each)
                return evaluate(*args)

        return call

    cmap = build_map(sys, region, x0, y0)
    return dataclasses.replace(cmap, **{name: traced_by_oracle(getattr(cmap, name))
                                        for name in ("forward", "jacobian", "jet", "inverse")})


def _same_bits(got, want):
    if isinstance(want, tuple):
        return len(got) == len(want) and all(_same_bits(g, w) for g, w in zip(got, want))
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


@pytest.mark.parametrize("scenario", ["lame_traced", "mirrored", "manufactured",
                                      "mirrored_tensor"])
def test_pair_trace_matches_the_evaluate_oracle_bit_for_bit(monkeypatch, scenario):
    # lame_traced and the mirrored slope-only tensor trace both families in
    # the Simpson loop; the other two trace each in the four-stage loop
    if scenario == "lame_traced":
        sc, sys, _ = _lame_traced()
        region, (x0, y0), case = sc.omega, sc.point, CASE_A1112
    else:
        coeffs, case = {
            "mirrored": (ElasticityCoefficients.from_components(MIRRORED_SLOPE_ONLY), CASE_A1222),
            "manufactured": (manufactured_variable_tensor(), CASE_A1112),
            "mirrored_tensor": (ElasticityCoefficients.from_components(MIRRORED_TENSOR),
                                CASE_A1222),
        }[scenario]
        sys, region, (x0, y0) = reduce_system(coeffs), REGION, (0.01, -0.02)
    slope_only = scenario in ("lame_traced", "mirrored")
    mirrored = case == CASE_A1222
    slopes = ch._slope_fields(sys, case)
    assert all(m.diff("x" if mirrored else "y").is_zero() == slope_only for m in slopes)
    oracle = _oracle_map(sys, region, x0, y0)
    cmap = build_map(sys, region, x0, y0)
    assert (cmap.case, oracle.case, cmap.linear) == (case, case, False)
    rng = np.random.default_rng(7)
    # the second and third points lie on the reference line, where the
    # curves have zero length; the last array mixes such points with others
    on_line = (x0, 0.02) if case == CASE_A1112 else (0.02, y0)
    line = np.array([x0, 0.05, x0]) if case == CASE_A1112 else np.array([y0, 0.05, y0])
    points = [(0.04, -0.03), on_line, (x0, y0),
              (rng.uniform(-0.05, 0.05, 7), rng.uniform(-0.05, 0.05, (3, 1))),
              (line, np.array([0.03, -0.02, 0.0])) if case == CASE_A1112
              else (np.array([0.03, -0.02, 0.0]), line)]
    calls = _count_traces(monkeypatch)
    for x, y in points:
        for name in ("forward", "jacobian", "jet"):
            assert _same_bits(getattr(cmap, name)(x, y), getattr(oracle, name)(x, y)), name
        # curves of zero length run no loop of either map: the shortcut too
        # has the oracle's bits
        for value, m in zip(cmap.forward(x, y), slopes):
            want = trace_family(m, x0, y0, TRACE_BOUNDS, mirrored, x, y)[0]
            assert np.ravel(value).tobytes() == want.tobytes()
    for s, t in [(0.03, -0.02), (0.0, 0.0),
                 (rng.uniform(-0.05, 0.05, 5), rng.uniform(-0.05, 0.05, (2, 1)))]:
        assert _same_bits(cmap.inverse(s, t), oracle.inverse(s, t))
    # the map traced both families together every time, or each alone
    assert calls and set(calls) == ({2} if slope_only else {1})


def _pair_map(monkeypatch, mirrored, m_minus, m_plus, base=(0.01, 0.01)):
    """A traced map at ``base`` on REGION with the slopes ``m_minus`` and
    ``m_plus``, whose ``{a}`` stands for the traced map's independent axis."""
    def field(text):
        return parse(text.format(a="y" if mirrored else "x"))

    monkeypatch.setattr(ch, "_slope_fields", lambda sys, case: (field(m_minus), field(m_plus)))
    return ch._traced_map(CASE_A1222 if mirrored else CASE_A1112, None, *base, REGION)


@pytest.mark.parametrize("mirrored", [False, True])
def test_pair_trace_raises_the_first_error_along_tau(monkeypatch, mirrored):
    # a slope-only pair raises the first error its one loop meets: at each
    # node m- is read before m+, and after each step s's escape is checked
    # before t's.  On curves from x = 0.3 and 0.25 to 0.01, m- turns
    # non-finite below x = 0.0513, near the end of the trace
    m_minus = "0*exp(8000*(0.14 - {a}))"
    x, y = np.array([0.3, 0.25]), np.array([0.1, 0.0])
    if mirrored:
        x, y = y, x
    # t's curve (slope 20) leaves the box at its sixth step, before m- turns
    # non-finite: the map raises the escape, where tracing s alone would
    # meet the non-finite slope
    cmap = _pair_map(monkeypatch, mirrored, m_minus, "20")
    for evaluate in (cmap.forward, cmap.jacobian, cmap.jet):
        with pytest.raises(MapError, match="escapes"):
            evaluate(x, y)
    # m+ turning non-finite earlier along tau (below x = 0.0611) raises its
    # error; turning non-finite at the same nodes as m-, m-'s
    for m_plus, first in [("0*exp(9000*(0.14 - {a}))", "0*exp(9000*"),
                          ("1 + 0*exp(8000*(0.14 - {a}))", "0*exp(8000*")]:
        cmap = _pair_map(monkeypatch, mirrored, m_minus, m_plus)
        for evaluate in (cmap.forward, cmap.jacobian, cmap.jet):
            with pytest.raises(EvalDomainError) as got:
                evaluate(x, y)
            assert str(got.value).startswith(f"non-finite value in '{first}")


def test_choose_epsilon_skips_a_square_whose_pair_trace_escapes(monkeypatch):
    # m- turns non-finite on a band near x = -0.47 only; the 0.25 square's
    # first Newton step traces from x = -0.5 across it, but m+ is so steep
    # there that t's curve escapes in the first step.  The pair trace raises
    # that escape, and _choose_epsilon passes over each square that escapes
    # until the 1/32 square inverts.  EX41B's constant discriminant passes
    # the discriminant check on every square
    cmap = _pair_map(monkeypatch, False, "0*exp(10000000*({a} + 0.48)*(-0.46 - {a}))",
                     "1 + 1000*{a}^2", base=(0.0, 0.0))
    outcomes = []

    def recorded(s, t, inverse=cmap.inverse):
        try:
            got = inverse(s, t)
        except MapError as err:
            outcomes.append(str(err))
            raise
        outcomes.append("inverted")
        return got

    eps, _, _ = ch._choose_epsilon(reduce_system(EX41B),
                                   dataclasses.replace(cmap, inverse=recorded), REGION)
    escapes = "characteristic curve escapes the working region"
    assert eps == 1 / 32 and outcomes == [escapes] * 3 + ["inverted"]


def test_choose_epsilon_skips_a_square_whose_inverse_meets_a_non_finite_slope(monkeypatch):
    # with m+ = 1 the 0.25 square's first Newton trace reaches the band near
    # x = -0.47 where m- is non-finite: that square fails with the domain
    # error, and the 0.125 square inverts
    cmap = _pair_map(monkeypatch, False, "0*exp(10000000*({a} + 0.48)*(-0.46 - {a}))",
                     "1", base=(0.0, 0.0))
    outcomes = []

    def recorded(s, t, inverse=cmap.inverse):
        try:
            got = inverse(s, t)
        except EvalDomainError as err:
            outcomes.append(str(err))
            raise
        outcomes.append("inverted")
        return got

    eps, _, _ = ch._choose_epsilon(reduce_system(EX41B),
                                   dataclasses.replace(cmap, inverse=recorded), REGION)
    assert eps == 0.125 and len(outcomes) == 2 and outcomes[1] == "inverted"
    assert outcomes[0].startswith("non-finite value in '0*exp(10000000*")


def test_choose_epsilon_names_the_last_squares_error_when_every_square_fails():
    sys = reduce_system(EX41B)
    cmap = build_map(sys, REGION, 0.0, 0.0)

    def failing(s, t):
        raise EvalDomainError(f"fails on the square of halfwidth {np.max(s)}")

    with pytest.raises(MapError) as got:
        ch._choose_epsilon(sys, dataclasses.replace(cmap, inverse=failing), REGION)
    assert str(got.value) == ("no admissible square neighbourhood found (the last square: "
                              f"fails on the square of halfwidth {ch._EPS_CANDIDATES[-1]})")


class _CountedGroup:
    """A ``FieldGroup`` stand-in that counts the calls to it."""

    def __init__(self, group):
        self.fields, self.group, self.calls = group.fields, group, 0

    def __call__(self, x, y):
        self.calls += 1
        return self.group(x, y)


@pytest.mark.parametrize("tasks, pairs", [
    (("conditions", "characteristics", "riemann", "ucp"), 19),
    (("characteristics", "riemann"), 11),  # the benchmark's traced scenario
])
def test_lame_traced_run_traces_both_families_in_one_loop(monkeypatch, tasks, pairs):
    # the run makes ``pairs`` traces of both families.  The base jet's
    # curves have zero length and run no loop; each other trace reads both
    # slopes, from one program, at 2 * _RK4_STEPS + 1 nodes, where the
    # four-stage loop made twice as many traces (38 and 22), each of
    # 4 * _RK4_STEPS slope reads
    from ucp2d.pipeline import expectations_for, run

    sc = load_scenario(scenario_dir() / "lame_traced.json")
    sc = dataclasses.replace(sc, tasks=tasks, expect=expectations_for(sc.expect, tasks))
    traces = []
    trace_family, trace_slopes = ch._trace_family, ch._trace_slopes

    def single(slope, *args):
        traces.append("single")
        return trace_family(slope, *args)

    def counted(slopes, *args):
        group = _CountedGroup(slopes)
        try:
            return trace_slopes(group, *args)
        finally:
            traces.append((len(slopes.fields), group.calls))

    monkeypatch.setattr(ch, "_trace_family", single)
    monkeypatch.setattr(ch, "_trace_slopes", counted)
    assert run(sc)[1] == []
    assert traces == [(2, 2 * ch._RK4_STEPS + 1)] * (pairs - 1)
def test_mirrored_traced_map_equals_axis_swapped_generic_map():
    # relabelling the axes (x <-> y, index 1 <-> 2) turns the mirrored
    # parametrisation into the generic one, so s(x, y) = s_swapped(y, x)
    comp = {
        "a1111": 10.0,
        "a1112": "0",
        "a1212": "5",
        "a1122": "0.3*y - 0.1*x - 3",
        "a1222": "1",
        "a2222": 10.0,
    }
    swapped = {
        "a1111": comp["a2222"],
        "a2222": comp["a1111"],
        "a1112": "1",
        "a1222": "0",
        "a1122": "0.3*x - 0.1*y - 3",
        "a1212": "5",
    }
    sys_m = reduce_system(ElasticityCoefficients.from_components(comp))
    sys_g = reduce_system(ElasticityCoefficients.from_components(swapped))
    cmap_m = build_map(sys_m, REGION, 0.0, 0.0)
    cmap_g = build_map(sys_g, REGION, 0.0, 0.0)
    assert cmap_m.case == CASE_A1222
    assert cmap_g.case == CASE_A1112
    assert not cmap_m.linear
    rng = np.random.default_rng(2)
    for x, y in rng.uniform(-0.1, 0.1, size=(6, 2)):
        s_m, t_m = cmap_m.forward(x, y)
        s_g, t_g = cmap_g.forward(y, x)
        assert s_m == pytest.approx(s_g, abs=1e-8)
        assert t_m == pytest.approx(t_g, abs=1e-8)


def test_mirrored_jet_equals_axis_swapped_generic_jet():
    # s_m(x, y) = s_g(y, x), so the swap exchanges sx with sy and sxx with syy
    swapped = dict(MIRRORED_TENSOR, a1112="1 + 0.2*sin(3*y)", a1222="0",
                   a1122="0.3*x - 0.1*y - 3")
    cmap_m = build_map(reduce_system(ElasticityCoefficients.from_components(MIRRORED_TENSOR)),
                       REGION, 0.0, 0.0)
    cmap_g = build_map(reduce_system(ElasticityCoefficients.from_components(swapped)),
                       REGION, 0.0, 0.0)
    assert (cmap_m.case, cmap_g.case) == (CASE_A1222, CASE_A1112)
    assert not (cmap_m.linear or cmap_g.linear)
    x, y = np.array([0.05, -0.08, 0.1]), np.array([0.02, 0.07, -0.03])
    (jac_m, second_m), (jac_g, second_g) = cmap_m.jet(x, y), cmap_g.jet(y, x)
    for i, j in enumerate([2, 3, 0, 1]):
        assert np.allclose(jac_m[i], jac_g[j], rtol=0, atol=1e-12)
    for i, j in enumerate([2, 1, 0, 5, 4, 3]):
        assert np.allclose(second_m[i], second_g[j], rtol=0, atol=1e-12)
    assert np.max(np.abs(second_m[3:])) > 0.1  # the t family's curves bend


def _rotate_tensor(coeffs, angle):
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    a4 = coeffs.a_array(0.0, 0.0)
    a4r = np.einsum("pi,qj,rk,sl,ijkl->pqrs", rot, rot, rot, rot, a4)
    comp = {
        "a1111": a4r[0, 0, 0, 0],
        "a1112": a4r[0, 0, 0, 1],
        "a1122": a4r[0, 0, 1, 1],
        "a1212": a4r[0, 1, 0, 1],
        "a1222": a4r[0, 1, 1, 1],
        "a2222": a4r[1, 1, 1, 1],
    }
    return ElasticityCoefficients.from_components(comp), rot


def test_rotated_tensor_slopes_satisfy_their_own_quadratic():
    # the reduction pins a component, so its characteristics are not
    # rotation images of the original ones; the defining quadratic of
    # the rotated tensor is still the binding contract
    rotated, _ = _rotate_tensor(EX41B, np.pi / 6)
    sys1 = reduce_system(rotated)
    h20 = sys1.hyper.c20(0, 0)
    h11 = sys1.hyper.c11(0, 0)
    h02 = sys1.hyper.c02(0, 0)
    case, (m_minus, m_plus, _, _) = _linear_jacobian(sys1)
    assert case == CASE_A1112
    for m in (m_minus, m_plus):
        assert abs(h20 * m**2 + h11 * m + h02) <= 1e-10


def test_isotropic_tensor_is_rotation_invariant():
    iso = ElasticityCoefficients.isotropic(1.0, 1.0)
    rotated, _ = _rotate_tensor(iso, np.pi / 6)
    for name in ("a1111", "a1112", "a1122", "a1212", "a1222", "a2222"):
        assert getattr(rotated, name)(0, 0) == pytest.approx(
            getattr(iso, name)(0, 0), abs=1e-12
        )


# -- transformed system --------------------------------------------------


def test_transform_orthotropic_passthrough():
    t = ElasticityCoefficients.isotropic(1.0, 1.0)
    t = ElasticityCoefficients.from_components(
        {
            "a1111": 3.0, "a1112": 0.0, "a1122": 1.0,
            "a1212": 1.0, "a1222": 0.0, "a2222": 3.0,
        },
        lower_order={"b121": "x", "b122": "y", "c12": "x*y",
                     "b221": "1 + x", "b222": "y^2", "c22": "2"},
    )
    sys = reduce_system(t)
    cmap = build_map(sys, REGION, 0.0, 0.0)
    tsys = transform_system(sys, cmap, REGION)
    s, tt = 0.1, -0.2
    assert tsys.b11(s, tt) == pytest.approx(s / 2)        # b121/(a1212+a1122)
    assert tsys.b12(s, tt) == pytest.approx(tt / 2)
    assert tsys.c1(s, tt) == pytest.approx(s * tt / 2)
    assert tsys.a11(s, tt) == pytest.approx(1.0)
    assert tsys.a12(s, tt) == pytest.approx(0.0)
    assert tsys.a22(s, tt) == pytest.approx(3.0)
    assert tsys.b21(s, tt) == pytest.approx(1 + s)
    assert tsys.b22(s, tt) == pytest.approx(tt**2)
    assert tsys.c2(s, tt) == pytest.approx(2.0)


def test_transform_constant_lame_elliptic_block():
    sys = reduce_system(ElasticityCoefficients.isotropic(1.0, 1.0))
    cmap = build_map(sys, REGION, 0.0, 0.0)
    tsys = transform_system(sys, cmap, REGION)
    assert tsys.epsilon == 0.25  # largest dyadic square inside the region
    assert tsys.a11(0.0, 0.0) == pytest.approx(1.0)
    assert tsys.a12(0.0, 0.0) == pytest.approx(0.0)
    assert tsys.a22(0.0, 0.0) == pytest.approx(3.0)
    assert tsys.b11(0.1, 0.1) == 0.0
    assert tsys.c1(0.1, 0.1) == 0.0


def test_transform_preserves_ellipticity_sign():
    rng = np.random.default_rng(3)
    grid = np.linspace(-0.9, 0.9, 5)
    for _ in range(100):
        t = random_elliptic_tensor(rng)
        sys = reduce_system(t)
        cmap = build_map(sys, REGION, 0.0, 0.0)
        tsys = transform_system(sys, cmap, REGION)
        e = tsys.epsilon
        sg, tg = np.meshgrid(grid * e, grid * e, indexing="ij")
        a11, a12, a22 = tsys.a11(sg, tg), tsys.a12(sg, tg), tsys.a22(sg, tg)
        assert np.all(a12**2 - a11 * a22 < 0)
        # the original elliptic equation already had negative discriminant
        assert t.a1222(0, 0) ** 2 - t.a1212(0, 0) * t.a2222(0, 0) < 0


def test_transform_variable_coefficient_normal_form():
    sys = reduce_system(manufactured_variable_tensor())
    cmap = build_map(sys, REGION, 0.0, 0.0)
    tsys = transform_system(sys, cmap, REGION)
    assert 0 < tsys.epsilon <= 0.5
    # no zeroth-order term in the manufactured system
    assert tsys.c1(0.03, -0.02) == pytest.approx(0.0, abs=1e-12)
    # the pulled-back coefficients stay finite and the principal part
    # keeps a definite sign on the square
    u = np.linspace(-tsys.epsilon, tsys.epsilon, 5)
    sg, tg = np.meshgrid(u, u, indexing="ij")
    vals = tsys.a12(sg, tg) ** 2 - tsys.a11(sg, tg) * tsys.a22(sg, tg)
    assert np.all(np.isfinite(vals))


# -- point-data transfer --------------------------------------------------


def test_transfer_zero_data_gives_zero_w_data():
    sys = reduce_system(ElasticityCoefficients.isotropic(1.0, 1.0))
    cmap = build_map(sys, REGION, 0.0, 0.0)
    data = {"u": 0.0, "ux": 0.0, "uy": 0.0, "uxx": 0.0, "uyy": 0.0}
    jet = complete_second_derivatives(sys, 0.0, 0.0, data)
    w = transfer_point_data(cmap, jet)
    assert np.all(np.abs(list(w.values())) <= 1e-12)
    assert jet["uxy"] == 0.0


def test_transfer_identity_map_passthrough():
    sys = reduce_system(ElasticityCoefficients.isotropic(1.0, 1.0))
    cmap = build_map(sys, REGION, 0.0, 0.0)
    data = {"u": 0.4, "ux": -0.3, "uy": 0.2, "uxx": 1.5, "uyy": -2.5}
    jet = complete_second_derivatives(sys, 0.0, 0.0, data)
    w = transfer_point_data(cmap, jet)
    assert (w["w"], w["ws"], w["wt"]) == (0.4, -0.3, 0.2)
    assert (w["wss"], w["wtt"]) == (1.5, -2.5)
    # for the isotropic pair the mixed derivative comes from the
    # hyperbolic equation: (mu+lam) uxy = 0
    assert w["wst"] == jet["uxy"] == 0.0


def test_transfer_consistent_solution_counterexample_b():
    sys = reduce_system(EX41B)
    cmap = build_map(sys, REGION, 0.0, 0.0)
    u = parse("x*y - 1.5*x^2")  # solves both reduced equations
    x0, y0 = 0.0, 0.0
    data = {
        "u": u(x0, y0),
        "ux": u.diff("x")(x0, y0),
        "uy": u.diff("y")(x0, y0),
        "uxx": u.diff("x").diff("x")(x0, y0),
        "uyy": u.diff("y").diff("y")(x0, y0),
    }
    jet = complete_second_derivatives(sys, x0, y0, data)
    w = transfer_point_data(cmap, jet)
    assert jet["uxy"] == pytest.approx(1.0, abs=1e-13)  # true mixed derivative
    # composing back through the chain rule recovers the u-data
    sx, tx, sy, ty = cmap.jacobian(x0, y0)
    assert sx * w["ws"] + tx * w["wt"] == pytest.approx(data["ux"], abs=1e-12)
    assert sy * w["ws"] + ty * w["wt"] == pytest.approx(data["uy"], abs=1e-12)
    m3 = second_derivative_matrix(sx, tx, sy, ty)
    back = m3 @ np.array([w["wss"], w["wst"], w["wtt"]])
    assert np.allclose(back, [data["uxx"], jet["uxy"], data["uyy"]], atol=1e-11)


def test_second_derivative_roundtrip_random_maps():
    rng = np.random.default_rng(4)
    for _ in range(100):
        j = rng.uniform(-2, 2, size=(2, 2))
        if abs(np.linalg.det(j)) < 0.1:
            continue
        m3 = second_derivative_matrix(j[0, 0], j[0, 1], j[1, 0], j[1, 1])
        w2 = rng.uniform(-3, 3, size=3)
        u2 = m3 @ w2
        assert np.allclose(np.linalg.solve(m3, u2), w2, atol=1e-10)


def test_second_derivative_determinant_identity():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 100:
        j = rng.uniform(-2, 2, size=(2, 2))
        det = np.linalg.det(j)
        if abs(det) < 0.05:
            continue
        m3 = second_derivative_matrix(j[0, 0], j[0, 1], j[1, 0], j[1, 1])
        lhs = np.linalg.det(m3)
        assert abs(lhs - det**3) <= 1e-10 * max(1.0, abs(det) ** 3)
        checked += 1


def test_transfer_rejects_doubly_degenerate_mixed_terms():
    # h11 = 0 and h02(=a1222) = 0 cannot occur with Delta > 0; force the
    # degenerate layout and check it is reported
    t = tensor(a1112=1.0, a1122=-2.0, a1212=2.0)  # h = (1, 0, 0) -> Delta = 0
    sys = reduce_system(t)
    with pytest.raises(MapError):
        build_map(sys, REGION, 0.0, 0.0)
