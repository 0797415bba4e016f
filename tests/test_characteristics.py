import dataclasses
import traceback
from collections import Counter

import numpy as np
import pytest

from ucp2d import characteristics as ch
from ucp2d.characteristics import (
    CASE_A1112,
    CASE_A1222,
    CASE_IDENTITY,
    MapError,
    build_map,
    characteristic_slopes,
    second_derivative_matrix,
    transfer_point_data,
    transform_system,
)
from ucp2d.fields import parse
from ucp2d.geometry import Rect
from ucp2d.reduction import reduce_system
from ucp2d.tensors import ElasticityCoefficients, random_elliptic_tensor

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


def test_slopes_constant_lame_identity_case():
    sys = reduce_system(ElasticityCoefficients.isotropic(1.0, 1.0))
    case, roots = characteristic_slopes(sys, 0.0, 0.0)
    assert case == CASE_IDENTITY and roots is None


def test_slopes_counterexample_b():
    sys = reduce_system(EX41B)
    case, (m_minus, m_plus) = characteristic_slopes(sys, 0.0, 0.0)
    assert case == CASE_A1112
    rt = np.sqrt(12.0)
    assert m_minus == pytest.approx(-(6 - rt) / 4, abs=1e-14)
    assert m_plus == pytest.approx(-(6 + rt) / 4, abs=1e-14)
    for m in (m_minus, m_plus):
        assert abs(2 * m**2 + 6 * m + 3) <= 1e-12


def test_slopes_mirrored_case():
    sys = reduce_system(tensor(a1212=3.0, a1222=1.0, a2222=1.0))
    # h = (0, 3, 1): the mirrored quadratic r^2 + 3r + 0 has roots 0, -3
    case, (r_minus, r_plus) = characteristic_slopes(sys, 0.0, 0.0)
    assert case == CASE_A1222
    rt = 3.0
    assert r_minus == pytest.approx(-(3 - rt) / 2, abs=1e-14)
    assert r_plus == pytest.approx(-(3 + rt) / 2, abs=1e-14)


def test_slopes_require_hyperbolicity():
    sys = reduce_system(ElasticityCoefficients.isotropic(1.0, -1.0))
    with pytest.raises(MapError):
        characteristic_slopes(sys, 0.0, 0.0)


# -- map construction ----------------------------------------------------


def test_identity_map_shifted_to_base_point():
    sys = reduce_system(ElasticityCoefficients.isotropic(1.0, 1.0))
    cmap = build_map(sys, Rect.square(0.1, -0.2, 0.3), 0.1, -0.2)
    assert cmap.case == CASE_IDENTITY and cmap.linear
    s, t = cmap.forward(0.25, -0.1)
    assert s == pytest.approx(0.15, abs=1e-15)
    assert t == pytest.approx(0.1, abs=1e-15)
    assert np.allclose(cmap.jacobian_matrix(0.0, 0.0), np.eye(2))
    assert abs(cmap.forward(0.1, -0.2)[0]) + abs(cmap.forward(0.1, -0.2)[1]) <= 1e-12


def test_linear_map_satisfies_slope_quadratic():
    sys = reduce_system(EX41B)
    cmap = build_map(sys, REGION, 0.0, 0.0)
    assert cmap.case == CASE_A1112 and cmap.linear
    sx, tx, sy, ty = cmap.jacobian(0.2, -0.1)
    for m in (sx / sy, tx / ty):
        assert abs(2 * m**2 + 6 * m + 3) <= 1e-12
    assert cmap.det_jacobian(0.0, 0.0) != 0.0
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
    assert abs(cmap.det_jacobian(0.0, 0.0)) > 0


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
    assert sxx == pytest.approx((1 + 0.1 * y) * np.exp(x / 10) / 10, abs=1e-6)
    assert sxy == pytest.approx(0.1 * np.exp(x / 10), abs=1e-6)
    assert syy == pytest.approx(0.0, abs=1e-6)
    assert txx == pytest.approx(-0.3, abs=1e-6)
    assert txy == pytest.approx(0.0, abs=1e-6)
    assert tyy == pytest.approx(0.0, abs=1e-6)


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
    calls = []
    trace = ch._CurveTracer.intercept_and_sensitivity

    def counted(self, x, y):
        calls.append(self)
        return trace(self, x, y)

    monkeypatch.setattr(ch._CurveTracer, "intercept_and_sensitivity", counted)
    return calls


def test_traced_inverse_traces_each_curve_once_per_newton_step(monkeypatch):
    cmap = build_map(reduce_system(manufactured_variable_tensor()), REGION, 0.0, 0.0)
    s, t = np.array([0.05, -0.04, 0.0]), np.array([0.02, 0.06, -0.07])
    steps = 1  # the fewest Newton steps the inversion needs
    while True:
        monkeypatch.setattr(ch, "_NEWTON_STEPS", steps)
        try:
            expected = cmap.inverse(s, t)
            break
        except MapError:
            steps += 1
    monkeypatch.undo()
    calls = _count_traces(monkeypatch)
    got = cmap.inverse(s, t)
    assert steps > 1
    assert len(calls) == 2 + 2 * steps  # the base point, then s and t per step
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def test_transformed_coefficients_differentiate_the_map_once_per_grid(monkeypatch):
    sys = reduce_system(manufactured_variable_tensor())
    cmap = build_map(sys, REGION, 0.0, 0.0)
    counts = {"jacobian": 0, "second_derivatives": 0}

    def counted(name):
        fn = getattr(cmap, name)

        def call(x, y):
            counts[name] += 1
            return fn(x, y)

        return call

    cmap = dataclasses.replace(cmap, **{name: counted(name) for name in counts})
    tsys = transform_system(sys, cmap, REGION)
    counts.update(jacobian=0, second_derivatives=0)
    u = np.linspace(-tsys.epsilon, tsys.epsilon, 5)
    sg, tg = np.meshgrid(u, u, indexing="ij")
    for name in ("b11", "b12", "c1", "a11", "a12", "a22", "b21", "b22", "c2"):
        getattr(tsys, name)(sg, tg)
    assert counts == {"jacobian": 1, "second_derivatives": 1}


def test_transform_system_reuses_the_probe_pullback(monkeypatch):
    # the probe grid is pulled back once, by _choose_epsilon; the normal
    # form check there needs the Jacobian only, one trace per family
    sys = reduce_system(manufactured_variable_tensor())
    cmap = build_map(sys, REGION, 0.0, 0.0)
    callers = Counter()
    trace = ch._CurveTracer.intercept_and_sensitivity

    def counted(self, x, y):
        names = [f.name for f in traceback.extract_stack()]
        callers[next(n for n in reversed(names)
                     if n in ("_choose_epsilon", "transform_system"))] += 1
        return trace(self, x, y)

    monkeypatch.setattr(ch._CurveTracer, "intercept_and_sensitivity", counted)
    transform_system(sys, cmap, REGION)
    assert callers["transform_system"] == 2
    assert callers["_choose_epsilon"] > 2


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
    case, roots = characteristic_slopes(sys1, 0.0, 0.0)
    assert case == CASE_A1112
    for m in roots:
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
    w = transfer_point_data(sys, cmap, data)
    assert np.all(np.abs(w.as_array()) <= 1e-12)
    assert w.uxy == 0.0


def test_transfer_identity_map_passthrough():
    sys = reduce_system(ElasticityCoefficients.isotropic(1.0, 1.0))
    cmap = build_map(sys, REGION, 0.0, 0.0)
    data = {"u": 0.4, "ux": -0.3, "uy": 0.2, "uxx": 1.5, "uyy": -2.5}
    w = transfer_point_data(sys, cmap, data)
    assert (w.w, w.ws, w.wt) == (0.4, -0.3, 0.2)
    assert (w.wss, w.wtt) == (1.5, -2.5)
    # for the isotropic pair the mixed derivative comes from the
    # hyperbolic equation: (mu+lam) uxy = 0
    assert w.wst == w.uxy == 0.0


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
    w = transfer_point_data(sys, cmap, data)
    assert w.uxy == pytest.approx(1.0, abs=1e-13)  # true mixed derivative
    # composing back through the chain rule recovers the u-data
    sx, tx, sy, ty = cmap.jacobian(x0, y0)
    assert sx * w.ws + tx * w.wt == pytest.approx(data["ux"], abs=1e-12)
    assert sy * w.ws + ty * w.wt == pytest.approx(data["uy"], abs=1e-12)
    m3 = second_derivative_matrix(sx, tx, sy, ty)
    back = m3 @ np.array([w.wss, w.wst, w.wtt])
    assert np.allclose(back, [data["uxx"], w.uxy, data["uyy"]], atol=1e-11)


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
        characteristic_slopes(sys, 0.0, 0.0)
