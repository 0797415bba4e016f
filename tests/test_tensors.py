from collections import Counter

import numpy as np
import pytest
from scipy import optimize

from helpers import random_elliptic_tensor, sampled_ellipticity_margin
from ucp2d import fields, tensors
from ucp2d.cli import load_scenario, scenario_dir
from ucp2d.fields import ScalarField
from ucp2d.geometry import Rect
from ucp2d.reduction import discriminant, reduce_system
from ucp2d.tensors import (
    A_NAMES,
    ElasticityCoefficients,
    convexity_margin,
    ellipticity_margin,
    lambda_matrices,
    pencil_eigenpairs,
)

UNIT = Rect.square(0.0, 0.0, 0.5)


def hyperbolicity_delta(coeffs, x, y):
    """Delta of the reduced pair's hyperbolic member at a point."""
    return discriminant(*reduce_system(coeffs).hyper.principal_values(x, y))


def constant_tensor(**kw):
    comp = {
        "a1111": 0.0,
        "a1112": 0.0,
        "a1122": 0.0,
        "a1212": 0.0,
        "a1222": 0.0,
        "a2222": 0.0,
    }
    comp.update(kw)
    return ElasticityCoefficients.from_components(comp)


EX41A = constant_tensor(a1111=100.0, a1212=2.0, a1222=1.0, a2222=1.0)
EX41B = constant_tensor(
    a1111=100.0, a2222=100.0, a1212=2.0, a1122=4.0, a1112=2.0, a1222=3.0
)


def direction_form_value(coeffs, x, y, xi, eta):
    a4 = coeffs.a_array(x, y)
    return float(np.einsum("ijkl,i,j,k,l->", a4, xi, eta, xi, eta))


# -- symbol blocks ------------------------------------------------------


def test_lambda_matrices_isotropic():
    iso = ElasticityCoefficients.isotropic(1.0, 1.0)
    l11, l12, l22 = lambda_matrices(iso, 0.3, -0.2)
    assert np.allclose(l11, [[3, 0], [0, 1]])
    assert np.allclose(l12, [[0, 2], [2, 0]])
    assert np.allclose(l22, [[1, 0], [0, 3]])


def test_lambda_matrices_zero():
    z = constant_tensor()
    for m in lambda_matrices(z, 0.0, 0.0):
        assert np.all(m == 0.0)


def test_lambda_matrices_counterexample_b():
    _, l12, _ = lambda_matrices(EX41B, 0.0, 0.0)
    assert np.allclose(l12, [[4, 6], [6, 6]])


def test_symmetry_resolution():
    t = EX41B
    assert t.a(1, 2, 1, 1).source == t.a1112.source
    assert t.a(2, 1, 2, 2).source == t.a1222.source
    assert t.a(2, 2, 1, 1).source == t.a1122.source
    assert t.a(2, 1, 1, 2).source == t.a1212.source


# -- strong ellipticity -------------------------------------------------


def brute_force_ellipticity(coeffs, x, y, rng, n_starts=40):
    """Independent oracle: random directions plus local refinement."""

    def q(angles):
        xi = np.array([np.cos(angles[0]), np.sin(angles[0])])
        eta = np.array([np.cos(angles[1]), np.sin(angles[1])])
        return direction_form_value(coeffs, x, y, xi, eta)

    best = np.inf
    samples = rng.uniform(0, np.pi, size=(2000, 2))
    vals = np.array([q(s) for s in samples])
    order = np.argsort(vals)
    for idx in order[:n_starts]:
        res = optimize.minimize(q, samples[idx], method="Nelder-Mead",
                                options={"xatol": 1e-12, "fatol": 1e-14})
        best = min(best, res.fun)
    return best


def test_ellipticity_isotropic_margin_is_mu():
    iso = ElasticityCoefficients.isotropic(1.0, 1.0)
    m = ellipticity_margin(iso, UNIT, 2)
    # closed isotropic form mu + (mu+lam)(xi.eta)^2 has minimum mu
    assert m == pytest.approx(1.0, abs=1e-9)
    oracle = brute_force_ellipticity(iso, 0.0, 0.0, np.random.default_rng(0))
    assert m == pytest.approx(oracle, abs=1e-6)


def test_ellipticity_negative_for_bad_lame():
    iso = ElasticityCoefficients.isotropic(1.0, -3.0)
    m = ellipticity_margin(iso, UNIT, 2)
    assert m <= -1.0 + 1e-12
    assert m == pytest.approx(-1.0, abs=1e-9)


def test_ellipticity_scaling_homogeneity():
    base = {
        "a1111": 3.0, "a1112": 0.3, "a1122": 0.8,
        "a1212": 1.1, "a1222": -0.2, "a2222": 2.5,
    }
    t1 = ElasticityCoefficients.from_components(base)
    t2 = ElasticityCoefficients.from_components({k: 2 * v for k, v in base.items()})
    m1 = ellipticity_margin(t1, UNIT, 2)
    m2 = ellipticity_margin(t2, UNIT, 2)
    assert m2 == pytest.approx(2 * m1, rel=1e-12)


def test_ellipticity_matches_brute_force_on_anisotropic_sample():
    t = EX41B
    m = ellipticity_margin(t, UNIT, 2)
    oracle = brute_force_ellipticity(t, 0.0, 0.0, np.random.default_rng(1))
    assert m == pytest.approx(oracle, abs=1e-9)


def scan_least_eigenvalue(coeffs, region, n, n_angles=2**16):
    """Independent oracle: at each node of the ``n x n`` grid the form's
    minimum over unit xi is the least eigenvalue of the acoustic tensor
    ``M_ik = a_ijkl eta_j eta_l``, scanned over ``n_angles`` unit eta.
    Returns that minimum and the largest tensor entry on the grid."""
    th = np.linspace(0.0, np.pi, n_angles, endpoint=False)
    eta = np.stack([np.cos(th), np.sin(th)], axis=1)
    xs, ys = region.grid(n)
    best, scale = np.inf, 0.0
    for x in xs:
        for y in ys:
            a4 = coeffs.a_array(float(x), float(y))
            m = np.einsum("ijkl,tj,tl->tik", a4, eta, eta)
            best = min(best, float(np.linalg.eigvalsh(m)[:, 0].min()))
            scale = max(scale, float(np.abs(a4).max()))
    return best, scale


def _margin_cases():
    lame = load_scenario(scenario_dir() / "lame_traced.json")
    cases = [("EX41A", EX41A, UNIT, 2), ("EX41B", EX41B, UNIT, 2),
             ("lame_traced", lame.coefficients, lame.omega, lame.tolerances.conditions_n)]
    rng = np.random.default_rng(11)
    cases += [(f"random{i}", random_elliptic_tensor(rng), UNIT, 2) for i in range(5)]
    return cases


@pytest.mark.parametrize("name, coeffs, region, n", _margin_cases(),
                         ids=[c[0] for c in _margin_cases()])
def test_ellipticity_margin_matches_a_fine_eta_scan(name, coeffs, region, n):
    # exact in xi and refined in eta, the margin may lie below a 2^16
    # angle scan by its discretisation error, never above it
    m = ellipticity_margin(coeffs, region, n)
    scan, scale = scan_least_eigenvalue(coeffs, region, n)
    assert m - scan <= 1e-12 * scale
    assert scan - m <= 1e-8 * scale


def assert_matches_sampled(coeffs, region, n):
    """The exact minimum over directions lies within 1e-13 of the sampled
    reference's (relative to the largest entry), and at most 1e-14 above
    it, with overflow and invalid operations raised as in the conditions
    stage."""
    with np.errstate(over="raise", invalid="raise"):
        m = ellipticity_margin(coeffs, region, n)
    sampled, scale = sampled_ellipticity_margin(coeffs, region, n)
    assert abs(m - sampled) <= 1e-13 * scale, (m, sampled)
    assert m - sampled <= 1e-14 * scale, (m, sampled)


GOLDENS = sorted(p.stem for p in scenario_dir().glob("*.json"))


@pytest.mark.parametrize("name", GOLDENS)
def test_ellipticity_margin_matches_the_sampled_reference_on_the_goldens(name):
    sc = load_scenario(scenario_dir() / f"{name}.json")
    assert_matches_sampled(sc.coefficients, sc.omega, sc.tolerances.conditions_n)


def _num(v):
    return repr(float(v))


# random-batch style variable tensors: each component a closed form whose
# constants are drawn around an isotropic tensor
_VARIABLE_FORMS = {
    "a1111": "{0} + {1}*x + {2}*sin(y)",
    "a1112": "{0} + {1}*x*y",
    "a1122": "{0} + {1}*cos(x)",
    "a1212": "{0}*exp({1}*x)",
    "a1222": "{0} + {1}*y",
    "a2222": "{0} + {1}*y^2 + {2}*x",
}


def random_variable_tensor(rng):
    mu = rng.uniform(0.5, 2.0)
    lam = rng.uniform(-0.4 * mu, 2.0)
    base = {"a1111": 2 * mu + lam, "a1112": 0.0, "a1122": lam,
            "a1212": mu, "a1222": 0.0, "a2222": 2 * mu + lam}
    return ElasticityCoefficients.from_components({
        k: form.format(_num(base[k] + rng.uniform(-0.2, 0.2) * mu),
                       *(_num(rng.uniform(-0.3, 0.3) * mu) for _ in range(form.count("{") - 1)))
        for k, form in _VARIABLE_FORMS.items()
    })


def test_ellipticity_margin_matches_the_sampled_reference_on_a_seeded_campaign():
    rng = np.random.default_rng(17)
    for _ in range(80):
        assert_matches_sampled(random_elliptic_tensor(rng), UNIT, 2)
    for _ in range(80):
        assert_matches_sampled(random_variable_tensor(rng), Rect.square(0.0, 0.0, 0.3), 9)
    for _ in range(25):  # isotropic with lambda < -mu, elliptic only for lambda > -2 mu
        mu = rng.uniform(0.5, 2.0)
        t = ElasticityCoefficients.isotropic(mu, rng.uniform(-3.0, -1.0) * mu)
        assert_matches_sampled(t, UNIT, 2)
    for _ in range(25):  # arbitrary components, mostly not elliptic
        t = constant_tensor(**{k: rng.uniform(-1.0, 3.0) for k in A_NAMES})
        assert_matches_sampled(t, UNIT, 2)


def rotated(coeffs, alpha):
    """The constant tensor ``coeffs`` turned by the angle ``alpha``."""
    q = np.array([[np.cos(alpha), -np.sin(alpha)], [np.sin(alpha), np.cos(alpha)]])
    r = np.einsum("ip,jq,kr,ls,pqrs->ijkl", q, q, q, q, coeffs.a_array(0.0, 0.0))
    return constant_tensor(**{k: float(r[tuple(int(c) - 1 for c in k[1:])]) for k in A_NAMES})


def test_ellipticity_margin_of_an_isotropic_tensor_where_the_polynomial_vanishes():
    # f is constant in theta, so the stationarity polynomial is zero
    assert_matches_sampled(ElasticityCoefficients.isotropic(1.3, 0.4), UNIT, 3)
    assert_matches_sampled(ElasticityCoefficients.isotropic(1.0, -2.5), UNIT, 3)


def test_ellipticity_margin_of_a_minimiser_at_a_right_angle():
    # a1222 = 0 and a1212 > a2222: M(pi/2) = diag(a1212, a2222) has its
    # least eigenvalue stationary there, so the polynomial's leading
    # coefficient vanishes; a1112 != 0 keeps T's minimiser elsewhere
    t = constant_tensor(a1111=4.0, a1112=0.5, a1122=-1.25, a1212=1.25, a2222=1.0)
    assert_matches_sampled(t, UNIT, 2)
    assert ellipticity_margin(t, UNIT, 2) == pytest.approx(1.0, abs=1e-14)


def test_ellipticity_margin_with_a_double_eigenvalue():
    # M(0) = diag(a1111, a1212) = I; the least eigenvalue has a kink there
    t = constant_tensor(a1111=1.0, a1122=0.5, a1212=1.0, a2222=3.0)
    assert_matches_sampled(t, UNIT, 2)
    assert_matches_sampled(rotated(t, 0.4), UNIT, 2)


@pytest.mark.parametrize("alpha", np.linspace(0.05, 3.1, 40))
def test_ellipticity_margin_at_a_generic_angle(alpha):
    # a turned orthotropic tensor, least (= 1) only along its first axis;
    # both eigenvalues are stationary there, a double root of the
    # polynomial that rounding may split into a complex pair, whose real
    # parts must still give the direction
    t = rotated(constant_tensor(a1111=1.0, a1122=-1.5, a1212=2.0, a2222=3.0), alpha)
    assert_matches_sampled(t, UNIT, 2)
    assert ellipticity_margin(t, UNIT, 2) == pytest.approx(1.0, abs=1e-14)
    a = {k: np.array([getattr(t, k)(0.0, 0.0)], dtype=float) for k in A_NAMES}
    roots = tensors._candidates(a)[0, :8]
    assert np.abs(np.sin(roots - alpha)).min() <= 1e-7


def test_ellipticity_margin_where_the_greater_eigenvalue_is_constant():
    # M = 2 I - g g^T (g . eta)^2: the polynomial vanishes, yet the least
    # eigenvalue 2 - (g . eta)^2 is least at eta = g, T's minimiser
    g = (np.cos(0.7), np.sin(0.7))
    g4 = {k: np.prod([g[int(c) - 1] for c in k[1:]]) for k in A_NAMES}
    base = {"a1111": 2.0, "a1122": -2.0, "a1212": 2.0, "a2222": 2.0}
    t = constant_tensor(**{k: base.get(k, 0.0) - g4[k] for k in A_NAMES})
    assert_matches_sampled(t, UNIT, 2)
    assert ellipticity_margin(t, UNIT, 2) == pytest.approx(1.0, abs=1e-14)


def test_ellipticity_margin_of_the_orthotropic_convex_counterexample():
    sc = load_scenario(scenario_dir() / "orthotropic_convex_counterexample.json")
    assert_matches_sampled(sc.coefficients, sc.omega, sc.tolerances.conditions_n)
    assert ellipticity_margin(sc.coefficients, sc.omega, 2) == 1.0


def test_margins_evaluate_each_component_once(monkeypatch):
    t = ElasticityCoefficients.from_components({
        "a1111": "3 + x", "a1112": "0.1*x*y", "a1122": "1 - y",
        "a1212": "2 + y^2", "a1222": "x/5", "a2222": "3 + 0*x",
    })
    calls = Counter()
    evaluate = fields.evaluate

    def counted(field, x, y):
        calls[field.source] += 1
        return evaluate(field, x, y)

    monkeypatch.setattr(fields, "evaluate", counted)
    once = {getattr(t, name).source: 1 for name in ("a1111", "a1112", "a1122",
                                                  "a1212", "a1222", "a2222")}
    for margin in (ellipticity_margin, convexity_margin):
        calls.clear()
        margin(t, UNIT, 9)
        assert calls == once


# -- strong convexity ---------------------------------------------------


def brute_force_convexity(coeffs, x, y, rng, n_samples=10_000):
    """Rayleigh quotient over random symmetric strains, refined locally."""
    a4 = coeffs.a_array(x, y)

    def quotient(v):
        e = np.array([[v[0], v[2]], [v[2], v[1]]])
        num = np.einsum("ijkl,ij,kl->", a4, e, e)
        den = np.sum(e * e)
        return num / den

    samples = rng.standard_normal((n_samples, 3))
    vals = np.array([quotient(s) for s in samples])
    best = np.inf
    for idx in np.argsort(vals)[:30]:
        res = optimize.minimize(quotient, samples[idx], method="Nelder-Mead",
                                options={"xatol": 1e-13, "fatol": 1e-15})
        best = min(best, res.fun)
    return best


def test_convexity_orthotropic_counterexample_is_convex():
    t = constant_tensor(a1111=2.0, a1212=1.0, a2222=1.0, a1122=-1.0)
    m = convexity_margin(t, UNIT, 2)
    assert m > 0.0
    oracle = brute_force_convexity(t, 0.0, 0.0, np.random.default_rng(2))
    assert m == pytest.approx(oracle, abs=1e-8)
    # ... while its discriminant is not positive
    assert hyperbolicity_delta(t, 0.0, 0.0) == 0.0


def test_convexity_isotropic_value():
    iso = ElasticityCoefficients.isotropic(1.0, 1.0)
    m = convexity_margin(iso, UNIT, 3)
    assert m == pytest.approx(2.0, abs=1e-12)


def test_convexity_identity_like():
    t = constant_tensor(a1111=1.0, a2222=1.0, a1212=0.5)
    assert convexity_margin(t, UNIT, 2) == pytest.approx(1.0, abs=1e-14)


def test_voigt_minimum_matches_rayleigh_sampling():
    rng = np.random.default_rng(3)
    for _ in range(3):
        t = random_elliptic_tensor(rng)
        m = convexity_margin(t, UNIT, 2)
        oracle = brute_force_convexity(t, 0.0, 0.0, rng)
        assert m == pytest.approx(oracle, abs=1e-8)


# -- hyperbolicity discriminant ----------------------------------------


def test_delta_isotropic_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(50):
        mu = rng.uniform(0.1, 3.0)
        lam = rng.uniform(-2.0, 3.0)
        iso = ElasticityCoefficients.isotropic(mu, lam)
        d = hyperbolicity_delta(iso, 0.0, 0.0)
        assert abs(d - (mu + lam) ** 2) <= 1e-12 * max(1.0, (mu + lam) ** 2)


def test_delta_counterexample_b():
    assert hyperbolicity_delta(EX41B, 0.0, 0.0) == pytest.approx(12.0, abs=1e-14)


def test_delta_degenerate_nonpositive():
    t = constant_tensor(a1212=1.5, a1122=-1.5, a1112=2.0, a1222=3.0)
    assert hyperbolicity_delta(t, 0.0, 0.0) <= 0.0


def test_delta_axis_relabel_invariance():
    rng = np.random.default_rng(5)
    for _ in range(100):
        comp = {k: rng.uniform(-2, 2) for k in
                ("a1111", "a1112", "a1122", "a1212", "a1222", "a2222")}
        swapped = dict(comp)
        swapped["a1112"], swapped["a1222"] = comp["a1222"], comp["a1112"]
        swapped["a1111"], swapped["a2222"] = comp["a2222"], comp["a1111"]
        d1 = hyperbolicity_delta(ElasticityCoefficients.from_components(comp), 0, 0)
        d2 = hyperbolicity_delta(ElasticityCoefficients.from_components(swapped), 0, 0)
        assert d1 == pytest.approx(d2, rel=1e-14, abs=1e-14)


def test_delta_field_matches_pointwise():
    t = ElasticityCoefficients.from_components(
        {
            "a1111": "3 + x", "a1112": "x*y", "a1122": "1 - y",
            "a1212": "2 + y^2", "a1222": "x/2", "a2222": "3",
        }
    )
    f = discriminant(*reduce_system(t).hyper.coefficients()[:3])
    rng = np.random.default_rng(6)
    for _ in range(20):
        x, y = rng.uniform(-1, 1, 2)
        s = t.a1212(x, y) + t.a1122(x, y)
        want = s * s - 4.0 * t.a1112(x, y) * t.a1222(x, y)
        assert f(x, y) == pytest.approx(want, rel=1e-14)
        assert hyperbolicity_delta(t, x, y) == pytest.approx(want, rel=1e-14)


# -- quadratic pencil ---------------------------------------------------


def test_pencil_isotropic_double_imaginary_roots():
    # det(L(th)) = mu (2mu+lam) (th^2+1)^2 for any isotropic tensor, so
    # the roots are +-i, each algebraically double and geometrically
    # simple, and the null-vector conditioning is exactly 1
    iso = ElasticityCoefficients.isotropic(1.0, 1.0)
    pe = pencil_eigenpairs(iso, 0.0, 0.0)
    assert np.allclose(np.abs(pe.roots.real), 0.0, atol=1e-7)
    assert np.allclose(np.sort(pe.roots.imag), [-1, -1, 1, 1], atol=1e-7)
    assert np.all(pe.residuals <= 1e-8)
    assert np.all(pe.conditioning > 0.99)
    assert np.all(pe.nullity == 1)
    assert not pe.defective


def test_pencil_isotropic_det_factorisation():
    # brute-force polynomial expansion of det(L(th)) for random mu, lam
    rng = np.random.default_rng(7)
    for _ in range(20):
        mu = rng.uniform(0.2, 2.0)
        lam = rng.uniform(-0.5 * mu, 2.0)
        l11, l12, l22 = lambda_matrices(
            ElasticityCoefficients.isotropic(mu, lam), 0.0, 0.0
        )
        p11 = [l11[0, 0], l12[0, 0], l22[0, 0]]
        p12 = [l11[0, 1], l12[0, 1], l22[0, 1]]
        p22 = [l11[1, 1], l12[1, 1], l22[1, 1]]
        quartic = np.convolve(p11, p22) - np.convolve(p12, p12)
        expected = mu * (2 * mu + lam) * np.array([1.0, 0.0, 2.0, 0.0, 1.0])
        assert np.allclose(quartic, expected, rtol=1e-12, atol=1e-12)


def test_pencil_identity_blocks_report_degenerate_roots():
    # L11 = L22 = I, L12 = 0: th = +-i with the whole plane as null space
    t = constant_tensor(a1111=1.0, a1122=-1.0, a1212=1.0, a2222=1.0)
    pe = pencil_eigenpairs(t, 0.0, 0.0)
    roots = np.sort_complex(pe.roots)
    assert np.allclose(roots, [-1j, -1j, 1j, 1j], atol=1e-7)
    assert pe.defective
    assert np.all(pe.nullity == 2)


def test_pencil_random_elliptic_roots_strictly_complex():
    rng = np.random.default_rng(8)
    for _ in range(10):
        t = random_elliptic_tensor(rng)
        pe = pencil_eigenpairs(t, 0.0, 0.0)
        assert np.all(np.abs(pe.roots.imag) > 1e-6)
        assert np.all(pe.residuals <= 1e-8)
        # cross-check against an independent scalar quartic root solve
        l11, l12, l22 = lambda_matrices(t, 0.0, 0.0)
        p11 = [l11[0, 0], l12[0, 0], l22[0, 0]]
        p12 = [l11[0, 1], l12[0, 1], l22[0, 1]]
        p22 = [l11[1, 1], l12[1, 1], l22[1, 1]]
        ref = np.roots(np.convolve(p11, p22) - np.convolve(p12, p12))
        assert np.allclose(
            np.sort_complex(pe.roots), np.sort_complex(ref), atol=1e-6
        )


def test_pencil_rejects_singular_leading_block():
    t = constant_tensor(a1111=1.0)  # a1212 = 0 makes L11 singular
    with pytest.raises(ValueError):
        pencil_eigenpairs(t, 0.0, 0.0)


# -- cross-condition invariants -----------------------------------------


def test_elliptic_implies_second_equation_elliptic():
    rng = np.random.default_rng(9)
    for _ in range(50):
        t = random_elliptic_tensor(rng, require_delta_positive=False)
        a1212 = t.a1212(0.0, 0.0)
        a1222 = t.a1222(0.0, 0.0)
        a2222 = t.a2222(0.0, 0.0)
        assert a1222**2 - a1212 * a2222 < 0.0


def test_convexity_implies_ellipticity():
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 20:
        comp = {k: rng.uniform(-1, 3) for k in
                ("a1111", "a1112", "a1122", "a1212", "a1222", "a2222")}
        t = ElasticityCoefficients.from_components(comp)
        if convexity_margin(t, UNIT, 2) > 0:
            assert ellipticity_margin(t, UNIT, 2) > 0
            checked += 1


def test_variable_coefficient_region_sweep():
    t = ElasticityCoefficients.isotropic("2 + x", "1 + y/2")
    m = ellipticity_margin(t, Rect.square(0.0, 0.0, 0.25), 5)
    # pointwise isotropic margin is mu = 2 + x, minimised at x = -0.25
    assert m == pytest.approx(1.75, abs=1e-9)
