import numpy as np
import pytest

from helpers import random_elliptic_tensor, residual, with_divergence_form_lower_order
from ucp2d.fields import parse
from ucp2d.geometry import Rect
from ucp2d.reduction import reduce_system, second_order_rank
from ucp2d.tensors import ElasticityCoefficients

REGION = Rect.square(0.0, 0.0, 0.3)


def coeff_values(op, x, y):
    return [f(x, y) for f in op.coefficients()]


def test_reduce_constant_lame():
    sys = reduce_system(ElasticityCoefficients.isotropic(1.0, 1.0))
    assert coeff_values(sys.hyper, 0.1, 0.2) == [0.0, 2.0, 0.0, 0.0, 0.0, 0.0]
    assert coeff_values(sys.ell, 0.1, 0.2) == [1.0, 0.0, 3.0, 0.0, 0.0, 0.0]


def test_reduce_counterexample_a():
    t = ElasticityCoefficients.from_components(
        {
            "a1111": 100.0, "a1112": 0.0, "a1122": 0.0,
            "a1212": 2.0, "a1222": 1.0, "a2222": 1.0,
        }
    )
    sys = reduce_system(t)
    assert coeff_values(sys.hyper, 0.0, 0.0)[:3] == [0.0, 2.0, 1.0]
    assert coeff_values(sys.ell, 0.0, 0.0)[:3] == [2.0, 2.0, 1.0]


def test_reduce_zero_tensor():
    zero = {k: 0.0 for k in ("a1111", "a1112", "a1122", "a1212", "a1222", "a2222")}
    sys = reduce_system(ElasticityCoefficients.from_components(zero))
    assert coeff_values(sys.hyper, 1.0, 1.0) == [0.0] * 6
    assert coeff_values(sys.ell, 1.0, 1.0) == [0.0] * 6


def test_reduce_wires_lower_order_terms():
    t = ElasticityCoefficients.from_components(
        {
            "a1111": 3.0, "a1112": 0.0, "a1122": 1.0,
            "a1212": 1.0, "a1222": 0.0, "a2222": 3.0,
        },
        lower_order={
            "b121": "x", "b122": "y", "c12": "x*y",
            "b221": "exp(x)", "b222": "exp(y)", "c22": "2",
            # row-1 first-component terms must not leak into the pair
            "b111": "99", "c11": "99",
        },
    )
    sys = reduce_system(t)
    assert coeff_values(sys.hyper, 0.5, 0.25)[3:] == [0.5, 0.25, 0.125]
    assert coeff_values(sys.ell, 0.0, 0.0)[3:] == [1.0, 1.0, 2.0]


def test_rank_full_counterexample_a():
    t = ElasticityCoefficients.from_components(
        {
            "a1111": 100.0, "a1112": 0.0, "a1122": 0.0,
            "a1212": 2.0, "a1222": 1.0, "a2222": 1.0,
        }
    )
    sys = reduce_system(t)
    # full rank; the rank loss once uxx is data is
    # test_complete_seconds_degenerate_counterexamples' case
    assert second_order_rank(sys, 0.0, 0.0, 1e-9) == 2


def test_rank_full_counterexample_b():
    t = ElasticityCoefficients.from_components(
        {
            "a1111": 100.0, "a1112": 2.0, "a1122": 4.0,
            "a1212": 2.0, "a1222": 3.0, "a2222": 100.0,
        }
    )
    sys = reduce_system(t)
    assert second_order_rank(sys, 0.0, 0.0, 1e-9) == 2


def test_rank_constant_lame_and_zero():
    sys = reduce_system(ElasticityCoefficients.isotropic(1.0, 0.5))
    assert second_order_rank(sys, 0.0, 0.0, 1e-9) == 2
    zero = {k: 0.0 for k in ("a1111", "a1112", "a1122", "a1212", "a1222", "a2222")}
    zsys = reduce_system(ElasticityCoefficients.from_components(zero))
    assert second_order_rank(zsys, 0.0, 0.0, 1e-9) == 0


def test_residual_lame_quadratic_family():
    sys = reduce_system(ElasticityCoefficients.isotropic(1.0, 1.0))
    rh, re = residual(sys, parse("x^2 - y^2/3"), REGION, 21)
    assert rh <= 1e-12 and re <= 1e-12


def test_residual_exponential_lame_solution():
    # mu = e^x, lam = e^y in divergence form; exp(-x) solves the pair
    t = with_divergence_form_lower_order(ElasticityCoefficients.isotropic("exp(x)", "exp(y)"))
    assert t.b_(2, 2, 1).source is not None
    sys = reduce_system(t)
    rh, re = residual(sys, parse("exp(-x)"), REGION, 21)
    assert rh <= 1e-12 and re <= 1e-12
    rh1, re1 = residual(sys, parse("1"), REGION, 21)
    assert rh1 <= 1e-15 and re1 <= 1e-15


def test_residual_constants_when_no_zeroth_order():
    sys = reduce_system(ElasticityCoefficients.isotropic(2.0, -1.0))
    rh, re = residual(sys, parse("1"), REGION, 5)
    assert rh == 0.0 and re == 0.0


def test_residual_linearity():
    sys = reduce_system(
        with_divergence_form_lower_order(ElasticityCoefficients.isotropic("1 + x^2", "2 + y"))
    )
    u = parse("sin(x)*y")
    v = parse("exp(y) - x^3")
    alpha, beta = 1.3, -0.7
    combo = alpha * u + beta * v
    rng = np.random.default_rng(0)
    for op in (sys.hyper, sys.ell):
        lu, lv, lc = op.apply(u), op.apply(v), op.apply(combo)
        for _ in range(100):
            x, y = rng.uniform(-0.3, 0.3, 2)
            lhs = lc(x, y)
            rhs = alpha * lu(x, y) + beta * lv(x, y)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_second_order_discriminants_match():
    rng = np.random.default_rng(1)
    for _ in range(100):
        t = random_elliptic_tensor(rng, require_delta_positive=False)
        sys = reduce_system(t)
        h20, h11, h02 = (f(0.0, 0.0) for f in sys.hyper.coefficients()[:3])
        e20, e11, e02 = (f(0.0, 0.0) for f in sys.ell.coefficients()[:3])
        assert e11**2 - 4 * e20 * e02 < 0.0
        s = t.a1212(0.0, 0.0) + t.a1122(0.0, 0.0)
        delta = s * s - 4.0 * t.a1112(0.0, 0.0) * t.a1222(0.0, 0.0)
        assert abs(h11**2 - 4 * h20 * h02 - delta) <= 1e-12 * max(1.0, abs(delta))
