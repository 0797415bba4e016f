"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Criterion 2 pins grid n = 65.  Its gap and projection bars for the
exponential-coefficient scenario rest on the fourth-order discretisation:
under second-order stencils the image of exp(-x) is an O(h^2) singular
value that caps the gap near 42 and the projection defect near 1e-4.
"""

import json

import numpy as np
import pytest

from helpers import (
    bessel_representation,
    hyperbolic_bessel_series,
    point_data_solve,
    random_elliptic_tensor,
    residual,
)
from ucp2d import cli
from ucp2d import pipeline as pl
from ucp2d.characteristics import (
    TransformedSystem,
    build_map,
    second_derivative_matrix,
    transform_system,
)
from ucp2d.fields import parse
from ucp2d.geometry import Rect
from ucp2d.reduction import discriminant, reduce_system
from ucp2d.riemann import solve_riemann, volterra_ivp
from ucp2d.tensors import (
    ElasticityCoefficients,
    ellipticity_margin,
)

OMEGA = Rect.square(0.0, 0.0, 0.3)


def hyperbolicity_delta(coeffs, x, y):
    """Delta of the reduced pair's hyperbolic member at a point."""
    return discriminant(*reduce_system(coeffs).hyper.principal_values(x, y))


def _verdict(name, failures):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else f"  ({len(failures)} issue(s))"
    print(f"\n[{status}] {name}{detail}")
    for line in failures:
        print(f"    - {line}")
    assert not failures, f"{name}: " + " | ".join(failures)


def test_criterion_1_isotropic_discriminant():
    failures = []
    rng = np.random.default_rng(101)
    for _ in range(50):
        mu = rng.uniform(0.05, 4.0)
        lam = rng.uniform(-3.0, 4.0)
        iso = ElasticityCoefficients.isotropic(mu, lam)
        d = hyperbolicity_delta(iso, rng.uniform(-1, 1), rng.uniform(-1, 1))
        want = (mu + lam) ** 2
        if abs(d - want) > 1e-12 * max(1.0, want):
            failures.append(f"mu={mu}, lam={lam}: {d} vs {want}")
    _verdict("criterion 1: isotropic discriminant is (mu+lam)^2", failures)


def test_criterion_2_null_space_dimensions():
    cases = [
        ("lame_constant", 4, [("1", "1"), ("x", "x"), ("y", "y"),
                              ("x^2 - y^2/3", "x^2-y^2/3")]),
        ("example_exp", 2, [("1", "1"), ("exp(-x)", "exp(-x)")]),
        ("example_b221_expy", 3, [("1", "1"), ("x - exp(y)/0.3", "x-e^y/(2mu+lam)"),
                                  ("y", "y")]),
        ("example_xy", 1, []),
        ("example_c22_xy", 0, []),
    ]
    failures = []
    for stem, want_dim, basis in cases:
        sc = cli.load_scenario(cli.scenario_dir() / f"{stem}.json")
        sys = reduce_system(sc.coefficients)
        res = pl.null_space_dimension(
            sys, sc.omega, 65, sc.tolerances.nullspace_threshold
        )
        if res.dimension != want_dim:
            failures.append(f"{stem}: dimension {res.dimension} != {want_dim}")
            continue
        if not res.gap >= 1e3:
            failures.append(f"{stem}: gap {res.gap:.3g} < 1e3")
        xs, ys = res.grid
        xg, yg = np.meshgrid(xs, ys, indexing="ij")
        for expr, label in basis:
            defect = pl.projection_defect(res, parse(expr)(xg, yg))
            if not defect <= 1e-6:
                failures.append(f"{stem}: projection defect of {label} = {defect:.3g} > 1e-6")
    _verdict("criterion 2: null-space dimensions 4/2/3/1/0 with gaps and projections", failures)


def test_criterion_3_counterexamples_under_reduced_data():
    failures = []
    cases = [
        (
            "four-value with uxx",
            {"a1111": 100.0, "a1112": 0.0, "a1122": 0.0,
             "a1212": 2.0, "a1222": 1.0, "a2222": 1.0},
            [parse("1"), parse("x"), parse("y"), parse("x*y - y^2")],
            "uxx",
        ),
        (
            "four-value with uyy",
            {"a1111": 100.0, "a1112": 2.0, "a1122": 4.0,
             "a1212": 2.0, "a1222": 3.0, "a2222": 100.0},
            [parse("1"), parse("x"), parse("y"), parse("x*y - 1.5*x^2")],
            "uyy",
        ),
    ]
    for label, comp, family, second in cases:
        t = ElasticityCoefficients.from_components(comp)
        if not ellipticity_margin(t, OMEGA, 2) > 0:
            failures.append(f"{label}: tensor is not strongly elliptic")
        if not hyperbolicity_delta(t, 0.0, 0.0) > 0:
            failures.append(f"{label}: discriminant not positive")
        sys = reduce_system(t)
        for f in family:
            rh, re = residual(sys, f, OMEGA, 9)
            if max(rh, re) > 1e-12:
                failures.append(f"{label}: family member {f.source} residual {max(rh, re)}")
        data = {"u": 0.0, "ux": 0.0, "uy": 0.0, second: 0.0}
        fit = point_data_solve(family, data, at=(0.0, 0.0))
        if not fit.deficient:
            failures.append(f"{label}: map unexpectedly full rank")
            continue
        combo = fit.null_combinations[0]
        survivor = sum((float(c) * f for c, f in zip(combo, family)), parse("0"))
        seconds = [
            survivor.diff("x").diff("x")(0.0, 0.0),
            survivor.diff("x").diff("y")(0.0, 0.0),
            survivor.diff("y").diff("y")(0.0, 0.0),
        ]
        if max(abs(v) for v in seconds) < 1e-6:
            failures.append(f"{label}: surviving member has no second derivatives")
    _verdict("criterion 3: reduced four-value data admits nontrivial survivors", failures)


def test_criterion_4_riemann_solver_bessel():
    failures = []
    trivial = solve_riemann(TransformedSystem.from_constants(epsilon=0.5), (0.0, 0.0), 65)
    if not np.all(trivial.values == 1.0):
        failures.append("zero-coefficient kernel is not identically 1")
    tsys = TransformedSystem.from_constants(c1=1.0, epsilon=0.5)
    errs = []
    for n in (65, 129, 257):
        tab = solve_riemann(tsys, (0.0, 0.0), n, tol=1e-13)
        sg, tg = np.meshgrid(tab.s_nodes, tab.t_nodes, indexing="ij")
        ref = hyperbolic_bessel_series(sg * tg)
        errs.append(float(np.max(np.abs(tab.values - ref))))
    if not errs[-1] <= 1e-4:
        failures.append(f"n=257 sup error {errs[-1]:.3g} > 1e-4")
    for k, (ea, eb) in enumerate(zip(errs[:-1], errs[1:])):
        order = np.log2(ea / eb)
        if not order >= 1.8:
            failures.append(f"refinement {k}: observed order {order:.2f} < 1.8")
    _verdict("criterion 4: Riemann kernel matches the series oracle at order 2", failures)


def test_criterion_5_representation_formula():
    failures = []
    # c1 = 1, epsilon = 0.5, n = 257, zero traces, 13 x 13 targets
    vals, ref = bessel_representation()
    err = float(np.max(np.abs(vals - ref)))
    if not err <= 1e-4:
        failures.append(f"reconstruction sup error {err:.3g} > 1e-4")
    _verdict("criterion 5: axis traces reconstruct the manufactured kernel", failures)


def test_criterion_6_volterra_ivp():
    failures = []
    _, u_hom = volterra_ivp(
        leading=lambda s: 1.0 + 0.1 * s,
        damping=lambda s: 0.3 - s,
        kernel=lambda s, sig: np.cos(s - sig),
        forcing=lambda s: 0.0,
        interval=(-0.5, 0.5),
        n=129,
    )
    if not np.max(np.abs(u_hom)) <= 1e-12:
        failures.append(f"homogeneous solve sup {np.max(np.abs(u_hom)):.3g} > 1e-12")

    errs = []
    for n in (65, 129, 257):
        nodes, u = volterra_ivp(
            leading=lambda s: 1.0, damping=lambda s: 0.0,
            kernel=lambda s, sig: 0.0, forcing=np.cos,
            interval=(-0.5, 0.5), n=n,
        )
        errs.append(float(np.max(np.abs(u - np.sin(nodes)))))
    orders = [np.log2(a / b) for a, b in zip(errs[:-1], errs[1:])]
    if not all(o >= 1.8 for o in orders):
        failures.append(f"sine case orders {orders} below 1.8")

    # second manufactured case: u(s) = s with unit memory kernel; the
    # scheme integrates it exactly, which counts as converged
    errs2 = []
    for n in (65, 129):
        nodes, u = volterra_ivp(
            leading=lambda s: 1.0, damping=lambda s: 0.0,
            kernel=lambda s, sig: 1.0, forcing=lambda s: 1.0 + s**2 / 2,
            interval=(-0.5, 0.5), n=n,
        )
        errs2.append(float(np.max(np.abs(u - nodes))))
    exact = all(e <= 1e-12 for e in errs2)
    if not (exact or np.log2(errs2[0] / errs2[1]) >= 1.8):
        failures.append(f"memory-kernel case neither exact nor order 2: {errs2}")
    _verdict("criterion 6: Volterra marching is exact on zero data, order 2 otherwise",
             failures)


def test_criterion_7_second_derivative_determinant():
    failures = []
    rng = np.random.default_rng(107)
    checked = 0
    while checked < 100:
        j = rng.uniform(-2.0, 2.0, size=(2, 2))
        det = float(np.linalg.det(j))
        if abs(det) < 0.05:
            continue
        m3 = second_derivative_matrix(j[0, 0], j[0, 1], j[1, 0], j[1, 1])
        lhs = float(np.linalg.det(m3))
        if abs(lhs - det**3) > 1e-10 * abs(det**3):
            failures.append(f"J={j.tolist()}: {lhs} vs {det ** 3}")
        checked += 1
    _verdict("criterion 7: second-derivative matrix determinant is det(J)^3", failures)


def test_criterion_8_ellipticity_propagation():
    failures = []
    rng = np.random.default_rng(108)
    probe = np.linspace(-0.9, 0.9, 5)
    for k in range(100):
        t = random_elliptic_tensor(rng)
        a1212 = t.a1212(0.0, 0.0)
        a1222 = t.a1222(0.0, 0.0)
        a2222 = t.a2222(0.0, 0.0)
        if not a1222**2 - a1212 * a2222 < 0:
            failures.append(f"sample {k}: second equation lost ellipticity")
            continue
        sys = reduce_system(t)
        cmap = build_map(sys, OMEGA, 0.0, 0.0)
        tsys = transform_system(sys, cmap, OMEGA)
        sg, tg = np.meshgrid(probe * tsys.epsilon, probe * tsys.epsilon, indexing="ij")
        disc = np.asarray(tsys.a12(sg, tg)) ** 2 - np.asarray(
            tsys.a11(sg, tg)
        ) * np.asarray(tsys.a22(sg, tg))
        if not np.all(disc < 0):
            failures.append(f"sample {k}: transformed discriminant reaches {disc.max()}")
    _verdict("criterion 8: ellipticity survives reduction and transformation", failures)


def _lame_scenario(point_data, name):
    return pl.Scenario(
        name=name,
        coefficients=ElasticityCoefficients.isotropic(1.0, 1.0),
        point=(0.0, 0.0),
        omega=OMEGA,
        n=65,
        tasks=("conditions", "reduce", "characteristics", "riemann", "ucp"),
        point_data=point_data,
    )


def test_criterion_9_end_to_end_vanishing():
    failures = []
    report, _ = pl.run(_lame_scenario(
        {k: 0.0 for k in ("u", "ux", "uy", "uxx", "uyy")}, "lame-five"))
    ucp = report["ucp"]
    if not ucp["transferred_max"] <= 1e-12:
        failures.append(f"five-value transfer max {ucp['transferred_max']} > 1e-12")
    if not max(ucp["phi_sup"], ucp["psi_sup"]) <= 1e-10:
        failures.append("five-value traces exceed 1e-10")
    if not ucp["w_sup"] <= 1e-8:
        failures.append(f"five-value reconstruction sup {ucp['w_sup']} > 1e-8")

    report4, _ = pl.run(_lame_scenario(
        {"u": 0.0, "ux": 0.0, "uy": 0.0, "uxx": 0.0}, "lame-four"))
    ucp4 = report4["ucp"]
    if ucp4.get("reduced_data_degenerate"):
        failures.append("four-value variant was declined despite a1222 = 0")
    else:
        if ucp4["a1222_at_point"] != 0.0:
            failures.append("four-value variant ran with nonzero a1222")
        if not ucp4["w_sup"] <= 1e-8:
            failures.append(f"four-value reconstruction sup {ucp4['w_sup']} > 1e-8")
        if not max(ucp4["phi_sup"], ucp4["psi_sup"]) <= 1e-10:
            failures.append("four-value traces exceed 1e-10")
    _verdict("criterion 9: zero point data forces the vanishing chain", failures)


@pytest.mark.slow
def test_criterion_10_determinism_across_jobs(tmp_path):
    failures = []
    goldens = sorted(cli.scenario_dir().glob("*.json"))
    out1, out8 = tmp_path / "jobs1", tmp_path / "jobs8"
    for golden in goldens:
        for jobs, out in ((1, out1), (8, out8)):
            code = cli.main([
                "run", "--scenario", str(golden), "--out", str(out),
                "--jobs", str(jobs), "--seed", "0",
            ])
            if code != 0:
                failures.append(f"{golden.stem}: exit {code} with jobs={jobs}")
    for golden in goldens:
        name = json.loads(golden.read_text()).get("name", golden.stem)
        f1 = out1 / f"{name}.report.json"
        f8 = out8 / f"{name}.report.json"
        if f1.read_bytes() != f8.read_bytes():
            failures.append(f"{name}: reports differ between jobs=1 and jobs=8")
    _verdict("criterion 10: golden suite is byte-identical across --jobs", failures)
