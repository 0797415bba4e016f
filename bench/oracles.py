"""Oracles for every report the benchmark produces, computed apart from
``ucp2d``: closed forms, the paper's examples, and brute-force scans in
plain numpy.  Nothing here imports the package or reads a saved report.

Each ``check_*`` function takes what the program wrote and returns a
list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import math

import numpy as np

# Family dimensions of the paper's examples (dimension of the local
# solution family of the reduced pair).
GOLDEN_DIMENSIONS = {
    "lame_constant": 4,
    "example_4_1_a": 4,
    "example_4_1_b": 4,
    "example_exp": 2,
    "example_b221_expy": 3,
    "example_xy": 1,
    "example_c22_xy": 0,
}
# 1, x, y and one quadratic solve both constant equations; no cubic does.
CONSTANT_TENSOR_DIMENSION = 4
GAP_MIN = 1e3
PICARD_TOL = 1e-10          # the scenarios use the default tolerance
TRACES_SUP_MAX = 1e-10
W_SUP_MAX = 1e-8
# The trapezoid Picard solver is second order; the measured deviation
# from the closed form is 8e-4 h^2 at 65 and at 129 nodes per axis.
RIEMANN_H2_FACTOR = 4e-3
# The program refines its 0.5-degree direction grid by one Newton step;
# the scan below is exact in xi and samples eta on 2^14 angles.
ELLIPTICITY_RTOL = 1e-6
AUDIT_RTOL = 1e-12
CONDITIONS_N = 9


def _close(got, want, rtol, scale=1.0):
    return abs(got - want) <= rtol * max(abs(want), scale)


# -- coefficient functions -------------------------------------------------


def constant_functions(components):
    """Numpy callables ``(x, y) -> value`` for constant components."""
    return {k: (lambda x, y, v=float(v): np.full(np.broadcast(x, y).shape, v))
            for k, v in components.items()}


def delta_values(funcs, x, y):
    """Hyperbolicity discriminant (a1212 + a1122)^2 - 4 a1112 a1222."""
    s = funcs["a1212"](x, y) + funcs["a1122"](x, y)
    return s * s - 4.0 * funcs["a1112"](x, y) * funcs["a1222"](x, y)


def ellipticity_scan(funcs, x, y, n_angles=2**14):
    """Minimum of the strong-ellipticity form over unit xi, eta and the
    points ``(x, y)``.

    For fixed eta the form is xi . M(eta) xi with
    ``M_ik = a_ijkl eta_j eta_l``, so its minimum over xi is the smaller
    eigenvalue of a symmetric 2 x 2 matrix; eta is scanned on a grid.
    """
    x, y = np.ravel(x), np.ravel(y)
    values = {k: np.broadcast_to(f(x, y), x.shape) for k, f in funcs.items()}
    th = np.linspace(0.0, np.pi, n_angles, endpoint=False)
    cc, cs, ss = np.cos(th) ** 2, np.cos(th) * np.sin(th), np.sin(th) ** 2
    best = np.inf
    # one point at a time keeps the arrays small, so the oracle does not
    # raise the peak memory that the benchmark reports
    for i in range(x.size):
        a = {k: float(v[i]) for k, v in values.items()}
        m11 = a["a1111"] * cc + 2 * a["a1112"] * cs + a["a1212"] * ss
        m12 = a["a1112"] * cc + (a["a1122"] + a["a1212"]) * cs + a["a1222"] * ss
        m22 = a["a1212"] * cc + 2 * a["a1222"] * cs + a["a2222"] * ss
        lam = 0.5 * (m11 + m22) - np.hypot(0.5 * (m11 - m22), m12)
        best = min(best, float(lam.min()))
    return best


def convexity_values(funcs, x, y):
    """Smallest eigenvalue of the strain form, per point, in the
    orthonormal strain basis (e11, e22, sqrt(2) e12)."""
    a = {k: np.ravel(np.asarray(f(x, y), dtype=float)) for k, f in funcs.items()}
    r2 = math.sqrt(2.0)
    mats = np.stack([
        np.stack([a["a1111"], a["a1122"], r2 * a["a1112"]], -1),
        np.stack([a["a1122"], a["a2222"], r2 * a["a1222"]], -1),
        np.stack([r2 * a["a1112"], r2 * a["a1222"], 2 * a["a1212"]], -1),
    ], -2)
    return np.linalg.eigvalsh(mats)[:, 0]


# -- null space ------------------------------------------------------------


def check_nullspace(report, dimension):
    """Dimension from the paper (or 4 for a constant tensor without
    lower-order terms), a clear spectral gap, and basis vectors whose
    residuals sit under the detection threshold."""
    ns = report.get("nullspace")
    if ns is None:
        return ["nullspace section missing"]
    problems = []
    if ns["dimension"] != dimension:
        problems.append(f"dimension {ns['dimension']}, expected {dimension}")
    if not ns["gap"] >= GAP_MIN:
        problems.append(f"gap {ns['gap']:.3g} < {GAP_MIN:g}")
    if ns["ambiguous"]:
        problems.append("dimension marked ambiguous")
    res = ns["basis_residuals"]
    if len(res) != ns["dimension"] or any(not r <= ns["threshold"] for r in res):
        problems.append(f"basis residuals {res} not under threshold {ns['threshold']:g}")
    return problems


def null_space_defect(basis, values):
    """Distance of the unit-normalised grid function ``values`` from the
    span of ``basis`` (rows are grid functions), in the grid 2-norm."""
    g = np.ravel(values).astype(float)
    g = g / np.linalg.norm(g)
    if len(basis) == 0:
        return 1.0
    q, _ = np.linalg.qr(np.reshape(basis, (len(basis), -1)).T)
    return float(np.linalg.norm(g - q @ (q.T @ g)))


# -- coefficient audits ----------------------------------------------------


def check_audits(report, funcs, omega, n=CONDITIONS_N):
    """Audit values of ``ucp2d check`` against the generating functions
    on the same ``n x n`` grid."""
    cx, cy = omega["center"]
    hx, hy = omega["halfwidths"]
    xg, yg = np.meshgrid(np.linspace(cx - hx, cx + hx, n),
                         np.linspace(cy - hy, cy + hy, n), indexing="ij")
    cond, red = report.get("conditions"), report.get("reduce")
    if cond is None or red is None:
        return ["conditions or reduce section missing"]
    problems = []
    delta = delta_values(funcs, xg, yg)
    for key, want in (("delta_min", delta.min()), ("delta_max", delta.max())):
        if not _close(cond[key], want, AUDIT_RTOL):
            problems.append(f"{key} {cond[key]!r}, expected {want!r}")
    scale = max(float(np.max(np.abs(f(xg, yg)))) for f in funcs.values())
    ell = ellipticity_scan(funcs, xg, yg)
    if not abs(cond["ellipticity_margin"] - ell) <= ELLIPTICITY_RTOL * scale:
        problems.append(f"ellipticity_margin {cond['ellipticity_margin']!r}, scan gives {ell!r}")
    cvx = float(convexity_values(funcs, xg, yg).min())
    if not _close(cond["convexity_margin"], cvx, AUDIT_RTOL, scale):
        problems.append(f"convexity_margin {cond['convexity_margin']!r}, expected {cvx!r}")

    a = {k: float(f(cx, cy)) for k, f in funcs.items()}
    hyper = [a["a1112"], a["a1212"] + a["a1122"], a["a1222"]]
    ell2 = [a["a1212"], 2 * a["a1222"], a["a2222"]]
    for key, want in (("hyper_second_order", hyper), ("ell_second_order", ell2)):
        if not all(_close(g, w, AUDIT_RTOL, scale) for g, w in zip(red[key], want)):
            problems.append(f"{key} {red[key]}, expected {want}")
    sv = np.linalg.svd(np.array([hyper, ell2]), compute_uv=False)
    rank = int(np.sum(sv > 1e-9 * sv[0]))
    if red["rank_at_point"] != rank:
        problems.append(f"rank_at_point {red['rank_at_point']}, expected {rank}")
    e20, e11, e02 = funcs["a1212"](xg, yg), 2 * funcs["a1222"](xg, yg), funcs["a2222"](xg, yg)
    edisc = float(np.max(e11 * e11 - 4 * e20 * e02))
    if not _close(red["elliptic_discriminant_max"], edisc, AUDIT_RTOL, scale**2):
        problems.append(
            f"elliptic_discriminant_max {red['elliptic_discriminant_max']!r}, expected {edisc!r}")
    # four-value data with uxx given: (uxy, uyy) solve a 2 x 2 system
    sv2 = np.linalg.svd(np.array([hyper[1:], ell2[1:]]), compute_uv=False)
    degenerate = bool(sv2[1] <= 1e-9 * sv2[0])
    if report.get("reduced_data_degenerate") is not degenerate:
        problems.append(f"reduced_data_degenerate {report.get('reduced_data_degenerate')}, "
                        f"expected {degenerate}")
    sweep = report.get("random_sweep", {})
    if sweep.get("margins_are_lower_bounds") is not True:
        problems.append("random sweep found a form value under a certified margin")
    return problems + _verdict(report)


def _verdict(report):
    verdict = report.get("verdict", {})
    if verdict.get("passed") is not True:
        return [f"verdict failed: {verdict.get('failures')}"]
    return []


# -- vanishing chain -------------------------------------------------------


def constant_normal_form(tensor, lower):
    """(B11, B12, C1) of an orthotropic constant tensor (a1112 = a1222 = 0),
    whose characteristic map is the identity: the hyperbolic equation
    divided by its mixed coefficient a1212 + a1122."""
    if tensor["a1112"] != 0 or tensor["a1222"] != 0:
        raise ValueError("closed form needs a1112 = a1222 = 0")
    mixed = tensor["a1212"] + tensor["a1122"]
    return tuple(lower.get(k, 0.0) / mixed for k in ("b121", "b122", "c12"))


def riemann_closed_form(b11, b12, c1, s, t, xi=0.0, eta=0.0, terms=60):
    """Riemann function of ds dt w + B11 ds w + B12 dt w + C1 w = 0 with
    constant coefficients::

        R = exp(B12 (s - xi) + B11 (t - eta))
            * sum_k (-(C1 - B11 B12) (s - xi) (t - eta))^k / (k!)^2
    """
    ds, dt = np.asarray(s, float) - xi, np.asarray(t, float) - eta
    z = -(c1 - b11 * b12) * ds * dt
    term, series = np.ones_like(z), np.ones_like(z)
    for k in range(1, terms):
        term = term * z / (k * k)
        series = series + term
    return np.exp(b12 * ds + b11 * dt) * series


def _vanishing(report, riemann_residual_max=PICARD_TOL):
    problems = []
    rie = report.get("riemann")
    if rie is None or not rie["residual"] <= riemann_residual_max:
        problems.append(f"riemann residual {rie and rie['residual']} > {riemann_residual_max:g}")
    if rie is not None and rie["value_at_parameter"] != 1.0:
        problems.append(f"R at its parameter is {rie['value_at_parameter']!r}, not 1")
    return problems


def check_constant_chain(report, tensor, lower):
    """Scenarios (a) and (b): identity map, normal-form coefficients in
    closed form, and the paper's conclusion -- zero point data forces
    zero traces and a zero solution."""
    ch, ucp = report.get("characteristics"), report.get("ucp")
    if ch is None or ucp is None:
        return ["characteristics or ucp section missing"]
    problems = []
    if ch["case"] != "orthotropic-identity" or ch["linear"] is not True:
        problems.append(f"map case {ch['case']} (linear {ch['linear']}), expected the identity")
    nf = ch["normal_form_coefficients_at_origin"]
    b11, b12, c1 = constant_normal_form(tensor, lower)
    want = {"B11": b11, "B12": b12, "C1": c1, "A11": tensor["a1212"],
            "A12": tensor["a1222"], "A22": tensor["a2222"]}
    for key, w in want.items():
        if not _close(nf[key], w, AUDIT_RTOL):
            problems.append(f"{key} {nf[key]!r}, expected {w!r}")
    if ch["det_jacobian_range"] != [1.0, 1.0]:
        problems.append(f"identity map has det J range {ch['det_jacobian_range']}")
    if not ch["elliptic_discriminant_max"] < 0:
        problems.append("transformed elliptic discriminant is not negative")
    problems += _vanishing(report)
    if ucp.get("data_mode") != "five-value" or "declined" in ucp:
        problems.append(f"ucp stage did not run the chain: {ucp}")
        return problems
    if not ucp["transferred_max"] <= 1e-12:
        problems.append(f"transferred data {ucp['transferred_max']!r} not zero")
    for key, bound in (("phi_sup", TRACES_SUP_MAX), ("psi_sup", TRACES_SUP_MAX),
                       ("w_sup", W_SUP_MAX)):
        if not ucp[key] <= bound:
            problems.append(f"{key} {ucp[key]!r} > {bound:g}")
    return problems + _verdict(report)


def check_riemann_csv(report, csv_path, normal_form):
    """Full Riemann table of ``ucp2d riemann --format csv`` against the
    closed form, with a bound that scales with h^2."""
    b11, b12, c1 = normal_form
    grid = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    nodes = report["nodes_per_axis"]
    if grid.shape != (nodes * nodes, 3):
        return [f"CSV holds {grid.shape[0]} rows, expected {nodes * nodes}"]
    eps = report["epsilon"]
    axis = np.linspace(-eps, eps, nodes)
    s, t = grid[:, 0], grid[:, 1]
    if not (np.allclose(s, np.repeat(axis, nodes), rtol=0, atol=1e-15)
            and np.allclose(t, np.tile(axis, nodes), rtol=0, atol=1e-15)):
        return ["CSV nodes are not the uniform grid on [-epsilon, epsilon]^2"]
    h = axis[1] - axis[0]
    dev = float(np.max(np.abs(grid[:, 2] - riemann_closed_form(b11, b12, c1, s, t))))
    problems = []
    if not dev <= RIEMANN_H2_FACTOR * h * h:
        problems.append(f"Riemann table deviates by {dev:.3g} > {RIEMANN_H2_FACTOR:g} h^2")
    lo, hi = report["value_range"]
    if lo != grid[:, 2].min() or hi != grid[:, 2].max():
        problems.append("value_range does not match the CSV grid")
    if not report["residual"] <= PICARD_TOL:
        problems.append(f"riemann residual {report['residual']!r} > {PICARD_TOL:g}")
    return problems + _verdict(report)


def check_traced_chain(report):
    """Scenario (c): traced map whose Jacobian stays away from zero, an
    elliptic transformed operator, and a converged Riemann table."""
    ch = report.get("characteristics")
    if ch is None:
        return ["characteristics section missing"]
    problems = []
    if ch["case"] != "a1112-nonzero" or ch["linear"] is not False:
        problems.append(f"map case {ch['case']} (linear {ch['linear']}), expected a traced map")
    lo, hi = ch["det_jacobian_range"]
    if not (lo > 0 and lo >= 0.1 * hi):
        problems.append(f"det J range {ch['det_jacobian_range']} comes close to 0")
    if not ch["elliptic_discriminant_max"] < 0:
        problems.append("transformed elliptic discriminant is not negative")
    return problems + _vanishing(report) + _verdict(report)
