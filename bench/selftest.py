"""Self-tests of the benchmark.

Every oracle accepts the program's real output and rejects a wrong one
(a perturbed grid, a dimension off by one, a shifted margin); known
solutions lie in the computed null space; tracing leaves every output
byte-identical and its counts repeat exactly.

    python3 -m pytest -q bench/selftest.py

The file is not named ``test_*.py`` so that the repository's own test
run does not collect it: it solves two null spaces at n = 65, which
takes about a minute.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ucp2d import cli  # noqa: E402
from ucp2d import pipeline as pl  # noqa: E402
from ucp2d.reduction import reduce_system  # noqa: E402


@pytest.fixture(scope="module")
def ops(tmp_path_factory):
    """Operations of every workload (random-batch at seed 0), by ident."""
    out = {}
    for name in workloads.WORKLOADS:
        scen = tmp_path_factory.mktemp(name)
        out.update({op.ident: op for op in workloads.build(name, 0, bench.ROOT, scen)})
    return out


def _with_grid(op, n, tmp_path):
    """Copy of ``op`` whose scenario file uses an n x n grid."""
    doc = json.loads(op.scenario.read_text())
    doc["grid"] = {"n": n}
    path = tmp_path / op.scenario.name
    path.write_text(json.dumps(doc))
    return workloads.Op(op.ident, op.command, path, op.check, op.extra)


def _run(op, out):
    assert cli.main(op.argv(out)) == 0
    return out


def _report(out, name):
    return json.loads((out / f"{name}.report.json").read_text())


def _rejects(check, report, path, value):
    """``check`` on a copy of ``report`` with ``path`` set to ``value``."""
    bad = copy.deepcopy(report)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return bool(check(bad))


def test_riemann_grid_oracle(ops, tmp_path):
    op = ops["riemann:chain_b"]
    out = _run(op, tmp_path)
    assert op.check(out) == []
    report = _report(out, "chain_b")
    nf = op.check.keywords["normal_form"]
    csv = out / "chain_b.riemann.csv"
    lines = csv.read_text().splitlines()
    x, y, v = lines[1000].split(",")
    lines[1000] = f"{x},{y},{float(v) + 1e-6!r}"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert oracles.check_riemann_csv(report, bad, nf)
    assert oracles.check_riemann_csv(report, csv, (nf[0] + 1e-3, nf[1], nf[2]))
    assert oracles.check_riemann_csv(report, csv, (nf[0], nf[1], nf[2] * 1.01))


def test_constant_chain_oracle(ops, tmp_path):
    op = _with_grid(ops["run:chain_b"], 17, tmp_path)
    out = _run(op, tmp_path / "out")
    assert op.check(out) == []
    report = _report(out, "chain_b")

    def chain(r):
        return oracles.check_constant_chain(r, op.check.keywords["tensor"],
                                            op.check.keywords["lower"])

    for path, value in [
        (("ucp", "w_sup"), 2e-8),
        (("ucp", "phi_sup"), 1e-9),
        (("ucp", "psi_sup"), 1e-9),
        (("characteristics", "normal_form_coefficients_at_origin", "B11"), 0.25 + 1e-9),
        (("characteristics", "normal_form_coefficients_at_origin", "C1"), 0.0),
        (("riemann", "residual"), 2e-10),
        (("characteristics", "case"), "a1112-nonzero"),
    ]:
        assert _rejects(chain, report, path, value), path


def test_traced_chain_oracle(ops, tmp_path):
    op = _with_grid(ops["run:chain_c"], 17, tmp_path)
    out = _run(op, tmp_path / "out")
    assert op.check(out) == []
    report = _report(out, "chain_c")
    lo, hi = report["characteristics"]["det_jacobian_range"]
    for path, value in [
        (("characteristics", "det_jacobian_range"), [1e-3 * hi, hi]),
        (("characteristics", "elliptic_discriminant_max"), 0.5),
        (("characteristics", "linear"), True),
        (("riemann", "residual"), 2e-10),
        (("riemann", "value_at_parameter"), 1.0 + 1e-12),
    ]:
        assert _rejects(oracles.check_traced_chain, report, path, value), path


def test_nullspace_oracle(ops, tmp_path):
    op = _with_grid(ops["nullspace:const_00"], 17, tmp_path)
    out = _run(op, tmp_path / "out")
    assert op.check(out) == []
    report = _report(out, "const_00")
    dim = oracles.CONSTANT_TENSOR_DIMENSION
    assert oracles.check_nullspace(report, dim + 1)
    assert oracles.check_nullspace(report, dim - 1)
    check = lambda r: oracles.check_nullspace(r, dim)  # noqa: E731
    assert _rejects(check, report, ("nullspace", "dimension"), dim + 1)
    assert _rejects(check, report, ("nullspace", "gap"), 999.0)
    assert _rejects(check, report, ("nullspace", "basis_residuals"), [0.0] * (dim - 1))


def test_audit_oracle(ops, tmp_path):
    op = ops["check:var_00"]
    out = _run(op, tmp_path)
    assert op.check(out) == []
    report = _report(out, "var_00")
    cond = report["conditions"]

    def audits(r):
        return oracles.check_audits(r, op.check.keywords["funcs"], workloads.OMEGA)

    for path, value in [
        (("conditions", "ellipticity_margin"), cond["ellipticity_margin"] + 1e-3),
        (("conditions", "ellipticity_margin"), cond["ellipticity_margin"] - 1e-3),
        (("conditions", "convexity_margin"), cond["convexity_margin"] * (1 + 1e-9)),
        (("conditions", "delta_min"), cond["delta_min"] * (1 + 1e-9)),
        (("conditions", "delta_max"), cond["delta_min"]),
        (("reduce", "rank_at_point"), 1),
        (("reduce", "elliptic_discriminant_max"),
         report["reduce"]["elliptic_discriminant_max"] * (1 - 1e-9)),
        (("reduced_data_degenerate",), True),
        (("random_sweep", "margins_are_lower_bounds"), False),
    ]:
        assert _rejects(audits, report, path, value), path


@pytest.mark.parametrize("name, functions", [
    ("lame_constant", {"1": lambda x, y: np.ones_like(x), "x": lambda x, y: x,
                       "y": lambda x, y: y}),
    ("example_exp", {"1": lambda x, y: np.ones_like(x), "exp(-x)": lambda x, y: np.exp(-x)}),
])
def test_known_solutions_in_null_space(name, functions):
    sc = cli.load_scenario(cli.scenario_dir() / f"{name}.json")
    res = pl.null_space_dimension(
        reduce_system(sc.coefficients), sc.omega, sc.n, sc.tolerances.nullspace_threshold)
    assert res.dimension == oracles.GOLDEN_DIMENSIONS[name]
    xg, yg = np.meshgrid(*res.grid, indexing="ij")
    for label, f in functions.items():
        defect = oracles.null_space_defect(res.basis, f(xg, yg))
        assert defect <= 1e-6, (label, defect)
    assert oracles.null_space_defect(res.basis, xg * yg * yg * yg) > 1e-3


def test_known_solutions_random_constant_tensor(ops):
    sc = cli.load_scenario(ops["nullspace:const_01"].scenario)
    res = pl.null_space_dimension(reduce_system(sc.coefficients), sc.omega, sc.n)
    xg, yg = np.meshgrid(*res.grid, indexing="ij")
    for values in (np.ones_like(xg), xg, yg):
        assert oracles.null_space_defect(res.basis, values) <= 1e-6


def test_tracing_keeps_reports_and_repeats_counts(ops, tmp_path):
    small = [ops["riemann:chain_b"], _with_grid(ops["nullspace:const_00"], 17, tmp_path),
             ops["check:var_00"], _with_grid(ops["run:chain_b"], 17, tmp_path)]
    _, failed, problems = bench.run_pass(cli, small, tmp_path / "plain")
    assert (failed, problems) == (0, [])
    counts = []
    for k in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            _, failed, problems = bench.run_pass(cli, small, tmp_path / f"traced{k}", tracer)
        assert (failed, problems) == (0, [])
        assert bench.differing_files(tmp_path / "plain", tmp_path / f"traced{k}") == []
        metrics = tracer.metrics(overhead_s=0.0)
        counts.append({m: v["value"] for m, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["riemann.tables"] > 0 and counts[0]["nullspace.nnz"] > 0
    assert counts[0]["characteristics.traced_maps"] == 0
    # wrappers are removed again
    assert cli.main.__module__ == "ucp2d.cli"


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in tracing.METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
