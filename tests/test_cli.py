import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_elliptic_tensor
from ucp2d import cli
from ucp2d import pipeline as pl
from ucp2d.cli import ScenarioFileError, _write_report, load_scenario, main, scenario_dir
from ucp2d.geometry import Rect
from ucp2d.pipeline import StageError, expectations_for
from ucp2d.reduction import reduce_system

BASE = {
    "schema_version": 1,
    "tensor": {
        "a1111": "3", "a1112": "0", "a1122": "1",
        "a1212": "1", "a1222": "0", "a2222": "3",
    },
    "point": [0.0, 0.0],
    "omega": {"center": [0.0, 0.0], "halfwidths": [0.3, 0.3]},
    "grid": {"n": 25},
    "tasks": ["conditions", "reduce"],
}


def write_scenario(tmp_path, name="case.json", **overrides):
    doc = json.loads(json.dumps(BASE))
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_golden_files_all_load():
    files = sorted(scenario_dir().glob("*.json"))
    names = {f.stem for f in files}
    assert names == {
        "lame_constant", "example_4_1_a", "example_4_1_b", "example_exp",
        "example_b221_expy", "example_xy", "example_c22_xy",
        "orthotropic_convex_counterexample", "lame_lower_order", "lame_traced",
    }
    for f in files:
        sc = load_scenario(f)
        assert sc.expect, f"golden {f.stem} must carry expectations"


def test_quick_golden_run_exits_zero(tmp_path):
    golden = scenario_dir() / "orthotropic_convex_counterexample.json"
    code = main(["run", "--scenario", str(golden), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads(
        (tmp_path / "orthotropic_convex_counterexample.report.json").read_text()
    )
    assert report["verdict"]["passed"]
    assert report["conditions"]["delta_min"] == 0.0
    assert report["conditions"]["convexity_margin"] > 0


def test_missing_file_exits_two(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case", ["scenario-is-a-directory", "scenario-not-utf8", "not-json", "out-is-a-file"])
def test_file_system_errors_exit_two_naming_the_path(tmp_path, capsys, case):
    scenario, out = write_scenario(tmp_path), tmp_path / "out"
    if case == "scenario-is-a-directory":
        scenario = out
        out.mkdir()
    elif case == "scenario-not-utf8":
        scenario.write_bytes(b"\xff" + scenario.read_bytes())
    elif case == "not-json":
        scenario.write_text('{"schema_version": 1,\n')
    else:
        out.write_text("")
    named = out if case == "out-is-a-file" else scenario
    code = main(["check", "--scenario", str(scenario), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and str(named) in err, err


def test_unknown_key_rejected(tmp_path, capsys):
    path = write_scenario(tmp_path, bogus_key=1)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_wrong_schema_version_rejected(tmp_path, capsys):
    path = write_scenario(tmp_path, schema_version=7)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert "schema_version" in capsys.readouterr().err


def test_missing_tensor_component_rejected(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE))
    del doc["tensor"]["a1222"]
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert "a1222" in capsys.readouterr().err


def test_malformed_expression_rejected(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE))
    doc["tensor"]["a1111"] = "3 +* x"
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "tensor" in err


@pytest.mark.parametrize("expr", [
    "(" * 600 + "x" + ")" * 600,
    "-" * 2000 + "1",
    "x" + "^x" * 1500,
    "+".join(["x"] * 5000),
], ids=["parentheses", "unary-minuses", "powers", "sum"])
def test_deep_expressions_exit_two_naming_the_key(tmp_path, capsys, expr):
    doc = json.loads((scenario_dir() / "lame_constant.json").read_text())
    doc["tensor"]["a1111"] = expr
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    code = main(["check", "--scenario", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "tensor.a1111:" in err and "deeper than" in err and "Traceback" not in err, err


def test_string_tasks_rejected_naming_tasks(tmp_path, capsys):
    path = write_scenario(tmp_path, tasks="conditions")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "tasks" in err and "unknown tasks: c, o" not in err


@pytest.mark.parametrize("key, value", [
    ("nullspace_threshold", "x"),
    ("picard_tol", None),
    ("rank_threshold", True),
    ("conditions_n", 9.5),
])
def test_non_numeric_tolerance_rejected_naming_key(tmp_path, capsys, key, value):
    path = write_scenario(tmp_path, tolerances={key: value})
    assert main(["nullspace", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert f"tolerances.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["rank_threshold", "picard_tol", "ivp_tol", "nullspace_threshold"])
@pytest.mark.parametrize("value", [0, 0.0, -1e-6])
def test_non_positive_tolerance_rejected_naming_key(tmp_path, capsys, key, value):
    path = write_scenario(tmp_path, tolerances={key: value})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing divides by the tolerance
        assert main(["nullspace", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: tolerances.{key}: expected a positive number")


@pytest.mark.parametrize("key, overrides", [
    ("point", {"point": [float("nan"), 0.0]}),
    ("point", {"point": [10**400, 0.0]}),  # an integer past the float range
    ("omega.center", {"omega": {"center": [0.0, float("-inf")], "halfwidths": [0.3, 0.3]}}),
    ("omega.halfwidths", {"omega": {"center": [0.0, 0.0], "halfwidths": [float("inf"), 0.3]}}),
    ("point_data", {"point_data": [float("nan"), 0.0, 0.0, 0.0, 0.0]}),
    ("tolerances.picard_tol", {"tolerances": {"picard_tol": float("nan")}}),
    ("expect.w_sup_max", {"expect": {"w_sup_max": float("nan")}}),
], ids=["point-nan", "point-huge", "center-ninf", "halfwidths-inf", "point_data-nan",
        "picard_tol-nan", "expect-nan"])
def test_non_finite_number_rejected_naming_key(tmp_path, capsys, key, overrides):
    # json reads NaN, Infinity and -Infinity as floats
    path = write_scenario(tmp_path, tasks=["conditions", "ucp"], **overrides)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: expected ") and "Traceback" not in err
    assert not list(tmp_path.glob("*.report.json"))


def test_integer_tolerance_accepted(tmp_path):
    path = write_scenario(tmp_path, tolerances={"nullspace_threshold": 1, "conditions_n": 5})
    tol = load_scenario(path).tolerances
    assert tol.nullspace_threshold == 1 and tol.conditions_n == 5


def test_identity_case_characteristics_exit_zero(tmp_path):
    # variable orthotropic coefficients: h20 = h02 = 0, h11 varies
    doc = json.loads((scenario_dir() / "example_exp.json").read_text())
    doc["tasks"] = ["characteristics"]
    doc["expect"] = {}
    path = tmp_path / "example_exp.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "example_exp.report.json").read_text())
    assert report["characteristics"]["case"] == "orthotropic-identity"
    assert report["characteristics"]["linear"]


def test_four_value_data_requires_second_marker(tmp_path):
    path = write_scenario(tmp_path, point_data=[0, 0, 0, 0])
    with pytest.raises(ScenarioFileError):
        load_scenario(path)
    path = write_scenario(tmp_path, point_data=[0, 0, 0, 0], point_data_second="uxy")
    with pytest.raises(ScenarioFileError):
        load_scenario(path)
    path = write_scenario(tmp_path, point_data=[0, 0, 0, 0], point_data_second="uyy")
    sc = load_scenario(path)
    assert set(sc.point_data) == {"u", "ux", "uy", "uyy"}


def test_hyperbolicity_violation_exits_two(tmp_path, capsys):
    # mu + lam = 0 puts Delta = 0 everywhere
    path = write_scenario(
        tmp_path,
        tensor={
            "a1111": "1", "a1112": "0", "a1122": "-1",
            "a1212": "1", "a1222": "0", "a2222": "1",
        },
        tasks=["conditions", "reduce", "ucp"],
        point_data=[0.0, 0.0, 0.0, 0.0, 0.0],
    )
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "characteristics" in err and "hyperbolicity" in err


def test_expectation_mismatch_exits_one(tmp_path, capsys):
    path = write_scenario(tmp_path, expect={"rank_at_point": 1})
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "expectation mismatch" in out


@pytest.mark.parametrize("tasks, key, value, task", [
    (["reduce"], "ellipticity_positive", False, "conditions"),
    (["conditions"], "nullspace_dim", 4, "nullspace"),
])
def test_run_rejects_an_expect_key_whose_task_is_not_run(tmp_path, capsys, tasks, key,
                                                         value, task):
    path = golden_copy(tmp_path, "lame_constant", tasks=tasks, expect={key: value})
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: [expect] expect.{key}: reads the {task} task")
    assert not (tmp_path / "lame_constant.report.json").exists()


def test_check_flags_reduced_data_degeneracy(tmp_path):
    path = write_scenario(
        tmp_path,
        tensor={
            "a1111": "100", "a1112": "0", "a1122": "0",
            "a1212": "2", "a1222": "1", "a2222": "1",
        },
        point_data=[0.0, 0.0, 0.0, 0.0],
        point_data_second="uxx",
        expect={"reduced_data_degenerate": True},
    )
    assert main(["check", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "case.report.json").read_text())
    assert report["reduced_data_degenerate"] is True
    assert report["random_sweep"]["margins_are_lower_bounds"]


def test_riemann_subcommand_with_csv(tmp_path):
    path = write_scenario(
        tmp_path, tasks=["conditions"], grid={"n": 33},
        expect={"riemann_residual_max": 1e-10},
    )
    code = main([
        "riemann", "--scenario", str(path), "--out", str(tmp_path),
        "--format", "csv",
    ])
    assert code == 0
    report = json.loads((tmp_path / "case.report.json").read_text())
    assert report["value_at_parameter"] == 1.0
    csv_path = tmp_path / "case.riemann.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + report["nodes_per_axis"] ** 2


def test_dump_writes_component_grids(tmp_path):
    path = write_scenario(tmp_path, grid={"n": 9})
    assert main(["dump", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.glob("case.*.csv"))
    assert "case.delta.csv" in written
    assert "case.a1212.csv" in written
    lines = (tmp_path / "case.delta.csv").read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 81
    # 17 significant digits survive a parse round-trip
    x, y, v = lines[1].split(",")
    assert float(v) == 4.0  # (1+1)^2 for the stored tensor


def test_run_csv_format_writes_discriminant_grid(tmp_path):
    path = write_scenario(tmp_path, grid={"n": 9})
    assert main([
        "run", "--scenario", str(path), "--out", str(tmp_path), "--format", "csv",
    ]) == 0
    lines = (tmp_path / "case.delta.csv").read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 81


def per_line_grid_csv(xs, ys, values):
    """The grid CSV text written one f-string per line: the reference for
    ``cli._write_grid_csv``, which formats a row of lines at once."""
    lines = ["x,y,value\n"]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            lines.append(f"{x:.17g},{y:.17g},{values[i, j]:.17g}\n")
    return "".join(lines)


def test_grid_csv_has_the_bytes_of_one_line_per_write(tmp_path):
    # signed zeros, infinities, NaN and extreme magnitudes, on a grid with
    # more columns than rows, a grid of one column, and the nodes and values
    # of a Riemann table and of a coefficient grid written by the CLI
    rng = np.random.default_rng(11)
    special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 1e300,
                        5e-324, 1.0 / 3.0, 0.1, -2.5])
    values = rng.choice(np.concatenate([special, rng.normal(size=20)]), size=(7, 13))
    xs, ys = np.array([-0.0, 1e-300, 0.5, -1e300, 2.0, 0.1, np.inf]), rng.normal(size=13)
    cases = [(xs, ys, values), (xs[:3], ys[:1], values[:3, :1]),
             ([0.25, -0.0], [1.0, 2.0], np.array([[1, 2], [3, 4]]))]
    for k, (x, y, v) in enumerate(cases):
        path = tmp_path / f"grid{k}.csv"
        cli._write_grid_csv(path, x, y, v)
        assert path.read_text() == per_line_grid_csv(x, y, v), k
    path = write_scenario(tmp_path, tasks=["conditions"], grid={"n": 17})
    scenario = load_scenario(path)
    assert main(["riemann", "--scenario", str(path), "--out", str(tmp_path),
                 "--format", "csv"]) == 0
    _, tsys = pl.characteristics(scenario, reduce_system(scenario.coefficients))
    tab = pl.riemann_section(scenario, tsys)[0]
    assert (tmp_path / "case.riemann.csv").read_text() == per_line_grid_csv(
        tab.s_nodes, tab.t_nodes, tab.values)
    assert main(["dump", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    written = (tmp_path / "case.a1111.csv").read_text()
    assert written == per_line_grid_csv(*cli._field_on_grid(scenario, "a1111"))


def test_reports_are_jobs_invariant(tmp_path):
    path = write_scenario(
        tmp_path,
        tasks=["conditions", "reduce", "characteristics", "riemann", "ucp"],
        point_data=[0.0, 0.0, 0.0, 0.0, 0.0],
        grid={"n": 25},
    )
    out1, out8 = tmp_path / "j1", tmp_path / "j8"
    assert main(["run", "--scenario", str(path), "--out", str(out1), "--jobs", "1"]) == 0
    assert main(["run", "--scenario", str(path), "--out", str(out8), "--jobs", "8"]) == 0
    b1 = (out1 / "case.report.json").read_bytes()
    b8 = (out8 / "case.report.json").read_bytes()
    assert b1 == b8


def test_main_builds_its_parser_once_and_reports_alike_on_every_call(tmp_path, capsys):
    from ucp2d import cli

    cli._parser.cache_clear()
    path = write_scenario(tmp_path)
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert main(["run", "--scenario", str(path), "--out", str(out1)]) == 0
    assert main(["run", "--scenario", str(path), "--out", str(out2)]) == 0
    assert (out1 / "case.report.json").read_bytes() == (out2 / "case.report.json").read_bytes()
    # a bad argument after those calls still exits 2 with the usage
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--scenario", str(path), "--jobs", "many"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ucp2d run ") and "invalid int value: 'many'" in err
    with pytest.raises(SystemExit) as exit_:
        main(["frobnicate"])
    assert exit_.value.code == 2 and capsys.readouterr().err.startswith("usage: ucp2d ")
    assert (cli._parser.cache_info().misses, cli._parser.cache_info().hits) == (1, 3)


def test_seed_changes_sweep_but_not_verdict(tmp_path):
    path = write_scenario(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["check", "--scenario", str(path), "--out", str(out_a), "--seed", "1"]) == 0
    assert main(["check", "--scenario", str(path), "--out", str(out_b), "--seed", "2"]) == 0
    ra = json.loads((out_a / "case.report.json").read_text())
    rb = json.loads((out_b / "case.report.json").read_text())
    assert ra["random_sweep"]["seed"] == 1
    assert rb["random_sweep"]["seed"] == 2
    assert ra["verdict"] == rb["verdict"]


@pytest.mark.parametrize("key, value, named", [
    ("point_data", [None, 0, 0, 0, 0], "point_data"),
    ("point_data", [True, 0, 0, 0, 0], "point_data"),
    ("point", [None, 0], "point"),
    ("omega", 5, "omega"),
    ("omega", {"center": [0], "halfwidths": [0.3, 0.3]}, "omega.center"),
    ("expect", [1, 2], "expect"),
    ("expect", {"nullspace_gap_min": "big"}, "expect.nullspace_gap_min"),
    ("lower_order", [1], "lower_order"),
    ("grid", {"n": True}, "grid"),
    ("name", "sub/dir", "name"),
    ("lower_order", {"b121": "1 +* x"}, "lower_order.b121"),
    ("tensor", dict(BASE["tensor"], a1212=float("inf")), "tensor.a1212"),
    ("grid", {"n": 1}, "grid"),
])
def test_malformed_scenario_exits_two_naming_key(tmp_path, capsys, key, value, named):
    doc = json.loads((scenario_dir() / "lame_constant.json").read_text())
    doc[key] = value
    path = tmp_path / "lame_constant.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert named in err


@pytest.mark.parametrize("key", ["tensor.a1111", "lower_order.c12"])
@pytest.mark.parametrize("value", [True, False, 10**400], ids=["true", "false", "huge_int"])
def test_non_number_coefficient_values_exit_two_naming_key(tmp_path, capsys, key, value):
    # a JSON boolean is not a number, and an integer past the float range
    # is no finite one; both are refused at load time
    section, name = key.split(".")
    path = write_scenario(tmp_path, **{section: dict(BASE.get(section, {}), **{name: value})})
    assert main(["check", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert key in err


@pytest.mark.parametrize("tasks, stage", [
    (["conditions", "reduce"], "[conditions]"),
    (["nullspace"], "[nullspace]"),
])
def test_field_error_inside_stage_names_stage(tmp_path, capsys, tasks, stage):
    # log(x) is undefined on the left half of omega; a1212 enters both equations
    path = write_scenario(tmp_path, tensor=dict(BASE["tensor"], a1212="log(x)"), tasks=tasks)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stage}") and "log" in err


@pytest.mark.parametrize("command", ["check", "nullspace", "riemann"])
def test_unknown_expect_key_exits_two_for_every_command(tmp_path, capsys, command):
    path = write_scenario(tmp_path, expect={"no_such_expectation": 1})
    assert main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert "no_such_expectation" in capsys.readouterr().err


def test_riemann_on_zero_delta_names_characteristics(tmp_path, capsys):
    # Delta = (a1122 + a1212)^2 here, so a1122 = -1 puts Delta = 0 everywhere
    path = write_scenario(tmp_path, tensor=dict(BASE["tensor"], a1122="-1"))
    assert main(["riemann", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "characteristics" in err and "hyperbolicity" in err


def golden_copy(tmp_path, stem, **overrides):
    doc = json.loads((scenario_dir() / f"{stem}.json").read_text())
    doc.update(overrides)
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("command, overrides, stage", [
    ("run", {"grid": {"n": 9}, "tasks": ["nullspace"], "expect": {}}, "nullspace"),
    ("run", {"grid": {"n": 3}}, "riemann"),
    ("riemann", {"grid": {"n": 3}}, "riemann"),
    ("run", {"tolerances": {"picard_tol": 1e-300}}, "riemann"),
    ("riemann", {"tolerances": {"picard_tol": 1e-300}}, "riemann"),
    ("run", {"tolerances": {"conditions_n": 1}}, "conditions"),
    # the base point x = 0 is outside the domain of log(x)
    ("check", {"lower_order": {"b121": "log(x)"}, "point_data": [0.0, 0.0, 0.0, 0.0],
               "point_data_second": "uxx"}, "ucp"),
])
def test_stage_error_names_the_stage(tmp_path, capsys, command, overrides, stage):
    path = golden_copy(tmp_path, "lame_lower_order", **overrides)
    assert main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith(f"error: [{stage}]")


def test_non_contracting_riemann_table_exits_two_naming_the_ucp_stage(tmp_path, capsys):
    # C1 = 2500 grows R on the corner windows until rounding keeps each
    # Picard step above picard_tol; no riemann task runs before the ucp one
    path = golden_copy(tmp_path, "lame_lower_order", tasks=["characteristics", "ucp"],
                       lower_order={"b121": "0.5", "b122": "0.3", "c12": "5000"}, expect={})
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.match(r"error: \[ucp\] Picard iteration for the Riemann table of parameter "
                    r"\(-?[0-9.]+, -?[0-9.]+\) did not contract to 1e-10 within 200 steps "
                    r"\(last sup-norm step [0-9.e+-]+\)$", err.strip())
    assert not (tmp_path / "lame_lower_order.report.json").exists()


def test_unconverged_inverse_iteration_exits_two_naming_the_stage(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pl, "_INVERSE_ITERATION_CAP", 1)
    path = golden_copy(tmp_path, "lame_constant", grid={"n": 17})
    assert main(["nullspace", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: [nullspace] inverse iteration did not converge in 1 steps")
    assert not (tmp_path / "lame_constant.report.json").exists()


def test_reduce_evaluates_only_the_principal_coefficients(tmp_path):
    # log(x) fails on the left half of omega, but b121 is a lower-order
    # coefficient, which neither the conditions nor the reduce stage reads
    expect = json.loads((scenario_dir() / "lame_constant.json").read_text())["expect"]
    tasks = ["conditions", "reduce"]
    path = golden_copy(tmp_path, "lame_constant", lower_order={"b121": "log(x)"},
                       tasks=tasks, expect=expectations_for(expect, tasks))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "lame_constant.report.json").read_text())
    assert report["reduce"]["rank_at_point"] == 2


def test_check_tests_reduced_data_degenerate_for_every_point_data(tmp_path, capsys):
    expect = {"reduced_data_degenerate": True}
    five = golden_copy(tmp_path, "lame_constant", tasks=["conditions"], expect=expect)
    assert main(["check", "--scenario", str(five), "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "lame_constant.report.json").read_text())
    assert report["reduced_data_degenerate"] is False
    assert "reduced_data_degenerate: expected True, got False" in capsys.readouterr().out

    doc = json.loads(five.read_text())
    del doc["point_data"]
    five.write_text(json.dumps(doc))
    assert main(["check", "--scenario", str(five), "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "lame_constant.report.json").read_text())
    assert "reduced_data_degenerate" not in report
    assert "reduced_data_degenerate: expected True, got None" in capsys.readouterr().out


def test_grid_field_error_names_the_field(tmp_path, capsys):
    tensor = json.loads((scenario_dir() / "lame_constant.json").read_text())["tensor"]
    path = golden_copy(tmp_path, "lame_constant", tensor=dict(tensor, a1212="log(x)"))
    assert main(["dump", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("error: a1212: log")
    # no task evaluates a field, so the discriminant grid is the first to fail
    path = golden_copy(tmp_path, "lame_constant", tensor=dict(tensor, a1212="log(x)"), tasks=[],
                       expect={})
    args = ["run", "--scenario", str(path), "--out", str(tmp_path), "--format", "csv"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("error: delta: log")


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("a1212, named", [
    ("1e400*x + 1", "error: tensor.a1212: number literal 1e400 is not finite"),
    ("1 + 0*10^400", "error: [conditions] non-finite value"),  # the fold overflows
])
def test_overflowing_tensor_literal_exits_two_naming_key_or_stage(
        tmp_path, capsys, recwarn, command, a1212, named):
    tensor = dict(BASE["tensor"], a1212=a1212)
    path = golden_copy(tmp_path, "lame_constant", tensor=tensor, tasks=["conditions"], expect={})
    assert main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(named) and "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["run", "check"])
def test_huge_finite_coefficients_exit_two_naming_the_stage(tmp_path, capsys, recwarn, command):
    tensor = dict(BASE["tensor"], a1111=1e308, a2222=1e308)
    path = golden_copy(tmp_path, "lame_constant", tensor=tensor, tasks=["conditions", "reduce"],
                       expect={})
    assert main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert re.match(r"error: \[(conditions|reduce)\] ", err) and "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not list(tmp_path.glob("*.report.json"))


def test_report_with_a_non_finite_value_is_not_written(tmp_path):
    with pytest.raises(StageError, match=r"^\[report\] "):
        _write_report({"value": float("inf")}, tmp_path, "case")
    assert not list(tmp_path.iterdir())


def test_check_names_the_random_sweep_on_a_field_error(tmp_path, capsys):
    # negative only for 0.09 < x < 0.13, between the nodes of the audit grid
    tensor = dict(BASE["tensor"], a1212="1 + 0*sqrt((x - 0.11)^2 - 0.0004)")
    path = golden_copy(tmp_path, "lame_constant", tensor=tensor, tasks=["conditions"], expect={})
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    assert main(["check", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: [random_sweep] sqrt of a negative")


# -- the CLI contract on generated tensor expressions ---------------------

_FUZZ_ATOMS = [
    "3", "1", "0.5 + 0.1*x", "1 + 0.2*y", "(-0)", "0*(-0)", "1 + (-0)*x",
    "1e400", "1e308*10", "10^400", "0*10^400", "exp(1000*x)",
    "log(x - 1)", "log(-1 - y^2)", "sqrt(-1 - x)", "(-2)^0.5",
    "sqrt((x - 0.11)^2 - 0.0004)",  # negative only between audit grid nodes
    "1/0", "1/(x - x)", "x/(y - y)",
]
_fuzz_expr = st.one_of(
    st.sampled_from(_FUZZ_ATOMS),
    st.tuples(st.sampled_from(_FUZZ_ATOMS), st.sampled_from("+-*/^"),
              st.sampled_from(_FUZZ_ATOMS)).map(lambda t: f"{t[0]} {t[1]} ({t[2]})"),
    st.sampled_from([3.0, -0.0, 1e308, float("inf")]),  # JSON numbers, Infinity too
)
_NAMES_KEY_OR_STAGE = re.compile(
    r"error: (\[(conditions|reduce|random_sweep)\] |tensor\.a(1111|1112|1122|1212|1222|2222): )"
)


@st.composite
def _fuzz_tensor(draw):
    """A random elliptic constant tensor with some components replaced."""
    coeffs = random_elliptic_tensor(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    tensor = {k: repr(float(getattr(coeffs, k)(0.0, 0.0))) for k in BASE["tensor"]}
    for key in draw(st.sets(st.sampled_from(sorted(tensor)))):
        tensor[key] = draw(_fuzz_expr)
    return tensor


@given(_fuzz_tensor())
@settings(max_examples=60, deadline=None)
def test_check_keeps_the_cli_contract_on_generated_tensors(tensor):
    doc = dict(BASE, tensor=tensor, grid={"n": 9}, tolerances={"conditions_n": 3})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["check", "--scenario", str(path), "--out", tmp])
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert _NAMES_KEY_OR_STAGE.match(err), err


def test_overflow_while_tracing_characteristics_exits_two_naming_the_stage(
        tmp_path, capsys, recwarn):
    # the slope stays moderate but its y-derivative is near 1e200, so the
    # sensitivity overflows in the Runge-Kutta update of the traced map
    tensor = dict(BASE["tensor"], a1112="0.3 + 1e-3*sin(1e200*y)")
    path = write_scenario(tmp_path, tasks=["characteristics", "riemann"], grid={"n": 9})
    path.write_text(json.dumps(dict(json.loads(path.read_text()), tensor=tensor)))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [characteristics] overflow encountered") and "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not list(tmp_path.glob("*.report.json"))


# -- the CLI contract for run on traced characteristic maps ------------------

_TRACED_PARTS = [
    "0.3 + 0.2*x", "0.2*y - 0.25", "0.3 + 0.1*sin(4*y)", "0.25*exp(x*y)",
    "sqrt(-1 - x)", "log(x - 1)", "1/(x - x)", "sqrt((x - 0.11)^2 - 0.0004)",
    "exp(1000*x)", "1e300*x*y", "1e-3*sin(1e200*y)", "0.3*10^(300*y)",
]
_NAMES_RUN_KEY_OR_STAGE = re.compile(
    r"error: (\[(characteristics|riemann)\] |tensor\.a(1112|1222): )"
)


@st.composite
def _traced_tensor(draw):
    """The Lame tensor with a1112 or a1222 (or both) made variable."""
    part = st.sampled_from(_TRACED_PARTS)
    tensor = dict(BASE["tensor"])
    for key in draw(st.sets(st.sampled_from(["a1112", "a1222"]), min_size=1)):
        tensor[key] = draw(st.one_of(
            part, st.tuples(part, part).map(lambda t: f"{t[0]} + {t[1]}")))
    return tensor


@given(_traced_tensor())
@settings(max_examples=25, deadline=None)
def test_run_keeps_the_cli_contract_on_traced_maps(tensor):
    doc = dict(BASE, tensor=tensor, grid={"n": 9}, tasks=["characteristics", "riemann"])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--scenario", str(path), "--out", tmp])
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert _NAMES_RUN_KEY_OR_STAGE.match(err), err


_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def _run_python(args, **blas_env):
    """Run ``python args`` on this checkout's ``src`` with both BLAS thread
    variables removed from the environment, then set from ``blas_env``."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    env.update(blas_env)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True)


@pytest.mark.parametrize("blas_env, expected", [
    ({}, ["1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["1", "2"]),
], ids=["unset", "caller-set"])
def test_import_sets_one_blas_thread_unless_the_caller_chose(blas_env, expected):
    code = "import os, ucp2d; print(*(os.environ[k] for k in %r))" % (_BLAS_THREAD_VARS,)
    assert _run_python(["-c", code], **blas_env).stdout.split() == expected


# Runs ``cli.main(argv)``, or with ``[]`` loads every golden, then prints
# its exit code, the scipy modules loaded after ``import ucp2d.cli``, the
# thread variables as the first scipy import saw them (null if none ran),
# and the scipy modules loaded at the end.
_SCIPY_PROBE = """
import json, os, sys
from ucp2d import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

class FirstScipyImport:
    env = None

    def find_spec(self, name, path=None, target=None):
        if name == "scipy" and self.env is None:
            self.env = [os.environ.get(k) for k in %r]
        return None

after_import, watch = scipy_modules(), FirstScipyImport()
sys.meta_path.insert(0, watch)
argv, code = json.loads(sys.argv[1]), 0
if argv:
    code = cli.main(argv)
else:
    for path in sorted(cli.scenario_dir().glob("*.json")):
        cli.load_scenario(path)
print(json.dumps([code, after_import, watch.env, scipy_modules()]))
""" % (_BLAS_THREAD_VARS,)


def _scipy_probe(argv, **blas_env):
    done = _run_python(["-c", _SCIPY_PROBE, json.dumps(argv)], **blas_env)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("command, golden", [
    (None, None), ("run", "lame_traced"), ("nullspace", "lame_constant"),
], ids=["load-goldens", "run", "nullspace"])
def test_only_the_null_space_loads_scipy(tmp_path, command, golden):
    # set-up and every stage but the null space run on numpy alone
    argv = [command, "--scenario", str(scenario_dir() / f"{golden}.json"),
            "--out", str(tmp_path)] if command else []
    code, after_import, _, loaded = _scipy_probe(argv)
    assert code == 0 and after_import == []
    assert bool(loaded) == (command == "nullspace"), loaded


def test_nullspace_report_is_the_same_with_blas_variables_unset_or_one(tmp_path):
    # scipy loads at the first null-space solve, after importing ucp2d has
    # set both variables, so its OpenBLAS reads one thread as numpy's does
    golden = str(scenario_dir() / "lame_constant.json")
    argv = ["nullspace", "--scenario", golden, "--out"]
    code, after_import, env_at_scipy_load, _ = _scipy_probe([*argv, str(tmp_path / "unset")])
    assert code == 0 and after_import == [] and env_at_scipy_load == ["1", "1"]
    _run_python(["-m", "ucp2d", *argv, str(tmp_path / "one")],
                **dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    reports = [(tmp_path / name / "lame_constant.report.json").read_bytes()
               for name in ("unset", "one")]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("a1212, lower_bounds", [
    ("1 - 0.5*exp(-50*(x-0.15)^2)", True),
    ("1 - 2*exp(-2000*(x-0.0375)^2)", False),
], ids=["wide_dip", "narrow_dip"])
def test_random_sweep_tests_the_reported_margins(tmp_path, a1212, lower_bounds):
    # the wide dip bottoms out on an audit node (x = 0.15), so its
    # reported margins are lower bounds; the narrow dip bottoms out
    # between two nodes
    path = write_scenario(tmp_path, tensor=dict(BASE["tensor"], a1212=a1212))
    assert main(["check", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "case.report.json").read_text())
    assert report["random_sweep"]["margins_are_lower_bounds"] is lower_bounds


@pytest.mark.parametrize("omega", [Rect.square(0.0, 0.0, 0.3), Rect((0.1, -3.0), (1.3, 0.4)),
                                   Rect((-2.5, 7.0), (1e-3, 2.25))])
@pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**40 + 3])
def test_sweep_draws_are_the_uniform_draws_bit_for_bit(omega, seed):
    rng = np.random.default_rng(seed)
    want = np.array([
        (rng.uniform(*omega.xlim), rng.uniform(*omega.ylim),
         *rng.uniform(0, np.pi, 2), *rng.standard_normal(3))
        for _ in range(200)
    ])
    assert cli._sweep_draws(seed, omega).tobytes() == want.tobytes()
