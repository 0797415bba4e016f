"""Batch front end: scenario files in, machine-readable reports out.

Subcommands::

    check      audit coefficient conditions (plus reduction diagnostics)
    run        execute the scenario's task list end to end
    nullspace  solution-family dimension only
    riemann    solve one Riemann table on the transformed system
    dump       write coefficient and discriminant grids as CSV

Exit codes: 0 all expectations met, 1 expectation mismatch, 2 input or
stage error.  Reports are single JSON documents with sorted keys; CSV
grids carry the header ``x,y,value`` with 17 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from ucp2d import __version__
from ucp2d import pipeline as pl
from ucp2d import tensors
from ucp2d.fields import FieldError
from ucp2d.geometry import Rect
from ucp2d.reduction import discriminant, reduce_system

SCHEMA_VERSION = 1
_TOP_KEYS = {
    "schema_version", "name", "tensor", "lower_order", "point", "omega",
    "grid", "tolerances", "tasks", "point_data", "point_data_second", "expect",
}
_POINT_DATA_5 = ("u", "ux", "uy", "uxx", "uyy")


class ScenarioFileError(ValueError):
    """Scenario file rejected; message names the offending key."""


def scenario_dir():
    """Directory holding the shipped golden scenario files."""
    return Path(__file__).resolve().parent / "scenarios"


def load_scenario(path):
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ScenarioFileError(f"scenario file not found: {path}")
    except OSError as err:  # a directory, or a file that cannot be read
        raise ScenarioFileError(f"scenario file cannot be read: {path}: {err.strerror or err}")
    except UnicodeDecodeError as err:
        raise ScenarioFileError(f"scenario file is not UTF-8 text: {path}: {err}")
    except json.JSONDecodeError as err:
        raise ScenarioFileError(f"scenario file is not valid JSON: {path}: {err}")
    if not isinstance(raw, dict):
        raise ScenarioFileError("scenario file must hold a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ScenarioFileError(f"unknown scenario keys: {', '.join(sorted(unknown))}")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioFileError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    for key in ("tensor", "point", "omega", "grid", "tasks"):
        if key not in raw:
            raise ScenarioFileError(f"missing scenario key: {key}")
    for key in ("tensor", "lower_order", "omega", "grid", "tolerances"):
        if key in raw and not isinstance(raw[key], dict):
            raise ScenarioFileError(f"{key}: expected an object, got {raw[key]!r}")
    for key in ("tensor", "lower_order"):
        for name, value in raw.get(key, {}).items():
            error = pl.json_type_error(f"{key}.{name}", value, float)
            if error and not isinstance(value, str):
                raise ScenarioFileError(error)
    try:
        coeffs = tensors.ElasticityCoefficients.from_components(
            raw["tensor"], raw.get("lower_order")
        )
    except (TypeError, ValueError) as err:  # the message names the key
        raise ScenarioFileError(str(err))
    point = _reals("point", raw["point"], (2,))
    omega_raw = raw["omega"]
    if set(omega_raw) != {"center", "halfwidths"}:
        raise ScenarioFileError("omega: expected keys center, halfwidths")
    center = _reals("omega.center", omega_raw["center"], (2,))
    halfwidths = _reals("omega.halfwidths", omega_raw["halfwidths"], (2,))
    try:
        omega = Rect(center, halfwidths)
    except ValueError as err:
        raise ScenarioFileError(f"omega.halfwidths: {err}")
    grid = raw["grid"]
    if set(grid) != {"n"} or pl.json_type_error("grid.n", grid["n"], int):
        raise ScenarioFileError(f"grid: expected {{'n': <int>}}, got {grid!r}")
    if grid["n"] < 2:
        raise ScenarioFileError(f"grid.n: expected at least 2, got {grid['n']}")
    tol = _load_tolerances(raw.get("tolerances", {}))
    tasks = raw["tasks"]
    if not (isinstance(tasks, list) and all(isinstance(t, str) for t in tasks)):
        raise ScenarioFileError(f"tasks: expected a list of task names, got {tasks!r}")
    name = raw.get("name", path.stem)
    if not (isinstance(name, str) and name and Path(name).name == name):
        raise ScenarioFileError(f"name: expected a file name, got {name!r}")
    expect = raw.get("expect", {})
    try:
        pl.validate_expect(expect)
    except ValueError as err:
        raise ScenarioFileError(str(err))

    point_data = None
    if "point_data" in raw:
        vals = _reals("point_data", raw["point_data"], (4, 5))
        if len(vals) == 5:
            point_data = dict(zip(_POINT_DATA_5, vals))
            if "point_data_second" in raw:
                raise ScenarioFileError(
                    "point_data_second only applies to four-value data"
                )
        else:
            second = raw.get("point_data_second")
            if second not in ("uxx", "uyy"):
                raise ScenarioFileError(
                    "point_data_second: four-value data needs 'uxx' or 'uyy'"
                )
            point_data = dict(zip(("u", "ux", "uy", second), vals))
    elif "point_data_second" in raw:
        raise ScenarioFileError("point_data_second given without point_data")

    try:
        return pl.Scenario(
            name=name,
            coefficients=coeffs,
            point=point,
            omega=omega,
            n=grid["n"],
            tolerances=tol,
            tasks=tuple(tasks),
            point_data=point_data,
            expect=expect,
        )
    except ValueError as err:
        raise ScenarioFileError(str(err))


def _reals(key, value, sizes):
    """The list ``value`` of ``sizes`` JSON numbers, as a tuple of floats."""
    if not (isinstance(value, list) and len(value) in sizes) or any(
        pl.json_type_error(key, v, float) for v in value
    ):
        count = " or ".join(map(str, sizes))
        raise ScenarioFileError(f"{key}: expected a list of {count} reals, got {value!r}")
    return tuple(map(float, value))


def _load_tolerances(raw):
    """Tolerance overrides: positive numbers, and an integer for ``conditions_n``."""
    defaults = pl.Tolerances()
    for f in fields(pl.Tolerances):
        if f.name not in raw:
            continue
        key, value, kind = f"tolerances.{f.name}", raw[f.name], type(getattr(defaults, f.name))
        message = pl.json_type_error(key, value, kind)
        if message:
            raise ScenarioFileError(message)
        if kind is float and value <= 0:
            raise ScenarioFileError(f"{key}: expected a positive number, got {value!r}")
    try:
        return defaults.updated(raw)
    except ValueError as err:
        raise ScenarioFileError(f"tolerances: {err}")


def _write_report(report, out_dir, name):
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as err:  # NaN or Infinity, which JSON does not have
        raise pl.StageError("report", str(err)) from err
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.report.json"
    path.write_text(text)
    return path


def _write_grid_csv(path, xs, ys, values):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                fh.write(f"{x:.17g},{y:.17g},{values[i, j]:.17g}\n")


def _random_sweep(scenario, seed, conditions):
    """Seeded spot-check that the margins of the ``conditions`` report
    really are lower bounds of the sampled quadratic forms."""
    rng = np.random.default_rng(seed)
    coeffs = scenario.coefficients
    ell, cvx = conditions["ellipticity_margin"], conditions["convexity_margin"]
    # per sample, in this order: x, y, two angles, three strain entries
    draws = np.array([
        (rng.uniform(*scenario.omega.xlim), rng.uniform(*scenario.omega.ylim),
         *rng.uniform(0, np.pi, 2), *rng.standard_normal(3))
        for _ in range(200)
    ])
    x, y, alpha, beta, e0, e1, e2 = draws.T
    a4 = coeffs.a_array(x, y)
    xi = np.array([np.cos(alpha), np.sin(alpha)])
    eta = np.array([np.cos(beta), np.sin(beta)])
    q = np.einsum("ijklp,ip,jp,kp,lp->p", a4, xi, eta, xi, eta)
    worst_dir = float(np.min(q - ell))
    mat = np.array([[e0, e2], [e2, e1]])
    quot = np.einsum("ijklp,ijp,klp->p", a4, mat, mat) / np.sum(mat * mat, axis=(0, 1))
    worst_strain = float(np.min(quot - cvx))
    return {
        "seed": seed,
        "samples": 200,
        "direction_form_minus_margin_min": worst_dir,
        "strain_quotient_minus_margin_min": worst_strain,
        "margins_are_lower_bounds": bool(worst_dir >= -1e-9 and worst_strain >= -1e-9),
    }


def _sub_scenario(scenario, tasks):
    """``scenario`` cut down to ``tasks`` and the expectations they report."""
    return replace(scenario, tasks=tasks, expect=pl.expectations_for(scenario.expect, tasks))


def _cmd_check(scenario, args):
    report, failures = pl.run(_sub_scenario(scenario, ("conditions", "reduce")))
    with pl.stage("random_sweep"):
        report["random_sweep"] = _random_sweep(scenario, args.seed, report["conditions"])
    key, ucp = "reduced_data_degenerate", {}
    if scenario.point_data is not None:
        with pl.stage("ucp"):
            _, ucp = pl.point_data_mode(scenario, reduce_system(scenario.coefficients))
        report[key] = ucp[key]
    if key in scenario.expect:
        failures += pl.check_expectations({key: scenario.expect[key]}, {"ucp": ucp})
        report["verdict"] = {"passed": not failures, "failures": failures}
    return report, failures


def _field_on_grid(scenario, name):
    """Nodes of the ``n x n`` grid of omega and the values there of the
    coefficient ``name`` (``delta`` for the discriminant); a field error
    names the field."""
    xs, ys = scenario.omega.grid(scenario.n)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    coeffs = scenario.coefficients
    if name == "delta":
        f = discriminant(*reduce_system(coeffs).hyper.coefficients()[:3])
    else:
        f = getattr(coeffs, name)
    try:
        return xs, ys, f(xg, yg)
    except FieldError as err:
        raise FieldError(f"{name}: {err}") from err


def _cmd_run(scenario, args):
    report, failures = pl.run(scenario)
    if args.format == "csv":
        path = Path(args.out) / f"{scenario.name}.delta.csv"
        _write_grid_csv(path, *_field_on_grid(scenario, "delta"))
    return report, failures


def _cmd_nullspace(scenario, args):
    return pl.run(_sub_scenario(scenario, ("nullspace",)))


def _cmd_riemann(scenario, args):
    _, tsys = pl.characteristics(scenario, reduce_system(scenario.coefficients))
    tab, section = pl.riemann_section(scenario, tsys)
    report = {
        "scenario": scenario.name,
        "epsilon": tsys.epsilon,
        **section,
        "value_range": [float(tab.values.min()), float(tab.values.max())],
    }
    failures = pl.check_expectations(
        pl.expectations_for(scenario.expect, ("riemann",)), {"riemann": report}
    )
    report["verdict"] = {"passed": not failures, "failures": failures}
    if args.format == "csv":  # x is the evaluation s, y the evaluation t
        _write_grid_csv(
            Path(args.out) / f"{scenario.name}.riemann.csv",
            tab.s_nodes, tab.t_nodes, tab.values,
        )
    return report, failures


def _cmd_dump(scenario, args):
    written = []
    for name in sorted((*tensors.A_NAMES, "delta")):
        path = Path(args.out) / f"{scenario.name}.{name}.csv"
        _write_grid_csv(path, *_field_on_grid(scenario, name))
        written.append(path.name)
    report = {"scenario": scenario.name, "written": written,
              "verdict": {"passed": True, "failures": []}}
    return report, []


_COMMANDS = {
    "check": _cmd_check,
    "run": _cmd_run,
    "nullspace": _cmd_nullspace,
    "riemann": _cmd_riemann,
    "dump": _cmd_dump,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ucp2d",
        description="verification pipeline for point-data unique continuation "
        "in planar anisotropic elasticity",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored: runs are single-threaded")
        p.add_argument("--seed", type=int, default=0)
    return parser


# the parser of main, built on its first call (about 1 ms) and reused: a
# batch makes many calls in one process, and parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        report, failures = _COMMANDS[args.command](scenario, args)
        path = _write_report(report, args.out, scenario.name)
    except (pl.StageError, ValueError) as err:  # includes ScenarioFileError
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # writing the report or a CSV; load_scenario raises none
        print(f"error: --out {args.out}: {err}", file=sys.stderr)
        return 2
    status = "ok" if not failures else "expectation mismatch"
    print(f"{scenario.name}: {status} ({path})")
    for line in failures:
        print(f"  {line}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
