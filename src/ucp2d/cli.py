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
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from ucp2d import __version__
from ucp2d import characteristics as ch
from ucp2d import pipeline as pl
from ucp2d import riemann as rm
from ucp2d import tensors
from ucp2d.fields import FieldError, parse as parse_field
from ucp2d.geometry import Rect
from ucp2d.reduction import reduce_system

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


def load_scenario(path, jobs=1):
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ScenarioFileError(f"scenario file not found: {path}")
    except json.JSONDecodeError as err:
        raise ScenarioFileError(f"scenario file is not valid JSON: {err}")
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
    try:
        coeffs = tensors.ElasticityCoefficients.from_components(
            raw["tensor"], raw.get("lower_order")
        )
    except (FieldError, ValueError) as err:
        raise ScenarioFileError(f"tensor: {err}")
    point = raw["point"]
    if not (isinstance(point, list) and len(point) == 2):
        raise ScenarioFileError("point: expected [x0, y0]")
    omega_raw = raw["omega"]
    if set(omega_raw) != {"center", "halfwidths"}:
        raise ScenarioFileError("omega: expected keys center, halfwidths")
    try:
        omega = Rect(tuple(map(float, omega_raw["center"])),
                     tuple(map(float, omega_raw["halfwidths"])))
    except (TypeError, ValueError) as err:
        raise ScenarioFileError(f"omega: {err}")
    grid = raw["grid"]
    if set(grid) != {"n"} or not isinstance(grid["n"], int):
        raise ScenarioFileError("grid: expected {'n': <int>}")
    tol = _load_tolerances(raw.get("tolerances", {}))
    tasks = raw["tasks"]
    if not (isinstance(tasks, list) and all(isinstance(t, str) for t in tasks)):
        raise ScenarioFileError(f"tasks: expected a list of task names, got {tasks!r}")

    point_data = None
    if "point_data" in raw:
        vals = raw["point_data"]
        if not isinstance(vals, list) or len(vals) not in (4, 5):
            raise ScenarioFileError("point_data: expected a list of 4 or 5 reals")
        if len(vals) == 5:
            point_data = dict(zip(_POINT_DATA_5, map(float, vals)))
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
            point_data = dict(zip(("u", "ux", "uy"), map(float, vals[:3])))
            point_data[second] = float(vals[3])
    elif "point_data_second" in raw:
        raise ScenarioFileError("point_data_second given without point_data")

    try:
        return pl.Scenario(
            name=raw.get("name", path.stem),
            coefficients=coeffs,
            point=(float(point[0]), float(point[1])),
            omega=omega,
            n=grid["n"],
            tolerances=tol,
            tasks=tuple(tasks),
            point_data=point_data,
            expect=raw.get("expect", {}),
            jobs=jobs,
        )
    except ValueError as err:
        raise ScenarioFileError(str(err))


def _load_tolerances(raw):
    """Tolerance overrides: numbers, and an integer for ``conditions_n``."""
    if not isinstance(raw, dict):
        raise ScenarioFileError("tolerances: expected an object")
    defaults = pl.Tolerances()
    for f in fields(pl.Tolerances):
        if f.name not in raw:
            continue
        value = raw[f.name]
        integral = isinstance(getattr(defaults, f.name), int)
        if isinstance(value, bool) or not isinstance(value, int if integral else (int, float)):
            kind = "an integer" if integral else "a number"
            raise ScenarioFileError(f"tolerances.{f.name}: expected {kind}, got {value!r}")
    try:
        return defaults.updated(raw)
    except ValueError as err:
        raise ScenarioFileError(f"tolerances: {err}")


def _write_report(report, out_dir, name):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.report.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return path


def _write_grid_csv(path, xs, ys, values):
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                fh.write(f"{x:.17g},{y:.17g},{values[i, j]:.17g}\n")


def _random_sweep(scenario, seed):
    """Seeded spot-check that the certified margins really are lower
    bounds of the sampled quadratic forms."""
    rng = np.random.default_rng(seed)
    coeffs = scenario.coefficients
    ell = tensors.ellipticity_margin(coeffs, scenario.omega, 3)
    cvx = tensors.convexity_margin(coeffs, scenario.omega, 3)
    worst_dir, worst_strain = np.inf, np.inf
    for _ in range(200):
        x = rng.uniform(*scenario.omega.xlim)
        y = rng.uniform(*scenario.omega.ylim)
        a4 = coeffs.a_array(x, y)
        alpha, beta = rng.uniform(0, np.pi, 2)
        xi = np.array([np.cos(alpha), np.sin(alpha)])
        eta = np.array([np.cos(beta), np.sin(beta)])
        q = float(np.einsum("ijkl,i,j,k,l->", a4, xi, eta, xi, eta))
        worst_dir = min(worst_dir, q - ell)
        e = rng.standard_normal(3)
        mat = np.array([[e[0], e[2]], [e[2], e[1]]])
        quot = float(np.einsum("ijkl,ij,kl->", a4, mat, mat) / np.sum(mat * mat))
        worst_strain = min(worst_strain, quot - cvx)
    return {
        "seed": seed,
        "samples": 200,
        "direction_form_minus_margin_min": worst_dir,
        "strain_quotient_minus_margin_min": worst_strain,
        "margins_are_lower_bounds": bool(worst_dir >= -1e-9 and worst_strain >= -1e-9),
    }


def _cmd_check(scenario, args):
    sc = pl.Scenario(
        name=scenario.name,
        coefficients=scenario.coefficients,
        point=scenario.point,
        omega=scenario.omega,
        n=scenario.n,
        tolerances=scenario.tolerances,
        tasks=("conditions", "reduce"),
        point_data=scenario.point_data,
        expect={
            k: v
            for k, v in scenario.expect.items()
            if k in (
                "ellipticity_positive", "convexity_positive",
                "delta_positive", "pencil_defective", "rank_at_point",
            )
        },
        jobs=scenario.jobs,
    )
    report, failures = pl.run(sc)
    report["random_sweep"] = _random_sweep(sc, args.seed)
    if scenario.point_data is not None and len(scenario.point_data) == 4:
        sys_pair = reduce_system(scenario.coefficients)
        second = "uxx" if "uxx" in scenario.point_data else "uyy"
        try:
            pl.complete_second_derivatives(
                sys_pair, *scenario.point, scenario.point_data, second,
                scenario.tolerances.rank_threshold,
            )
            report["reduced_data_degenerate"] = False
        except pl.DegenerateDataError:
            report["reduced_data_degenerate"] = True
        if "reduced_data_degenerate" in scenario.expect:
            want = scenario.expect["reduced_data_degenerate"]
            got = report["reduced_data_degenerate"]
            if want != got:
                failures.append(f"reduced_data_degenerate: expected {want}, got {got}")
                report["verdict"] = {"passed": False, "failures": failures}
    return report, failures


def _cmd_run(scenario, args):
    report, failures = pl.run(scenario)
    if args.format == "csv":
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        xs, ys = scenario.omega.grid(scenario.n)
        xg, yg = np.meshgrid(xs, ys, indexing="ij")
        vals = np.broadcast_to(
            tensors.delta_field(scenario.coefficients)(xg, yg), xg.shape
        )
        _write_grid_csv(out_dir / f"{scenario.name}.delta.csv", xs, ys, vals)
    return report, failures


def _cmd_nullspace(scenario, args):
    sc = pl.Scenario(
        name=scenario.name,
        coefficients=scenario.coefficients,
        point=scenario.point,
        omega=scenario.omega,
        n=scenario.n,
        tolerances=scenario.tolerances,
        tasks=("nullspace",),
        expect={
            k: v for k, v in scenario.expect.items()
            if k in ("nullspace_dim", "nullspace_gap_min")
        },
        jobs=scenario.jobs,
    )
    return pl.run(sc)


def _cmd_riemann(scenario, args):
    sys_pair = reduce_system(scenario.coefficients)
    cmap = ch.build_map(sys_pair, scenario.omega, *scenario.point)
    tsys = ch.transform_system(sys_pair, cmap, scenario.omega)
    n_axis = scenario.n if scenario.n % 2 == 1 else scenario.n + 1
    tab = rm.solve_riemann(
        tsys, (0.0, 0.0), n_axis, scenario.tolerances.picard_tol
    )
    report = {
        "scenario": scenario.name,
        "epsilon": tsys.epsilon,
        "nodes_per_axis": int(len(tab.s_nodes)),
        "iterations": tab.iterations,
        "residual": tab.residual,
        "value_at_parameter": tab.value(0.0, 0.0),
        "value_range": [float(tab.values.min()), float(tab.values.max())],
    }
    failures = []
    if "riemann_residual_max" in scenario.expect:
        bound = scenario.expect["riemann_residual_max"]
        if not tab.residual <= bound:
            failures.append(
                f"riemann_residual_max: expected <= {bound}, got {tab.residual}"
            )
    report["verdict"] = {"passed": not failures, "failures": failures}
    if args.format == "csv":
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        tab.to_csv(out_dir / f"{scenario.name}.riemann.csv")
    return report, failures


def _cmd_dump(scenario, args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    xs, ys = scenario.omega.grid(scenario.n)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    fields = {name: getattr(scenario.coefficients, name) for name in tensors.A_NAMES}
    fields["delta"] = tensors.delta_field(scenario.coefficients)
    written = []
    for name, f in sorted(fields.items()):
        values = np.broadcast_to(f(xg, yg), xg.shape)
        path = out_dir / f"{scenario.name}.{name}.csv"
        _write_grid_csv(path, xs, ys, values)
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
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario, jobs=max(args.jobs, 1))
        report, failures = _COMMANDS[args.command](scenario, args)
    except (ScenarioFileError, pl.StageError, ch.MapError, ch.TransformError,
            rm.SolveError, FieldError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    path = _write_report(report, args.out, scenario.name)
    status = "ok" if not failures else "expectation mismatch"
    print(f"{scenario.name}: {status} ({path})")
    for line in failures:
        print(f"  {line}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
