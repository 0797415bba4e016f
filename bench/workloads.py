"""The benchmark's workloads: which scenario files each one runs, through
which ``ucp2d`` subcommand, and which oracle checks each report.

Every workload is a fixed list of operations.  An operation is one
``ucp2d`` command line on one scenario file; a pass runs all of them in
order, one at a time, in one process.  Only ``random-batch`` draws its
scenarios from the seed, and it draws values only: the number of
scenarios, their grids and the shape of every expression are fixed, so
a pass costs the same on every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

import oracles

OMEGA = {"center": [0.0, 0.0], "halfwidths": [0.3, 0.3]}
LAME = {"a1111": "3", "a1112": "0", "a1122": "1", "a1212": "1", "a1222": "0", "a2222": "3"}
ZERO_DATA = [0.0, 0.0, 0.0, 0.0, 0.0]

# (b): constant lower-order terms that make the normal form non-trivial.
# b111 and c11 act on the first component only and must drop out.
CHAIN_B_LOWER = {"b121": 0.5, "b122": 0.3, "c12": 0.7, "b111": 0.2, "c11": 0.1}
# (c): a variable a1112 sends build_map to the traced-curve map.
CHAIN_C_A1112 = "0.3+0.2*x"

GOLDENS = ("lame_constant", "example_exp")
# Grid of each constant tensor of random-batch; all n*n <= 2600, the
# dense-SVD branch of the null-space solver.
RANDOM_NULLSPACE_GRIDS = (25, 33, 33, 33, 33, 41)
RANDOM_CHECK_COUNT = 12

WORKLOADS = ("golden-nullspace", "vanishing-chain", "random-batch")


@dataclass
class Op:
    """One ``ucp2d`` invocation and the oracle for its output.

    ``check(out_dir)`` returns the list of problems found in what the
    command wrote to ``out_dir`` (empty when the output is right); it is
    a ``functools.partial`` whose keywords hold the oracle's inputs.
    """

    ident: str
    command: str
    scenario: Path
    check: object
    extra: list = field(default_factory=list)

    def argv(self, out_dir):
        return [self.command, "--scenario", str(self.scenario), "--out", str(out_dir),
                "--jobs", "1", *self.extra]


def _num(v):
    return repr(float(v))


def _write(dir_, name, **body):
    doc = {"schema_version": 1, "name": name, "point": [0.0, 0.0], "omega": OMEGA,
           "grid": {"n": 65}}
    doc.update(body)
    path = dir_ / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _report(out_dir, name):
    return json.loads((Path(out_dir) / f"{name}.report.json").read_text())


# Checks of one operation's output directory; bound with functools.partial.


def _check_nullspace(out, name, dimension):
    return oracles.check_nullspace(_report(out, name), dimension)


def _check_chain(out, name, tensor, lower):
    return oracles.check_constant_chain(_report(out, name), tensor, lower)


def _check_riemann(out, name, normal_form):
    return oracles.check_riemann_csv(
        _report(out, name), Path(out) / f"{name}.riemann.csv", normal_form)


def _check_traced_chain(out, name):
    return oracles.check_traced_chain(_report(out, name))


def _check_audits(out, name, funcs):
    return oracles.check_audits(_report(out, name), funcs, OMEGA)


def _golden(root):
    ops = []
    for name in GOLDENS:
        path = root / "src" / "ucp2d" / "scenarios" / f"{name}.json"
        dim = oracles.GOLDEN_DIMENSIONS[name]
        ops.append(Op(f"nullspace:{name}", "nullspace", path,
                      partial(_check_nullspace, name=name, dimension=dim)))
    return ops


def _vanishing(dir_):
    lower = {k: _num(v) for k, v in CHAIN_B_LOWER.items()}
    tasks = ["characteristics", "riemann", "ucp"]
    a = _write(dir_, "chain_a", tensor=LAME, tasks=tasks, point_data=ZERO_DATA)
    b = _write(dir_, "chain_b", tensor=LAME, lower_order=lower, tasks=tasks,
               point_data=ZERO_DATA)
    c = _write(dir_, "chain_c", tensor=dict(LAME, a1112=CHAIN_C_A1112),
               tasks=["characteristics", "riemann"])
    tensor = {k: float(v) for k, v in LAME.items()}
    return [
        Op("run:chain_a", "run", a, partial(_check_chain, name="chain_a", tensor=tensor,
                                            lower={})),
        Op("run:chain_b", "run", b, partial(_check_chain, name="chain_b", tensor=tensor,
                                            lower=CHAIN_B_LOWER)),
        Op("riemann:chain_b", "riemann", b,
           partial(_check_riemann, name="chain_b",
                   normal_form=oracles.constant_normal_form(tensor, CHAIN_B_LOWER)),
           extra=["--format", "csv"]),
        Op("run:chain_c", "run", c, partial(_check_traced_chain, name="chain_c")),
    ]


def _isotropic_base(rng):
    """Lame moduli mu, lambda and the isotropic tensor they give."""
    mu = rng.uniform(0.5, 2.0)
    lam = rng.uniform(-0.4 * mu, 2.0)
    return mu, {"a1111": 2 * mu + lam, "a1112": 0.0, "a1122": lam,
                "a1212": mu, "a1222": 0.0, "a2222": 2 * mu + lam}


def random_constant_tensor(rng):
    """Constant tensor drawn around an isotropic one, each component
    perturbed by up to a quarter of mu; kept only when the oracle's own
    scan finds it strongly elliptic with Delta > 0."""
    while True:
        mu, base = _isotropic_base(rng)
        comp = {k: v + rng.uniform(-0.25, 0.25) * mu for k, v in base.items()}
        funcs = oracles.constant_functions(comp)
        xs = np.zeros(1)
        if (oracles.ellipticity_scan(funcs, xs, xs) > 0.01 * mu
                and oracles.delta_values(funcs, xs, xs).min() > 0.01):
            return comp


# Variable tensors: each component is a fixed closed form whose constants
# come from the seed.  The text goes into the scenario file (parsed by
# ucp2d) and the numpy function into the oracle; both use the same
# constants, written with repr so the file holds them exactly.
_TEMPLATES = {
    "a1111": ("{0} + {1}*x + {2}*sin(y)",
              lambda c, x, y: c[0] + c[1] * x + c[2] * np.sin(y)),
    "a1112": ("{0} + {1}*x*y", lambda c, x, y: c[0] + c[1] * x * y),
    "a1122": ("{0} + {1}*cos(x)", lambda c, x, y: c[0] + c[1] * np.cos(x)),
    "a1212": ("{0}*exp({1}*x)", lambda c, x, y: c[0] * np.exp(c[1] * x)),
    "a1222": ("{0} + {1}*y", lambda c, x, y: c[0] + c[1] * y),
    "a2222": ("{0} + {1}*y^2 + {2}*x", lambda c, x, y: c[0] + c[1] * y**2 + c[2] * x),
}
_LOWER = {"b221": "{0}*x*y", "c22": "{0} + sqrt(2 + x)"}


def random_variable_tensor(rng):
    """Variable tensor around an isotropic one: constant parts as in
    :func:`random_constant_tensor`, variable parts up to 0.3 mu; kept
    only when strongly elliptic with Delta > 0 on the 9 x 9 audit grid."""
    xs = np.linspace(-0.3, 0.3, 9)
    while True:
        mu, base = _isotropic_base(rng)
        consts = {
            k: [base[k] + rng.uniform(-0.2, 0.2) * mu]
            + [rng.uniform(-0.3, 0.3) * mu for _ in range(tmpl.count("{") - 1)]
            for k, (tmpl, _) in _TEMPLATES.items()
        }
        funcs = {k: (lambda x, y, f=f, c=tuple(consts[k]): f(c, x, y))
                 for k, (_, f) in _TEMPLATES.items()}
        xg, yg = np.meshgrid(xs, xs, indexing="ij")
        if (oracles.ellipticity_scan(funcs, xg.ravel(), yg.ravel()) > 0.05 * mu
                and oracles.delta_values(funcs, xg, yg).min() > 0.05):
            tensor = {k: tmpl.format(*map(_num, consts[k]))
                      for k, (tmpl, _) in _TEMPLATES.items()}
            lower = {k: tmpl.format(_num(rng.uniform(-1.0, 1.0)))
                     for k, tmpl in _LOWER.items()}
            return tensor, lower, funcs


def _random(dir_, seed):
    rng = np.random.default_rng([seed, 0x75637032])
    ops = []
    for i, n in enumerate(RANDOM_NULLSPACE_GRIDS):
        name = f"const_{i:02d}"
        comp = random_constant_tensor(rng)
        path = _write(dir_, name, tensor={k: _num(v) for k, v in comp.items()},
                      grid={"n": n}, tasks=["nullspace"])
        ops.append(Op(f"nullspace:{name}", "nullspace", path,
                      partial(_check_nullspace, name=name,
                              dimension=oracles.CONSTANT_TENSOR_DIMENSION)))
    for i in range(RANDOM_CHECK_COUNT):
        name = f"var_{i:02d}"
        tensor, lower, funcs = random_variable_tensor(rng)
        path = _write(dir_, name, tensor=tensor, lower_order=lower,
                      tasks=["conditions", "reduce"], point_data=[0.0, 0.0, 0.0, 0.0],
                      point_data_second="uxx")
        ops.append(Op(f"check:{name}", "check", path,
                      partial(_check_audits, name=name, funcs=funcs)))
    return ops


def build(workload, seed, root, scenario_dir):
    """Write the workload's generated scenario files into ``scenario_dir``
    and return its operations.  ``root`` is the checkout holding
    ``src/ucp2d``."""
    scenario_dir = Path(scenario_dir)
    scenario_dir.mkdir(parents=True, exist_ok=True)
    if workload == "golden-nullspace":
        return _golden(Path(root))
    if workload == "vanishing-chain":
        return _vanishing(scenario_dir)
    if workload == "random-batch":
        return _random(scenario_dir, seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
