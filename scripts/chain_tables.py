#!/usr/bin/env python3
"""Riemann-table work of one ``ucp2d run`` of a scenario, batch by batch.

For each batch of tables the run solves (``_solve_windows``, behind
``RiemannProvider.table`` and ``RiemannProvider.solve``), one line gives
its reach (along s, along t), the tables it solved, its Picard loops (one
per stack), the stacked Picard steps and the cell-steps (stack cells
times steps, padding included); a last line gives the totals.  When the
scenario runs the ucp task, the chain's kernel rows on each axis are also
compared with rows from tables of the whole square, and the largest
difference over the entries the march reads is printed.

Usage: ``PYTHONPATH=src python3 scripts/chain_tables.py --scenario FILE``
"""

import argparse

import numpy as np

from ucp2d import pipeline as pl
from ucp2d import riemann as rm
from ucp2d.cli import load_scenario
from ucp2d.reduction import reduce_system


def _count_run(scenario):
    """Run the scenario with the batched solver and its stacks counted;
    returns one ``[reach, tables, loops, steps, cell-steps]`` per call."""
    calls = []
    solve_windows, solve_stack = rm._solve_windows, rm._solve_stack

    def counted_windows(tsys, points, n, tol, reach):
        calls.append([tuple(float(r) for r in np.broadcast_to(reach, 2)), 0, 0, 0, 0])
        return solve_windows(tsys, points, n, tol, reach)

    def counted_stack(*args):
        values, iterations, residuals = solve_stack(*args)
        steps = iterations.max() + 1  # the last table's capture step
        for k, v in enumerate((len(values), 1, steps, values.size * steps), start=1):
            calls[-1][k] += int(v)
        return values, iterations, residuals

    rm._solve_windows, rm._solve_stack = counted_windows, counted_stack
    try:
        pl.run(scenario)
    finally:
        rm._solve_windows, rm._solve_stack = solve_windows, solve_stack
    return calls


def _kernel_row_differences(scenario):
    """Largest difference, per axis, between the chain's kernel rows and
    rows from whole-square tables, over the entries the march reads."""
    _, tsys = pl.characteristics(scenario, reduce_system(scenario.coefficients))
    n, tol = pl._axis_nodes(scenario), scenario.tolerances.picard_tol
    h = 2 * tsys.epsilon / (n - 1)
    nodes = np.linspace(-tsys.epsilon, tsys.epsilon, n)
    square = rm.RiemannProvider(tsys, n, tol)
    out = {}
    for axis in ("s", "t"):
        chain = rm.RiemannProvider(tsys, n, tol, rm._chain_reach(axis, h))
        rows = rm._kernel_table(tsys, chain, axis, nodes, rm._CHAIN_STEP * h)
        ref = rm._kernel_table(tsys, square, axis, nodes, rm._CHAIN_STEP * h)
        read = ~np.isnan(rows)
        out[axis] = float(np.max(np.abs(rows[read] - ref[read])))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scenario", required=True, help="scenario JSON file")
    args = ap.parse_args()
    scenario = load_scenario(args.scenario)
    calls = _count_run(scenario)
    print(f"{'reach (s, t)':>24} {'tables':>7} {'loops':>6} {'steps':>6} {'cell-steps':>11}")
    for reach, *counts in calls:
        print(f"{'(%.4g, %.4g)' % reach:>24} " + " ".join(
            f"{v:>{w}}" for v, w in zip(counts, (7, 6, 6, 11))))
    totals = [sum(c[k] for c in calls) for k in range(1, 5)]
    print(f"{'total':>24} " + " ".join(f"{v:>{w}}" for v, w in zip(totals, (7, 6, 6, 11))))
    if "ucp" in scenario.tasks:
        for axis, diff in _kernel_row_differences(scenario).items():
            print(f"kernel rows on axis {axis}: largest difference from whole-square "
                  f"tables {diff:.3g}")


if __name__ == "__main__":
    main()
