#!/usr/bin/env python3
"""Singular-value ladders of the discretised pair for the family
scenarios; the tool used to calibrate the golden detection thresholds.

Absolute values in the ladder separate three regimes: rounding-level
exact solutions, h^4-truncation images of smooth solutions under the
fourth-order stencils, and h-independent structural defects of
nearly-admissible discrete modes.

Each grid is solved in a fresh process, one at a time, which prints the
time it took to import the scipy modules the solver uses (before the
solve's clock starts), the solve's wall time, the part of it spent in
the banded QR factor, the process's peak resident memory (interpreter
and imports included) and the BLAS thread count it ran with
(``OPENBLAS_NUM_THREADS``).  ucp2d runs BLAS on one thread unless that
variable or ``OMP_NUM_THREADS`` is set; on a 2-core machine one thread
is as fast or faster on every grid up to n = 257 (``lame_constant``
27-29 s on one thread against 28 s on two there).
"""

import argparse
import importlib
import os
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from ucp2d import cli
from ucp2d import pipeline as pl
from ucp2d.reduction import reduce_system

# the scipy modules null_space_dimension imports where it runs
SOLVER_MODULES = ("scipy.sparse", "scipy.sparse.linalg", "scipy.linalg.blas",
                  "scipy.linalg.lapack")

FAMILY_SCENARIOS = (
    "lame_constant",
    "example_exp",
    "example_b221_expy",
    "example_xy",
    "example_c22_xy",
)


def _solve(stem, n, threshold):
    """The null-space result of ``stem`` on an ``n x n`` grid, the import
    time of the solver's scipy modules, its wall time, its factor time,
    the process's peak RSS in MB and its BLAS thread setting."""
    sc = cli.load_scenario(cli.scenario_dir() / f"{stem}.json")
    start = time.perf_counter()
    for name in SOLVER_MODULES:
        importlib.import_module(name)
    import_s = time.perf_counter() - start
    factor, factor_s = pl._banded_r, []

    def timed_factor(a):
        start = time.perf_counter()
        try:
            return factor(a)
        finally:
            factor_s.append(time.perf_counter() - start)

    pl._banded_r = timed_factor  # this process solves one grid and exits
    start = time.perf_counter()
    res = pl.null_space_dimension(reduce_system(sc.coefficients), sc.omega, n, threshold)
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return res, import_s, wall, sum(factor_s), peak_mb, os.environ.get("OPENBLAS_NUM_THREADS")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="+", default=[65],
                    help="grid sizes, e.g. --n 65 97 129")
    ap.add_argument("--threshold", type=float, default=None,
                    help="override the per-scenario detection threshold")
    ap.add_argument("--scenarios", nargs="+", default=list(FAMILY_SCENARIOS))
    args = ap.parse_args()
    spawn = get_context("spawn")
    for stem in args.scenarios:
        sc = cli.load_scenario(cli.scenario_dir() / f"{stem}.json")
        thr = args.threshold or sc.tolerances.nullspace_threshold
        for n in args.n:
            with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
                res, import_s, wall, factor_s, peak_mb, threads = (
                    pool.submit(_solve, stem, n, thr).result())
            flag = " (ambiguous)" if res.ambiguous else ""
            print(f"{stem}: n={n} threshold={thr:g}")
            print(f"  dimension={res.dimension} gap={res.gap:.3g}{flag} "
                  f"sigma_max={res.sigma_max:.4g}")
            relative = " ".join(f"{v:.2e}" for v in res.smallest[:pl._K_REPORT])
            absolute = " ".join(f"{v * res.sigma_max:.2e}" for v in res.smallest[:pl._K_REPORT])
            print(f"  smallest relative sigmas: {relative}")
            print(f"  smallest absolute sigmas: {absolute}")
            print(f"  scipy import {import_s:.2f} s")
            print(f"  wall {wall:.2f} s (factor {factor_s:.2f} s), peak RSS {peak_mb:.0f} MB, "
                  f"OPENBLAS_NUM_THREADS={threads}")


if __name__ == "__main__":
    main()
