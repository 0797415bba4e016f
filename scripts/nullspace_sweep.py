#!/usr/bin/env python3
"""Singular-value ladders of the discretised pair for the family
scenarios; the tool used to calibrate the golden detection thresholds.

Absolute values in the ladder separate three regimes: rounding-level
exact solutions, h^4-truncation images of smooth solutions under the
fourth-order stencils, and h-independent structural defects of
nearly-admissible discrete modes.
"""

import argparse

from ucp2d import cli
from ucp2d.pipeline import null_space_dimension
from ucp2d.reduction import reduce_system

FAMILY_SCENARIOS = (
    "lame_constant",
    "example_exp",
    "example_b221_expy",
    "example_xy",
    "example_c22_xy",
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="+", default=[65],
                    help="grid sizes, e.g. --n 65 97 129")
    ap.add_argument("--threshold", type=float, default=None,
                    help="override the per-scenario detection threshold")
    ap.add_argument("--scenarios", nargs="+", default=list(FAMILY_SCENARIOS))
    args = ap.parse_args()
    for stem in args.scenarios:
        sc = cli.load_scenario(cli.scenario_dir() / f"{stem}.json")
        thr = args.threshold or sc.tolerances.nullspace_threshold
        for n in args.n:
            res = null_space_dimension(reduce_system(sc.coefficients), sc.omega, n, thr)
            flag = " (ambiguous)" if res.ambiguous else ""
            print(f"{stem}: n={n} threshold={thr:g}")
            print(f"  dimension={res.dimension} gap={res.gap:.3g}{flag} "
                  f"sigma_max={res.sigma_max:.4g}")
            relative = " ".join(f"{v:.2e}" for v in res.smallest[:8])
            absolute = " ".join(f"{v * res.sigma_max:.2e}" for v in res.smallest[:8])
            print(f"  smallest relative sigmas: {relative}")
            print(f"  smallest absolute sigmas: {absolute}")


if __name__ == "__main__":
    main()
