#!/usr/bin/env python3
"""Run the shipped golden scenarios and print a one-line summary each."""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from ucp2d import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="report directory (default: temp)")
    args = ap.parse_args()
    out = args.out or tempfile.mkdtemp(prefix="ucp2d-golden-")
    worst = 0
    for golden in sorted(cli.scenario_dir().glob("*.json")):
        code = cli.main(["run", "--scenario", str(golden), "--out", out])
        worst = max(worst, code)
        if code == 2:  # no report written
            print(f"  -> {golden.stem}: exit {code}")
            continue
        report = json.loads((Path(out) / f"{golden.stem}.report.json").read_text())
        extras = []
        if "nullspace" in report:
            extras.append(f"dim={report['nullspace']['dimension']}")
            extras.append(f"gap={report['nullspace']['gap']:.2g}")
        if "ucp" in report and "w_sup" in report["ucp"]:
            extras.append(f"w_sup={report['ucp']['w_sup']:.2g}")
        print(f"  -> {golden.stem}: exit {code} {' '.join(extras)}")
    print(f"reports in {out}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
