#!/usr/bin/env python3
"""Run the shipped golden scenarios through the CLI and print a one-line
summary each, with the exit code of every command.

Each golden runs ``run``, ``check`` and ``nullspace``, and also
``riemann --format csv`` when its tasks include riemann.  Command C
writes its report (and CSV) under ``OUT/C/``, next to
``<golden>.stdout`` (with ``OUT`` written as ``<out>``),
``<golden>.stderr`` and ``<golden>.exit``.  Two checkouts compare
byte for byte by running this script with each one's ``src`` on
``PYTHONPATH`` and ``diff -r`` on the two output directories.
"""

import argparse
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ucp2d import cli


def _invoke(out, command, golden, *extra):
    """Run one CLI command on ``golden`` into ``out/command``; its stdout,
    stderr and exit code go to files beside the report.  Returns the code."""
    out_dir = out / command
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main([command, "--scenario", str(golden), "--out", str(out_dir), *extra])
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / golden.stem
    Path(f"{stem}.stdout").write_text(stdout.getvalue().replace(str(out), "<out>"))
    Path(f"{stem}.stderr").write_text(stderr.getvalue())
    Path(f"{stem}.exit").write_text(f"{code}\n")
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="output directory (default: temp)")
    args = ap.parse_args()
    out = Path(args.out or tempfile.mkdtemp(prefix="ucp2d-golden-")).resolve()
    worst = 0
    for golden in sorted(cli.scenario_dir().glob("*.json")):
        codes = {c: _invoke(out, c, golden) for c in ("run", "check", "nullspace")}
        if "riemann" in json.loads(golden.read_text())["tasks"]:
            codes["riemann"] = _invoke(out, "riemann", golden, "--format", "csv")
        worst = max(worst, *codes.values())
        extras = [f"{c} {code}" for c, code in codes.items()]
        if codes["run"] != 2:  # a report was written
            report = json.loads((out / "run" / f"{golden.stem}.report.json").read_text())
            if "nullspace" in report:
                extras.append(f"dim={report['nullspace']['dimension']}")
                extras.append(f"gap={report['nullspace']['gap']:.2g}")
            if "ucp" in report and "w_sup" in report["ucp"]:
                extras.append(f"w_sup={report['ucp']['w_sup']:.2g}")
        print(f"  -> {golden.stem}: {' '.join(extras)}")
    print(f"outputs in {out}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
