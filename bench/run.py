#!/usr/bin/env python3
"""Benchmark of the ``ucp2d`` batch verifier, run from the root of a checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is ``src/ucp2d`` of the checkout, driven
in-process through ``cli.main`` with ``--jobs 1``, one scenario at a
time.  Workloads (see ``workloads.py`` and the README):
``golden-nullspace``, ``vanishing-chain`` and ``random-batch``.

With ``--trace 0`` the run times set-up, then repeats whole passes over
the workload's operations until ``--seconds`` have gone (at least one
pass), and reports the end-to-end metrics ``setup_s``, ``run_s`` (median
pass) and ``peak_rss_mb``.  With ``--trace 1`` it runs one untraced and
one traced pass, checks that both wrote byte-identical files, and
reports the per-layer metrics of ``tracing.METRICS``.  Every report of
every pass is checked against the oracles in ``oracles.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Reports, the
generated scenario files and traces go to ``.bench_out/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import ``ucp2d`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "ucp2d" / "__init__.py").is_file():
        raise SystemExit(f"error: no ucp2d package under {SRC}")
    sys.path.insert(0, str(SRC))
    from ucp2d import cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: ucp2d imported from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup(scenarios):
    """Median over fresh interpreters of import plus scenario loading."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *map(str, scenarios)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_pass(cli, ops, out_dir, tracer=None):
    """Run every operation once; return (seconds in cli.main, failed, problems).

    Only the ``cli.main`` calls are timed; the oracle checks run after
    each call and are not.
    """
    elapsed, failed, problems = 0.0, 0, []
    for k, op in enumerate(ops):
        op_dir = out_dir / f"{k:02d}"
        argv = op.argv(op_dir)
        if tracer is not None:
            tracer.scenario = op.ident
        with contextlib.redirect_stdout(sys.stderr):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed += time.perf_counter() - start
        if code != 0:
            failed += 1
            print(f"{op.ident}: exit {code}", file=sys.stderr)
            continue
        problems += [f"{op.ident}: {p}" for p in op.check(op_dir)]
    return elapsed, failed, problems


def differing_files(dir_a, dir_b):
    """Relative paths of files that are missing from one tree or differ."""
    names_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    return sorted(str(n) for n in names_a ^ names_b) + sorted(
        str(n) for n in names_a & names_b
        if (dir_a / n).read_bytes() != (dir_b / n).read_bytes()
    )


def timed_run(cli, ops, work, seconds):
    setup_s = measure_setup(sorted({op.scenario for op in ops}))
    passes, failed, problems = [], 0, []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        t, f, p = run_pass(cli, ops, work / f"pass{len(passes):02d}")
        passes.append(t)
        failed += f
        problems += p
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "run_s": {"value": statistics.median(passes), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    print(f"passes: {' '.join(f'{t:.3f}' for t in passes)} s", file=sys.stderr)
    return metrics, len(passes) * len(ops), failed, problems


def traced_run(cli, ops, work, trace_path):
    import tracing  # imports ucp2d, so only after import_program


    plain_s, failed, problems = run_pass(cli, ops, work / "untraced")
    tracer = tracing.Tracer()
    with tracer.installed():
        traced_s, f, p = run_pass(cli, ops, work / "traced", tracer)
    failed += f
    problems += p
    problems += [f"report differs with tracing: {name}"
                 for name in differing_files(work / "untraced", work / "traced")]
    tracer.write(trace_path)
    metrics = tracer.metrics(overhead_s=traced_s - plain_s)
    return metrics, 2 * len(ops), failed, problems


def main(argv=None):
    args = parse_args(argv)
    cli = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {', '.join(workloads.WORKLOADS)}")
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    ops = workloads.build(args.workload, args.seed, ROOT, work / "scenarios")
    if args.trace:
        trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz"
        metrics, attempted, failed, problems = traced_run(cli, ops, work, trace_path)
    else:
        metrics, attempted, failed, problems = timed_run(cli, ops, work, args.seconds)
    for line in problems:
        print(f"WRONG {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
