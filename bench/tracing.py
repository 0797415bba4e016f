"""Traced run: spans around the public calls into each ``ucp2d`` layer.

The tracer replaces module attributes of the imported package (and the
scipy and numpy entry points that the null-space solver calls through)
with wrappers that record a span -- name, start, end, the span that
caused it, and the scenario being run -- and then call the original.
The wrappers pass arguments and results through untouched, so reports
stay byte-identical; ``run.py`` checks that.  Spans stay in memory
until ``write`` puts them out as JSON lines.

Stages are not functions of their own inside ``pipeline.run``, so a
stage's time is the time of the layer calls that ``pipeline.run`` makes
directly for that stage (see ``STAGE_OF``).  Self time of ``cli.main``
is its duration minus its direct child spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.linalg

from ucp2d import characteristics as ch
from ucp2d import cli, fields, tensors
from ucp2d import pipeline as pl
from ucp2d import riemann as rm

NULLSPACE = "nullspace.dimension"

# Direct children of pipeline.run, by the stage they belong to.
STAGE_OF = {
    "tensors.ellipticity_margin": "conditions",
    "tensors.convexity_margin": "conditions",
    "tensors.pencil_eigenpairs": "conditions",
    "reduction.reduce_system": "reduce",
    "reduction.second_order_rank": "reduce",
    "characteristics.build_map": "characteristics",
    "characteristics.transform_system": "characteristics",
    "characteristics.map_eval": "characteristics",
    "characteristics.coeff_eval": "characteristics",
    "riemann.table": "riemann",
    "riemann.value": "riemann",
    "pipeline.ucp_stage": "ucp",
    NULLSPACE: "nullspace",
}
STAGES = ("conditions", "reduce", "characteristics", "riemann", "ucp", "nullspace")

# (metric, unit, better); seconds are summed span durations over the pass.
METRICS = (
    [(f"stage.{s}_s", "s", "lower") for s in STAGES]
    + [
        ("nullspace.assemble_s", "s", "lower"),
        ("nullspace.qr_s", "s", "lower"),
        ("nullspace.svdvals_s", "s", "lower"),
        ("nullspace.dense_svd_s", "s", "lower"),
        ("nullspace.inverse_iter_s", "s", "lower"),
        ("nullspace.unknowns", "count", "lower"),
        ("nullspace.nnz", "count", "lower"),
        ("nullspace.dense_mb", "MB", "lower"),
        ("nullspace.sigmas_used_ratio", "ratio", "higher"),
        ("riemann.tables", "count", "lower"),
        ("riemann.table_requests", "count", "lower"),
        ("riemann.picard_iterations", "count", "lower"),
        ("riemann.solve_s", "s", "lower"),
        ("riemann.value_calls", "count", "lower"),
        ("riemann.value_s", "s", "lower"),
        ("riemann.apply_L_calls", "count", "lower"),
        ("riemann.apply_L_s", "s", "lower"),
        ("riemann.kernel_PQ_s", "s", "lower"),
        ("riemann.volterra_s", "s", "lower"),
        ("riemann.kernel_evals", "count", "lower"),
        ("riemann.represent_s", "s", "lower"),
        ("characteristics.build_map_s", "s", "lower"),
        ("characteristics.traced_maps", "count", "lower"),
        ("characteristics.transform_s", "s", "lower"),
        ("characteristics.transfer_s", "s", "lower"),
        ("characteristics.map_eval_s", "s", "lower"),
        ("characteristics.coeff_eval_s", "s", "lower"),
        ("tensors.ellipticity_s", "s", "lower"),
        ("tensors.convexity_s", "s", "lower"),
        ("tensors.pencil_s", "s", "lower"),
        ("reduction.reduce_s", "s", "lower"),
        ("fields.parse_calls", "count", "lower"),
        ("fields.eval_calls", "count", "lower"),
        ("fields.eval_s", "s", "lower"),
        ("cli.load_s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)

# Seconds metrics that are plain sums of one span name.
_SUMS = {
    "nullspace.assemble_s": "nullspace.assemble",
    "nullspace.qr_s": "nullspace.qr",
    "nullspace.svdvals_s": "nullspace.svdvals",
    "nullspace.dense_svd_s": "nullspace.dense_svd",
    "nullspace.inverse_iter_s": "nullspace.inverse_iter",
    "riemann.solve_s": "riemann.solve",
    "riemann.value_s": "riemann.value",
    "riemann.apply_L_s": "riemann.apply_L",
    "riemann.kernel_PQ_s": "riemann.kernel_PQ",
    "riemann.volterra_s": "riemann.volterra",
    "riemann.represent_s": "riemann.represent",
    "characteristics.build_map_s": "characteristics.build_map",
    "characteristics.transform_s": "characteristics.transform_system",
    "characteristics.transfer_s": "characteristics.transfer_point_data",
    "characteristics.map_eval_s": "characteristics.map_eval",
    "characteristics.coeff_eval_s": "characteristics.coeff_eval",
    "tensors.ellipticity_s": "tensors.ellipticity_margin",
    "tensors.convexity_s": "tensors.convexity_margin",
    "tensors.pencil_s": "tensors.pencil_eigenpairs",
    "fields.eval_s": "fields.evaluate",
    "cli.load_s": "cli.load",
}
# Counts of one span name.
_COUNTS = {
    "riemann.table_requests": "riemann.table",
    "riemann.value_calls": "riemann.value",
    "riemann.apply_L_calls": "riemann.apply_L",
    "fields.parse_calls": "fields.parse",
    "fields.eval_calls": "fields.evaluate",
}

_MAP_FIELDS = ("forward", "jacobian", "second_derivatives", "inverse")
_TSYS_FIELDS = ("b11", "b12", "c1", "a11", "a12", "a22", "b21", "b22", "c2")


def _nbytes(*values):
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


class Tracer:
    """Spans of one traced pass.  Use ``with tracer.installed():``."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, scenario, attrs or None]
        self.spans = []
        self.scenario = None
        self.kernel_evals = 0
        self._stack = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, only_under=None, after=None):
        """``fn`` recording a span per call.  With ``only_under`` set, only
        calls made directly inside a span of that name are recorded.
        ``after(span, args, result)`` may store attributes on the span and
        returns the result handed back to the caller."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if only_under is not None and (parent < 0 or spans[parent][0] != only_under):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, parent, self.scenario, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            return result if after is None else after(span, args, result)

        return traced

    def _after_build_map(self, span, args, cmap):
        span[5] = {"linear": cmap.linear}
        return dataclasses.replace(cmap, **{
            k: self.wrap("characteristics.map_eval", getattr(cmap, k)) for k in _MAP_FIELDS})

    def _after_transform(self, span, args, tsys):
        return dataclasses.replace(tsys, **{
            k: self.wrap("characteristics.coeff_eval", getattr(tsys, k)) for k in _TSYS_FIELDS})

    @staticmethod
    def _after_solve(span, args, table):
        span[5] = {"parameter": list(table.parameter), "iterations": table.iterations}
        return table

    @staticmethod
    def _after_nullspace(span, args, result):
        span[5] = {"unknowns": int(result.grid[0].size * result.grid[1].size),
                   "sigmas_used": 1 + len(result.smallest)}
        return result

    @staticmethod
    def _after_assemble(span, args, result):
        span[5] = {"nnz": int(result[0].nnz)}
        return result

    @staticmethod
    def _after_dense(span, args, result):
        parts = result if isinstance(result, tuple) else (result,)
        sigmas = parts[1] if len(parts) == 3 else parts[0]
        span[5] = {"bytes": _nbytes(args[0], *parts)}
        if sigmas.ndim == 1:
            span[5]["sigmas"] = int(sigmas.size)
        return result

    def _wrap_volterra(self, fn):
        traced = self.wrap("riemann.volterra", fn)
        signature = inspect.signature(fn)

        def call(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            kernel = bound.arguments["kernel"]

            def counted(s, sig):
                self.kernel_evals += 1
                return kernel(s, sig)

            bound.arguments["kernel"] = counted
            return traced(*bound.args, **bound.kwargs)

        return call

    def _patches(self):
        """(owner, attribute, replacement) for every traced entry point."""
        w = self.wrap
        table = [
            (cli, "main", "cli.main", {}),
            (cli, "load_scenario", "cli.load", {}),
            (cli, "reduce_system", "reduction.reduce_system", {}),
            (pl, "run", "pipeline.run", {}),
            (pl, "_run_ucp_stage", "pipeline.ucp_stage", {}),
            (pl, "complete_second_derivatives", "pipeline.complete_second_derivatives", {}),
            (pl, "reduce_system", "reduction.reduce_system", {}),
            (pl, "second_order_rank", "reduction.second_order_rank", {}),
            (pl, "null_space_dimension", NULLSPACE, {"after": self._after_nullspace}),
            (pl, "_assemble_operator", "nullspace.assemble", {"after": self._after_assemble}),
            (pl, "_smallest_right_vectors", "nullspace.inverse_iter", {}),
            (scipy.linalg, "qr", "nullspace.qr",
             {"only_under": NULLSPACE, "after": self._after_dense}),
            (scipy.linalg, "svdvals", "nullspace.svdvals",
             {"only_under": NULLSPACE, "after": self._after_dense}),
            (np.linalg, "svd", "nullspace.dense_svd",
             {"only_under": NULLSPACE, "after": self._after_dense}),
            (tensors, "ellipticity_margin", "tensors.ellipticity_margin", {}),
            (tensors, "convexity_margin", "tensors.convexity_margin", {}),
            (tensors, "pencil_eigenpairs", "tensors.pencil_eigenpairs", {}),
            (tensors, "parse", "fields.parse", {}),
            (fields, "evaluate", "fields.evaluate", {}),
            (ch, "build_map", "characteristics.build_map", {"after": self._after_build_map}),
            (ch, "transform_system", "characteristics.transform_system",
             {"after": self._after_transform}),
            (ch, "transfer_point_data", "characteristics.transfer_point_data", {}),
            (rm, "solve_riemann", "riemann.solve", {"after": self._after_solve}),
            (rm.RiemannProvider, "table", "riemann.table", {}),
            (rm.RiemannTable, "value", "riemann.value", {}),
            (rm, "kernel_PQ", "riemann.kernel_PQ", {}),
            (rm, "apply_L", "riemann.apply_L", {}),
            (rm, "represent_solution", "riemann.represent", {}),
        ]
        out = [(owner, attr, w(name, getattr(owner, attr), **kw))
               for owner, attr, name, kw in table]
        out.append((rm, "volterra_ivp", self._wrap_volterra(rm.volterra_ivp)))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for owner, attr, replacement in self._patches():
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self, overhead_s):
        """Per-layer metrics of the traced pass, as ``{name: {value, unit}}``."""
        total, count = defaultdict(float), Counter()
        children = defaultdict(float)
        stage = defaultdict(float)
        attrs = defaultdict(list)
        for name, start, end, parent, _scenario, extra in self.spans:
            dur = end - start
            total[name] += dur
            count[name] += 1
            if parent >= 0:
                children[parent] += dur
                if self.spans[parent][0] == "pipeline.run" and name in STAGE_OF:
                    stage[STAGE_OF[name]] += dur
            if extra is not None:
                attrs[name].append(extra)

        def attr_sum(name, key):
            return sum(a.get(key, 0) for a in attrs[name])

        dense = ("nullspace.qr", "nullspace.svdvals", "nullspace.dense_svd")
        computed = sum(attr_sum(n, "sigmas") for n in dense)
        values = {f"stage.{s}_s": stage[s] for s in STAGES}
        values.update({m: total[n] for m, n in _SUMS.items()})
        values.update({m: count[n] for m, n in _COUNTS.items()})
        values.update({
            "nullspace.unknowns": attr_sum(NULLSPACE, "unknowns"),
            "nullspace.nnz": attr_sum("nullspace.assemble", "nnz"),
            "nullspace.dense_mb": sum(attr_sum(n, "bytes") for n in dense) / 2**20,
            "nullspace.sigmas_used_ratio":
                attr_sum(NULLSPACE, "sigmas_used") / computed if computed else 0.0,
            "riemann.tables": len({
                (span[4], tuple(span[5]["parameter"]))
                for span in self.spans if span[0] == "riemann.solve"}),
            "riemann.picard_iterations": attr_sum("riemann.solve", "iterations"),
            "riemann.kernel_evals": self.kernel_evals,
            "characteristics.traced_maps": sum(
                not a["linear"] for a in attrs["characteristics.build_map"]),
            "reduction.reduce_s":
                total["reduction.reduce_system"] + total["reduction.second_order_rank"],
            "cli.self_s": sum(
                span[2] - span[1] - children[i]
                for i, span in enumerate(self.spans) if span[0] == "cli.main"),
            "trace.spans": len(self.spans),
            "trace.overhead_s": overhead_s,
        })
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}

    def write(self, path):
        """All spans as gzipped JSON lines ``[id, name, start, end, parent,
        scenario, attrs]``, times in seconds from the first span."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, (name, start, end, parent, scenario, extra) in enumerate(self.spans):
                row = [i, name, round(start - t0, 7), round(end - t0, 7), parent, scenario]
                fh.write(json.dumps(row + [extra] if extra is not None else row) + "\n")
