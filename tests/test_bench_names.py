"""The names that the benchmark's tracer (``bench/tracing.py``) patches or
replaces must exist, and the riemann stage must run through them: a
renamed function or map field would otherwise surface only when the
benchmark runs, and a stage routed round them not at all."""

import dataclasses
import inspect
from collections import Counter
from pathlib import Path

import pytest

from ucp2d import characteristics as ch
from ucp2d import pipeline as pl
from ucp2d import riemann as rm
from ucp2d.cli import load_scenario, scenario_dir
from ucp2d.reduction import reduce_system


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracing

    return tracing


def test_every_patched_name_resolves_without_installing(tracing):
    before = {name: getattr(ch, name) for name in ("build_map", "transform_system")}
    patches = tracing.Tracer()._patches()
    assert patches and all(callable(replacement) for _, _, replacement in patches)
    assert all(getattr(ch, name) is fn for name, fn in before.items())


def test_volterra_ivp_keeps_its_kernel_parameter():
    assert "kernel" in inspect.signature(rm.volterra_ivp).parameters


@pytest.mark.parametrize("golden, linear", [("lame_lower_order", True), ("lame_traced", False)])
def test_replaced_map_and_system_fields_exist(tracing, golden, linear):
    sc = load_scenario(scenario_dir() / f"{golden}.json")
    sys = reduce_system(sc.coefficients)
    cmap = ch.build_map(sys, sc.omega, *sc.point)
    assert cmap.linear == linear
    dataclasses.replace(cmap, **{k: getattr(cmap, k) for k in tracing._MAP_FIELDS})
    tsys = ch.transform_system(sys, cmap, sc.omega)
    dataclasses.replace(tsys, **{k: getattr(tsys, k) for k in tracing._TSYS_FIELDS})


def test_the_riemann_stage_runs_through_the_traced_names(tracing):
    # stage.riemann_s is the time of the riemann.table and riemann.value
    # spans directly under pipeline.run; a stage that went round those
    # names would read 0 there without failing
    sc = dataclasses.replace(load_scenario(scenario_dir() / "lame_lower_order.json"),
                             tasks=("characteristics", "riemann"), expect={})
    tracer = tracing.Tracer()
    with tracer.installed():
        pl.run(sc)
    counts = Counter(span[0] for span in tracer.spans)
    assert [counts[name] for name in ("riemann.table", "riemann.solve", "riemann.value")] == [1] * 3
    for span in tracer.spans:
        if span[0] in ("riemann.table", "riemann.value"):
            assert tracer.spans[span[3]][0] == "pipeline.run", span[0]
