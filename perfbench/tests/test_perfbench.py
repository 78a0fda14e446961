"""Tests of the benchmark itself: BENCHMARK.json, its checks, its trace.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import catalog  # noqa: E402
import corpus  # noqa: E402
import harness  # noqa: E402

harness.bootstrap()

from repro.core import AnalysisConfig, Pipeline  # noqa: E402
from repro.symbolic import Int  # noqa: E402
from repro.workloads import available, get_source  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


# -- BENCHMARK.json

def test_benchmark_json_is_generated_from_the_catalog():
    assert _benchmark_json() == catalog.benchmark_json()


def test_benchmark_json_shape():
    doc = _benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in doc["workloads"])
    e2e, layers = doc["end_to_end"], doc["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in e2e)
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    assert all(set(m) == {"name", "unit", "better"} for m in layers)
    setup = [m for m in e2e if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in e2e)}]
    names = [m["name"] for m in (*doc["workloads"], *e2e, *layers)]
    assert len(names) == len(set(names))
    for m in (*e2e, *layers):
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    for path in doc["paths"]:
        assert re.match(r"^[A-Za-z0-9_.\-/]{1,200}$", path)
        assert os.path.isdir(os.path.join(ROOT, path))
    assert len(doc["command"]) <= 32


def test_every_per_layer_metric_names_what_it_moves():
    e2e = {m.name for m in catalog.END_TO_END}
    for m in catalog.PER_LAYER:
        assert set(m.workloads) <= set(catalog.WORKLOADS), m.name
        for target in m.moves:
            workload, metric = target.split(":")
            assert workload in catalog.WORKLOADS and metric in e2e, target


# -- emitted metrics

@pytest.fixture(scope="module")
def tiny_traced_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace") / "cold.json"
    proc = _run("--workload", "cold_corpus", "--seed", "3", "--seconds", "1",
                "--trace", "1", "--trace-out", str(out))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), out


def test_untraced_run_prints_exactly_the_end_to_end_metrics():
    proc = _run("--workload", "sweep_grid", "--seed", "3", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_traced_run_prints_exactly_the_per_layer_metrics(tiny_traced_run):
    doc, _ = tiny_traced_run
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared
    assert doc["metrics"]["frontend.lex_s"]["value"] > 0
    assert doc["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_trace_is_valid_and_self_times_sum_to_the_pass(tiny_traced_run):
    from tracing import span_summary

    doc, path = tiny_traced_run
    events = json.loads(path.read_text())["traceEvents"]
    ids = {(e["pid"], e["args"]["id"]) for e in events}
    for e in events:
        assert e["ph"] == "X" and e["dur"] >= 0
        assert {"name", "ts", "pid", "tid"} <= set(e)
        parent = e["args"]["parent"]
        assert parent == 0 or (e["pid"], parent) in ids
    ops = span_summary(events, lambda root: root["name"] == "bench.op")
    op_us = ops["bench.op"]["total_us"]
    self_us = sum(row["self_us"] for row in ops.values())
    assert self_us == pytest.approx(op_us, rel=1e-9)
    # the five stages account for nearly all of each program's analysis
    stages = sum(row["total_us"] for name, row in ops.items()
                 if name.startswith("stage."))
    assert stages / op_us > 0.9
    passes = ops["bench.op"]["count"] / len(available())
    assert doc["metrics"]["trace.pass_s"]["value"] == pytest.approx(
        op_us / 1e6 / passes, rel=0.01)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "cold_corpus", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- statistics

class _FixedHost:
    """A host probe that reports preset slowdowns, one per block."""

    def __init__(self, slowdowns):
        self._slowdowns = iter(slowdowns)

    def sample(self, slices=1):
        pass

    def slowdown(self):
        return next(self._slowdowns)


def test_timings_are_divided_by_the_host_slowdown():
    class Blocks(harness.Workload):
        name = "cold_corpus"

    # The host ran block 1 at half speed: its operations took twice as
    # long and its probes say so, so both blocks count as 1 ms each.
    for n, warned in ((10, True), (200, False)):
        wl = Blocks(1)
        wl.host = _FixedHost([1.0, 2.0])
        for ms in (1.0, 2.0):
            for _ in range(n):
                wl.record(ms / 1e3, [])
            wl.done(n, n * ms / 1e3)
        values, notes = wl.latency_figures()
        assert values["throughput_per_s"] == pytest.approx(1e3)
        assert values["latency_ms_p50"] == pytest.approx(1.0)
        assert values["latency_ms_tail"] == pytest.approx(1.0)
        assert "unscaled CPU time: 1.5" in notes["latency_ms_p50"]
        assert wl.throughput() == pytest.approx(2 * n / (3 * n / 1e3))
        assert bool(wl.warnings) is warned


def test_host_probe_reports_its_median_slowdown():
    from hostspeed import REFERENCE_S, HostSpeed

    host = HostSpeed()
    assert host.slowdown() == 1.0
    host.samples = [REFERENCE_S, 3 * REFERENCE_S, 2 * REFERENCE_S]
    assert host.slowdown() == pytest.approx(2.0)
    host.sample(3)
    assert len(host.samples) == 6
    assert host.slowdown() > 0
    assert host.slowdown() == 1.0      # nothing sampled since


def test_serve_figures_weight_every_route_equally():
    from wl_serve import ServeMixed

    wl = ServeMixed(1)
    routes = list(catalog.ROUTES)
    # the first route is ten times as frequent and twice as slow
    wl.scaled = [(0.002 if r == routes[0] else 0.001, r)
                 for r in routes for _ in range(
                     1000 if r == routes[0] else 100)]
    values, _ = wl.latency_figures()
    k = len(routes)
    assert values["latency_ms_p50"] == pytest.approx(2 ** (1 / k))
    assert values["throughput_per_s"] == pytest.approx(1000 / 2 ** (1 / k))
    assert wl.warnings == []


# -- the reference scanner

@pytest.mark.parametrize("name", available())
def test_scanner_call_graph_matches_the_units(name):
    from repro.core.units import build_units
    from repro.frontend import parse_source

    source = get_source(name)
    units = build_units(parse_source(source), AnalysisConfig())
    scanned = corpus.scan(source)
    assert {q: set(f.callees) for q, f in scanned.functions.items()} == \
        {q: set(u.callees) for q, u in units.items()}
    assert corpus.literals(source, scanned)


# -- every check fails on one corrupted answer

@pytest.fixture(scope="module")
def cold_results():
    config = AnalysisConfig(use_cache=False)
    return {n: Pipeline(config).run(get_source(n), filename=f"{n}.c")
            for n in corpus.CLOSED_FORM_PROGRAMS}


class _OffByOne:
    """A result whose answer for one function is one too high."""

    def __init__(self, real, function):
        self.real, self.function = real, function

    def fp_instructions(self, function, params=None):
        v = self.real.fp_instructions(function, params)
        return v + 1 if function == self.function else v

    def function_models(self):
        models = dict(self.real.function_models())
        if self.function in models:
            models[self.function] = types.SimpleNamespace(terms=[
                types.SimpleNamespace(desc="stmt", count=Int(99))])
        return models


@pytest.mark.parametrize("name,function", [
    ("dgemm", "dgemm_kernel"), ("dgemm", "checksum"), ("stream", "main"),
    ("stream", "tuned_triad"), ("minife", "waxpby"), ("minife", "dot_prod"),
    ("listings", "listing3"), ("fig5", "A::foo")])
def test_closed_form_check_catches_one_wrong_answer(cold_results, name,
                                                    function):
    real = cold_results[name]
    assert corpus.check_result(name, get_source(name), real) == []
    assert corpus.check_result(name, get_source(name),
                               _OffByOne(real, function))


def test_cold_check_catches_a_changed_result(cold_results):
    from wl_cold import ColdCorpus

    wl = ColdCorpus(1)
    wl.prepare()
    wl.setup()
    real = cold_results["fig5"]
    assert wl.check("fig5", real) == []
    changed = Pipeline(AnalysisConfig(use_cache=False)).run(
        get_source("fig5").replace("b[j] * 2.0", "b[j] * 3.0"),
        filename="fig5.c")
    assert wl.check("fig5", changed)


def test_edit_checks_catch_wrong_fresh_sets_and_wrong_models(tmp_path):
    import dataclasses

    from wl_edit import EditReanalyze

    wl = EditReanalyze(1)
    wl.prepare()
    try:
        wl.setup()
        source = wl.sources["dgemm"]
        lit = next(x for x in wl.lits["dgemm"] if x.function == "checksum")
        edited = corpus.apply_edit(source, lit, corpus.bump(lit, 1))
        result = wl.analyzer.analyze(edited, filename="dgemm.c")
        assert sorted(result.fresh_functions()) == ["checksum", "main"]
        assert wl.check("dgemm", "checksum", edited, result, True) == []
        # a fresh set that misses the caller
        wrong = dataclasses.replace(
            result, restored_functions=("dgemm_kernel", "main"))
        assert wl.check("dgemm", "checksum", edited, wrong, False)
        # a model that differs from the cold analysis
        swapped = dataclasses.replace(
            result, models={**result.models,
                            "checksum": result.models["dgemm_kernel"]})
        assert wl.check("dgemm", "checksum", edited, swapped, True)
    finally:
        wl.close()


def test_edit_sessions_start_again_from_the_originals(monkeypatch):
    import wl_edit

    monkeypatch.setattr(wl_edit, "SESSION_BLOCKS", 1)
    wl = wl_edit.EditReanalyze(1)
    wl.prepare()
    try:
        wl.setup()
        first = wl.cache_dir
        for _ in range(2):
            wl.block(False)
        assert wl.failed == 0 and wl.cache_dir != first
        for name in wl.names:     # one edit since the session began
            before = [x.text for x in corpus.literals(wl.originals[name])]
            after = [x.text for x in wl.lits[name]]
            assert sum(a != b for a, b in zip(before, after)) == 1, name
    finally:
        wl.close()


def test_sweep_checks_catch_one_wrong_point():
    from wl_sweep import SweepGrid

    wl = SweepGrid(1)
    wl.prepare()
    wl.setup()
    # each side of the int64 boundary
    for beyond in (False, True):
        name, function, grid, _ = next(
            sw for sw in wl.sweeps if sw[0] == "dgemm" and sw[3] == beyond)
        swept = wl.models[name].sweep(function, grid)
        fp = swept.fp_series()
        assert wl.check_sweep(name, function, grid, beyond, swept, fp) == []
        chunks = "object_chunks" if beyond else "int64_chunks"
        assert swept.vector_stats[chunks] >= 1
        bad = list(fp)
        bad[7] += 1
        assert wl.check_sweep(name, function, grid, beyond, swept, bad)

    name, function, params = wl.predictions[0][2]
    metrics = wl.models[name].evaluate_compiled(function, params)
    assert wl.check_eval(name, function, params, metrics) == []
    counts = dict(metrics.counts)
    key = next(k for k, v in counts.items() if v)
    counts[key] += 1
    assert wl.check_eval(name, function, params,
                         types.SimpleNamespace(counts=counts))


def test_serve_checks_catch_one_wrong_reply():
    import random

    from repro.serve.client import HTTPStatusError
    from wl_serve import ServeMixed

    wl = ServeMixed(1)
    wl.prepare()
    wl.ids = {n: f"id-{n}" for n in wl.names}

    name, function, params, want = random.Random(0).choice(wl.cases)
    _, check = wl._req_evaluate(random.Random(0), 1)
    fp = corpus.dgemm_fp(params["n"]) if function == "dgemm_kernel" else 0
    assert check({"counts": dict(want), "fp_ins": fp}) == []
    wrong = dict(want)
    key = next(iter(wrong), "Integer arithmetic instruction")
    wrong[key] = wrong.get(key, 0) + 1
    assert check({"counts": wrong, "fp_ins": fp})

    rng = random.Random(0)
    _, _, closed = rng.choice(wl._SWEEPS)
    values = sorted(rng.sample(range(1, 10 ** 6), 64))
    _, check = wl._req_sweep(random.Random(0), 1)
    points = [{"fp_ins": closed(v)} for v in values]
    assert check({"points": points}) == []
    points[5] = {"fp_ins": closed(values[5]) + 1}
    assert check({"points": points})
    assert check(HTTPStatusError(500, "boom", "POST", "/", None))

    _, check = wl._req_diff(random.Random(0), 1)
    a, b = wl.deck["diff"][0][0]
    extra = [{"function": f} for f in wl.functions[b] - wl.functions[a]]
    good = {"added": extra, "removed": [
        {"function": f} for f in wl.functions[a] - wl.functions[b]],
        "identical": a == b}
    assert check(good) == []
    assert check(dict(good, added=extra + [{"function": "ghost"}]))

    _, check = wl._req_submit_invalid(random.Random(0), 1)
    assert check(HTTPStatusError(400, "Bad Request", "POST", "/",
                                 {"error": {"type": "ParseError"}})) == []
    assert check({"id": "x", "origin": "cold"})
