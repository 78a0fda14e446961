"""Mira benchmark: one command, four workloads, checked answers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_corpus --seed 1 --seconds 25 \\
        --trace 0

``--workload`` is one of ``cold_corpus``, ``edit_reanalyze``,
``sweep_grid``, ``serve_mixed`` (see ``perfbench/catalog.py`` for why
each exists) or ``all``.  Inputs are generated from ``--seed``.  With
``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it alternates traced and untraced blocks and reports
the per-layer split, plus the tracing overhead, and writes the spans as
Chrome trace-event JSON under ``perfbench/out/traces/``.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 when every answer was correct, 1 when a check failed and 2 when
the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from collections import Counter

import catalog
import harness
from tracing import Tracer, span_summary
from wl_cold import ColdCorpus
from wl_edit import EditReanalyze
from wl_serve import ServeMixed
from wl_sweep import SweepGrid

#: Probe slices timed just before and just after each set-up: the host's
#: slowdown during a set-up is their median.
SETUP_PROBES = 5

WORKLOADS = {w.name: w for w in (ColdCorpus, EditReanalyze, SweepGrid,
                                 ServeMixed)}


def _codegen_emits() -> int:
    from repro.symbolic import CODEGEN_COUNTS

    return CODEGEN_COUNTS["scalar_emit"] + CODEGEN_COUNTS["vector_emit"]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the full result document."""
    tracer = Tracer() if trace else None
    wl = WORKLOADS[name](seed, tracer)
    try:
        wl.prepare()
        setup_times, setup_slowdowns = [], []
        emits0 = _codegen_emits()
        for i in range(wl.setups):
            root = None
            if tracer is not None:
                tracer.install()
                root = tracer.begin("bench.setup")
            wl.host.sample(SETUP_PROBES)
            t0 = wl.clock()
            wl.setup()
            setup_times.append(wl.clock() - t0)
            wl.host.sample(SETUP_PROBES)
            setup_slowdowns.append(wl.host.slowdown())
            if tracer is not None:
                tracer.end(root)
                tracer.uninstall()
            if i < wl.setups - 1:
                wl.discard_setup()
        setup_emits = _codegen_emits() - emits0
        if tracer is not None:
            tracer.counters.clear()

        passes = {False: 0, True: 0}
        busy = {False: 0.0, True: 0.0}
        traced = False
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            if tracer is not None:
                # alternate traced and untraced blocks: their ratio is the
                # tracing overhead
                traced = not traced
                if traced:
                    tracer.install()
                else:
                    tracer.uninstall()
                wl.set_traced(traced)
            n, dt = wl.block(traced)
            passes[traced] += n
            busy[traced] += dt
        if tracer is not None:
            tracer.uninstall()
            wl.set_traced(False)
        wl.stop()

        doc = {"stamp": harness.stamp(name, seed, seconds, trace),
               "attempted": wl.attempted, "failed": wl.failed,
               "problems": wl.problems, "setup_times": setup_times,
               "setup_slowdowns": setup_slowdowns, "work": wl.work,
               "slowdowns": wl.slowdowns}
        if trace:
            doc["metrics"], doc["trace_events"] = _layer_metrics(
                wl, tracer, passes, busy, len(setup_times), setup_emits)
            lines = [f"{k} = {m['value']:.6g} {m['unit']}"
                     for k, m in doc["metrics"].items()]
        else:
            doc["metrics"], lines = _end_to_end(wl, setup_times,
                                                setup_slowdowns)
        doc["human"] = _human(wl, lines)
        return doc
    finally:
        wl.close()


def _end_to_end(wl, setup_times, slowdowns) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and the lines that print them under each
    workload's own names with their sample counts."""
    values, notes = wl.latency_figures()
    values["setup_s"] = harness.median(
        [t / s for t, s in zip(setup_times, slowdowns)])
    values["peak_rss_mb"] = wl.peak_rss_mb()
    notes["setup_s"] = (f"median of {len(setup_times)} set-ups; unscaled "
                        f"{wl.clock_name}: {harness.median(setup_times):.6g}")
    units = {m.name: m.unit for m in catalog.END_TO_END}
    names = catalog.WORKLOAD_NAMES[wl.name]
    lines = [f"{names.get(k, k)} = {values[k]:.6g} {units[k]}"
             + (f"  ({notes[k]})" if k in notes else "")
             for k in units]
    return {k: {"value": values[k], "unit": units[k]} for k in units}, lines


def _layer_metrics(wl, tracer, passes, busy, setups, setup_emits):
    pid = os.getpid()
    remote_events, remote_counters = wl.remote_trace()
    events = tracer.events(pid) + remote_events
    # Operations are the "bench.op" spans of this process; spans of the
    # server process (serve_mixed) have their own roots.
    loop = span_summary(events, lambda root: root["name"] == "bench.op"
                        or root["pid"] != pid)
    setup = span_summary(events, lambda root: root["name"] == "bench.setup")
    c = tracer.counters + Counter(remote_counters)
    n = passes[True]

    def self_s(span):
        return harness.ratio(loop.get(span, {}).get("self_us", 0.0) / 1e6, n)

    def total_s(span):
        return harness.ratio(loop.get(span, {}).get("total_us", 0.0) / 1e6,
                             n)

    def per(counter):
        return harness.ratio(c[counter], n)

    tokenize_s = loop.get("frontend.tokenize", {}).get("total_us", 0) / 1e6
    evals = loop.get("eval.evaluate_compiled", {}).get("durations", [])
    chunks = c["sweep.int64_chunks"] + c["sweep.object_chunks"]
    untraced = harness.ratio(busy[False], passes[False])
    traced = harness.ratio(busy[True], n)
    values = {
        **{f"stage.{s}_s": total_s(f"stage.{s}")
           for s in ("parse", "compile", "disassemble", "bridge", "model")},
        "frontend.preprocess_s": self_s("frontend.preprocess"),
        "frontend.lex_s": self_s("frontend.tokenize"),
        "frontend.parse_s": self_s("frontend.parse"),
        "frontend.tokens": per("frontend.tokens"),
        "frontend.tokens_per_s": harness.ratio(c["frontend.tokens"],
                                               tokenize_s),
        "compiler.compile_s": self_s("compiler.compile_tu"),
        "compiler.instructions": per("compiler.instructions"),
        "binary.disassemble_s": self_s("binary.disassemble"),
        "binary.object_bytes": per("binary.object_bytes"),
        "bridge.build_s": self_s("bridge.build_bridge"),
        "bridge.cost_centers": per("bridge.cost_centers"),
        "polyhedral.count_nest_s": self_s("polyhedral.count_nest"),
        "polyhedral.count_nest_calls": harness.ratio(
            loop.get("polyhedral.count_nest", {}).get("count", 0), n),
        "model.generate_s": self_s("model.generate"),
        "incremental.analyze_s": self_s("incremental.analyze"),
        "incremental.units_total": per("incremental.units_total"),
        "incremental.units_fresh": per("incremental.units_fresh"),
        "incremental.fresh_ratio": harness.ratio(
            c["incremental.units_fresh"], c["incremental.units_total"]),
        "cache.get_s": self_s("cache.get"),
        "cache.put_s": self_s("cache.put"),
        "cache.get_function_s": self_s("cache.get_function"),
        "cache.put_function_s": self_s("cache.put_function"),
        "cache.function_hit_ratio": harness.ratio(
            c["cache.function_hits"], c["cache.function_lookups"]),
        "symbolic.compile_s": harness.ratio(
            setup.get("symbolic.compiled", {}).get("total_us", 0) / 1e6,
            setups),
        "symbolic.codegen_emits": harness.ratio(setup_emits, setups),
        "sweep.int64_chunks": harness.ratio(c["sweep.int64_chunks"],
                                            c["sweep.calls"]),
        "sweep.object_chunks": harness.ratio(c["sweep.object_chunks"],
                                             c["sweep.calls"]),
        "sweep.int64_chunk_ratio": harness.ratio(c["sweep.int64_chunks"],
                                                 chunks),
        "sweep.sweep_s": self_s("sweep.sweep"),
        "eval.compiled_call_us": harness.median(evals),
        "registry.submit_s": self_s("registry.submit"),
        "registry.get_s": self_s("registry.get"),
        "trace.overhead_ratio": harness.ratio(traced, untraced),
        "trace.pass_s": traced,
    }
    values.update(wl.layer_values())
    metrics = {m.name: {"value": float(values.get(m.name, 0.0)),
                        "unit": m.unit} for m in catalog.PER_LAYER}
    return metrics, events


def _human(wl, lines: list[str]) -> list[str]:
    return [*lines, *wl.human(),
            f"error_rate = {harness.ratio(wl.failed, wl.attempted):.6g}"
            f"  ({wl.failed} of {wl.attempted} operations)",
            *(f"WARNING: {w}" for w in wl.warnings),
            *(f"PROBLEM: {p}" for p in wl.problems)]


def _write(doc: dict, name: str, seed: int, trace: bool,
           trace_out: str | None) -> None:
    events = doc.pop("trace_events", None)
    os.makedirs(os.path.join(harness.OUT_DIR, "results"), exist_ok=True)
    path = os.path.join(harness.OUT_DIR, "results",
                        f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    if events is not None:
        out = trace_out or os.path.join(harness.OUT_DIR, "traces",
                                        f"{name}-seed{seed}.json")
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": doc["stamp"]}, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*catalog.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None,
                    help="trace-event JSON path (default "
                         "perfbench/out/traces/<workload>-seed<n>.json)")
    args = ap.parse_args(argv)
    # A terminated run still stops its server child and removes its
    # scratch directories (the workloads release them in ``finally``).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        harness.bootstrap()
    except harness.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    names = list(catalog.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        doc = measure(name, args.seed, args.seconds, bool(args.trace))
        _write(doc, name, args.seed, bool(args.trace), args.trace_out)
        print(f"# {name}: " + " ".join(
            f"{k}={v}" for k, v in doc["stamp"].items() if k != "workload"))
        for line in doc["human"]:
            print(f"{name}: {line}" if len(names) > 1 else line)
        final["attempted"] += doc["attempted"]
        final["failed"] += doc["failed"]
        final["correct"] = final["correct"] and doc["failed"] == 0
        if len(names) == 1:
            final["metrics"] = doc["metrics"]
        else:
            final["metrics"].update(
                {f"{name}.{k}": v for k, v in doc["metrics"].items()})
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
