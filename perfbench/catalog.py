"""The benchmark's workloads and metrics, in one place.

``BENCHMARK.json`` at the repo root is generated from this file
(``python3 perfbench/catalog.py > BENCHMARK.json``) and the tests check
the two agree.  This catalog also records what that file's fixed schema
has no room for: each metric's layer, the workloads it is reported on,
and for a per-layer metric the end-to-end metric it should move.

Every run prints every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``), so the end-to-end names are generic and
each workload maps them to its own unit of work (``WORKLOAD_NAMES`` gives
the workload-specific name each one is printed under).  A per-layer metric of
a layer a workload never enters reads 0 on that workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
#: Seconds of measurement per run.
RUN_SECONDS = 25

WORKLOADS = {
    "cold_corpus": "all 15 corpus programs through Pipeline.run with every "
                   "cache off: the paper's claim of fast cold static "
                   "model generation (frontend, compiler, binary, "
                   "polyhedral)",
    "edit_reanalyze": "one-token literal edits re-analyzed by "
                      "IncrementalAnalyzer over a warm on-disk cache: the "
                      "edit loop (fingerprints, cache reads/writes, "
                      "restores, cold stages for the edited call chain)",
    "sweep_grid": "columnar model sweeps from 2^5 to 2^18 points on the "
                  "int64 and object paths plus batches of compiled point "
                  "evaluations: the paper's prediction use (symbolic, "
                  "core.sweep only)",
    "serve_mixed": "mira serve child with a registry smaller than the "
                   "working set under one keep-alive client: HTTP, JSON, "
                   "registry LRU, disk promotions and cold submits",
}
ALL = tuple(WORKLOADS)
COLD, EDIT, SWEEP, SERVE = ALL

#: Workload-specific names the end-to-end metrics are printed under.
WORKLOAD_NAMES = {
    "cold_corpus": {"throughput_per_s": "cold_programs_per_s",
                    "latency_ms_p50": "cold_analyze_ms_p50",
                    "latency_ms_tail": "cold_analyze_ms_p95"},
    "edit_reanalyze": {"throughput_per_s": "edits_per_s",
                       "latency_ms_p50": "edit_reanalyze_ms_p50",
                       "latency_ms_tail": "edit_reanalyze_ms_p95"},
    "sweep_grid": {"throughput_per_s": "sweep_points_per_s",
                   "latency_ms_p50": "sweep_call_ms_p50",
                   "latency_ms_tail": "sweep_call_ms_p95"},
    "serve_mixed": {"throughput_per_s": "serve_route_rps_geomean",
                    "latency_ms_p50": "serve_route_latency_ms_p50_geomean",
                    "latency_ms_tail": "serve_route_latency_ms_p90_geomean"},
}

#: The one percentile ``latency_ms_tail`` reports on each workload (on
#: serve_mixed, of each route).  Each is chosen so that a run of
#: ``RUN_SECONDS`` on a slow host still has ten samples beyond it; a run
#: that does not is reported with a warning, never with another percentile.
TAIL_PERCENTILE = {"cold_corpus": 95, "edit_reanalyze": 95,
                   "sweep_grid": 95, "serve_mixed": 90}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    workloads: tuple
    doc: str
    bound: float | None = None      # end-to-end only
    moves: tuple = ()               # per-layer: "<workload>:<metric>"


END_TO_END = (
    Metric("throughput_per_s", "1/s", "higher", "end_to_end", ALL,
           "operations completed per second of busy time (CPU time of the "
           "benchmark process; wall clock on serve_mixed), at reference "
           "host speed (hostspeed.py); serve_mixed: geometric mean over "
           "routes of one connection's request rate on the route",
           bound=0.25),
    Metric("latency_ms_p50", "ms", "lower", "end_to_end", ALL,
           "median latency of one operation, at reference host speed; "
           "serve_mixed: geometric mean of the per-route medians",
           bound=0.25),
    Metric("latency_ms_tail", "ms", "lower", "end_to_end", ALL,
           "the workload's TAIL_PERCENTILE of one operation's latency, at "
           "reference host speed; serve_mixed: geometric mean of the "
           "per-route p90s", bound=0.25),
    Metric("setup_s", "s", "lower", "harness", ALL,
           "set-up time at reference host speed, median of several "
           "set-ups in one run", bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower", "harness", ALL,
           "peak resident memory of the measured process (the server on "
           "serve_mixed)", bound=0.1),
)

_C_TP = f"{COLD}:throughput_per_s"
_C_TAIL = f"{COLD}:latency_ms_tail"
_E_P50 = f"{EDIT}:latency_ms_p50"
_E_TAIL = f"{EDIT}:latency_ms_tail"
_S_TP = f"{SWEEP}:throughput_per_s"
_S_P50 = f"{SWEEP}:latency_ms_p50"
_V_TP = f"{SERVE}:throughput_per_s"
_V_P50 = f"{SERVE}:latency_ms_p50"
_V_TAIL = f"{SERVE}:latency_ms_tail"
_ANALYSIS = (COLD, EDIT, SERVE)   # every workload that runs cold stages
_STAGES = (COLD, EDIT)         # stage observers are attached here


def _layer(name, unit, better, layer, workloads, moves, doc):
    return Metric(name, unit, better, layer, tuple(workloads), doc,
                  moves=tuple(moves))


PER_LAYER = (
    *(_layer(f"stage.{s}_s", "s", "lower", "core.pipeline", _STAGES,
             (_C_TP, _E_P50),
             f"inclusive seconds in the {s} stage per pass")
      for s in ("parse", "compile", "disassemble", "bridge", "model")),
    _layer("frontend.preprocess_s", "s", "lower", "frontend", _ANALYSIS,
           (_C_TP, _E_P50), "self seconds in preprocess per pass"),
    _layer("frontend.lex_s", "s", "lower", "frontend", _ANALYSIS,
           (_C_TP, _E_P50), "self seconds in tokenize per pass"),
    _layer("frontend.parse_s", "s", "lower", "frontend", _ANALYSIS,
           (_C_TP, _E_P50),
           "self seconds in Parser.parse_translation_unit per pass"),
    _layer("frontend.tokens", "count", "lower", "frontend", _ANALYSIS,
           (_C_TP, _E_P50), "tokens lexed per pass"),
    _layer("frontend.tokens_per_s", "1/s", "higher", "frontend", _ANALYSIS,
           (_C_TP, _E_P50), "tokens per second of tokenize time"),
    _layer("compiler.compile_s", "s", "lower", "compiler", _ANALYSIS,
           (_C_TP, _C_TAIL), "self seconds in compile_tu per pass"),
    _layer("compiler.instructions", "count", "lower", "compiler",
           _ANALYSIS, (_C_TP, _C_TAIL),
           "instructions emitted (as disassembled) per pass"),
    _layer("binary.disassemble_s", "s", "lower", "binary", _ANALYSIS,
           (_C_TP, _C_TAIL), "self seconds in disassemble per pass"),
    _layer("binary.object_bytes", "bytes", "lower", "binary",
           _ANALYSIS, (_C_TP, _C_TAIL),
           "object-file bytes disassembled per pass"),
    _layer("bridge.build_s", "s", "lower", "bridge", _ANALYSIS,
           (_C_TP, _C_TAIL), "self seconds in build_bridge per pass"),
    _layer("bridge.cost_centers", "count", "lower", "bridge",
           _ANALYSIS, (_C_TP, _C_TAIL), "cost centers built per pass"),
    _layer("polyhedral.count_nest_s", "s", "lower", "polyhedral",
           _ANALYSIS, (_C_TAIL, _E_TAIL),
           "self seconds in count_nest per pass"),
    _layer("polyhedral.count_nest_calls", "count", "lower", "polyhedral",
           _ANALYSIS, (_C_TAIL, _E_TAIL),
           "count_nest calls from the model generator per pass"),
    _layer("model.generate_s", "s", "lower", "core.metric_generator",
           _ANALYSIS, (_C_TAIL, _E_TAIL),
           "self seconds in MetricGenerator.generate (count_nest "
           "excluded) per pass"),
    _layer("incremental.analyze_s", "s", "lower", "core.incremental",
           (EDIT,), (_E_P50,),
           "self seconds in IncrementalAnalyzer.analyze per edit "
           "(fingerprinting, restores, assembly)"),
    _layer("incremental.units_total", "count", "lower", "core.units",
           (EDIT,), (_E_P50,), "function units per edit"),
    _layer("incremental.units_fresh", "count", "lower", "core.units",
           (EDIT,), (_E_P50,), "function units re-analyzed per edit"),
    _layer("incremental.fresh_ratio", "ratio", "lower", "core.units",
           (EDIT,), (_E_P50,),
           "re-analyzed units over all units (the useful-work ratio)"),
    _layer("cache.get_s", "s", "lower", "core.batch.ModelCache", (SERVE,),
           (_V_TAIL,), "self seconds in ModelCache.get per pass"),
    _layer("cache.put_s", "s", "lower", "core.batch.ModelCache", (SERVE,),
           (_V_TAIL,), "self seconds in ModelCache.put per pass"),
    _layer("cache.get_function_s", "s", "lower", "core.batch.ModelCache",
           (EDIT,), (_E_TAIL,),
           "self seconds in ModelCache.get_function per pass"),
    _layer("cache.put_function_s", "s", "lower", "core.batch.ModelCache",
           (EDIT,), (_E_TAIL,),
           "self seconds in ModelCache.put_function per pass"),
    _layer("cache.function_hit_ratio", "ratio", "higher",
           "core.batch.ModelCache", (EDIT,), (_E_TAIL,),
           "get_function hits over lookups"),
    _layer("cache.bytes_written", "bytes", "lower", "core.batch.ModelCache",
           (EDIT, SERVE), (_E_TAIL, _V_TAIL),
           "cache bytes added per operation over the whole run"),
    _layer("symbolic.compile_s", "s", "lower", "symbolic.compile",
           (SWEEP,), (f"{SWEEP}:setup_s",),
           "seconds in AnalysisResult.compiled per set-up"),
    _layer("symbolic.codegen_emits", "count", "lower", "symbolic.compile",
           (SWEEP,), (f"{SWEEP}:setup_s",),
           "CODEGEN_COUNTS scalar+vector emits per set-up"),
    _layer("sweep.int64_chunks", "count", "higher", "core.sweep", (SWEEP,),
           (_S_TP,), "int64 chunks per sweep call"),
    _layer("sweep.object_chunks", "count", "lower", "core.sweep", (SWEEP,),
           (_S_TP,), "object-dtype chunks per sweep call"),
    _layer("sweep.int64_chunk_ratio", "ratio", "higher", "core.sweep",
           (SWEEP,), (_S_TP,), "int64 chunks over all chunks"),
    _layer("sweep.sweep_s", "s", "lower", "core.sweep", (SWEEP,), (_S_TP,),
           "self seconds in AnalysisResult.sweep per pass"),
    _layer("sweep.retained_mb_per_round", "MiB", "lower", "core.sweep",
           (SWEEP,), (f"{SWEEP}:peak_rss_mb",),
           "growth of resident memory per sweep round after the first"),
    _layer("eval.compiled_call_us", "us", "lower", "symbolic.compile",
           (SWEEP,), (_S_P50,),
           "median traced AnalysisResult.evaluate_compiled call (a "
           "round's predictions are one operation of the call sample)"),
    _layer("registry.submit_s", "s", "lower", "serve.registry", (SERVE,),
           (_V_P50,), "server self seconds in ModelRegistry.submit per "
                      "request"),
    _layer("registry.get_s", "s", "lower", "serve.registry", (SERVE,),
           (_V_P50,), "server self seconds in ModelRegistry.get per "
                      "request"),
)

#: Routes of the serve_mixed request mix, with their shares (requests per
#: deck of 70 that the client deals).  No request log or requirement
#: fixes a mix, so this one is an assumption: the five warm routes get
#: equal shares, and cold and invalid submits, the rare kinds of request,
#: small shares still large enough that every route has 100+ samples (ten
#: beyond its p90) in a run.  The gated serve figures combine per-route
#: figures with equal weight, so the shares decide only how many samples
#: each route gets and which models each request finds in the registry.
ROUTES = {"submit_warm": 12, "get": 12, "evaluate": 12, "sweep": 12,
          "diff": 12, "submit_cold": 5, "submit_invalid": 5}

PER_LAYER = PER_LAYER + tuple(
    m for route in ROUTES for m in (
        _layer(f"serve.{route}.latency_ms_p50", "ms", "lower", "serve.client",
               (SERVE,), (_V_P50,), f"client-side p50 of {route}"),
        _layer(f"serve.{route}.latency_ms_p90", "ms", "lower",
               "serve.client", (SERVE,), (_V_TAIL,),
               f"client-side p90 of {route}"),
        _layer(f"serve.{route}.requests", "count", "higher", "serve.client",
               (SERVE,), (_V_TP,), f"{route} requests in the run"),
    )) + (
    _layer("serve.registry_hits", "count", "higher", "serve.registry",
           (SERVE,), (_V_TP,), "registry hits per request (/v1/health)"),
    _layer("serve.disk_hits", "count", "lower", "serve.registry", (SERVE,),
           (_V_TAIL,), "disk promotions per request (/v1/health)"),
    _layer("serve.analyses", "count", "lower", "serve.registry", (SERVE,),
           (_V_TAIL,), "cold analyses per request (/v1/health)"),
    _layer("serve.evictions", "count", "lower", "serve.registry", (SERVE,),
           (_V_TAIL,), "registry evictions per request (/v1/health)"),
    _layer("serve.registry_hit_ratio", "ratio", "higher", "serve.registry",
           (SERVE,), (_V_TP,),
           "registry hits over registry+disk hits+analyses"),
    _layer("serve.connection_errors", "count", "lower", "serve.client",
           (SERVE,), (_V_TP,), "client connection errors in the run"),
    _layer("trace.overhead_ratio", "ratio", "lower", "harness", ALL, (),
           "traced over untraced busy time per operation"),
    _layer("trace.pass_s", "s", "lower", "harness", ALL, (),
           "traced seconds per pass: the sum the layer self times split"),
)


def benchmark_json() -> dict:
    """The benchmark description, ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
