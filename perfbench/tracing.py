"""Layer spans recorded from outside the program.

The traced run times each layer by wrapping the public entry points of
the repo's modules in this process only (nothing under ``src/`` changes),
plus the stage events the pipelines already publish through
``Pipeline.add_observer`` / ``IncrementalAnalyzer.add_observer``.  Spans
nest per thread; each records its parent's id, so a layer's *self* time is
its duration minus the time its child spans cover.  Spans stay in memory
and are written once, at the end, as Chrome trace-event JSON.

Wrapped functions are patched in every ``repro.*`` module that imported
them, except the defining module, so recursion inside a layer is not
counted as separate calls.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: Free functions: (public path, span name).
FUNCTIONS = (
    ("repro.frontend.preprocess", "frontend.preprocess"),
    ("repro.frontend.tokenize", "frontend.tokenize"),
    ("repro.compiler.compile_tu", "compiler.compile_tu"),
    ("repro.binary.disassemble", "binary.disassemble"),
    ("repro.bridge.build_bridge", "bridge.build_bridge"),
    ("repro.polyhedral.count_nest", "polyhedral.count_nest"),
)

#: Methods: (public path of the class, method, span name).
METHODS = (
    ("repro.frontend.Parser", "parse_translation_unit", "frontend.parse"),
    ("repro.core.metric_generator.MetricGenerator", "generate",
     "model.generate"),
    ("repro.core.IncrementalAnalyzer", "analyze", "incremental.analyze"),
    ("repro.core.batch.ModelCache", "get", "cache.get"),
    ("repro.core.batch.ModelCache", "put", "cache.put"),
    ("repro.core.batch.ModelCache", "get_function", "cache.get_function"),
    ("repro.core.batch.ModelCache", "put_function", "cache.put_function"),
    ("repro.core.AnalysisResult", "compiled", "symbolic.compiled"),
    ("repro.core.AnalysisResult", "sweep", "sweep.sweep"),
    ("repro.core.AnalysisResult", "evaluate_compiled",
     "eval.evaluate_compiled"),
    ("repro.serve.registry.ModelRegistry", "submit", "registry.submit"),
    ("repro.serve.registry.ModelRegistry", "get", "registry.get"),
    ("repro.serve.MiraClient", "request", "serve.request"),
)


def _after_tokenize(tr, args, out):
    tr.count("frontend.tokens", len(out))


def _after_disassemble(tr, args, out):
    tr.count("binary.object_bytes", len(args[0]))
    tr.count("compiler.instructions",
             sum(len(f.instructions) for f in out.functions))


def _after_bridge(tr, args, out):
    tr.count("bridge.cost_centers", sum(len(b.centers) for b in out.values()))


def _after_get_function(tr, args, out):
    tr.count("cache.function_lookups")
    if out is not None:
        tr.count("cache.function_hits")


def _after_analyze(tr, args, out):
    tr.count("incremental.units_total", len(out.models))
    tr.count("incremental.units_fresh", len(out.fresh_functions()))


def _after_sweep(tr, args, out):
    tr.count("sweep.calls")
    for key in ("int64_chunks", "object_chunks"):
        tr.count(f"sweep.{key}", out.vector_stats.get(key, 0))


#: Counters taken from a call's arguments/result, after its span closed.
AFTER = {
    "frontend.tokenize": _after_tokenize,
    "binary.disassemble": _after_disassemble,
    "bridge.build_bridge": _after_bridge,
    "cache.get_function": _after_get_function,
    "incremental.analyze": _after_analyze,
    "sweep.sweep": _after_sweep,
}


class Span:
    __slots__ = ("id", "parent", "name", "tid", "start", "end")

    def __init__(self, id_, parent, name, tid, start):
        self.id, self.parent, self.name = id_, parent, name
        self.tid, self.start, self.end = tid, start, 0.0


def _resolve(path: str):
    module, _, attr = path.rpartition(".")
    return importlib.import_module(module), attr


class Tracer:
    """Per-thread span stacks, counters, and the layer patches."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.enabled = False
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list = []

    # -- spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), stack[-1].id if stack else 0, name,
                    threading.get_ident(), time.perf_counter())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span`` and any span still open inside it (a layer that
        raised mid-stage never sends its end event)."""
        stack = self._stack()
        if span not in stack:
            return
        now = time.perf_counter()
        while stack:
            top = stack.pop()
            top.end = now
            self.spans.append(top)
            if top is span:
                return

    @contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    @contextmanager
    def paused(self):
        """Record nothing inside (the benchmark's own checks)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def observe(self, event) -> None:
        """A ``StageEvent`` observer: stage spans and restore counts."""
        if not self.enabled:
            return
        if event.phase == "start":
            self.begin(f"stage.{event.stage}")
        elif event.phase == "end":
            name = f"stage.{event.stage}"
            for span in reversed(self._stack()):
                if span.name == name:
                    self.end(span)
                    break
        elif event.phase == "cache-hit":
            self.count("incremental.restored")

    # -- patches
    def _wrap(self, fn, name: str):
        after = AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(tracer, args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every layer entry point; idempotent."""
        if self._patches:
            self.enabled = True
            return
        for path, name in FUNCTIONS:
            module, attr = _resolve(path)
            original = getattr(module, attr)
            traced = self._wrap(original, name)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if not mod_name.startswith("repro") \
                        or mod_name == original.__module__:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, traced)
        for path, method, name in METHODS:
            module, attr = _resolve(path)
            cls = getattr(module, attr)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(original, name))
        self.enabled = True

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        self.enabled = False

    # -- export
    def events(self, pid: int) -> list[dict]:
        """Closed spans as Chrome trace "complete" events (microseconds)."""
        tids: dict = {}
        out = []
        for s in self.spans:
            tid = tids.setdefault(s.tid, len(tids) + 1)
            out.append({"name": s.name, "cat": s.name.split(".")[0],
                        "ph": "X", "ts": s.start * 1e6,
                        "dur": (s.end - s.start) * 1e6, "pid": pid,
                        "tid": tid, "args": {"id": s.id,
                                             "parent": s.parent}})
        return out


def span_summary(events, keep=lambda root: True) -> dict:
    """Per span name: ``{"count", "total_us", "self_us", "durations"}``
    over the spans whose outermost ancestor satisfies ``keep`` (parent
    ids refer to spans of the same ``pid``)."""
    by_id = {(e["pid"], e["args"]["id"]): e for e in events}
    covered: dict = defaultdict(float)
    for e in events:
        parent = (e["pid"], e["args"]["parent"])
        if parent in by_id:
            covered[parent] += e["dur"]

    def root(e):
        while True:
            parent = by_id.get((e["pid"], e["args"]["parent"]))
            if parent is None:
                return e
            e = parent

    out: dict = {}
    for e in events:
        if not keep(root(e)):
            continue
        row = out.setdefault(e["name"], {"count": 0, "total_us": 0.0,
                                         "self_us": 0.0, "durations": []})
        row["count"] += 1
        row["total_us"] += e["dur"]
        row["self_us"] += e["dur"] - covered[(e["pid"], e["args"]["id"])]
        row["durations"].append(e["dur"])
    return out
