"""serve_mixed: ``mira serve`` under a seeded closed-loop request mix.

The server runs as a child process (``serve_child.py``) with a scratch
``--cache-dir`` and a registry of 6 models, smaller than the 15-program
working set, so warm requests mix registry hits with disk promotions.
Set-up starts it and submits the corpus once (cold).  One keep-alive
``MiraClient`` in the benchmark process then sends requests one after
another (a closed loop), dealt from shuffled decks with the shares in
``catalog.ROUTES`` (an assumed mix; see there):

* ``submit_warm``: re-submit a corpus program (same id, not cold),
* ``get``: fetch a stored model (its functions must match),
* ``evaluate``: one point of one function (must equal the local
  ``Expr.evaluate`` tree-walk; dgemm also ``2n^3+n^2``),
* ``sweep``: a 64-point kernel sweep (FP must match the closed forms),
* ``diff``: two corpus models, each program paired with the next in a
  seeded order plus a few self-diffs (added/removed functions must match),
* ``submit_cold``: a corpus program (each in turn) with one literal
  bumped and a unique comment (a cold analysis),
* ``submit_invalid``: a program with a stray ``)`` (400 ``ParseError``).

The load is one client because on a 2-vCPU host the load process needs
about as much CPU as the server (both encode and decode the JSON in
Python): a second client thread made each request slower rather than the
server busier.  Two clients completed fewer requests per second than
one, and their figures spread 14-21% from run to run, against about 5%
for one client.

Latency is measured client side around each call.  After each request
the host's speed is probed while the server is idle (``hostspeed.py``),
and each one-second window's latencies are divided by the host's
slowdown in it.  The gated figures are
per-route figures combined with equal weight, so they do not depend on
the assumed shares directly: geometric means over the routes of one
connection's request rate on the route (requests over the seconds spent
waiting for them), of the route's p50 and of its p90.  The blended rate,
all requests completed over the seconds spent waiting for them, is
printed as ``serve_rps`` in wall-clock terms.
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import time
from collections import defaultdict

import catalog
import corpus
import harness

REGISTRY_SIZE = 6
WINDOW_S = 1.0
SWEEP_POINTS = 64
HERE = os.path.dirname(os.path.abspath(__file__))


def _jsonable(doc):
    return json.loads(json.dumps(doc))


class ServeMixed(harness.Workload):
    name = "serve_mixed"
    setups = 5
    in_process = False

    def prepare(self) -> None:
        from repro.core import AnalysisConfig, Pipeline
        from repro.workloads import available, get_source

        rng = random.Random(self.seed)
        self.names = available()
        self.sources = {n: get_source(n) for n in self.names}
        self.scans = {n: corpus.scan(s) for n, s in self.sources.items()}
        self.lits = {n: corpus.literals(s, self.scans[n])
                     for n, s in self.sources.items()}
        config = AnalysisConfig(use_cache=False)
        local = {n: Pipeline(config).run(s, filename=f"{n}.c")
                 for n, s in self.sources.items()}
        self.functions = {n: set(r.models) for n, r in local.items()}
        # One case per corpus function, so every seed evaluates the same
        # functions; only the (small) parameter values are drawn.
        self.cases = []
        for name in self.names:
            for function in local[name].models:
                params = {p: rng.randrange(1, 9)
                          for p in local[name].parameters(function)}
                if function == "dgemm_kernel":
                    params = {"n": rng.randrange(1, 10 ** 7)}
                want = _jsonable(local[name].evaluate(function, params)
                                 .as_dict())
                self.cases.append((name, function, params, want))
        # The client deals routes, cold-submit programs and diff pairs from
        # shuffled decks, so every run carries the same mix of cheap and
        # expensive requests (a diff of two large models costs ten times a
        # small one).
        routes = [r for r, share in catalog.ROUTES.items()
                  for _ in range(share)]
        order = rng.sample(self.names, len(self.names))
        diffs = [(a, order[(i + 1) % len(order)])
                 for i, a in enumerate(order)] + [(a, a) for a in order[:3]]
        self.deck = {"route": [routes, 0], "cold": [order, 0],
                     "diff": [diffs, 0]}
        self.rng = random.Random(self.seed * 1009)
        self.counter = 0
        self.proc = None
        self.client = None
        self.cache_dir = None
        self.trace_file = None
        self.completions = []      # (latency s, route)
        self.scaled = []           # (latency s / host slowdown, route)
        self.connection_errors = []
        self.remote = ([], {})

    # -- the server
    def setup(self) -> None:
        from repro.serve import MiraClient

        self.cache_dir = harness.scratch_dir("serve-")
        cmd = [sys.executable, os.path.join(HERE, "serve_child.py")]
        if self.tracer is not None:
            self.trace_file = os.path.join(self.cache_dir, "trace.json")
            cmd += ["--trace-out", self.trace_file]
        cmd += ["--port", "0", "--cache-dir",
                os.path.join(self.cache_dir, "models"),
                "--registry-size", str(REGISTRY_SIZE)]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        m = re.search(r"listening on (http://\S+)", line)
        if m is None:
            raise RuntimeError(f"mira serve did not start: {line!r}")
        self.url = m.group(1)
        self.ids = {}
        with MiraClient(self.url) as client:
            for name in self.names:
                doc = client.submit(self.sources[name],
                                    filename=f"{name}.c")
                self.ids[name] = doc["id"]
            self.health0 = client.health()
        self.bytes0 = self._cache_bytes()

    def _cache_bytes(self) -> int:
        from repro.core.batch import ModelCache

        return ModelCache(os.path.join(self.cache_dir, "models")) \
            .entry_stats()["bytes"]

    def _stop_server(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None

    def discard_setup(self) -> None:
        self._stop_server()
        harness.remove_dir(self.cache_dir)

    def set_traced(self, traced: bool) -> None:
        if self.proc is not None and self.trace_file is not None:
            self.proc.send_signal(signal.SIGUSR1 if traced
                                  else signal.SIGUSR2)

    # -- load
    def block(self, traced: bool) -> tuple[int, float]:
        """Requests, one after another, for ``WINDOW_S`` seconds."""
        from repro.serve import MiraClient

        if self.client is None:
            self.client = MiraClient(self.url)
        mark = len(self.completions)
        end = time.perf_counter() + WINDOW_S
        while time.perf_counter() < end:
            self.counter += 1
            self._one(self._deal("route"), traced)
        done = self.completions[mark:]
        busy = sum(dt for dt, _ in done)
        self.done(len(done), busy)
        slowdown = self.slowdowns[-1]
        self.scaled.extend((dt / slowdown, route) for dt, route in done)
        return len(done), busy

    def _deal(self, kind: str):
        """The next card of the ``kind`` deck, reshuffled each time
        round."""
        slot = self.deck[kind]
        deck, dealt = slot
        if dealt % len(deck) == 0:
            self.rng.shuffle(deck)
        slot[1] += 1
        return deck[dealt % len(deck)]

    def _one(self, route: str, traced: bool) -> None:
        from repro.serve.client import ClientConnectionError, HTTPStatusError

        call, check = getattr(self, f"_req_{route}")(self.rng, self.counter)
        try:
            with self.op_span(traced):
                t0 = time.perf_counter()
                try:
                    out = call(self.client)
                except HTTPStatusError as exc:
                    out = exc
                dt = time.perf_counter() - t0
        except ClientConnectionError as exc:
            self.connection_errors.append(route)
            self.record(None, [f"{route}: {exc}"])
            return
        except Exception as exc:  # noqa: BLE001 - counted as failed
            self.record(None, [f"{route}: {type(exc).__name__}: {exc}"])
            return
        self.completions.append((dt, route))
        self.record(dt, check(out))

    # -- the request mix: (call, check) per route
    @staticmethod
    def _unexpected(route, out) -> list[str]:
        if isinstance(out, Exception):
            return [f"{route}: {out}"]
        return []

    def _req_submit_warm(self, rng, counter):
        name = rng.choice(self.names)

        def check(doc):
            bad = self._unexpected("submit_warm", doc)
            if not bad and (doc["id"] != self.ids[name]
                            or doc["origin"] == "cold"):
                bad.append(f"submit_warm {name}: id {doc['id']} origin "
                           f"{doc['origin']}")
            return bad
        return (lambda c: c.submit(self.sources[name],
                                   filename=f"{name}.c")), check

    def _req_get(self, rng, counter):
        name = rng.choice(self.names)

        def check(doc):
            bad = self._unexpected("get", doc)
            if not bad and (doc["id"] != self.ids[name] or
                            set(doc["functions"]) != self.functions[name]):
                bad.append(f"get {name}: wrong model served")
            return bad
        return (lambda c: c.analysis(self.ids[name])), check

    def _req_evaluate(self, rng, counter):
        name, function, params, want = rng.choice(self.cases)

        def check(doc):
            bad = self._unexpected("evaluate", doc)
            if not bad and doc["counts"] != want:
                bad.append(f"evaluate {name}.{function}{params}: served "
                           f"counts differ from the local tree-walk")
            if not bad and function == "dgemm_kernel" and \
                    doc["fp_ins"] != corpus.dgemm_fp(params["n"]):
                bad.append(f"evaluate dgemm_kernel n={params['n']}: "
                           f"FP {doc['fp_ins']}")
            return bad
        return (lambda c: c.evaluate(self.ids[name], function,
                                     params)), check

    _SWEEPS = (("dgemm", "dgemm_kernel", corpus.dgemm_fp),
               ("stream", "tuned_triad", lambda n: 2 * n),
               ("minife", "waxpby", lambda n: 3 * n))

    def _req_sweep(self, rng, counter):
        name, function, closed = rng.choice(self._SWEEPS)
        values = sorted(rng.sample(range(1, 10 ** 6), SWEEP_POINTS))

        def check(doc):
            bad = self._unexpected("sweep", doc)
            if not bad and [p["fp_ins"] for p in doc["points"]] != \
                    [closed(v) for v in values]:
                bad.append(f"sweep {name}.{function}: FP series differs "
                           f"from the closed form")
            return bad
        return (lambda c: c.sweep(self.ids[name], function,
                                  {"n": values})), check

    def _req_diff(self, rng, counter):
        a, b = self._deal("diff")

        def check(doc):
            bad = self._unexpected("diff", doc)
            if bad:
                return bad
            added = {d["function"] for d in doc["added"]}
            removed = {d["function"] for d in doc["removed"]}
            if added != self.functions[b] - self.functions[a] or \
                    removed != self.functions[a] - self.functions[b] or \
                    (a == b) != doc["identical"]:
                bad.append(f"diff {a} {b}: wrong added/removed functions")
            return bad
        return (lambda c: c.diff(self.ids[a], self.ids[b])), check

    def _req_submit_cold(self, rng, counter):
        # A small literal bump plus a comment no earlier request carried
        # makes each submission new.
        name = self._deal("cold")
        lit = rng.choice(self.lits[name])
        source = corpus.apply_edit(self.sources[name], lit,
                                   corpus.bump(lit, rng.randint(1, 9)))
        source += f"/* variant {counter} */\n"

        def check(doc):
            bad = self._unexpected("submit_cold", doc)
            if not bad and (doc["origin"] != "cold" or
                            set(doc["functions"]) != self.functions[name]):
                bad.append(f"submit_cold {name}: origin {doc['origin']}")
            return bad
        return (lambda c: c.submit(source, filename=f"{name}.c")), check

    def _req_submit_invalid(self, rng, counter):
        name = rng.choice(self.names)
        fn = rng.choice(list(self.scans[name].functions.values()))
        at = fn.body[0] + 1
        source = self.sources[name][:at] + " ) " + self.sources[name][at:]

        def check(out):
            if getattr(out, "status", None) == 400 and \
                    getattr(out, "error_type", None) == "ParseError":
                return []
            return [f"submit_invalid {name}: expected 400 ParseError, "
                    f"got {out!r:.120}"]
        return (lambda c: c.submit(source, filename=f"{name}.c")), check

    # -- end of the run
    def stop(self) -> None:
        from repro.serve import MiraClient

        self._close_client()
        with MiraClient(self.url) as client:
            self.health1 = client.health()
        self.bytes1 = self._cache_bytes()
        self.server_rss = harness.process_rss_mb(self.proc.pid)
        self._stop_server()
        if self.trace_file is not None and os.path.exists(self.trace_file):
            with open(self.trace_file, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            self.remote = (doc["events"], doc["counters"])

    def _close_client(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None

    def close(self) -> None:
        self._close_client()
        self._stop_server()
        if self.cache_dir is not None:
            harness.remove_dir(self.cache_dir)

    def peak_rss_mb(self) -> float:
        return self.server_rss or 0.0

    def remote_trace(self) -> tuple[list, dict]:
        return self.remote

    def _by_route(self) -> dict:
        by_route = defaultdict(list)
        for dt, route in self.scaled:
            by_route[route].append(dt * 1e3)
        return by_route

    def latency_figures(self) -> tuple[dict, dict]:
        p = catalog.TAIL_PERCENTILE[self.name]
        by_route = self._by_route()
        rates, p50s, tails = [], [], []
        for route in catalog.ROUTES:
            lat = by_route.get(route)
            if not lat:
                self.warnings.append(f"no {route} request completed")
                continue
            if harness.too_few_beyond(len(lat), p):
                self.warnings.append(f"only {len(lat)} {route} samples: "
                                     f"fewer than {harness.MIN_BEYOND} lie "
                                     f"beyond p{p}")
            rates.append(len(lat) / (sum(lat) / 1e3))
            p50s.append(harness.percentile(lat, 50))
            tails.append(harness.percentile(lat, p))
        values = {"throughput_per_s": harness.geomean(rates),
                  "latency_ms_p50": harness.geomean(p50s),
                  "latency_ms_tail": harness.geomean(tails)}
        notes = {k: f"geometric mean over {len(rates)} routes"
                 for k in values}
        return values, notes

    def layer_values(self) -> dict:
        n = len(self.completions)
        by_route = self._by_route()
        out = {}
        for route in catalog.ROUTES:
            lat = by_route.get(route, [])
            out[f"serve.{route}.latency_ms_p50"] = \
                harness.percentile(lat, 50) if lat else 0.0
            out[f"serve.{route}.latency_ms_p90"] = \
                harness.percentile(lat, 90) if lat else 0.0
            out[f"serve.{route}.requests"] = len(lat)
        r0, r1 = self.health0["registry"], self.health1["registry"]
        delta = {k: r1[k] - r0[k] for k in ("registry_hits", "disk_hits",
                                            "analyses", "evictions")}
        for key, value in delta.items():
            out[f"serve.{key}"] = harness.ratio(value, n)
        out["serve.registry_hit_ratio"] = harness.ratio(
            delta["registry_hits"], delta["registry_hits"]
            + delta["disk_hits"] + delta["analyses"])
        out["serve.connection_errors"] = len(self.connection_errors)
        out["cache.bytes_written"] = harness.ratio(self.bytes1 - self.bytes0,
                                                   n)
        return out

    def human(self) -> list[str]:
        lat = [dt * 1e3 for dt, _ in self.completions]
        lines = [f"serve_rps = {self.throughput():.6g} 1/s  (all routes "
                 f"over {len(self.work)} one-second windows)"]
        if lat:
            lines += [f"serve_latency_ms_p50 = "
                      f"{harness.percentile(lat, 50):.6g} ms  (all routes, "
                      f"n={len(lat)})",
                      f"serve_latency_ms_p99 = "
                      f"{harness.percentile(lat, 99):.6g} ms  (all routes, "
                      f"n={len(lat)})"]
        for key, value in self.layer_values().items():
            if key.startswith("serve.") and key.count(".") == 2:
                lines.append(f"{key} = {value:.6g}")
        return lines
