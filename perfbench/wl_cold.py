"""cold_corpus: every corpus program through ``Pipeline.run``, cache off.

Each block is one pass over the 15 bundled programs in a seeded shuffle,
run one after another (a closed loop).  Only the ``Pipeline.run`` call is
timed.  Answers are checked against the README's closed forms, and every
result must serialize identically to the first analysis of its program.
"""

from __future__ import annotations

import hashlib
import json
import random

import corpus
import harness


def result_digest(result) -> str:
    """SHA-256 of a result's wire format minus its stage timings."""
    return hashlib.sha256(json.dumps(harness.wire(result), sort_keys=True)
                          .encode("utf-8")).hexdigest()


class ColdCorpus(harness.Workload):
    name = "cold_corpus"
    setups = 15

    def prepare(self) -> None:
        from repro.core import AnalysisConfig, Pipeline
        from repro.workloads import available, get_source

        self.rng = random.Random(self.seed)
        self.names = available()
        self.config = AnalysisConfig(use_cache=False)
        self.digests = {}
        for name in self.names:
            result = Pipeline(self.config).run(get_source(name),
                                               filename=f"{name}.c")
            self.digests[name] = result_digest(result)

    def setup(self) -> None:
        """Read the corpus and run one warm-up pass (lazy imports and
        interning tables are filled as in a long-lived process)."""
        from repro.core import Pipeline
        from repro.workloads import get_source

        self.sources = {n: get_source(n) for n in self.names}
        for name in self.names:
            Pipeline(self.config).run(self.sources[name],
                                      filename=f"{name}.c")

    def block(self, traced: bool) -> tuple[int, float]:
        from repro.core import Pipeline

        order = list(self.names)
        self.rng.shuffle(order)
        busy = 0.0
        for name in order:
            pipe = Pipeline(self.config)
            if traced:
                pipe.add_observer(self.tracer.observe)
            try:
                with self.op_span(traced):
                    t0 = self.clock()
                    result = pipe.run(self.sources[name],
                                      filename=f"{name}.c")
                    dt = self.clock() - t0
            except Exception as exc:  # noqa: BLE001 - counted as failed
                self.record(None, [f"{name}: {type(exc).__name__}: {exc}"])
                continue
            busy += dt
            self.record(dt, self.check(name, result))
        self.done(len(order), busy)
        return 1, busy

    def check(self, name: str, result) -> list[str]:
        bad = corpus.check_result(name, self.sources[name], result)
        if result_digest(result) != self.digests[name]:
            bad.append(f"{name}: result differs from the first analysis")
        return bad
