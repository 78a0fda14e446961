"""edit_reanalyze: one-token literal edits through ``IncrementalAnalyzer``.

Set-up analyzes the whole corpus into an on-disk cache in a scratch
directory.  Each operation then bumps one numeric literal inside one
function body (a seeded choice among the program's literals) and
re-analyzes the file.  A block edits every corpus program once, in a
seeded order, so blocks differ only in which literals change.  In each
block a seeded 4 of the 15 edits use a fresh analyzer, the
one-process-per-``mira diff`` case that restores from disk; the rest reuse
one long-lived analyzer, the ``--watch`` case that restores from its
in-process memo.

Edits build on each other for one session of ``SESSION_BLOCKS`` blocks, so
no version of a function repeats within it.  Each session then starts
again from the original sources, a fresh copy of the warm cache set-up
made and a new long-lived analyzer that has analyzed every original
(outside the timed calls).  A literal thus grows by at most
``SESSION_BLOCKS`` bumps, and the work of a block does not depend on how
many edits the host managed before it.

Every edit must re-analyze exactly the edited function and its transitive
callers, predicted by the text scanner in ``corpus.py``; a seeded eighth
of them must also equal a cold ``Pipeline.run`` bit for bit (stage
timings aside).
"""

from __future__ import annotations

import random
import shutil

import corpus
import harness

#: Edits per block analyzed by a fresh analyzer (restores from disk).
FRESH_PER_BLOCK = 4
#: Share of edits also compared with a cold analysis.
IDENTITY_SHARE = 0.125
#: Blocks per session: sources, cache and long-lived analyzer (whose
#: in-process memo grows with every edit) start afresh after this many.
SESSION_BLOCKS = 10


class EditReanalyze(harness.Workload):
    name = "edit_reanalyze"
    setups = 9

    def prepare(self) -> None:
        from repro.core import AnalysisConfig
        from repro.workloads import available, get_source

        self.rng = random.Random(self.seed)
        self.names = available()
        self.originals = {n: get_source(n) for n in self.names}
        self.cold_config = AnalysisConfig(use_cache=False)
        self.warm_dir = None         # the cache set-up warmed
        self.cache_dir = None        # the current session's copy of it
        self.written = 0
        self.fresh_process_edits = 0
        self.identity_checks = 0
        self.block_rates: list[float] = []

    def setup(self) -> None:
        from repro.core import AnalysisConfig, IncrementalAnalyzer

        self.warm_dir = harness.scratch_dir("edit-")
        analyzer = IncrementalAnalyzer(AnalysisConfig(cache_dir=self.warm_dir))
        for name in self.names:
            analyzer.analyze(self.originals[name], filename=f"{name}.c")
        self.bytes0 = self._bytes(self.warm_dir)
        self._new_session()

    @staticmethod
    def _bytes(cache_dir: str) -> int:
        from repro.core.batch import ModelCache

        return ModelCache(cache_dir).entry_stats()["bytes"]

    def _new_session(self) -> None:
        from repro.core import AnalysisConfig, IncrementalAnalyzer

        self._end_session()
        self.cache_dir = harness.scratch_dir("edit-session-")
        shutil.copytree(self.warm_dir, self.cache_dir, dirs_exist_ok=True)
        self.config = AnalysisConfig(cache_dir=self.cache_dir)
        self.analyzer = IncrementalAnalyzer(self.config)
        if self.tracer is not None:
            self.analyzer.add_observer(self.tracer.observe)
        self.sources = dict(self.originals)
        with self.unobserved():      # it has seen every file, as --watch has
            for name in self.names:
                self.analyzer.analyze(self.sources[name],
                                      filename=f"{name}.c")
        self.scans = {n: corpus.scan(s) for n, s in self.sources.items()}
        self.lits = {n: corpus.literals(self.sources[n], self.scans[n])
                     for n in self.names}
        self.session_blocks = 0

    def _end_session(self) -> None:
        if self.cache_dir is not None:
            self.written += self._bytes(self.cache_dir) - self.bytes0
            harness.remove_dir(self.cache_dir)
            self.cache_dir = None

    def discard_setup(self) -> None:
        self.close()

    def close(self) -> None:
        for path in (self.cache_dir, self.warm_dir):
            if path is not None:
                harness.remove_dir(path)
        self.cache_dir = self.warm_dir = None

    def block(self, traced: bool) -> tuple[int, float]:
        from repro.core import IncrementalAnalyzer

        if self.session_blocks == SESSION_BLOCKS:
            self._new_session()
        self.session_blocks += 1
        busy, done = 0.0, 0
        order = self.rng.sample(self.names, len(self.names))
        fresh = set(self.rng.sample(order, FRESH_PER_BLOCK))
        for name in order:
            lit = self.rng.choice(self.lits[name])
            source = corpus.apply_edit(self.sources[name], lit, corpus.bump(
                lit, self.rng.randint(1, 9)))
            fresh_process = name in fresh
            compare_cold = self.rng.random() < IDENTITY_SHARE
            try:
                with self.op_span(traced):
                    t0 = self.clock()
                    analyzer = self.analyzer
                    if fresh_process:
                        analyzer = IncrementalAnalyzer(self.config)
                        if traced:
                            analyzer.add_observer(self.tracer.observe)
                    result = analyzer.analyze(source, filename=f"{name}.c")
                    dt = self.clock() - t0
            except Exception as exc:  # noqa: BLE001 - counted as failed
                self.record(None, [f"{name}: {type(exc).__name__}: {exc}"])
                continue
            busy += dt
            done += 1
            self.fresh_process_edits += fresh_process
            with self.unobserved():
                bad = self.check(name, lit.function, source, result,
                                 compare_cold)
            self.record(dt, bad)
            self.sources[name] = source
            self.scans[name] = corpus.scan(source)
            self.lits[name] = corpus.literals(source, self.scans[name])
        self.done(done, busy)
        self.block_rates.append(harness.ratio(done, busy))
        return done, busy

    def check(self, name: str, function: str, source: str, result,
              compare_cold: bool) -> list[str]:
        """The edit re-analyzed exactly ``function`` and its transitive
        callers, and (when sampled) equals a cold analysis."""
        from repro.core import Pipeline

        bad = []
        want = self.scans[name].expected_fresh(function)
        got = set(result.fresh_functions())
        if got != want:
            bad.append(f"{name}: edit in {function} re-analyzed "
                       f"{sorted(got)}, expected {sorted(want)}")
        if compare_cold:
            self.identity_checks += 1
            cold = Pipeline(self.cold_config).run(source,
                                                  filename=f"{name}.c")
            if harness.wire(cold) != harness.wire(result):
                bad.append(f"{name}: incremental result differs from a "
                           f"cold analysis after editing {function}")
        return bad

    def stop(self) -> None:
        self._end_session()

    def layer_values(self) -> dict:
        return {"cache.bytes_written": harness.ratio(self.written,
                                                     self.attempted)}

    def human(self) -> list[str]:
        # The edit rate by a block's place in its session: flat when the
        # work of a block does not grow as its session's edits pile up.
        by_place = [harness.median(self.block_rates[i::SESSION_BLOCKS])
                    for i in range(min(SESSION_BLOCKS,
                                       len(self.block_rates)))]
        return [f"edits by a fresh analyzer = {self.fresh_process_edits}, "
                f"compared with a cold run = {self.identity_checks}",
                "edits_per_s by block of session = "
                + " ".join(f"{r:.3g}" for r in by_place)]
