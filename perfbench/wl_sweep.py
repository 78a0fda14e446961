"""sweep_grid: columnar model sweeps and single-point compiled evaluations.

Set-up analyzes dgemm, stream (its size macro late-bound as a free model
parameter) and miniFE, and compiles their models for both engines.  Each
round then makes the calls a user sweeping a model would make, in a
seeded order, each one timed as one operation:

* dgemm ``dgemm_kernel`` and stream ``main``: one
  ``AnalysisResult.sweep(engine="auto")`` per size of a ladder from 2^10
  to 2^18 points in half-octave steps, all inside int64 range, plus one
  per size from 2^8 to 2^13 with every point beyond it (3% of all
  points), so the int64 fast path and the exact object-dtype fallback
  both run;
* miniFE ``cg_solve``: one sweep per size from 2^5 to 2^9 points, 1/32
  of them beyond int64 (miniFE has no vector form, so ``auto`` runs the
  scalar closures);
* one batch of 40 predictions, each an ``evaluate_compiled`` call on each
  of the three models at one seeded configuration (1 in 8 beyond int64).

The sizes spread the call latencies over two orders of magnitude, so
their median moves smoothly when the host slows part of a run (a sample
of identical small calls has two clusters, and its median jumps between
them).  Throughput is sweep points per second of sweep time.

Answers: dgemm must equal ``2n^3+n^2`` and stream ``46N+120`` at every
grid point, and sampled points of every sweep and every prediction must
equal the ``Expr.evaluate`` tree-walk.
"""

from __future__ import annotations

import random
from fractions import Fraction

import corpus
import harness

#: Sweep sizes (points) of one round.
INT64_SIZES = tuple(round(2 ** (k / 2)) for k in range(20, 37))
OBJECT_SIZES = tuple(round(2 ** (k / 2)) for k in range(16, 27))
MINIFE_SIZES = tuple(round(2 ** (k / 2)) for k in range(10, 19))
PREDICTIONS_PER_ROUND = 40


def _exact(counts: dict) -> dict:
    return {k: Fraction(v) for k, v in counts.items() if v != 0}


class SweepGrid(harness.Workload):
    name = "sweep_grid"
    setups = 25

    def prepare(self) -> None:
        import numpy as np

        rng = random.Random(self.seed)
        self.rng = rng
        # (model, function, grid, beyond int64) per sweep of a round
        self.sweeps = []
        for size in INT64_SIZES:
            lo = rng.randrange(1, 5_000)
            self.sweeps.append(("dgemm", "dgemm_kernel", {"n": np.arange(
                lo, lo + size, dtype=np.int64)}, False))
            step, lo = rng.randrange(1, 1_000), rng.randrange(1_000, 2_000)
            self.sweeps.append(("stream", "main", {
                "STREAM_ARRAY_SIZE": np.arange(lo, lo + step * size, step,
                                               dtype=np.int64)}, False))
        for size in OBJECT_SIZES:
            lo = 2_000_000 + rng.randrange(1, 5_000)
            self.sweeps.append(("dgemm", "dgemm_kernel", {"n": np.arange(
                lo, lo + size, dtype=np.int64)}, True))
            lo = 3 * 10 ** 17 + rng.randrange(1_000, 2_000)
            self.sweeps.append(("stream", "main", {
                "STREAM_ARRAY_SIZE": np.arange(lo, lo + size,
                                               dtype=np.int64)}, True))
        minife = [self._minife_point(rng, i % 32 == 31)
                  for i in range(MINIFE_SIZES[-1])]
        for size in MINIFE_SIZES:
            self.sweeps.append(("minife", "cg_solve", minife[:size], False))
        self.predictions = []
        for i in range(PREDICTIONS_PER_ROUND):
            huge = i % 8 == 7
            dgemm = rng.randrange(2_000_000, 10 ** 9) if huge \
                else rng.randrange(1, 100_000)
            stream = rng.randrange(3 * 10 ** 17, 10 ** 19) if huge \
                else rng.randrange(1_000, 10 ** 9)
            self.predictions.append((
                ("dgemm", "dgemm_kernel", {"n": dgemm}),
                ("stream", "main", {"STREAM_ARRAY_SIZE": stream}),
                ("minife", "cg_solve", self._minife_point(rng, huge))))
        self.references: dict = {}
        self.sweep_points = 0
        self.by_model = {name: [0, 0.0] for name in ("dgemm", "stream",
                                                      "minife")}
        self.prediction_s = 0.0
        self.prediction_batches = 0
        self.rss_mb: list[float] = []      # after each round

    @staticmethod
    def _minife_point(rng, huge: bool) -> dict:
        nrows = rng.randrange(10 ** 17, 10 ** 18) if huge \
            else rng.randrange(8, 1_000_000)
        return {"nrows": nrows, "max_iter": rng.randrange(1, 200),
                "nrows_110": nrows, "row_nnz_110": rng.choice((7, 27))}

    def setup(self) -> None:
        from repro.core import AnalysisConfig, Pipeline
        from repro.errors import VectorizeError
        from repro.workloads import get_source

        late = {"STREAM_ARRAY_SIZE": "STREAM_ARRAY_SIZE"}
        configs = {
            "dgemm": AnalysisConfig(use_cache=False),
            "stream": AnalysisConfig(use_cache=False, predefined=late,
                                     symbolic_params=tuple(late)),
            "minife": AnalysisConfig(use_cache=False),
        }
        self.models = {}
        for name, config in configs.items():
            result = Pipeline(config).run(get_source(name),
                                          filename=f"{name}.c")
            result.compiled()
            try:
                result.compiled(engine="vector")
            except VectorizeError:
                pass   # miniFE: sweeps fall back to the scalar closures
            self.models[name] = result

    def block(self, traced: bool) -> tuple[int, float]:
        calls = [*range(len(self.sweeps)), None]     # None: the predictions
        self.rng.shuffle(calls)
        points, sweep_s, busy = 0, 0.0, 0.0
        for i in calls:
            if i is None:
                busy += self._predict(traced)
                continue
            name, function, grid, beyond = self.sweeps[i]
            try:
                with self.op_span(traced):
                    t0 = self.clock()
                    swept = self.models[name].sweep(function, grid,
                                                    engine="auto")
                    fp = swept.fp_series()
                    dt = self.clock() - t0
            except Exception as exc:  # noqa: BLE001 - counted as failed
                self.record(None, [f"{name} sweep: {exc}"])
                continue
            sweep_s += dt
            points += len(fp)
            self.by_model[name][0] += len(fp)
            self.by_model[name][1] += dt
            with self.unobserved():
                self.record(dt, self.check_sweep(name, function, grid,
                                                 beyond, swept, fp))
            del swept, fp     # one sweep's result alive at a time
        self.sweep_points += points
        self.done(points, sweep_s)
        self.rss_mb.append(harness.process_rss_mb("self", "VmRSS") or 0.0)
        return 1, busy + sweep_s

    def retained_mb_per_round(self) -> float:
        """Growth of resident memory per round after the first: the memory
        each round leaves behind (0 when rounds free what they allocate)."""
        return harness.ratio(self.rss_mb[-1] - self.rss_mb[0],
                             len(self.rss_mb) - 1) if self.rss_mb else 0.0

    def layer_values(self) -> dict:
        return {"sweep.retained_mb_per_round": self.retained_mb_per_round()}

    def _predict(self, traced: bool) -> float:
        """The round's predictions, timed as one operation."""
        try:
            with self.op_span(traced):
                t0 = self.clock()
                answers = [[self.models[name].evaluate_compiled(f, params)
                            for name, f, params in prediction]
                           for prediction in self.predictions]
                dt = self.clock() - t0
        except Exception as exc:  # noqa: BLE001 - counted as failed
            self.record(None, [f"predictions: {exc}"])
            return 0.0
        self.prediction_s += dt
        self.prediction_batches += 1
        with self.unobserved():
            self.record(dt, [bad for prediction, got in zip(self.predictions,
                                                            answers)
                             for (name, f, params), metrics
                             in zip(prediction, got)
                             for bad in self.check_eval(name, f, params,
                                                        metrics)])
        return dt

    def check_eval(self, name, function, params, metrics) -> list[str]:
        if _exact(metrics.counts) == self._reference(name, function, params):
            return []
        return [f"{name}.{function}{params}: compiled evaluation differs "
                f"from the tree-walk"]

    def _reference(self, name, function, params) -> dict:
        key = (name, function, tuple(sorted(params.items())))
        if key not in self.references:
            self.references[key] = _exact(
                self.models[name].evaluate(function, params).counts)
        return self.references[key]

    def check_sweep(self, name, function, grid, beyond, swept,
                    fp) -> list[str]:
        """Closed forms at every dgemm/stream point; tree-walk samples."""
        import numpy as np

        bad = []
        if name != "minife":
            values = grid[next(iter(grid))]
            closed = corpus.dgemm_fp if name == "dgemm" else \
                corpus.stream_fp
            if beyond:
                for v, got in zip(values.tolist(), fp):
                    if got != closed(v):
                        bad.append(f"{name}: FP at {v} = {got}, expected "
                                   f"{closed(v)}")
                        break
            elif not np.array_equal(np.asarray(fp, dtype=np.int64),
                                    closed(values)):
                bad.append(f"{name}: int64-range sweep differs from the "
                           f"closed form")
        n = len(fp)
        for i in (self.rng.randrange(n), n - 1):
            point = swept.points[i]
            want = self._reference(name, function, dict(point.env)) \
                if name == "minife" else _exact(
                    self.models[name].evaluate(function, point.env).counts)
            if _exact(point.metrics.counts) != want:
                bad.append(f"{name}: sweep point {point.env} differs from "
                           f"the tree-walk")
        return bad

    def human(self) -> list[str]:
        evals = 3 * PREDICTIONS_PER_ROUND * self.prediction_batches
        return [f"sweep points = {self.sweep_points}",
                *(f"{name}_sweep_points_per_s = "
                  f"{harness.ratio(n, dt):.6g} 1/s"
                  for name, (n, dt) in self.by_model.items()),
                f"point_evals_per_s = "
                f"{harness.ratio(evals, self.prediction_s):.6g} 1/s  "
                f"(n={evals})",
                f"retained_mb_per_round = {self.retained_mb_per_round():.3g}"
                f" MiB  (over {len(self.rss_mb)} rounds)"]
