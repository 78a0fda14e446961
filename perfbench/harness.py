"""Shared plumbing for the Mira benchmark: paths, statistics, stamps.

Every workload module imports this first.  It puts the checkout's ``src``
directory on ``sys.path`` (the benchmark runs the program from source and
installs nothing), and refuses to run when that tree is missing.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import catalog
from hostspeed import HostSpeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Run outputs (traces, result documents, scratch caches); gitignored.
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


class MissingProgram(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def bootstrap() -> None:
    """Make ``import repro`` resolve to this checkout's ``src`` tree."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no Mira source tree under {SRC!r}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def scratch_dir(prefix: str) -> str:
    """A fresh directory under ``perfbench/out/tmp`` (inside the checkout:
    the benchmark writes nowhere else).  The caller removes it."""
    base = os.path.join(OUT_DIR, "tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=base)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


# -- statistics

#: A percentile is trusted when at least ``MIN_BEYOND`` samples lie beyond it.
MIN_BEYOND = 10

def percentile(values, p: float) -> float:
    """The ``p``-th percentile (linear interpolation between ranks)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def too_few_beyond(n: int, p: float) -> bool:
    """Fewer than ``MIN_BEYOND`` of ``n`` samples lie beyond the ``p``-th
    percentile.  The percentile is still reported (always the same one,
    so a value keeps its meaning from run to run), with a warning."""
    return n * (100 - p) / 100.0 < MIN_BEYOND


def geomean(values) -> float:
    """Geometric mean of positive values (0.0 for an empty sample)."""
    values = list(values)
    if not values:
        return 0.0
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def wire(result) -> dict:
    """An ``AnalysisResult``'s wire format without its stage timings (run
    metadata): equal for bit-identical analyses."""
    doc = result.to_dict()
    doc.pop("stage_timings", None)
    return doc


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def process_rss_mb(pid="self", field: str = "VmHWM") -> float | None:
    """A live process's peak (``VmHWM``) or current (``VmRSS``) resident
    set size, in MiB."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(f"{field}:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        return None
    return None


# -- provenance

def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not its own git work tree
    (the benchmark may run from an exported tree)."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest() -> str:
    """SHA-256 over the program's source tree (``src/**`` .py and .c
    files): identifies the measured code even without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith((".py", ".c")):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode("utf-8"))
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def stamp(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Where and on what a result was measured.  Hosts differ by ~2x in
    wall-clock, so results are only comparable with equal stamps."""
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": usable,
        "machine": platform.machine(),
    }


# -- the workload protocol

class Workload:
    """One workload: repeated set-up, then blocks of operations.

    Subclasses record every operation through :meth:`record` (latency and
    correctness problems) and each block's work through :meth:`done`,
    timing both on :attr:`clock`.  After each operation the host's speed
    is probed (``hostspeed.py``), and each block's timings are divided by
    the host's slowdown during the block.
    """

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 5
    #: The measured work runs in this process, so an untraced run times it
    #: in the process's CPU time: time the host takes this virtual CPU away
    #: to run other tenants (steal time) is not counted.  A workload whose
    #: work runs in another process times it on the wall clock.
    in_process = True

    def __init__(self, seed: int, tracer=None) -> None:
        self.seed = seed
        self.tracer = tracer
        # A traced run's figures are spans, on the wall clock.
        cpu = self.in_process and tracer is None
        self.clock = time.process_time if cpu else time.perf_counter
        self.clock_name = "CPU time" if cpu else "wall clock"
        self.host = HostSpeed(self.clock)
        self.latencies: list[float] = []
        self.work: list[tuple] = []      # (units of work, seconds) per block
        self.block_ops: list[list] = []  # latencies per block
        self.slowdowns: list[float] = []  # the host's, per block
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: Caveats printed with the result (a percentile with too few
        #: samples beyond it).
        self.warnings: list[str] = []

    def record(self, seconds: float | None, problems) -> None:
        """One operation: its latency (None when it raised) and the list of
        ways its answer was wrong (empty when correct).  The host is probed
        after each operation that completed."""
        self.attempted += 1
        if seconds is not None:
            self.latencies.append(seconds)
            self.host.sample()
        if problems or seconds is None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(list(problems)[:3] or ["raised"])

    def done(self, units: float, seconds: float) -> None:
        """A block completed ``units`` of work in ``seconds``; the
        operations timed since the previous block belong to it, and so
        do the host probes."""
        self.work.append((units, seconds))
        mark = sum(len(b) for b in self.block_ops)
        self.block_ops.append(self.latencies[mark:])
        self.slowdowns.append(self.host.slowdown())

    def throughput(self) -> float:
        """Units of work per second on :attr:`clock`, over all blocks, not
        scaled by the host's slowdown."""
        return ratio(sum(u for u, _ in self.work),
                     sum(s for _, s in self.work))

    def latency_figures(self) -> tuple[dict, dict]:
        """``throughput_per_s``, ``latency_ms_p50`` and ``latency_ms_tail``
        (the workload's fixed tail percentile) over all blocks, each
        timing divided by the host's slowdown in its block, and a note on
        each giving the figure before that division."""
        p = catalog.TAIL_PERCENTILE[self.name]
        values, unscaled = {}, {}
        for out, scale in ((values, self.slowdowns),
                           (unscaled, [1.0] * len(self.work))):
            lat = [x * 1e3 / s for ops, s in zip(self.block_ops, scale)
                   for x in ops]
            out.update({
                "throughput_per_s": ratio(
                    sum(u for u, _ in self.work),
                    sum(t / s for (_, t), s in zip(self.work, scale))),
                "latency_ms_p50": percentile(lat, 50) if lat else 0.0,
                "latency_ms_tail": percentile(lat, p) if lat else 0.0})
        n = len(self.latencies)
        if too_few_beyond(n, p):
            self.warnings.append(f"only {n} latency samples: fewer than "
                                 f"{MIN_BEYOND} lie beyond p{p}")
        notes = {k: f"n={n} over {len(self.work)} blocks, host slowdown "
                    f"{median(self.slowdowns):.3g}; unscaled "
                    f"{self.clock_name}: {unscaled[k]:.6g}" for k in values}
        return values, notes

    # -- hooks
    def prepare(self) -> None:
        """Reference answers; not part of set-up time."""

    def setup(self) -> None:
        raise NotImplementedError

    def discard_setup(self) -> None:
        """Release a set-up that the run will not use."""

    def block(self, traced: bool) -> tuple[int, float]:
        """Run one block of operations; returns ``(passes, busy_s)``."""
        raise NotImplementedError

    def set_traced(self, traced: bool) -> None:
        """Called before each block of a traced run."""

    def stop(self) -> None:
        """End of the measured loop."""

    def close(self) -> None:
        """Release everything (always called)."""

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def remote_trace(self) -> tuple[list, dict]:
        """Trace events and counters recorded outside this process."""
        return [], {}

    def layer_values(self) -> dict:
        """Per-layer metrics the workload measures itself."""
        return {}

    def human(self) -> list[str]:
        """Extra human-readable result lines."""
        return []

    def op_span(self, traced: bool):
        """The root span of one operation in a traced block."""
        if traced:
            return self.tracer.span("bench.op")
        return contextlib.nullcontext()

    def unobserved(self):
        """Nothing inside is traced: wraps the benchmark's own checks."""
        if self.tracer is not None:
            return self.tracer.paused()
        return contextlib.nullcontext()
