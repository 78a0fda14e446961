"""Host speed: a fixed piece of work, timed between the measured operations.

Other tenants of a shared host slow every process on it, by up to 2x and
for seconds to minutes at a time, so the wall-clock time of one operation
says as much about the host as about the program.  The benchmark therefore
times a probe, a fixed slice of work that is the benchmark's own code (it
calls nothing of the program), right after each operation, and divides
every timing by the host's slowdown at that moment: the probe's time over
its reference time ``REFERENCE_S``.  The timings it reports are the ones a
user would see on a host where the probe takes its reference time; the
unscaled figures are printed beside them.  The probe is timed on the
clock that times the operations (``Workload.clock``): for work done in the
benchmark's own process that is its CPU time, so time the host gives this
virtual CPU to other tenants (steal time) counts for neither.  A slice is
far shorter than an operation, so steal hits few slices and their median
misses it: in stretches where the CPU-bound benchmark process was on the
CPU for as little as 82% of the wall clock, ``edit_reanalyze`` ran 1.4 to
1.7x slower on the wall clock while the probe moved by 8%.

The probe mixes the two kinds of work the program does: it lexes a line
of C, counts its tokens in a dict and sums a few fractions (object
allocation, dict and attribute traffic and calls, as in the analysis
pipeline), and evaluates a polynomial over an int64 and an object array
(as in a columnar sweep).  On a 2-vCPU host whose speed varied by up to
2x, this mix tracked the slowdown of every workload better than the
pure-Python part alone.  It runs with the garbage collector
off, so the program's heap does not slow it.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

#: Seconds one slice of the probe takes on the reference host: the 2-vCPU
#: x86_64 host the baseline was measured on, near its fastest (its
#: quickest slices took 0.56 ms, its median 0.62 ms in a quiet period).
REFERENCE_S = 0.0006

_TEXT = ("for (i = 0; i < n; i += 2) { a[i] = b[i] * c + d[i - 1]; "
         "s = s + a[i]; }\n") * 2


class _Token:
    __slots__ = ("kind", "text")

    def __init__(self, kind: str, text: str) -> None:
        self.kind = kind
        self.text = text


def _lex_and_count(reps: int) -> int:
    total = 0
    for _ in range(reps):
        tokens, word = [], []
        for ch in _TEXT:
            if ch.isalnum():
                word.append(ch)
                continue
            if word:
                tokens.append(_Token("id", "".join(word)))
                word = []
            if not ch.isspace():
                tokens.append(_Token("op", ch))
        counts: dict = {}
        for tok in tokens:
            counts[tok.text] = counts.get(tok.text, 0) + 1
        acc = Fraction(0)
        for text, n in counts.items():
            acc += Fraction(n, len(text) + 1)
        total += acc.numerator % 7
    return total


class HostSpeed:
    """Slices of the probe, timed on ``clock`` (the clock that times the
    workload's operations); their median slowdown per interval."""

    def __init__(self, clock=time.perf_counter) -> None:
        import numpy as np

        self._ints = np.arange(1, 1 << 13, dtype=np.int64)
        self._bigs = np.arange(1, 33, dtype=np.int64).astype(object) \
            * (10 ** 12)
        self.clock = clock
        self.samples: list[float] = []
        self._mark = 0

    def _slice(self) -> int:
        """One slice of the probe."""
        n, big = self._ints, self._bigs
        total = int((2 * n * n * n + n * n).sum() % 7)
        total += int((2 * big * big * big + big * big).sum() % 7)
        return total + _lex_and_count(3)

    def sample(self, slices: int = 1) -> None:
        """Time ``slices`` slices of the probe, each on its own."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(slices):
                t0 = self.clock()
                self._slice()
                self.samples.append(self.clock() - t0)
        finally:
            if enabled:
                gc.enable()

    def slowdown(self) -> float:
        """The host's slowdown over the slices sampled since the previous
        call (the median slice over its reference time); 1.0 when none
        was sampled."""
        recent = self.samples[self._mark:]
        self._mark = len(self.samples)
        if not recent:
            return 1.0
        return statistics.median(recent) / REFERENCE_S
