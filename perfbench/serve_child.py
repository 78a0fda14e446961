"""``mira serve`` as the serve_mixed workload's child process.

Runs ``repro.cli.main(["serve", ...])`` with the remaining arguments, from
the checkout's ``src`` tree.  With ``--trace-out FILE`` the layer patches
of ``tracing.py`` are switched on by SIGUSR1 and off by SIGUSR2, and the
spans are written to FILE when the server stops (SIGINT).
"""

from __future__ import annotations

import json
import os
import signal
import sys

import harness


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    harness.bootstrap()
    from repro.cli import main as mira_main

    tracer = None
    if trace_out is not None:
        from tracing import Tracer

        tracer = Tracer()
        signal.signal(signal.SIGUSR1, lambda *_: tracer.install())
        signal.signal(signal.SIGUSR2, lambda *_: tracer.uninstall())
    rc = mira_main(["serve", *argv])
    if tracer is not None:
        tracer.uninstall()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump({"events": tracer.events(os.getpid()),
                       "counters": dict(tracer.counters)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
