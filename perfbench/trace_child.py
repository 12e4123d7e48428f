"""Traced run of one workload: ``waverates run`` in this process, every layer
boundary of ``instrument.TARGETS`` wrapped in a span.

Usage: python perfbench/trace_child.py SPANS_JSON RUN_ARG...

RUN_ARG... are the arguments of ``waverates run`` (``--config`` and so on).
Writes the span summary and counters to SPANS_JSON and exits with the run's
exit status.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from instrument import Instrumentation
from tracer import Tracer, summarize


def main(argv: list[str]) -> int:
    spans_path, run_args = Path(argv[0]), argv[1:]
    import waverates.cli

    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    instrumentation.install()
    start = time.perf_counter()
    status = waverates.cli.main(["run", *run_args])
    main_s = time.perf_counter() - start
    spans_path.write_text(json.dumps({
        "main_s": main_s,
        "spans": summarize(tracer.spans),
        "counters": dict(tracer.counters),
        "missing": instrumentation.missing,
    }, sort_keys=True))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
