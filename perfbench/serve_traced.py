"""Run ``manymap serve`` with the per-layer timers installed.

Usage: ``python3 serve_traced.py DUMP.json serve REF.fa [serve flags]``

The timers wrap the program's public entry points from outside (see
``layers.py``). When the server has drained and exited, the layer self
times, the counter totals and the ``dispatch.fallback`` reasons it saw
are written to ``DUMP.json`` and the wrappers are removed.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import repro.api  # noqa: E402,F401 - load every module the timers rebind
import repro.cli  # noqa: E402
import repro.serve.batcher  # noqa: E402,F401
import repro.serve.server  # noqa: E402,F401
from repro.obs.counters import COUNTERS, counter_delta  # noqa: E402
from repro.utils.fsio import atomic_write_json  # noqa: E402

import layers  # noqa: E402
from workloads import EventTally  # noqa: E402


def main(argv) -> int:
    dump, cli_args = argv[0], argv[1:]
    before = COUNTERS.totals()
    tracer = layers.Tracer()
    with tracer, EventTally() as events:
        rc = repro.cli.main(cli_args)
    self_s, calls = tracer.layers.totals()
    atomic_write_json(dump, {
        "self_s": self_s,
        "calls": calls,
        "measured": sorted(tracer.measured),
        "counters": counter_delta(COUNTERS.totals(), before),
        "fallbacks": dict(events.reasons),
    })
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
