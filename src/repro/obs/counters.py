"""Low-overhead run counter registry (paper Table 2 / GCUPS substrate).

The observability layer counts *work*, not time: anchors seeded, chains
built, DP cells evaluated, band corridor widths, reads dropped. DP-cell
counts are what GCUPS (giga cell updates per second) is defined over —
the primary kernel metric of the GPU-aligner literature (GASAL2,
GenASM) — and the paper's banded kernels make the count non-obvious:
cells are the sum of *band areas*, not ``|Q| x |T|``.

Counters must cost near-nothing on the hot path (the acceptance budget
is <= 5% wall-clock with telemetry outputs disabled), so the registry
shards per thread: :meth:`CounterRegistry.inc` touches only the calling
thread's private dict — plain int adds, no locks — and the registry
lock is taken once per thread lifetime to register the shard.
Increments happen at call granularity (once per kernel invocation /
read), never per cell.

Worker *processes* each carry their own module-level :data:`COUNTERS`;
the process backend snapshots :meth:`~CounterRegistry.totals` around
each chunk and ships the delta home (see
:mod:`repro.runtime.procpool`), so totals are identical across the
serial, thread, and process backends for the same read set.
"""

from __future__ import annotations

import threading
from typing import Dict, List

__all__ = [
    "CounterRegistry",
    "COUNTERS",
    "counter_delta",
    "SHAPE_DEPENDENT_PREFIXES",
    "drop_shape_dependent",
]

#: Counter/histogram name prefixes whose values depend on how work was
#: *grouped* (batch composition, chunk boundaries), not on the read set
#: itself.  The cross-read wavefront kernel's occupancy and padding
#: telemetry varies with bucket packing, so cross-backend identity
#: checks must exclude these; everything else is byte-stable across
#: serial and processes.  ``events.`` rides along: ring
#: evictions (``events.dropped``) depend on how many diagnostic events
#: each backend emits and on how full the ring already is.
SHAPE_DEPENDENT_PREFIXES = ("wavefront.", "dispatch.", "events.")


def drop_shape_dependent(totals):
    """Return ``totals`` without grouping-dependent entries."""
    return {
        k: v
        for k, v in totals.items()
        if not k.startswith(SHAPE_DEPENDENT_PREFIXES)
    }


class CounterRegistry:
    """Process-wide integer counters, sharded per thread."""

    __slots__ = ("_local", "_lock", "_shards")

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._shards: List[Dict[str, int]] = []

    def _shard(self) -> Dict[str, int]:
        d = getattr(self._local, "d", None)
        if d is None:
            d = {}
            self._local.d = d
            with self._lock:
                self._shards.append(d)
        return d

    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to ``name`` — lock-free, safe from any thread."""
        d = self._shard()
        d[name] = d.get(name, 0) + n

    def merge(self, totals: Dict[str, int]) -> None:
        """Fold a totals dict (e.g. a worker process's delta) in."""
        d = self._shard()
        for k, v in totals.items():
            d[k] = d.get(k, 0) + v

    def totals(self) -> Dict[str, int]:
        """Sum across all shards.

        Exact at quiescence (after pools join); while other threads are
        still incrementing it is a best-effort snapshot — concurrent
        first-insertions can force a retry of that shard's iteration.
        """
        out: Dict[str, int] = {}
        with self._lock:
            shards = list(self._shards)
        for d in shards:
            for _ in range(8):
                try:
                    items = list(d.items())
                    break
                except RuntimeError:  # resized mid-iteration
                    continue
            else:  # pragma: no cover - pathological contention
                items = []
            for k, v in items:
                out[k] = out.get(k, 0) + v
        return out

    def reset(self) -> None:
        """Zero every counter (all shards). Test/bench helper."""
        with self._lock:
            for d in self._shards:
                d.clear()


#: The process-global registry every instrumented module increments.
COUNTERS = CounterRegistry()


def counter_delta(
    after: Dict[str, int], before: Dict[str, int]
) -> Dict[str, int]:
    """``after - before`` per key, dropping zero entries."""
    out: Dict[str, int] = {}
    for k, v in after.items():
        dv = v - before.get(k, 0)
        if dv:
            out[k] = dv
    return out
