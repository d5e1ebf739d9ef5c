"""Per-run telemetry: run-scoped counters/histograms and trace spans.

A :class:`Telemetry` object scopes the process-global
:data:`~repro.obs.counters.COUNTERS` and
:data:`~repro.obs.hist.HISTOGRAMS` registries to one mapping run
(baseline snapshot at construction, delta at
:meth:`Telemetry.counters` / :meth:`Telemetry.histograms`) and — when
tracing is enabled — collects one span record per read:

.. code-block:: json

    {"read": "r12", "length": 812, "worker": "pid:4242/MainThread",
     "chunk": 3, "ts": 1754000000.123,
     "spans": {"seed_chain": 0.0021, "align": 0.0154}}

Span records are produced wherever the read is actually mapped — the
serial loop, a pool thread, or a worker process — and shipped back to
the parent alongside the results, so the trace is complete on every
backend. ``ts`` is the wall-clock start (epoch seconds, comparable
across worker processes) that the timeline exporter
(:mod:`repro.obs.timeline`) places events with.

Every run carries a ``run_id`` (one uuid per Telemetry) stamped into
trace files, metrics manifests, timeline exports, fault sidecars, and
log lines, so a run's artifacts can be joined after the fact.

Traces spill incrementally: :meth:`Telemetry.open_trace` attaches a
JSONL sink and every span (or worker batch of spans) is written as it
arrives instead of buffering the whole run in memory — on
multi-million-read inputs the trace costs O(1) memory. Without a sink,
spans buffer in :attr:`Telemetry.spans` and
:meth:`Telemetry.write_trace` emits them at the end; both paths write
the same format (a ``{"record": "run", ...}`` header line followed by
one span per line), which :func:`iter_trace` reads back.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from typing import Dict, Iterator, List, Optional

from .counters import COUNTERS, counter_delta
from .events import EVENTS
from .gauges import GaugeSet
from .hist import HISTOGRAMS, hist_delta, summarize

__all__ = ["Telemetry", "worker_id", "read_span", "iter_trace"]


def worker_id() -> str:
    """Identity of the executing worker: process id + thread name."""
    return f"pid:{os.getpid()}/{threading.current_thread().name}"


def read_span(
    read_name: str,
    read_len: int,
    seed_chain_s: float,
    align_s: float,
    chunk: Optional[int] = None,
) -> Dict:
    """One trace record for one read, stamped with the current worker.

    ``ts`` (epoch seconds) is derived as *now minus the stage
    durations*, i.e. the moment mapping of this read began — accurate
    to clock-vs-perf_counter skew plus any retry overhead, which is
    far below timeline resolution.
    """
    return {
        "read": read_name,
        "length": int(read_len),
        "worker": worker_id(),
        "chunk": chunk,
        "ts": time.time() - seed_chain_s - align_s,
        "spans": {
            "seed_chain": seed_chain_s,
            "align": align_s,
        },
    }


class Telemetry:
    """Counter/histogram scoping + trace span collection for one run."""

    def __init__(self, trace: bool = False, run_id: Optional[str] = None) -> None:
        #: when False, span recording is skipped everywhere (zero cost).
        self.trace = bool(trace)
        #: one uuid per run; joins manifests/traces/timelines/sidecars.
        self.run_id = run_id or uuid.uuid4().hex
        self.spans: List[Dict] = []
        #: execution-machinery gauges (queue depths, stall seconds);
        #: populated by the processes pipeline, surfaced in ``--metrics``.
        self.gauges = GaugeSet()
        #: faults the run's :class:`~repro.runtime.faults.FaultPolicy`
        #: absorbed (quarantines / watchdog fallbacks), one
        #: :class:`~repro.runtime.faults.FaultRecord` each.
        self.faults: List = []
        self._span_count = 0
        self._sink = None
        self._sink_lock = threading.Lock()
        self._baseline = COUNTERS.totals()
        self._hist_baseline = HISTOGRAMS.snapshot()
        self._events_baseline = EVENTS.counts()

    # -- spans --------------------------------------------------------- #

    @property
    def span_count(self) -> int:
        """Spans recorded so far (buffered *or* spilled to the sink)."""
        return self._span_count

    def record(self, span: Dict) -> None:
        if not self.trace:
            return
        self._span_count += 1
        if self._sink is not None:
            with self._sink_lock:
                self._sink.write(json.dumps(span, sort_keys=True))
                self._sink.write("\n")
        else:
            self.spans.append(span)

    def extend(self, spans: List[Dict]) -> None:
        if not (self.trace and spans):
            return
        self._span_count += len(spans)
        if self._sink is not None:
            lines = [json.dumps(s, sort_keys=True) for s in spans]
            with self._sink_lock:
                self._sink.write("\n".join(lines))
                self._sink.write("\n")
                self._sink.flush()  # chunk boundary: keep the file usable
        else:
            self.spans.extend(spans)

    # -- faults -------------------------------------------------------- #

    def record_faults(self, faults: List) -> None:
        """Collect fault records shipped home with backend results.

        This is the parent-side choke point on both backends (serial
        and processes), so it also emits one ``fault``
        event per record onto the global bus — worker-process buses are
        process-local, but the fault stream still reaches the parent's
        ``/events`` ring and JSONL sink this way.
        """
        if not faults:
            return
        self.faults.extend(faults)
        for f in faults:
            EVENTS.emit(
                "fault",
                run_id=self.run_id,
                read=getattr(f, "read", ""),
                action=getattr(f, "action", ""),
                reason=getattr(f, "reason", ""),
                attempts=getattr(f, "attempts", 0),
            )

    def fault_summary(self) -> Dict:
        """The manifest's ``faults`` object (schema v3, additive)."""
        return {
            "n_faults": len(self.faults),
            "quarantined": [
                f.to_json() for f in self.faults if f.action == "quarantined"
            ],
            "fallbacks": [
                f.to_json() for f in self.faults if f.action == "fallback"
            ],
        }

    # -- counters / histograms ---------------------------------------- #

    def absorb(self, delta: Dict[str, int]) -> None:
        """Merge a worker process's counter delta into this process."""
        if delta:
            COUNTERS.merge(delta)

    def counters(self) -> Dict[str, int]:
        """Counter totals accumulated since this run started."""
        return counter_delta(COUNTERS.totals(), self._baseline)

    def histograms(self) -> Dict[str, Dict]:
        """Run-scoped histogram summaries (manifest ``histograms`` form:
        count/sum/min/max/mean, p50/p90/p99, raw log2 buckets)."""
        return summarize(self.histograms_raw())

    def histograms_raw(self) -> Dict[str, Dict]:
        """Run-scoped histograms in serialized (``to_json``) form —
        what the OpenMetrics exporter renders as cumulative buckets."""
        return hist_delta(HISTOGRAMS.snapshot(), self._hist_baseline)

    def events_summary(self) -> Dict[str, int]:
        """Run-scoped per-kind event counts (manifest ``events`` object,
        schema v6): the global bus's counts minus the construction-time
        baseline."""
        now = EVENTS.counts()
        return {
            k: v - self._events_baseline.get(k, 0)
            for k, v in now.items()
            if v - self._events_baseline.get(k, 0) > 0
        }

    # -- output -------------------------------------------------------- #

    def _header(self) -> Dict:
        from .._version import __version__

        return {
            "record": "run",
            "run_id": self.run_id,
            "tool": "manymap",
            "version": __version__,
        }

    def open_trace(self, path: str) -> None:
        """Attach an incremental JSONL sink: spans spill as they arrive
        (memory stays flat), :attr:`spans` stays empty. Pair with
        :meth:`close_trace`."""
        fh = open(path, "w")
        fh.write(json.dumps(self._header(), sort_keys=True))
        fh.write("\n")
        self._sink = fh

    def close_trace(self) -> int:
        """Flush + detach the incremental sink; returns the span count."""
        if self._sink is not None:
            with self._sink_lock:
                self._sink.close()
                self._sink = None
        return self._span_count

    def write_trace(self, path: str) -> int:
        """Write buffered spans as JSONL (header line + one span per
        line); returns the span count. For runs that used
        :meth:`open_trace` the file already exists — this rewrites the
        buffered form only and is not what you want there."""
        with open(path, "w") as fh:
            fh.write(json.dumps(self._header(), sort_keys=True))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True))
                fh.write("\n")
        return len(self.spans)


def iter_trace(path: str) -> Iterator[Dict]:
    """Yield span records from a trace JSONL file, skipping the header
    (and any other non-span record kinds added later)."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("record", "span") != "span" and "spans" not in rec:
                continue
            yield rec
