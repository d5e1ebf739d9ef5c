"""Fault tolerance for the mapping runtime: policies, recovery, watchdog.

The paper's runtime survives pathological inputs by design: oversized
DP problems on the GPU degrade to a CPU fallback instead of crashing
the batch (§4.3), and the KNL pipeline keeps streaming when one stage
stalls (§4.4.4). This module gives the reproduction the same
production posture — real aligners (minimap2, BWA-MEM) tolerate bad
records and keep going — via three mechanisms threaded through every
backend:

* **Per-read error policy** (:class:`FaultPolicy`, carried on
  :class:`repro.api.MapOptions` and the CLI's ``--on-error``): a
  failing read is retried with a bounded budget, then *quarantined* —
  it produces no PAF lines, is appended to an optional sidecar FASTQ
  (``--failed-reads``) with a structured reason log, and every other
  read's output stays byte-identical to a clean run.
* **Watchdog degradation**: a per-read soft timeout. When the
  seed-and-chain phase exceeds ``read_timeout`` seconds the read's
  base-level alignment is downgraded to the cheap no-CIGAR pass
  (``on_timeout='fallback'`` — the §4.3 GPU→CPU move) or the read is
  quarantined (``on_timeout='skip'``), instead of hanging a worker on
  a pathological alignment.
* **Worker-crash recovery** (:class:`PoolSupervisor`): when a process
  pool breaks (``BrokenProcessPool`` — a worker was killed or
  segfaulted), the pool is respawned within a bounded budget and the
  lost chunks are re-dispatched; a chunk that keeps killing workers is
  bisected until the poison read runs alone and is quarantined.

Everything is observable: ``fault.retries`` / ``fault.skips`` /
``fault.fallbacks`` / ``fault.respawns`` / ``fault.quarantined``
counters flow through the usual registry (worker deltas ship home with
results), and per-read :class:`FaultRecord` entries surface in the
metrics manifest (schema v3) and the report renderer.

With ``policy=None`` (the default everywhere) none of this runs: the
hot path is the same two calls it always was, which is what
``benchmarks/bench_fault_overhead.py`` gates (<2% clean-path cost).
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SchedulerError
from ..obs.counters import COUNTERS
from ..obs.events import EVENTS
from ..obs.hist import HISTOGRAMS, merge_hist_json
from ..seq.records import SeqRecord

__all__ = [
    "FaultPolicy",
    "FaultRecord",
    "map_one_read",
    "map_chunk_reads",
    "PoolSupervisor",
    "write_quarantine",
]

ON_ERROR = ("abort", "skip", "retry")
ON_TIMEOUT = ("fallback", "skip")


def _observe_read(read, seed_chain_s: float, align_s: float) -> None:
    """Per-read observability: the ``reads_done`` progress counter plus
    the stage-latency / read-length histograms. Runs on every completed
    read on every backend (this module is the shared choke point);
    ``HISTOGRAMS.enabled = False`` reduces it to the one counter bump.
    """
    COUNTERS.inc("reads_done")
    if not HISTOGRAMS.enabled:
        return
    HISTOGRAMS.observe("latency.seed_chain_s", seed_chain_s)
    HISTOGRAMS.observe("latency.align_s", align_s)
    HISTOGRAMS.observe("latency.read_s", seed_chain_s + align_s)
    HISTOGRAMS.observe("read.length", len(read.seq))


@dataclass(frozen=True)
class FaultPolicy:
    """How a mapping run reacts to failing reads and dying workers.

    ``on_error`` — ``abort`` fails fast exactly like the pre-fault
    runtime; ``skip`` quarantines a failing read on its first error;
    ``retry`` re-attempts it up to ``max_retries`` times first.
    ``read_timeout`` — optional per-read soft deadline in seconds for
    the seed-and-chain phase; ``on_timeout`` picks the degradation
    (``fallback``: cheap no-CIGAR alignment, ``skip``: quarantine).
    ``max_respawns`` — how many times a broken process pool may be
    rebuilt before the run aborts.
    ``failed_reads`` — sidecar FASTQ path for quarantined reads; a
    ``<path>.reasons.jsonl`` log rides along.
    ``injector`` — test hook (``on_map(read_name, attempt)``) called
    before each mapping attempt; see :mod:`repro.testing.faults`.
    """

    on_error: str = "abort"
    max_retries: int = 2
    read_timeout: Optional[float] = None
    on_timeout: str = "fallback"
    max_respawns: int = 16
    failed_reads: Optional[str] = None
    injector: Optional[object] = None

    def replace(self, **changes) -> "FaultPolicy":
        return dataclasses.replace(self, **changes)

    def validated(self) -> "FaultPolicy":
        if self.on_error not in ON_ERROR:
            raise SchedulerError(
                f"on_error must be one of {ON_ERROR}: {self.on_error!r}"
            )
        if self.on_timeout not in ON_TIMEOUT:
            raise SchedulerError(
                f"on_timeout must be one of {ON_TIMEOUT}: {self.on_timeout!r}"
            )
        if self.max_retries < 0:
            raise SchedulerError(f"max_retries must be >= 0: {self.max_retries}")
        if self.max_respawns < 0:
            raise SchedulerError(
                f"max_respawns must be >= 0: {self.max_respawns}"
            )
        if self.read_timeout is not None and self.read_timeout <= 0:
            raise SchedulerError(
                f"read_timeout must be > 0: {self.read_timeout}"
            )
        return self

    @property
    def recovers(self) -> bool:
        """Whether worker crashes should be recovered (vs fail-fast)."""
        return self.on_error != "abort"


@dataclass
class FaultRecord:
    """One fault that the policy absorbed instead of aborting the run."""

    read: str
    kind: str  # "error" | "timeout" | "worker-crash"
    reason: str
    attempts: int
    action: str  # "quarantined" | "fallback"
    #: the original record, when available — what the sidecar FASTQ gets.
    record: Optional[SeqRecord] = None
    #: wall-clock moment the fault was absorbed (epoch seconds); places
    #: the fault marker on the timeline export.
    ts: float = dataclasses.field(default_factory=time.time)

    def to_json(self) -> Dict:
        return {
            "read": self.read,
            "kind": self.kind,
            "reason": self.reason,
            "attempts": self.attempts,
            "action": self.action,
            "ts": self.ts,
        }


def map_one_read(
    aligner,
    read,
    with_cigar: bool,
    policy: Optional[FaultPolicy],
) -> Tuple[List, float, float, Optional[FaultRecord]]:
    """Map one read under ``policy``; the single choke point all
    backends share.

    Returns ``(alignments, seed_chain_s, align_s, fault)``. With
    ``policy=None`` this is exactly the two aligner calls the runtime
    always made — no extra work on the clean path. A quarantined read
    returns ``([], 0, 0, record)``; a watchdog fallback returns real
    alignments (computed without path DP) plus a record. With
    ``on_error='abort'`` (or no policy) the original exception
    propagates so callers keep their existing read-naming wrappers.
    """
    if policy is None:
        t0 = time.perf_counter()
        plan = aligner.seed_and_chain(read)
        t1 = time.perf_counter()
        alns = aligner.align_plan(read, plan, with_cigar=with_cigar)
        t2 = time.perf_counter()
        _observe_read(read, t1 - t0, t2 - t1)
        return alns, t1 - t0, t2 - t1, None

    injector = policy.injector
    retries = policy.max_retries if policy.on_error == "retry" else 0
    attempt = 0
    while True:
        attempt += 1
        try:
            t0 = time.perf_counter()
            if injector is not None:
                injector.on_map(read.name, attempt)
            plan = aligner.seed_and_chain(read)
            t1 = time.perf_counter()
            elapsed = t1 - t0
            if (
                policy.read_timeout is not None
                and elapsed > policy.read_timeout
            ):
                reason = (
                    f"seed+chain took {elapsed:.3f}s "
                    f"> read_timeout {policy.read_timeout}s"
                )
                if policy.on_timeout == "skip":
                    COUNTERS.inc("fault.quarantined")
                    COUNTERS.inc("reads_done")
                    return [], 0.0, 0.0, FaultRecord(
                        read=read.name,
                        kind="timeout",
                        reason=reason,
                        attempts=attempt,
                        action="quarantined",
                        record=read if isinstance(read, SeqRecord) else None,
                    )
                # §4.3 move: degrade to the cheap pass, keep streaming.
                t1b = time.perf_counter()
                alns = aligner.align_plan(read, plan, with_cigar=False)
                t2 = time.perf_counter()
                COUNTERS.inc("fault.fallbacks")
                _observe_read(read, elapsed, t2 - t1b)
                return alns, elapsed, t2 - t1b, FaultRecord(
                    read=read.name,
                    kind="timeout",
                    reason=reason,
                    attempts=attempt,
                    action="fallback",
                )
            alns = aligner.align_plan(read, plan, with_cigar=with_cigar)
            t2 = time.perf_counter()
            if attempt > 1 and HISTOGRAMS.enabled:
                HISTOGRAMS.observe("fault.retries", attempt - 1)
            _observe_read(read, elapsed, t2 - t1)
            return alns, elapsed, t2 - t1, None
        except Exception as exc:
            if policy.on_error == "abort":
                raise
            if attempt <= retries:
                COUNTERS.inc("fault.retries")
                continue
            COUNTERS.inc("fault.skips")
            COUNTERS.inc("fault.quarantined")
            COUNTERS.inc("reads_done")
            if attempt > 1 and HISTOGRAMS.enabled:
                HISTOGRAMS.observe("fault.retries", attempt - 1)
            return [], 0.0, 0.0, FaultRecord(
                read=read.name,
                kind="error",
                reason=repr(exc),
                attempts=attempt,
                action="quarantined",
                record=read if isinstance(read, SeqRecord) else None,
            )


def map_chunk_reads(
    aligner,
    reads,
    with_cigar: bool,
    policy: Optional[FaultPolicy],
) -> Optional[List[Tuple[List, float, float, Optional[FaultRecord]]]]:
    """Map a whole chunk of reads, pooling their base-level DP.

    Returns one ``(alignments, seed_chain_s, align_s, fault)`` tuple
    per read — the same shape :func:`map_one_read` yields — or ``None``
    when pooling does not apply (a fault policy is in force, the chunk
    has fewer than two reads, or the aligner cannot pool plans), in
    which case the caller should run its per-read loop.

    Pooling runs seed-and-chain per read, then aligns every read's
    plan through one :meth:`~repro.core.aligner.Aligner.align_plans`
    call, so the kernel-dispatch layer sees chunk-wide DP buckets
    instead of one chain's worth of jobs. Results are bit-identical to
    per-read mapping — batched kernels match their per-pair fallback —
    so only throughput and the shape-dependent ``wavefront.*`` /
    ``dispatch.*`` telemetry change with the chunking. The pooled
    align phase has no per-read split anymore, so align seconds are
    attributed back to reads proportionally to read length.

    Errors propagate raw, exactly like :func:`map_one_read` with no
    policy. Callers that must name the failing read can re-run the
    chunk per read: mapping is deterministic, so the culprit fails
    again under the per-read path with its usual wrapping.
    """
    if (
        policy is not None
        or len(reads) < 2
        or not callable(getattr(aligner, "align_plans", None))
        or not callable(getattr(aligner, "seed_and_chain", None))
    ):
        return None
    plans = []
    seed_times: List[float] = []
    for read in reads:
        t0 = time.perf_counter()
        plans.append((read, aligner.seed_and_chain(read)))
        seed_times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    all_alns = aligner.align_plans(plans, with_cigar=with_cigar)
    align_total = time.perf_counter() - t0
    total_bases = sum(len(r) for r in reads)
    out: List[Tuple[List, float, float, Optional[FaultRecord]]] = []
    for read, seed_s, alns in zip(reads, seed_times, all_alns):
        share = (
            align_total * (len(read) / total_bases)
            if total_bases
            else align_total / len(reads)
        )
        _observe_read(read, seed_s, share)
        out.append((alns, seed_s, share, None))
    return out


# --------------------------------------------------------------------- #
# Worker-crash recovery


def _merge_chunk_results(left: Tuple, right: Tuple) -> Tuple:
    """Concatenate two partial 7-tuple chunk results (bisect halves)."""
    li, lo, ls, ld, lh, lsp, lf = left
    ri, ro, rs, rd, rh, rsp, rf = right
    stage = dict(ls)
    for k, v in rs.items():
        stage[k] = stage.get(k, 0.0) + v
    delta = dict(ld)
    for k, v in rd.items():
        delta[k] = delta.get(k, 0) + v
    return (
        tuple(li) + tuple(ri),
        lo + ro,
        stage,
        delta,
        merge_hist_json(lh, rh),
        lsp + rsp,
        lf + rf,
    )


class PoolSupervisor:
    """Owns a process pool; respawns it when workers die, with a budget.

    ``factory`` builds a fresh ``ProcessPoolExecutor`` (it is called
    again after every break); ``task`` is the picklable chunk function
    (:func:`repro.runtime.procpool._map_chunk`) taking one payload
    ``(chunk_id, indices, reads)`` and returning the 7-tuple chunk
    result. Thread-safe: the pipeline's compute threads call
    :meth:`run_chunk` at once; isolation runs take an exclusive turn
    so a concurrent crash of an unrelated chunk is never blamed on the
    read under suspicion.
    """

    def __init__(
        self,
        factory: Callable,
        task: Callable,
        policy: Optional[FaultPolicy],
        telemetry=None,
    ) -> None:
        self._factory = factory
        self._task = task
        self._policy = policy
        self._telemetry = telemetry
        self._cond = threading.Condition()
        self._pool = factory()
        self._gen = 0
        self._respawns = 0
        self._inflight = 0
        self._exclusive = False

    @property
    def respawns(self) -> int:
        with self._cond:
            return self._respawns

    def shutdown(self) -> None:
        """Stop the pool and join its processes.

        Callers shut down once every :meth:`run_chunk` has returned, so
        no worker is busy and the join is short; joining here means no
        worker outlives the run (nor its ``RUSAGE_CHILDREN`` peak).
        """
        with self._cond:
            pool = self._pool
        pool.shutdown(wait=True, cancel_futures=True)

    # -- crash handling ------------------------------------------------ #

    def handle_break(self, token) -> None:
        """React to a broken pool: respawn within budget or raise.

        ``token`` is the ``(generation, exception)`` pair returned by
        :meth:`_submit_and_wait`. Generation-checked so N threads
        observing the same break respawn the pool once.
        """
        gen, exc = token
        with self._cond:
            if self._policy is None or not self._policy.recovers:
                raise SchedulerError(
                    f"process pool broke (worker died): {exc!r}"
                ) from exc
            if gen != self._gen:
                return  # another thread already replaced this pool
            if self._respawns >= self._policy.max_respawns:
                raise SchedulerError(
                    f"process pool broke {self._respawns + 1} times "
                    f"(max_respawns={self._policy.max_respawns}): {exc!r}"
                ) from exc
            self._respawns += 1
            COUNTERS.inc("fault.respawns")
            EVENTS.emit(
                "pool.respawn",
                generation=self._gen,
                respawns=self._respawns,
                budget=self._policy.max_respawns,
                error=repr(exc),
            )
            dead = self._pool
            self._pool = self._factory()
            self._gen += 1
            self._cond.notify_all()
        dead.shutdown(wait=False, cancel_futures=True)

    def _submit_and_wait(self, payload, exclusive: bool = False):
        """Run one chunk; returns ``(result, None)`` or ``(None, token)``
        when the pool broke underneath it."""
        from concurrent.futures import BrokenExecutor

        with self._cond:
            while self._exclusive or (exclusive and self._inflight > 0):
                self._cond.wait()
            if exclusive:
                self._exclusive = True
            self._inflight += 1
            pool = self._pool
            gen = self._gen
        try:
            return pool.submit(self._task, payload).result(), None
        except BrokenExecutor as exc:
            return None, (gen, exc)
        except RuntimeError as exc:
            # submit() raises bare RuntimeError when another thread's
            # handle_break already shut this executor down.
            if "shutdown" in str(exc) or "broken" in str(exc).lower():
                return None, (gen, exc)
            raise
        finally:
            with self._cond:
                self._inflight -= 1
                if exclusive:
                    self._exclusive = False
                self._cond.notify_all()

    def run_chunk(self, payload):
        """Run one chunk with crash recovery; always returns a 7-tuple."""
        result, token = self._submit_and_wait(payload)
        if token is None:
            return result
        self.handle_break(token)
        return self._run_isolated(payload)

    def _run_isolated(self, payload):
        """Re-run a crash-implicated chunk alone; bisect to the poison
        read, which is quarantined instead of killing the run."""
        chunk_id, indices, reads = payload
        result, token = self._submit_and_wait(payload, exclusive=True)
        if token is None:
            return result
        self.handle_break(token)
        if len(reads) == 1:
            read = reads[0]
            COUNTERS.inc("fault.quarantined")
            fault = FaultRecord(
                read=read.name,
                kind="worker-crash",
                reason=(
                    f"read repeatedly killed its worker process: "
                    f"{token[1]!r}"
                ),
                attempts=2,
                action="quarantined",
                record=read if isinstance(read, SeqRecord) else None,
            )
            return (
                tuple(indices),
                [[]],
                {"Seed & Chain": 0.0, "Align": 0.0},
                {},
                {},
                [],
                [fault],
            )
        mid = len(reads) // 2
        left = self._run_isolated(
            (chunk_id, tuple(indices[:mid]), list(reads[:mid]))
        )
        right = self._run_isolated(
            (chunk_id, tuple(indices[mid:]), list(reads[mid:]))
        )
        return _merge_chunk_results(left, right)


# --------------------------------------------------------------------- #
# Quarantine sidecar


def write_quarantine(
    path: str, faults: List[FaultRecord], run_id: str = ""
) -> int:
    """Write quarantined reads to a sidecar FASTQ + reasons JSONL.

    ``path`` gets the quarantined records that still carry their
    original :class:`SeqRecord` (re-mappable later, like minimap2's
    unmapped-output workflows); ``<path>.reasons.jsonl`` gets one
    structured line per fault (quarantines *and* fallbacks), stamped
    with ``run_id`` so the sidecar joins the run's manifest/trace.
    Both files are always written — empty on a clean run — so callers
    can assert on their contents. Returns the number of quarantined
    reads.
    """
    from ..seq.fasta import write_fastq
    from ..utils.fsio import atomic_output

    records = [
        f.record
        for f in faults
        if f.action == "quarantined" and f.record is not None
    ]
    # Both sidecars commit atomically: a crash mid-write must not leave
    # a torn FASTQ that a re-map pass would half-ingest.
    with atomic_output(path) as fh:
        write_fastq(fh, records)
    with atomic_output(f"{path}.reasons.jsonl") as fh:
        for f in faults:
            rec = f.to_json()
            if run_id:
                rec["run_id"] = run_id
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")
    return sum(1 for f in faults if f.action == "quarantined")
