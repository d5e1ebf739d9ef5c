"""The parallel mapping pipeline: read → compute → write (§4.4.4).

The paper's KNL macro runs hinge on a 3-thread overlapped pipeline plus
longest-read-first batching; minimap2's Table 2 profile shows what
happens without it (I/O serialized against compute). This module is
that pipeline, and the only parallel mapper (``backend="processes"``):

* a **reader thread** drains any read *iterator* (e.g.
  :func:`repro.seq.fasta.iter_fasta` / ``iter_fastq``) into bounded
  chunk queues, so memory is constant in input size;
* **N compute workers** — threads that each proxy their chunks to one
  shared process pool (:mod:`repro.runtime.procpool`'s worker side):
  every pool process rebuilds the aligner over the serialized index in
  ``mmap`` mode (§4.4.2) and ships each chunk's counter, histogram and
  span deltas home with its results;
* a **writer thread** reassembles per-read results in input order and
  streams them to a sink as soon as each read's turn comes.

Scheduling keeps the paper's longest-first batching benefit without
global ordering: reads are collected into a bounded look-ahead
*window* of ``chunk_reads × workers × 4`` reads, each window is sorted
longest-first and packed into size-bounded chunks (LPT order within
the window), and windows are emitted in sequence. Output order is
nevertheless exactly the input order — the writer reorders by per-read
sequence number — so the PAF stream is byte-identical to the serial
backend.

Backpressure comes from the bounded queues (``2 × workers`` chunks
each): a slow sink stalls the writer, which fills the done queue,
which stalls workers, which fills the work queue, which stalls the
reader. Queue depths and per-stage stall seconds are recorded as
:class:`~repro.obs.gauges.GaugeSet` gauges (``stream.*``), which is
how ``map --metrics`` shows the Fig. 11 overlap story. On the first
error anywhere, upstream stages are cancelled (the reader stops
producing, workers drain without computing) and a
:class:`~repro.errors.SchedulerError` naming the failing read is
raised after the pipeline unwinds cleanly.
"""

from __future__ import annotations

import os
import queue
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.aligner import Aligner
from ..core.alignment import Alignment
from ..errors import SchedulerError
from ..index.store import save_index
from ..obs.counters import COUNTERS
from ..obs.events import EVENTS
from ..obs.gauges import GaugeSet
from ..obs.hist import HISTOGRAMS
from ..obs.logs import current_level_name
from ..obs.telemetry import Telemetry
from ..seq.records import SeqRecord
from .faults import FaultPolicy, PoolSupervisor
from .procpool import _init_worker, _map_chunk

__all__ = ["StreamStats", "stream_map", "map_reads_streaming"]

#: queue sentinel marking the end of the chunk stream (one per worker).
_END = object()

#: done-queue sentinel marking one worker's exit.
_WORKER_DONE = object()


@dataclass
class StreamStats:
    """What flowed through one :func:`stream_map` run.

    ``journal`` carries the run journal's summary when the run was
    durable (``MapOptions.run_dir``); ``None`` otherwise. ``tracing``
    carries the trace store's summary when request-scoped tracing was
    on (``MapOptions.tracing``); ``None`` otherwise.
    """

    n_reads: int = 0
    total_bases: int = 0
    n_mapped: int = 0
    n_alignments: int = 0
    n_chunks: int = 0
    n_windows: int = 0
    journal: Optional[Dict] = None
    tracing: Optional[Dict] = None


@dataclass
class _Shared:
    """State shared between the pipeline stages of one run."""

    stop: threading.Event = field(default_factory=threading.Event)
    errors: List[BaseException] = field(default_factory=list)
    error_lock: threading.Lock = field(default_factory=threading.Lock)

    def fail(self, exc: BaseException) -> None:
        """Record the first error and cancel upstream stages."""
        with self.error_lock:
            self.errors.append(exc)
        self.stop.set()


def _plan_window(
    window: List[Tuple[int, SeqRecord]],
    chunk_reads: int,
    chunk_bases: int,
    longest_first: bool,
) -> List[List[Tuple[int, SeqRecord]]]:
    """Pack one look-ahead window into size-bounded chunks.

    With ``longest_first`` the window is sorted by descending read
    length first, so chunks leave in LPT order — the §4.4.4 batching
    benefit, bounded to the window instead of the whole input.
    """
    items = list(window)
    if longest_first:
        items.sort(key=lambda sr: -len(sr[1]))
    chunks: List[List[Tuple[int, SeqRecord]]] = []
    cur: List[Tuple[int, SeqRecord]] = []
    acc = 0
    for seq, read in items:
        n = len(read)
        if cur and (len(cur) >= chunk_reads or acc + n > chunk_bases):
            chunks.append(cur)
            cur, acc = [], 0
        cur.append((seq, read))
        acc += n
    if cur:
        chunks.append(cur)
    return chunks


def stream_map(
    aligner: Aligner,
    reads: Iterable[SeqRecord],
    emit: Optional[Callable[[SeqRecord, List[Alignment]], None]] = None,
    *,
    workers: int = 1,
    with_cigar: bool = True,
    longest_first: bool = True,
    chunk_reads: int = 32,
    chunk_bases: int = 1_000_000,
    index_path: Optional[str] = None,
    profile=None,
    telemetry: Optional[Telemetry] = None,
    fault_policy: Optional[FaultPolicy] = None,
) -> StreamStats:
    """Run the 3-stage overlapped pipeline over a read iterable.

    ``emit(read, alignments)`` is called exactly once per input read,
    in input order, as soon as that read's results are available —
    stream PAF/SAM from it and peak memory stays bounded by the queue
    capacities regardless of input size. ``None`` discards results
    (useful for benchmarking the pipeline itself).

    ``workers`` processes compute; their pool is built once per call
    and rebuilds the aligner over the ``index_path`` file in ``mmap``
    mode (the in-memory index is serialized to a temporary file once
    when ``None``). The look-ahead window holds ``chunk_reads ×
    workers × 4`` reads (and ``chunk_bases × workers × 4`` bases);
    each inter-stage queue holds ``2 × workers`` chunks.
    ``profile`` receives Load Query / Seed & Chain / Align / Output
    stage seconds (the middle two as aggregate worker seconds);
    ``telemetry`` collects trace spans and the ``stream.*``
    queue-depth/stall gauges.

    Raises :class:`SchedulerError` naming the failing read on the
    first worker error; the reader stops producing and in-flight work
    is drained, never emitted. A ``KeyboardInterrupt`` raised anywhere
    in the pipeline (source, sink, or compute) unwinds the same way —
    threads join, queues drain — and is then re-raised *as is*, never
    wrapped. With a recovering ``fault_policy``, failing reads are
    retried/quarantined in place and dead pool workers are respawned by
    a :class:`~repro.runtime.faults.PoolSupervisor`.
    """
    if workers < 1:
        raise SchedulerError(f"need >= 1 worker: {workers}")
    if chunk_reads < 1:
        raise SchedulerError(f"chunk_reads must be >= 1: {chunk_reads}")
    if chunk_bases < 1:
        raise SchedulerError(f"chunk_bases must be >= 1: {chunk_bases}")
    window_reads = chunk_reads * workers * 4
    window_bases = chunk_bases * workers * 4

    gauges = telemetry.gauges if telemetry is not None else GaugeSet()
    trace = telemetry is not None and telemetry.trace
    shared = _Shared()
    stats = StreamStats()
    # (chunk_id, [(seq, read), ...]) or _END
    work_q: "queue.Queue" = queue.Queue(2 * workers)
    # (chunk_id, chunk, results, stage_seconds, delta, hist_d, spans,
    # faults), _WORKER_DONE, or nothing (errors go through shared.fail).
    done_q: "queue.Queue" = queue.Queue(2 * workers)
    stage_totals: Dict[str, float] = {
        "Load Query": 0.0,
        "Seed & Chain": 0.0,
        "Align": 0.0,
        "Output": 0.0,
    }

    tmp_index: Optional[str] = None
    if index_path is None:
        fd, tmp_index = tempfile.mkstemp(
            suffix=".mmi", prefix="manymap-stream-idx-"
        )
        os.close(fd)
        index_path = tmp_index

    def make_pool() -> ProcessPoolExecutor:
        pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(
                aligner.genome,
                index_path,
                aligner.config,
                with_cigar,
                trace,
                current_level_name(),
                fault_policy,
                getattr(telemetry, "run_id", None),
            ),
        )
        # The first submit starts the workers, so start them here, on
        # the calling thread: a worker forked from a pipeline thread
        # allocates from that thread's empty malloc arena instead of
        # reusing the heap it inherits (+25 MB per worker on 240 CLR
        # reads).
        pool.submit(os.getpid)
        return pool

    try:
        if tmp_index is not None:
            save_index(aligner.index, tmp_index)
        supervisor = PoolSupervisor(
            make_pool, _map_chunk, fault_policy, telemetry
        )
    except BaseException:
        _unlink(tmp_index)
        raise

    # ---------------------------------------------------------------- #
    # Stage 1: reader — drain the source into windowed, bounded chunks.

    def reader() -> None:
        next_chunk_id = 0
        window: List[Tuple[int, SeqRecord]] = []
        win_bases = 0

        def flush() -> None:
            nonlocal next_chunk_id, win_bases
            if not window:
                return
            stats.n_windows += 1
            for chunk in _plan_window(
                window, chunk_reads, chunk_bases, longest_first
            ):
                if shared.stop.is_set():
                    break
                t0 = time.perf_counter()
                work_q.put((next_chunk_id, chunk))
                gauges.add("stream.reader.stall_s", time.perf_counter() - t0)
                gauges.high_water("stream.work_queue.depth.max", work_q.qsize())
                EVENTS.emit(
                    "chunk.dispatched", chunk=next_chunk_id, reads=len(chunk)
                )
                next_chunk_id += 1
                stats.n_chunks += 1
            window.clear()
            win_bases = 0

        try:
            it = iter(reads)
            while not shared.stop.is_set():
                t0 = time.perf_counter()
                try:
                    read = next(it)
                except StopIteration:
                    stage_totals["Load Query"] += time.perf_counter() - t0
                    break
                stage_totals["Load Query"] += time.perf_counter() - t0
                window.append((stats.n_reads, read))
                stats.n_reads += 1
                stats.total_bases += len(read)
                win_bases += len(read)
                if len(window) >= window_reads or win_bases >= window_bases:
                    flush()
            flush()
        except BaseException as exc:  # noqa: BLE001 - pipeline boundary
            shared.fail(
                exc
                if isinstance(exc, (SchedulerError, KeyboardInterrupt))
                else SchedulerError(f"read source failed: {exc!r}")
            )
        finally:
            # Always hand every worker its end marker, even on error —
            # workers drain the queue, so these puts cannot deadlock.
            for _ in range(workers):
                work_q.put(_END)

    # ---------------------------------------------------------------- #
    # Stage 2: compute workers.

    def worker() -> None:
        try:
            while True:
                t0 = time.perf_counter()
                item = work_q.get()
                gauges.add("stream.compute.stall_s", time.perf_counter() - t0)
                if item is _END:
                    return
                if shared.stop.is_set():
                    continue  # cancelled: drain without computing
                chunk_id, chunk = item
                payload = (
                    chunk_id,
                    tuple(seq for seq, _ in chunk),
                    [read for _, read in chunk],
                )
                try:
                    # run_chunk recovers broken pools (respawn +
                    # re-dispatch + poison-read bisect) when the policy
                    # allows; otherwise it raises.
                    (
                        _,
                        results,
                        stage_seconds,
                        delta,
                        hist_d,
                        spans,
                        faults,
                    ) = supervisor.run_chunk(payload)
                except BaseException as exc:  # noqa: BLE001
                    shared.fail(
                        exc
                        if isinstance(exc, (SchedulerError, KeyboardInterrupt))
                        else SchedulerError(f"compute stage failed: {exc!r}")
                    )
                    continue
                done_q.put(
                    (
                        chunk_id,
                        chunk,
                        results,
                        stage_seconds,
                        delta,
                        hist_d,
                        spans,
                        faults,
                    )
                )
                gauges.high_water("stream.done_queue.depth.max", done_q.qsize())
        finally:
            done_q.put(_WORKER_DONE)

    # ---------------------------------------------------------------- #
    # Stage 3: writer — reassemble input order, stream to the sink.

    reorder: Dict[int, Tuple[SeqRecord, List[Alignment]]] = {}

    def writer() -> None:
        next_seq = 0
        workers_left = workers
        while workers_left:
            t0 = time.perf_counter()
            item = done_q.get()
            gauges.add("stream.writer.stall_s", time.perf_counter() - t0)
            if item is _WORKER_DONE:
                workers_left -= 1
                continue
            (
                chunk_id,
                chunk,
                results,
                stage_seconds,
                delta,
                hist_d,
                spans,
                faults,
            ) = item
            for stage, sec in stage_seconds.items():
                stage_totals[stage] = stage_totals.get(stage, 0.0) + sec
            COUNTERS.merge(delta)
            HISTOGRAMS.merge(hist_d)
            # Parent-side absorb point: worker deltas are live in the
            # registries from here, so /status and /metrics see them.
            EVENTS.emit("chunk.done", chunk=chunk_id, reads=len(chunk))
            if telemetry is not None:
                telemetry.extend(spans)
                telemetry.record_faults(faults)
            if shared.stop.is_set():
                continue  # cancelled: absorb telemetry, emit nothing
            for (seq, read), alns in zip(chunk, results):
                reorder[seq] = (read, alns)
            gauges.high_water("stream.reorder.reads.max", len(reorder))
            while next_seq in reorder:
                read, alns = reorder.pop(next_seq)
                next_seq += 1
                if alns:
                    stats.n_mapped += 1
                stats.n_alignments += len(alns)
                if emit is not None:
                    t0 = time.perf_counter()
                    try:
                        emit(read, alns)
                    except BaseException as exc:  # noqa: BLE001
                        shared.fail(
                            exc
                            if isinstance(exc, KeyboardInterrupt)
                            else SchedulerError(
                                f"output sink failed for read "
                                f"{read.name!r}: {exc!r}"
                            )
                        )
                        break
                    finally:
                        stage_totals["Output"] += time.perf_counter() - t0

    threads = [
        threading.Thread(target=reader, name="stream-reader", daemon=True),
        threading.Thread(target=writer, name="stream-writer", daemon=True),
    ] + [
        threading.Thread(target=worker, name=f"stream-compute-{i}", daemon=True)
        for i in range(workers)
    ]
    t_start = time.perf_counter()
    try:
        for t in threads:
            t.start()
        try:
            for t in threads:
                t.join()
        except KeyboardInterrupt:
            # Ctrl-C landed in the main thread mid-join: cancel the
            # pipeline, wait for every stage to unwind, then re-raise.
            shared.stop.set()
            for t in threads:
                t.join()
            raise
    finally:
        from ..testing import chaos as _chaos_mod

        if _chaos_mod.ARMED:
            _chaos_mod.chaos_point("stream.drain")
        supervisor.shutdown()
        _unlink(tmp_index)

    gauges.set("stream.workers", workers)
    gauges.set("stream.chunks", stats.n_chunks)
    gauges.set("stream.windows", stats.n_windows)
    gauges.add("stream.wall_s", time.perf_counter() - t_start)
    if profile is not None:
        profile.merge(stage_totals)
    if shared.errors:
        err = shared.errors[0]
        if isinstance(err, (SchedulerError, KeyboardInterrupt)):
            # KeyboardInterrupt is re-raised as-is *after* the clean
            # unwind above: all threads joined, queues drained.
            raise err
        raise SchedulerError(f"streaming pipeline failed: {err!r}") from err
    return stats


def map_reads_streaming(
    aligner: Aligner,
    reads: Sequence[SeqRecord],
    **kwargs,
) -> List[List[Alignment]]:
    """Batch-shaped adapter: run the pipeline, collect results in order.

    This is what ``backend="processes"`` resolves to in the backend
    registry for more than one worker, so the pipeline is drop-in
    interchangeable (and byte-identical) with the serial backend
    wherever a result list is expected. ``kwargs`` are
    :func:`stream_map`'s. For true constant-memory streaming use
    :func:`stream_map` (or :func:`repro.api.map_file`) with a sink.
    """
    out: List[List[Alignment]] = []

    def collect(_read: SeqRecord, alns: List[Alignment]) -> None:
        out.append(alns)

    stream_map(aligner, reads, collect, **kwargs)
    return out


def _unlink(path: Optional[str]) -> None:
    if path is not None:
        try:
            os.unlink(path)
        except OSError:
            pass
