"""The worker side of process-parallel mapping, and the serial loop (§4.4).

The paper's macro speedups come from keeping *all* hardware threads
busy on the whole pipeline (40 CPU / 256 KNL threads), not from
parallelizing one kernel. CPython's GIL caps threads at whatever
fraction of the work sits inside NumPy, so the real-multicore path is
``multiprocessing``: the parallel pipeline
(:func:`repro.runtime.streaming.stream_map`) hands chunks to a pool of
processes whose task is :func:`_map_chunk` here.

* **Zero-copy index sharing (§4.4.2).** Workers never receive the
  minimizer index through a pickle. :func:`_init_worker` rebuilds each
  worker's :class:`~repro.core.aligner.Aligner` from the *serialized
  index file* opened in ``mode='mmap'``, so every worker's index
  arrays are demand-paged views of the same page-cache copy — the same
  trick that halved manymap's KNL index-load time, reused here to make
  worker start-up O(1) in index size.
* **Telemetry shipping.** Each chunk result carries the worker's Seed
  & Chain / Align seconds, its counter and histogram deltas (snapshots
  of its process-local registries before vs after the chunk) and —
  when tracing is enabled — one span per read, so the parent merges
  them into totals and traces that match the serial backend's.

:func:`_map_serial` is the one-process loop behind ``backend="serial"``
and any one-worker run, with the same stage and telemetry accounting.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.aligner import Aligner, AlignerConfig
from ..core.alignment import Alignment
from ..errors import SchedulerError
from ..index.store import load_index
from ..obs.counters import COUNTERS, counter_delta
from ..obs.hist import HISTOGRAMS, hist_delta
from ..obs.logs import set_run_id, setup_logging
from ..obs.telemetry import Telemetry, read_span
from ..seq.genome import Genome
from ..seq.records import SeqRecord
from .faults import FaultPolicy, FaultRecord, map_chunk_reads, map_one_read

__all__: List[str] = []


# --------------------------------------------------------------------- #
# Worker side. Module-level state is populated once per worker process
# by the pool initializer; tasks then only ship (chunk id, indices, reads).

_WORKER: Dict[str, object] = {}


def _init_worker(
    genome: Genome,
    index_path: str,
    config: AlignerConfig,
    with_cigar: bool,
    trace: bool,
    log_level: str,
    policy: Optional[FaultPolicy] = None,
    run_id: Optional[str] = None,
) -> None:
    # Mark this process as a disposable pool worker: crash-kind fault
    # injection only hard-kills where a supervisor can respawn it.
    os.environ["MANYMAP_POOL_WORKER"] = "1"
    _exit_with_parent(os.getppid())
    setup_logging(log_level)
    set_run_id(run_id)
    index = load_index(index_path, mode="mmap")
    _WORKER["aligner"] = config.build(genome, index=index)
    _WORKER["with_cigar"] = with_cigar
    _WORKER["trace"] = trace
    _WORKER["policy"] = policy


def _exit_with_parent(ppid: int) -> None:
    """Exit once the mapping process is gone.

    Workers block on the pool's task queue, whose write end they also
    hold, so a SIGKILLed parent never shows them end-of-file: without
    this watch they would wait for tasks forever.
    """

    def watch() -> None:
        while os.getppid() == ppid:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _map_chunk(
    payload: Tuple[int, Tuple[int, ...], List[SeqRecord]],
) -> Tuple[
    Tuple[int, ...],
    List[List[Alignment]],
    Dict[str, float],
    Dict[str, int],
    Dict[str, Dict],
    List[Dict],
    List[FaultRecord],
]:
    chunk_id, indices, reads = payload
    aligner: Aligner = _WORKER["aligner"]  # type: ignore[assignment]
    with_cigar: bool = _WORKER["with_cigar"]  # type: ignore[assignment]
    trace: bool = bool(_WORKER.get("trace"))
    policy: Optional[FaultPolicy] = _WORKER.get("policy")  # type: ignore
    stage_seconds = {"Seed & Chain": 0.0, "Align": 0.0}
    counters_before = COUNTERS.totals()
    hists_before = HISTOGRAMS.snapshot()
    spans: List[Dict] = []
    out: List[List[Alignment]] = []
    faults: List[FaultRecord] = []
    try:
        pooled = map_chunk_reads(aligner, reads, with_cigar, policy)
    except Exception:
        # Deterministic mapping: re-running per read below reproduces
        # the failure on the culprit read, with the read-naming wrap.
        pooled = None
    if pooled is not None:
        for read, (alns, seed_s, align_s, fault) in zip(reads, pooled):
            stage_seconds["Seed & Chain"] += seed_s
            stage_seconds["Align"] += align_s
            if trace:
                spans.append(
                    read_span(
                        read.name, len(read), seed_s, align_s, chunk=chunk_id
                    )
                )
            out.append(alns)
    else:
        for read in reads:
            try:
                alns, seed_s, align_s, fault = map_one_read(
                    aligner, read, with_cigar, policy
                )
            except Exception as exc:  # pragma: no cover - exercised via pool
                # Chained exceptions do not survive the pickle back to the
                # parent, so fold the context into the message itself.
                raise SchedulerError(
                    f"mapping failed for read {read.name!r} in worker "
                    f"{os.getpid()}: {exc!r}\n{traceback.format_exc()}"
                ) from None
            stage_seconds["Seed & Chain"] += seed_s
            stage_seconds["Align"] += align_s
            if fault is not None:
                faults.append(fault)
            if trace and (fault is None or fault.action == "fallback"):
                spans.append(
                    read_span(
                        read.name, len(read), seed_s, align_s, chunk=chunk_id
                    )
                )
            out.append(alns)
    delta = counter_delta(COUNTERS.totals(), counters_before)
    hist_d = hist_delta(HISTOGRAMS.snapshot(), hists_before)
    return indices, out, stage_seconds, delta, hist_d, spans, faults


def _map_serial(
    aligner: Aligner,
    reads: Sequence[SeqRecord],
    with_cigar: bool,
    profile,
    telemetry: Optional[Telemetry] = None,
    fault_policy: Optional[FaultPolicy] = None,
    pool_reads: int = 64,
    pool_bases: int = 8_000_000,
) -> List[List[Alignment]]:
    """Single-process fallback with the same stage/telemetry accounting.

    Reads are processed in consecutive, size-bounded pools (input
    order — no reordering) so the base-level DP of a whole pool runs
    through the kernel-dispatch layer in one call while memory for
    in-flight plans stays bounded. ``pool_reads`` / ``pool_bases`` are
    deliberately independent of the parallel backends' scheduling
    chunk size: serial has no scheduling, only a DP-batching width.
    With a fault policy (or an aligner that cannot pool plans) this
    degrades to the per-read loop it always was.
    """
    stage_totals = {"Seed & Chain": 0.0, "Align": 0.0}
    trace = telemetry is not None and telemetry.trace
    out: List[List[Alignment]] = []
    reads = list(reads)
    pos = 0
    while pos < len(reads):
        chunk = [reads[pos]]
        acc = len(reads[pos])
        pos += 1
        while (
            pos < len(reads)
            and len(chunk) < pool_reads
            and acc + len(reads[pos]) <= pool_bases
        ):
            chunk.append(reads[pos])
            acc += len(reads[pos])
            pos += 1
        tuples = map_chunk_reads(aligner, chunk, with_cigar, fault_policy)
        if tuples is None:
            tuples = [
                map_one_read(aligner, read, with_cigar, fault_policy)
                for read in chunk
            ]
        for read, (alns, seed_s, align_s, fault) in zip(chunk, tuples):
            out.append(alns)
            stage_totals["Seed & Chain"] += seed_s
            stage_totals["Align"] += align_s
            if fault is not None and telemetry is not None:
                telemetry.record_faults([fault])
            if trace and (fault is None or fault.action == "fallback"):
                telemetry.record(
                    read_span(read.name, len(read), seed_s, align_s)
                )
    if profile is not None:
        profile.merge(stage_totals)
    return out
