"""Batch driver: runs the full pipeline with per-stage instrumentation.

This is the single-threaded measured pipeline behind Table 2 and
Figure 11 — load index, load query, seed & chain, align, output — with
real wall-clock timing per stage. Pipelined/parallel execution lives in
:mod:`repro.runtime`; this driver is deliberately serial so its stage
times can feed the machine models.
"""

from __future__ import annotations

import io
import os
import time
from typing import Dict, List, Optional, Sequence, Union

from ..index.store import load_index
from ..obs.metrics import build_metrics
from ..obs.telemetry import Telemetry, read_span
from ..seq.fasta import read_fasta, read_fastq
from ..seq.genome import Genome
from ..seq.records import ReadSet, SeqRecord
from .aligner import Aligner
from .alignment import Alignment, to_paf
from .profiling import PipelineProfile


class BatchDriver:
    """Runs reads through an :class:`Aligner`, timing the paper's stages.

    ``trace=True`` additionally records one telemetry span per read
    (see :class:`~repro.obs.telemetry.Telemetry`); counters are scoped
    to the driver's lifetime and surface through :meth:`metrics`.
    """

    def __init__(
        self, aligner: Aligner, label: str = "", trace: bool = False
    ) -> None:
        self.aligner = aligner
        self.profile = PipelineProfile(label=label)
        self.telemetry = Telemetry(trace=trace)
        self._n_reads = 0
        self._total_bases = 0
        self._n_mapped = 0

    @classmethod
    def from_index_file(
        cls,
        genome: Genome,
        index_path: Union[str, os.PathLike],
        load_mode: str = "buffered",
        preset: str = "map-pb",
        engine: str = "manymap",
        label: str = "",
    ) -> "BatchDriver":
        """Build a driver whose index-load time is measured for real.

        ``load_mode='mmap'`` exercises the paper's memory-mapped I/O
        path (§4.4.2) — the load returns almost immediately because
        pages are faulted in on demand.
        """
        profile = PipelineProfile(label=label)
        with profile.stage("Load Index"):
            index = load_index(index_path, mode=load_mode)
        aligner = Aligner(genome, preset=preset, engine=engine, index=index)
        driver = cls(aligner, label=label)
        driver.profile = profile
        return driver

    def load_reads(self, source) -> ReadSet:
        """Load query reads (paths, handles, or pass-through ReadSet)."""
        with self.profile.stage("Load Query"):
            if isinstance(source, ReadSet):
                return source
            if isinstance(source, (list, tuple)):
                rs = ReadSet(reads=list(source))
                return rs
            path = os.fspath(source)
            records = (
                read_fastq(path)
                if path.endswith((".fq", ".fastq"))
                else read_fasta(path)
            )
            return ReadSet(reads=records)

    def run(
        self,
        reads: Union[ReadSet, Sequence[SeqRecord]],
        output: Optional[io.TextIOBase] = None,
        with_cigar: bool = True,
    ) -> List[List[Alignment]]:
        """Map every read, timing seed&chain / align / output separately."""
        if isinstance(reads, ReadSet):
            records = list(reads)
        else:
            records = list(reads)
        results: List[List[Alignment]] = []
        for read in records:
            t0 = time.perf_counter()
            with self.profile.stage("Seed & Chain"):
                plan = self.aligner.seed_and_chain(read)
            t1 = time.perf_counter()
            with self.profile.stage("Align"):
                alns = self.aligner.align_plan(read, plan, with_cigar=with_cigar)
            if self.telemetry.trace:
                self.telemetry.record(
                    read_span(
                        read.name,
                        len(read),
                        t1 - t0,
                        time.perf_counter() - t1,
                    )
                )
            results.append(alns)
        with self.profile.stage("Output"):
            self._write_output(results, output)
        self._note_run(records, results)
        return results

    def _note_run(
        self,
        records: Sequence[SeqRecord],
        results: List[List[Alignment]],
    ) -> None:
        self._n_reads += len(records)
        self._total_bases += sum(len(r) for r in records)
        self._n_mapped += self.n_mapped(results)

    def metrics(self, config: Optional[Dict] = None) -> Dict:
        """The run manifest (``--metrics`` document) for this driver."""
        cfg = {
            "preset": self.aligner.preset.name,
            "engine": self.aligner.engine_name,
            "backend": "serial",
            "workers": 1,
        }
        cfg.update(config or {})
        return build_metrics(
            self.profile,
            self.telemetry,
            config=cfg,
            reads={
                "n_reads": self._n_reads,
                "total_bases": self._total_bases,
                "n_mapped": self._n_mapped,
            },
            label=self.profile.label,
        )

    def write_timeline(self, path: Union[str, os.PathLike]) -> int:
        """Export the driver's trace spans as a Chrome-trace/Perfetto
        timeline JSON (needs ``trace=True`` so spans were recorded);
        returns the number of trace events written."""
        from ..obs.timeline import write_timeline

        return write_timeline(
            os.fspath(path),
            self.telemetry.spans,
            self.telemetry.faults,
            run_id=self.telemetry.run_id,
            gauges=self.telemetry.gauges.snapshot(),
            label=self.profile.label,
        )

    def _write_output(
        self,
        results: List[List[Alignment]],
        output: Optional[io.TextIOBase],
    ) -> None:
        """Stream PAF lines one at a time: peak memory is O(longest line),
        not O(total output). Formatting runs even with no sink so the
        Output stage time stays comparable across invocations."""
        for alns in results:
            for aln in alns:
                line = to_paf(aln)
                if output is not None:
                    output.write(line)
                    output.write("\n")

    def n_mapped(self, results: List[List[Alignment]]) -> int:
        return sum(1 for alns in results if alns)


class ParallelDriver(BatchDriver):
    """Batch driver running any registered execution backend.

    Backends resolve through the registry in
    :mod:`repro.runtime.backends` (``serial`` / ``processes``); pass
    either the legacy keyword
    arguments or a prebuilt :class:`repro.api.MapOptions` via
    ``options`` (which wins over the individual kwargs).

    Per-stage profiling is preserved across workers: each worker times
    its own Seed & Chain / Align stages and the driver merges the
    timers, so those two stages report *aggregate worker seconds* (the
    sum over workers — up to ``workers ×`` the wall-clock time), while
    Load Index / Load Query / Output remain wall-clock as in
    :class:`BatchDriver`.
    """

    def __init__(
        self,
        aligner: Aligner,
        backend: str = "processes",
        workers: int = 2,
        chunk_reads: int = 32,
        chunk_bases: int = 1_000_000,
        longest_first: bool = True,
        index_path: Optional[Union[str, os.PathLike]] = None,
        label: str = "",
        trace: bool = False,
        options: Optional["MapOptions"] = None,
        fault_policy=None,
    ) -> None:
        from ..api import MapOptions

        if options is None:
            options = MapOptions(
                backend=backend,
                workers=workers,
                chunk_reads=chunk_reads,
                chunk_bases=chunk_bases,
                longest_first=longest_first,
                index_path=os.fspath(index_path) if index_path else None,
                fault_policy=fault_policy,
            )
        options = options.validated()
        super().__init__(
            aligner,
            label=label or f"{options.backend}[{options.workers}]",
            trace=trace,
        )
        #: the run configuration; the kwarg properties below mirror it.
        self.options = options

    @property
    def backend(self) -> str:
        return self.options.backend

    @property
    def workers(self) -> int:
        return self.options.workers

    @property
    def chunk_reads(self) -> int:
        return self.options.chunk_reads

    @property
    def chunk_bases(self) -> int:
        return self.options.chunk_bases

    @property
    def longest_first(self) -> bool:
        return self.options.longest_first

    @property
    def index_path(self) -> Optional[str]:
        """Serialized index reused by process workers (mmap, zero-copy);
        when None the process backends serialize the index per run."""
        return self.options.index_path

    @classmethod
    def from_index_file(
        cls,
        genome: Genome,
        index_path: Union[str, os.PathLike],
        load_mode: str = "mmap",
        preset: str = "map-pb",
        engine: str = "manymap",
        label: str = "",
        backend: str = "processes",
        workers: int = 2,
        **kwargs,
    ) -> "ParallelDriver":
        """Build a parallel driver over a serialized index.

        The parent loads the index (timed as Load Index); process
        workers re-open the same file in ``mmap`` mode, sharing it
        zero-copy through the page cache.
        """
        profile = PipelineProfile(label=label or f"{backend}[{workers}]")
        with profile.stage("Load Index"):
            index = load_index(index_path, mode=load_mode)
        aligner = Aligner(genome, preset=preset, engine=engine, index=index)
        driver = cls(
            aligner,
            backend=backend,
            workers=workers,
            index_path=index_path,
            label=label,
            **kwargs,
        )
        driver.profile = profile
        return driver

    def run(
        self,
        reads: Union[ReadSet, Sequence[SeqRecord]],
        output: Optional[io.TextIOBase] = None,
        with_cigar: bool = True,
    ) -> List[List[Alignment]]:
        """Map every read on the configured backend; stream PAF output."""
        from ..runtime.backends import dispatch

        records = list(reads)
        results = dispatch(
            self.aligner,
            records,
            self.options.replace(with_cigar=with_cigar),
            profile=self.profile,
            telemetry=self.telemetry,
        )
        with self.profile.stage("Output"):
            self._write_output(results, output)
        self._note_run(records, results)
        return results

    def metrics(self, config: Optional[Dict] = None) -> Dict:
        policy = self.options.fault_policy
        cfg = {
            "backend": self.backend,
            "workers": self.workers,
            "chunk_reads": self.chunk_reads,
            "chunk_bases": self.chunk_bases,
            "longest_first": self.longest_first,
            "on_error": policy.on_error if policy is not None else "abort",
        }
        cfg.update(config or {})
        return super().metrics(config=cfg)
