"""Tests for the overlapped read/compute/write pipeline (§4.4.4).

The contract under test: ``stream_map`` / ``map_file`` with
``backend="processes"`` produce output *byte-identical* to the serial
backend for any worker count, chunking, windowing, or input framing
(plain/gzip FASTA/FASTQ, empty file, one huge read) — while reading the
input incrementally and reporting pipeline gauges.
"""

from __future__ import annotations

import gzip

import pytest

from repro import api
from repro.core.aligner import Aligner
from repro.core.alignment import to_paf
from repro.core.profiling import PipelineProfile
from repro.errors import SchedulerError
from repro.obs.telemetry import Telemetry
from repro.runtime.streaming import StreamStats, map_reads_streaming, stream_map
from repro.seq.fasta import write_fasta, write_fastq
from repro.seq.records import SeqRecord
from repro.sim.lengths import LengthModel
from repro.sim.pbsim import ReadSimulator


class InterruptRecord:
    """Read whose sequence access raises Ctrl-C inside the worker."""

    name = "ctrl_c"

    def __len__(self):
        return 50

    @property
    def codes(self):
        raise KeyboardInterrupt


@pytest.fixture(scope="module")
def setup(small_genome):
    sim = ReadSimulator.preset(small_genome, "pacbio")
    sim.length_model = LengthModel(mean=550.0, sigma=0.4, max_length=1200)
    reads = list(sim.simulate(12, seed=29))
    return Aligner(small_genome, preset="test"), reads


def collect_paf(aligner, source, **kw):
    lines = []
    stats = stream_map(
        aligner,
        source,
        lambda read, alns: lines.extend(to_paf(a) for a in alns),
        **kw,
    )
    return lines, stats


@pytest.fixture(scope="module")
def serial_paf(setup):
    aligner, reads = setup
    results = api.map_reads(aligner, reads, backend="serial")
    return [to_paf(a) for alns in results for a in alns]


class TestByteIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_sweep(self, setup, serial_paf, workers):
        aligner, reads = setup
        lines, stats = collect_paf(
            aligner, iter(reads), workers=workers, chunk_reads=3
        )
        assert lines == serial_paf
        assert stats.n_reads == len(reads)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(chunk_reads=1),
            dict(chunk_reads=2, chunk_bases=900),
            dict(chunk_reads=100, longest_first=False),
            dict(chunk_bases=600),
        ],
    )
    def test_scheduling_sweep(self, setup, serial_paf, kw):
        aligner, reads = setup
        lines, _ = collect_paf(aligner, iter(reads), workers=2, **kw)
        assert lines == serial_paf

    def test_registry_adapter_matches_serial(self, setup):
        aligner, reads = setup
        serial = api.map_reads(aligner, reads, backend="serial")
        streamed = map_reads_streaming(aligner, reads, workers=3, chunk_reads=2)
        assert streamed == serial

    def test_process_workers_match(self, setup, serial_paf, tmp_path):
        aligner, reads = setup
        from repro.index.store import save_index

        idx = tmp_path / "ref.mmi"
        save_index(aligner.index, idx)
        lines, _ = collect_paf(
            aligner,
            iter(reads),
            workers=2,
            chunk_reads=4,
            index_path=str(idx),
        )
        assert lines == serial_paf


class TestMapFile:
    """api.map_file drives every backend through the shared reader."""

    def write_inputs(self, reads, tmp_path):
        fa = tmp_path / "reads.fa"
        fq = tmp_path / "reads.fq"
        write_fasta(fa, reads)
        write_fastq(fq, reads)
        fa_gz = tmp_path / "reads.fa.gz"
        fa_gz.write_bytes(gzip.compress(fa.read_bytes()))
        fq_gz = tmp_path / "reads.fq.gz"
        fq_gz.write_bytes(gzip.compress(fq.read_bytes()))
        return [fa, fq, fa_gz, fq_gz]

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_all_framings_identical(self, setup, tmp_path, backend):
        import io

        aligner, reads = setup
        baseline = None
        for path in self.write_inputs(reads, tmp_path):
            out = io.StringIO()
            stats = api.map_file(
                aligner, path, out, backend=backend, workers=2, chunk_reads=3
            )
            assert stats.n_reads == len(reads)
            if baseline is None:
                baseline = out.getvalue()
            else:
                assert out.getvalue() == baseline, (backend, path.name)
        assert baseline.count("\n") == sum(
            len(a) for a in api.map_reads(aligner, reads)
        )

    def test_empty_file(self, setup, tmp_path):
        import io

        aligner, _ = setup
        empty = tmp_path / "empty.fa"
        empty.write_text("")
        out = io.StringIO()
        stats = api.map_file(aligner, empty, out, backend="processes", workers=2)
        assert out.getvalue() == ""
        assert stats == StreamStats()

    def test_single_huge_read(self, small_genome, tmp_path):
        import io

        aligner = Aligner(small_genome, preset="test")
        sim = ReadSimulator.preset(small_genome, "pacbio")
        sim.length_model = LengthModel(mean=9000.0, sigma=0.05, max_length=12_000)
        [read] = list(sim.simulate(1, seed=3))
        assert len(read) > 5000
        fa = tmp_path / "huge.fa"
        write_fasta(fa, [read])
        want = io.StringIO()
        api.map_file(aligner, fa, want, backend="serial")
        got = io.StringIO()
        stats = api.map_file(
            aligner, fa, got, backend="processes", workers=2, chunk_bases=100
        )
        assert got.getvalue() == want.getvalue()
        assert stats.n_reads == 1 and stats.n_chunks == 1


class TestFailure:
    class PoisonRecord:
        def __init__(self, name, length=50):
            self.name = name
            self._length = length

        def __len__(self):
            return self._length

        @property
        def codes(self):
            raise RuntimeError("poisoned codes")

    def test_compute_error_names_read(self, setup):
        aligner, reads = setup
        poisoned = reads[:3] + [self.PoisonRecord("bad_read")] + reads[3:]
        with pytest.raises(SchedulerError, match="bad_read"):
            stream_map(aligner, iter(poisoned), workers=2, chunk_reads=2)

    def test_sink_error_names_read(self, setup):
        aligner, reads = setup

        def sink(read, alns):
            raise OSError("disk full")

        with pytest.raises(SchedulerError, match="output sink failed"):
            stream_map(aligner, iter(reads), sink, workers=2)

    def test_source_error_propagates(self, setup):
        aligner, reads = setup

        def source():
            yield reads[0]
            raise ValueError("truncated input")

        with pytest.raises(SchedulerError, match="read source failed"):
            stream_map(aligner, source(), workers=2)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(workers=0),
            dict(chunk_reads=0),
            dict(chunk_bases=0),
        ],
    )
    def test_bad_params(self, setup, kw):
        aligner, reads = setup
        with pytest.raises(SchedulerError):
            stream_map(aligner, iter(reads), **kw)


class TestShutdownRegression:
    """Failures mid-stream must join every pipeline thread and drain the
    queues — no deadlocks, no leaked threads, and KeyboardInterrupt must
    surface as KeyboardInterrupt (never wrapped in SchedulerError)."""

    TIMEOUT = 30.0

    def run_guarded(self, fn):
        """Run ``fn`` on a watchdog thread; fail the test on deadlock.

        Returns ``(value, exception)``; also asserts every thread the
        call spawned has exited."""
        import threading
        import time as _time

        before = set(threading.enumerate())
        box = {}

        def target():
            try:
                box["value"] = fn()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                box["exc"] = exc

        t = threading.Thread(target=target, daemon=True)
        t.start()
        t.join(self.TIMEOUT)
        assert not t.is_alive(), "stream_map deadlocked (watchdog timeout)"
        deadline = _time.monotonic() + self.TIMEOUT
        while _time.monotonic() < deadline:
            leaked = [
                th
                for th in threading.enumerate()
                if th not in before and th is not t and th.is_alive()
            ]
            if not leaked:
                break
            _time.sleep(0.02)
        else:
            raise AssertionError(f"leaked pipeline threads: {leaked}")
        return box.get("value"), box.get("exc")

    def test_writer_exception_joins_all_threads(self, setup):
        aligner, reads = setup

        def sink(read, alns):
            raise OSError("disk full")

        _, exc = self.run_guarded(
            lambda: stream_map(
                aligner, iter(reads), sink, workers=2, chunk_reads=2
            )
        )
        assert isinstance(exc, SchedulerError)
        assert "output sink failed" in str(exc)

    def test_keyboard_interrupt_from_source(self, setup):
        aligner, reads = setup

        def source():
            yield reads[0]
            yield reads[1]
            raise KeyboardInterrupt

        _, exc = self.run_guarded(
            lambda: stream_map(aligner, source(), workers=2, chunk_reads=1)
        )
        assert type(exc) is KeyboardInterrupt

    def test_keyboard_interrupt_from_sink(self, setup):
        aligner, reads = setup
        seen = []

        def sink(read, alns):
            seen.append(read.name)
            raise KeyboardInterrupt

        _, exc = self.run_guarded(
            lambda: stream_map(
                aligner, iter(reads), sink, workers=2, chunk_reads=2
            )
        )
        assert type(exc) is KeyboardInterrupt
        assert seen  # it got as far as emitting

    def test_keyboard_interrupt_from_compute(self, setup):
        aligner, reads = setup
        poisoned = reads[:2] + [InterruptRecord()] + reads[2:]
        _, exc = self.run_guarded(
            lambda: stream_map(
                aligner, iter(poisoned), workers=2, chunk_reads=1
            )
        )
        assert type(exc) is KeyboardInterrupt

    def test_failure_with_slow_source_does_not_deadlock(self, setup):
        """A sink failure while the reader is blocked on a full queue
        must still unwind (the stop flag drains the queues)."""
        import time as _time

        aligner, reads = setup

        def source():
            for r in reads:
                _time.sleep(0.005)
                yield r

        def sink(read, alns):
            raise RuntimeError("sink exploded")

        _, exc = self.run_guarded(
            lambda: stream_map(
                aligner,
                source(),
                sink,
                workers=1,
                chunk_reads=1,
            )
        )
        assert isinstance(exc, SchedulerError)


class TestObservability:
    def test_gauges_and_stages_recorded(self, setup):
        aligner, reads = setup
        profile = PipelineProfile(label="stream")
        telemetry = Telemetry(trace=True)
        stats = stream_map(
            aligner,
            iter(reads),
            workers=2,
            chunk_reads=3,
            profile=profile,
            telemetry=telemetry,
        )
        gauges = telemetry.gauges.snapshot()
        assert gauges["stream.workers"] == 2
        assert gauges["stream.chunks"] == stats.n_chunks
        assert gauges["stream.windows"] == stats.n_windows
        assert gauges["stream.wall_s"] > 0.0
        for name in (
            "stream.reader.stall_s",
            "stream.compute.stall_s",
            "stream.writer.stall_s",
            "stream.work_queue.depth.max",
            "stream.done_queue.depth.max",
            "stream.reorder.reads.max",
        ):
            assert name in gauges, name
        for stage in ("Load Query", "Seed & Chain", "Align", "Output"):
            assert profile.seconds(stage) >= 0.0
        assert profile.seconds("Seed & Chain") > 0.0
        assert sorted(s["read"] for s in telemetry.spans) == sorted(
            r.name for r in reads
        )

    def test_stats_totals(self, setup):
        aligner, reads = setup
        lines, stats = collect_paf(aligner, iter(reads), workers=2, chunk_reads=4)
        assert stats.total_bases == sum(len(r) for r in reads)
        assert stats.n_alignments == len(lines)
        assert 0 < stats.n_mapped <= stats.n_reads == len(reads)

    def test_incremental_consumption(self, setup):
        """Backpressure keeps the reader from slurping the whole source."""
        aligner, reads = setup
        consumed = []
        ahead_at_first_emit = []

        def source():
            for r in reads:
                consumed.append(r.name)
                yield r

        def sink(read, alns):
            if not ahead_at_first_emit:
                ahead_at_first_emit.append(len(consumed))

        stream_map(
            aligner,
            source(),
            sink,
            workers=1,
            chunk_reads=1,
            longest_first=False,
        )
        assert len(consumed) == len(reads)
        # One worker, one-read chunks: a window is 4 reads and the work
        # queue holds 2 chunks. Input order puts read 0 in the first
        # chunk, so the reader is at most one window past it when it is
        # emitted — far less than the full input.
        assert ahead_at_first_emit[0] <= 8 < len(reads)
