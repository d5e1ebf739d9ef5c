"""Cross-backend telemetry: counters, stage timers, and trace spans.

The whole point of the telemetry design is backend independence — the
same read set must produce identical counter totals whether it is
mapped serially or across worker processes (whose deltas are shipped
home with results), and tracing must yield exactly one span per read
on every backend.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.core.aligner import Aligner
from repro.core.alignment import to_paf
from repro.core.profiling import PipelineProfile
from repro.obs.counters import drop_shape_dependent
from repro.obs.hist import HISTOGRAMS
from repro.obs.telemetry import Telemetry, read_span, worker_id
from repro.api import map_file, map_reads
from repro.seq.fasta import write_fastq
from repro.seq.genome import GenomeSpec, generate_genome
from repro.sim.lengths import LengthModel
from repro.sim.pbsim import ReadSimulator

BACKENDS = [("serial", 1), ("processes", 2)]


@pytest.fixture(scope="module")
def workload():
    genome = generate_genome(GenomeSpec(length=25_000, chromosomes=1), seed=5)
    sim = ReadSimulator.preset(genome, "pacbio")
    sim.length_model = LengthModel(mean=600.0, sigma=0.35, max_length=2500)
    reads = list(sim.simulate(10, seed=17))
    return Aligner(genome, preset="test"), reads


@pytest.fixture(scope="module")
def runs(workload):
    """Map the same reads on every backend, capturing all telemetry."""
    aligner, reads = workload
    # Clear process-lifetime histogram min/max so the serial run's
    # run-scoped envelopes match the fresh-worker processes.
    HISTOGRAMS.reset()
    out = {}
    for backend, workers in BACKENDS:
        profile = PipelineProfile(label=backend)
        telemetry = Telemetry(trace=True)
        results = map_reads(
            aligner,
            reads,
            backend=backend,
            workers=workers,
            chunk_reads=3,
            profile=profile,
            telemetry=telemetry,
        )
        out[backend] = {
            "results": results,
            "counters": telemetry.counters(),
            "histograms": telemetry.histograms(),
            "profile": profile,
            "telemetry": telemetry,
        }
    return out


@pytest.fixture(scope="module")
def streamed(workload, tmp_path_factory):
    """The same reads streamed from a FASTQ file through ``map_file``.

    One read per chunk on two workers makes an 8-read window, so the
    10 reads cross a window boundary.
    """
    aligner, reads = workload
    fq = tmp_path_factory.mktemp("telemetry") / "reads.fq"
    write_fastq(str(fq), reads)
    telemetry = Telemetry()
    out = io.StringIO()
    map_file(
        aligner,
        str(fq),
        out,
        backend="processes",
        workers=2,
        chunk_reads=1,
        telemetry=telemetry,
    )
    return {"paf": out.getvalue(), "counters": telemetry.counters()}


class TestCounterIdentity:
    def test_serial_counters_nonzero(self, runs):
        counters = runs["serial"]["counters"]
        assert counters["dp_cells"] > 0
        assert counters["anchors_seeded"] > 0
        assert counters["chains_built"] > 0
        assert counters["reads_seeded"] == 10

    # Work counters are backend-independent; only the wavefront/dispatch
    # batching telemetry tracks how jobs were pooled (chunk shapes differ
    # per backend), so the comparison drops those prefixes.

    def test_processes_match_serial(self, runs):
        assert drop_shape_dependent(
            runs["processes"]["counters"]
        ) == drop_shape_dependent(runs["serial"]["counters"])

    def test_streaming_match_serial(self, runs, streamed):
        assert drop_shape_dependent(
            streamed["counters"]
        ) == drop_shape_dependent(runs["serial"]["counters"])
        assert streamed["paf"] == "".join(
            to_paf(a) + "\n" for alns in runs["serial"]["results"]
            for a in alns
        )

    def test_results_identical(self, runs):
        assert runs["processes"]["results"] == runs["serial"]["results"]


class TestHistogramIdentity:
    """Worker histogram deltas merge to the same run totals everywhere."""

    DETERMINISTIC = ("read.length", "band.width")

    def test_serial_histograms_nonzero(self, runs, workload):
        _, reads = workload
        hists = runs["serial"]["histograms"]
        assert hists["read.length"]["count"] == len(reads)
        assert hists["band.width"]["count"] > 0
        assert hists["latency.read_s"]["count"] == len(reads)

    def test_deterministic_histograms_identical(self, runs):
        serial = runs["serial"]["histograms"]
        hists = runs["processes"]["histograms"]
        for name in self.DETERMINISTIC:
            # Full summary identity: buckets, exact moments, and the
            # derived p50/p90/p99 all match the serial run.
            assert hists[name] == serial[name], name

    def test_latency_counts_identical(self, runs):
        # Latency *values* are wall-clock; only sample counts carry over.
        serial = runs["serial"]["histograms"]
        hists = runs["processes"]["histograms"]
        for name in (
            "latency.seed_chain_s",
            "latency.align_s",
            "latency.read_s",
        ):
            assert hists[name]["count"] == serial[name]["count"], name

    def test_percentiles_within_envelope(self, runs):
        for backend, _ in BACKENDS:
            h = runs[backend]["histograms"]["read.length"]
            assert h["min"] <= h["p50"] <= h["p90"] <= h["p99"] <= h["max"]

    def test_reads_done_counter_matches(self, runs, workload):
        _, reads = workload
        for backend, _ in BACKENDS:
            assert runs[backend]["counters"]["reads_done"] == len(reads)


class TestStageSeconds:
    def test_mapping_stages_recorded_everywhere(self, runs):
        for backend, _ in BACKENDS:
            profile = runs[backend]["profile"]
            assert profile.seconds("Seed & Chain") > 0.0, backend
            assert profile.seconds("Align") > 0.0, backend

    def test_aggregate_worker_seconds_within_tolerance(self, runs):
        # The processes backend records aggregate worker seconds: the
        # same per-read work, so the total stays within a loose factor
        # of the serial run (it can exceed wall-clock, never vanish).
        serial_align = runs["serial"]["profile"].seconds("Align")
        align = runs["processes"]["profile"].seconds("Align")
        assert serial_align / 20 < align < serial_align * 20


class TestTraceSpans:
    def test_one_span_per_read_every_backend(self, runs, workload):
        _, reads = workload
        names = sorted(r.name for r in reads)
        for backend, _ in BACKENDS:
            spans = runs[backend]["telemetry"].spans
            assert sorted(s["read"] for s in spans) == names, backend

    def test_span_fields(self, runs, workload):
        _, reads = workload
        lengths = {r.name: len(r) for r in reads}
        for span in runs["processes"]["telemetry"].spans:
            assert span["length"] == lengths[span["read"]]
            assert span["worker"].startswith("pid:")
            assert span["chunk"] is not None  # process chunks are tagged
            assert span["spans"]["seed_chain"] >= 0.0
            assert span["spans"]["align"] >= 0.0

    def test_trace_jsonl_round_trips(self, runs, tmp_path):
        from repro.obs.telemetry import iter_trace

        telemetry = runs["processes"]["telemetry"]
        path = tmp_path / "trace.jsonl"
        n = telemetry.write_trace(str(path))
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["record"] == "run"
        assert header["run_id"] == telemetry.run_id
        assert len(lines) - 1 == n == len(telemetry.spans)
        parsed = [json.loads(line) for line in lines[1:]]
        assert parsed == [
            json.loads(json.dumps(s, sort_keys=True)) for s in telemetry.spans
        ]
        # iter_trace skips the header and yields exactly the spans.
        assert list(iter_trace(str(path))) == parsed

    def test_trace_disabled_records_nothing(self, workload):
        aligner, reads = workload
        telemetry = Telemetry(trace=False)
        map_reads(aligner, reads[:2], backend="serial", telemetry=telemetry)
        assert telemetry.spans == []
        telemetry.record(read_span("r", 1, 0.0, 0.0))
        assert telemetry.spans == []


class TestTelemetryScoping:
    def test_counters_scoped_to_construction(self, workload):
        aligner, reads = workload
        map_reads(aligner, reads[:1], backend="serial")  # pre-run noise
        telemetry = Telemetry()
        assert telemetry.counters() == {}
        map_reads(aligner, reads[:2], backend="serial", telemetry=telemetry)
        scoped = telemetry.counters()
        assert scoped["reads_seeded"] == 2

    def test_worker_id_format(self):
        wid = worker_id()
        assert wid.startswith("pid:")
        assert "/" in wid
