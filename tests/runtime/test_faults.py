"""Fault-tolerant runtime acceptance suite (run with ``pytest -m faults``).

The contract under test, on every backend: with ``--on-error skip`` or
``retry``, a run with injected parse errors, a killed process worker,
and a watchdog-tripping slow read completes with success, quarantines
*exactly* the poisoned reads, keeps every unaffected read's PAF
byte-identical to a clean serial run, and reports ``fault.*`` counters
matching the injected fault counts exactly.
"""

from __future__ import annotations

import io
import json

import pytest

from repro import api
from repro.api import MapOptions
from repro.core.aligner import Aligner
from repro.core.alignment import to_paf
from repro.errors import SchedulerError
from repro.obs.counters import COUNTERS, counter_delta
from repro.obs.telemetry import Telemetry
from repro.runtime.faults import FaultPolicy, FaultRecord, write_quarantine
from repro.seq.fasta import write_fastq
from repro.sim.lengths import LengthModel
from repro.sim.pbsim import ReadSimulator
from repro.testing.faults import FaultInjector, FaultSpec, load_faults

pytestmark = pytest.mark.faults

#: Watchdog deadline for the cases meant to trip it on the slow read
#: only. The worst clean seed-and-chain of these reads, the first read in
#: a fresh pool worker included, measured 6.9 ms under a concurrent test
#: load and 19.7 ms in an earlier loop of 1500 calls (2-core x86 box); the
#: deadline is 5x the latter, and the injected slow read sleeps 4x it.
READ_TIMEOUT = 0.1
SLOW_DELAY = 4 * READ_TIMEOUT


@pytest.fixture(scope="module")
def setup(small_genome, tmp_path_factory):
    from repro.index.store import save_index

    sim = ReadSimulator.preset(small_genome, "pacbio")
    sim.length_model = LengthModel(mean=500.0, sigma=0.4, max_length=1000)
    reads = list(sim.simulate(10, seed=21))
    aligner = Aligner(small_genome, preset="test")
    idx = tmp_path_factory.mktemp("faults") / "ref.mmi"
    save_index(aligner.index, idx)
    return aligner, reads, str(idx)


@pytest.fixture(scope="module")
def clean_serial(setup):
    aligner, reads, _ = setup
    return api.map_reads(aligner, reads)


def fault_deltas(fn):
    """Run ``fn`` and return its ``fault.*`` counter delta."""
    before = COUNTERS.totals()
    out = fn()
    delta = counter_delta(COUNTERS.totals(), before)
    return out, {k: v for k, v in delta.items() if k.startswith("fault.")}


def injector(reads, *, crash=False):
    """parse fault on reads[2], flaky on reads[5], slow on reads[7],
    plus (optionally) a worker-killing crash on reads[3]."""
    specs = [
        FaultSpec(read=reads[2].name, kind="parse"),
        FaultSpec(read=reads[5].name, kind="flaky"),
        FaultSpec(read=reads[7].name, kind="slow", delay_s=SLOW_DELAY),
    ]
    if crash:
        specs.append(FaultSpec(read=reads[3].name, kind="crash"))
    return FaultInjector.from_specs(specs)


class TestFaultPolicy:
    def test_defaults_are_fail_fast(self):
        pol = FaultPolicy()
        assert pol.on_error == "abort" and not pol.recovers
        assert pol.validated() is pol

    @pytest.mark.parametrize(
        "bad",
        [
            dict(on_error="explode"),
            dict(on_timeout="panic"),
            dict(max_retries=-1),
            dict(max_respawns=-1),
            dict(read_timeout=0.0),
        ],
    )
    def test_validated_rejects(self, bad):
        with pytest.raises(SchedulerError):
            FaultPolicy(**bad).validated()

    def test_map_options_carries_policy(self):
        pol = FaultPolicy(on_error="skip")
        opts = MapOptions(fault_policy=pol).validated()
        assert opts.fault_policy is pol
        with pytest.raises(SchedulerError):
            MapOptions(
                fault_policy=FaultPolicy(on_error="nope")
            ).validated()


class TestInjector:
    def test_bad_kind_rejected(self):
        with pytest.raises(SchedulerError, match="fault kind"):
            FaultInjector.from_specs([FaultSpec(read="r", kind="meteor")])

    def test_flaky_fails_then_succeeds(self):
        inj = FaultInjector.from_specs([FaultSpec(read="r", kind="flaky")])
        with pytest.raises(RuntimeError):
            inj.on_map("r", 1)
        inj.on_map("r", 2)  # recovered
        inj.on_map("other", 1)  # untargeted reads untouched

    def test_parse_fails_every_attempt(self):
        from repro.errors import ParseError

        inj = FaultInjector.from_specs([FaultSpec(read="r", kind="parse")])
        for attempt in (1, 2, 5):
            with pytest.raises(ParseError):
                inj.on_map("r", attempt)

    def test_crash_outside_pool_worker_degrades(self, monkeypatch):
        from repro.testing.faults import POOL_WORKER_ENV

        monkeypatch.delenv(POOL_WORKER_ENV, raising=False)
        inj = FaultInjector.from_specs([FaultSpec(read="r", kind="crash")])
        with pytest.raises(RuntimeError, match="injected crash"):
            inj.on_map("r", 1)

    def test_load_faults_roundtrip(self, tmp_path):
        spec = tmp_path / "faults.json"
        spec.write_text(
            json.dumps(
                [
                    {"read": "a", "kind": "parse"},
                    {"read": "b", "kind": "slow", "delay_s": 0.2},
                ]
            )
        )
        inj = load_faults(str(spec))
        assert inj.spec_for("a").kind == "parse"
        assert inj.spec_for("b").delay_s == 0.2
        assert inj.spec_for("zzz") is None

    @pytest.mark.parametrize(
        "body", ['{"read": "a"}', '[{"kind": "parse"}]']
    )
    def test_load_faults_bad_file(self, tmp_path, body):
        spec = tmp_path / "faults.json"
        spec.write_text(body)
        with pytest.raises(SchedulerError):
            load_faults(str(spec))


class TestAbortMatchesLegacy:
    """on_error='abort' keeps the pre-fault fail-fast contract."""

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_injected_error_aborts_run(self, setup, backend):
        aligner, reads, _ = setup
        pol = FaultPolicy(on_error="abort", injector=injector(reads))
        # Scheduling order decides which injected fault fires first, and
        # serial propagates the raw error while the parallel backends
        # wrap it — but abort always fails fast naming an injected read.
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="injected"):
            api.map_reads(
                aligner,
                reads,
                backend=backend,
                workers=2,
                chunk_reads=3,
                fault_policy=pol,
            )


class TestCrossBackendRecovery:
    """The acceptance run: injected faults, exact quarantine set, exact
    counters, byte-identical PAF for every unaffected read."""

    def check(
        self, setup, clean_serial, backend, crash=False, reads_path=None,
        chunk_reads=3,
    ):
        """Map through ``map_reads``, or through ``map_file`` when
        ``reads_path`` is given; either way ``results[i]`` is read i's
        PAF lines."""
        aligner, reads, idx = setup
        pol = FaultPolicy(
            on_error="retry",
            max_retries=2,
            read_timeout=READ_TIMEOUT,
            on_timeout="fallback",
            injector=injector(reads, crash=crash),
        )
        telemetry = Telemetry()
        kw = dict(
            backend=backend,
            workers=2,
            chunk_reads=chunk_reads,
            index_path=idx,
            fault_policy=pol,
            telemetry=telemetry,
        )

        def run():
            if reads_path is None:
                return [
                    [to_paf(a) for a in alns]
                    for alns in api.map_reads(aligner, reads, **kw)
                ]
            out = io.StringIO()
            api.map_file(aligner, reads_path, out, **kw)
            by_read = {r.name: [] for r in reads}
            for line in out.getvalue().splitlines():
                by_read[line.split("\t", 1)[0]].append(line)
            return [by_read[r.name] for r in reads]

        results, deltas = fault_deltas(run)
        quarantined = {reads[2].name} | ({reads[3].name} if crash else set())
        affected = quarantined | {reads[7].name}  # fallback read differs
        # Quarantined reads produce no PAF lines at all.
        for i, read in enumerate(reads):
            if read.name in quarantined:
                assert results[i] == [], read.name
            elif read.name not in affected:
                assert results[i] == [
                    to_paf(a) for a in clean_serial[i]
                ], read.name
        # The watchdog fallback still maps its read (degraded pass).
        assert results[7], "fallback read should still align"
        # Exact counter accounting for the injected faults:
        #   parse read: 2 retries then quarantine; flaky read: 1 retry.
        assert deltas["fault.retries"] == 3
        assert deltas["fault.skips"] == 1
        assert deltas["fault.fallbacks"] == 1
        assert deltas["fault.quarantined"] == len(quarantined)
        if crash:
            assert deltas["fault.respawns"] >= 1
        else:
            assert "fault.respawns" not in deltas
        # Structured records surfaced through telemetry.
        assert {
            f.read for f in telemetry.faults if f.action == "quarantined"
        } == quarantined
        assert {
            f.read for f in telemetry.faults if f.action == "fallback"
        } == {reads[7].name}
        return telemetry

    def test_serial(self, setup, clean_serial):
        self.check(setup, clean_serial, "serial")

    def test_processes_with_worker_crash(self, setup, clean_serial):
        self.check(setup, clean_serial, "processes", crash=True)

    def test_streaming_processes_with_worker_crash(
        self, setup, clean_serial, tmp_path
    ):
        """The same faults with the reads streamed from a FASTQ file:
        one read per chunk makes a window of 8 reads (1 x 2 workers x
        4), so the 10 reads cross a window boundary while a worker
        dies and is respawned."""
        _, reads, _ = setup
        fq = tmp_path / "reads.fq"
        write_fastq(str(fq), reads)
        self.check(
            setup,
            clean_serial,
            "processes",
            crash=True,
            reads_path=str(fq),
            chunk_reads=1,
        )

    def test_skip_policy_no_retries(self, setup, clean_serial):
        aligner, reads, _ = setup
        pol = FaultPolicy(on_error="skip", injector=injector(reads))
        results, deltas = fault_deltas(
            lambda: api.map_reads(aligner, reads, fault_policy=pol)
        )
        # skip quarantines first-failure reads: parse AND flaky.
        assert results[2] == [] and results[5] == []
        assert deltas.get("fault.retries", 0) == 0
        assert deltas["fault.quarantined"] == 2


class TestWatchdog:
    def test_fallback_downgrades_slow_read(self, setup):
        aligner, reads, _ = setup
        pol = FaultPolicy(
            on_error="skip",
            read_timeout=READ_TIMEOUT,
            on_timeout="fallback",
            injector=FaultInjector.from_specs(
                [FaultSpec(read=reads[0].name, kind="slow", delay_s=SLOW_DELAY)]
            ),
        )
        telemetry = Telemetry()
        results, deltas = fault_deltas(
            lambda: api.map_reads(
                aligner, reads, fault_policy=pol, telemetry=telemetry
            )
        )
        assert deltas == {"fault.fallbacks": 1}
        [fault] = telemetry.faults
        assert fault.kind == "timeout" and fault.action == "fallback"
        assert fault.read == reads[0].name
        assert results[0], "fallback still aligns the read"

    def test_skip_quarantines_slow_read(self, setup):
        aligner, reads, _ = setup
        pol = FaultPolicy(
            on_error="skip",
            read_timeout=READ_TIMEOUT,
            on_timeout="skip",
            injector=FaultInjector.from_specs(
                [FaultSpec(read=reads[0].name, kind="slow", delay_s=SLOW_DELAY)]
            ),
        )
        telemetry = Telemetry()
        results, deltas = fault_deltas(
            lambda: api.map_reads(
                aligner, reads, fault_policy=pol, telemetry=telemetry
            )
        )
        assert deltas == {"fault.quarantined": 1}
        assert results[0] == []
        [fault] = telemetry.faults
        assert fault.kind == "timeout" and fault.action == "quarantined"

    def test_no_timeout_no_overhead_counters(self, setup):
        aligner, reads, _ = setup
        pol = FaultPolicy(on_error="retry", read_timeout=30.0)
        _, deltas = fault_deltas(
            lambda: api.map_reads(aligner, reads, fault_policy=pol)
        )
        assert deltas == {}


class TestQuarantineSidecar:
    def test_sidecar_files_written(self, setup, tmp_path):
        from repro.seq.fasta import read_fastq

        aligner, reads, _ = setup
        sidecar = tmp_path / "failed.fastq"
        pol = FaultPolicy(
            on_error="retry",
            max_retries=1,
            failed_reads=str(sidecar),
            injector=injector(reads),
        )
        api.map_reads(aligner, reads, fault_policy=pol)
        back = read_fastq(sidecar)
        assert [r.name for r in back] == [reads[2].name]
        assert back[0].seq == reads[2].seq
        reasons = [
            json.loads(line)
            for line in (
                tmp_path / "failed.fastq.reasons.jsonl"
            ).read_text().splitlines()
        ]
        assert {r["read"] for r in reasons} == {reads[2].name}
        assert all(
            r["action"] == "quarantined" and r["attempts"] == 2
            for r in reasons
        )

    def test_sidecar_empty_on_clean_run(self, setup, tmp_path):
        aligner, reads, _ = setup
        sidecar = tmp_path / "failed.fastq"
        pol = FaultPolicy(on_error="skip", failed_reads=str(sidecar))
        api.map_reads(aligner, reads, fault_policy=pol)
        assert sidecar.read_text() == ""
        assert (tmp_path / "failed.fastq.reasons.jsonl").read_text() == ""

    def test_write_quarantine_counts(self, tmp_path):
        from repro.seq.records import SeqRecord

        rec = SeqRecord.from_str("q1", "ACGT")
        faults = [
            FaultRecord("q1", "error", "boom", 3, "quarantined", record=rec),
            FaultRecord("f1", "timeout", "slow", 1, "fallback"),
        ]
        path = tmp_path / "side.fastq"
        assert write_quarantine(str(path), faults) == 1
        assert "@q1" in path.read_text()
        lines = (tmp_path / "side.fastq.reasons.jsonl").read_text().splitlines()
        assert len(lines) == 2  # fallbacks logged too


class TestManifestAndReport:
    def test_metrics_manifest_has_faults(self, setup, tmp_path):
        import json as _json

        from repro.core.driver import ParallelDriver
        from repro.obs.schema import validate

        aligner, reads, _ = setup
        driver = ParallelDriver(
            aligner,
            backend="serial",
            workers=1,
            fault_policy=FaultPolicy(
                on_error="skip", injector=injector(reads)
            ),
        )
        driver.run(reads)
        manifest = driver.metrics()
        assert manifest["schema_version"] == 9
        assert manifest["config"]["on_error"] == "skip"
        faults = manifest["faults"]
        assert faults["n_faults"] == len(faults["quarantined"]) + len(
            faults["fallbacks"]
        ) >= 1
        from pathlib import Path

        schema = _json.loads(
            (
                Path(__file__).parents[2] / "benchmarks" / "metrics_schema.json"
            ).read_text()
        )
        assert validate(manifest, schema) == []

    def test_report_renders_fault_lines(self, setup):
        from repro.core.driver import ParallelDriver
        from repro.obs.report import render_metrics

        aligner, reads, _ = setup
        driver = ParallelDriver(
            aligner,
            backend="serial",
            workers=1,
            fault_policy=FaultPolicy(
                on_error="skip", injector=injector(reads)
            ),
        )
        driver.run(reads)
        text = render_metrics([driver.metrics()])
        assert "Faults (" in text
        assert reads[2].name in text


class TestCLI:
    def test_chaos_run_exits_zero_and_quarantines(self, setup, tmp_path):
        from repro.cli import main
        from repro.seq.fasta import read_fastq, write_fasta, write_fastq

        _, reads, _ = setup
        ref = tmp_path / "ref.fa"
        from repro.seq.records import SeqRecord

        # Reference = the genome the fixture reads came from.
        genome = setup[0].genome
        write_fasta(ref, list(genome))
        rq = tmp_path / "reads.fq"
        write_fastq(rq, reads)
        spec = tmp_path / "faults.json"
        spec.write_text(
            json.dumps(
                [
                    {"read": reads[2].name, "kind": "parse"},
                    {"read": reads[5].name, "kind": "flaky"},
                ]
            )
        )
        out = tmp_path / "out.paf"
        sidecar = tmp_path / "failed.fastq"
        metrics = tmp_path / "metrics.json"
        rc = main(
            [
                "map",
                str(ref),
                str(rq),
                "-o",
                str(out),
                "--preset",
                "test",
                "--on-error",
                "retry",
                "--max-retries",
                "1",
                "--inject-faults",
                str(spec),
                "--failed-reads",
                str(sidecar),
                "--metrics",
                str(metrics),
            ]
        )
        assert rc == 0
        assert [r.name for r in read_fastq(sidecar)] == [reads[2].name]
        manifest = json.loads(metrics.read_text())
        assert manifest["faults"]["n_faults"] == 1
        assert manifest["config"]["on_error"] == "retry"
        # The flaky read recovered: its lines are in the PAF output.
        assert reads[2].name not in out.read_text()

    def test_bad_on_error_flag_rejected(self, tmp_path):
        from repro.cli import main

        rc = main(
            [
                "map",
                "nope.fa",
                "nope.fq",
                "--on-error",
                "retry",
                "--max-retries",
                "-2",
            ]
        )
        assert rc == 2
