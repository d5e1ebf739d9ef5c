"""Cross-module integration tests: full pipelines, CLI, file round trips."""

import io
import subprocess
import sys

import numpy as np
import pytest

from repro import (
    Aligner,
    BatchDriver,
    GenomeSpec,
    build_index,
    evaluate_accuracy,
    generate_genome,
    load_index,
    save_index,
    simulate_reads,
)
from repro.core.alignment import to_paf
from repro.runtime.streaming import stream_map
from repro.seq.fasta import read_fasta, write_fasta, write_fastq
from repro.sim.lengths import LengthModel
from repro.sim.pbsim import ReadSimulator


class TestFullPipeline:
    def test_simulate_index_align_evaluate(self, small_genome):
        sim = ReadSimulator.preset(small_genome, "pacbio")
        sim.length_model = LengthModel(mean=1000.0, sigma=0.3, max_length=2000)
        reads = sim.simulate(8, seed=31)
        aligner = Aligner(small_genome, preset="test")
        results = [aligner.map_read(r, with_cigar=False) for r in reads]
        report = evaluate_accuracy(list(reads), results)
        assert report.sensitivity >= 0.75
        assert report.error_rate <= 0.25

    def test_index_file_roundtrip_same_alignments(self, small_genome, tmp_path):
        from repro.core.presets import get_preset

        preset = get_preset("test")
        idx = build_index(small_genome, k=preset.k, w=preset.w)
        path = tmp_path / "x.mmi"
        save_index(idx, path)
        codes = small_genome.fetch("chr1", 7000, 8200)
        from repro.seq.records import SeqRecord

        read = SeqRecord("q", codes.copy())
        direct = Aligner(small_genome, preset="test", index=idx).map_read(read)
        for mode in ("buffered", "mmap"):
            loaded = load_index(path, mode=mode)
            loaded_alns = Aligner(
                small_genome, preset="test", index=loaded
            ).map_read(read)
            assert [(a.tstart, a.tend, a.score) for a in loaded_alns] == [
                (a.tstart, a.tend, a.score) for a in direct
            ]

    def test_stream_pipeline_matches_serial(self, small_genome):
        sim = ReadSimulator.preset(small_genome, "pacbio")
        sim.length_model = LengthModel(mean=700.0, sigma=0.2, max_length=1200)
        reads = sim.simulate(6, seed=33)
        aligner = Aligner(small_genome, preset="test")
        serial = [to_paf(a) for r in reads for a in aligner.map_read(r, with_cigar=False)]
        collected = []
        stats = stream_map(
            aligner,
            iter(reads),
            lambda read, alns: collected.extend(to_paf(a) for a in alns),
            workers=2,
            chunk_reads=2,
            with_cigar=False,
        )
        assert stats.n_reads == len(reads)
        assert collected == serial

    def test_fasta_roundtrip_through_disk(self, small_genome, tmp_path):
        ref = tmp_path / "g.fa"
        write_fasta(ref, small_genome.chromosomes)
        back = read_fasta(ref)
        assert (back[0].codes == small_genome.chromosomes[0].codes).all()


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *args],
            capture_output=True, text=True, timeout=600,
        )

    def test_version(self):
        out = self._run("--version")
        assert out.returncode == 0
        assert "manymap" in out.stdout

    def test_simulate_index_map(self, tmp_path):
        ref = tmp_path / "ref.fa"
        reads = tmp_path / "reads.fq"
        out = self._run(
            "simulate", "--genome-length", "40000", "--n-reads", "4",
            "--seed", "1", "--reference-out", str(ref), "--reads-out", str(reads),
        )
        assert out.returncode == 0 and ref.exists() and reads.exists()

        mmi = tmp_path / "ref.mmi"
        out = self._run("index", str(ref), "-o", str(mmi), "-k", "13", "-w", "5")
        assert out.returncode == 0 and mmi.exists()

        out = self._run("map", str(ref), str(reads), "-x", "test", "--no-cigar")
        assert out.returncode == 0
        lines = [l for l in out.stdout.splitlines() if l.strip()]
        assert len(lines) >= 3  # most reads map
        assert all(len(l.split("\t")) >= 12 for l in lines)

    def test_map_sam_output(self, tmp_path):
        ref = tmp_path / "ref.fa"
        reads = tmp_path / "reads.fq"
        self._run(
            "simulate", "--genome-length", "30000", "--n-reads", "2",
            "--seed", "2", "--reference-out", str(ref), "--reads-out", str(reads),
        )
        out = self._run("map", str(ref), str(reads), "-x", "test", "--sam")
        assert out.returncode == 0
        assert out.stdout.startswith("@HD")
        assert "@SQ" in out.stdout

    def test_unknown_subcommand_fails(self):
        out = self._run("fly")
        assert out.returncode != 0


class TestDeterminism:
    def test_pipeline_fully_deterministic(self, small_genome):
        reads = simulate_reads(small_genome, 5, seed=40)
        a1 = Aligner(small_genome, preset="test")
        a2 = Aligner(small_genome, preset="test")
        for r in reads:
            p1 = [to_paf(a) for a in a1.map_read(r)]
            p2 = [to_paf(a) for a in a2.map_read(r)]
            assert p1 == p2


class TestCliExtras:
    def _run(self, *args):
        import subprocess, sys

        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *args],
            capture_output=True, text=True, timeout=600,
        )

    def test_bench_fig_tables(self):
        for fig in ("fig5", "fig6", "fig7", "fig8", "table3"):
            out = self._run("bench", fig)
            assert out.returncode == 0
            assert "model" in out.stdout.lower() or "Figure" in out.stdout or "Table" in out.stdout

    def test_bench_list(self):
        out = self._run("bench", "list")
        assert out.returncode == 0 and "fig5" in out.stdout

    def test_bench_unknown(self):
        assert self._run("bench", "fig99").returncode == 1

    def test_map_processes(self, tmp_path):
        ref = tmp_path / "ref.fa"
        reads = tmp_path / "reads.fq"
        self._run(
            "simulate", "--genome-length", "30000", "--n-reads", "4",
            "--seed", "3", "--reference-out", str(ref), "--reads-out", str(reads),
        )
        serial = self._run("map", str(ref), str(reads), "-x", "test", "--no-cigar")
        parallel = self._run(
            "map", str(ref), str(reads), "-x", "test", "--no-cigar", "-p", "3"
        )
        assert parallel.returncode == 0
        assert parallel.stdout == serial.stdout

    def test_stats_subcommand(self, tmp_path):
        ref = tmp_path / "ref.fa"
        self._run(
            "simulate", "--genome-length", "30000",
            "--seed", "4", "--reference-out", str(ref),
        )
        mmi = tmp_path / "ref.mmi"
        self._run("index", str(ref), "-o", str(mmi))
        out = self._run("stats", str(mmi))
        assert out.returncode == 0
        assert "minimizers" in out.stdout
        assert "file size" in out.stdout
