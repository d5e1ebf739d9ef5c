"""Tests for the processes backend, backend dispatch, and ParallelDriver."""

import io
import pickle

import pytest

from repro.core.aligner import Aligner, AlignerConfig
from repro.core.alignment import to_paf
from repro.core.driver import ParallelDriver
from repro.errors import ReproError, SchedulerError
from repro.index.store import save_index
from repro.api import map_file, map_reads
from repro.runtime.backends import backend_names
from repro.runtime.streaming import _plan_window, stream_map
from repro.seq.fasta import write_fasta
from repro.sim.lengths import LengthModel
from repro.sim.pbsim import ReadSimulator


@pytest.fixture(scope="module")
def setup(small_genome, tmp_path_factory):
    sim = ReadSimulator.preset(small_genome, "pacbio")
    sim.length_model = LengthModel(mean=550.0, sigma=0.4, max_length=1200)
    reads = list(sim.simulate(8, seed=71))
    aligner = Aligner(small_genome, preset="test")
    index_path = tmp_path_factory.mktemp("idx") / "ref.mmi"
    save_index(aligner.index, index_path)
    return aligner, reads, str(index_path)


def paf_lines(results):
    return [to_paf(a) for alns in results for a in alns]


class PoisonRecord:
    """Read whose sequence access blows up inside the worker only."""

    def __init__(self, name, length):
        self.name = name
        self._length = length

    def __len__(self):
        return self._length

    @property
    def codes(self):
        raise RuntimeError("poisoned codes")


@pytest.fixture(scope="module")
def serial_paf(setup):
    aligner, reads, _ = setup
    return paf_lines(map_reads(aligner, reads, backend="serial"))


class TestBackendEquivalence:
    """Satellite: byte-identical PAF across all backends/worker counts."""

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("longest_first", [True, False])
    def test_identical_paf(self, setup, serial_paf, backend, workers, longest_first):
        if backend == "serial" and workers > 1:
            pytest.skip("serial ignores worker count")
        aligner, reads, index_path = setup
        results = map_reads(
            aligner,
            reads,
            backend=backend,
            workers=workers,
            longest_first=longest_first,
            chunk_reads=3,
            index_path=index_path,
        )
        assert paf_lines(results) == serial_paf

    def test_unknown_backend_raises(self, setup):
        aligner, reads, _ = setup
        with pytest.raises(SchedulerError):
            map_reads(aligner, reads, backend="gpu")
        assert backend_names() == ("serial", "processes")


class TestChunkPlanning:
    """The pipeline's window packer: longest-first, size-bounded chunks."""

    @staticmethod
    def plan(reads, chunk_reads=32, chunk_bases=1_000_000, longest_first=True):
        window = list(enumerate(reads))
        return [
            tuple(i for i, _ in chunk)
            for chunk in _plan_window(
                window, chunk_reads, chunk_bases, longest_first
            )
        ]

    def test_bounds_and_coverage(self, setup):
        _, reads, _ = setup
        chunks = self.plan(reads, chunk_reads=3, chunk_bases=10**9)
        assert all(len(c) <= 3 for c in chunks)
        covered = sorted(i for c in chunks for i in c)
        assert covered == list(range(len(reads)))

    def test_base_bound_splits(self, setup):
        _, reads, _ = setup
        limit = max(len(r) for r in reads)
        chunks = self.plan(reads, chunk_reads=100, chunk_bases=limit)
        # No chunk of 2+ reads may exceed the base budget.
        for c in chunks:
            assert len(c) == 1 or sum(len(reads[i]) for i in c) <= limit

    def test_longest_first_order(self, setup):
        _, reads, _ = setup
        chunks = self.plan(reads, chunk_reads=2, longest_first=True)
        first = [len(reads[c[0]]) for c in chunks]
        assert first == sorted(first, reverse=True)

    def test_oversized_read_gets_own_chunk(self, setup):
        _, reads, _ = setup
        chunks = self.plan(reads, chunk_reads=100, chunk_bases=1)
        assert all(len(c) == 1 for c in chunks)

    def test_bad_bounds_raise(self, setup):
        aligner, reads, _ = setup
        with pytest.raises(SchedulerError):
            stream_map(aligner, iter(reads), chunk_reads=0)
        with pytest.raises(SchedulerError):
            stream_map(aligner, iter(reads), chunk_bases=0)


class TestProcessBackend:
    def test_worker_error_names_read(self, setup):
        aligner, reads, index_path = setup
        bad = PoisonRecord("poison-pill", 500)
        batch = reads[:2] + [bad] + reads[2:4]
        with pytest.raises(SchedulerError, match="poison-pill"):
            map_reads(
                aligner, batch, backend="processes", workers=2,
                chunk_reads=1, index_path=index_path,
            )

    def test_bad_process_count(self, setup):
        aligner, reads, _ = setup
        with pytest.raises(SchedulerError):
            map_reads(aligner, reads, backend="processes", workers=0)

    def test_empty_input(self, setup):
        aligner, _, index_path = setup
        assert map_reads(
            aligner, [], backend="processes", workers=2, index_path=index_path
        ) == []

    def test_without_index_file_serializes_temp(self, setup, serial_paf):
        """index_path=None: the index is serialized once and shared."""
        aligner, reads, _ = setup
        results = map_reads(
            aligner, reads, backend="processes", workers=2, chunk_reads=4
        )
        assert paf_lines(results) == serial_paf

    def test_map_file_builds_one_pool_and_one_index(
        self, setup, serial_paf, tmp_path, monkeypatch
    ):
        """A file of several look-ahead windows runs on one pool and one
        serialized index, not one of each per window."""
        import concurrent.futures
        import tempfile

        aligner, reads, _ = setup
        pools, indexes = [], []
        real_init = concurrent.futures.ProcessPoolExecutor.__init__
        real_mkstemp = tempfile.mkstemp

        def counting_init(self, *args, **kwargs):
            pools.append(1)
            real_init(self, *args, **kwargs)

        def counting_mkstemp(*args, **kwargs):
            if kwargs.get("suffix") == ".mmi":
                indexes.append(1)
            return real_mkstemp(*args, **kwargs)

        monkeypatch.setattr(
            concurrent.futures.ProcessPoolExecutor, "__init__", counting_init
        )
        monkeypatch.setattr(tempfile, "mkstemp", counting_mkstemp)
        # chunk_reads=1 at 2 workers: a window is 1 * 2 * 4 = 8 reads,
        # so 32 reads are 4 windows.
        fa = tmp_path / "reads.fa"
        write_fasta(fa, reads * 4)
        out = io.StringIO()
        stats = map_file(
            aligner, fa, out, backend="processes", workers=2, chunk_reads=1
        )
        assert len(pools) == 1
        assert len(indexes) == 1
        assert stats.n_reads == 32 and stats.n_windows == 4
        assert out.getvalue().splitlines() == serial_paf * 4

    def test_workers_exit_when_parent_is_killed(self, tmp_path):
        """A SIGKILLed run must not leave its pool workers behind."""
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        script = tmp_path / "run.py"
        script.write_text(
            "import multiprocessing, time\n"
            "from repro.core.aligner import Aligner\n"
            "from repro.runtime.streaming import stream_map\n"
            "from repro.seq.genome import GenomeSpec, generate_genome\n"
            "from repro.sim.pbsim import ReadSimulator\n"
            "genome = generate_genome(GenomeSpec(length=20_000), seed=3)\n"
            "reads = list(ReadSimulator.preset(genome, 'pacbio')"
            ".simulate(8, seed=4))\n"
            "def source():\n"
            "    yield from reads\n"
            "    time.sleep(600)\n"
            "def sink(read, alns):\n"
            "    pids = [p.pid for p in multiprocessing.active_children()]\n"
            "    print(*pids, flush=True)\n"
            "stream_map(Aligner(genome, preset='test'), source(), sink,\n"
            "           workers=2, chunk_reads=1)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, str(script)], env=env,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            workers = [int(pid) for pid in proc.stdout.readline().split()]
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(30)
        assert len(workers) == 2

        def alive(pid):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except OSError:
                return False

        deadline = time.monotonic() + 30
        while any(map(alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(alive, workers)), workers

    def test_config_round_trips_by_pickle(self, setup, small_genome):
        aligner, reads, _ = setup
        cfg = pickle.loads(pickle.dumps(aligner.config))
        assert isinstance(cfg, AlignerConfig)
        rebuilt = cfg.build(small_genome, index=aligner.index)
        a = paf_lines([rebuilt.map_read(reads[0])])
        b = paf_lines([aligner.map_read(reads[0])])
        assert a == b


class TestParallelDriver:
    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_run_merges_worker_stage_timers(self, setup, serial_paf, backend):
        aligner, reads, index_path = setup
        driver = ParallelDriver(
            aligner, backend=backend, workers=2, chunk_reads=3,
            index_path=index_path,
        )
        out = io.StringIO()
        results = driver.run(reads, output=out)
        assert out.getvalue().splitlines() == serial_paf
        assert driver.n_mapped(results) >= 6
        assert driver.profile.seconds("Seed & Chain") > 0
        assert driver.profile.seconds("Align") > 0
        assert driver.profile.seconds("Align") > driver.profile.seconds("Seed & Chain")

    def test_from_index_file(self, setup, small_genome, serial_paf):
        _, reads, index_path = setup
        driver = ParallelDriver.from_index_file(
            small_genome, index_path, preset="test",
            backend="processes", workers=2,
        )
        assert driver.profile.seconds("Load Index") > 0
        assert driver.index_path == index_path
        out = io.StringIO()
        driver.run(reads, output=out)
        assert out.getvalue().splitlines() == serial_paf

    def test_unknown_backend_raises(self, setup):
        aligner, _, _ = setup
        with pytest.raises(ReproError):
            ParallelDriver(aligner, backend="quantum")
