"""Tests for batching, affinity, schedulers, pipelines, streams, mmio."""

import numpy as np
import pytest

from repro.errors import SchedulerError
from repro.machine.gpu import GpuModel
from repro.runtime.affinity import COMPACT, OPTIMIZED, SCATTER, assign_threads
from repro.runtime.batch import make_batches, sort_longest_first
from repro.runtime.gpu_streams import KernelTask, MemoryPool, StreamScheduler
from repro.runtime.mmio import load_bytes_buffered, load_bytes_mmap
from repro.runtime.pipeline import PipelineStageCost, simulate_pipeline
from repro.runtime.scheduler import (
    heterogeneous_makespan,
    lpt_makespan,
    simulate_makespan,
    worker_speeds,
)
from repro.seq.records import SeqRecord

KNL_HT = {1: 1.00, 2: 1.12, 3: 1.18, 4: 1.21}


def _reads(lengths):
    return [
        SeqRecord(f"r{i}", np.zeros(n, dtype=np.uint8)) for i, n in enumerate(lengths)
    ]


class TestBatch:
    def test_batches_respect_budget(self):
        batches = make_batches(_reads([300, 300, 300, 300]), batch_bases=600)
        assert [len(b) for b in batches] == [2, 2]

    def test_oversize_read_own_batch(self):
        batches = make_batches(_reads([1000, 10]), batch_bases=500)
        assert len(batches[0]) == 1

    def test_empty(self):
        assert make_batches([], 100) == []

    def test_bad_budget(self):
        with pytest.raises(SchedulerError):
            make_batches([], 0)

    def test_sort_longest_first(self):
        out = sort_longest_first(_reads([10, 500, 200]))
        assert [len(r) for r in out] == [500, 200, 10]


class TestAffinity:
    def test_compact_fills_cores(self):
        counts = assign_threads(COMPACT, 8, cores=64, threads_per_core=4)
        assert counts == {0: 4, 1: 4}

    def test_scatter_spreads(self):
        counts = assign_threads(SCATTER, 8, cores=64, threads_per_core=4)
        assert all(v == 1 for v in counts.values()) and len(counts) == 8

    def test_optimized_reserves_last_core(self):
        counts = assign_threads(OPTIMIZED, 63, cores=64, threads_per_core=4)
        assert 63 not in counts

    def test_optimized_spills_at_full_subscription(self):
        counts = assign_threads(OPTIMIZED, 256, cores=64, threads_per_core=4)
        assert sum(counts.values()) == 256
        assert counts[63] == 4  # reservation given up at saturation

    def test_oversubscription_raises(self):
        with pytest.raises(SchedulerError):
            assign_threads(SCATTER, 300, cores=64, threads_per_core=4)

    def test_bad_topology(self):
        with pytest.raises(SchedulerError):
            assign_threads(SCATTER, 0, cores=64, threads_per_core=4)


class TestScheduler:
    def test_lpt_single_worker_sums(self):
        assert lpt_makespan([1.0, 2.0, 3.0], 1) == 6.0

    def test_lpt_perfect_split(self):
        assert lpt_makespan([3.0, 3.0, 2.0, 2.0, 1.0, 1.0], 2, presorted=True) == 6.0

    def test_longest_first_beats_worst_order(self):
        costs = [8.0] + [1.0] * 8
        bad = lpt_makespan([1.0] * 8 + [8.0], 2)  # big job lands last
        good = lpt_makespan(costs, 2)  # big job first
        assert good < bad

    def test_negative_cost_raises(self):
        with pytest.raises(SchedulerError):
            lpt_makespan([-1.0], 2)

    def test_worker_speeds_scatter_vs_compact(self):
        s_scatter = worker_speeds(8, 64, 4, KNL_HT, SCATTER)
        s_compact = worker_speeds(8, 64, 4, KNL_HT, COMPACT)
        assert sum(s_scatter) > sum(s_compact)  # scatter uses more cores

    def test_heterogeneous_prefers_fast_worker(self):
        # Work splits ~2:1 between a full-speed and a half-speed worker.
        span = heterogeneous_makespan([1.0] * 9, [1.0, 0.5])
        assert span <= 7.0

    def test_simulate_makespan_scales(self):
        costs = [0.01] * 640
        t1 = simulate_makespan(costs, 1, 64, 4, KNL_HT)
        t64 = simulate_makespan(costs, 64, 64, 4, KNL_HT)
        t256 = simulate_makespan(costs, 256, 64, 4, KNL_HT)
        assert t64 < t1 / 50  # near-linear on physical cores
        assert t256 < t64  # hyper-threads still help a bit
        assert t256 > t64 / 2  # ...but far from 4x (the paper's 21%)

    def test_serial_fraction_caps_speedup(self):
        costs = [0.01] * 640
        t1 = simulate_makespan(costs, 1, 64, 4, KNL_HT, serial_seconds=0.5)
        t64 = simulate_makespan(costs, 64, 64, 4, KNL_HT, serial_seconds=0.5)
        assert t1 / t64 < 13  # Amdahl bound with 0.5s serial of ~6.9s


class TestPipeline:
    def test_one_thread_is_serial_sum(self):
        batches = [PipelineStageCost(1, 2, 1)] * 3
        assert simulate_pipeline(batches, threads=1) == 12.0

    def test_three_thread_hides_io(self):
        batches = [PipelineStageCost(1, 4, 1)] * 5
        span3 = simulate_pipeline(batches, threads=3)
        # Compute dominates: total ~= sum(compute) + lead-in + drain.
        assert span3 == pytest.approx(1 + 5 * 4 + 1)

    def test_two_thread_between_one_and_three(self):
        batches = [PipelineStageCost(1, 2, 1)] * 6
        s1 = simulate_pipeline(batches, threads=1)
        s2 = simulate_pipeline(batches, threads=2)
        s3 = simulate_pipeline(batches, threads=3)
        assert s3 <= s2 <= s1

    def test_io_heavy_favors_three_threads(self):
        """§4.4.4: on KNL the I/O is too slow for a 2-thread pipeline."""
        batches = [PipelineStageCost(3, 4, 3)] * 6
        s2 = simulate_pipeline(batches, threads=2)
        s3 = simulate_pipeline(batches, threads=3)
        assert s3 < s2

    def test_empty(self):
        assert simulate_pipeline([], threads=2) == 0.0

    def test_bad_thread_count(self):
        with pytest.raises(SchedulerError):
            simulate_pipeline([], threads=4)

    def test_negative_cost_raises(self):
        with pytest.raises(SchedulerError):
            PipelineStageCost(-1, 0, 0)


class TestStreams:
    def test_memory_limits_concurrency(self):
        sched = StreamScheduler(gpu=GpuModel(), n_streams=128)
        big = KernelTask(duration_s=0.1, mem_bytes=2 * 1024**3)  # 2 GB
        assert sched.effective_concurrency([big]) == 8

    def test_makespan_scales_with_streams(self):
        tasks = [KernelTask(0.01, 1024) for _ in range(64)]
        t1 = StreamScheduler(n_streams=1).makespan(tasks)
        t64 = StreamScheduler(n_streams=64).makespan(tasks)
        assert t64 < t1 / 40

    def test_128_streams_sublinear(self):
        tasks = [KernelTask(0.01, 1024) for _ in range(256)]
        t64 = StreamScheduler(n_streams=64).makespan(tasks)
        t128 = StreamScheduler(n_streams=128).makespan(tasks)
        assert t128 < t64  # still faster
        assert t128 > t64 * 64 / 128  # but not 2x (Figure 7's tail)

    def test_memory_pool_saves_alloc(self):
        tasks = [KernelTask(0.001, 1 << 20) for _ in range(100)]
        pool = MemoryPool(slot_bytes=1 << 21, n_slots=128)
        with_pool = StreamScheduler(n_streams=16, pool=pool).makespan(tasks)
        without = StreamScheduler(n_streams=16, pool=None).makespan(tasks)
        assert pool.hits == 100 and pool.misses == 0
        assert with_pool < without

    def test_bad_task(self):
        with pytest.raises(SchedulerError):
            KernelTask(-0.1, 0)


class TestMmio:
    def test_both_loaders_identical_content(self, tmp_path):
        path = tmp_path / "blob.bin"
        payload = bytes(range(256)) * 1000
        path.write_bytes(payload)
        buf, t_buf = load_bytes_buffered(path)
        mapped, t_map = load_bytes_mmap(path)
        assert (buf == mapped).all()
        assert t_buf >= 0 and t_map >= 0

    def test_mmap_call_is_fast(self, tmp_path):
        path = tmp_path / "big.bin"
        path.write_bytes(b"\0" * (32 << 20))  # 32 MB
        _, t_map = load_bytes_mmap(path)
        assert t_map < 0.05  # mapping is near-instant regardless of size
