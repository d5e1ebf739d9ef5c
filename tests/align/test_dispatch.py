"""Kernel-dispatch layer: registry, bucketing, fallback, batch splits.

Routing decisions (bucket composition, min-lane fallback, path-memory
splits) may only change *throughput telemetry*, never results — every
test here pins results against per-pair :func:`align_manymap` while
checking the ``dispatch.*`` counters that describe the routing.
"""

import dataclasses

import numpy as np
import pytest

from repro.align import AlignmentResult, Scoring, align_manymap
from repro.align.dispatch import (
    DEFAULT_KERNEL,
    DPJob,
    KernelDispatch,
    get_kernel,
    kernel_names,
)
from repro.errors import AlignmentError
from repro.obs.counters import COUNTERS, counter_delta
from repro.obs.tracing import TRACER
from repro.seq.alphabet import random_codes

SC = Scoring(match=2, mismatch=4, q=4, e=2)


def jobs_of(sizes, mode="global", path=False, zdrop=None, band=None):
    return [
        DPJob(
            target=random_codes(s, seed=2 * i),
            query=random_codes(max(1, s - 3), seed=2 * i + 1),
            mode=mode,
            path=path,
            zdrop=zdrop,
            band=band,
        )
        for i, s in enumerate(sizes)
    ]


def run_counted(dispatch, jobs):
    before = COUNTERS.totals()
    results = dispatch.run(jobs)
    return results, counter_delta(COUNTERS.totals(), before)


def assert_per_pair(results, jobs):
    for job, got in zip(jobs, results):
        kwargs = {}
        if job.zdrop is not None:
            kwargs["zdrop"] = job.zdrop
        if job.band is not None:
            kwargs["band"] = job.band
        want = align_manymap(
            job.target, job.query, SC, mode=job.mode, path=job.path, **kwargs
        )
        assert got.score == want.score
        assert (got.end_t, got.end_q) == (want.end_t, want.end_q)
        assert str(got.cigar) == str(want.cigar)


class TestRegistry:
    def test_known_kernels(self):
        assert set(kernel_names()) >= {
            "reference",
            "scalar",
            "mm2",
            "manymap",
            "batched",
            "wavefront",
        }
        assert DEFAULT_KERNEL in kernel_names()

    def test_unknown_kernel(self):
        with pytest.raises(AlignmentError, match="unknown kernel"):
            get_kernel("turbo")

    def test_capabilities(self):
        wf = get_kernel("wavefront")
        assert wf.cross_read and wf.batch_banded and wf.batch_zdrop
        assert set(wf.batch_modes) == {"global", "extend"}
        for name in ("reference", "scalar", "mm2", "manymap"):
            assert not get_kernel(name).cross_read, name
        legacy = get_kernel("batched")
        assert legacy.cross_read
        assert not (legacy.batch_banded or legacy.batch_zdrop)

    def test_invalid_buckets_rejected(self):
        with pytest.raises(AlignmentError, match="batch_buckets"):
            KernelDispatch("wavefront", SC, batch_buckets=(48, 24))
        with pytest.raises(AlignmentError, match="batch_buckets"):
            KernelDispatch("wavefront", SC, batch_buckets=(0, 24))


class TestRouting:
    def test_empty(self):
        assert KernelDispatch("wavefront", SC).run([]) == []

    def test_batches_when_lanes_suffice(self):
        jobs = jobs_of([20] * 8)
        results, delta = run_counted(KernelDispatch("wavefront", SC), jobs)
        assert_per_pair(results, jobs)
        assert delta["dispatch.jobs"] == 8
        assert delta["dispatch.batched_jobs"] == 8
        assert "dispatch.fallback_jobs" not in delta

    def test_min_lane_rule_falls_back(self):
        # A lone job in its bucket (fewer than min_lanes) runs per pair;
        # min_lanes jobs batch, whatever the bucket's size cap.
        assert KernelDispatch.min_lanes == 2
        jobs = jobs_of([300])
        results, delta = run_counted(KernelDispatch("wavefront", SC), jobs)
        assert_per_pair(results, jobs)
        assert delta["dispatch.fallback_jobs"] == 1
        assert "dispatch.batches" not in delta
        jobs = jobs_of([300] * KernelDispatch.min_lanes)
        results, delta = run_counted(KernelDispatch("wavefront", SC), jobs)
        assert_per_pair(results, jobs)
        assert delta["dispatch.batches"] == 1
        assert "dispatch.fallback_jobs" not in delta

    def test_oversize_jobs_fall_back(self):
        dispatch = KernelDispatch("wavefront", SC, batch_max=96)
        jobs = jobs_of([20] * 4 + [500] * 2)
        results, delta = run_counted(dispatch, jobs)
        assert_per_pair(results, jobs)
        assert delta["dispatch.batched_jobs"] == 4
        assert delta["dispatch.fallback_jobs"] == 2

    def test_batch_max_zero_disables_batching(self):
        dispatch = KernelDispatch("wavefront", SC, batch_max=0)
        jobs = jobs_of([20] * 6)
        results, delta = run_counted(dispatch, jobs)
        assert_per_pair(results, jobs)
        assert delta["dispatch.fallback_jobs"] == 6
        assert "dispatch.batches" not in delta

    def test_per_pair_kernel_never_batches(self):
        jobs = jobs_of([20] * 6)
        results, delta = run_counted(KernelDispatch("manymap", SC), jobs)
        assert_per_pair(results, jobs)
        assert delta["dispatch.fallback_jobs"] == 6

    def test_mixed_modes_grouped_separately(self):
        jobs = (
            jobs_of([30] * 4, mode="global")
            + jobs_of([30] * 4, mode="extend")
            + jobs_of([30] * 4, mode="extend", zdrop=100)
        )
        results, delta = run_counted(KernelDispatch("wavefront", SC), jobs)
        assert_per_pair(results, jobs)
        assert delta["dispatch.batches"] == 3
        assert delta["dispatch.batched_jobs"] == 12

    def test_banded_jobs_batch_on_wavefront(self):
        jobs = jobs_of([60] * 5, mode="extend", band=8)
        results, delta = run_counted(KernelDispatch("wavefront", SC), jobs)
        assert_per_pair(results, jobs)
        assert delta["dispatch.batched_jobs"] == 5

    def test_legacy_batched_kernel_rejects_banded_batches(self):
        # 'batched' cannot stack banded jobs; they must fall back.
        jobs = jobs_of([30] * 5, band=8)
        results, delta = run_counted(KernelDispatch("batched", SC), jobs)
        assert_per_pair(results, jobs)
        assert delta["dispatch.fallback_jobs"] == 5

    def test_path_mem_splits_batches(self):
        jobs = jobs_of([90] * 6, path=True)
        # Budget for one 96x96 direction matrix per batch -> 6 batches.
        tight = KernelDispatch("wavefront", SC, path_mem=96 * 96)
        results, delta = run_counted(tight, jobs)
        assert_per_pair(results, jobs)
        assert delta["dispatch.batches"] == 6
        roomy = KernelDispatch("wavefront", SC)
        _, delta = run_counted(roomy, jobs)
        assert delta["dispatch.batches"] == 1

    def test_path_mem_budgets_kernel_allocation(self):
        # The kernel allocates Mmax x Nmax direction bytes per lane, not
        # cap x cap: 119 extend jobs of up to 722 x 222 in bucket 768
        # fit the default budget as one batch.
        lanes = []

        def batch_fn(targets, queries, *rest):
            lanes.append(len(targets))
            return [AlignmentResult(score=0, end_t=0, end_q=0) for _ in targets]

        spec = dataclasses.replace(get_kernel("wavefront"), batch_fn=batch_fn)
        jobs = [
            DPJob(
                target=np.zeros(722 - i % 7, dtype=np.uint8),
                query=np.zeros(222 - i % 5, dtype=np.uint8),
                mode="extend",
                path=True,
                zdrop=400,
                band=500,
            )
            for i in range(119)
        ]
        KernelDispatch(spec, SC).run(jobs)
        assert lanes == [119]
        lanes.clear()
        KernelDispatch(spec, SC, path_mem=119 * 722 * 222 - 1).run(jobs)
        assert lanes == [118, 1]

    def test_lane_max_splits_batches(self):
        jobs = jobs_of([20] * 9)
        dispatch = KernelDispatch("wavefront", SC, lane_max=4)
        results, delta = run_counted(dispatch, jobs)
        assert_per_pair(results, jobs)
        assert delta["dispatch.batches"] == 3  # 4 + 4 + 1 lanes

    def test_results_positionally_aligned(self):
        sizes = [20, 5000, 25, 30, 7000, 40]
        jobs = jobs_of(sizes, mode="extend")
        results, _ = run_counted(KernelDispatch("wavefront", SC), jobs)
        assert_per_pair(results, jobs)  # mixed batched/fallback ordering


class TestFallbackSpan:
    def test_fallback_span_carries_reasons(self):
        # A lone 40-base job (thin bucket) and a 200-base one (over
        # batch_max) fall back; the span names why, like the event.
        dispatch = KernelDispatch("wavefront", SC, batch_max=96)
        jobs = jobs_of([20, 20, 40, 200])
        TRACER.enable()
        try:
            with TRACER.capture() as box:
                results = dispatch.run(jobs)
        finally:
            TRACER.disable()
        assert_per_pair(results, jobs)
        (span,) = [s for s in box.spans if s["name"] == "kernel.fallback"]
        assert span["attrs"]["jobs"] == 2
        assert span["attrs"]["reasons"] == {"thin_bucket": 1, "oversize": 1}
