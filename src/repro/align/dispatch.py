"""Kernel-dispatch layer: capability registry + cross-read DP batching.

The aligner used to hard-wire one per-pair engine (``ENGINES``) and a
private segment-bucketing loop inside ``core/aligner.py``. This module
replaces both with a small registry of *kernel capabilities* and a
:class:`KernelDispatch` executor that any pipeline stage can hand a flat
list of :class:`DPJob` s:

* **per-pair kernels** (``reference``/``scalar``/``mm2``/``manymap``)
  run each job through one engine call;
* **cross-read batched kernels** (``wavefront``, legacy ``batched``)
  stack many jobs into a single wavefront sweep, amortizing the
  per-anti-diagonal NumPy dispatch cost across reads.

Dispatch groups jobs by ``(mode, path, zdrop)``, buckets them on a
doubling size ladder so one long outlier cannot inflate a whole batch's
padding, splits path-mode batches to a direction-matrix memory budget,
and falls back to the per-pair engine for oversize or otherwise
unbatchable jobs. Because every batched kernel in the registry is
bit-identical to its per-pair fallback, the routing decisions (bucket
composition, fallback, sub-batch splits) can never change results —
only throughput — which is what keeps PAF output byte-identical across
backends and chunk shapes.

Only grouping-dependent telemetry (``dispatch.*``; see
:data:`repro.obs.counters.SHAPE_DEPENDENT_PREFIXES`) varies with how
jobs are pooled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AlignmentError
from ..obs.counters import COUNTERS
from ..obs.events import EVENTS
from ..obs.tracing import TRACER
from .batch_kernel import align_batch
from .diff_scalar import align_diff_scalar
from .dp_reference import align_reference
from .manymap_kernel import align_manymap
from .mm2_kernel import align_mm2
from .result import AlignmentResult
from .scoring import Scoring
from .wavefront_batch import align_wavefront_batch

__all__ = [
    "KernelSpec",
    "DPJob",
    "KernelDispatch",
    "register_kernel",
    "get_kernel",
    "kernel_names",
    "DEFAULT_KERNEL",
]

#: Kernel used when nothing is configured: the cross-read wavefront.
DEFAULT_KERNEL = "wavefront"

#: Doubling size ladder for cross-read buckets (legacy prefix retained
#: so default grouping of small gap segments is unchanged).
_WAVEFRONT_BUCKETS = (24, 48, 96, 192, 384, 768, 1536, 3072, 6144)


@dataclass(frozen=True)
class KernelSpec:
    """Capabilities of one registered kernel.

    ``fn`` is the per-pair engine (also the fallback for unbatchable
    jobs). ``batch_fn``, when set, takes
    ``(targets, queries, scoring, mode, path, zdrop, bands)`` and must
    return per-pair bit-identical results.
    """

    name: str
    fn: Callable[..., AlignmentResult]
    banded: bool = False
    supports_zdrop: bool = True
    batch_fn: Optional[Callable[..., List[AlignmentResult]]] = None
    batch_modes: Tuple[str, ...] = ()
    batch_banded: bool = False
    batch_zdrop: bool = False
    batch_max: int = 0
    batch_buckets: Tuple[int, ...] = ()
    description: str = ""

    @property
    def cross_read(self) -> bool:
        return self.batch_fn is not None


@dataclass(frozen=True)
class DPJob:
    """One base-level DP request (a gap segment or an extension)."""

    target: np.ndarray
    query: np.ndarray
    mode: str = "global"
    path: bool = False
    zdrop: Optional[int] = None
    band: Optional[int] = None

    @property
    def size(self) -> int:
        return max(self.target.size, self.query.size)


def _legacy_batch(targets, queries, scoring, mode, path, zdrop, bands):
    """Adapter: the (global/unbanded) SWIPE batch kernel."""
    if mode != "global" or zdrop is not None or bands is not None:
        raise AlignmentError("legacy batch kernel is global/unbanded only")
    return align_batch(targets, queries, scoring, path=path)


_KERNELS: Dict[str, KernelSpec] = {}


def register_kernel(spec: KernelSpec) -> KernelSpec:
    """Add (or replace) a kernel in the registry."""
    _KERNELS[spec.name] = spec
    return spec


def get_kernel(name: str) -> KernelSpec:
    """Look up a kernel spec by name."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise AlignmentError(
            f"unknown kernel {name!r}; available: {sorted(_KERNELS)}"
        ) from None


def kernel_names() -> List[str]:
    return sorted(_KERNELS)


register_kernel(
    KernelSpec(
        name="reference",
        fn=align_reference,
        banded=False,
        supports_zdrop=False,
        description="Eq. (1) full-matrix oracle (per pair)",
    )
)
register_kernel(
    KernelSpec(
        name="scalar",
        fn=align_diff_scalar,
        banded=False,
        description="Eq. (3) scalar difference loop (per pair)",
    )
)
register_kernel(
    KernelSpec(
        name="mm2",
        fn=align_mm2,
        banded=True,
        description="Eq. (3) anti-diagonal vectors + shift (per pair)",
    )
)
register_kernel(
    KernelSpec(
        name="manymap",
        fn=align_manymap,
        banded=True,
        description="Eq. (4) in-place anti-diagonal vectors (per pair)",
    )
)
register_kernel(
    KernelSpec(
        name="batched",
        fn=align_manymap,
        banded=True,
        batch_fn=_legacy_batch,
        batch_modes=("global",),
        batch_max=192,
        batch_buckets=(24, 48, 96, 192),
        description="SWIPE segment batcher (global gaps), manymap fallback",
    )
)
register_kernel(
    KernelSpec(
        name="wavefront",
        fn=align_manymap,
        banded=True,
        batch_fn=align_wavefront_batch,
        batch_modes=("global", "extend"),
        batch_banded=True,
        batch_zdrop=True,
        batch_max=_WAVEFRONT_BUCKETS[-1],
        batch_buckets=_WAVEFRONT_BUCKETS,
        description="cross-read Eq. (4) wavefront (banded + z-drop)",
    )
)


class KernelDispatch:
    """Executes flat job lists through one kernel spec.

    Parameters
    ----------
    kernel:
        Registry name or a :class:`KernelSpec`.
    scoring:
        Scoring applied to every job.
    batch_max:
        Largest ``max(|T|, |Q|)`` eligible for cross-read batching;
        bigger jobs run per pair. ``None`` uses the kernel default.
    batch_buckets:
        Ascending size-bucket caps. ``None`` uses the kernel default.
    path_mem:
        Byte budget for one batch's direction matrices in path mode: a
        batch of ``k`` lanes allocates ``k * Mmax * Nmax`` bytes (the
        sub-batch's largest target and query); batches are split to
        stay under it.
    lane_max:
        Hard cap on pairs per batched call.
    """

    #: A bucket batches only with at least this many lanes; a lone job
    #: runs on the per-pair engine.  Measured on map-clr's jobs: one
    #: batched lane costs 0.9-1.5x a per-pair call, two cost 0.5-0.8x
    #: their per-pair calls, at every bucket cap from 96 to 1536.
    min_lanes = 2

    def __init__(
        self,
        kernel: str = DEFAULT_KERNEL,
        scoring: Scoring = Scoring(),
        batch_max: Optional[int] = None,
        batch_buckets: Optional[Sequence[int]] = None,
        path_mem: int = 64 << 20,
        lane_max: int = 512,
    ) -> None:
        self.spec = kernel if isinstance(kernel, KernelSpec) else get_kernel(kernel)
        self.scoring = scoring
        self.batch_max = (
            int(batch_max) if batch_max is not None else self.spec.batch_max
        )
        buckets = (
            tuple(batch_buckets)
            if batch_buckets is not None
            else self.spec.batch_buckets
        )
        if any(b <= 0 for b in buckets) or list(buckets) != sorted(buckets):
            raise AlignmentError(
                f"batch_buckets must be positive and ascending, got {buckets!r}"
            )
        self.batch_buckets = tuple(b for b in buckets if b <= self.batch_max)
        self.path_mem = path_mem
        self.lane_max = lane_max

    @property
    def banded(self) -> bool:
        """Whether the per-pair engine (the fallback) supports banding."""
        return self.spec.banded

    # ---------------------------------------------------------------- #

    def run(self, jobs: Sequence[DPJob]) -> List[AlignmentResult]:
        """Execute all jobs; results are positionally aligned to jobs."""
        results: List[Optional[AlignmentResult]] = [None] * len(jobs)
        if not jobs:
            return []
        COUNTERS.inc("dispatch.jobs", len(jobs))
        groups: Dict[Tuple[str, bool, Optional[int]], List[int]] = {}
        for i, job in enumerate(jobs):
            groups.setdefault((job.mode, job.path, job.zdrop), []).append(i)
        for (mode, path, zdrop), idxs in groups.items():
            self._run_group(jobs, idxs, mode, path, zdrop, results)
        return results  # type: ignore[return-value]

    def _run_group(
        self,
        jobs: Sequence[DPJob],
        idxs: List[int],
        mode: str,
        path: bool,
        zdrop: Optional[int],
        results: List[Optional[AlignmentResult]],
    ) -> None:
        spec = self.spec
        batchable = (
            spec.batch_fn is not None
            and mode in spec.batch_modes
            and (zdrop is None or spec.batch_zdrop)
            and bool(self.batch_buckets)
        )
        singles: List[int] = []
        fallback_reasons: Dict[str, int] = {}

        def _fall(i: int, reason: str) -> None:
            singles.append(i)
            fallback_reasons[reason] = fallback_reasons.get(reason, 0) + 1

        buckets: Dict[int, List[int]] = {}
        if batchable:
            cap_max = self.batch_buckets[-1]
            for i in idxs:
                job = jobs[i]
                if job.size > cap_max:
                    _fall(i, "oversize")
                    continue
                if job.band is not None and not spec.batch_banded:
                    _fall(i, "unbatchable_band")
                    continue
                for cap in self.batch_buckets:
                    if job.size <= cap:
                        buckets.setdefault(cap, []).append(i)
                        break
        else:
            for i in idxs:
                _fall(i, "capability")

        for cap in sorted(buckets):
            bidxs = buckets[cap]
            if len(bidxs) < self.min_lanes:
                for i in bidxs:
                    _fall(i, "thin_bucket")
                continue
            n_batches = 0
            with TRACER.span(
                "kernel.bucket",
                kernel=spec.name,
                mode=mode,
                path=path,
                bucket=cap,
            ) as sp:
                cells = 0
                for sub in self._split(jobs, bidxs, path):
                    out = spec.batch_fn(
                        [jobs[i].target for i in sub],
                        [jobs[i].query for i in sub],
                        self.scoring,
                        mode,
                        path,
                        zdrop,
                        self._bands(jobs, sub),
                    )
                    for i, res in zip(sub, out):
                        results[i] = res
                        if sp is not None:
                            cells += res.cells
                    COUNTERS.inc("dispatch.batches")
                    n_batches += 1
                if sp is not None:
                    # Occupancy: how full the padded (cap x lanes) DP
                    # matrix really was with job cells.
                    used = sum(jobs[i].size for i in bidxs)
                    sp.attrs.update(
                        lanes=len(bidxs),
                        batches=n_batches,
                        dp_cells=cells,
                        occupancy_pct=round(
                            100.0 * used / (cap * len(bidxs)), 1
                        ),
                    )
            COUNTERS.inc("dispatch.batched_jobs", len(bidxs))
            EVENTS.emit(
                "dispatch.batch",
                kernel=spec.name,
                mode=mode,
                path=path,
                bucket=cap,
                lanes=len(bidxs),
                batches=n_batches,
            )

        if singles:
            COUNTERS.inc("dispatch.fallback_jobs", len(singles))
            EVENTS.emit(
                "dispatch.fallback",
                kernel=spec.name,
                mode=mode,
                path=path,
                jobs=len(singles),
                reasons=fallback_reasons,
            )
            with TRACER.span(
                "kernel.fallback",
                kernel=spec.name,
                mode=mode,
                jobs=len(singles),
                reasons=fallback_reasons,
            ):
                for i in singles:
                    results[i] = self._run_single(jobs[i])

    def _bands(
        self, jobs: Sequence[DPJob], sub: List[int]
    ) -> Optional[List[Optional[int]]]:
        bands = [jobs[i].band for i in sub]
        return bands if any(b is not None for b in bands) else None

    def _split(
        self, jobs: Sequence[DPJob], bidxs: List[int], path: bool
    ) -> List[List[int]]:
        """Chop a bucket, in order, into memory/lane-bounded sub-batches."""
        subs: List[List[int]] = [[]]
        m_max = n_max = 0
        for i in bidxs:
            m, n = jobs[i].target.size, jobs[i].query.size
            cur = subs[-1]
            grown = (len(cur) + 1) * max(m_max, m) * max(n_max, n)
            if cur and (
                len(cur) >= self.lane_max or (path and grown > self.path_mem)
            ):
                subs.append([])
                m_max = n_max = 0
            subs[-1].append(i)
            m_max, n_max = max(m_max, m), max(n_max, n)
        return subs

    def _run_single(self, job: DPJob) -> AlignmentResult:
        kwargs = {}
        if job.zdrop is not None:
            kwargs["zdrop"] = job.zdrop
        if job.band is not None and self.spec.banded:
            kwargs["band"] = job.band
        return self.spec.fn(
            job.target,
            job.query,
            self.scoring,
            mode=job.mode,
            path=job.path,
            **kwargs,
        )
