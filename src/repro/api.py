"""The stable public mapping API: sessions, requests, and results.

Everything a library consumer needs sits behind one session object,
two convenience calls, and a handful of value objects::

    import repro

    # open the index once, map many times (what `repro serve` holds
    # resident across requests):
    with repro.MappingSession.open("ref.fa", "ref.mmi") as session:
        results = session.map_reads(reads)
        stats = session.map_file("reads.fq.gz", out)
        result = session.map_request(repro.MapRequest.make(reads))

    # the classic one-shot facade — now thin clients of the same
    # session object:
    aligner = repro.open_index("ref.fa", "ref.mmi")
    opts = repro.MapOptions(backend="processes", workers=4)
    results = repro.api.map_reads(aligner, reads, opts)
    with open("out.paf", "w") as out:
        stats = repro.api.map_file(aligner, "reads.fq.gz", out, opts)

:class:`MapOptions` holds every knob of a mapping run;
:class:`MapRequest` / :class:`MapResult` are the versioned
request/response model shared by the one-shot path, the Python facade,
and the ``repro serve`` front-end (:mod:`repro.serve`);
:class:`ServeConfig` is the serving-shape companion (batching,
admission, tenancy). Backends resolve through the registry in
:mod:`repro.runtime.backends`: ``serial``, or ``processes`` (what the
CLI's ``-p N`` selects for N > 1).

This module is covered by an API-surface snapshot test
(``tests/core/test_api.py``): changing a public name or signature here
is a deliberate, test-acknowledged act.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import os
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .core.aligner import Aligner
from .core.alignment import Alignment, sam_header, to_paf, to_sam
from .errors import ParseError, SchedulerError
from .index.store import load_index
from .obs.tracing import TRACER, TraceConfig, TraceContext, TraceStore
from .runtime import backends as _backends
from .runtime.faults import FaultPolicy, write_quarantine
from .runtime.streaming import StreamStats, stream_map
from .seq.fasta import iter_reads, read_fasta
from .seq.genome import Genome
from .seq.records import SeqRecord

__all__ = [
    "API_VERSION",
    "MapOptions",
    "MapRequest",
    "MapResult",
    "MappingSession",
    "ServeConfig",
    "StreamStats",
    "open_index",
    "map_reads",
    "map_file",
]

#: Version of the request/response wire model (:class:`MapRequest` /
#: :class:`MapResult`). Bump on any incompatible field change; servers
#: reject requests claiming a newer version than they speak.
API_VERSION = 1


@dataclass(frozen=True)
class MapOptions:
    """Every knob of a mapping run, in one replaceable value object.

    ``backend`` — a :func:`repro.runtime.backends.backend_names` entry
    (``serial`` / ``processes``).
    ``workers`` — process count (ignored by ``serial``; one worker
    runs the serial loop on either backend).
    ``chunk_reads`` / ``chunk_bases`` — scheduling-chunk bounds of the
    processes pipeline, whose look-ahead window is ``chunk_reads ×
    workers × 4`` reads; also sizes :func:`map_file`'s bounded serial
    batches, so it caps memory everywhere.
    ``longest_first`` — LPT submission order (§4.4.4); never affects
    output order.
    ``index_path`` — serialized index for process workers to mmap;
    defaults to the path recorded by :func:`open_index`.
    ``fault_policy`` — a :class:`repro.runtime.faults.FaultPolicy`
    controlling per-read error handling, the watchdog timeout, and
    worker-crash recovery; ``None`` (default) keeps every backend
    strictly fail-fast with zero overhead.
    ``kernel`` — base-level DP kernel selection, applied to the aligner
    before mapping: a :func:`repro.align.kernel_names` entry routes DP
    through that kernel's dispatch (cross-read wavefront batching for
    ``wavefront``); ``"none"`` forces the legacy per-pair engine path;
    ``None`` (default) leaves the aligner's configuration untouched.
    Kernel choice never changes mapped output (batched kernels are
    bit-identical to their per-pair fallback; the unbanded
    ``reference``/``scalar`` oracles are the documented exception) —
    only throughput and the ``wavefront.*``/``dispatch.*`` telemetry.
    ``batch_max`` / ``batch_buckets`` — cross-read batching knobs
    forwarded to the dispatch layer (``None`` defers to the preset,
    then the kernel's defaults).
    ``progress_interval`` / ``progress_path`` — live heartbeat: a
    :class:`repro.obs.progress.ProgressReporter` daemon thread emits a
    status line (reads done, reads/s, GCUPS, queue depths, ETA) every
    ``progress_interval`` seconds through the ``repro.progress`` logger
    and, with ``progress_path``, as JSON records to that file. Setting
    only ``progress_path`` uses the default 2 s cadence. ``None``/
    ``None`` (default) starts no thread.
    ``status_port`` — mount a :class:`repro.obs.statusd.StatusServer`
    on ``127.0.0.1:status_port`` for the duration of the run, serving
    ``/metrics`` (OpenMetrics), ``/status`` (JSON heartbeat), ``/events``
    and ``/healthz``; ``0`` binds an OS-assigned free port (logged);
    ``None`` (default) starts no server. The heartbeat and the server
    share one :class:`repro.obs.export.RunSampler`.
    ``events_path`` — mirror the run's structured event stream
    (dispatch decisions, pool respawns, faults, heartbeats — the
    :data:`repro.obs.events.EVENTS` ring) to this JSONL file.
    ``run_dir`` — make the run durable: write output and a write-ahead
    journal (:mod:`repro.runtime.journal`) into this directory, with
    an fsynced commit every ``commit_reads`` reads, so a killed run
    can be resumed byte-identically. ``resume`` — continue the run in
    ``run_dir`` from its last verified commit instead of requiring a
    fresh directory (``manymap resume`` sets this). Both apply to
    :func:`map_file` only (the journal checkpoints a *file* corpus);
    ``run_dir=None`` (default) journals nothing and costs nothing.
    ``tracing`` — a :class:`repro.obs.tracing.TraceConfig`: give the
    run a request-scoped trace plane (one root trace, per-chunk spans,
    per-bucket kernel spans) with tail-based sampling and an optional
    on-disk trace store; ``None`` (default) traces nothing and the
    instrumentation points cost one branch each.
    """

    backend: str = "serial"
    workers: int = 1
    with_cigar: bool = True
    longest_first: bool = True
    chunk_reads: int = 32
    chunk_bases: int = 1_000_000
    index_path: Optional[str] = None
    kernel: Optional[str] = None
    batch_max: Optional[int] = None
    batch_buckets: Optional[Tuple[int, ...]] = None
    fault_policy: Optional["FaultPolicy"] = None
    progress_interval: Optional[float] = None
    progress_path: Optional[str] = None
    status_port: Optional[int] = None
    events_path: Optional[str] = None
    run_dir: Optional[str] = None
    resume: bool = False
    commit_reads: int = 256
    tracing: Optional[TraceConfig] = None

    def replace(self, **changes) -> "MapOptions":
        """A copy with ``changes`` applied (unknown names: TypeError)."""
        return dataclasses.replace(self, **changes)

    def validated(self) -> "MapOptions":
        """Self, after checking every field; raises SchedulerError."""
        _backends.get_backend(self.backend)
        for name in ("workers", "chunk_reads", "chunk_bases"):
            if getattr(self, name) < 1:
                raise SchedulerError(
                    f"{name} must be >= 1: {getattr(self, name)}"
                )
        if self.kernel is not None:
            from .align.dispatch import kernel_names

            if self.kernel != "none" and self.kernel not in kernel_names():
                raise SchedulerError(
                    f"unknown kernel {self.kernel!r}; expected 'none' or "
                    f"one of {kernel_names()}"
                )
        if self.batch_max is not None and self.batch_max < 0:
            raise SchedulerError(
                f"batch_max must be >= 0: {self.batch_max}"
            )
        if self.fault_policy is not None:
            self.fault_policy.validated()
        if self.progress_interval is not None and self.progress_interval <= 0:
            raise SchedulerError(
                f"progress_interval must be > 0: {self.progress_interval}"
            )
        if self.status_port is not None and not (
            0 <= self.status_port <= 65535
        ):
            raise SchedulerError(
                f"status_port must be in [0, 65535]: {self.status_port}"
            )
        if self.commit_reads < 1:
            raise SchedulerError(
                f"commit_reads must be >= 1: {self.commit_reads}"
            )
        if self.resume and not self.run_dir:
            raise SchedulerError("resume=True needs run_dir to be set")
        if self.tracing is not None:
            try:
                self.tracing.validated()
            except ValueError as exc:
                raise SchedulerError(str(exc)) from exc
        return self


#: ``MapRequest.on_error`` values: abort the whole request on the first
#: failing read, or skip (quarantine) failing reads and keep the rest.
REQUEST_ON_ERROR = ("abort", "skip")


@dataclass(frozen=True)
class MapRequest:
    """One versioned mapping request: a named batch of reads to map.

    The same value object flows through every entry point — built
    directly in Python, decoded from the ``POST /map`` JSON body by
    ``repro serve``, or synthesized by :meth:`make`. ``tenant`` scopes
    fairness and quotas on the server; ``on_error`` picks per-request
    fault semantics (``abort``: the request fails naming the first bad
    read; ``skip``: bad reads are quarantined via
    :mod:`repro.runtime.faults` and the rest of the request succeeds).
    ``timeout_ms`` is the caller's per-request deadline: the server
    answers 504 instead of mapping (or instead of returning a result
    computed after the deadline) once that many milliseconds have
    passed since admission; ``None`` means wait forever.
    ``trace`` is an optional :class:`repro.obs.tracing.TraceContext`:
    when set (by :class:`repro.serve.client.ServeClient` with tracing
    on, or by any caller that wants to stitch the server's spans into
    its own trace), the server joins that trace instead of starting a
    fresh one and echoes the ``trace_id`` in the result.
    """

    request_id: str
    reads: Tuple[SeqRecord, ...]
    tenant: str = "default"
    with_cigar: bool = True
    on_error: str = "abort"
    timeout_ms: Optional[float] = None
    trace: Optional[TraceContext] = None
    api_version: int = API_VERSION

    @classmethod
    def make(
        cls,
        reads: Sequence[SeqRecord],
        request_id: Optional[str] = None,
        **kwargs,
    ) -> "MapRequest":
        """A request over ``reads`` with a generated id when none given."""
        return cls(
            request_id=request_id or uuid.uuid4().hex[:12],
            reads=tuple(reads),
            **kwargs,
        ).validated()

    @classmethod
    def from_json(cls, doc: Dict) -> "MapRequest":
        """Decode the wire form; raises :class:`ParseError` on bad input."""
        if not isinstance(doc, dict):
            raise ParseError(f"request body must be a JSON object, got "
                             f"{type(doc).__name__}")
        version = doc.get("api_version", API_VERSION)
        if not isinstance(version, int) or version > API_VERSION:
            raise ParseError(
                f"api_version {version!r} is newer than this server's "
                f"{API_VERSION}"
            )
        raw = doc.get("reads")
        if not isinstance(raw, list) or not raw:
            raise ParseError("request needs a non-empty 'reads' list")
        reads: List[SeqRecord] = []
        for i, rec in enumerate(raw):
            if not isinstance(rec, dict):
                raise ParseError(f"reads[{i}] must be an object")
            name = str(rec.get("name") or f"read{i:04d}")
            seq = rec.get("seq")
            if not isinstance(seq, str) or not seq:
                raise ParseError(f"reads[{i}] ({name}): missing 'seq'")
            try:
                reads.append(SeqRecord.from_str(name, seq))
            except Exception as exc:
                raise ParseError(f"reads[{i}] ({name}): {exc}") from exc
        timeout_ms = doc.get("timeout_ms")
        if timeout_ms is not None:
            try:
                timeout_ms = float(timeout_ms)
            except (TypeError, ValueError) as exc:
                raise ParseError(
                    f"timeout_ms must be a number: {timeout_ms!r}"
                ) from exc
        trace = doc.get("trace")
        if trace is not None:
            try:
                trace = TraceContext.from_json(trace)
            except ValueError as exc:
                raise ParseError(f"bad trace context: {exc}") from exc
        return cls(
            request_id=str(doc.get("request_id") or uuid.uuid4().hex[:12]),
            reads=tuple(reads),
            tenant=str(doc.get("tenant") or "default"),
            with_cigar=bool(doc.get("with_cigar", True)),
            on_error=str(doc.get("on_error", "abort")),
            timeout_ms=timeout_ms,
            trace=trace,
            api_version=version,
        ).validated()

    def to_json(self) -> Dict:
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "reads": [
                {"name": r.name, "seq": r.seq} for r in self.reads
            ],
            "with_cigar": self.with_cigar,
            "on_error": self.on_error,
            "timeout_ms": self.timeout_ms,
            "trace": self.trace.to_json() if self.trace else None,
            "api_version": self.api_version,
        }

    def validated(self) -> "MapRequest":
        if not self.request_id:
            raise ParseError("request_id must be non-empty")
        if not self.reads:
            raise ParseError(f"request {self.request_id}: no reads")
        if not self.tenant:
            raise ParseError(f"request {self.request_id}: empty tenant")
        if self.on_error not in REQUEST_ON_ERROR:
            raise ParseError(
                f"on_error must be one of {REQUEST_ON_ERROR}: "
                f"{self.on_error!r}"
            )
        if self.timeout_ms is not None and self.timeout_ms <= 0:
            raise ParseError(
                f"request {self.request_id}: timeout_ms must be > 0: "
                f"{self.timeout_ms}"
            )
        return self

    @property
    def n_reads(self) -> int:
        return len(self.reads)

    @property
    def total_bases(self) -> int:
        return sum(len(r) for r in self.reads)


@dataclass(frozen=True)
class MapResult:
    """The response to one :class:`MapRequest`.

    ``paf`` carries one tuple of PAF lines per read, in request order
    (a read with no hits contributes an empty tuple) — byte-identical
    to what the one-shot CLI writes for the same read. ``status`` is
    ``"ok"`` or ``"error"``; an error result names the culprit in
    ``error`` and carries no alignments. ``quarantined`` lists reads
    absorbed by an ``on_error="skip"`` request. The timing fields are
    filled by the server (zero on the one-shot path except ``map_ms``);
    ``batch_id`` / ``batch_requests`` describe the coalesced batch this
    request rode in. ``trace_id`` names the request's distributed
    trace when the server ran with tracing enabled (fetch the span
    tree at ``GET /trace/<id>``); empty otherwise.
    """

    request_id: str
    status: str = "ok"
    read_names: Tuple[str, ...] = ()
    paf: Tuple[Tuple[str, ...], ...] = ()
    quarantined: Tuple[str, ...] = ()
    error: Optional[str] = None
    batch_id: int = 0
    batch_requests: int = 1
    queue_ms: float = 0.0
    map_ms: float = 0.0
    total_ms: float = 0.0
    trace_id: str = ""
    api_version: int = API_VERSION

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def paf_lines(self) -> List[str]:
        """All PAF lines of the request, flattened in read order."""
        return [line for lines in self.paf for line in lines]

    def replace(self, **changes) -> "MapResult":
        return dataclasses.replace(self, **changes)

    def to_json(self) -> Dict:
        return {
            "record": "map_result",
            "request_id": self.request_id,
            "status": self.status,
            "reads": [
                {"name": name, "paf": list(lines)}
                for name, lines in zip(self.read_names, self.paf)
            ],
            "quarantined": list(self.quarantined),
            "error": self.error,
            "batch_id": self.batch_id,
            "batch_requests": self.batch_requests,
            "timing": {
                "queue_ms": self.queue_ms,
                "map_ms": self.map_ms,
                "total_ms": self.total_ms,
            },
            "trace_id": self.trace_id,
            "api_version": self.api_version,
        }

    @classmethod
    def from_json(cls, doc: Dict) -> "MapResult":
        if not isinstance(doc, dict) or doc.get("record") != "map_result":
            raise ParseError("not a map_result document")
        reads = doc.get("reads") or []
        timing = doc.get("timing") or {}
        return cls(
            request_id=str(doc.get("request_id", "")),
            status=str(doc.get("status", "error")),
            read_names=tuple(str(r.get("name", "")) for r in reads),
            paf=tuple(tuple(r.get("paf") or ()) for r in reads),
            quarantined=tuple(doc.get("quarantined") or ()),
            error=doc.get("error"),
            batch_id=int(doc.get("batch_id", 0)),
            batch_requests=int(doc.get("batch_requests", 1)),
            queue_ms=float(timing.get("queue_ms", 0.0)),
            map_ms=float(timing.get("map_ms", 0.0)),
            total_ms=float(timing.get("total_ms", 0.0)),
            trace_id=str(doc.get("trace_id") or ""),
            api_version=int(doc.get("api_version", API_VERSION)),
        )


@dataclass(frozen=True)
class ServeConfig:
    """Every knob of a ``repro serve`` deployment, in one value object.

    Batching: requests are coalesced until the batch holds
    ``max_batch_reads`` reads (never splitting one request) or
    ``batch_timeout_ms`` has passed since the first request arrived.
    With ``adaptive_batching`` the live read target starts at a quarter
    of the maximum and grows/shrinks between ``min_batch_reads`` and
    ``max_batch_reads`` as the observed request p99 latency (over the
    last ``latency_window`` requests) tracks ``latency_target_ms``.

    Admission: at most ``max_queue_requests`` requests may be queued
    (excess is shed with HTTP 429), at most ``tenant_quota`` may be
    outstanding (queued + in flight) per tenant, and one request may
    carry at most ``max_reads_per_request`` reads. ``batch_workers``
    mapping threads execute batches concurrently. ``drain_timeout_s``
    bounds the graceful SIGTERM drain before leftover requests are
    failed with 503.

    ``tracing`` (a :class:`repro.obs.tracing.TraceConfig`) turns on
    per-request distributed tracing: every admitted request becomes a
    root→admission→batch→kernel span tree, tail-sampled into a bounded
    :class:`repro.obs.tracing.TraceStore` and served at
    ``GET /trace/<id>`` / ``GET /traces?slowest=N``; ``None``
    (default) traces nothing.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch_reads: int = 64
    min_batch_reads: int = 4
    batch_timeout_ms: float = 20.0
    adaptive_batching: bool = True
    latency_target_ms: float = 500.0
    latency_window: int = 64
    max_queue_requests: int = 256
    max_reads_per_request: int = 512
    tenant_quota: int = 64
    batch_workers: int = 1
    drain_timeout_s: float = 10.0
    tracing: Optional[TraceConfig] = None

    def replace(self, **changes) -> "ServeConfig":
        return dataclasses.replace(self, **changes)

    def validated(self) -> "ServeConfig":
        if not (0 <= self.port <= 65535):
            raise SchedulerError(f"port must be in [0, 65535]: {self.port}")
        for name in (
            "max_batch_reads",
            "min_batch_reads",
            "max_queue_requests",
            "max_reads_per_request",
            "tenant_quota",
            "batch_workers",
            "latency_window",
        ):
            if getattr(self, name) < 1:
                raise SchedulerError(
                    f"{name} must be >= 1: {getattr(self, name)}"
                )
        if self.min_batch_reads > self.max_batch_reads:
            raise SchedulerError(
                f"min_batch_reads {self.min_batch_reads} > "
                f"max_batch_reads {self.max_batch_reads}"
            )
        for name in ("batch_timeout_ms", "latency_target_ms"):
            if getattr(self, name) <= 0:
                raise SchedulerError(
                    f"{name} must be > 0: {getattr(self, name)}"
                )
        if self.drain_timeout_s < 0:
            raise SchedulerError(
                f"drain_timeout_s must be >= 0: {self.drain_timeout_s}"
            )
        if self.tracing is not None:
            try:
                self.tracing.validated()
            except ValueError as exc:
                raise SchedulerError(str(exc)) from exc
        return self

    def to_json(self) -> Dict:
        return dataclasses.asdict(self)


def _resolve(
    options: Optional[MapOptions], overrides: dict, aligner=None
) -> MapOptions:
    opts = (options or MapOptions()).replace(**overrides)
    if opts.index_path is None and aligner is not None:
        src = getattr(aligner, "index_source", None)
        if src:
            opts = opts.replace(index_path=src)
    return opts.validated()


def _apply_kernel(aligner, opts: MapOptions) -> None:
    """Apply the options' kernel/batching selection to the aligner.

    A no-op when none of the kernel fields are set, so shared aligners
    are never reconfigured behind the caller's back by a plain run.
    """
    if (
        opts.kernel is None
        and opts.batch_max is None
        and opts.batch_buckets is None
    ):
        return
    if not callable(getattr(aligner, "set_kernel", None)):
        return  # duck-typed aligners: nothing to configure
    kernel = opts.kernel
    if kernel is None:
        kernel = aligner._kernel_arg  # only batching knobs changed
    elif kernel == "none":
        kernel = None
    aligner.set_kernel(
        kernel,
        batch_max=(
            opts.batch_max if opts.batch_max is not None else aligner.batch_max
        ),
        batch_buckets=(
            opts.batch_buckets
            if opts.batch_buckets is not None
            else aligner.batch_buckets
        ),
    )


def _fault_telemetry(opts: MapOptions, telemetry):
    """Ensure a Telemetry exists when something downstream needs one:
    the quarantine sidecar, the status server (run_id + gauges on
    ``/status``), or the events sink (run-scoped event counts)."""
    pol = opts.fault_policy
    needs = (
        (pol is not None and pol.failed_reads)
        or opts.status_port is not None
        or opts.events_path is not None
    )
    if telemetry is None and needs:
        from .obs.telemetry import Telemetry

        return Telemetry()
    return telemetry


def _finish_faults(opts: MapOptions, telemetry) -> None:
    """Write the quarantine sidecar once, at the end of a public call."""
    pol = opts.fault_policy
    if pol is not None and pol.failed_reads and telemetry is not None:
        write_quarantine(
            pol.failed_reads,
            telemetry.faults,
            run_id=getattr(telemetry, "run_id", ""),
        )


@contextmanager
def _trace_plane(opts: MapOptions, label: str = "map_file"):
    """The run's request-scoped trace plane, or a no-op context.

    Yields ``(store, root)``: a :class:`repro.obs.tracing.TraceStore`
    and the run's root span, with the root's context made ambient on
    the calling thread so per-chunk and per-bucket kernel spans nest
    under it. The root is finished (and tail-sampled into the store)
    on exit, with ``status="error"`` when the run raised.
    """
    cfg = opts.tracing
    if cfg is None or not cfg.enabled:
        yield None, None
        return
    store = TraceStore(cfg)
    TRACER.enable()
    root = TRACER.start_span(
        f"run.{label}",
        sampled=store.head_sampled(),
        attrs={"backend": opts.backend, "workers": opts.workers},
    )
    try:
        with TRACER.use(root.ctx):
            yield store, root
    except BaseException:
        store.finish(root, status="error")
        TRACER.disable()
        raise
    store.finish(root, status="ok")
    TRACER.disable()


@contextmanager
def _live_plane(
    opts: MapOptions,
    telemetry,
    total_reads: Optional[int] = None,
    traces: Optional[TraceStore] = None,
):
    """The run's live telemetry plane, or a no-op context.

    One shared :class:`repro.obs.export.RunSampler` feeds both the
    progress heartbeat and the ``--status-port`` HTTP endpoint, so the
    JSONL beats and ``/status`` agree field for field; ``--events``
    attaches the JSONL sink to the global event bus for the run.
    """
    want_progress = (
        opts.progress_interval is not None or opts.progress_path is not None
    )
    want_status = opts.status_port is not None
    if not (want_progress or want_status or opts.events_path):
        yield None
        return
    from .obs.events import EVENTS
    from .obs.export import RunSampler

    sampler = RunSampler(telemetry=telemetry, total_reads=total_reads)
    if opts.events_path:
        EVENTS.open_sink(opts.events_path)
    server = reporter = None
    try:
        if want_status:
            from .obs.statusd import StatusServer

            server = StatusServer(
                sampler=sampler, port=opts.status_port, traces=traces
            ).start()
        if want_progress:
            from .obs.progress import ProgressReporter

            reporter = ProgressReporter(
                telemetry=telemetry,
                interval=opts.progress_interval or 2.0,
                total_reads=total_reads,
                path=opts.progress_path,
                sampler=sampler,
            ).start()
        yield sampler
    finally:
        if reporter is not None:
            reporter.stop()
        if server is not None:
            server.stop()
        if opts.events_path:
            EVENTS.close_sink()


def open_index(
    reference: Union[Genome, str, os.PathLike],
    index_path: Optional[Union[str, os.PathLike]] = None,
    *,
    preset: str = "map-pb",
    engine: str = "manymap",
    load_mode: str = "mmap",
) -> Aligner:
    """Build an :class:`Aligner` over a reference and optional saved index.

    ``reference`` is a :class:`Genome` or a FASTA path. With
    ``index_path`` the serialized index is loaded (``load_mode='mmap'``
    keeps it page-cache shared, §4.4.2) and its path is remembered on
    the aligner (``aligner.index_source``) so process-backed mapping
    reuses the same file zero-copy; without it the index is built
    in-process.
    """
    genome = (
        reference
        if isinstance(reference, Genome)
        else Genome(read_fasta(os.fspath(reference)))
    )
    index = None
    if index_path is not None:
        index = load_index(os.fspath(index_path), mode=load_mode)
    aligner = Aligner(genome, preset=preset, engine=engine, index=index)
    aligner.index_source = os.fspath(index_path) if index_path else None
    return aligner


class MappingSession:
    """Open the index once, map many times.

    The one mapping engine shared by every front-end: the module-level
    :func:`map_reads` / :func:`map_file` facade functions, the CLI
    one-shot path, and the ``repro serve`` batcher are all thin clients
    of this class. The session pins an :class:`Aligner` (and thus its
    mmap'd index) plus default :class:`MapOptions`; each call resolves
    per-call overrides against those defaults, so a server can hold one
    session resident and serve many requests without re-reading the
    index.
    """

    def __init__(
        self, aligner: Aligner, options: Optional[MapOptions] = None
    ):
        self.aligner = aligner
        self.options = options or MapOptions()
        self._closed = False
        _apply_kernel(aligner, self.options)

    @classmethod
    def open(
        cls,
        reference: Union[Genome, str, os.PathLike],
        index_path: Optional[Union[str, os.PathLike]] = None,
        *,
        preset: str = "map-pb",
        engine: str = "manymap",
        load_mode: str = "mmap",
        options: Optional[MapOptions] = None,
    ) -> "MappingSession":
        """:func:`open_index` + session in one call."""
        aligner = open_index(
            reference,
            index_path,
            preset=preset,
            engine=engine,
            load_mode=load_mode,
        )
        return cls(aligner, options)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Mark the session closed; later map calls raise."""
        self._closed = True

    def __enter__(self) -> "MappingSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise SchedulerError("MappingSession is closed")

    def _opts(
        self, options: Optional[MapOptions], overrides: dict
    ) -> MapOptions:
        return _resolve(options or self.options, overrides, self.aligner)

    def map_reads(
        self,
        reads: Sequence[SeqRecord],
        options: Optional[MapOptions] = None,
        *,
        profile=None,
        telemetry=None,
        **overrides,
    ) -> List[List[Alignment]]:
        """Map a read collection; results in input order on any backend.

        ``overrides`` are applied on top of ``options`` (which defaults
        to the session's options). ``profile`` / ``telemetry`` are the
        usual :class:`~repro.core.profiling.PipelineProfile` /
        :class:`~repro.obs.telemetry.Telemetry` collectors.
        """
        self._check_open()
        opts = self._opts(options, overrides)
        _apply_kernel(self.aligner, opts)
        telemetry = _fault_telemetry(opts, telemetry)
        with _trace_plane(opts, label="map_reads") as (tstore, _root):
            with _live_plane(
                opts, telemetry, total_reads=len(reads), traces=tstore
            ):
                results = _backends.dispatch(
                    self.aligner, reads, opts, profile=profile,
                    telemetry=telemetry,
                )
        _finish_faults(opts, telemetry)
        return results

    def map_file(
        self,
        reads_path: Union[str, os.PathLike],
        output: Optional[io.TextIOBase] = None,
        options: Optional[MapOptions] = None,
        *,
        sam: bool = False,
        profile=None,
        telemetry=None,
        **overrides,
    ) -> StreamStats:
        """Map a FASTA/FASTQ(.gz) file, writing PAF (or SAM) as it goes.

        Every backend consumes the file through the shared streaming
        reader (:func:`repro.seq.fasta.iter_reads`): ``processes`` with
        more than one worker runs the overlapped pipeline
        (:func:`repro.runtime.streaming.stream_map`) with constant
        memory; one worker maps bounded batches of ``chunk_reads × 4``
        reads at a time, so ``chunk_reads`` bounds memory on every
        backend. Output lines are written strictly in input order
        either way, so the bytes are identical across backends.
        Returns the run's :class:`StreamStats`.

        With ``options.run_dir`` the run is durable: output goes to
        ``RUN_DIR/output.paf`` through the write-ahead journal
        (:mod:`repro.runtime.journal`, fsynced commit every
        ``commit_reads`` reads), the ``output`` handle is ignored, and
        ``options.resume=True`` continues a killed run from its last
        verified commit — skipping the committed reads on the way in,
        so the final bytes are identical to an uninterrupted run.
        """
        self._check_open()
        aligner = self.aligner
        opts = self._opts(options, overrides)
        _apply_kernel(aligner, opts)
        telemetry = _fault_telemetry(opts, telemetry)

        journal = None
        if opts.run_dir:
            from .runtime.journal import RunJournal

            journal = RunJournal(
                opts.run_dir,
                identity={
                    "reads": os.path.abspath(os.fspath(reads_path)),
                    "sam": bool(sam),
                    "with_cigar": bool(opts.with_cigar),
                    "preset": getattr(aligner.preset, "name", None),
                    "engine": getattr(aligner, "engine_name", None),
                },
                commit_reads=opts.commit_reads,
                resume=opts.resume,
            )

        def write_header() -> None:
            if not sam:
                return
            text = (
                sam_header(aligner.index.names, aligner.index.lengths) + "\n"
            )
            if journal is not None:
                if journal.offset == 0:  # fresh run, not a resume
                    journal.write_text(text)
                    journal.commit()
            elif output is not None:
                output.write(text)

        # Write-time fault injection (disk_full / torn_write): the
        # sink consults the injector with the read name and payload.
        injector = getattr(opts.fault_policy, "injector", None)
        on_write = getattr(injector, "on_write", None)

        def emit(read: SeqRecord, alns: List[Alignment]) -> None:
            if journal is not None:
                text = "".join(
                    (to_sam(aln, read) if sam else to_paf(aln)) + "\n"
                    for aln in alns
                )
                if on_write is not None:
                    on_write(read.name, fh=journal.output_handle,
                             payload=text)
                journal.write_text(text)
                journal.read_done()
                return
            if output is None:
                return
            if on_write is not None:
                on_write(read.name, fh=output, payload=None)
            for aln in alns:
                output.write(to_sam(aln, read) if sam else to_paf(aln))
                output.write("\n")

        source = iter_reads(os.fspath(reads_path))
        if journal is not None and journal.reads_done:
            # Committed reads re-map to the same bytes; don't re-map them.
            source = itertools.islice(source, journal.reads_done, None)
        tstore = None
        try:
            with _trace_plane(opts, label="map_file") as (tstore, _root):
                stats = self._run_map_file(
                    source, emit, write_header, opts, journal,
                    profile=profile, telemetry=telemetry, traces=tstore,
                )
        except BaseException:
            if journal is not None:
                journal.close()  # keep the last commit; no completion
            raise
        if journal is not None:
            journal.complete()
            stats.journal = journal.summary()
            if telemetry is not None:
                # journal.* lands in the run-scoped counter delta, so
                # the metrics manifest and report see commit activity.
                telemetry.absorb(dict(journal.counters))
        if tstore is not None:
            stats.tracing = tstore.summary()
        return stats

    def _run_map_file(
        self, source, emit, write_header, opts, journal, *,
        profile=None, telemetry=None, traces=None,
    ) -> StreamStats:
        """The backend split of :meth:`map_file`, journal-agnostic."""
        from .runtime.journal import journal_events

        aligner = self.aligner
        write_header()
        if opts.backend == "processes" and opts.workers > 1:
            with _live_plane(opts, telemetry, traces=traces), \
                    journal_events(journal):
                stats = stream_map(
                    aligner,
                    source,
                    emit,
                    workers=opts.workers,
                    with_cigar=opts.with_cigar,
                    longest_first=opts.longest_first,
                    chunk_reads=opts.chunk_reads,
                    chunk_bases=opts.chunk_bases,
                    index_path=opts.index_path,
                    profile=profile,
                    telemetry=telemetry,
                    fault_policy=opts.fault_policy,
                )
            _finish_faults(opts, telemetry)
            return stats

        # One worker: bounded serial batches through the same reader.
        from contextlib import nullcontext

        def stage(name):
            return (
                profile.stage(name) if profile is not None else nullcontext()
            )

        stats = StreamStats()
        batch_size = opts.chunk_reads * max(1, opts.workers) * 4
        with _live_plane(opts, telemetry, traces=traces), \
                journal_events(journal):
            while True:
                batch: List[SeqRecord] = []
                with stage("Load Query"):
                    for read in source:
                        batch.append(read)
                        if len(batch) >= batch_size:
                            break
                if not batch:
                    break
                stats.n_chunks += 1
                with TRACER.span(
                    "chunk", chunk=stats.n_chunks, reads=len(batch)
                ):
                    results = _backends.dispatch(
                        aligner, batch, opts, profile=profile,
                        telemetry=telemetry,
                    )
                with stage("Output"):
                    for read, alns in zip(batch, results):
                        emit(read, alns)
                stats.n_reads += len(batch)
                stats.total_bases += sum(len(r) for r in batch)
                stats.n_mapped += sum(1 for alns in results if alns)
                stats.n_alignments += sum(len(alns) for alns in results)
                if len(batch) < batch_size:
                    break
        _finish_faults(opts, telemetry)
        return stats

    def map_batch(
        self,
        reads: Sequence[SeqRecord],
        with_cigar: bool = True,
    ) -> List[List[Alignment]]:
        """Map reads in-process, pooling their base-level DP.

        The serve batcher's hot path: one
        :func:`repro.runtime.faults.map_chunk_reads` call feeds the
        whole coalesced batch through the kernel-dispatch layer as
        chunk-wide DP buckets (falling back to the per-read loop when
        pooling does not apply). Errors propagate raw — callers that
        must name the failing read re-run per read (mapping is
        deterministic).
        """
        self._check_open()
        from .runtime.faults import map_chunk_reads, map_one_read

        with TRACER.span("session.map_batch", reads=len(reads)) as sp:
            pooled = map_chunk_reads(
                self.aligner, list(reads), with_cigar, None
            )
            if pooled is not None:
                return [alns for alns, _, _, _ in pooled]
            if sp is not None:
                sp.attrs["pooled"] = False
            return [
                map_one_read(self.aligner, read, with_cigar, None)[0]
                for read in reads
            ]

    def map_request(self, request: MapRequest) -> MapResult:
        """Map one :class:`MapRequest` deterministically, alone.

        The per-request fallback the server uses to isolate a poison
        read after a pooled batch fails, and the one-process reference
        path for clients that skip HTTP entirely. ``on_error="abort"``
        returns an error result naming the first failing read;
        ``on_error="skip"`` quarantines failing reads via
        :mod:`repro.runtime.faults` and maps the rest.
        """
        self._check_open()
        from .runtime.faults import map_one_read

        request.validated()
        t0 = time.perf_counter()
        policy = (
            FaultPolicy(on_error="skip", max_retries=0)
            if request.on_error == "skip"
            else None
        )
        paf: List[Tuple[str, ...]] = []
        quarantined: List[str] = []
        with TRACER.span(
            "session.map_request", reads=request.n_reads
        ) as sp:
            for read in request.reads:
                try:
                    alns, _, _, fault = map_one_read(
                        self.aligner, read, request.with_cigar, policy
                    )
                except Exception as exc:  # abort mode: name the culprit
                    if sp is not None:
                        sp.status = "error"
                    return MapResult(
                        request_id=request.request_id,
                        status="error",
                        error=f"read {read.name!r}: {exc}",
                        map_ms=(time.perf_counter() - t0) * 1000.0,
                    )
                if fault is not None:
                    quarantined.append(read.name)
                    paf.append(())
                else:
                    paf.append(tuple(to_paf(a) for a in alns))
        return MapResult(
            request_id=request.request_id,
            read_names=tuple(r.name for r in request.reads),
            paf=tuple(paf),
            quarantined=tuple(quarantined),
            map_ms=(time.perf_counter() - t0) * 1000.0,
        )


def map_reads(
    aligner: Aligner,
    reads: Sequence[SeqRecord],
    options: Optional[MapOptions] = None,
    *,
    profile=None,
    telemetry=None,
    **overrides,
) -> List[List[Alignment]]:
    """Map a read collection; results in input order on any backend.

    A thin client of :class:`MappingSession` — see
    :meth:`MappingSession.map_reads`. ``overrides`` are applied on top
    of ``options`` (e.g.
    ``map_reads(a, reads, backend="processes", workers=8)``).
    """
    return MappingSession(aligner).map_reads(
        reads, options, profile=profile, telemetry=telemetry, **overrides
    )


def map_file(
    aligner: Aligner,
    reads_path: Union[str, os.PathLike],
    output: Optional[io.TextIOBase] = None,
    options: Optional[MapOptions] = None,
    *,
    sam: bool = False,
    profile=None,
    telemetry=None,
    **overrides,
) -> StreamStats:
    """Map a FASTA/FASTQ(.gz) file, writing PAF (or SAM) as it goes.

    A thin client of :class:`MappingSession` — see
    :meth:`MappingSession.map_file`.
    """
    return MappingSession(aligner).map_file(
        reads_path,
        output,
        options,
        sam=sam,
        profile=profile,
        telemetry=telemetry,
        **overrides,
    )
