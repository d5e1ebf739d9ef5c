"""``manymap`` command-line interface.

Subcommands mirror the minimap2 workflow on synthetic data:

* ``index``    — build and save a minimizer index from a FASTA file.
* ``map``      — map FASTA/FASTQ reads against a reference, PAF/SAM out.
* ``simulate`` — generate a synthetic genome and/or simulated reads.
* ``report``   — render ``--metrics`` JSON file(s) as the paper's
  Table 2-style stage breakdown with GCUPS/counter footers.
* ``top``      — refreshing terminal dashboard over a live run's
  ``--status-port`` endpoint or a ``--progress-file`` JSONL.
* ``trace``    — render kept request traces (``--trace-dir`` or a live
  obs endpoint) as span trees with self-time attribution.
* ``bench``    — print a modeled paper table/figure (the measured +
  asserted versions live in ``benchmarks/``).

Diagnostics go through structured stderr logging (``--log-level``,
per-worker prefixes); ``map --metrics FILE`` writes a machine-readable
run manifest and ``map --trace FILE`` a per-read span JSONL (see
:mod:`repro.obs`).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from ._version import __version__


def _cmd_index(args: argparse.Namespace) -> int:
    from .index.index import build_index
    from .index.store import save_index
    from .obs.logs import get_logger
    from .seq.fasta import read_fasta
    from .seq.genome import Genome

    log = get_logger("cli")
    genome = Genome(read_fasta(args.reference))
    index = build_index(genome, k=args.k, w=args.w)
    written = save_index(index, args.output)
    log.info(
        "indexed %d sequence(s), %d minimizers, %d bytes -> %s",
        len(genome),
        index.n_minimizers,
        written,
        args.output,
    )
    return 0


def _kernel_choices() -> List[str]:
    """--kernel values: every registered dispatch kernel plus 'none'."""
    from .align.dispatch import kernel_names

    return kernel_names() + ["none"]


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    """The shared request-tracing flags (``map`` and ``serve``)."""
    parser.add_argument(
        "--trace-dir",
        metavar="DIR",
        help="enable request-scoped tracing and keep sampled traces "
        "as trace-<id>.json files in DIR (render with `manymap trace "
        "DIR`); tracing is also on (in-memory only) when either "
        "sampling knob below is given",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        metavar="FRACTION",
        help="head-sampling fraction in [0,1] (default 1.0); errored/"
        "shed/deadline traces are always kept regardless",
    )
    parser.add_argument(
        "--trace-slowest",
        type=float,
        default=None,
        metavar="PCT",
        help="also keep the slowest PCT%% of requests even when head-"
        "sampled out (tail-based sampling, default 5)",
    )


def _trace_config(args: argparse.Namespace):
    """``--trace-dir/--trace-sample/--trace-slowest`` as a TraceConfig.

    ``None`` (tracing off) unless at least one of the three flags was
    given; unspecified knobs take the TraceConfig defaults.
    """
    if (
        args.trace_dir is None
        and args.trace_sample is None
        and args.trace_slowest is None
    ):
        return None
    from .obs.tracing import TraceConfig

    return TraceConfig(
        dir=args.trace_dir,
        sample=1.0 if args.trace_sample is None else args.trace_sample,
        slowest_pct=(
            5.0 if args.trace_slowest is None else args.trace_slowest
        ),
    )


def _cmd_map(args: argparse.Namespace) -> int:
    from .api import MapOptions, map_file, open_index
    from .core.profiling import PipelineProfile
    from .obs.logs import get_logger, set_run_id
    from .obs.metrics import build_metrics, write_metrics
    from .obs.telemetry import Telemetry

    log = get_logger("cli")
    if args.processes < 1 or args.chunk_reads < 1:
        log.error("--processes and --chunk-reads must be >= 1")
        return 2
    if args.commit_reads < 1:
        log.error("--commit-reads must be >= 1")
        return 2
    if args.resume and not args.run_dir:
        log.error("--resume needs --run-dir (or use `manymap resume DIR`)")
        return 2
    workers = args.processes
    backend = "processes" if workers > 1 else "serial"

    policy = None
    if (
        args.on_error != "abort"
        or args.read_timeout is not None
        or args.failed_reads
        or args.inject_faults
    ):
        from .errors import ReproError
        from .runtime.faults import FaultPolicy

        injector = None
        if args.inject_faults:
            from .testing.faults import load_faults

            try:
                injector = load_faults(args.inject_faults)
            except (OSError, ValueError, ReproError) as exc:
                log.error("cannot load fault spec: %s", exc)
                return 2
        try:
            policy = FaultPolicy(
                on_error=args.on_error,
                max_retries=args.max_retries,
                read_timeout=args.read_timeout,
                failed_reads=args.failed_reads,
                injector=injector,
            ).validated()
        except ReproError as exc:
            log.error("bad fault policy: %s", exc)
            return 2

    profile = PipelineProfile(label=f"{backend}[{workers}]")
    # --timeline is rendered from trace spans, so it implies tracing.
    telemetry = Telemetry(trace=bool(args.trace or args.timeline))
    set_run_id(telemetry.run_id)
    if args.trace:
        # Incremental sink: spans spill to the file as workers finish,
        # so tracing a multi-million-read run costs O(1) memory.
        telemetry.open_trace(args.trace)

    with profile.stage("Load Index"):
        aligner = open_index(
            args.reference, preset=args.preset, engine=args.engine
        )
    log.debug("reference loaded: %d sequence(s)", len(aligner.genome))

    options = MapOptions(
        backend=backend,
        workers=workers,
        with_cigar=not args.no_cigar,
        chunk_reads=args.chunk_reads,
        kernel=args.kernel,
        fault_policy=policy,
        progress_interval=args.progress,
        progress_path=args.progress_file,
        status_port=args.status_port,
        events_path=args.events,
        run_dir=args.run_dir,
        resume=bool(args.resume),
        commit_reads=args.commit_reads,
        tracing=_trace_config(args),
    )

    from contextlib import nullcontext

    from .errors import ReproError
    from .utils.fsio import atomic_output, atomic_write, atomic_write_json

    if args.run_dir and not args.resume:
        # Record how to re-invoke this run so `manymap resume DIR`
        # can rebuild the exact command (minus --resume) later.
        os.makedirs(args.run_dir, exist_ok=True)
        argv = list(getattr(args, "raw_argv", []) or [])
        if argv and argv[0] == "map":
            argv = argv[1:]
        atomic_write_json(
            os.path.join(args.run_dir, "cmdline.json"), {"argv": argv}
        )

    if args.run_dir:
        # Durable mode: output goes through the run journal; -o (if
        # given) is published from the committed file afterwards.
        out_cm = nullcontext(None)
    elif args.output:
        # Atomic: the target appears only when the run succeeds — a
        # crashed run never leaves a truncated PAF behind.
        out_cm = atomic_output(args.output)
    else:
        out_cm = nullcontext(sys.stdout)
    try:
        # Every backend consumes the reads file through the same
        # bounded iterator inside map_file, so --chunk-reads caps
        # memory at any -p.
        with out_cm as out:
            stats = map_file(
                aligner,
                args.reads,
                out,
                options,
                sam=bool(args.sam),
                profile=profile,
                telemetry=telemetry,
            )
    except ReproError as exc:
        log.error("%s", exc)
        return 2
    finally:
        telemetry.close_trace()
    log.info("mapped %d/%d reads", stats.n_mapped, stats.n_reads)
    if args.run_dir:
        committed = os.path.join(args.run_dir, "output.paf")
        j = stats.journal or {}
        if j.get("resumed"):
            log.info(
                "resumed: skipped %d committed read(s), truncated %d "
                "torn byte(s)",
                j.get("reads_skipped", 0),
                j.get("truncated_bytes", 0),
            )
        if args.output:
            with open(committed, "rb") as fh:
                atomic_write(args.output, fh.read())
            log.info("published committed output -> %s", args.output)
        else:
            log.info("committed output -> %s", committed)
    if policy is not None:
        quarantined = [
            f for f in telemetry.faults if f.action == "quarantined"
        ]
        fallbacks = [f for f in telemetry.faults if f.action == "fallback"]
        if quarantined:
            log.warning(
                "quarantined %d read(s)%s",
                len(quarantined),
                f" -> {args.failed_reads}" if args.failed_reads else "",
            )
        if fallbacks:
            log.warning(
                "downgraded %d read(s) to the watchdog fallback pass",
                len(fallbacks),
            )

    if args.trace:
        log.info(
            "wrote %d trace spans -> %s", telemetry.span_count, args.trace
        )
    if stats.tracing:
        log.info(
            "kept %d/%d request trace(s)%s",
            stats.tracing.get("kept", 0),
            stats.tracing.get("started", 0),
            f" -> {args.trace_dir}" if args.trace_dir else "",
        )
    if args.timeline:
        from .obs.telemetry import iter_trace
        from .obs.timeline import write_timeline

        spans = (
            telemetry.spans
            if telemetry.spans or not args.trace
            else iter_trace(args.trace)
        )
        n_events = write_timeline(
            args.timeline,
            spans,
            telemetry.faults,
            run_id=telemetry.run_id,
            gauges=telemetry.gauges.snapshot(),
            label=profile.label,
        )
        log.info("wrote %d timeline events -> %s", n_events, args.timeline)
    if args.metrics:
        manifest = build_metrics(
            profile,
            telemetry,
            config={
                "preset": args.preset,
                "engine": args.engine,
                "kernel": aligner.kernel_name or "none",
                "backend": backend,
                "workers": workers,
                "chunk_reads": args.chunk_reads,
                "with_cigar": not args.no_cigar,
                "sam": bool(args.sam),
                "on_error": args.on_error,
                "max_retries": args.max_retries,
                "read_timeout": args.read_timeout,
                "run_dir": args.run_dir,
                "commit_reads": args.commit_reads,
            },
            export={
                k: v
                for k, v in (
                    ("status_port", args.status_port),
                    ("events_path", args.events),
                )
                if v is not None
            },
            reads={
                "n_reads": stats.n_reads,
                "total_bases": stats.total_bases,
                "n_mapped": stats.n_mapped,
            },
            label=profile.label,
            journal=stats.journal,
            tracing=stats.tracing,
        )
        write_metrics(args.metrics, manifest)
        log.info(
            "wrote metrics (%.4f GCUPS over %d DP cells) -> %s",
            manifest["derived"]["gcups"],
            manifest["derived"]["dp_cells"],
            args.metrics,
        )
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    """Re-invoke the recorded ``map`` command with ``--resume`` set.

    ``map --run-dir`` stores its argv in ``DIR/cmdline.json``; this
    replays it against the same run dir, so a crashed run continues
    with exactly the options that started it (the journal additionally
    refuses any output-affecting drift).
    """
    import json

    from .obs.logs import get_logger

    log = get_logger("cli")
    path = os.path.join(args.run_dir, "cmdline.json")
    try:
        with open(path) as fh:
            argv = list(json.load(fh)["argv"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        log.error(
            "cannot read %s (%s); re-run the original command with "
            "`manymap map ... --run-dir %s --resume` instead",
            path,
            exc,
            args.run_dir,
        )
        return 2
    argv = [a for a in argv if a != "--resume"]
    parsed = build_parser().parse_args(["map"] + argv)
    parsed.resume = True
    parsed.run_dir = args.run_dir  # the dir may have moved; trust ours
    parsed.raw_argv = ["map"] + argv
    parsed.log_level = getattr(args, "log_level", parsed.log_level)
    return _cmd_map(parsed)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .api import MapOptions, MappingSession, ServeConfig, open_index
    from .errors import ReproError
    from .obs.events import EVENTS
    from .obs.logs import get_logger, set_run_id
    from .obs.telemetry import Telemetry
    from .serve.server import MappingServer

    log = get_logger("cli")
    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            max_batch_reads=args.max_batch_reads,
            min_batch_reads=args.min_batch_reads,
            batch_timeout_ms=args.batch_timeout_ms,
            adaptive_batching=not args.no_adaptive_batching,
            latency_target_ms=args.latency_target_ms,
            max_queue_requests=args.max_queue,
            max_reads_per_request=args.max_reads_per_request,
            tenant_quota=args.tenant_quota,
            batch_workers=args.batch_workers,
            drain_timeout_s=args.drain_timeout,
            tracing=_trace_config(args),
        ).validated()
    except ReproError as exc:
        log.error("%s", exc)
        return 2

    options = MapOptions(kernel=args.kernel) if args.kernel else None
    session = MappingSession(
        open_index(
            args.reference,
            args.index,
            preset=args.preset,
            engine=args.engine,
        ),
        options,
    )
    telemetry = Telemetry()
    set_run_id(telemetry.run_id)
    if args.events:
        EVENTS.open_sink(args.events)
    request_journal = None
    if args.journal:
        from .serve.journal import RequestJournal

        request_journal = RequestJournal(args.journal)
    server = MappingServer(
        session, config, telemetry, request_journal=request_journal
    )

    async def _main() -> None:
        await server.start()
        server.install_signal_handlers()
        # The bound port on stdout so scripts can capture port=0 binds.
        print(f"serving on {server.url}", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - signal path races
        pass
    finally:
        if args.events:
            EVENTS.close_sink()
        if request_journal is not None:
            request_journal.close()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Render kept request traces as span trees with self-time.

    ``target`` is either a live obs endpoint URL (the serve port or a
    ``map --status-port`` daemon — ``/traces`` is queried for the
    slowest kept traces) or a ``--trace-dir`` directory of
    ``trace-<id>.json`` files.
    """
    import json
    import urllib.request

    from .obs.logs import get_logger
    from .obs.tracing import render_trace_tree, trace_chrome

    log = get_logger("cli")
    target = args.target

    def _fetch(url: str):
        with urllib.request.urlopen(url, timeout=10.0) as resp:
            return json.loads(resp.read())

    docs: List[dict] = []
    if target.startswith(("http://", "https://")):
        base = target.rstrip("/")
        try:
            if args.id:
                docs = [_fetch(f"{base}/trace/{args.id}")]
            else:
                listing = _fetch(f"{base}/traces?slowest={args.slowest}")
                docs = [
                    _fetch(f"{base}/trace/{t['trace_id']}")
                    for t in listing.get("traces", [])
                ]
        except (OSError, ValueError, KeyError) as exc:
            log.error("cannot fetch traces from %s: %s", base, exc)
            return 2
    else:
        if not os.path.isdir(target):
            log.error("no such trace dir (or URL): %s", target)
            return 2
        from glob import glob

        for path in sorted(glob(os.path.join(target, "trace-*.json"))):
            try:
                with open(path) as fh:
                    docs.append(json.load(fh))
            except (OSError, ValueError) as exc:
                log.warning("skipping unreadable trace %s: %s", path, exc)
        if args.id:
            docs = [d for d in docs if d.get("trace_id") == args.id]
        else:
            docs.sort(key=lambda d: -float(d.get("duration_ms", 0.0)))
            docs = docs[: args.slowest]
    if not docs:
        log.error("no kept traces at %s", target)
        return 1
    if args.chrome:
        from .utils.fsio import atomic_write_json

        atomic_write_json(args.chrome, trace_chrome(docs[0]))
        log.info(
            "wrote Chrome trace for %s -> %s",
            docs[0].get("trace_id", "?"),
            args.chrome,
        )
    for doc in docs:
        print(render_trace_tree(doc))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .obs.logs import get_logger
    from .seq.fasta import write_fasta, write_fastq
    from .seq.genome import GenomeSpec, generate_genome
    from .sim.pbsim import simulate_reads

    log = get_logger("cli")
    genome = generate_genome(
        GenomeSpec(length=args.genome_length, chromosomes=args.chromosomes),
        seed=args.seed,
    )
    write_fasta(args.reference_out, genome.chromosomes)
    log.info("wrote genome -> %s", args.reference_out)
    if args.reads_out:
        reads = simulate_reads(
            genome, args.n_reads, platform=args.platform, seed=args.seed + 1
        )
        write_fastq(args.reads_out, reads)
        log.info("wrote %d reads -> %s", len(reads), args.reads_out)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .index.store import index_file_size, load_index
    from .utils.fmt import human_bytes, human_count

    idx = load_index(args.index, mode="mmap")
    s = idx.stats()
    rows = [
        ("sequences", human_count(s["n_sequences"])),
        ("k / w / hpc", f"{idx.k} / {idx.w} / {idx.hpc}"),
        ("minimizers", human_count(s["n_minimizers"])),
        ("distinct keys", human_count(s["n_keys"])),
        ("mean occurrences", f"{s['mean_occ']:.2f}"),
        ("max occurrences", human_count(s["max_occ_observed"])),
        ("occurrence cutoff", str(idx.max_occ)),
        ("in-memory size", human_bytes(s["bytes"])),
        ("file size", human_bytes(index_file_size(args.index))),
    ]
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        print(f"{k:<{width}}  {v}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .obs.top import run_top

    try:
        return run_top(
            args.target,
            interval=args.interval,
            max_frames=1 if args.once else None,
        )
    except KeyboardInterrupt:
        return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs.logs import get_logger
    from .obs.report import (
        compare_metrics,
        render_compare,
        render_metrics_files,
    )

    log = get_logger("cli")
    if args.trajectory:
        from .obs.report import render_trajectory

        if args.metrics or args.compare:
            log.error("--trajectory renders one JSONL file; drop the "
                      "other arguments")
            return 2
        try:
            print(render_trajectory(args.trajectory, fmt=args.format))
        except (OSError, ValueError) as exc:
            log.error("cannot render trajectory: %s", exc)
            return 1
        return 0
    if args.compare:
        from .obs.metrics import load_metrics

        if args.metrics:
            log.error("--compare takes its two files itself; drop the "
                      "positional metrics arguments")
            return 2
        try:
            baseline = load_metrics(args.compare[0])
            candidate = load_metrics(args.compare[1])
            baseline.setdefault("label", args.compare[0])
            candidate.setdefault("label", args.compare[1])
            cmp = compare_metrics(
                baseline, candidate, tolerance_pct=args.tolerance
            )
            print(render_compare(cmp, fmt=args.format))
        except (OSError, ValueError) as exc:
            log.error("cannot compare metrics: %s", exc)
            return 1
        # exit 3 = gated regression, distinct from render errors (1).
        return 0 if cmp["ok"] else 3
    if not args.metrics:
        log.error("need metrics file(s) or --compare BASELINE CANDIDATE")
        return 2
    try:
        print(render_metrics_files(args.metrics, fmt=args.format))
    except (OSError, ValueError) as exc:
        log.error("cannot render metrics: %s", exc)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .machine.figures import FIGURES, available

    if args.figure == "list" or args.figure not in FIGURES:
        print("available:", ", ".join(available()))
        return 0 if args.figure == "list" else 1
    print(FIGURES[args.figure]())
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .obs.logs import LOG_LEVELS

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--log-level",
        default="info",
        choices=list(LOG_LEVELS),
        help="stderr logging threshold (default info)",
    )

    p = argparse.ArgumentParser(
        prog="manymap",
        description="Long read alignment accelerated on three (modeled) processors",
    )
    p.add_argument("--version", action="version", version=f"manymap {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("index", parents=[common], help="build a minimizer index")
    pi.add_argument("reference", help="reference FASTA")
    pi.add_argument("-o", "--output", required=True, help="index output path")
    pi.add_argument("-k", type=int, default=15, help="k-mer size")
    pi.add_argument("-w", type=int, default=10, help="minimizer window")
    pi.set_defaults(fn=_cmd_index)

    pm = sub.add_parser("map", parents=[common], help="map reads to a reference")
    pm.add_argument("reference", help="reference FASTA")
    pm.add_argument("reads", help="reads FASTA/FASTQ")
    pm.add_argument("-o", "--output", help="output file (default stdout)")
    pm.add_argument("-x", "--preset", default="map-pb", help="parameter preset")
    pm.add_argument(
        "--engine",
        default="manymap",
        choices=["manymap", "mm2", "scalar", "reference"],
        help="base-level DP engine",
    )
    pm.add_argument(
        "--kernel",
        default=None,
        choices=_kernel_choices(),
        help="DP kernel-dispatch selection: a registered kernel "
        "('wavefront' batches DP across reads), 'none' for the legacy "
        "per-pair path, or omit for the default ('wavefront' when "
        "--engine is manymap). Output is identical either way.",
    )
    pm.add_argument(
        "-p",
        "--processes",
        type=int,
        default=1,
        help="mapping worker processes: above 1, an overlapped "
        "read/compute/write pipeline over an mmap-shared index",
    )
    pm.add_argument(
        "--chunk-reads",
        type=int,
        default=32,
        help="max reads per scheduling chunk; also sizes the bounded "
        "read batches, so it caps resident memory on every backend",
    )
    pm.add_argument("--sam", action="store_true", help="emit SAM instead of PAF")
    pm.add_argument("--no-cigar", action="store_true", help="skip path DP")
    pm.add_argument(
        "--metrics",
        metavar="FILE",
        help="write a machine-readable run manifest (stage seconds, "
        "counters, GCUPS, peak RSS) as JSON",
    )
    pm.add_argument(
        "--trace",
        metavar="FILE",
        help="write per-read trace spans (seed/chain/align, worker and "
        "chunk ids) as JSONL, streamed incrementally",
    )
    pm.add_argument(
        "--timeline",
        metavar="FILE",
        help="write a Chrome-trace/Perfetto timeline JSON: one lane per "
        "worker with per-read stage slices, chunk extents, and fault "
        "markers (implies span tracing for the run)",
    )
    pm.add_argument(
        "--progress",
        metavar="SECONDS",
        type=float,
        nargs="?",
        const=2.0,
        default=None,
        help="emit a live progress heartbeat (reads done, reads/s, "
        "GCUPS, queue depths, ETA) to stderr every SECONDS "
        "(default 2.0 when the flag is given bare)",
    )
    pm.add_argument(
        "--progress-file",
        metavar="FILE",
        help="also append each heartbeat as a JSON record to FILE",
    )
    pm.add_argument(
        "--status-port",
        metavar="PORT",
        type=int,
        default=None,
        help="serve a live status endpoint on 127.0.0.1:PORT for the "
        "duration of the run: /metrics (OpenMetrics/Prometheus), "
        "/status (JSON heartbeat + queues + faults + ETA), /events, "
        "/healthz; PORT 0 binds a free port (logged at startup)",
    )
    pm.add_argument(
        "--events",
        metavar="FILE",
        help="mirror the structured event stream (dispatch decisions, "
        "pool respawns, faults, heartbeats) to FILE as JSONL",
    )
    pm.add_argument(
        "--on-error",
        default="abort",
        choices=["abort", "skip", "retry"],
        help="per-read fault policy: abort the run (default), skip "
        "failing reads (quarantine on first error), or retry them "
        "--max-retries times before quarantining",
    )
    pm.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="attempts beyond the first for --on-error retry (default 2)",
    )
    pm.add_argument(
        "--read-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-read watchdog: when seed+chain exceeds this budget, "
        "downgrade the alignment to the cheap no-CIGAR pass instead of "
        "hanging a worker (the paper's oversized-problem CPU fallback)",
    )
    pm.add_argument(
        "--failed-reads",
        metavar="FILE",
        help="sidecar FASTQ for quarantined reads; a FILE.reasons.jsonl "
        "log with structured fault records rides along",
    )
    pm.add_argument(
        "--inject-faults",
        metavar="FILE",
        help="testing hook: JSON list of deterministic fault specs "
        "(read/kind/times) injected by read name; see "
        "repro.testing.faults",
    )
    pm.add_argument(
        "--run-dir",
        metavar="DIR",
        help="make the run durable: write output and a write-ahead "
        "journal into DIR (fsynced commit every --commit-reads reads) "
        "so a killed run can be resumed byte-identically with "
        "`manymap resume DIR`; -o (if given) is published atomically "
        "from the committed output at the end",
    )
    pm.add_argument(
        "--resume",
        action="store_true",
        help="continue the journaled run in --run-dir from its last "
        "verified commit instead of starting fresh",
    )
    pm.add_argument(
        "--commit-reads",
        type=int,
        default=256,
        metavar="N",
        help="durable-commit cadence for --run-dir: fsync output + "
        "journal every N reads (default 256); smaller = less re-mapped "
        "after a crash, more fsyncs",
    )
    _add_trace_flags(pm)
    pm.set_defaults(fn=_cmd_map)

    pz = sub.add_parser(
        "resume",
        parents=[common],
        help="resume a killed `map --run-dir` run from its directory",
    )
    pz.add_argument(
        "run_dir",
        help="the --run-dir of the interrupted `manymap map` run",
    )
    pz.set_defaults(fn=_cmd_resume)

    pv = sub.add_parser(
        "serve",
        parents=[common],
        help="serve mapping over HTTP: resident index, adaptive "
        "request batching, per-tenant admission control",
    )
    pv.add_argument("reference", help="reference FASTA")
    pv.add_argument(
        "-i", "--index", help="saved .mmi index to mmap (kept resident)"
    )
    pv.add_argument("-x", "--preset", default="map-pb", help="parameter preset")
    pv.add_argument(
        "--engine",
        default="manymap",
        choices=["manymap", "mm2", "scalar", "reference"],
        help="base-level DP engine",
    )
    pv.add_argument(
        "--kernel",
        default=None,
        choices=_kernel_choices(),
        help="DP kernel-dispatch selection (see map --kernel)",
    )
    pv.add_argument("--host", default="127.0.0.1", help="bind address")
    pv.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port; 0 asks the OS for a free one (default 8765)",
    )
    pv.add_argument(
        "--max-batch-reads",
        type=int,
        default=64,
        help="upper bound on reads coalesced into one mapping batch",
    )
    pv.add_argument(
        "--min-batch-reads",
        type=int,
        default=4,
        help="floor the adaptive batch target never shrinks below",
    )
    pv.add_argument(
        "--batch-timeout-ms",
        type=float,
        default=20.0,
        help="max wait for coalescing after the first queued request",
    )
    pv.add_argument(
        "--no-adaptive-batching",
        action="store_true",
        help="pin the batch target at --max-batch-reads instead of "
        "adapting it against observed p99 latency",
    )
    pv.add_argument(
        "--latency-target-ms",
        type=float,
        default=500.0,
        help="p99 request-latency target steering the adaptive batch "
        "size (default 500)",
    )
    pv.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="admission queue bound; excess requests are shed with 429",
    )
    pv.add_argument(
        "--max-reads-per-request",
        type=int,
        default=512,
        help="largest accepted request (reads); bigger gets 400",
    )
    pv.add_argument(
        "--tenant-quota",
        type=int,
        default=64,
        help="max outstanding requests per tenant before 429",
    )
    pv.add_argument(
        "--batch-workers",
        type=int,
        default=1,
        help="mapping worker threads executing batches (default 1)",
    )
    pv.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="graceful SIGTERM drain budget before queued requests "
        "are failed with 503",
    )
    pv.add_argument(
        "--events",
        metavar="FILE",
        help="mirror the structured event stream (batches, sheds, "
        "drain) to FILE as JSONL",
    )
    pv.add_argument(
        "--journal",
        metavar="DIR",
        help="journal admitted requests durably in DIR and, on "
        "restart, replay any the previous process died before "
        "answering (results land in DIR/replayed.jsonl)",
    )
    _add_trace_flags(pv)
    pv.set_defaults(fn=_cmd_serve)

    ptr = sub.add_parser(
        "trace",
        parents=[common],
        help="render kept request traces as span trees",
    )
    ptr.add_argument(
        "target",
        help="a --trace-dir directory of trace-<id>.json files, or a "
        "live obs endpoint URL (the serve port or map --status-port)",
    )
    ptr.add_argument("--id", help="render one specific trace by id")
    ptr.add_argument(
        "--slowest",
        type=int,
        default=5,
        metavar="N",
        help="render the N slowest kept traces (default 5)",
    )
    ptr.add_argument(
        "--chrome",
        metavar="FILE",
        help="also export the first rendered trace as a Chrome-trace/"
        "Perfetto JSON (open in chrome://tracing or ui.perfetto.dev)",
    )
    ptr.set_defaults(fn=_cmd_trace)

    ps = sub.add_parser(
        "simulate", parents=[common], help="generate synthetic genome + reads"
    )
    ps.add_argument("--genome-length", type=int, default=1_000_000)
    ps.add_argument("--chromosomes", type=int, default=1)
    ps.add_argument("--n-reads", type=int, default=100)
    ps.add_argument("--platform", default="pacbio", choices=["pacbio", "nanopore"])
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--reference-out", default="ref.fa")
    ps.add_argument("--reads-out", default=None)
    ps.set_defaults(fn=_cmd_simulate)

    pst = sub.add_parser("stats", parents=[common], help="summarize a saved index")
    pst.add_argument("index", help="path to a .mmi index file")
    pst.set_defaults(fn=_cmd_stats)

    pr = sub.add_parser(
        "report",
        parents=[common],
        help="render metrics manifest(s) as a Table 2-style comparison",
    )
    pr.add_argument("metrics", nargs="*", help="one or more --metrics JSON files")
    pr.add_argument(
        "--compare",
        nargs=2,
        metavar=("BASELINE", "CANDIDATE"),
        help="diff two manifests' throughput metrics; exits 3 when a "
        "gated metric (GCUPS, reads/s, bases/s) regressed beyond "
        "--tolerance",
    )
    pr.add_argument(
        "--tolerance",
        type=float,
        default=10.0,
        metavar="PCT",
        help="allowed relative drop per gated metric for --compare "
        "(percent, default 10)",
    )
    pr.add_argument(
        "--trajectory",
        metavar="JSONL",
        help="render a benchmarks/results/BENCH_trajectory.jsonl "
        "perf-trajectory file (one appended record per CI bench run) "
        "instead of metrics manifests",
    )
    pr.add_argument(
        "--format",
        default="table",
        choices=["table", "json", "markdown"],
        help="output rendering (default table)",
    )
    pr.set_defaults(fn=_cmd_report)

    pt = sub.add_parser(
        "top",
        parents=[common],
        help="refreshing terminal dashboard for a mapping run",
    )
    pt.add_argument(
        "target",
        help="a live run's status URL (http://127.0.0.1:PORT, from "
        "map --status-port) or a --progress-file heartbeat JSONL path",
    )
    pt.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh cadence (default 1.0)",
    )
    pt.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (snapshot mode)",
    )
    pt.set_defaults(fn=_cmd_top)

    pb = sub.add_parser(
        "bench", parents=[common], help="print a modeled paper table/figure"
    )
    pb.add_argument("figure", help="fig5|fig6|fig7|fig8|table3|list")
    pb.set_defaults(fn=_cmd_bench)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    from .obs.logs import setup_logging

    raw = list(argv if argv is not None else sys.argv[1:])
    args = build_parser().parse_args(raw)
    args.raw_argv = raw  # verbatim, for `map --run-dir`'s cmdline.json
    setup_logging(getattr(args, "log_level", "info"))
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
