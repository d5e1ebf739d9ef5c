"""The four workloads: three one-shot map runs and one served run.

``BENCHMARK.json`` names two of them, ``map-clr`` and ``serve-clr``;
``map-hifi`` and ``map-clr-p2`` run the same way by hand.

Each ``run_*`` function makes its inputs from the seed, measures for
about ``seconds`` seconds, checks the program's output, and returns a
:class:`Report`. With ``trace`` it also times the layers from outside
(:mod:`layers`) and reports per-layer metrics instead of end-to-end
ones; end-to-end numbers only ever come from untraced runs.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import select
import signal
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import MapOptions, MappingSession, MapRequest
from repro.core.profiling import PipelineProfile
from repro.eval.accuracy import evaluate_accuracy
from repro.eval.paf import parse_paf
from repro.obs.counters import COUNTERS, counter_delta
from repro.obs.events import EVENTS
from repro.serve.client import ServeClient

import inputs as inp
import layers as lay
import loadgen
import stats

# --------------------------------------------------------------------- #
# Fixed settings. Changing any of them changes what the benchmark
# measures, so a change here is a benchmark change, never part of an
# optimisation.

#: session opens per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: server spawns per run; the serve ``setup_s`` is their median.
SERVE_SETUP_REPS = 3
#: timed passes over the input, at least, whatever ``--seconds`` says.
MIN_PASSES = 3
#: reads per request, and distinct reads the requests draw from.
READS_PER_REQUEST = 2
SERVE_POOL_READS = 100
#: requests of the measured closed loop, at least (p90 needs 100); the
#: untraced loop sends further blocks of ``SERVE_BLOCK`` until
#: ``--seconds`` pass, the traced run exactly this many with and
#: without the timers.
SERVE_REQUESTS = 150
SERVE_BLOCK = 50
#: open-loop rate of the ``busy`` phase: about 70% of the saturated
#: rate of 2-read CLR requests on two connections (~5 requests/s on a
#: 2-core x86 box). Fixed, so a faster server shows lower latency here.
BUSY_RPS = 3.5
#: requests of the traced run's open-loop phase: 100 for its p90, and
#: no more, so the traced run stays within its time limit.
BUSY_MIN_REQUESTS = 100
#: a request not answered within this fails and is charged this long.
TIMEOUT_S = 60.0
#: accuracy gates: a run outside them fails its output check. The
#: aligner reaches ~100% sensitivity and ~0% errors on these reads; a
#: handful of lost or misplaced reads in 100 is a regression, not noise.
MIN_SENSITIVITY_PCT = 95.0
MAX_ERROR_RATE_PCT = 3.0


@dataclass(frozen=True)
class MapSpec:
    reads: inp.ReadShape
    n_reads: int
    backend: str = "serial"
    workers: int = 1
    #: a serial workload's traced run also maps its input once on the
    #: processes backend with this many workers, reads the ``runtime``
    #: layer off that pass and checks its PAF against the serial one.
    probe_workers: int = 0


#: ``map-clr-p2`` maps 4x the ``map-clr`` reads: at 60 reads the
#: processes backend cut a pass into two chunks, one per worker, so the
#: wall was the slower worker's; 240 reads make eight chunks that the
#: pool balances. Its PAF must equal the serial PAF of the same input.
MAP_WORKLOADS = {
    "map-clr": MapSpec(inp.CLR, 60, probe_workers=2),
    "map-hifi": MapSpec(inp.HIFI_READS, 96),
    "map-clr-p2": MapSpec(inp.CLR, 240, backend="processes", workers=2),
}

#: end-to-end metrics and units, printed by every untraced run.
END_TO_END = {
    "reads_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "p90_ms": "ms",
}

#: per-layer metrics and units, printed by every traced run. A layer a
#: workload does not pass through reads 0; a layer whose entry point
#: could not be wrapped (or runs in a worker process) reads -1.
PER_LAYER = {
    "seq.fasta.parse_s": "s",
    "runtime.dispatch_s": "s",
    "chain.anchors.s": "s",
    "chain.anchors.count": "count",
    "chain.chain.s": "s",
    "chain.chain.chains": "count",
    "core.aligner.self_s": "s",
    "align.dispatch.s": "s",
    "align.dispatch.jobs": "count",
    "align.dispatch.batched_jobs": "count",
    "align.dispatch.fallback_jobs": "count",
    "align.dispatch.fallback.thin_bucket": "count",
    "align.dispatch.fallback.oversize": "count",
    "align.dispatch.fallback.unbatchable_band": "count",
    "align.dispatch.fallback.capability": "count",
    "align.wavefront_batch.s": "s",
    "align.wavefront_batch.calls": "count",
    "align.wavefront_batch.occupancy_pct": "%",
    "align.wavefront_batch.gcups": "GCUPS",
    "align.manymap_kernel.s": "s",
    "core.alignment.format_s": "s",
    "output.write_s": "s",
    "index.build_s": "s",
    "runtime.worker_busy_s": "s",
    "runtime.worker_busy_frac": "ratio",
    "runtime.chunks": "count",
    "serve.admission.queue_ms": "ms",
    "serve.admission.shed": "count",
    "serve.batcher.map_ms": "ms",
    "serve.batcher.requests_per_batch": "count",
    "serve.server.http_ms": "ms",
    "serve.busy.p50_ms": "ms",
    "serve.busy.p90_ms": "ms",
    "loadgen.late_ms": "ms",
    "sensitivity_pct": "%",
    "error_rate_pct": "%",
    "failed_pct": "%",
    "trace.wall_s": "s",
    "unattributed_pct": "%",
    "trace.overhead_ratio": "ratio",
}

#: layer -> its self-time metric.
_LAYER_METRIC = {
    "seq.fasta.parse": "seq.fasta.parse_s",
    "runtime.dispatch": "runtime.dispatch_s",
    "chain.anchors": "chain.anchors.s",
    "chain.chain": "chain.chain.s",
    "core.aligner": "core.aligner.self_s",
    "align.dispatch": "align.dispatch.s",
    "align.wavefront_batch": "align.wavefront_batch.s",
    "align.manymap_kernel": "align.manymap_kernel.s",
    "core.alignment.format": "core.alignment.format_s",
    "output.write": "output.write_s",
    "index.build": "index.build_s",
}

#: layers a process-backend run executes in its workers, out of reach
#: of the parent's timers.
_WORKER_LAYERS = (
    "chain.anchors", "chain.chain", "core.aligner", "align.dispatch",
    "align.wavefront_batch", "align.manymap_kernel",
)

UNMEASURED = -1.0


@dataclass
class Report:
    """What one run measured and whether the output checked out."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


# --------------------------------------------------------------------- #
# Shared helpers


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of ``pid`` (default: this process)."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def children_peak_rss_mb() -> float:
    """Largest peak RSS among this process's waited-for children."""
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class StampedSink:
    """File handle that notes when each output record was completed."""

    def __init__(self, handle, clock=time.perf_counter):
        self._handle = handle
        self._clock = clock
        self.stamps: List[float] = []

    def write(self, text: str) -> int:
        n = self._handle.write(text)
        if text.endswith("\n"):
            self.stamps.append(self._clock())
        return n


def paf_by_read(lines: List[str]) -> Dict[str, Tuple[str, ...]]:
    grouped: Dict[str, List[str]] = defaultdict(list)
    for line in lines:
        grouped[line.split("\t", 1)[0]].append(line)
    return {name: tuple(v) for name, v in grouped.items()}


def add_accuracy(report: Report, sim_reads, paf_lines: List[str]) -> None:
    """Table 5 accuracy of PAF lines against the simulator's truth."""
    by_read: Dict[str, list] = defaultdict(list)
    for aln in parse_paf(paf_lines):
        by_read[aln.qname].append(aln)
    acc = evaluate_accuracy(sim_reads, [by_read.get(r.name, []) for r in sim_reads])
    sensitivity = 100.0 * acc.sensitivity
    error_rate = 100.0 * acc.error_rate
    report.metrics["sensitivity_pct"] = sensitivity
    report.metrics["error_rate_pct"] = error_rate
    report.check(
        sensitivity >= MIN_SENSITIVITY_PCT,
        f"sensitivity {sensitivity:.2f}% below {MIN_SENSITIVITY_PCT}%",
    )
    report.check(
        error_rate <= MAX_ERROR_RATE_PCT,
        f"error rate {error_rate:.2f}% above {MAX_ERROR_RATE_PCT}%",
    )


def layer_metrics(
    report: Report,
    self_s: Dict[str, float],
    measured,
    wall_s: float,
    unreachable=(),
) -> None:
    """Self-time metrics, then the share of ``wall_s`` no layer covered."""
    covered = 0.0
    for layer, metric in _LAYER_METRIC.items():
        if layer not in measured or layer in unreachable:
            report.metrics[metric] = UNMEASURED
            continue
        seconds = self_s.get(layer, 0.0)
        report.metrics[metric] = seconds
        if layer != "index.build":  # set-up, outside the traced wall
            covered += seconds
    report.metrics["trace.wall_s"] = wall_s
    report.metrics["unattributed_pct"] = 100.0 * (wall_s - covered) / wall_s


def counter_metrics(
    report: Report, delta: Dict[str, int], kernel_s: float,
    fallbacks: Dict[str, int],
) -> None:
    m = report.metrics
    m["chain.anchors.count"] = delta.get("anchors_seeded", 0)
    m["chain.chain.chains"] = delta.get("chains_built", 0)
    m["align.dispatch.jobs"] = delta.get("dispatch.jobs", 0)
    m["align.dispatch.batched_jobs"] = delta.get("dispatch.batched_jobs", 0)
    m["align.dispatch.fallback_jobs"] = delta.get("dispatch.fallback_jobs", 0)
    for reason in ("thin_bucket", "oversize", "unbatchable_band", "capability"):
        m[f"align.dispatch.fallback.{reason}"] = fallbacks.get(reason, 0)
    m["align.wavefront_batch.calls"] = delta.get("wavefront.calls", 0)
    active = delta.get("wavefront.cells_active", 0)
    padded = delta.get("wavefront.cells_padded", 0)
    m["align.wavefront_batch.occupancy_pct"] = (
        100.0 * active / padded if padded else 0.0
    )
    m["align.wavefront_batch.gcups"] = (
        active / kernel_s / 1e9 if kernel_s > 0 else 0.0
    )


class EventTally:
    """Sums ``dispatch.fallback`` reasons and counts ``chunk.done``
    events while attached."""

    def __init__(self):
        self.reasons: Dict[str, int] = defaultdict(int)
        self.chunks = 0

    def __call__(self, record: Dict) -> None:
        kind = record.get("kind")
        if kind == "dispatch.fallback":
            for reason, n in (record.get("reasons") or {}).items():
                self.reasons[reason] += n
        elif kind == "chunk.done":
            self.chunks += 1

    def __enter__(self) -> "EventTally":
        EVENTS.add_listener(self)
        return self

    def __exit__(self, *exc) -> None:
        EVENTS.remove_listener(self)


def zero_serve_metrics(report: Report) -> None:
    for name in PER_LAYER:
        if name.startswith(("serve.", "loadgen.")):
            report.metrics[name] = 0.0


# --------------------------------------------------------------------- #
# One-shot map workloads


def _map_pass(session, reads_path, out_path, opts, profile=None, layers=None):
    """Map the file once; returns (wall_s, record stamps from start, sha)."""
    with open(out_path, "w") as fh:
        sink = StampedSink(fh)
        handle = lay.TimedWriter(sink, layers) if layers is not None else sink
        t0 = time.perf_counter()
        session.map_file(reads_path, handle, opts, profile=profile)
        wall = time.perf_counter() - t0
    with open(out_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return wall, [s - t0 for s in sink.stamps], digest


def run_map(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> Report:
    spec = MAP_WORKLOADS[name]
    report = Report()
    data = inp.make_inputs(workdir, seed, spec.reads, spec.n_reads)
    report.notes["inputs"] = data.describe()
    opts = MapOptions(backend=spec.backend, workers=spec.workers)
    out_path = os.path.join(workdir, "out.paf")

    setup = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        session = MappingSession.open(data.ref_path, options=opts)
        setup.append(time.perf_counter() - t0)

    # Warm lazily initialised code paths before timing anything.
    warm = os.path.join(workdir, "warm.fq")
    inp.write_head(data.reads_path, warm, 4)
    session.map_file(warm, io.StringIO(), opts.replace(backend="serial"))

    expected = None
    if spec.backend != "serial":
        # The serial PAF is the reference every backend must reproduce.
        _, _, expected = _map_pass(
            session, data.reads_path, out_path, opts.replace(backend="serial")
        )

    walls: List[float] = []
    lat_ms: List[float] = []
    digests = set()
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, stamps, digest = _map_pass(session, data.reads_path, out_path, opts)
        walls.append(wall)
        lat_ms.extend(1000.0 * s for s in stamps)
        digests.add(digest)
    report.attempted = len(walls) * data.n_reads
    report.check(len(digests) == 1, f"PAF differs between passes: {sorted(digests)}")
    digest = next(iter(digests))
    if expected is not None:
        report.check(
            digest == expected,
            f"{spec.backend} PAF {digest[:12]} != serial PAF {expected[:12]}",
        )
    report.notes["paf_sha256"] = digest
    report.notes["pass_walls_s"] = [round(w, 4) for w in walls]
    with open(out_path) as fh:
        paf_lines = fh.read().splitlines()
    add_accuracy(report, data.sim_reads, paf_lines)

    m = report.metrics
    if not trace:
        m["reads_per_s"] = data.n_reads / stats.median(walls)
        m["setup_s"] = stats.median(setup)
        rss = peak_rss_mb()
        if spec.workers > 1:
            rss += spec.workers * children_peak_rss_mb()
        m["peak_rss_mb"] = rss
        m["p50_ms"] = stats.percentile(lat_ms, 50)
        m["p90_ms"] = stats.percentile(lat_ms, 90)
        return report

    # Traced pass: a fresh session so the index build is timed too, and
    # the wavefront kernel is looked up again after re-registration.
    profile = PipelineProfile()
    before = COUNTERS.totals()
    with lay.Tracer() as tracer, EventTally() as events:
        session = MappingSession.open(data.ref_path, options=opts)
        wall, _, traced = _map_pass(
            session, data.reads_path, out_path, opts,
            profile=profile, layers=tracer.layers,
        )
    report.check(
        traced == digest, f"traced PAF {traced[:12]} != untraced {digest[:12]}"
    )
    self_s, _calls = tracer.layers.totals()
    unreachable = _WORKER_LAYERS if spec.workers > 1 else ()
    layer_metrics(report, self_s, tracer.measured, wall, unreachable)
    delta = counter_delta(COUNTERS.totals(), before)
    counter_metrics(
        report, delta, self_s.get("align.wavefront_batch", 0.0), events.reasons
    )
    busy = profile.seconds("Seed & Chain") + profile.seconds("Align")
    m["runtime.worker_busy_s"] = busy
    m["runtime.worker_busy_frac"] = busy / (spec.workers * wall)
    m["runtime.chunks"] = events.chunks
    if spec.probe_workers:
        # Untraced, on a session opened after the timers came off, and
        # after the counters were read: forked workers would inherit the
        # timers, and their counters would land in the serial totals.
        probe = opts.replace(backend="processes", workers=spec.probe_workers)
        session = MappingSession.open(data.ref_path, options=probe)
        profile = PipelineProfile()
        with EventTally() as events:
            pwall, _, pdigest = _map_pass(
                session, data.reads_path, out_path, probe, profile=profile
            )
        report.check(
            pdigest == digest,
            f"processes PAF {pdigest[:12]} != serial PAF {digest[:12]}",
        )
        busy = profile.seconds("Seed & Chain") + profile.seconds("Align")
        m["runtime.worker_busy_s"] = busy
        m["runtime.worker_busy_frac"] = busy / (spec.probe_workers * pwall)
        m["runtime.chunks"] = events.chunks
    if spec.workers > 1:
        # Worker processes keep their events and kernel timers to
        # themselves; only their counters ship home.
        for name in m:
            if name.startswith("align.dispatch.fallback.") or name.endswith(".gcups"):
                m[name] = UNMEASURED
    m["trace.overhead_ratio"] = wall / stats.median(walls)
    m["failed_pct"] = 0.0
    zero_serve_metrics(report)
    return report


# --------------------------------------------------------------------- #
# The served workload


def _die_with_parent() -> None:
    """In the server child: ask Linux to SIGTERM it when the benchmark
    dies, so a killed run leaves no server behind."""
    import ctypes

    PR_SET_PDEATHSIG = 1
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
    except (OSError, AttributeError):
        pass


class Server:
    """A ``manymap serve`` subprocess on a free local port."""

    def __init__(self, root: str, workdir: str, ref_path: str, dump: Optional[str] = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        cli = ["serve", ref_path, "--port", "0", "--log-level", "warning"]
        if dump is None:
            cmd = [sys.executable, "-m", "repro.cli"] + cli
        else:
            here = os.path.dirname(os.path.abspath(__file__))
            cmd = [sys.executable, os.path.join(here, "serve_traced.py"), dump] + cli
        self._log = open(os.path.join(workdir, "server.log"), "a")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, text=True,
            env=env, cwd=workdir, preexec_fn=_die_with_parent,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("serving on "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.url = line.split()[-1]
            self.client = ServeClient(self.url, timeout_s=TIMEOUT_S)
            deadline = time.monotonic() + 60.0
            while not self.client.healthy():
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class Requests:
    """2-read requests cycling over the read pool, with identity checks."""

    def __init__(self, reads, reference: Dict[str, Tuple[str, ...]]):
        self.reads = reads
        self.reference = reference
        self.mismatches: List[str] = []
        self.served: Dict[str, Tuple[str, ...]] = {}

    def make(self, tag: str, i: int) -> MapRequest:
        k = (i * READS_PER_REQUEST) % len(self.reads)
        chunk = self.reads[k : k + READS_PER_REQUEST]
        return MapRequest.make(chunk, request_id=f"{tag}-{i}")

    def send(self, client: ServeClient, tag: str):
        def send_one(i: int):
            result = client.map(self.make(tag, i))
            if not result.ok:
                raise RuntimeError(f"request {result.request_id}: {result.error}")
            for name, lines in zip(result.read_names, result.paf):
                if lines != self.reference.get(name, ()):
                    self.mismatches.append(name)
                self.served[name] = lines
            return result

        return send_one


def _connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def _ok_results(outcomes) -> list:
    return [o.result for o in outcomes if o.ok]


def run_serve(name: str, seed: int, seconds: float, trace: bool, workdir: str, root: str) -> Report:
    report = Report()
    data = inp.make_inputs(workdir, seed, inp.CLR, SERVE_POOL_READS)
    report.notes["inputs"] = data.describe()
    reads = inp.load_reads(data.reads_path)

    # The one-shot PAF every served read must reproduce.
    reference_out = io.StringIO()
    with MappingSession.open(data.ref_path) as session:
        session.map_file(data.reads_path, reference_out)
    reference = paf_by_read(reference_out.getvalue().splitlines())
    requests = Requests(reads, reference)

    conns = _connections()

    def rounds(server: Server, at_least_s: float = 0.0):
        """Closed loop in rounds of one request per connection, sent
        together, so the batcher can coalesce each round: at least
        ``SERVE_REQUESTS`` requests, in blocks, for ``at_least_s``."""
        send = requests.send(server.client, "r")
        out: list = []
        start = time.perf_counter()
        while (len(out) < SERVE_REQUESTS
               or time.perf_counter() - start < at_least_s):
            base = len(out)
            block = loadgen.lockstep(
                lambda i: send(base + i), SERVE_BLOCK, conns
            )
            for o in block:
                o.index += base
            out.extend(block)
        wall = max(o.done for o in out) - min(o.sent for o in out)
        return out, wall

    def busy(server: Server):
        """Open loop at the fixed busy rate, timed from due times."""
        n = BUSY_MIN_REQUESTS
        return loadgen.open_loop(
            requests.send(server.client, "b"),
            loadgen.poisson_schedule(BUSY_RPS, n, seed),
            conns,
        )

    def warm(server: Server):
        return loadgen.closed_loop(
            requests.send(server.client, "w"), 2 * conns, conns
        )

    m = report.metrics
    if not trace:
        setups = []
        for rep in range(SERVE_SETUP_REPS):
            server = Server(root, workdir, data.ref_path)
            setups.append(server.setup_s)
            if rep < SERVE_SETUP_REPS - 1:
                server.stop()
        with server:
            warm(server)
            out, wall = rounds(server, seconds)
            rss = server.peak_rss_mb()
        _serve_outcomes(report, out)
        latencies = [o.latency_ms(TIMEOUT_S * 1000.0) for o in out]
        m["reads_per_s"] = READS_PER_REQUEST * len(_ok_results(out)) / wall
        m["setup_s"] = stats.median(setups)
        m["peak_rss_mb"] = rss
        m["p50_ms"] = stats.percentile(latencies, 50)
        m["p90_ms"] = stats.percentile(latencies, 90)
    else:
        with Server(root, workdir, data.ref_path) as server:
            warm(server)
            _, untraced_wall = rounds(server)
        dump = os.path.join(workdir, "layers.json")
        with Server(root, workdir, data.ref_path, dump=dump) as server:
            warm_out = warm(server)
            busy_out = busy(server)
            out, wall = rounds(server)
        with open(dump) as fh:
            traced = json.load(fh)
        _serve_outcomes(report, busy_out + out)
        _serve_layers(report, traced, warm_out + busy_out + out, busy_out)
        m["trace.overhead_ratio"] = wall / untraced_wall

    report.check(
        not requests.mismatches,
        f"served PAF differs from one-shot PAF for {sorted(set(requests.mismatches))[:5]}",
    )
    served = [line for lines in requests.served.values() for line in lines]
    add_accuracy(
        report,
        [r for r in data.sim_reads if r.name in requests.served],
        served,
    )
    return report


def _serve_outcomes(report: Report, outcomes) -> None:
    report.attempted = len(outcomes)
    report.failed = sum(1 for o in outcomes if not o.ok)
    errors = sorted({o.error for o in outcomes if not o.ok})
    if errors:
        report.notes["errors"] = errors[:5]
    report.metrics["failed_pct"] = 100.0 * report.failed / max(1, report.attempted)


def _serve_layers(report: Report, traced: Dict, every, busy_out) -> None:
    """Per-layer metrics from the traced server's dump and the results."""
    m = report.metrics
    # The server's own time executing batches is the wall the mapping
    # layers must account for.
    batches: Dict[int, float] = {}
    for r in _ok_results(every):
        batches[r.batch_id] = r.map_ms / 1000.0
    wall = sum(batches.values())
    self_s = traced["self_s"]
    layer_metrics(report, self_s, set(traced["measured"]), wall)
    delta = traced["counters"]
    counter_metrics(
        report, delta, self_s.get("align.wavefront_batch", 0.0),
        traced["fallbacks"],
    )
    busy = [o for o in busy_out if o.ok]
    if busy:
        m["serve.admission.queue_ms"] = stats.median(
            [o.result.queue_ms for o in busy]
        )
        m["serve.batcher.map_ms"] = stats.median([o.result.map_ms for o in busy])
        m["serve.server.http_ms"] = stats.median(
            [o.service_ms - o.result.total_ms for o in busy]
        )
    batches_n = delta.get("serve.batches", 0)
    m["serve.batcher.requests_per_batch"] = (
        delta.get("serve.batch_requests", 0) / batches_n if batches_n else 0.0
    )
    m["serve.admission.shed"] = delta.get("serve.shed", 0)
    m["loadgen.late_ms"] = stats.percentile([o.late_ms for o in busy_out], 90)
    latencies = [o.latency_ms(TIMEOUT_S * 1000.0) for o in busy_out]
    m["serve.busy.p50_ms"] = stats.percentile(latencies, 50)
    m["serve.busy.p90_ms"] = stats.percentile(latencies, 90)
    report.notes["loadgen_behind"] = m["loadgen.late_ms"] > loadgen.BEHIND_MS
    # One batch worker: busy while executing batches, over the span the
    # load generator kept the server supplied.
    span = max(o.done for o in every) - min(o.sent for o in every)
    m["runtime.worker_busy_s"] = wall
    m["runtime.worker_busy_frac"] = wall / span
    m["runtime.chunks"] = 0
