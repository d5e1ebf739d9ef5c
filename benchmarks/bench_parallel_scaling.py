"""Parallel scaling: reads/sec vs workers for both mapping backends.

Measures the serial backend and the processes pipeline (1, 2, 4
workers) over the same simulated read set and asserts they produce
identical alignments.
This is the repo's CPython analogue of the paper's §4.4 scalability
runs (Figure 9): the processes backend runs one full aligner per core
over an mmap-shared index behind an overlapped read/compute/write
pipeline, so it should reach >= 2x the serial backend's reads/sec at
4 workers on >= 4 cores.

Run standalone (CI smoke mode stays well under a minute):

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --smoke

or via pytest (``pytest benchmarks/bench_parallel_scaling.py``).
Emits ``benchmarks/results/BENCH_parallel_scaling.json`` plus the
usual ``.txt`` table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from _common import RESULTS_DIR, append_trajectory, emit, ratio, write_json

from repro.core.aligner import Aligner
from repro.core.alignment import to_paf
from repro.index.store import save_index
from repro import api
from repro.seq.genome import GenomeSpec, generate_genome
from repro.sim.lengths import LengthModel
from repro.sim.pbsim import ReadSimulator

JSON_NAME = "BENCH_parallel_scaling.json"


def _workload(smoke: bool, n_reads: Optional[int] = None):
    genome = generate_genome(
        GenomeSpec(length=60_000 if smoke else 150_000, chromosomes=1),
        seed=11,
    )
    sim = ReadSimulator.preset(genome, "pacbio")
    # The smoke set must stay big enough that a 4-worker process pool's
    # spin-up (fork + per-worker mmap rebuild) is well amortized and
    # every worker gets two default-size (32-read) chunks; smaller
    # chunks lose the cross-read DP batching the serial loop keeps, and
    # the CI >= 2x-over-serial gate would measure that loss instead.
    sim.length_model = LengthModel(
        mean=900.0 if smoke else 1500.0, sigma=0.4, max_length=4000
    )
    reads = sim.simulate(n_reads or (256 if smoke else 512), seed=71)
    return genome, list(reads)


def run_scaling(
    smoke: bool = False,
    worker_counts: Sequence[int] = (1, 2, 4),
    n_reads: Optional[int] = None,
    out_dir: Path = RESULTS_DIR,
) -> Dict:
    """Time every backend at every worker count; return the result dict."""
    genome, reads = _workload(smoke, n_reads)
    aligner = Aligner(genome, preset="test")
    index_path = out_dir / "_scaling_index.mmi"
    out_dir.mkdir(exist_ok=True)
    save_index(aligner.index, index_path)

    def paf(results) -> List[str]:
        return [to_paf(a) for alns in results for a in alns]

    rows: List[Dict] = []
    baseline_paf: Optional[List[str]] = None
    baseline_rps: Optional[float] = None
    identical = True
    try:
        for backend in ("serial", "processes"):
            counts = [1] if backend == "serial" else list(worker_counts)
            for workers in counts:
                t0 = time.perf_counter()
                results = api.map_reads(
                    aligner,
                    reads,
                    backend=backend,
                    workers=workers,
                    with_cigar=True,
                    index_path=str(index_path),
                )
                seconds = time.perf_counter() - t0
                lines = paf(results)
                if baseline_paf is None:
                    baseline_paf = lines
                identical = identical and lines == baseline_paf
                rps = len(reads) / seconds if seconds else float("inf")
                if baseline_rps is None:
                    baseline_rps = rps
                rows.append(
                    {
                        "backend": backend,
                        "workers": workers,
                        "seconds": round(seconds, 4),
                        "reads_per_sec": round(rps, 3),
                        "speedup_vs_serial": round(ratio(rps, baseline_rps), 3),
                    }
                )
    finally:
        try:
            os.unlink(index_path)
        except OSError:
            pass

    by_bw = {(r["backend"], r["workers"]): r["reads_per_sec"] for r in rows}
    max_workers = max(worker_counts)
    result = {
        "benchmark": "parallel_scaling",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "n_reads": len(reads),
        "total_bases": sum(len(r) for r in reads),
        "worker_counts": list(worker_counts),
        "identical_paf": identical,
        "rows": rows,
        "process_over_serial_at_max": round(
            ratio(
                by_bw.get(("processes", max_workers), 0.0),
                by_bw.get(("serial", 1), 0.0),
            ),
            3,
        ),
    }

    table = [f"{'backend':<11}{'workers':>8}{'sec':>9}{'reads/s':>10}{'vs serial':>11}"]
    for r in rows:
        table.append(
            f"{r['backend']:<11}{r['workers']:>8}{r['seconds']:>9.3f}"
            f"{r['reads_per_sec']:>10.2f}{r['speedup_vs_serial']:>10.2f}x"
        )
    table.append(
        f"\nidentical PAF across backends/workers: {identical}"
        f"\nprocesses/serial reads-per-sec ratio at {max_workers} workers: "
        f"{result['process_over_serial_at_max']:.2f}x "
        f"({os.cpu_count()} CPU core(s) visible)"
    )
    emit("BENCH_parallel_scaling", "\n".join(table))
    write_json(out_dir / JSON_NAME, result)
    best = max(rows, key=lambda r: r["reads_per_sec"]) if rows else {}
    append_trajectory(
        "parallel_scaling",
        reads_per_s=best.get("reads_per_sec", 0.0),
        backend=best.get("backend", ""),
        workers=best.get("workers", 0),
    )
    return result


def test_parallel_scaling_smoke():
    """CI smoke: identical output everywhere; speedup asserted on >=4 cores."""
    res = run_scaling(smoke=True, worker_counts=(1, 2, 4))
    assert res["identical_paf"], "backends disagreed on alignments"
    assert (RESULTS_DIR / JSON_NAME).exists()
    if (os.cpu_count() or 1) >= 4:
        assert res["process_over_serial_at_max"] >= 2.0, (
            "process backend should be >= 2x the serial backend at 4 "
            f"workers on >= 4 cores, got {res['process_over_serial_at_max']}x"
        )


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--smoke", action="store_true", help="small fast workload")
    ap.add_argument(
        "--workers",
        default="1,2,4",
        help="comma-separated worker counts (default 1,2,4)",
    )
    ap.add_argument("--n-reads", type=int, default=None)
    args = ap.parse_args(argv)
    counts = tuple(int(w) for w in args.workers.split(","))
    res = run_scaling(smoke=args.smoke, worker_counts=counts, n_reads=args.n_reads)
    if not res["identical_paf"]:
        print("ERROR: backends produced different alignments", file=sys.stderr)
        return 1
    edge = res["process_over_serial_at_max"]
    if (os.cpu_count() or 1) >= 4 and max(counts) >= 4 and edge < 2.0:
        print(
            f"ERROR: process backend only {edge:.2f}x the serial backend "
            f"at {max(counts)} workers on a >=4-core machine (want >= 2x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
