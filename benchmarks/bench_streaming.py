"""Streaming pipeline benchmark: peak RSS flat in input size (§4.4.4).

The point of the processes pipeline is that memory is bounded by the
queue capacities, not the input: ``api.map_file(backend="processes")``
never materializes the read file. This bench measures child-process
peak RSS (``ru_maxrss``) mapping a reads file at 1x and ~10x size two
ways:

* **stream** — the overlapped read/compute/write pipeline with two
  worker processes; its peak is the mapping process's own peak plus
  the largest worker's (``RUSAGE_CHILDREN``, read after the workers
  are joined), so worker memory is counted;
* **slurp**  — the legacy whole-file path (``read_fasta`` then
  ``map_reads``, results materialized), the memory behavior the CLI
  had before every backend was routed through the shared bounded
  reader.

The reads are random (unmappable) sequences so parsing and I/O — the
memory story — dominate, and wall-clock stays CI-friendly. The gate:
growing the input ~10x must grow the slurp path's RSS by several times
more bytes than the stream path's, and the stream path's growth must
stay under a small absolute bound.

Run standalone (CI smoke mode stays well under a minute):

    PYTHONPATH=src python benchmarks/bench_streaming.py --smoke

or via pytest (``pytest benchmarks/bench_streaming.py``). Emits
``benchmarks/results/BENCH_streaming.json`` plus the usual ``.txt``
table.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from _common import RESULTS_DIR, emit, ratio, write_json

JSON_NAME = "BENCH_streaming.json"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: Executed in a child so each (mode, size) gets a fresh peak-RSS
#: counter. Prints one JSON line: peak_rss_bytes + flow stats.
_CHILD = r"""
import json, resource, sys
mode, ref, reads_path = sys.argv[1], sys.argv[2], sys.argv[3]
from repro import api

aligner = api.open_index(ref, preset="test")
children = 0
if mode == "stream":
    # A 4 * 2 * 4 = 32-read look-ahead window and 4-chunk queues; the
    # pool's workers are joined when map_file returns.
    stats = api.map_file(
        aligner, reads_path, None,
        backend="processes", workers=2, chunk_reads=4,
    )
    n_reads, n_mapped = stats.n_reads, stats.n_mapped
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
else:  # slurp: the legacy whole-file materialization
    from repro.seq.fasta import read_fasta
    reads = read_fasta(reads_path)
    results = api.map_reads(aligner, reads, backend="serial")
    n_reads = len(reads)
    n_mapped = sum(1 for alns in results if alns)
own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
peak = (own + children) * 1024
print(json.dumps(
    {"peak_rss_bytes": peak, "n_reads": n_reads, "n_mapped": n_mapped}
))
"""


def _write_inputs(out_dir: Path, smoke: bool) -> Dict[str, Path]:
    """A tiny reference plus 1x / ~10x random (unmappable) read files."""
    from repro.seq.alphabet import random_codes
    from repro.seq.fasta import write_fasta
    from repro.seq.genome import GenomeSpec, generate_genome
    from repro.seq.records import SeqRecord

    genome = generate_genome(
        GenomeSpec(length=40_000, chromosomes=1), seed=23
    )
    ref = out_dir / "_streaming_ref.fa"
    write_fasta(ref, genome.chromosomes)

    n_base = 100 if smoke else 400
    read_len = 10_000
    paths = {"ref": ref}
    for label, n_reads in (("base", n_base), ("big", n_base * 10)):
        path = out_dir / f"_streaming_reads_{label}.fa"
        with open(path, "w") as fh:
            for i in range(n_reads):
                rec = SeqRecord(
                    name=f"r{i}", codes=random_codes(read_len, seed=i)
                )
                fh.write(f">{rec.name}\n{rec.seq}\n")
        paths[label] = path
    return paths


def _measure(mode: str, ref: Path, reads: Path) -> Dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, str(ref), str(reads)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_streaming(smoke: bool = False, out_dir: Path = RESULTS_DIR) -> Dict:
    """Measure peak RSS at both sizes for both paths; return the dict."""
    out_dir.mkdir(exist_ok=True)
    paths = _write_inputs(out_dir, smoke)

    runs: Dict[str, Dict[str, Dict]] = {}
    try:
        for mode in ("stream", "slurp"):
            runs[mode] = {
                size: _measure(mode, paths["ref"], paths[size])
                for size in ("base", "big")
            }
    finally:
        for path in paths.values():
            try:
                os.unlink(path)
            except OSError:
                pass

    growth = {
        mode: runs[mode]["big"]["peak_rss_bytes"]
        - runs[mode]["base"]["peak_rss_bytes"]
        for mode in runs
    }
    result = {
        "benchmark": "streaming",
        "smoke": smoke,
        "read_counts": {
            size: runs["stream"][size]["n_reads"] for size in ("base", "big")
        },
        "peak_rss_bytes": {
            mode: {size: r["peak_rss_bytes"] for size, r in sizes.items()}
            for mode, sizes in runs.items()
        },
        "rss_growth_bytes": growth,
        "stream_growth_over_slurp": ratio(growth["stream"], growth["slurp"]),
    }

    mb = 1024 * 1024
    lines = [
        f"{'path':<8} {'reads 1x':>9} {'reads 10x':>9} "
        f"{'rss 1x':>10} {'rss 10x':>10} {'growth':>10}",
    ]
    for mode in ("stream", "slurp"):
        lines.append(
            f"{mode:<8} {runs[mode]['base']['n_reads']:>9} "
            f"{runs[mode]['big']['n_reads']:>9} "
            f"{runs[mode]['base']['peak_rss_bytes'] / mb:>9.1f}M "
            f"{runs[mode]['big']['peak_rss_bytes'] / mb:>9.1f}M "
            f"{growth[mode] / mb:>9.1f}M"
        )
    lines.append(
        f"\nstream growth / slurp growth: "
        f"{result['stream_growth_over_slurp']:.2f}"
        " (streaming memory is flat in input size)"
    )
    emit("BENCH_streaming", "\n".join(lines))
    write_json(out_dir / JSON_NAME, result)
    return result


def _check(result: Dict) -> List[str]:
    """Lenient-but-meaningful gates; RSS is noisy at small scale."""
    errors: List[str] = []
    growth = result["rss_growth_bytes"]
    mb = 1024 * 1024
    # The whole-file path must visibly pay for the 10x input; if the
    # workload is too small to register (<4 MiB), the comparison is
    # meaningless and we only check the absolute stream bound.
    if growth["slurp"] >= 4 * mb:
        if growth["stream"] > 0.5 * growth["slurp"]:
            errors.append(
                f"stream RSS growth {growth['stream'] / mb:.1f}M not clearly "
                f"below slurp growth {growth['slurp'] / mb:.1f}M"
            )
    if growth["stream"] > 24 * mb:
        errors.append(
            f"stream RSS grew {growth['stream'] / mb:.1f}M over a 10x "
            "input — pipeline memory is not bounded"
        )
    if result["read_counts"]["big"] != 10 * result["read_counts"]["base"]:
        errors.append("10x input did not contain 10x reads")
    return errors


def test_streaming_rss_flat():
    """CI smoke: streaming peak RSS must not scale with input size."""
    result = run_streaming(smoke=True)
    assert _check(result) == [], _check(result)
    assert (RESULTS_DIR / JSON_NAME).exists()


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--smoke", action="store_true", help="small fast workload")
    args = ap.parse_args(argv)
    result = run_streaming(smoke=args.smoke)
    errors = _check(result)
    for err in errors:
        print(f"ERROR: {err}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
