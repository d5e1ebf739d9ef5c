"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload map-clr --seed 1 --seconds 12 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src/``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it print every metric by name and unit, and the run's
provenance (seed, input sizes and hashes, nproc, Python and NumPy
versions), which is also kept with the full report under
``.perfbench-work/results/``.

Exit status: 0 when every output check passed, 1 when one failed (the
result line then says ``"correct": false`` and carries no metrics), 2
when the program or the arguments are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("map-clr", "map-hifi", "map-clr-p2", "serve-clr")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def provenance(args, inputs) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run unwinds like a failed one: the server subprocess
    # is stopped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work_root = ROOT / ".perfbench-work"
    workdir = work_root / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # Temporary files of the program and of the server subprocess stay
    # inside the checkout.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        import workloads as wl

        if args.workload in wl.MAP_WORKLOADS:
            report = wl.run_map(
                args.workload, args.seed, args.seconds, bool(args.trace),
                str(workdir),
            )
        else:
            report = wl.run_serve(
                args.workload, args.seed, args.seconds, bool(args.trace),
                str(workdir), str(ROOT),
            )
    except Exception:  # noqa: BLE001 - any crash is a failed run
        traceback.print_exc()
        print("perfbench: run failed", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = wl.PER_LAYER if args.trace else wl.END_TO_END
    missing = sorted(set(wanted) - set(report.metrics))
    report.check(not missing, f"metrics not measured: {missing}")
    prov = provenance(args, report.notes.pop("inputs", {}))
    correct = not report.failures
    metrics = (
        {name: {"value": report.metrics[name], "unit": unit}
         for name, unit in wanted.items()}
        if correct else {}
    )
    full = {
        "provenance": prov,
        "correct": correct,
        "failures": report.failures,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
        "notes": report.notes,
    }
    results = work_root / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{args.workload}-s{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump(full, fh, indent=2, sort_keys=True)

    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    for key, value in sorted(report.notes.items()):
        print(f"# {key} {json.dumps(value)}")
    for failure in report.failures:
        print(f"# CHECK FAILED: {failure}")
    for name, unit in wanted.items():
        if name in report.metrics:
            print(f"{name:<40} {report.metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, report.attempted),
        "failed": report.failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
