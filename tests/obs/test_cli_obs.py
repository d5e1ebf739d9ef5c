"""End-to-end CLI checks for --metrics / --trace / --log-level / report."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.schema import validate
from repro.seq.fasta import write_fasta, write_fastq
from repro.seq.genome import GenomeSpec, generate_genome
from repro.sim.lengths import LengthModel
from repro.sim.pbsim import ReadSimulator

SCHEMA = json.loads(
    (Path(__file__).parents[2] / "benchmarks" / "metrics_schema.json")
    .read_text()
)


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliobs")
    genome = generate_genome(GenomeSpec(length=20_000, chromosomes=1), seed=2)
    sim = ReadSimulator.preset(genome, "pacbio")
    sim.length_model = LengthModel(mean=500.0, sigma=0.3, max_length=2000)
    reads = list(sim.simulate(6, seed=4))
    ref = root / "ref.fa"
    fq = root / "reads.fq"
    write_fasta(str(ref), genome.chromosomes)
    write_fastq(str(fq), reads)
    return str(ref), str(fq), reads


def _map(data, tmp_path, *extra):
    ref, fq, _ = data
    out = tmp_path / "out.paf"
    rc = main(
        ["map", ref, fq, "-o", str(out), "--log-level", "warning", *extra]
    )
    assert rc == 0
    return out


class TestMapMetrics:
    def test_metrics_file_schema_valid(self, data, tmp_path):
        metrics = tmp_path / "m.json"
        _map(data, tmp_path, "-x", "test", "--metrics", str(metrics))
        manifest = json.loads(metrics.read_text())
        assert validate(manifest, SCHEMA) == [], validate(manifest, SCHEMA)
        assert manifest["derived"]["dp_cells"] > 0
        assert manifest["derived"]["gcups"] > 0.0
        assert set(manifest["stages"]) >= {
            "Load Index",
            "Load Query",
            "Seed & Chain",
            "Align",
            "Output",
        }

    def test_counters_identical_across_backends(self, data, tmp_path):
        manifests = {}
        for name, flags in {
            "serial": (),
            "processes": ("-p", "2", "--chunk-reads", "2"),
        }.items():
            metrics = tmp_path / f"{name}.json"
            _map(data, tmp_path, "-x", "test", "--metrics", str(metrics), *flags)
            manifests[name] = json.loads(metrics.read_text())
        # wavefront.*/dispatch.* track how DP jobs were pooled, which
        # legitimately varies with backend chunking; everything else
        # must be identical.
        from repro.obs.counters import drop_shape_dependent

        assert (
            drop_shape_dependent(manifests["serial"]["counters"])
            == drop_shape_dependent(manifests["processes"]["counters"])
        )

    def test_trace_one_span_per_read(self, data, tmp_path):
        _, _, reads = data
        trace = tmp_path / "t.jsonl"
        _map(data, tmp_path, "-x", "test", "--trace", str(trace))
        records = [json.loads(l) for l in trace.read_text().splitlines()]
        # First line is the run header carrying the run id.
        assert records[0]["record"] == "run"
        assert records[0]["run_id"]
        spans = records[1:]
        assert sorted(s["read"] for s in spans) == sorted(
            r.name for r in reads
        )
        for span in spans:
            assert set(span["spans"]) == {"seed_chain", "align"}
            assert span["ts"] > 0

    @pytest.mark.parametrize(
        "flags", [("-t", "2"), ("--stream",)], ids=["threads", "stream"]
    )
    def test_removed_backend_flags_rejected(self, data, capsys, flags):
        """-p N is the only worker-count flag; the old ones are usage
        errors."""
        ref, fq, _ = data
        with pytest.raises(SystemExit) as exc:
            main(["map", ref, fq, *flags])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestTimelineAndProgress:
    # "streaming" drives the -p pipeline with one read per chunk over
    # three workers, so its six chunks can finish out of order and the
    # writer must put them back in input order.
    BACKENDS = {
        "serial": (),
        "processes": ("-p", "2", "--chunk-reads", "2"),
        "streaming": ("-p", "3", "--chunk-reads", "1"),
    }

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_full_observability_run(self, data, tmp_path, backend):
        """--metrics + --timeline + --progress together on every backend."""
        _, _, reads = data
        metrics = tmp_path / "m.json"
        timeline = tmp_path / "t.json"
        beats = tmp_path / "p.jsonl"
        _map(
            data,
            tmp_path,
            "-x",
            "test",
            "--metrics",
            str(metrics),
            "--timeline",
            str(timeline),
            "--progress",
            "0.05",
            "--progress-file",
            str(beats),
            *self.BACKENDS[backend],
        )
        manifest = json.loads(metrics.read_text())
        assert validate(manifest, SCHEMA) == [], validate(manifest, SCHEMA)
        assert manifest["schema_version"] == 9
        assert manifest["run_id"]
        hists = manifest["histograms"]
        assert hists["read.length"]["count"] == len(reads)
        for name in ("latency.seed_chain_s", "latency.align_s",
                     "latency.read_s"):
            h = hists[name]
            assert h["count"] == len(reads)
            assert h["min"] <= h["p50"] <= h["p90"] <= h["p99"] <= h["max"]
        doc = json.loads(timeline.read_text())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        # one slice per stage per read (chunk extents ride on top)
        assert len(slices) >= 2 * len(reads)
        assert doc["otherData"]["run_id"] == manifest["run_id"]
        lanes = {}
        for e in slices:
            lanes.setdefault((e["pid"], e["tid"]), []).append(e["ts"])
        for key, ts in lanes.items():
            assert ts == sorted(ts), key
        records = [json.loads(l) for l in beats.read_text().splitlines()]
        assert records and records[-1]["final"] is True
        assert records[-1]["reads_done"] == len(reads)
        assert all(r["run_id"] == manifest["run_id"] for r in records)

    def test_timeline_reuses_trace_sink(self, data, tmp_path):
        """--trace + --timeline: spans spill to the sink, then re-read."""
        _, _, reads = data
        trace = tmp_path / "t.jsonl"
        timeline = tmp_path / "t.json"
        _map(
            data,
            tmp_path,
            "-x",
            "test",
            "--trace",
            str(trace),
            "--timeline",
            str(timeline),
        )
        doc = json.loads(timeline.read_text())
        stage = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] in ("seed_chain", "align")
        ]
        assert len(stage) == 2 * len(reads)

    def test_paf_identical_with_observability(self, data, tmp_path):
        """The full observability stack must not perturb the output."""
        plain = _map(data, tmp_path, "-x", "test")
        loud_dir = tmp_path / "loud"
        loud_dir.mkdir()
        loud = _map(
            data,
            loud_dir,
            "-x",
            "test",
            "--metrics",
            str(loud_dir / "m.json"),
            "--timeline",
            str(loud_dir / "t.json"),
            "--trace",
            str(loud_dir / "t.jsonl"),
            "--progress",
            "0.05",
            "--progress-file",
            str(loud_dir / "p.jsonl"),
        )
        assert loud.read_bytes() == plain.read_bytes()


class TestStatusServerE2E:
    """The live telemetry plane, end to end, against a real process.

    One ``-p 2`` pipeline run with ``--status-port 0``:
    mid-run, ``/metrics`` must serve parseable OpenMetrics and
    ``/status`` a monotonically increasing ``reads_done``; afterwards
    the PAF must be byte-identical to a run with the status plane off.
    """

    N_READS = 48

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("statusd_e2e")
        genome = generate_genome(
            GenomeSpec(length=40_000, chromosomes=1), seed=7
        )
        sim = ReadSimulator.preset(genome, "pacbio")
        sim.length_model = LengthModel(mean=800.0, sigma=0.4, max_length=3000)
        reads = list(sim.simulate(self.N_READS, seed=8))
        ref = root / "ref.fa"
        fq = root / "reads.fq"
        write_fasta(str(ref), genome.chromosomes)
        write_fastq(str(fq), reads)
        return str(ref), str(fq)

    def _spawn(self, corpus, out_paf, *extra):
        ref, fq = corpus
        src = str(Path(__file__).parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "map", ref, fq,
                "-o", str(out_paf), "--preset", "test",
                "-p", "2", "--chunk-reads", "4",
                *extra,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )

    def _await_url(self, proc, timeout=60.0):
        """Parse the bound status URL from the run's stderr log."""
        pattern = re.compile(r"listening on (http://127\.0\.0\.1:\d+)")
        url = None
        deadline = time.monotonic() + timeout
        lines = []
        while time.monotonic() < deadline:
            line = proc.stderr.readline()
            if not line:
                break
            lines.append(line)
            m = pattern.search(line)
            if m:
                url = m.group(1)
                break
        assert url, "no status-server URL in stderr:\n" + "".join(lines)
        # keep draining stderr so the child never blocks on the pipe
        drain = threading.Thread(
            target=lambda: proc.stderr.read(), daemon=True
        )
        drain.start()
        return url

    def test_status_plane_live_poll_and_byte_identity(self, corpus, tmp_path):
        with_status = tmp_path / "with_status.paf"
        proc = self._spawn(
            corpus, with_status, "--status-port", "0",
            "--events", str(tmp_path / "events.jsonl"),
        )
        try:
            url = self._await_url(proc)
            seen = []
            metrics_body = None
            while proc.poll() is None:
                try:
                    with urllib.request.urlopen(
                        url + "/status", timeout=5
                    ) as resp:
                        seen.append(json.loads(resp.read())["reads_done"])
                    if metrics_body is None:
                        with urllib.request.urlopen(
                            url + "/metrics", timeout=5
                        ) as resp:
                            assert resp.headers["Content-Type"].startswith(
                                "application/openmetrics-text"
                            )
                            metrics_body = resp.read().decode()
                except (urllib.error.URLError, OSError):
                    pass  # server tearing down as the run finishes
                time.sleep(0.05)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # /status was reachable mid-run and counted monotonically.
        assert seen, "never reached /status while the run was live"
        assert seen == sorted(seen), seen
        assert seen[-1] <= self.N_READS
        # /metrics parsed as OpenMetrics exposition text.
        assert metrics_body is not None
        assert metrics_body.endswith("# EOF\n")
        for line in metrics_body.splitlines():
            if not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                assert name
                float(value)

        # The event stream recorded the run's chunk lifecycle.
        events = [
            json.loads(l)
            for l in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        kinds = {e["kind"] for e in events}
        assert "chunk.done" in kinds, kinds

        # Byte-identity: the status plane must not perturb the output.
        plain = tmp_path / "plain.paf"
        proc = self._spawn(corpus, plain)
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        assert with_status.read_bytes() == plain.read_bytes()


class TestReportCommand:
    def test_report_single(self, data, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        _map(data, tmp_path, "-x", "test", "--metrics", str(metrics))
        assert main(["report", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "Align" in out and "GCUPS" in out and "Counters" in out

    def test_report_compare(self, data, tmp_path, capsys):
        paths = []
        for i, flags in enumerate([(), ("-p", "2")]):
            metrics = tmp_path / f"r{i}.json"
            _map(data, tmp_path, "-x", "test", "--metrics", str(metrics), *flags)
            paths.append(str(metrics))
        assert main(["report", *paths]) == 0
        out = capsys.readouterr().out
        assert "serial[1]" in out and "processes[2]" in out
        assert "Total" in out

    def test_report_missing_file(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.json")]) == 1

    def test_report_no_args_is_usage_error(self):
        assert main(["report"]) == 2

    def test_report_formats(self, data, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        _map(data, tmp_path, "-x", "test", "--metrics", str(metrics))
        assert main(["report", str(metrics), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 9
        assert main(["report", str(metrics), "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert "| Stage |" in out and "| GCUPS |" in out
        assert "| read.length |" in out  # histogram table rides along


class TestTopCommand:
    def test_top_once_on_heartbeat_file(self, data, tmp_path, capsys):
        beats = tmp_path / "p.jsonl"
        _map(
            data, tmp_path, "-x", "test",
            "--progress", "0.05", "--progress-file", str(beats),
        )
        assert main(["top", str(beats), "--once", "--interval", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "manymap top" in out and "reads" in out

    def test_top_missing_file(self, tmp_path, capsys):
        rc = main(["top", str(tmp_path / "nope.jsonl"), "--once"])
        assert rc == 1
        assert "no such file" in capsys.readouterr().err


class TestTrajectoryReport:
    def _write(self, path, benches):
        recs = [
            {
                "record": "bench",
                "bench": b,
                "created_unix": 1_754_000_000.0 + i,
                "commit": "deadbeefcafe1234",
                "reads_per_s": 10.0 * (i + 1),
                "gcups": 0.5,
                "peak_rss_bytes": 1 << 20,
            }
            for i, b in enumerate(benches)
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        return recs

    def test_renders_table(self, tmp_path, capsys):
        traj = tmp_path / "t.jsonl"
        self._write(traj, ["wavefront", "metrics_smoke"])
        assert main(["report", "--trajectory", str(traj)]) == 0
        out = capsys.readouterr().out
        assert "wavefront" in out and "metrics_smoke" in out
        assert "deadbeefca" in out

    def test_serve_columns_appear_when_any_record_has_them(
        self, tmp_path, capsys
    ):
        traj = tmp_path / "t.jsonl"
        recs = self._write(traj, ["wavefront", "serve_smoke"])
        recs[1]["rps"] = 42.5
        recs[1]["p99_ms"] = 18.25
        traj.write_text("".join(json.dumps(r) + "\n" for r in recs))
        assert main(["report", "--trajectory", str(traj)]) == 0
        out = capsys.readouterr().out
        assert "rps" in out and "p99 ms" in out
        assert "42.5" in out and "18.2" in out
        # the map-only record renders "-" in the serve columns
        wavefront_row = next(l for l in out.splitlines() if "wavefront" in l)
        assert wavefront_row.rstrip("| ").endswith("-")

    def test_no_serve_columns_for_map_only_history(self, tmp_path, capsys):
        traj = tmp_path / "t.jsonl"
        self._write(traj, ["wavefront"])
        assert main(["report", "--trajectory", str(traj)]) == 0
        out = capsys.readouterr().out
        assert "rps" not in out and "p99 ms" not in out

    def test_conflicts_with_positionals(self, tmp_path):
        traj = tmp_path / "t.jsonl"
        self._write(traj, ["wavefront"])
        assert main(["report", str(traj), "--trajectory", str(traj)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["report", "--trajectory", str(tmp_path / "no.jsonl")]) == 1


class TestCompareCLI:
    @pytest.fixture(scope="class")
    def manifest_path(self, data, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cmp")
        metrics = tmp / "base.json"
        _map(data, tmp, "-x", "test", "--metrics", str(metrics))
        return metrics

    def _degraded(self, manifest_path, tmp_path, factor=10.0):
        m = json.loads(manifest_path.read_text())
        for key in ("gcups", "reads_per_sec", "bases_per_sec"):
            m["derived"][key] = m["derived"][key] / factor
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(m))
        return path

    def test_self_compare_passes(self, manifest_path, capsys):
        rc = main(
            ["report", "--compare", str(manifest_path), str(manifest_path)]
        )
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_injected_regression_exits_3(self, manifest_path, tmp_path, capsys):
        bad = self._degraded(manifest_path, tmp_path)
        rc = main(["report", "--compare", str(manifest_path), str(bad)])
        assert rc == 3
        out = capsys.readouterr().out
        assert "FAIL: regression in" in out and "gcups" in out

    def test_tolerance_flag(self, manifest_path, tmp_path):
        # A 2x drop passes with a generous enough tolerance.
        bad = self._degraded(manifest_path, tmp_path, factor=2.0)
        rc = main(
            [
                "report",
                "--compare",
                str(manifest_path),
                str(bad),
                "--tolerance",
                "60",
            ]
        )
        assert rc == 0

    def test_compare_json_format(self, manifest_path, tmp_path, capsys):
        bad = self._degraded(manifest_path, tmp_path)
        rc = main(
            [
                "report",
                "--compare",
                str(manifest_path),
                str(bad),
                "--format",
                "json",
            ]
        )
        assert rc == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert set(doc["regressions"]) == {
            "gcups",
            "reads_per_sec",
            "bases_per_sec",
        }

    def test_compare_plus_positionals_rejected(self, manifest_path):
        rc = main(
            [
                "report",
                str(manifest_path),
                "--compare",
                str(manifest_path),
                str(manifest_path),
            ]
        )
        assert rc == 2

    def test_compare_missing_file(self, manifest_path, tmp_path):
        rc = main(
            [
                "report",
                "--compare",
                str(manifest_path),
                str(tmp_path / "nope.json"),
            ]
        )
        assert rc == 1
