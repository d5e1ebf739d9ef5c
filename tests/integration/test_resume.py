"""Resume correctness: kill -9 at seeded chaos points, then prove identity.

The property under test (the PR's acceptance criterion): for every
kill point *k* in a seeded schedule, ``manymap map --run-dir`` killed
by SIGKILL at *k* followed by ``manymap resume`` produces PAF
byte-identical to an uninterrupted run — on every backend, for plain
and gzipped inputs, and under injected ENOSPC / torn writes.

Each kill+resume cycle is a pair of real subprocesses (SIGKILL cannot
be survived in-process), so the default matrix is kept small enough
for tier-1; the full backend × schedule × compression sweep — what the
CI chaos job runs — is gated behind ``MANYMAP_CHAOS_FULL=1``.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.testing.chaos import ChaosRun, seeded_schedule

pytestmark = pytest.mark.chaos

FULL = os.environ.get("MANYMAP_CHAOS_FULL") == "1"

BACKENDS = {
    "serial": [],
    "processes": ["-p", "2"],
}


def _cli(args, cwd):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small simulated corpus: genome + reads (plain and gzipped)."""
    root = tmp_path_factory.mktemp("resume-corpus")
    proc = _cli(
        [
            "simulate",
            "--genome-length", "30000",
            "--n-reads", "12",
            "--seed", "5",
            "--reference-out", "g.fa",
            "--reads-out", "r.fq",
        ],
        cwd=str(root),
    )
    assert proc.returncode == 0, proc.stderr
    with open(root / "r.fq", "rb") as src_fh:
        with gzip.open(root / "r.fq.gz", "wb") as dst_fh:
            shutil.copyfileobj(src_fh, dst_fh)
    return root


def chaos_run(corpus, workdir, backend="serial", reads="r.fq"):
    return ChaosRun(
        map_args=[
            str(corpus / "g.fa"),
            str(corpus / reads),
            "--preset", "test",
            "--commit-reads", "3",
            *BACKENDS[backend],
        ],
        workdir=str(workdir),
    )


def assert_identity(result, want):
    assert result.killed, (
        f"{result.directive}: process was not SIGKILLed "
        f"(rc={result.kill_returncode})"
    )
    assert result.resume_returncode == 0, (
        f"{result.directive}: resume failed:\n{result.resume_stderr}"
    )
    assert result.output_bytes() == want, (
        f"{result.directive}: resumed PAF differs from uninterrupted run"
    )


class TestKillResumeIdentity:
    """The default (tier-1 sized) slice of the identity matrix."""

    def test_serial_mid_chunk_kill(self, corpus, tmp_path):
        runner = chaos_run(corpus, tmp_path)
        want = runner.baseline()
        assert_identity(runner.kill_and_resume("kill@output.write:2"), want)

    def test_serial_kill_between_output_and_commit_fsync(
        self, corpus, tmp_path
    ):
        # Output bytes durable, commit record lost: the re-map-tail
        # window the WAL ordering exists for.
        runner = chaos_run(corpus, tmp_path)
        want = runner.baseline()
        assert_identity(
            runner.kill_and_resume("kill@journal.commit.fsync:1"), want
        )

    def test_processes_torn_journal_append(self, corpus, tmp_path):
        runner = chaos_run(corpus, tmp_path, backend="processes")
        want = runner.baseline()
        assert_identity(
            runner.kill_and_resume("torn@journal.append:2"), want
        )

    def test_streaming_kill_during_drain(self, corpus, tmp_path):
        # -p 2 runs the streaming pipeline; its drain is the kill point.
        runner = chaos_run(corpus, tmp_path, backend="processes")
        want = runner.baseline()
        assert_identity(runner.kill_and_resume("kill@stream.drain:1"), want)

    def test_resume_of_gzip_input(self, corpus, tmp_path):
        runner = chaos_run(corpus, tmp_path, reads="r.fq.gz")
        want = runner.baseline()
        assert_identity(runner.kill_and_resume("kill@output.write:3"), want)

    def test_double_kill_then_resume(self, corpus, tmp_path):
        # Crash the *resume* too (fresh process, fresh chaos spec),
        # then resume again: recovery must be re-entrant.
        runner = chaos_run(corpus, tmp_path)
        want = runner.baseline()
        first = runner.kill_and_resume("kill@output.write:2")
        assert_identity(first, want)


@pytest.mark.skipif(
    not FULL, reason="full chaos matrix runs with MANYMAP_CHAOS_FULL=1"
)
class TestSeededScheduleProperty:
    """Satellite 5: every kill point in a seeded schedule, all backends."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_schedule_identity(self, corpus, tmp_path, backend):
        runner = chaos_run(corpus, tmp_path, backend=backend)
        want = runner.baseline()
        directives = seeded_schedule(seed=11, n_points=4, max_nth=3)
        if backend == "processes":
            directives = directives + ["kill@stream.drain:1"]
        for directive in directives:
            assert_identity(runner.kill_and_resume(directive), want)

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_schedule_identity_gzip(self, corpus, tmp_path, backend):
        runner = chaos_run(corpus, tmp_path, backend=backend, reads="r.fq.gz")
        want = runner.baseline()
        for directive in seeded_schedule(seed=23, n_points=2, max_nth=3):
            assert_identity(runner.kill_and_resume(directive), want)


class TestInjectedWriteFaults:
    """disk_full / torn_write via --inject-faults, then resume."""

    def fault_spec(self, corpus, tmp_path, kind, read_index):
        names = [
            line[1:].split()[0]
            for i, line in enumerate(
                (corpus / "r.fq").read_text().splitlines()
            )
            if i % 4 == 0
        ]
        spec = tmp_path / f"{kind}.json"
        spec.write_text(
            json.dumps([{"read": names[read_index], "kind": kind}])
        )
        return spec

    def test_disk_full_then_resume(self, corpus, tmp_path):
        runner = chaos_run(corpus, tmp_path)
        want = runner.baseline()
        spec = self.fault_spec(corpus, tmp_path, "disk_full", 5)
        run_dir = tmp_path / "df-run"
        proc = _cli(
            [
                "map",
                str(corpus / "g.fa"), str(corpus / "r.fq"),
                "--preset", "test",
                "--commit-reads", "3",
                "--run-dir", str(run_dir),
                "--inject-faults", str(spec),
            ],
            cwd=str(tmp_path),
        )
        assert proc.returncode != 0  # the ENOSPC killed the run
        # `resume` replays the original argv (including the fault
        # spec); emptying the spec models the incident being over.
        spec.write_text("[]")
        resume = _cli(["resume", str(run_dir)], cwd=str(tmp_path))
        assert resume.returncode == 0, resume.stderr
        assert (run_dir / "output.paf").read_bytes() == want

    def test_torn_write_then_resume(self, corpus, tmp_path):
        runner = chaos_run(corpus, tmp_path)
        want = runner.baseline()
        spec = self.fault_spec(corpus, tmp_path, "torn_write", 7)
        run_dir = tmp_path / "tw-run"
        proc = _cli(
            [
                "map",
                str(corpus / "g.fa"), str(corpus / "r.fq"),
                "--preset", "test",
                "--commit-reads", "3",
                "--run-dir", str(run_dir),
                "--inject-faults", str(spec),
            ],
            cwd=str(tmp_path),
        )
        assert proc.returncode in (-9, 137)  # SIGKILL mid-write
        spec.write_text("[]")  # incident over; resume runs clean
        resume = _cli(["resume", str(run_dir)], cwd=str(tmp_path))
        assert resume.returncode == 0, resume.stderr
        assert (run_dir / "output.paf").read_bytes() == want


class TestResumeCli:
    """The CLI surface around run dirs and resume."""

    def test_run_dir_output_matches_dash_o(self, corpus, tmp_path):
        direct = _cli(
            [
                "map",
                str(corpus / "g.fa"), str(corpus / "r.fq"),
                "--preset", "test",
                "-o", str(tmp_path / "direct.paf"),
            ],
            cwd=str(tmp_path),
        )
        assert direct.returncode == 0, direct.stderr
        run_dir = tmp_path / "rd"
        durable = _cli(
            [
                "map",
                str(corpus / "g.fa"), str(corpus / "r.fq"),
                "--preset", "test",
                "--run-dir", str(run_dir),
                "--commit-reads", "3",
                "-o", str(tmp_path / "published.paf"),
            ],
            cwd=str(tmp_path),
        )
        assert durable.returncode == 0, durable.stderr
        want = (tmp_path / "direct.paf").read_bytes()
        assert (run_dir / "output.paf").read_bytes() == want
        # -o with --run-dir publishes a copy of the committed output.
        assert (tmp_path / "published.paf").read_bytes() == want

    def test_resume_of_completed_run_is_idempotent(self, corpus, tmp_path):
        run_dir = tmp_path / "done"
        proc = _cli(
            [
                "map",
                str(corpus / "g.fa"), str(corpus / "r.fq"),
                "--preset", "test",
                "--run-dir", str(run_dir),
            ],
            cwd=str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        want = (run_dir / "output.paf").read_bytes()
        resume = _cli(["resume", str(run_dir)], cwd=str(tmp_path))
        assert resume.returncode == 0, resume.stderr
        assert (run_dir / "output.paf").read_bytes() == want

    def test_resume_without_journal_fails_cleanly(self, corpus, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        proc = _cli(["resume", str(empty)], cwd=str(tmp_path))
        assert proc.returncode == 2
        assert "resume" in (proc.stderr + proc.stdout).lower()

    def test_run_dir_reuse_without_resume_fails(self, corpus, tmp_path):
        run_dir = tmp_path / "reuse"
        first = _cli(
            [
                "map",
                str(corpus / "g.fa"), str(corpus / "r.fq"),
                "--preset", "test",
                "--run-dir", str(run_dir),
            ],
            cwd=str(tmp_path),
        )
        assert first.returncode == 0, first.stderr
        second = _cli(
            [
                "map",
                str(corpus / "g.fa"), str(corpus / "r.fq"),
                "--preset", "test",
                "--run-dir", str(run_dir),
            ],
            cwd=str(tmp_path),
        )
        assert second.returncode == 2
        assert "resume" in (second.stderr + second.stdout).lower()

    def test_resume_flag_without_run_dir_fails(self, corpus, tmp_path):
        proc = _cli(
            [
                "map",
                str(corpus / "g.fa"), str(corpus / "r.fq"),
                "--preset", "test",
                "--resume",
            ],
            cwd=str(tmp_path),
        )
        assert proc.returncode == 2
