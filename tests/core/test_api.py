"""The public mapping API: surface snapshot, options, sessions.

``repro.api`` is the stable contract — these tests pin its exact
surface (names and signatures) so any change is deliberate, verify the
one-shot facade functions are true thin clients of
:class:`~repro.api.MappingSession`, and prove the PR-3 deprecation
shims are gone for good.
"""

from __future__ import annotations

import inspect
import io

import pytest

import repro
from repro import api
from repro.api import MapOptions, MappingSession
from repro.core.aligner import Aligner
from repro.core.alignment import to_paf
from repro.core.driver import ParallelDriver
from repro.errors import ReproError, SchedulerError
from repro.sim.lengths import LengthModel
from repro.sim.pbsim import ReadSimulator


@pytest.fixture(scope="module")
def setup(small_genome):
    sim = ReadSimulator.preset(small_genome, "pacbio")
    sim.length_model = LengthModel(mean=500.0, sigma=0.4, max_length=1000)
    reads = list(sim.simulate(6, seed=13))
    return Aligner(small_genome, preset="test"), reads


def paf(results):
    return [to_paf(a) for alns in results for a in alns]


def skeleton(fn) -> str:
    """A signature with annotations stripped: name/default shape only."""
    return str(
        inspect.Signature(
            [
                p.replace(annotation=inspect.Parameter.empty)
                for p in inspect.signature(fn).parameters.values()
            ]
        )
    )


class TestSurfaceSnapshot:
    """Changing anything here is an API break — do it on purpose."""

    def test_public_names(self):
        assert api.__all__ == [
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

    def test_api_version(self):
        assert api.API_VERSION == 1

    def test_reexported_from_package_root(self):
        for name in api.__all__:
            assert getattr(repro, name) is getattr(api, name), name
            assert name in repro.__all__

    def test_signatures(self):
        snapshot = {
            "open_index": (
                "(reference, index_path=None, *, preset='map-pb', "
                "engine='manymap', load_mode='mmap')"
            ),
            "map_reads": (
                "(aligner, reads, options=None, *, profile=None, "
                "telemetry=None, **overrides)"
            ),
            "map_file": (
                "(aligner, reads_path, output=None, options=None, *, "
                "sam=False, profile=None, telemetry=None, **overrides)"
            ),
        }
        for name, want in snapshot.items():
            fn = getattr(api, name)
            assert skeleton(fn) == want, f"{name}{inspect.signature(fn)}"

    def test_session_signatures(self):
        snapshot = {
            "open": (
                "(reference, index_path=None, *, preset='map-pb', "
                "engine='manymap', load_mode='mmap', options=None)"
            ),
            "map_reads": (
                "(self, reads, options=None, *, profile=None, "
                "telemetry=None, **overrides)"
            ),
            "map_file": (
                "(self, reads_path, output=None, options=None, *, "
                "sam=False, profile=None, telemetry=None, **overrides)"
            ),
            "map_batch": "(self, reads, with_cigar=True)",
            "map_request": "(self, request)",
        }
        for name, want in snapshot.items():
            # class access binds the classmethod, so `cls` is gone and
            # `self` stays for plain methods — exactly the shape pinned.
            got = skeleton(getattr(MappingSession, name))
            assert got == want, f"{name}{got}"

    def test_map_options_fields(self):
        assert [f.name for f in MapOptions.__dataclass_fields__.values()] == [
            "backend",
            "workers",
            "with_cigar",
            "longest_first",
            "chunk_reads",
            "chunk_bases",
            "index_path",
            "kernel",
            "batch_max",
            "batch_buckets",
            "fault_policy",
            "progress_interval",
            "progress_path",
            "status_port",
            "events_path",
            "run_dir",
            "resume",
            "commit_reads",
            "tracing",
        ]
        assert MapOptions() == MapOptions(
            backend="serial",
            workers=1,
            with_cigar=True,
            longest_first=True,
            chunk_reads=32,
            chunk_bases=1_000_000,
            index_path=None,
            kernel=None,
            batch_max=None,
            batch_buckets=None,
            fault_policy=None,
        )

    def test_request_model_fields(self):
        assert list(api.MapRequest.__dataclass_fields__) == [
            "request_id",
            "reads",
            "tenant",
            "with_cigar",
            "on_error",
            "timeout_ms",
            "trace",
            "api_version",
        ]
        assert list(api.MapResult.__dataclass_fields__) == [
            "request_id",
            "status",
            "read_names",
            "paf",
            "quarantined",
            "error",
            "batch_id",
            "batch_requests",
            "queue_ms",
            "map_ms",
            "total_ms",
            "trace_id",
            "api_version",
        ]
        assert list(api.ServeConfig.__dataclass_fields__) == [
            "host",
            "port",
            "max_batch_reads",
            "min_batch_reads",
            "batch_timeout_ms",
            "adaptive_batching",
            "latency_target_ms",
            "latency_window",
            "max_queue_requests",
            "max_reads_per_request",
            "tenant_quota",
            "batch_workers",
            "drain_timeout_s",
            "tracing",
        ]


class TestMapOptions:
    def test_frozen(self):
        with pytest.raises(Exception):
            MapOptions().workers = 2  # type: ignore[misc]

    def test_replace(self):
        opts = MapOptions().replace(backend="processes", workers=4)
        assert (opts.backend, opts.workers) == ("processes", 4)
        assert MapOptions().workers == 1  # original untouched

    def test_replace_unknown_field(self):
        with pytest.raises(TypeError):
            MapOptions().replace(thread_count=4)

    def test_validated_unknown_backend(self):
        with pytest.raises(SchedulerError, match="unknown backend"):
            MapOptions(backend="gpu").validated()

    @pytest.mark.parametrize(
        "field",
        ["workers", "chunk_reads", "chunk_bases"],
    )
    def test_validated_bounds(self, field):
        with pytest.raises(SchedulerError, match=field):
            MapOptions(**{field: 0}).validated()


class TestFacade:
    def test_open_index_from_genome_and_map(self, setup):
        aligner, reads = setup
        serial = paf(api.map_reads(aligner, reads))
        got = paf(api.map_reads(aligner, reads, backend="processes", workers=2))
        assert got == serial

    def test_open_index_records_source(self, small_genome, tmp_path):
        from repro.index.store import save_index

        base = Aligner(small_genome, preset="test")
        idx = tmp_path / "ref.mmi"
        save_index(base.index, idx)
        aligner = api.open_index(small_genome, idx, preset="test")
        assert aligner.index_source == str(idx)
        plain = api.open_index(small_genome, preset="test")
        assert plain.index_source is None

    def test_overrides_beat_options(self, setup):
        aligner, reads = setup
        opts = MapOptions(backend="serial")
        serial = paf(api.map_reads(aligner, reads, opts))
        streamed = paf(
            api.map_reads(aligner, reads, opts, backend="processes", workers=2)
        )
        assert streamed == serial
        assert opts.backend == "serial"  # options object untouched


class TestMappingSession:
    """The facade functions are thin clients of one session object."""

    def test_session_matches_facade(self, setup):
        aligner, reads = setup
        with MappingSession(aligner) as session:
            assert paf(session.map_reads(reads)) == paf(
                api.map_reads(aligner, reads)
            )

    def test_session_open_matches_open_index(self, small_genome, setup):
        _, reads = setup
        with MappingSession.open(
            small_genome, preset="test"
        ) as session:
            want = paf(
                api.map_reads(api.open_index(small_genome, preset="test"), reads)
            )
            assert paf(session.map_reads(reads)) == want

    def test_session_options_are_defaults(self, setup):
        aligner, reads = setup
        session = MappingSession(
            aligner, MapOptions(backend="processes", workers=2)
        )
        assert paf(session.map_reads(reads)) == paf(
            api.map_reads(aligner, reads)
        )
        # per-call override beats the session default
        assert paf(session.map_reads(reads, backend="serial")) == paf(
            api.map_reads(aligner, reads)
        )

    def test_map_batch_matches_per_read(self, setup):
        aligner, reads = setup
        session = MappingSession(aligner)
        assert paf(session.map_batch(reads)) == paf(
            api.map_reads(aligner, reads)
        )

    def test_closed_session_raises(self, setup):
        aligner, reads = setup
        session = MappingSession(aligner)
        session.close()
        assert session.closed
        with pytest.raises(SchedulerError, match="closed"):
            session.map_reads(reads)

    def test_map_file_thin_client(self, setup, tmp_path):
        from repro.seq.fasta import write_fastq

        aligner, reads = setup
        path = tmp_path / "reads.fq"
        write_fastq(path, reads)
        out_facade, out_session = io.StringIO(), io.StringIO()
        stats = api.map_file(aligner, path, out_facade)
        session_stats = MappingSession(aligner).map_file(path, out_session)
        assert out_facade.getvalue() == out_session.getvalue()
        assert stats.n_reads == session_stats.n_reads == len(reads)


class TestShimRemoval:
    """The PR-3 deprecation shims are gone; only repro.api remains."""

    def test_parallel_map_reads_removed(self):
        import repro.runtime as runtime

        # The threads backend went with its module; -p N is the only
        # parallel path.
        with pytest.raises(ImportError):
            import repro.runtime.parallel  # noqa: F401
        with pytest.raises(ImportError):
            import repro.runtime.threaded  # noqa: F401
        assert "map_reads" not in runtime.__all__
        assert "parallel_map_reads" not in runtime.__all__

    def test_procpool_map_reads_processes_removed(self):
        import repro.runtime as runtime
        import repro.runtime.procpool as procpool

        assert not hasattr(procpool, "map_reads_processes")
        assert "map_reads_processes" not in runtime.__all__
        # The batch submit loop is gone too: processes runs the
        # streaming pipeline; procpool keeps only the worker side.
        assert not hasattr(procpool, "_map_reads_processes")
        assert not hasattr(procpool, "plan_chunks")
        assert hasattr(procpool, "_map_chunk")

    def test_errors_index_alias_removed(self):
        import repro.errors as errs

        with pytest.raises(AttributeError):
            errs.IndexError_

    def test_facade_does_not_warn(self, setup, recwarn):
        aligner, reads = setup
        api.map_reads(aligner, reads, backend="processes", workers=2)
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]


class TestDriverOptions:
    def test_driver_accepts_options(self, setup):
        aligner, reads = setup
        driver = ParallelDriver(
            aligner, options=MapOptions(backend="processes", workers=2)
        )
        assert driver.backend == "processes"
        assert driver.workers == 2
        assert driver.profile.label == "processes[2]"
        out = io.StringIO()
        results = driver.run(reads, output=out)
        assert paf(results) == paf(api.map_reads(aligner, reads))
        assert out.getvalue().splitlines() == paf(results)

    def test_driver_legacy_kwargs_still_work(self, setup):
        aligner, _ = setup
        driver = ParallelDriver(aligner, backend="serial", workers=3)
        assert driver.options == MapOptions(backend="serial", workers=3)

    def test_driver_unknown_backend_raises_repro_error(self, setup):
        aligner, _ = setup
        with pytest.raises(ReproError):
            ParallelDriver(aligner, backend="quantum")
