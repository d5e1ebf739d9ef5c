"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import importlib
import io

import pytest

import inputs
import layers
import loadgen
import stats
from repro.align.dispatch import get_kernel
from repro.api import MappingSession


def test_same_seed_same_inputs_new_seed_new_inputs(tmp_path):
    hashes = []
    for i, seed in enumerate((5, 5, 6)):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        hashes.append(inputs.make_inputs(str(workdir), seed, inputs.CLR, 4).sha256)
    assert hashes[0] == hashes[1]
    assert hashes[2] != hashes[0]


def test_percentile_refuses_thin_tails():
    with pytest.raises(ValueError):
        stats.percentile(list(range(99)), 90)
    assert stats.percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError):
        stats.percentile(list(range(19)), 50)
    assert stats.percentile(list(range(1, 21)), 50) == 10


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def now(self):
        return self.t

    def sleep_until(self, t):
        self.t = max(self.t, t)


def test_open_loop_times_latency_from_due_time():
    clock = FakeClock()

    def send(i):
        clock.t += 0.25  # every request takes 250 ms to answer
        return i

    out = loadgen.open_loop(send, [0.0, 0.1, 0.2, 1.0], 1, clock)
    # One connection: requests 1 and 2 go out late, behind request 0.
    assert [round(o.late_ms, 6) for o in out] == [0.0, 150.0, 300.0, 0.0]
    assert [round(o.latency_ms(9e9), 6) for o in out] == [250.0, 400.0, 550.0, 250.0]
    assert [o.result for o in out] == [0, 1, 2, 3]


def test_failed_request_costs_the_timeout():
    clock = FakeClock()

    def send(i):
        clock.t += 0.01
        if i == 1:
            raise ConnectionError("refused")
        return i

    out = loadgen.closed_loop(send, 3, 1, clock)
    assert [o.ok for o in out] == [True, False, True]
    assert out[1].latency_ms(60_000.0) == 60_000.0
    assert "ConnectionError" in out[1].error


def _bindings():
    mod = importlib.import_module
    api, aligner = mod("repro.api"), mod("repro.core.aligner")
    return {
        "api.iter_reads": api.iter_reads,
        "api.to_paf": api.to_paf,
        "aligner.collect_anchors": aligner.collect_anchors,
        "aligner.chain_anchors": aligner.chain_anchors,
        "aligner.build_index": aligner.build_index,
        "anchors.collect_anchors": mod("repro.chain.anchors").collect_anchors,
        "chain.chain_anchors": mod("repro.chain.chain").chain_anchors,
        "backends.dispatch": mod("repro.runtime.backends").dispatch,
        "Aligner.seed_and_chain": vars(aligner.Aligner)["seed_and_chain"],
        "Aligner.align_plans": vars(aligner.Aligner)["align_plans"],
        "KernelDispatch.run": vars(mod("repro.align.dispatch").KernelDispatch)["run"],
        "MappingSession.map_batch": vars(api.MappingSession)["map_batch"],
        "kernel": get_kernel(layers.KERNEL),
    }


def test_traced_run_times_layers_and_restores_every_wrapper(tmp_path):
    data = inputs.make_inputs(str(tmp_path), 3, inputs.CLR, 3)
    before = _bindings()
    untraced = io.StringIO()
    MappingSession.open(data.ref_path).map_file(data.reads_path, untraced)

    traced = io.StringIO()
    with layers.Tracer() as tracer:
        assert _bindings()["aligner.chain_anchors"] is not before["aligner.chain_anchors"]
        session = MappingSession.open(data.ref_path)
        session.map_file(
            data.reads_path, layers.TimedWriter(traced, tracer.layers)
        )
    assert _bindings() == before
    assert traced.getvalue() == untraced.getvalue()
    self_s, calls = tracer.layers.totals()
    kernels = {"align.wavefront_batch", "align.manymap_kernel"}
    assert set(layers.LAYERS) - kernels <= set(calls)
    assert kernels & set(calls)
    assert calls["chain.chain"] == data.n_reads
    assert all(v >= 0 for v in self_s.values())


def test_missing_entry_point_is_unmeasured(monkeypatch):
    import repro.chain.chain

    monkeypatch.delattr(repro.chain.chain, "chain_anchors")
    with layers.Tracer() as tracer:
        pass
    assert "chain.chain" not in tracer.measured
    assert "chain.anchors" in tracer.measured


def test_layer_self_time_excludes_children():
    t = [0.0]
    clock = layers.LayerClock(clock=lambda: t[0])
    clock.enter("outer")
    t[0] += 1.0
    clock.enter("inner")
    t[0] += 3.0
    clock.exit()
    t[0] += 0.5
    clock.exit()
    self_s, calls = clock.totals()
    assert self_s == {"outer": 1.5, "inner": 3.0}
    assert calls == {"outer": 1, "inner": 1}
