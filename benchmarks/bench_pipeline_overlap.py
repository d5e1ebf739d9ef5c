"""Pipeline overlap of the real mapper, measured (§4.4.4).

The paper's 3-thread pipeline hides I/O behind compute. Here the read
source blocks ``IO_S`` per read (a sleep standing in for disk latency)
and the compute stage is the real mapper: :func:`stream_map` with one
process worker and one-read chunks, its reader and writer threads
overlapped with it. The serial reference loads and maps the same
one-read chunks back to back, so only the overlap differs. The
measured makespan should land near max(sum(load), sum(compute))
instead of their sum, as the discrete-event model of
:mod:`repro.runtime.pipeline` predicts from the measured stage costs.
"""

import time

from _common import emit, ratio
from repro import api
from repro.core.aligner import Aligner
from repro.core.alignment import to_paf
from repro.eval.report import render_table
from repro.index.store import save_index
from repro.runtime.pipeline import PipelineStageCost, simulate_pipeline
from repro.runtime.streaming import stream_map
from repro.seq.genome import GenomeSpec, generate_genome
from repro.sim.lengths import LengthModel
from repro.sim.pbsim import ReadSimulator

N_READS = 24
IO_S = 0.045  # per-read simulated disk latency


def slow_source(reads):
    for read in reads:
        time.sleep(IO_S)  # blocking I/O releases the GIL
        yield read


def test_real_pipeline_overlap(benchmark, tmp_path):
    genome = generate_genome(GenomeSpec(length=60_000, chromosomes=1), seed=7)
    sim = ReadSimulator.preset(genome, "pacbio")
    sim.length_model = LengthModel(mean=1200.0, sigma=0.2, max_length=2000)
    reads = list(sim.simulate(N_READS, seed=8))
    aligner = Aligner(genome, preset="test")
    index_path = tmp_path / "ref.mmi"
    save_index(aligner.index, index_path)
    api.map_reads(aligner, reads[:2])  # warm lazily built kernels

    # Serial reference: each read loaded, then mapped, back to back.
    t0 = time.perf_counter()
    want = [
        to_paf(a)
        for read in slow_source(reads)
        for alns in api.map_reads(aligner, [read])
        for a in alns
    ]
    t_serial = time.perf_counter() - t0

    got = []

    def run():
        got.clear()
        t0 = time.perf_counter()
        stream_map(
            aligner,
            slow_source(reads),
            lambda read, alns: got.extend(to_paf(a) for a in alns),
            workers=1,
            chunk_reads=1,
            index_path=str(index_path),
        )
        return time.perf_counter() - t0

    t_pipe = benchmark.pedantic(run, rounds=1, iterations=1)
    assert got == want

    # Discrete-event prediction from the measured per-stage costs.
    compute_each = (t_serial - N_READS * IO_S) / N_READS
    batches = [PipelineStageCost(IO_S, max(compute_each, 1e-4), 0.0)] * N_READS
    t_model = simulate_pipeline(batches, threads=3)

    text = render_table(
        ["execution", "seconds", "vs serial"],
        [
            ["serial", f"{t_serial:.3f}", "1.00x"],
            ["3-stage pipeline, 1 process (measured)", f"{t_pipe:.3f}",
             f"{ratio(t_serial, t_pipe):.2f}x"],
            ["3-stage pipeline (simulated)", f"{t_model:.3f}",
             f"{ratio(t_serial, t_model):.2f}x"],
        ],
        title="Pipeline overlap: stream_map vs discrete-event model",
    )
    emit("pipeline_overlap", text)

    # Overlap must hide a meaningful share of the I/O.
    assert t_pipe < t_serial * 0.9
    # And the simulator predicts the measured makespan within 60%.
    assert abs(t_pipe - t_model) / t_model < 0.6
