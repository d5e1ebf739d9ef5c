"""Seeded workload inputs: a synthetic reference and simulated reads.

The reads are derived from the workload seed, so the same seed gives
byte-identical files. The program under test only ever sees the FASTA
and FASTQ written here; the simulator's truth records stay with the
benchmark and score accuracy afterwards.

Read lengths are drawn stratified (one draw per quantile slice of the
length distribution, then shuffled). The reads still vary with the seed
in origin, strand, length and errors, but the total work per input
varies far less than with independent draws, which keeps the spread of
throughput between seeds small.
"""

from __future__ import annotations

import hashlib
import os
import statistics
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.seq.fasta import iter_reads, write_fasta, write_fastq
from repro.seq.genome import GenomeSpec, generate_genome
from repro.sim.errors import PACBIO_CLR, ErrorProfile
from repro.sim.pbsim import ReadSimulator

#: ~1 Mbp over two chromosomes with the generator's default repeats.
GENOME = GenomeSpec(length=1_000_000, chromosomes=2)
#: The reference is the same for every seed, as one reference serves
#: many read sets in practice; the seed varies the reads. A per-seed
#: reference moved chaining cost by its repeat content alone.
REFERENCE_SEED = 2019

#: PacBio HiFi: ~1% errors, mostly small indels.
HIFI = ErrorProfile("pacbio-hifi", 0.01, sub_frac=0.4, ins_frac=0.3, del_frac=0.3)


@dataclass(frozen=True)
class ReadShape:
    """Length distribution (lognormal) and error profile of a read set."""

    mean: float
    sigma: float
    max_length: int
    errors: ErrorProfile


CLR = ReadShape(mean=2000.0, sigma=0.5, max_length=8000, errors=PACBIO_CLR)
HIFI_READS = ReadShape(mean=4000.0, sigma=0.3, max_length=12000, errors=HIFI)


@dataclass(frozen=True)
class StratifiedLengths:
    """Lognormal lengths, one draw per equal-probability slice."""

    mean: float
    sigma: float
    min_length: int = 200
    max_length: int = 600_000

    def sample(self, n: int, rng) -> np.ndarray:
        mu = np.log(self.mean) - self.sigma**2 / 2.0
        normal = statistics.NormalDist()
        u = (np.arange(n) + rng.random(n)) / n
        z = np.array([normal.inv_cdf(min(max(x, 1e-9), 1 - 1e-9)) for x in u])
        lengths = np.exp(mu + self.sigma * z)
        lengths = np.clip(lengths, self.min_length, self.max_length)
        return rng.permutation(lengths.astype(np.int64))


@dataclass
class Inputs:
    """Files on disk plus the truth the program never sees."""

    ref_path: str
    reads_path: str
    sim_reads: list
    n_reads: int
    read_bases: int
    sha256: str

    def describe(self) -> Dict[str, object]:
        """Provenance: sizes and hashes of what the program was given."""
        return {
            "reads": self.n_reads,
            "read_bases": self.read_bases,
            "reference_bases": GENOME.length,
            "sha256": self.sha256,
        }


def sha256_files(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def make_inputs(
    workdir: str, seed: int, shape: ReadShape, n_reads: int
) -> Inputs:
    """Write ``ref.fa`` and ``reads.fq`` for ``seed`` into ``workdir``."""
    genome = generate_genome(GENOME, seed=REFERENCE_SEED)
    sim = ReadSimulator(
        genome,
        StratifiedLengths(shape.mean, shape.sigma, max_length=shape.max_length),
        shape.errors,
    )
    reads = sim.simulate(n_reads, seed=seed)
    ref_path = os.path.join(workdir, "ref.fa")
    reads_path = os.path.join(workdir, "reads.fq")
    write_fasta(ref_path, genome.chromosomes)
    write_fastq(reads_path, reads)
    return Inputs(
        ref_path=ref_path,
        reads_path=reads_path,
        sim_reads=list(reads),
        n_reads=len(reads),
        read_bases=sum(len(r) for r in reads),
        sha256=sha256_files(ref_path, reads_path),
    )


def load_reads(path: str) -> List:
    """The reads exactly as the program would parse them from disk."""
    return list(iter_reads(path))


def write_head(src: str, dst: str, n_reads: int) -> None:
    """Copy the first ``n_reads`` FASTQ records of ``src`` to ``dst``."""
    with open(src) as fin, open(dst, "w") as fout:
        for _ in range(4 * n_reads):
            line = fin.readline()
            if not line:
                break
            fout.write(line)
