"""Execution substrate: batching, pipelines, affinity, schedulers.

Two kinds of components live here:

* **Real executors** — :mod:`backends` (the backend registry, single
  source of truth for the two backend names, ``serial`` and
  ``processes``), :mod:`streaming` (the one parallel mapper: an
  overlapped read→compute→write pipeline over bounded queues with
  longest-first windows, the runnable §4.4.4), :mod:`procpool` (its
  process workers over an mmap-shared index, plus the serial loop)
  and :mod:`mmio` (buffered vs ``mmap`` file loading, genuinely
  measurable).
* **Discrete-event simulators** — :mod:`scheduler` (multi-thread
  makespan with hyper-thread contention, Figure 9), :mod:`affinity`
  (compact/scatter/optimized placement, Figure 10), :mod:`pipeline`
  (2- vs 3-thread batch pipelines, §4.4.4), and :mod:`gpu_streams`
  (concurrent-kernel scheduling with a memory pool, §4.5).
"""

from .batch import make_batches, sort_longest_first
from .affinity import AffinityPolicy, assign_threads, COMPACT, SCATTER, OPTIMIZED
from .scheduler import simulate_makespan, lpt_makespan
from .pipeline import PipelineStageCost, simulate_pipeline
from .gpu_streams import StreamScheduler, KernelTask, MemoryPool
from .mmio import load_bytes_buffered, load_bytes_mmap
from .backends import (
    BackendSpec,
    backend_names,
    dispatch,
    get_backend,
    register_backend,
)
from .streaming import StreamStats, map_reads_streaming, stream_map

__all__ = [
    "make_batches",
    "sort_longest_first",
    "AffinityPolicy",
    "assign_threads",
    "COMPACT",
    "SCATTER",
    "OPTIMIZED",
    "simulate_makespan",
    "lpt_makespan",
    "PipelineStageCost",
    "simulate_pipeline",
    "StreamScheduler",
    "KernelTask",
    "MemoryPool",
    "load_bytes_buffered",
    "load_bytes_mmap",
    "BackendSpec",
    "backend_names",
    "dispatch",
    "get_backend",
    "register_backend",
    "StreamStats",
    "map_reads_streaming",
    "stream_map",
]
