"""Point-in-time gauges: queue depths, stall seconds, high-water marks.

Counters (:mod:`repro.obs.counters`) count *work* — monotonically
increasing integers that must be identical across backends. Gauges
record *state of the execution machinery*: how deep the pipeline
queues got, how long each stage sat blocked, how large the reorder
buffer grew. They are expected to differ run to run (they describe
scheduling, not the workload), so they live in their own registry and
are reported in the ``--metrics`` manifest under a separate ``gauges``
key instead of being folded into the counter totals.

The processes pipeline (:mod:`repro.runtime.streaming`) is the primary
writer: its reader / compute / writer stages record queue-depth
high-water marks and cumulative stall seconds, which is how
``map --metrics`` shows the paper's Fig. 11 overlap story (a stage
that never stalls is fully overlapped; a stage with large stall time
is the bottleneck's victim).
"""

from __future__ import annotations

import threading
from typing import Dict, Union

__all__ = ["GaugeSet"]

Number = Union[int, float]


class GaugeSet:
    """A small thread-safe map of named numeric gauges.

    Three write modes cover the pipeline's needs: :meth:`set` (last
    value wins), :meth:`add` (cumulative, e.g. stall seconds), and
    :meth:`high_water` (maximum ever observed, e.g. queue depth).
    """

    __slots__ = ("_lock", "_values")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, Number] = {}

    def set(self, name: str, value: Number) -> None:
        """Record the latest value for ``name``."""
        with self._lock:
            self._values[name] = value

    def add(self, name: str, value: Number) -> None:
        """Accumulate ``value`` into ``name`` (missing starts at 0)."""
        with self._lock:
            self._values[name] = self._values.get(name, 0) + value

    def high_water(self, name: str, value: Number) -> None:
        """Keep the maximum of the current and previous values."""
        with self._lock:
            prev = self._values.get(name)
            if prev is None or value > prev:
                self._values[name] = value

    def snapshot(self) -> Dict[str, Number]:
        """A point-in-time copy of every gauge."""
        with self._lock:
            return dict(self._values)

    def merge(self, other: Dict[str, Number]) -> None:
        """Fold another snapshot in (``add`` semantics per key)."""
        with self._lock:
            for k, v in other.items():
                self._values[k] = self._values.get(k, 0) + v

    def clear(self) -> None:
        with self._lock:
            self._values.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)
