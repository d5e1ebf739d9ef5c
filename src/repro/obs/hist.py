"""Streaming log2-bucket histograms: latency/length/band distributions.

Counters (:mod:`repro.obs.counters`) answer "how much work happened";
histograms answer "how was it *distributed*" — the shape the paper's
evaluation is built on (Fig. 11 is a distribution over pipeline stages,
§4.2's longest-first batching argument is about the read-length tail)
and the shape the GenASM-GPU line of work reports throughput in
(per-length-bin rates rather than one GCUPS number). Each
:class:`Histogram` keeps fixed log2 buckets plus exact ``count`` /
``sum`` / ``min`` / ``max``, so p50/p90/p99 estimates cost O(#buckets)
and two histograms merge by plain bucket-count addition — the property
that lets worker processes ship their histograms home exactly like
counter deltas.

The process-wide :data:`HISTOGRAMS` registry mirrors
:data:`~repro.obs.counters.COUNTERS`: per-thread shards, lock-free
:meth:`~HistogramRegistry.observe` on the hot path (one dict lookup +
a handful of int/float ops per observation, at call granularity —
never per cell), best-effort :meth:`~HistogramRegistry.totals` while
threads run, exact at quiescence. Worker processes snapshot around each
chunk and ship the delta; the parent folds it in with
:meth:`~HistogramRegistry.merge`, so merged buckets are identical
across the serial and processes backends for
deterministic quantities (read length, band width). Latency histograms
share bucket *names* across backends but their bucket contents are
wall-clock-dependent by nature; only their total count is invariant.

Bucket ``e`` holds values in ``[2**(e-1), 2**e)`` (via
:func:`math.frexp`); exact zeros get their own ``zeros`` slot. Delta
bucket counts are exact; ``min``/``max`` in a delta are taken from the
*after* snapshot (a process-lifetime envelope, which coincides with the
run for per-run worker processes and can only widen otherwise).
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, Optional

__all__ = [
    "Histogram",
    "HistogramRegistry",
    "HISTOGRAMS",
    "hist_delta",
    "merge_hist_json",
    "summarize",
]

#: Percentiles surfaced in manifests and reports.
PERCENTILES = (50, 90, 99)


def _bucket(value: float) -> int:
    """Log2 bucket index: bucket ``e`` covers ``[2**(e-1), 2**e)``."""
    m, e = math.frexp(value)
    return e


class Histogram:
    """One streaming distribution: log2 buckets + exact moments."""

    __slots__ = ("buckets", "count", "zeros", "sum", "min", "max")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.zeros = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # -- recording ----------------------------------------------------- #

    def observe(self, value: float) -> None:
        """Record one sample (negative values clamp to the zero slot)."""
        self.count += 1
        if value <= 0.0:
            self.zeros += 1
            value = 0.0
        else:
            self.sum += value
            e = _bucket(value)
            b = self.buckets
            b[e] = b.get(e, 0) + 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    # -- merging ------------------------------------------------------- #

    def merge(self, other: "Histogram") -> None:
        self.merge_json(other.to_json())

    def merge_json(self, d: Dict) -> None:
        """Fold a serialized histogram (:meth:`to_json` form) in."""
        self.count += int(d.get("count", 0))
        self.zeros += int(d.get("zeros", 0))
        self.sum += float(d.get("sum", 0.0))
        b = self.buckets
        for key, n in d.get("buckets", {}).items():
            e = int(key)
            b[e] = b.get(e, 0) + int(n)
        for name, pick in (("min", min), ("max", max)):
            v = d.get(name)
            if v is not None:
                cur = getattr(self, name)
                setattr(self, name, v if cur is None else pick(cur, v))

    def copy(self) -> "Histogram":
        """A snapshot copy, safe against a concurrently observing owner."""
        out = Histogram()
        for _ in range(8):
            try:
                out.buckets = dict(self.buckets)
                break
            except RuntimeError:  # resized mid-iteration
                continue
        out.count = self.count
        out.zeros = self.zeros
        out.sum = self.sum
        out.min = self.min
        out.max = self.max
        return out

    # -- serialization ------------------------------------------------- #

    def to_json(self) -> Dict:
        return {
            "count": self.count,
            "zeros": self.zeros,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": {str(e): n for e, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_json(cls, d: Dict) -> "Histogram":
        out = cls()
        out.merge_json(d)
        # merge_json cannot restore None-ness of min/max, so re-pin them.
        out.min = d.get("min")
        out.max = d.get("max")
        return out

    # -- statistics ---------------------------------------------------- #

    @property
    def mean(self) -> float:
        return self.sum / (self.count - self.zeros) if self.count > self.zeros else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0..100) from the buckets.

        Exact for the min/max endpoints; elsewhere linear interpolation
        inside the covering log2 bucket, clamped to the exact observed
        ``[min, max]`` envelope.
        """
        if self.count == 0:
            return 0.0
        target = (q / 100.0) * self.count
        if target <= self.zeros:
            return 0.0
        cum = float(self.zeros)
        value = self.max if self.max is not None else 0.0
        for e in sorted(self.buckets):
            n = self.buckets[e]
            if cum + n >= target:
                lo, hi = math.ldexp(1.0, e - 1), math.ldexp(1.0, e)
                frac = (target - cum) / n
                value = lo + frac * (hi - lo)
                break
            cum += n
        if self.min is not None:
            value = max(value, self.min)
        if self.max is not None:
            value = min(value, self.max)
        return value

    def summary(self, percentiles: Iterable[int] = PERCENTILES) -> Dict:
        """The manifest form: moments, percentiles, and raw buckets."""
        out = self.to_json()
        out["mean"] = self.mean
        for q in percentiles:
            out[f"p{q}"] = self.percentile(q)
        return out


class HistogramRegistry:
    """Process-wide named histograms, sharded per thread like COUNTERS."""

    __slots__ = ("_local", "_lock", "_shards", "enabled")

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._shards = []  # type: list[Dict[str, Histogram]]
        #: benchmark/test kill switch; hot-path observes become no-ops.
        self.enabled = True

    def _shard(self) -> Dict[str, Histogram]:
        d = getattr(self._local, "d", None)
        if d is None:
            d = {}
            self._local.d = d
            with self._lock:
                self._shards.append(d)
        return d

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into ``name`` — lock-free, any thread."""
        if not self.enabled:
            return
        d = self._shard()
        h = d.get(name)
        if h is None:
            h = d[name] = Histogram()
        h.observe(value)

    def merge(self, delta: Dict[str, Dict]) -> None:
        """Fold a serialized snapshot/delta (e.g. from a worker) in."""
        if not delta:
            return
        d = self._shard()
        for name, hd in delta.items():
            h = d.get(name)
            if h is None:
                h = d[name] = Histogram()
            h.merge_json(hd)

    def totals(self) -> Dict[str, Histogram]:
        """Merged histograms across all shards (best-effort mid-run)."""
        out: Dict[str, Histogram] = {}
        with self._lock:
            shards = list(self._shards)
        for d in shards:
            for _ in range(8):
                try:
                    items = [(k, h.copy()) for k, h in d.items()]
                    break
                except RuntimeError:  # resized mid-iteration
                    continue
            else:  # pragma: no cover - pathological contention
                items = []
            for name, h in items:
                tgt = out.get(name)
                if tgt is None:
                    out[name] = h
                else:
                    tgt.merge(h)
        return out

    def snapshot(self) -> Dict[str, Dict]:
        """Serialized totals — the worker-shipping / baseline form."""
        return {name: h.to_json() for name, h in self.totals().items()}

    def reset(self) -> None:
        """Drop every sample (all shards). Test/bench helper."""
        with self._lock:
            for d in self._shards:
                d.clear()

    def disable(self) -> None:
        self.enabled = False

    def enable(self) -> None:
        self.enabled = True


#: The process-global registry every instrumented module observes into.
HISTOGRAMS = HistogramRegistry()


def hist_delta(
    after: Dict[str, Dict], before: Dict[str, Dict]
) -> Dict[str, Dict]:
    """``after - before`` per histogram, dropping empty results.

    Bucket counts, ``count``, ``zeros`` and ``sum`` subtract exactly;
    ``min``/``max`` are carried from ``after`` (see module docstring).
    """
    out: Dict[str, Dict] = {}
    for name, a in after.items():
        b = before.get(name)
        if b is None:
            if a.get("count", 0):
                out[name] = a
            continue
        buckets: Dict[str, int] = {}
        for key, n in a.get("buckets", {}).items():
            dn = int(n) - int(b.get("buckets", {}).get(key, 0))
            if dn:
                buckets[key] = dn
        d = {
            "count": int(a.get("count", 0)) - int(b.get("count", 0)),
            "zeros": int(a.get("zeros", 0)) - int(b.get("zeros", 0)),
            "sum": float(a.get("sum", 0.0)) - float(b.get("sum", 0.0)),
            "min": a.get("min"),
            "max": a.get("max"),
            "buckets": buckets,
        }
        if d["count"]:
            out[name] = d
    return out


def merge_hist_json(a: Dict[str, Dict], b: Dict[str, Dict]) -> Dict[str, Dict]:
    """Merge two serialized snapshot dicts (chunk-result halves)."""
    out = {name: Histogram.from_json(d) for name, d in a.items()}
    for name, d in b.items():
        h = out.get(name)
        if h is None:
            out[name] = Histogram.from_json(d)
        else:
            h.merge_json(d)
    return {name: h.to_json() for name, h in out.items()}


def summarize(snapshot: Dict[str, Dict]) -> Dict[str, Dict]:
    """Manifest form of a serialized snapshot: adds mean + percentiles."""
    return {
        name: Histogram.from_json(d).summary()
        for name, d in sorted(snapshot.items())
    }
