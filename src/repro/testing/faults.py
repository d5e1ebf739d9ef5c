"""Deterministic fault injection keyed by read name.

The robustness suite and the CI chaos smoke need *reproducible*
failures: a specific read must fail in a specific way on a specific
attempt, on every backend, in the parent process or a pool worker,
before and after a pool respawn. That rules out random fault points
and shared mutable state — instead each :class:`FaultSpec` decides
purely from ``(read name, attempt number)``, both of which every
backend already threads through
:func:`repro.runtime.faults.map_one_read`. The injector is a frozen
value object, so it pickles into process-pool initializers unchanged.

Fault kinds:

``parse``
    raises :class:`~repro.errors.ParseError` (a malformed record
    surfacing mid-pipeline) on every attempt — retries cannot save it.
``error``
    raises ``RuntimeError`` on every attempt.
``flaky``
    fails the first ``times`` attempts (default 1) then succeeds —
    proves the retry path actually recovers work.
``slow``
    sleeps ``delay_s`` on the first ``times`` attempts (default 1) —
    trips the watchdog (``read_timeout``) deterministically.
``crash``
    calls ``os._exit`` *when running inside a process-pool worker*
    (the ``MANYMAP_POOL_WORKER`` env var set by the pool initializer),
    killing the worker mid-chunk; outside a pool worker it degrades to
    a ``RuntimeError`` so the serial backend (and pytest
    itself) survive the same spec file.
``disk_full``
    raises ``OSError(ENOSPC)`` at *output-write* time for the named
    read (the :meth:`FaultInjector.on_write` hook, called by the
    ``map_file`` output sink) — the run dies mid-write exactly like a
    full disk, which is what the atomic-write and journal layers must
    survive. Resume after clearing the spec (disk freed) completes.
``torn_write``
    writes *half* of the read's output payload to the sink, flushes
    it, then SIGKILLs the process — a torn write frozen onto disk at
    a byte position no clean shutdown would ever produce. The journal
    CRC recovery must detect and truncate it.

``disk_full`` / ``torn_write`` fire on the first ``times`` writes of
the read *per process* (default: every write), counted in module
state — a resumed process starts fresh, like a real machine after the
incident.
"""

from __future__ import annotations

import errno
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..errors import ParseError, SchedulerError

__all__ = ["FaultSpec", "FaultInjector", "load_faults", "POOL_WORKER_ENV"]

#: set (to "1") in every process-pool worker by the pool initializer;
#: ``crash`` faults only hard-kill when it is present.
POOL_WORKER_ENV = "MANYMAP_POOL_WORKER"

KINDS = (
    "parse", "error", "flaky", "slow", "crash", "disk_full", "torn_write",
)

#: write-time kinds, consulted by :meth:`FaultInjector.on_write`
#: (the map_file output sink), not by per-read mapping attempts.
WRITE_KINDS = ("disk_full", "torn_write")

#: default attempt budget per kind; ``None`` means every attempt.
_DEFAULT_TIMES: Dict[str, Optional[int]] = {
    "parse": None,
    "error": None,
    "crash": None,
    "flaky": 1,
    "slow": 1,
    "disk_full": None,
    "torn_write": None,
}

#: per-process write-fault occurrence counts (read name -> hits);
#: deliberately module-level so the frozen injector stays picklable.
_WRITE_HITS: Dict[str, int] = {}


@dataclass(frozen=True)
class FaultSpec:
    """One injected failure: which read, how, and for how many attempts."""

    read: str
    kind: str
    times: Optional[int] = None
    delay_s: float = 0.05
    message: str = ""

    def validated(self) -> "FaultSpec":
        if self.kind not in KINDS:
            raise SchedulerError(
                f"fault kind must be one of {KINDS}: {self.kind!r}"
            )
        return self


@dataclass(frozen=True)
class FaultInjector:
    """Callable hook wired into ``FaultPolicy.injector``.

    Picklable and stateless: the decision depends only on the read
    name and the attempt number, so the same spec produces the same
    behavior in the parent, in a pool worker, and after a respawn.
    """

    faults: tuple

    @classmethod
    def from_specs(cls, specs: Sequence[FaultSpec]) -> "FaultInjector":
        return cls(faults=tuple(s.validated() for s in specs))

    def spec_for(self, read_name: str) -> Optional[FaultSpec]:
        for spec in self.faults:
            if spec.read == read_name:
                return spec
        return None

    def on_map(self, read_name: str, attempt: int) -> None:
        """Called by ``map_one_read`` before every mapping attempt."""
        spec = self.spec_for(read_name)
        if spec is None or spec.kind in WRITE_KINDS:
            return
        limit = (
            spec.times if spec.times is not None else _DEFAULT_TIMES[spec.kind]
        )
        if limit is not None and attempt > limit:
            return
        if spec.kind == "slow":
            time.sleep(spec.delay_s)
            return
        if spec.kind == "crash":
            if os.environ.get(POOL_WORKER_ENV):
                os._exit(17)
            raise RuntimeError(
                spec.message
                or f"injected crash for {read_name!r} "
                f"(no pool worker to kill)"
            )
        if spec.kind == "parse":
            raise ParseError(
                spec.message or f"injected parse error for {read_name!r}"
            )
        raise RuntimeError(
            spec.message or f"injected {spec.kind} fault for {read_name!r}"
        )

    def on_write(self, read_name: str, fh=None, payload=None) -> None:
        """Called by the ``map_file`` output sink before a read's write.

        ``fh`` is the sink file handle and ``payload`` the full text
        about to be written — what ``torn_write`` needs to freeze a
        half-written record onto disk before killing the process.
        """
        spec = self.spec_for(read_name)
        if spec is None or spec.kind not in WRITE_KINDS:
            return
        limit = (
            spec.times if spec.times is not None else _DEFAULT_TIMES[spec.kind]
        )
        hits = _WRITE_HITS[read_name] = _WRITE_HITS.get(read_name, 0) + 1
        if limit is not None and hits > limit:
            return
        if spec.kind == "disk_full":
            raise OSError(
                errno.ENOSPC,
                spec.message
                or f"No space left on device (injected for {read_name!r})",
            )
        # torn_write: reuse the chaos module's tear-then-die machinery.
        from .chaos import _die, _tear

        _tear(fh, payload)
        _die()


def load_faults(path: str) -> FaultInjector:
    """Build an injector from a JSON spec file.

    The file is a list of objects with ``read`` and ``kind`` (plus
    optional ``times`` / ``delay_s`` / ``message``) — what the CLI's
    ``--inject-faults FILE`` loads for the chaos smoke.
    """
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise SchedulerError(
            f"fault spec file must contain a JSON list: {path}"
        )
    specs = []
    for i, item in enumerate(data):
        try:
            specs.append(
                FaultSpec(
                    read=item["read"],
                    kind=item["kind"],
                    times=item.get("times"),
                    delay_s=float(item.get("delay_s", 0.05)),
                    message=item.get("message", ""),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchedulerError(
                f"bad fault spec entry {i} in {path}: {exc!r}"
            ) from exc
    return FaultInjector.from_specs(specs)
