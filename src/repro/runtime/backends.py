"""Execution-backend registry: the single source of truth.

Every place that needs to know which mapping backends exist — error
messages, :meth:`repro.api.MapOptions.validated` and the
:func:`repro.api.map_reads` dispatch — reads this registry, so adding
a backend is a one-file change: call :func:`register_backend` (or add
one entry to ``_BUILTINS`` here) and every surface picks it up. Two
are built in: ``serial`` and ``processes`` (the parallel pipeline of
:mod:`repro.runtime.streaming` over a process pool).

A backend is a factory with the uniform signature::

    factory(aligner, reads, options, profile, telemetry)
        -> List[List[Alignment]]

where ``options`` is a :class:`repro.api.MapOptions` (any object with
its attributes works). Results are always in input order and
byte-identical across backends for the same read set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..errors import SchedulerError

__all__ = [
    "BackendSpec",
    "register_backend",
    "get_backend",
    "backend_names",
    "dispatch",
]


@dataclass(frozen=True)
class BackendSpec:
    """One registered execution backend."""

    name: str
    factory: Callable
    description: str = ""


_REGISTRY: Dict[str, BackendSpec] = {}


def register_backend(
    name: str,
    factory: Callable,
    description: str = "",
    replace: bool = False,
) -> BackendSpec:
    """Register a backend factory under ``name``.

    Raises :class:`SchedulerError` on duplicate names unless
    ``replace=True`` (tests use replace to shim factories).
    """
    if not replace and name in _REGISTRY:
        raise SchedulerError(f"backend {name!r} is already registered")
    spec = BackendSpec(name=name, factory=factory, description=description)
    _REGISTRY[name] = spec
    return spec


def backend_names() -> Tuple[str, ...]:
    """All registered backend names, registration order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> BackendSpec:
    """Look up a backend; the error message lists what exists."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SchedulerError(
            f"unknown backend {name!r}; expected one of {backend_names()}"
        ) from None


def dispatch(aligner, reads, options, profile=None, telemetry=None):
    """Run ``reads`` through the backend named by ``options.backend``."""
    return get_backend(options.backend).factory(
        aligner, reads, options, profile, telemetry
    )


# --------------------------------------------------------------------- #
# Built-in backends. Factories import their implementation lazily so
# importing the registry stays cheap and cycle-free.


def _fault_policy(options):
    """The options' fault policy; tolerant of plain options objects."""
    return getattr(options, "fault_policy", None)


def _serial(aligner, reads, options, profile, telemetry):
    from .procpool import _map_serial

    if options.workers < 1:
        raise SchedulerError(f"need >= 1 worker: {options.workers}")
    return _map_serial(
        aligner,
        list(reads),
        options.with_cigar,
        profile,
        telemetry,
        _fault_policy(options),
    )


def _processes(aligner, reads, options, profile, telemetry):
    from .streaming import map_reads_streaming

    reads = list(reads)
    if options.workers == 1 or len(reads) <= 1:
        return _serial(aligner, reads, options, profile, telemetry)
    return map_reads_streaming(
        aligner,
        reads,
        workers=options.workers,
        with_cigar=options.with_cigar,
        longest_first=options.longest_first,
        chunk_reads=options.chunk_reads,
        chunk_bases=options.chunk_bases,
        index_path=options.index_path,
        profile=profile,
        telemetry=telemetry,
        fault_policy=_fault_policy(options),
    )


_BUILTINS = (
    ("serial", _serial, "single-process loop (profiling baseline)"),
    (
        "processes",
        _processes,
        "overlapped read/compute/write pipeline over a process pool "
        "sharing one mmap'd index",
    ),
)

for _name, _factory, _desc in _BUILTINS:
    register_backend(_name, _factory, _desc)
