"""Per-layer timers installed from outside the program.

A traced run replaces a fixed list of public entry points with timing
wrappers and restores the originals afterwards; no program file
changes. Each wrapper opens a span on a per-thread stack, so a layer's
*self* time is its wall time minus the time of the wrapped layers it
called. The self times of all layers add up to the time the traced
calls covered; whatever the wall clock saw beyond that is reported as
unattributed.

The wrapped entry points, by layer:

============================  ==========================================
layer                         wrapped name
============================  ==========================================
``seq.fasta.parse``           ``repro.seq.fasta.iter_reads`` (each item)
``runtime.dispatch``          ``repro.runtime.backends.dispatch``,
                              ``repro.api.MappingSession.map_batch``
``chain.anchors``             ``repro.chain.anchors.collect_anchors``
``chain.chain``               ``repro.chain.chain.chain_anchors``
``core.aligner``              ``Aligner.seed_and_chain``, ``align_plans``
``align.dispatch``            ``repro.align.dispatch.KernelDispatch.run``
``align.wavefront_batch``     the ``wavefront`` kernel's ``batch_fn``
``align.manymap_kernel``      the ``wavefront`` kernel's ``fn`` (the
                              per-pair fallback)
``core.alignment.format``     ``repro.core.alignment.to_paf``
``index.build``               ``repro.index.index.build_index``
``output.write``              the output handle's ``write``
============================  ==========================================

Functions imported by name into other modules are patched at every
``repro.*`` module attribute bound to the original. A name that no
longer exists leaves its layer *unmeasured*; the run goes on.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: every layer a traced run can time, in report order.
LAYERS = (
    "seq.fasta.parse",
    "runtime.dispatch",
    "chain.anchors",
    "chain.chain",
    "core.aligner",
    "align.dispatch",
    "align.wavefront_batch",
    "align.manymap_kernel",
    "core.alignment.format",
    "output.write",
    "index.build",
)

#: module-level functions: (layer, defining module, attribute).
_FUNCTIONS = (
    ("chain.anchors", "repro.chain.anchors", "collect_anchors"),
    ("chain.chain", "repro.chain.chain", "chain_anchors"),
    ("core.alignment.format", "repro.core.alignment", "to_paf"),
    ("index.build", "repro.index.index", "build_index"),
    ("runtime.dispatch", "repro.runtime.backends", "dispatch"),
)

#: methods: (layer, module, class, attribute).
_METHODS = (
    ("core.aligner", "repro.core.aligner", "Aligner", "seed_and_chain"),
    ("core.aligner", "repro.core.aligner", "Aligner", "align_plans"),
    ("align.dispatch", "repro.align.dispatch", "KernelDispatch", "run"),
    ("runtime.dispatch", "repro.api", "MappingSession", "map_batch"),
)

#: marks an attribute the class inherited rather than defined.
_INHERITED = object()

#: the kernel whose callables are re-registered with timers.
KERNEL = "wavefront"


class LayerClock:
    """Self time and call counts per layer, safe across threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> None:
        self._stack().append([layer, self._clock(), 0.0])

    def exit(self) -> None:
        stack = self._stack()
        layer, start, child = stack.pop()
        wall = self._clock() - start
        if stack:
            stack[-1][2] += wall
        with self._lock:
            self.self_s[layer] = self.self_s.get(layer, 0.0) + wall - child
            self.calls[layer] = self.calls.get(layer, 0) + 1

    def timed(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def timed_iter(self, layer: str, fn: Callable) -> Callable:
        """Wrap a generator function: time each ``next``, not the body
        the consumer runs between items."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                self.enter(layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit()
                yield item

        return wrapper

    def totals(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        with self._lock:
            return dict(self.self_s), dict(self.calls)


class TimedWriter:
    """An output handle whose ``write`` calls are the ``output.write``
    layer. Everything else passes through to the wrapped handle."""

    def __init__(self, handle, layers: LayerClock):
        self._handle = handle
        self._layers = layers

    def write(self, text: str) -> int:
        self._layers.enter("output.write")
        try:
            return self._handle.write(text)
        finally:
            self._layers.exit()

    def __getattr__(self, name):
        return getattr(self._handle, name)


class Tracer:
    """Installs the wrappers; :meth:`restore` puts every original back.

    ``measured`` names the layers whose entry points were found.
    """

    def __init__(self, layers: Optional[LayerClock] = None):
        self.layers = layers or LayerClock()
        self.measured: set = set()
        self._undo: List[Tuple[object, str, object]] = []
        self._kernel = None

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new) -> None:
        """Rebind ``original`` in every loaded ``repro`` module."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, new)

    def install(self) -> "Tracer":
        layers = self.layers
        for layer, modname, attr in _FUNCTIONS:
            original = _lookup(modname, attr)
            if callable(original):
                self._patch_everywhere(original, layers.timed(layer, original))
                self.measured.add(layer)
        for layer, modname, cls_name, attr in _METHODS:
            cls = _lookup(modname, cls_name)
            original = getattr(cls, attr, None) if cls is not None else None
            if callable(original):
                self._patch(cls, attr, layers.timed(layer, original))
                self.measured.add(layer)
        original = _lookup("repro.seq.fasta", "iter_reads")
        if callable(original):
            self._patch_everywhere(
                original, layers.timed_iter("seq.fasta.parse", original)
            )
            self.measured.add("seq.fasta.parse")
        self._install_kernel()
        self.measured.add("output.write")
        return self

    def _install_kernel(self) -> None:
        dispatch = _module("repro.align.dispatch")
        get_kernel = getattr(dispatch, "get_kernel", None)
        register = getattr(dispatch, "register_kernel", None)
        if get_kernel is None or register is None:
            return
        try:
            spec = get_kernel(KERNEL)
        except Exception:  # noqa: BLE001 - a renamed kernel is unmeasured
            return
        changes = {"fn": self.layers.timed("align.manymap_kernel", spec.fn)}
        self.measured.add("align.manymap_kernel")
        if spec.batch_fn is not None:
            changes["batch_fn"] = self.layers.timed(
                "align.wavefront_batch", spec.batch_fn
            )
            self.measured.add("align.wavefront_batch")
        register(dataclasses.replace(spec, **changes))
        self._kernel = (register, spec)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        if self._kernel is not None:
            register, spec = self._kernel
            register(spec)
            self._kernel = None

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _lookup(modname: str, attr: str):
    module = _module(modname)
    return getattr(module, attr, None) if module is not None else None
