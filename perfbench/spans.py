"""In-memory timing spans around public lsmnet functions, installed from outside.

The benchmark never edits the package: a `Tracer` replaces each traced
function, at every module attribute that holds it, with a wrapper that
records a span `[name, start, end, parent, op]`.  Rebinding every holder
matters because modules bind some functions by name at import time
(`deeponet` calls its own `disk_farfield`, imported from `forward`), and
patching only the defining module would miss those calls.  `uninstall`
puts the original objects back, so untraced operations run the plain
code.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple


class Tracer:
    """Span recorder plus per-operation counters."""

    def __init__(self, modules):
        self.modules = tuple(modules)
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._op = None
        self._installed = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, op, name: str):
        """Root span of one benchmark operation; children inherit `op`."""
        self._op = op
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)
            self._op = None

    def count(self, name: str, value: float) -> None:
        self.counters[(self._op, name)] += value

    # -- installation --------------------------------------------------

    def install(self, layers) -> None:
        """Wrap each `Layer` at every module attribute bound to its function."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        for layer in layers:
            module_name, _, attr = layer.target.rpartition(".")
            original = getattr(self._module(module_name), attr)
            wrapper = self._wrap(layer, original)
            for module in self.modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._installed):
            setattr(module, key, original)
        self._installed = []

    @contextmanager
    def installed(self, layers):
        self.install(layers)
        try:
            yield
        finally:
            self.uninstall()

    def _module(self, name: str):
        for module in self.modules:
            if module.__name__.endswith("." + name):
                return module
        raise LookupError(f"no traced module named {name!r}")

    def _wrap(self, layer, original):
        signature = inspect.signature(original)
        tracer = self

        def wrapper(*args, **kwargs):
            bound = None
            if layer.suffix is not None or layer.counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            name = layer.target
            if layer.suffix is not None:
                name = f"{name}.{layer.suffix(bound.arguments)}"
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if layer.counter is not None:
                for counter, value in layer.counter(bound.arguments, result):
                    tracer.count(counter, value)
            return result

        wrapper.__wrapped__ = original
        return wrapper


class Layer(NamedTuple):
    """One traced function: `module.function`, an optional span-name
    suffix computed from the bound arguments, and an optional counter
    function returning `(name, value)` pairs from arguments and result."""

    target: str
    suffix: Callable | None = None
    counter: Callable | None = None


# -- aggregation -------------------------------------------------------

def self_times(spans):
    """Duration and self time (duration minus direct children) per span."""
    children = defaultdict(float)
    for name, start, end, parent, op in spans:
        if parent is not None:
            children[parent] += end - start
    return [(name, op, end - start, end - start - children[index])
            for index, (name, start, end, parent, op) in enumerate(spans)]


def layer_totals(spans, ops):
    """Calls, busy seconds and self seconds per span name over `ops`."""
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for name, op, busy, own in self_times(spans):
        if op in ops:
            entry = totals[name]
            entry[0] += 1
            entry[1] += busy
            entry[2] += own
    return totals


def coverage(spans, roots):
    """Share of each operation's outermost program call inside named spans.

    Starting at an operation's root span, descend while the current span
    has a single child that itself has children: that child is the
    program call the operation made (`cli.cmd_reconstruct`, say), and
    what matters is how much of its time its own named children explain.
    """
    kids = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] is not None:
            kids[span[3]].append(index)

    def duration(index):
        return spans[index][2] - spans[index][1]

    covered = total = 0.0
    for root in roots:
        node = root
        while len(kids[node]) == 1 and kids[kids[node][0]]:
            node = kids[node][0]
        total += duration(node)
        covered += sum(duration(child) for child in kids[node])
    return covered / total if total else 0.0
