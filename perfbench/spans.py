"""Spans around calls into chowla_lab's public functions.

A :class:`Tracer` keeps spans (name, start, end, parent) in memory; they are
written out when the run ends.  :func:`instrument` replaces every public
function of the measured modules, wherever a chowla_lab module holds a
reference to it, by a wrapper that records one span per call.  Nothing
inside the package changes: the wrappers live here and are removed again by
the callable that :func:`instrument` returns.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# entbounds is not measured: its calls are O(1) bisections.
MODULES = ("numbergen", "symbolicgen", "seqcore", "correlations", "empirics", "toeplitz")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Calls run on one thread, so children of a span never overlap and
        the time they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]


def _traced(tracer: Tracer, name: str, fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result
    return wrapper


def instrument(tracer: Tracer, after: dict[str, Callable] | None = None) -> Callable[[], None]:
    """Wrap the public functions of MODULES and ``cli.emit_report``.

    Spans are named ``<module>.<function>``.  ``after`` maps a span name to
    a hook called with (args, kwargs, result) once the call returns, outside
    its span.  Returns a callable that restores the original functions.
    """
    import chowla_lab
    from chowla_lab import cli

    after = after or {}
    wrappers = {}
    for module_name in MODULES:
        module = importlib.import_module(f"chowla_lab.{module_name}")
        for attr in chowla_lab.__all__:
            fn = getattr(module, attr, None)
            if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                name = f"{module_name}.{attr}"
                wrappers[fn] = _traced(tracer, name, fn, after.get(name))
    wrappers[cli.emit_report] = _traced(tracer, "cli.emit_report", cli.emit_report,
                                        after.get("cli.emit_report"))

    patched = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "chowla_lab" and not module_name.startswith("chowla_lab."):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(module, attr, wrappers[value])
                patched.append((module, attr, value))

    def restore() -> None:
        for module, attr, value in patched:
            setattr(module, attr, value)
    return restore
