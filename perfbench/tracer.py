"""Span tracer for the traced benchmark run.

The program is never edited.  For the traced run only, :meth:`Tracer.install`
replaces every public function and method of the nuqmc layer modules --
including the names other modules bound at import (``nuqmc.integrate.
star_discrepancy``, the names ``nuqmc.cli`` imports, the package namespace)
-- with a recorder, and :meth:`Tracer.uninstall` restores the originals.

A span holds its name, layer, start, end, parent and job id.  Spans stay in
memory; the benchmark aggregates them when the run ends.  Self time is a
span's duration minus its child spans; ``owned`` time also folds in
same-layer helper spans that no metric names, so e.g. ``hk0_prefix_grid``
counts towards the decomposition that called it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc

LAYERS = ("sequences", "measures", "discrepancy", "variation",
          "integrate", "transforms", "jsonio", "cli")

OFF, SPANS, MEMORY = "off", "spans", "memory"

perf_counter = time.perf_counter


class Span:
    __slots__ = ("name", "layer", "parent", "job", "start", "end", "args", "peak")

    def __init__(self, name, layer, parent, job, args):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.job = job
        self.args = args
        self.start = self.end = 0.0
        self.peak = 0


class Tracer:
    """Records spans around calls into nuqmc's modules.

    ``keep_args`` names the spans whose arguments are kept so that work
    counts can be computed from them after the run; ``memory_names`` the
    spans whose tracemalloc peak is taken in ``MEMORY`` mode.
    """

    def __init__(self, keep_args=(), memory_names=()):
        self.mode = OFF
        self.job = None
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.keep_args = frozenset(keep_args)
        self.memory_names = frozenset(memory_names)
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        modules = [package] + [importlib.import_module(f"{package.__name__}.{n}")
                               for n in LAYERS]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    layer = _layer_of(obj)
                    if layer:
                        self._patch(module, name, self._wrap(obj, f"{layer}.{obj.__qualname__}", layer))
                elif inspect.isclass(obj) and obj.__module__ == getattr(module, "__name__", None):
                    layer = _layer_of(obj)
                    if layer:
                        self._install_class(obj, layer)

    def _install_class(self, cls, layer: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            if isinstance(raw, classmethod):
                fn = raw.__func__
                wrapped = classmethod(self._wrap(fn, f"{layer}.{fn.__qualname__}", layer))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, f"{layer}.{raw.__qualname__}", layer)
            else:
                continue
            self._patch(cls, name, wrapped)

    def _patch(self, target, name: str, new) -> None:
        self._patches.append((target, name, vars(target)[name]))
        setattr(target, name, new)

    def uninstall(self) -> None:
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)
        self._wrappers.clear()

    def _wrap(self, fn, name: str, layer: str):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        tracer = self
        keep = name in self.keep_args
        memory = name in self.memory_names

        @functools.wraps(fn)
        def recorder(*args, **kwargs):
            mode = tracer.mode
            if mode == OFF or (mode == MEMORY and not memory):
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = Span(name, layer, stack[-1] if stack else -1, tracer.job,
                        (args, kwargs) if keep else None)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if mode == MEMORY:
                tracemalloc.start()
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                if mode == MEMORY:
                    span.peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()

        self._wrappers[key] = recorder
        return recorder

    # -- analysis ----------------------------------------------------------

    def owned_times(self, roots) -> list[float]:
        """Per span: duration minus child spans, plus the owned time of
        same-layer children that are not themselves in ``roots``."""
        spans = self.spans
        owned = [s.end - s.start for s in spans]
        # children are recorded after their parents: a reverse sweep sees
        # every child's final owned time before its parent is adjusted
        for i in range(len(spans) - 1, -1, -1):
            s = spans[i]
            if s.parent < 0:
                continue
            p = spans[s.parent]
            owned[s.parent] -= s.end - s.start
            if s.layer == p.layer and s.name not in roots:
                owned[s.parent] += owned[i]
        return owned

    def reset(self) -> None:
        self.spans = []
        self.stack = []


def _layer_of(obj) -> str | None:
    parts = (getattr(obj, "__module__", "") or "").split(".")
    if len(parts) == 2 and parts[0] == "nuqmc" and parts[1] in LAYERS:
        return parts[1]
    return None


class CountingCallback:
    """Counts and times calls of the CDF callback handed to
    ``AnalyticCdfMeasure``; a pass-through while ``active`` is False."""

    def __init__(self, fn):
        self.fn = fn
        self.active = False
        self.calls = 0
        self.seconds = 0.0

    def __call__(self, a):
        if not self.active:
            return self.fn(a)
        t0 = perf_counter()
        try:
            return self.fn(a)
        finally:
            self.seconds += perf_counter() - t0
            self.calls += 1
