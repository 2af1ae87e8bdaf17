"""In-memory span tracer that wraps calls into the codelattice modules.

The tracer never edits the package source.  It replaces, for one layer at a
time, the attributes through which *other* modules (and the benchmark) reach
that layer's public functions, so a span marks each crossing of a layer
boundary.  A call made while the innermost open span already belongs to the
same layer is not recorded: it is that layer's own work, and recording it
would only add overhead.  Spans stay in memory; `self_times` reduces them at
the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = (
    "codes",
    "lattices",
    "enumeration",
    "sublattice_search",
    "invariants",
    "exact",
    "verify",
    "cli",
)

# Public methods of exact.Radical; calls to them are the `exact` layer.
RADICAL_METHODS = (
    "__init__",
    "as_triple",
    "is_rational",
    "__float__",
    "__eq__",
    "__hash__",
    "__lt__",
    "__le__",
    "__gt__",
    "__ge__",
    "__mul__",
    "__pow__",
    "__truediv__",
    "__rtruediv__",
    "to_decimal",
    "__str__",
)


class Span:
    """One call into a layer: [start, end) on the perf_counter clock."""

    __slots__ = ("layer", "name", "job", "parent", "start", "end", "counts")

    def __init__(self, layer, name, job, parent, start):
        self.layer = layer
        self.name = name
        self.job = job
        self.parent = parent
        self.start = start
        self.end = None
        self.counts = None

    def as_dict(self, index):
        return {
            "id": index,
            "layer": self.layer,
            "name": self.name,
            "job": self.job,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


class Tracer:
    """Records spans while `enabled`; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.enabled = False
        self.job = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, layer, name, fn, observe=None, force=False):
        """Return fn wrapped in a span of `layer`.

        observe(span_index, args, kwargs, result) may set span counts.
        force records the span even inside a span of the same layer.
        """
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or (
                not force and stack and spans[stack[-1]].layer == layer
            ):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            index = len(spans)
            span = Span(layer, name, self.job, parent, clock())
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.counts = {f"raised:{type(exc).__name__}": 1}
                raise
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                observe(index, args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package, importers=(), observers=None):
        """Patch every cross-module reference to each layer's public functions.

        importers are extra namespaces (such as the benchmark's own) whose
        references are patched too.  observers maps "layer.function" to an
        observe callback.
        """
        observers = observers or {}
        modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        importers = list(modules.values()) + [package, *importers]
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapped = self.wrap(layer, name, fn, observers.get(f"{layer}.{name}"))
                for other in importers:
                    if other is not module and other.__dict__.get(name) is fn:
                        self._set(other, name, wrapped)
        radical = modules["exact"].Radical
        for name in RADICAL_METHODS:
            fn = radical.__dict__[name]
            self._set(radical, name, self.wrap("exact", f"Radical.{name}", fn))

    def patch(self, owner, attr, value):
        """Replace owner.attr until `uninstall`."""
        self._set(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self):
        self.spans.clear()
        self.stack.clear()


# -- reduction --------------------------------------------------------------


def covered(intervals) -> float:
    """Length of the union of [start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start) - covered(children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per layer: self seconds, number of spans and summed span counts."""
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        row = out[span.layer]
        row["self_s"] += own
        row["calls"] += 1
        for key, value in (span.counts or {}).items():
            row[key] = row.get(key, 0) + value
    return out
