"""In-memory span tracing of the library's public functions.

The tracer wraps every public function defined in the traced modules and
substitutes the wrapper wherever the library holds a reference to the
original: module attributes (including names re-imported with ``from ..
import``) and module-level tuples, lists and dicts such as
``verification.ALL_SUITES`` and ``cli._COMMANDS``.  ``restore`` puts every
original object back.  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, attrs]``; ``parent`` is the index of
the enclosing span or -1.  Spans stay in memory until the run ends.  Tracing
assumes one thread: the traced pass never runs the verification pool.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from collections import defaultdict

TRACED_MODULES = (
    "verification",
    "dnls",
    "al",
    "conserved",
    "glm",
    "algebra",
    "darboux",
    "cli",
    "colehopf",
)


class Tracer:
    """Wraps the public functions of ``lattice_akns`` and records spans.

    ``annotators`` maps a span name to ``f(bound_arguments, result) -> dict``;
    the dict is stored on the span so that per-size figures (lattice size N,
    window W, non-finite results, bytes written) can be read off the trace.
    """

    def __init__(self, annotators: dict):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._annotators = annotators
        self._undo: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        annotate = self._annotators.get(name)
        signature = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if annotate is not None:
                span[4] = annotate(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced modules' public functions (already imported)."""
        wrapped = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"lattice_akns.{short}"]
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
        holders = [
            mod
            for name, mod in sys.modules.items()
            if name == "lattice_akns" or name.startswith("lattice_akns.")
        ]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                new = _substitute(obj, wrapped)
                if new is not obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, new)

    def restore(self) -> None:
        while self._undo:
            mod, attr, obj = self._undo.pop()
            setattr(mod, attr, obj)

    def self_times(self) -> list[float]:
        """Per span: duration minus the part of it that child spans cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def write(self, path, t0: float) -> None:
        """Write the spans as JSON, times in seconds from ``t0``."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[name], round(start - t0, 9), round(end - t0, 9), parent]
            for name, start, end, parent, _ in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "names": names, "spans": rows}, fh)


def _substitute(obj, wrapped: dict):
    if isinstance(obj, types.FunctionType):
        return wrapped.get(obj, obj)
    if isinstance(obj, (tuple, list)):
        items = [_substitute(o, wrapped) for o in obj]
        if any(a is not b for a, b in zip(items, obj)):
            return type(obj)(items)
    elif isinstance(obj, dict):
        items = {k: _substitute(v, wrapped) for k, v in obj.items()}
        if any(items[k] is not v for k, v in obj.items()):
            return items
    return obj


def summarize(tracer: Tracer) -> dict:
    """Aggregate spans by name: calls, inclusive and self seconds, attrs."""
    by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": []})
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        name, start, end, _, attrs = span
        entry = by_name[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += self_s
        if attrs is not None:
            entry["attrs"].append((end - start, attrs))
    return by_name
