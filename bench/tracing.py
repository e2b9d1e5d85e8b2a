"""Spans around calls into the simplexgame layers, recorded from outside.

The tracer replaces module attributes that callers look up (for example
`learning.iterate`, and `harness.expected_frustration`, the name under which
the harness imported `game.expected_frustration`) with wrappers that record
a span per call: name, start, end and parent.  Spans are kept in memory and
written out after the traced run; nothing inside `src/` changes.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np


def _package_modules(package: str):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


class Tracer:
    """Wraps the named callables of a package and records one span per call.

    `targets` are (module, attribute) pairs; an attribute may be
    "Class.method" for a method or classmethod.  `counted` pairs get a call
    counter only, for functions too hot and too fine-grained to span.  Use as a
    context manager: wrappers are installed on entry and the originals put
    back on exit.
    """

    def __init__(self, package: str, targets, counted=(), on_result=None):
        self.package = package
        self.targets = list(targets)
        self.counted = list(counted)
        self.on_result = dict(on_result or {})
        self.spans: list = []       # [name, start, end, parent index or -1]
        self.counts: dict = defaultdict(int)
        self.missing: list = []
        self._stack: list = []
        self._restore: list = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for module, attr in self.targets:
            self._install(module, attr, self._span_wrapper)
        for module, attr in self.counted:
            self._install(module, attr, self._count_wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _install(self, module: str, attr: str, make_wrapper) -> None:
        name = f"{module}.{attr.rsplit('.', 1)[-1]}"
        mod = sys.modules.get(f"{self.package}.{module}")
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or leaf not in vars(owner):
            self.missing.append(name)
            return
        if owner_name:
            raw = vars(owner)[leaf]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make_wrapper(name, raw.__func__))
            else:
                wrapped = make_wrapper(name, raw)
            self._restore.append((owner, leaf, raw))
            setattr(owner, leaf, wrapped)
            return
        original = vars(owner)[leaf]
        wrapper = make_wrapper(name, original)
        for m in _package_modules(self.package):
            for key, value in list(vars(m).items()):
                if value is original:
                    self._restore.append((m, key, original))
                    setattr(m, key, wrapper)

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack
        hook = self.on_result.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- analysis -----------------------------------------------------------

    def layer_stats(self) -> dict:
        """Per span name: calls, total seconds, self seconds, durations array.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly within one thread, so that is the part
        of the interval no child covers.
        """
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations = defaultdict(list)
        self_time = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            durations[name].append(end - start)
            self_time[name] += (end - start) - child_time[index]
        return {
            name: {"calls": len(d), "total_s": float(sum(d)),
                   "self_s": self_time[name], "durations": np.asarray(d)}
            for name, d in durations.items()
        }

    def root_seconds(self) -> float:
        """Summed duration of spans without a parent: the traced time covered."""
        return float(sum(end - start for _, start, end, parent in self.spans
                         if parent < 0))

    def write(self, path) -> None:
        """One JSON object per line: id, name, start, end, parent (-1 for roots)."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
