"""In-memory spans around calls into matsemi's public functions.

A `Tracer` wraps a function so that every call records one span: its
name, the span that was open when it started (its parent), and its
start and end times from `time.perf_counter`.  `Tracer.install` puts
such a wrapper into every loaded `matsemi.*` namespace that binds the
original function, because that is where callers look it up (for
example `matsemi.harness.generate_closure`, or `matsemi.cones.properness`
as called from `extreme_rays`).  `Tracer.uninstall` restores the
originals.  Nothing in the package itself changes.

Spans stay in memory (four parallel lists) until `write` dumps them.
A span's self time is its duration minus the durations of its direct
children; calls nest strictly because the benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable, Optional

Hook = Callable[["Tracer", object], None]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, on_result: Optional[Hook] = None,
             on_error: Optional[Hook] = None) -> Callable:
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                if on_error is not None:
                    on_error(self, e)
                raise
            ends[idx] = clock()
            starts[idx] = t0
            stack.pop()
            if on_result is not None:
                on_result(self, out)
            return out

        return traced

    def install(self, table) -> None:
        """Wrap each `(span name, module, attribute, on_result, on_error)`
        of `table` wherever a matsemi module binds it.  A function the
        package no longer has is skipped."""
        for name, module, attr, on_result, on_error in table:
            original = getattr(importlib.import_module(module), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, on_result, on_error)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "matsemi"
                                       or mod_name.startswith("matsemi.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._installed.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._installed):
            setattr(mod, key, original)
        self._installed.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i]
                for i in range(len(self.names))]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.self_times()):
            row = out.setdefault(self.names[i],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.ends[i] - self.starts[i]
            row["self_s"] += s
        return out

    def child_calls(self, name: str, parent: str) -> tuple[int, float]:
        """Count and seconds of the `name` spans whose direct parent span
        is named `parent`."""
        count, seconds = 0, 0.0
        for i, (n, p) in enumerate(zip(self.names, self.parents)):
            if n == name and p >= 0 and self.names[p] == parent:
                count += 1
                seconds += self.ends[i] - self.starts[i]
        return count, seconds

    def write(self, path) -> None:
        """One line per span: index, parent, name, start and end in
        seconds from the first span's start."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as f:
            f.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                f.write(f"{i}\t{self.parents[i]}\t{name}\t"
                        f"{self.starts[i] - t0:.9f}\t"
                        f"{self.ends[i] - t0:.9f}\n")
