"""Outside-in tracing: wrap public functions of the program at the module
attributes their callers look up, and record one span per call.

Spans stay in memory as parallel arrays (name id, parent index, start ns,
end ns) and are written out when the run ends.  Nothing is wrapped until
:meth:`Tracer.install`, so an untraced run executes the program's own
functions, and a wrapped function called outside any span records nothing.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("l")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        """A traced stand-in for ``fn``.

        ``counter`` is an optional (count name, callable) pair; the callable
        maps each result to an amount added to ``counts[count name]``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        return traced

    def install(self, targets: dict, package: str) -> None:
        """Wrap each ``"module.function"`` target wherever ``package`` binds it.

        ``targets`` maps a dotted name below ``package`` to a counter (see
        :meth:`wrap`) or None.  Every loaded module of the package that holds
        the same function object under the same name gets the wrapper, so
        callers that imported the function by name are traced too.
        """
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == package or key.startswith(package + "."))]
        for dotted, counter in targets.items():
            module_name, func_name = dotted.rsplit(".", 1)
            original = getattr(sys.modules[f"{package}.{module_name}"], func_name)
            traced = self.wrap(dotted, original, counter)
            for mod in modules:
                if getattr(mod, func_name, None) is original:
                    self._patched.append((mod, func_name, original))
                    setattr(mod, func_name, traced)

    def uninstall(self) -> None:
        for mod, func_name, original in reversed(self._patched):
            setattr(mod, func_name, original)
        self._patched.clear()

    def records(self) -> list[tuple[str, int, int, int]]:
        """Spans as (name, parent index, start ns, end ns)."""
        return [(self.names[n], p, s, e)
                for n, p, s, e in zip(self.name_of, self.parent, self.start, self.end)]

    def write(self, path) -> None:
        """Write the spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for index, (name, parent, start, end) in enumerate(self.records()):
                handle.write(f"{index}\t{parent}\t{name}\t{start}\t{end}\n")


def covered(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def aggregate(records) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s and total_s.

    Self time is a span's duration minus the part of it that its child
    spans cover.  Total time counts only spans with no ancestor of the same
    name, so recursion is not counted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for name, parent, start, end in records:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for index, (name, parent, start, end) in enumerate(records):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        inner = [(max(s, start), min(e, end)) for s, e in children.get(index, ())]
        row["self_s"] += (end - start - covered((s, e) for s, e in inner if s < e)) / 1e9
        ancestor = parent
        while ancestor >= 0 and records[ancestor][0] != name:
            ancestor = records[ancestor][1]
        if ancestor < 0:
            row["total_s"] += (end - start) / 1e9
    return out
