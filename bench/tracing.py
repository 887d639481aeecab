"""Spans around calls into the tpe_as modules, recorded from outside them.

A call is traced by rebinding a function's name in every module namespace
that imported it, so the program's own source stays untouched.  Spans are
kept in memory (name, parent span, search id, start, end); self time and
busy time are computed when the run ends.
"""

from __future__ import annotations

import csv
import functools
import gzip
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names = []  # span name per name id
        self._name_ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.search = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(float)  # "<span name>.<counter>" -> total
        self.search_id = -1
        self._stack = []
        self._patches = []  # (namespace, attribute, original)

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, span_name: str, fn, counters=None):
        """Return fn recording one span per call; counters map result to counts.

        counters is a dict {counter name: f(args, result) -> number}.
        """
        name_id = self._name_id(span_name)
        stack = self._stack
        keyed = [(f"{span_name}.{c}", f) for c, f in (counters or {}).items()]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.search.append(self.search_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if self.search_id >= 0:
                for key, f in keyed:
                    self.counts[key] += f(args, result)
            return result

        return traced

    def patch(self, namespace, attribute: str, span_name: str, counters=None):
        original = getattr(namespace, attribute)
        self._patches.append((namespace, attribute, original))
        setattr(namespace, attribute, self.wrap(span_name, original, counters))

    def unpatch_all(self) -> None:
        while self._patches:
            namespace, attribute, original = self._patches.pop()
            setattr(namespace, attribute, original)

    # -- analysis ----------------------------------------------------------

    def summarize(self, select) -> dict:
        """Per span name: calls, busy_s (outermost spans only) and self_s,
        over the spans whose search id passes select."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += dur[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            if not select(self.search[i]):
                continue
            name_id = self.name_of[i]
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child_time[i]
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != name_id:
                p = self.parent[p]
            if p < 0:  # not nested in a span of the same name
                row["busy_s"] += dur[i]
        return out

    def write_spans(self, path) -> None:
        """Write every span as gzipped CSV, times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "search", "name", "start_s", "end_s"])
            for i in range(len(self.start)):
                w.writerow(
                    [i, self.parent[i], self.search[i], self.names[self.name_of[i]],
                     f"{self.start[i] - t0:.9f}", f"{self.end[i] - t0:.9f}"]
                )
