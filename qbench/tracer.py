"""Span tracer that wraps qshift's public functions from outside the package.

Each wrapped call is a span with a name, a start, an end and a parent (the
innermost wrapped call still open when it began).  Every span is folded
into a per-(function, parent) aggregate of call count, self time and total
time; spans of the functions named in ``keep`` are also stored one by one.
Self time is a span's duration minus the durations of its direct children,
so the self times of all spans under a root add up to the root's duration.

The ``Q`` arithmetic operators are deliberately not wrapped: intercepting
them would replace the numeric type the program computes with.  Their cost
lands in the self time of whichever wrapped function performs it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, keep=()):
        self.keep = frozenset(keep)
        self.stack = []  # open frames: [name, child_seconds, span_id]
        self.edges = defaultdict(lambda: [0, 0.0])  # (name, parent) -> [calls, self_s]
        self.totals = defaultdict(float)  # name -> seconds in outermost calls
        self.open_count = defaultdict(int)  # name -> calls of it still open
        self.spans = []  # kept spans: (name, parent_span_id, start, end)
        self._patches = []

    def wrap(self, name, fn):
        """A function that runs ``fn`` inside a span called ``name``."""
        stack, edges, totals = self.stack, self.edges, self.totals
        open_count, spans, clock = self.open_count, self.spans, time.perf_counter
        keep = name in self.keep

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = None
            if keep:
                span_id = len(spans)
                spans.append(None)
            frame = [name, 0.0, span_id]
            stack.append(frame)
            open_count[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_count[name] -= 1
                duration = end - start
                edge = edges[(name, parent[0] if parent else None)]
                edge[0] += 1
                edge[1] += duration - frame[1]
                if not open_count[name]:
                    totals[name] += duration
                if parent is not None:
                    parent[1] += duration
                if keep:
                    spans[span_id] = (name, parent[2] if parent else None,
                                      start, end)

        return traced

    def install(self, targets, modules):
        """Wrap each ``(name, owner, attribute)`` target.

        A class attribute is replaced on the class.  A module-level
        function is replaced in every module of ``modules`` (and every
        dict value in them, such as a registry) that holds it by name, so
        calls through ``from .x import f`` are seen too.
        """
        for name, owner, attr in targets:
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch_item(value, k, wrapped)

    def uninstall(self):
        for restore in reversed(self._patches):
            restore()
        self._patches.clear()

    def _patch(self, owner, attr, value):
        old = getattr(owner, attr)
        setattr(owner, attr, value)
        self._patches.append(lambda: setattr(owner, attr, old))

    def _patch_item(self, mapping, key, value):
        old = mapping[key]
        mapping[key] = value
        self._patches.append(lambda: mapping.__setitem__(key, old))

    def per_function(self):
        """name -> {"calls", "self_s", "total_s"} summed over parents."""
        out = {}
        for (name, _parent), (calls, self_s) in self.edges.items():
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                        "total_s": self.totals[name]})
            row["calls"] += calls
            row["self_s"] += self_s
        return out


def qshift_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "qshift" or n.startswith("qshift.")]
