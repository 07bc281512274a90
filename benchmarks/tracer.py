"""Span tracing from outside the program, for the per-layer metrics.

Each patch point replaces a name in the module that calls it (modules bind
imported names at import time, so patching the defining module alone would
miss them) or a method on the class that defines it. A wrapper records one
span (name, start, end, parent) in flat arrays kept in memory; a layer's
self time is its spans' duration minus the part covered by child spans.
Counts that need the call's arguments or result (rows, deferred spawns,
pair tests, distinct searches) are taken by hooks at the same boundary.

Patch points that no longer exist in the program are skipped and listed
in ``missing``, so a refactor that removes a name reads as zero calls
rather than crashing the benchmark.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

Hook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_id: Dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self._seen: set = set()
        self._undo: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, span: str, hook: Optional[Hook] = None,
             before: Optional[Hook] = None) -> None:
        """Replace owner.attr by a span-recording wrapper. For a class,
        only a method the class itself defines is wrapped, so inherited
        methods are never wrapped twice."""
        table = vars(owner)
        if attr not in table:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        fn = table[attr]
        sid = self._name_id.setdefault(span, len(self.names))
        if sid == len(self.names):
            self.names.append(span)
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs, None)
            idx = len(tracer.start)
            tracer.name_of.append(sid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if hook is not None:
                hook(tracer, args, kwargs, res)
            return res

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- tick-scoped distinct inputs -----------------------------------------

    def next_tick(self) -> None:
        self._seen.clear()

    def see(self, key) -> None:
        if key not in self._seen:
            self._seen.add(key)
            self.counts["planner.best_response.distinct"] += 1

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total ms, self ms."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n)
        end = np.frombuffer(self.end, dtype=float, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        name_of = np.frombuffer(self.name_of, dtype=np.int32, count=n)
        dur = end - start
        covered = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_t = dur - covered
        out: Dict[str, Dict[str, float]] = {}
        for sid, name in enumerate(self.names):
            sel = name_of == sid
            out[name] = {
                "calls": int(sel.sum()),
                "ms": float(dur[sel].sum() * 1e3),
                "self_ms": float(self_t[sel].sum() * 1e3),
            }
        return out
