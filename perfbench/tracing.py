"""In-memory span tracer that instruments ``jafs`` layer functions from
outside the package.

``Tracer.instrument`` replaces a function with a timing wrapper in every
``jafs`` module that holds a reference to it, so calls made inside the
package (``run_scenario`` calling ``ula_snapshots``) are traced without
touching the package.  ``restore`` puts the originals back.

A span records its name, parent, start and end.  Spans opened on
a worker thread with no open span of their own take the main thread's
innermost open span as parent, which is how ``run_sweep``'s thread-pool
jobs attach to the sweep.  Spans flagged ``mem`` also record the peak
``tracemalloc`` allocation above the span's starting level; tracing runs
only while at least one such span is open, so Python-heavy code outside
them (CSV export) pays no allocation-tracking cost.  When two threads are
inside ``mem`` spans at once, their peaks are process-wide, not per span.
"""

from __future__ import annotations

import functools
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack = []
        self._next_id = 0
        self._mem_users = 0
        self._patched = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, mem=False):
        stack = self._stack()
        outer = stack[-1:] or self._main_stack[-1:]
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        rec = {"id": sid, "parent": outer[0]["id"] if outer else None, "name": name}
        track = mem and not getattr(self._local, "in_mem", False)
        if track:
            with self._lock:
                if self._mem_users == 0:
                    tracemalloc.start()
                self._mem_users += 1
            self._local.in_mem = True
            base = tracemalloc.get_traced_memory()[0]
        stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            if track:
                rec["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 1e6
                self._local.in_mem = False
                with self._lock:
                    self._mem_users -= 1
                    if self._mem_users == 0:
                        tracemalloc.stop()
            with self._lock:
                self.spans.append(rec)

    def instrument(self, modules, table):
        """Wrap each ``(module, attr, span_name, mem)`` function wherever
        one of ``modules`` references it."""
        for module, attr, name, mem in table:
            func = getattr(module, attr)
            wrapper = self._wrap(func, name, mem)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is func:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, func))

    def restore(self):
        for mod, key, func in reversed(self._patched):
            setattr(mod, key, func)
        self._patched.clear()

    def _wrap(self, func, name, mem):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name, mem):
                return func(*args, **kwargs)

        return wrapper

    def take(self):
        """Finished spans since the last call, with self times filled in."""
        with self._lock:
            spans, self.spans = self.spans, []
        add_self_times(spans)
        return spans


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def add_self_times(spans):
    """Self time = duration minus the part of it covered by child spans
    (a union, since children on pool threads overlap)."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    for s in spans:
        clipped = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children[s["id"]]
        ]
        s["self_s"] = s["end"] - s["start"] - _union_length(
            (lo, hi) for lo, hi in clipped if hi > lo
        )


def summarize(spans):
    """Per span name: call count, summed inclusive and self time, largest
    traced peak."""
    out = {}
    for s in spans:
        row = out.setdefault(
            s["name"], {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "peak_mb": 0.0}
        )
        row["calls"] += 1
        row["incl_s"] += s["end"] - s["start"]
        row["self_s"] += s["self_s"]
        row["peak_mb"] = max(row["peak_mb"], s.get("peak_mb", 0.0))
    return out
