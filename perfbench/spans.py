"""In-memory span recorder for the traced benchmark run.

A span is one call into a library function: name, start and end
(``perf_counter_ns``), the span that was open on the same thread when it
started (its parent), the thread and the unit of work (train step, eval
batch or ingest trial) it belongs to.  Spans are kept in a list and written
out once, when the run ends.

Parents are tracked per thread, so a span's children always ran on its own
thread and its self time (duration minus the time its direct children
cover) is exact even while ``preprocess_dataset`` runs trials on a pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []  # ids of the spans open on this thread
        self.unit = None  # unit id new spans on this thread belong to


class Tracer:
    """Records spans and counters; ``wrap`` turns a function into a probe."""

    def __init__(self):
        self.spans = []  # [id, name, start_ns, end_ns, parent_id, thread, unit]
        self.counts = Counter()
        self.sets = defaultdict(set)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = _ThreadState()

    # -- units of work ------------------------------------------------------

    @property
    def unit(self):
        return self._local.unit

    @unit.setter
    def unit(self, value):
        self._local.unit = value

    # -- counters -------------------------------------------------------------

    def add(self, key, value=1):
        with self._lock:
            self.counts[key] += value

    def remember(self, key, item):
        """Add ``item`` to the distinct set ``key`` (for distinct counts)."""
        with self._lock:
            self.sets[key].add(item)

    # -- spans ----------------------------------------------------------------

    def wrap(self, fn, name, before=None, after=None):
        """Return ``fn`` recording a span ``name`` per call.

        ``before(args, kwargs)`` runs first and may return a unit id that
        holds for the call's duration (a hook that sets ``self.unit``
        instead makes it outlast the call); ``after(args, kwargs, result)``
        runs once the span is closed.
        """
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            saved_unit = local.unit
            unit = before(args, kwargs) if before is not None else None
            if unit is not None:
                local.unit = unit
            span_unit = local.unit
            stack = local.stack
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append([span_id, name, start, end, parent, threading.get_ident(), span_unit])
                if unit is not None:
                    local.unit = saved_unit
            if after is not None:
                after(args, kwargs, result)
            return result

        return probe

    # -- analysis ---------------------------------------------------------------

    def summary(self):
        """Per span name: call count, total duration and total self time (ns)."""
        covered = Counter()
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
        for span_id, name, start, end, _, _, _ in self.spans:
            row = out[name]
            row["calls"] += 1
            row["ns"] += end - start
            row["self_ns"] += end - start - covered[span_id]
        return out

    def durations(self, name):
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def write(self, path):
        """One JSON object per span, in order of completion."""
        keys = ("id", "name", "start_ns", "end_ns", "parent", "thread", "unit")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class Patches:
    """Attribute replacements, undone in reverse order by ``restore``."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attr)  # an instance attribute shadowing a method
            else:
                setattr(owner, attr, own)


_MISSING = object()
