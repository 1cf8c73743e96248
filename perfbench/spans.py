"""In-memory spans around hopfcheck's public functions, and self-time arithmetic.

A `Tracer` replaces a function at every module-level binding site in the
hopfcheck package (several modules import functions by name, so patching
only the defining module would silently miss calls).  Each call of a
wrapped function becomes a span: (id, name, parent id, start, end).  Spans
are kept in per-thread arrays and written out once, when the traced
process ends; `self_times` turns them into per-layer call counts and self
times.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans.  Children from worker threads may overlap, so
"covered" is the length of the union of the child intervals.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import types
from array import array
from collections import defaultdict
from pathlib import Path

#: parent id of a span opened with no enclosing span
NO_PARENT = -1


class _ThreadBuffer:
    """Spans closed by one thread, in closing order."""

    def __init__(self):
        self.stack = []                 # ids of the open spans
        self.ids = array("q")
        self.names = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")


class Tracer:
    def __init__(self):
        self.names = []
        self.counters = defaultdict(int)
        self.checks = []                # (execute_check span id, workers, report status)
        self._name_ids = {}
        self._ids = itertools.count()
        self._tls = threading.local()
        self._buffers = []
        # parent for spans opened in worker threads, whose stacks start empty
        self.thread_parent = NO_PARENT

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _buffer(self) -> _ThreadBuffer:
        try:
            return self._tls.buf
        except AttributeError:
            buf = self._tls.buf = _ThreadBuffer()
            self._buffers.append(buf)
            return buf

    def wrap(self, name: str, fn, *, outermost_only: bool = False):
        """Return fn wrapped so that each call records a span called `name`.

        With outermost_only, fn's recursive calls through its own module
        global open no span: the wrapper calls a copy of fn whose globals
        bind that name to the copy itself, so recursion adds no wrapper cost.
        """
        if outermost_only:
            fn = _recursion_free(fn)
        nid = self.name_id(name)
        buffer = self._buffer
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            buf = buffer()
            stack = buf.stack
            parent = stack[-1] if stack else self.thread_parent
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buf.ids.append(sid)
                buf.names.append(nid)
                buf.parents.append(parent)
                buf.starts.append(start)
                buf.ends.append(end)

        traced.__wrapped__ = fn
        return traced

    def current_span(self) -> int:
        stack = self._buffer().stack
        return stack[-1] if stack else NO_PARENT

    # -- output ------------------------------------------------------------

    def dump(self, path: Path, invocation: int):
        """Write spans as raw arrays plus a JSON header naming them."""
        bufs = self._buffers
        header = {
            "invocation": invocation,
            "names": self.names,
            "counters": dict(self.counters),
            "checks": self.checks,
            "count": sum(len(b.ids) for b in bufs),
        }
        with open(path.with_suffix(".bin"), "wb") as fh:
            for field in ("ids", "names", "parents", "starts", "ends"):
                for b in bufs:
                    getattr(b, field).tofile(fh)
        path.with_suffix(".json").write_text(json.dumps(header))


def _recursion_free(fn):
    """A copy of fn whose recursive calls by global name reach the copy."""
    names = dict(fn.__globals__)
    copy = types.FunctionType(fn.__code__, names, fn.__name__, fn.__defaults__,
                              fn.__closure__)
    copy.__kwdefaults__ = fn.__kwdefaults__
    for key, value in fn.__globals__.items():
        if value is fn:
            names[key] = copy
    return copy


def load(path: Path):
    """Read a dump: (header, list of (id, name, parent, start, end) spans)."""
    header = json.loads(path.with_suffix(".json").read_text())
    n = header["count"]
    cols = []
    with open(path.with_suffix(".bin"), "rb") as fh:
        for code in ("q", "H", "q", "d", "d"):
            col = array(code)
            col.fromfile(fh, n)
            cols.append(col)
    names = header["names"]
    spans = [(sid, names[nid], parent, start, end)
             for sid, nid, parent, start, end in zip(*cols)]
    return header, spans


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    covered = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(spans) -> dict:
    """Per-name call count and self time from (id, name, parent, start, end) spans.

    Returns {name: {"calls": n, "self_s": s}}.
    """
    children = defaultdict(list)
    for _, _, parent, start, end in spans:
        if parent != NO_PARENT:
            children[parent].append((start, end))
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for sid, name, _, start, end in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - union_length(children.get(sid, ()), start, end)
    return dict(out)
