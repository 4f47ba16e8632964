"""In-memory spans around calls into mediahom's layers.

The tracer wraps public functions and methods of mediahom's modules from
outside the package: ``patch`` swaps a named attribute for a timing
wrapper made by ``wrap`` (or a counting one made by ``count``) and
``uninstall`` puts the originals back.  A span records its
name, layer, start, end, the span that caused it and the operation it
belongs to; spans stay in memory until the benchmark writes them out.
A layer's self time is its spans' durations minus the part covered by
child spans, so the self times of all layers plus the operation's own
self time add up to the operation's wall time.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []          # [id, parent, op, name, layer, start, end]
        self.counters = defaultdict(float)
        self.active = True       # when False, wrappers call straight through
        self._stack = []
        self._op = None
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def begin_op(self, op_id):
        self._op = op_id
        return self._open("op", "op")

    def end_op(self, token):
        self._close(token)
        self._op = None

    def in_span(self, name):
        """Whether a span of this name is open."""
        return any(name == span_name for _, span_name in self._stack)

    def _open(self, name, layer):
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([span_id, parent, self._op, name, layer,
                           time.perf_counter(), None])
        self._stack.append((span_id, name))
        return span_id

    def _close(self, span_id):
        self.spans[span_id][6] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, layer, after=None):
        """``fn`` inside a span; ``after(args, kwargs, result)`` updates counters."""
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id)
            if after is not None:
                after(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def count(self, fn, after):
        """``fn`` with a counter hook but no span (for per-collision kernels)."""
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                after(args, kwargs, result)
            return result
        counted.__wrapped__ = fn
        return counted

    # -- patching -------------------------------------------------------------

    def patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- summaries --------------------------------------------------------------

    def self_times(self, op_ids):
        """Self time per layer, and the operations' wall time, over ``op_ids``."""
        child_time = defaultdict(float)
        for span_id, parent, op, name, layer, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(float)
        wall = 0.0
        for span_id, parent, op, name, layer, start, end in self.spans:
            if op not in op_ids:
                continue
            totals[layer] += (end - start) - child_time[span_id]
            if parent is None:
                wall += end - start
        return totals, wall

    def records(self):
        return [
            {"id": s[0], "parent": s[1], "op": s[2], "name": s[3],
             "layer": s[4], "start": s[5], "end": s[6]}
            for s in self.spans
        ]
