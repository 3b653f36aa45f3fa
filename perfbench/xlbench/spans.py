"""In-memory span recording and self-time arithmetic.

A span is a dict ``{"name", "start", "end", "parent", "attrs"}`` where
``parent`` is the index of the enclosing span in the same list, or -1.
Spans are kept in memory and written out once, when the traced process ends.
"""

from contextlib import contextmanager
from time import perf_counter


class Recorder:
    """Collects spans of one thread; nesting follows the call stack."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append({"name": name, "start": 0.0, "end": 0.0,
                           "parent": self._stack[-1] if self._stack else -1,
                           "attrs": {}})
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield self.spans[idx]
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx]["start"], self.spans[idx]["end"] = start, end

    def wrap(self, fn, name, attrs=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or ``name(args, kwargs)``; ``attrs(args, kwargs,
        result)`` returns a small dict stored on the span after the call.
        """
        def wrapper(*args, **kwargs):
            with self.span(name(args, kwargs) if callable(name) else name) as span:
                result = fn(*args, **kwargs)
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return result

        return wrapper


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(i)
    out = []
    for i, span in enumerate(spans):
        lo, hi = span["start"], span["end"]
        clipped = [(max(spans[c]["start"], lo), min(spans[c]["end"], hi))
                   for c in children[i]]
        out.append((hi - lo) - _covered(clipped))
    return out
