"""Span recording around public methods, and the self-time arithmetic.

The benchmark never edits the program to trace it.  :class:`SpanRecorder`
replaces a bound method on one built instance with a wrapper that records
``(id, parent, request, name, start, end)`` for each call, keeps the spans
in memory, and writes them out once when the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

Interval = Tuple[float, float]

# Span tuple layout.
ID, PARENT, REQUEST, NAME, START, END = range(6)


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[tuple]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Interval]] = defaultdict(list)
    for span in spans:
        if span[PARENT]:
            children[span[PARENT]].append((span[START], span[END]))
    result = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = union_length(
            (max(a, start), min(b, end)) for a, b in children.get(span[ID], ()) if b > start and a < end
        )
        result[span[ID]] = (end - start) - covered
    return result


class SpanRecorder:
    """In-memory spans; the parent is the innermost open span on the thread."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._paused = False

    @contextlib.contextmanager
    def paused(self):
        """Every wrapper calls straight through, on every thread."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def request(self, request_id: int, traced: bool = True):
        """Tag every span opened inside with ``request_id``.

        With ``traced=False`` the wrappers call straight through, so one
        replay can interleave traced and untraced requests and compare
        them under the same host conditions.
        """
        previous = getattr(self._local, "request", 0), getattr(self._local, "enabled", True)
        self._local.request, self._local.enabled = request_id, traced
        try:
            yield
        finally:
            self._local.request, self._local.enabled = previous

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, getattr(self._local, "request", 0), name, start, end))

    def add(self, name: str, start: float, end: float, request_id: int) -> None:
        """Record an interval measured elsewhere (e.g. the arrival queue)."""
        self.spans.append((next(self._ids), 0, request_id, name, start, end))

    def traced(self, function: Callable, name: str) -> Callable:
        local = self._local

        def wrapper(*args, **kwargs):
            if self._paused or not getattr(local, "enabled", True):
                return function(*args, **kwargs)
            with self.span(name):
                return function(*args, **kwargs)

        wrapper.__wrapped__ = function
        return wrapper

    def wrap(self, obj: object, attribute: str, name: str) -> None:
        """Shadow ``obj.attribute`` (a bound method) with a traced wrapper."""
        setattr(obj, attribute, self.traced(getattr(obj, attribute), name))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def durations_by_name(spans: Sequence[tuple]) -> Dict[str, List[float]]:
    """Span durations grouped by span name."""
    grouped: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        grouped[span[NAME]].append(span[END] - span[START])
    return grouped


def self_time_by_name(spans: Sequence[tuple]) -> Dict[str, List[float]]:
    """Self times grouped by span name."""
    own = self_times(spans)
    grouped: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        grouped[span[NAME]].append(own[span[ID]])
    return grouped


def unattributed_share(spans: Sequence[tuple], windows: Dict[int, Interval]) -> float:
    """Share of each window's time that no top-level span of its request covers.

    ``windows`` maps a request id to its end-to-end interval (for a served
    request, scheduled arrival to reply).
    """
    covered: Dict[int, List[Interval]] = defaultdict(list)
    for span in spans:
        if span[PARENT] == 0 and span[REQUEST] in windows:
            covered[span[REQUEST]].append((span[START], span[END]))
    total = missing = 0.0
    for request_id, (start, end) in windows.items():
        inside = [(max(a, start), min(b, end)) for a, b in covered.get(request_id, ()) if b > start and a < end]
        total += end - start
        missing += (end - start) - union_length(inside)
    return missing / total if total > 0 else 0.0
