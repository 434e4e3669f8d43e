"""Span recorder and reversible call wrapping for the traced run.

A span is one call into a layer: a name, a start, an end and the span
that caused it.  Spans nest through a per-thread stack; work handed to
another thread names its parent explicitly (see ``Tracer.span``), so a
pool task still hangs under the map that submitted it.  Spans stay in
memory until the run ends.

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans (children on other threads may
overlap each other, so coverage is the union of their intervals, not
their sum).  Each span also records its thread's CPU time
(``time.thread_time``); its *CPU self time* is that minus the CPU time
of its children on the same thread.  Wall self time minus CPU self
time is time the thread spent waiting — for the GIL, a lock or a pool
task — inside the layer.

``Patcher`` replaces attributes — a function at the module name its
caller imported, or a method on a class — and puts back the original
objects on ``restore``; ``restored`` checks that every slot holds the
very object it held before.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

_now = time.perf_counter
_cpu = time.thread_time
_MISSING = object()


class Span:
    __slots__ = ("name", "parent", "thread", "t0", "t1", "c0", "c1")

    def __init__(
        self, name: str, parent: "Span | None", t0: float,
        c0: float = 0.0, thread: int = 0,
    ):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.t0 = t0
        self.t1 = t0
        self.c0 = c0
        self.c1 = c0


class Tracer:
    """In-memory span and counter store; thread-safe."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def paused(self) -> bool:
        return getattr(self._local, "paused", False)

    @contextmanager
    def pause(self):
        """Calls made inside record nothing (the tracer's own lookups)."""
        before = self.paused
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = before

    @contextmanager
    def span(self, name: str, parent: Span | None = None):
        """Record one span; ``parent`` defaults to this thread's
        innermost open span."""
        if self.paused:
            yield None
            return
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        s = Span(name, parent, _now(), _cpu(), threading.get_ident())
        stack.append(s)
        try:
            yield s
        finally:
            s.t1 = _now()
            s.c1 = _cpu()
            stack.pop()
            with self._lock:
                self.spans.append(s)

    def add(self, key: str, n: float = 1) -> None:
        if self.paused:
            return
        with self._lock:
            self.counts[key] += n


def merged(intervals) -> list[list[float]]:
    """Disjoint sorted intervals covering the same points."""
    out: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return out


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping intervals."""
    return sum(hi - lo for lo, hi in merged(intervals))


def overlap_length(a, b) -> float:
    """Length covered both by the intervals ``a`` and by ``b``."""
    a, b = merged(a), merged(b)
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        total += max(0.0, min(a[i][1], b[j][1]) - max(a[i][0], b[j][0]))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def self_times(spans: list[Span]) -> dict[int, tuple[float, float]]:
    """``(wall, cpu)`` self time of every span, keyed by ``id(span)``.

    Wall: its duration minus the union of its children's intervals
    clipped to it.  CPU: its thread's CPU time minus that of its
    children on the same thread (those nest strictly inside it)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    out = {}
    for s in spans:
        kids = children.get(id(s), ())
        cover = union_length([
            (max(c.t0, s.t0), min(c.t1, s.t1))
            for c in kids
            if c.t1 > s.t0 and c.t0 < s.t1
        ])
        cpu = sum(c.c1 - c.c0 for c in kids if c.thread == s.thread)
        out[id(s)] = ((s.t1 - s.t0) - cover, (s.c1 - s.c0) - cpu)
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``self``, ``cpu`` (CPU self) and ``total``
    seconds plus call count."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self": 0.0, "cpu": 0.0, "total": 0.0, "calls": 0}
    )
    for s in spans:
        row = out[s.name]
        wall, cpu = own[id(s)]
        row["self"] += wall
        row["cpu"] += cpu
        row["total"] += s.t1 - s.t0
        row["calls"] += 1
    return dict(out)


class Patcher:
    """Reversible attribute replacement (functions, methods, instance
    attributes); ``restore`` undoes every ``set`` in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def wrap(self, owner: object, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        orig = getattr(owner, attr)
        wrapper = make(orig)
        functools.update_wrapper(wrapper, orig)
        self.set(owner, attr, wrapper)

    def restore(self) -> list[tuple[object, str, object]]:
        """Undo every patch; returns the slots that were restored."""
        saved = self._saved
        for owner, attr, orig in reversed(saved):
            if orig is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._saved = []
        return saved


def restored(slots: list[tuple[object, str, object]]) -> list[str]:
    """Slots that do not hold their original object again."""
    bad = []
    for owner, attr, orig in slots:
        if vars(owner).get(attr, _MISSING) is not orig:
            bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return bad
