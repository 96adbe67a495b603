"""In-memory span tracing of the library, applied from outside.

The benchmark never edits the library to trace it.  In a traced run a
:class:`Tracer` replaces a handful of public functions *at the names
their callers bind* (module globals such as
``repro.batch.smoother.stack_whitened``, or class attributes such as
``BatchSmoother.smooth_many``) with wrappers that record a span around
the original call, and puts every original back on :meth:`Tracer.restore`.
Untraced runs never construct a tracer, so they run the library as is.

A span is ``(id, name, start, end, parent, run)``.  The parent is the
innermost open span of the calling thread; work that
``ThreadPoolBackend.map`` hands to pool threads keeps the span that
called ``map`` as its parent, so threaded flushes and odd-even levels
still nest under the layer that caused them.

Wrapped ``core`` layers also run under a ``repro.parallel.tally_scope``,
so each one reports the flops and bytes the library's own kernel cost
tally counts (computed from operand shapes, not measured).  Pool threads
get a private tally per item that is merged back into the caller's
tallies in item order, which keeps the counts identical from run to run.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from repro.parallel.tally import (
    CostTally,
    active_tally,
    pop_tally,
    push_tally,
    tally_scope,
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


def _detach_tallies() -> list[CostTally]:
    """Pop every active tally of this thread; innermost first."""
    saved = []
    while active_tally() is not None:
        saved.append(pop_tally())
    return saved


def _attach_tallies(saved: list[CostTally]) -> None:
    for tally in reversed(saved):
        push_tally(tally)


class Tracer:
    """Records spans and per-layer kernel costs while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        #: per-layer kernel cost totals (flops, bytes) of wrapped calls
        self.costs: dict[str, CostTally] = defaultdict(CostTally)
        #: per-layer counters the wrappers derive from call arguments
        self.counts: dict[str, int] = defaultdict(int)
        self.run = ""
        #: wrappers record only while set (see :meth:`call`)
        self.active = False
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> list[int | None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [None]
        return stack

    def span(self, name: str) -> "_SpanScope":
        """Context manager recording one span under the current one."""
        return _SpanScope(self, name)

    @contextmanager
    def call(self, run: str):
        """Trace one measured call: a root ``call`` span whose
        descendants share the run id ``run``."""
        self.run, self.active = run, True
        try:
            with self.span("call"):
                yield
        finally:
            self.active = False

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, cost: bool = False):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a module (for a function its callers bind by name)
        or a class (for a method).  With ``cost=True`` the call runs
        under a fresh kernel-cost tally credited to ``name``.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            with tracer.span(name):
                if not cost:
                    return original(*args, **kwargs)
                with tally_scope() as tally:
                    out = original(*args, **kwargs)
                with tracer._lock:
                    tracer.costs[name].merge(tally)
                return out

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_pool_map(self, backend_cls, name: str = "parallel.map"):
        """Wrap ``backend_cls.map`` so pooled items inherit the caller's
        span and report kernel costs back to the caller's tallies."""
        original = backend_cls.__dict__["map"]
        tracer = self

        @functools.wraps(original)
        def wrapper(backend, items, body, *, phase="", block_size=None):
            if not tracer.active:
                return original(
                    backend, items, body, phase=phase, block_size=block_size
                )
            items = list(items)
            bs = block_size or backend.block_size
            pooled = len(items) > bs and backend.num_threads > 1
            parent = tracer._stack()[-1]

            def traced_body(item):
                saved_tallies = _detach_tallies()
                saved_stack = getattr(tracer._local, "stack", None)
                tracer._local.stack = [parent]
                tally = CostTally()
                push_tally(tally)
                try:
                    value = body(item)
                finally:
                    pop_tally()
                    tracer._local.stack = saved_stack
                    _attach_tallies(saved_tallies)
                return value, tally

            with tracer.span(name):
                pairs = original(
                    backend, items, traced_body, phase=phase,
                    block_size=block_size,
                )
            with tracer._lock:
                tracer.counts[name + "_calls"] += 1
                if pooled:
                    tracer.counts["parallel.tasks"] += math.ceil(
                        len(items) / bs
                    )
            # Merge in item order, on the calling thread: the totals
            # then do not depend on which pool thread finished first.
            callers = _detach_tallies()
            for _, tally in pairs:
                for outer in callers:
                    outer.merge(tally)
            _attach_tallies(callers)
            return [value for value, _ in pairs]

        self._patches.append((backend_cls, "map", original))
        backend_cls.map = wrapper

    def restore(self) -> None:
        """Put every wrapped original back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _SpanScope:
    __slots__ = ("tracer", "name", "id", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.id = next(tracer._ids)
        tracer._stack().append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        end = time.perf_counter()
        stack = tracer._stack()
        stack.pop()
        tracer._record(
            Span(self.id, self.name, self.start, end, stack[-1], tracer.run)
        )


def _covered(
    intervals: list[tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``count``, inclusive ``total`` seconds and ``self``
    seconds (duration minus the part of it that child spans cover)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total": 0.0, "self": 0.0}
    )
    for s in spans:
        row = out[s.name]
        row["count"] += 1
        row["total"] += s.end - s.start
        row["self"] += (s.end - s.start) - _covered(
            children.get(s.id, []), s.start, s.end
        )
    return dict(out)
