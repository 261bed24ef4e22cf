"""In-memory span tracing around factrail's public functions.

``Tracer.patch_function`` replaces a function at every module attribute
that binds it, and ``patch_method`` a method on its class, so calls made
inside the package are traced too; ``uninstall`` puts the originals back.
No file of the package changes. A span is (id, name, start, end, parent,
item, failed): ``item`` is the id of the enclosing per-item span (one
``run_inference``, say), so work can be attributed per trace.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    item: int | None
    failed: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; parents follow the calling thread's stack of open spans.

    A span opened on a worker thread with no open span of its own takes the
    main thread's innermost open span as parent, which is the ``run_batch``
    that started the worker.
    """

    def __init__(self, item_names: frozenset[str] = frozenset()) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.notes: dict[str, list] = defaultdict(list)
        self._item_names = item_names
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[tuple[int, int | None]] = []
        self._main_ident = threading.main_thread().ident
        self._patches: list[tuple[object, str, object]] = []
        self._counter_lock = threading.Lock()

    def add(self, counter: str, amount: float) -> None:
        """Add to a counter; safe from run_batch's worker threads."""
        with self._counter_lock:
            self.counters[counter] += amount

    def _stack(self) -> list[tuple[int, int | None]]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        observe: Callable | None = None,
    ) -> Callable:
        """Return fn wrapped in a span; observe(tracer, args, kwargs, result) runs after it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            stack = tracer._stack()
            outer = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else None)
            parent, item = outer if outer else (None, None)
            sid = next(tracer._ids)
            if span_name in tracer._item_names:
                item = sid
            stack.append((sid, item))
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, span_name, start, end, parent, item, failed))
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def patch_function(self, module_name: str, attr: str, name=None, observe=None) -> None:
        """Wrap a module-level function at every factrail module that binds it."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = self.wrap(name or f"{module_name.split('.')[-1]}.{attr}", original, observe)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "factrail" and getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapped)

    def patch_method(self, cls: type, attr: str, name: str, observe=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, observe))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in sorted(self.spans, key=lambda s: s.id):
                handle.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.item, s.failed]) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one span may overlap (worker threads), so the covered part
    is the length of the union of their intervals, clipped to the parent.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    result = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[s.id] = s.duration - covered
    return result


class SpanIndex:
    """Aggregates over a finished trace, by span name."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.self_time = self_times(spans)
        self.name_of = {s.id: s.name for s in spans}
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)

    def calls(self, name: str, within: str | None = None) -> list[Span]:
        """Spans named name; with within, only those inside an item span so named."""
        found = self.by_name.get(name, [])
        if within is None:
            return found
        return [s for s in found if s.item is not None and self.name_of[s.item] == within]

    def count(self, name: str, within: str | None = None) -> int:
        return len(self.calls(name, within))

    def total(self, name: str, within: str | None = None) -> float:
        return sum(s.duration for s in self.calls(name, within))

    def self_total(self, name: str) -> float:
        return sum(self.self_time[s.id] for s in self.calls(name))

    def failed(self, name: str) -> int:
        return sum(1 for s in self.calls(name) if s.failed)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
