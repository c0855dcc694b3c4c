"""Traced-run span recorder.

The recorder wraps the public entry points of the program's modules
from the benchmark's own files, so the program itself carries no
instrumentation.  Each wrapped call records one span: name, start,
end, parent span and thread.  A span opened on a thread that has no
open span of its own (an executor thread of the batch scheduler) is
parented to the dispatching ``sync.execute`` span.  Spans stay in
memory until :meth:`Recorder.dump` writes them out when the run ends.
Wrappers also record counts at the same boundaries (rows produced,
updates absorbed, search-stage counters), so ratios are measured
where the work happens.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any

from stats import self_time

#: The span whose open instance adopts spans started on executor threads.
DISPATCH_SPAN = "sync.execute"


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name: str, start: float, parent: int, thread: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread


class Recorder:
    """In-memory spans plus boundary counts for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Open dispatch spans by index (normally zero or one).
        self._dispatching: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        thread = threading.get_ident()
        if stack:
            parent = stack[-1]
        else:
            parent = -1
            with self._lock:
                for index in reversed(self._dispatching):
                    if self.spans[index].thread != thread:
                        parent = index
                        break
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, perf_counter(), parent, thread))
            if name == DISPATCH_SPAN:
                self._dispatching.append(index)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        else:  # an inner span escaped without closing; unwind to ours
            del stack[stack.index(index):]
        if span.name == DISPATCH_SPAN:
            with self._lock:
                self._dispatching.remove(index)

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += amount

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """``with recorder.span(name) as index:`` — a span around a block."""
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        func: Callable,
        name: str,
        observe: Callable[..., None] | None = None,
    ) -> Callable:
        """``func`` recording a ``name`` span per call; ``observe(args,
        kwargs, result)`` runs after each successful call."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(index)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def patch(
        self,
        owner: Any,
        attribute: str,
        name: str,
        observe: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attribute`` by its traced form (undo with
        :meth:`restore`).  Class- and static methods keep their kind."""
        raw = vars(owner)[attribute] if isinstance(owner, type) else getattr(
            owner, attribute
        )
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self.wrap(raw.__func__, name, observe))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(raw.__func__, name, observe))
        else:
            replacement = self.wrap(raw, name, observe)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    # -- analysis ------------------------------------------------------
    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span.parent >= 0:
                kids[span.parent].append(index)
        return kids

    def self_times(self, same_thread: bool = False) -> list[float]:
        """Per-span self time: duration minus the union of its children
        (only children on the span's own thread when ``same_thread``)."""
        kids = self.children()
        spans = self.spans
        result = []
        for index, span in enumerate(spans):
            intervals = [
                (spans[k].start, spans[k].end)
                for k in kids.get(index, ())
                if not same_thread or spans[k].thread == span.thread
            ]
            result.append(self_time(span.start, span.end, intervals))
        return result

    def by_name(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "busy_s"}}`` over every recorded span."""
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0}
        )
        for span, busy in zip(self.spans, self.self_times()):
            row = table[span.name]
            row["calls"] += 1
            row["busy_s"] += busy
        return dict(table)

    def coverage(self, root: int) -> float:
        """Share of ``root``'s duration that the layer spans on its
        thread account for: the same-thread self times of ``root``'s
        descendants on that thread, ``root``'s own self time (the
        workload loop's untraced work) left out."""
        kids = self.children()
        spans = self.spans
        thread = spans[root].thread
        selfs = self.self_times(same_thread=True)
        total = 0.0
        frontier = [k for k in kids.get(root, ()) if spans[k].thread == thread]
        while frontier:
            index = frontier.pop()
            total += selfs[index]
            frontier.extend(
                k for k in kids.get(index, ()) if spans[k].thread == thread
            )
        duration = spans[root].end - spans[root].start
        return total / duration if duration > 0 else 1.0

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (name, start, end, parent,
        thread), times relative to the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        threads = {t.ident: t.name for t in threading.enumerate()}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        [
                            span.name,
                            round(span.start - origin, 7),
                            round(span.end - origin, 7),
                            span.parent,
                            threads.get(span.thread, span.thread),
                        ]
                    )
                    + "\n"
                )
