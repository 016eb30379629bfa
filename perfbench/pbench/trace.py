"""Span recorder that times the program's layers from outside.

The traced run wraps public functions and methods of ``repro``
(:func:`pbench.layers.install`) with thin timing shims: no ``src/`` code
changes, and the untraced run executes none of this.

Each span has a name, start, end, parent span and the request ids it
served.  Parents come from a context variable, so they follow one thread
or one asyncio task; a span that another thread or task opens on a
request's behalf (the coalescer's queue wait, a batched execute) carries
the request ids instead.  Spans stay in memory and are written out once,
at the end of the run.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

__all__ = ["OpenSpan", "Span", "Tracer", "children", "self_seconds"]

#: The clock of every span; ``FFTFuture.finish_wall_s`` uses it too.
_now = time.monotonic


class Span(NamedTuple):
    """One finished, timed interval of one layer (the analysis view)."""

    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    rids: tuple

    @property
    def seconds(self) -> float:
        return self.end - self.start


class OpenSpan:
    """A span still running; :meth:`Tracer.close` turns it into a :class:`Span`."""

    __slots__ = ("sid", "name", "start", "parent", "rids", "wait")

    def __init__(self, sid, name, start, parent, rids):
        self.sid = sid
        self.name = name
        self.start = start
        self.parent = parent
        self.rids = rids
        self.wait = None  # an open child span closed by a later call


class Tracer:
    """Collects spans and counts; installs and removes wrappers."""

    def __init__(self) -> None:
        # Finished spans as plain tuples of numbers and strings, which the
        # garbage collector stops tracking (it never untracks a tuple
        # subclass): a traced run keeps hundreds of thousands of them,
        # and tracked they would lengthen every full collection.
        self._done: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._count_lock = threading.Lock()  # counts come from several threads
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[OpenSpan | None] = contextvars.ContextVar(
            "pbench_span", default=None
        )
        self.rid: contextvars.ContextVar[tuple] = contextvars.ContextVar(
            "pbench_rid", default=()
        )
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    @property
    def current(self) -> OpenSpan | None:
        return self._current.get()

    def open(self, name: str, rids: tuple | None = None) -> OpenSpan:
        """Start a child of the current span without making it current."""
        parent = self._current.get()
        return OpenSpan(
            next(self._ids),
            name,
            _now(),
            parent.sid if parent is not None else None,
            self.rid.get() if rids is None else rids,
        )

    def close(self, span: OpenSpan) -> None:
        self._done.append(
            (span.sid, span.name, span.start, _now(), span.parent, span.rids)
        )

    def record(self, name: str, start: float, end: float, rids: tuple) -> None:
        """A span measured elsewhere (e.g. across two threads)."""
        self._done.append((next(self._ids), name, start, end, None, rids))

    def count(self, name: str, n: float = 1) -> None:
        with self._count_lock:
            self.counts[name] += n

    def call(self, name: str, fn, args, kwargs, rids=None):
        """Run ``fn`` inside a span that is current for its duration."""
        span = self.open(name, rids)
        token = self._current.set(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self._current.reset(token)
            self.close(span)

    async def acall(self, name: str, fn, args, kwargs, rids=None):
        """:meth:`call` for a coroutine function."""
        span = self.open(name, rids)
        token = self._current.set(span)
        try:
            return await fn(*args, **kwargs)
        finally:
            self._current.reset(token)
            self.close(span)

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr``; :meth:`uninstall` restores it."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call of the function or method ``owner.attr`` as ``name``."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(raw)
        def shim(*args, **kwargs):
            return self.call(name, raw, args, kwargs)

        self.patch(owner, attr, shim)

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def spans(self) -> list[Span]:
        """Every finished span, in the order they finished."""
        return [Span(*t) for t in self._done]

    def write(self, path: Path) -> None:
        """Write every span and count as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": list(Span._fields),
            "spans": self._done,
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def children(spans: list[Span]) -> dict[int, list[Span]]:
    """Child spans (same thread or task) by parent span id."""
    kids: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            kids[span.parent].append(span)
    return kids


def self_seconds(spans: list[Span], kids: dict[int, list[Span]]) -> dict[int, float]:
    """Each span's duration minus the durations of its child spans."""
    return {
        s.sid: s.seconds - sum(c.seconds for c in kids.get(s.sid, ())) for s in spans
    }
