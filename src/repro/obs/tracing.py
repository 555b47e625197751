"""Span-based tracing for exploration runs.

A :class:`Tracer` hands out :class:`Span` context managers; entering a
span pushes it on the tracer's stack (so spans opened inside it become its
children), exiting records the monotonic end time and emits one record to
every attached sink.  Timing uses ``time.perf_counter`` shifted to the
tracer's creation instant, so span times are small non-negative floats
that order and subtract exactly.

Two sinks are provided: :class:`InMemorySink` (a list of records, for
tests and interactive inspection) and :class:`JsonlSink` (one JSON object
per line, for offline analysis — children appear *before* their parents
because records are emitted on span exit).

The disabled path is a first-class citizen: :data:`NULL_TRACER` answers
every ``span()`` call with one shared no-op span, so instrumented code
pays a couple of attribute lookups and **zero allocations** when tracing
is off.  A tracer's span stack is not thread-safe; use one tracer per
exploration thread.
"""

from __future__ import annotations

import itertools
import json
import time
from typing import Any, Dict, IO, Iterable, List, Optional, Union

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanSink",
    "InMemorySink",
    "JsonlSink",
]


class SpanSink:
    """Receives one record per finished span."""

    def emit(self, record: Dict[str, Any]) -> None:
        """Handle one span record (a JSON-serializable dict)."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any resources (default: nothing)."""


class InMemorySink(SpanSink):
    """Collects span records in a list — the test/debug sink."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def emit(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """All records, or only those with the given span name."""
        if name is None:
            return list(self.records)
        return [r for r in self.records if r["name"] == name]

    def clear(self) -> None:
        """Drop everything collected so far."""
        self.records.clear()


class JsonlSink(SpanSink):
    """Writes one JSON object per line to a file — the offline sink.

    Accepts a path (opened and owned by the sink) or an already-open
    text-mode file object (left open on :meth:`close`).  Usable as a
    context manager.
    """

    def __init__(self, target: Union[str, "IO[str]"]) -> None:
        if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
            self._handle: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False

    def emit(self, record: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True, default=str))
        self._handle.write("\n")

    def close(self) -> None:
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> bool:
        self.close()
        return False


class Span:
    """One timed operation, nested under whatever span encloses it.

    Use as a context manager; ``start``/``end`` are seconds since the
    tracer's epoch (monotonic).  ``annotate`` attaches attributes at any
    point before exit.  If the body raises, the exception type is recorded
    under the ``error`` attribute and re-raised.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "depth",
        "attributes",
        "start",
        "end",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, span_id: int, attributes: Dict[str, Any]):
        self.name = name
        self.span_id = span_id
        self.parent_id: Optional[int] = None
        self.depth = 0
        self.attributes = attributes
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self._tracer = tracer

    @property
    def duration_seconds(self) -> float:
        """Wall time between enter and exit (0.0 while still open)."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    def annotate(self, **attributes: Any) -> "Span":
        """Attach attributes to the span; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def as_dict(self) -> Dict[str, Any]:
        """The JSON-serializable sink record for this span."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start": self.start,
            "end": self.end,
            "duration": self.duration_seconds,
            "attrs": dict(self.attributes),
        }

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start = self._tracer._now()
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> bool:
        self.end = self._tracer._now()
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        return False


class Tracer:
    """Hands out spans and routes finished records to sinks.

    Nesting comes from entry order: the span on top of the stack when a
    new span is entered becomes its parent.  One tracer may observe many
    runs; records carry monotonically increasing ``span_id`` values so
    offline tools can rebuild the forest.
    """

    enabled = True

    def __init__(self, sinks: Iterable[SpanSink] = ()):
        self._sinks: List[SpanSink] = list(sinks)
        self._stack: List[Span] = []
        self._ids = itertools.count(1)
        self._epoch = time.perf_counter()

    def add_sink(self, sink: SpanSink) -> None:
        """Attach another sink; it sees every span finished afterwards."""
        self._sinks.append(sink)

    def span(self, name: str, **attributes: Any) -> Span:
        """A new span, parented on entry to the innermost open span."""
        return Span(self, name, next(self._ids), attributes)

    @property
    def current_span(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def close(self) -> None:
        """Close every sink (call once, after the last span exits)."""
        for sink in self._sinks:
            sink.close()

    # -- span plumbing -------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _push(self, span: Span) -> None:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            span.parent_id = parent.span_id
        span.depth = len(self._stack)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate out-of-order exits (a leaked span) rather than corrupt
        # the stack for every span that follows.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        record = span.as_dict()
        for sink in self._sinks:
            sink.emit(record)


class _NullSpan:
    """The shared do-nothing span the disabled path hands out."""

    __slots__ = ()

    name = ""
    duration_seconds = 0.0

    def annotate(self, **attributes: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class NullTracer:
    """A tracer that never records: every ``span()`` is the same no-op."""

    enabled = False

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return NULL_SPAN

    def add_sink(self, sink: SpanSink) -> None:
        raise ValueError("NullTracer cannot carry sinks; build a Tracer instead")

    @property
    def current_span(self) -> None:
        return None

    def close(self) -> None:
        pass


#: Shared no-op tracer — the default everywhere a tracer is optional.
NULL_TRACER = NullTracer()
