"""Structured tracing: nestable spans with cross-process stitching.

The tracer is the ground truth the benchmark and CLI phase breakdowns
read from.  Code under measurement opens *spans*::

    from repro.obs import trace

    with trace.span("build", points=len(points)) as sp:
        tree = FlatEpsilonKdbTree.build(points, spec)
    result.build_seconds = sp.duration

Spans nest per thread (a thread-local stack), carry attributes and
point-in-time *events*, and are timestamped with ``time.perf_counter()``
— on Linux that is ``CLOCK_MONOTONIC``, which is shared by every process
on the machine, so spans recorded in pool workers stitch onto the parent
timeline without clock translation.

Tracing is *ambient*: instrumented code talks to the module-level
current tracer (:func:`span`, :func:`add_event`, ...), which defaults to
the :class:`NullTracer`.  The disabled path is the design center: a null
span still measures its own duration (two clock reads — exactly the
``perf_counter`` arithmetic it replaces) but records nothing, allocates
one small object, and takes no locks, so production runs pay effectively
nothing.  Enable collection by activating a recording tracer::

    tracer = Tracer()
    with trace.activate(tracer):
        run_join()
    spans = tracer.export()          # list of serializable dicts

Worker processes build their own :class:`Tracer`, serialize its spans
with :meth:`Tracer.export`, ship them back alongside the task result,
and the parent re-attaches them with :meth:`Tracer.adopt` — span ids
embed the producing pid, so ids never collide across processes.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "is_enabled",
    "activate",
    "span",
    "add_event",
    "set_attribute",
    "current_span_id",
    "record_span",
]


class Span:
    """One timed, attributed region of execution.

    ``start``/``end`` are ``time.perf_counter()`` seconds; ``span_id``
    and ``parent_id`` are strings of the form ``"<pid>-<seq>"`` so ids
    from different processes never collide.  ``events`` are point-in-time
    annotations (e.g. an injected fault) as ``{"name", "time", "attributes"}``
    dicts.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attributes",
        "events",
        "pid",
        "tid",
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: Optional[str],
        start: float,
        attributes: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.events: List[Dict[str, Any]] = []
        self.pid = os.getpid()
        self.tid = threading.get_ident()

    @property
    def duration(self) -> float:
        """Span wall-clock in seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def add_event(self, name: str, **attributes: Any) -> None:
        self.events.append(
            {
                "name": name,
                "time": time.perf_counter(),
                "attributes": dict(attributes),
            }
        )

    def to_dict(self) -> Dict[str, Any]:
        """Serializable form; the JSONL exporter writes exactly this."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "pid": self.pid,
            "tid": self.tid,
            "attributes": self.attributes,
            "events": self.events,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        span = cls(
            data["name"],
            data["span_id"],
            data.get("parent_id"),
            data["start"],
            data.get("attributes"),
        )
        span.end = data.get("end")
        span.events = list(data.get("events", ()))
        span.pid = data.get("pid", span.pid)
        span.tid = data.get("tid", span.tid)
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name!r} id={self.span_id} parent={self.parent_id} "
            f"dur={self.duration:.6f}s attrs={self.attributes}>"
        )


class _NullSpan:
    """Disabled-path span: measures its own duration, records nothing."""

    __slots__ = ("start", "end")

    # Class attributes shared by every instance: the null span has no
    # identity and belongs to no trace.
    name = ""
    span_id = ""
    parent_id = None
    attributes: Dict[str, Any] = {}
    events: List[Dict[str, Any]] = []

    def __init__(self) -> None:
        self.start = 0.0
        self.end: Optional[float] = None

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def add_event(self, name: str, **attributes: Any) -> None:
        pass


class NullTracer:
    """The default, disabled tracer: spans time themselves, nothing is kept."""

    enabled = False

    @contextmanager
    def span(self, name: str, parent_id: Optional[str] = None, **attributes: Any) -> Iterator[_NullSpan]:
        sp = _NullSpan()
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()

    def add_event(self, name: str, **attributes: Any) -> None:
        pass

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def current_span_id(self) -> Optional[str]:
        return None

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        parent_id: Optional[str] = None,
        **attributes: Any,
    ) -> None:
        pass

    def adopt(self, span_dicts, parent_id: Optional[str] = None) -> None:
        pass


#: Process-global span-id sequence, shared by every Tracer instance so
#: ids stay unique even when many short-lived tracers run in one process
#: (a pool worker creates one per task attempt, and their spans are all
#: adopted into the same parent trace).
_SPAN_SEQ = itertools.count(1)


class Tracer:
    """Thread-safe collecting tracer.

    Finished spans accumulate in insertion order; :meth:`export` returns
    them as serializable dicts sorted by start time.  The *current span*
    is tracked per thread, so concurrent threads nest independently.
    """

    enabled = True

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> str:
        return f"{os.getpid()}-{next(_SPAN_SEQ)}"

    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def current_span_id(self) -> Optional[str]:
        current = self.current_span()
        return current.span_id if current is not None else None

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, parent_id: Optional[str] = None, **attributes: Any) -> Iterator[Span]:
        """Open a nested span; it closes (and is recorded) on exit.

        ``parent_id`` overrides the ambient parent — workers use it to
        attach their root span under a parent-process span.
        """
        stack = self._stack()
        if parent_id is None and stack:
            parent_id = stack[-1].span_id
        sp = Span(name, self._new_id(), parent_id, time.perf_counter(), attributes)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._spans.append(sp)

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        parent_id: Optional[str] = None,
        **attributes: Any,
    ) -> Span:
        """Record an already-timed span (e.g. a failed worker attempt)."""
        if parent_id is None:
            parent_id = self.current_span_id()
        sp = Span(name, self._new_id(), parent_id, start, attributes)
        sp.end = end
        with self._lock:
            self._spans.append(sp)
        return sp

    def add_event(self, name: str, **attributes: Any) -> None:
        """Annotate the current span; dropped when no span is open."""
        current = self.current_span()
        if current is not None:
            current.add_event(name, **attributes)

    def set_attribute(self, key: str, value: Any) -> None:
        current = self.current_span()
        if current is not None:
            current.set_attribute(key, value)

    # ------------------------------------------------------------------
    def adopt(self, span_dicts, parent_id: Optional[str] = None) -> None:
        """Stitch spans exported by another process into this trace.

        Roots among ``span_dicts`` (spans whose parent is not in the
        shipped set) are re-parented to ``parent_id`` (default: the
        current span), preserving the worker-side hierarchy below them.
        """
        span_dicts = list(span_dicts)
        if not span_dicts:
            return
        if parent_id is None:
            parent_id = self.current_span_id()
        shipped_ids = {d["span_id"] for d in span_dicts}
        adopted = []
        for data in span_dicts:
            sp = Span.from_dict(data)
            if sp.parent_id is None or sp.parent_id not in shipped_ids:
                sp.parent_id = parent_id
            adopted.append(sp)
        with self._lock:
            self._spans.extend(adopted)

    def finished_spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def export(self) -> List[Dict[str, Any]]:
        """All finished spans as dicts, sorted by start time."""
        with self._lock:
            spans = sorted(self._spans, key=lambda s: s.start)
        return [s.to_dict() for s in spans]

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


#: The process-wide disabled tracer (shared, stateless).
NULL_TRACER = NullTracer()

_ACTIVE: Any = NULL_TRACER


def current_tracer():
    """The ambient tracer instrumented code talks to."""
    return _ACTIVE


def is_enabled() -> bool:
    return _ACTIVE.enabled


@contextmanager
def activate(tracer) -> Iterator[Any]:
    """Make ``tracer`` the ambient tracer for the duration of the block.

    Activation is process-global (matching the ``perf_counter`` clock it
    timestamps with); nested activations restore the previous tracer on
    exit.  Pass ``None`` to explicitly deactivate tracing for a block.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = NULL_TRACER if tracer is None else tracer
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


def span(name: str, parent_id: Optional[str] = None, **attributes: Any):
    """Open a span on the ambient tracer (no-op handle when disabled)."""
    return _ACTIVE.span(name, parent_id=parent_id, **attributes)


def add_event(name: str, **attributes: Any) -> None:
    """Annotate the ambient tracer's current span."""
    _ACTIVE.add_event(name, **attributes)


def set_attribute(key: str, value: Any) -> None:
    """Set an attribute on the ambient tracer's current span."""
    _ACTIVE.set_attribute(key, value)


def current_span_id() -> Optional[str]:
    return _ACTIVE.current_span_id()


def record_span(
    name: str,
    start: float,
    end: float,
    parent_id: Optional[str] = None,
    **attributes: Any,
) -> None:
    """Record a pre-timed span on the ambient tracer."""
    _ACTIVE.record_span(name, start, end, parent_id=parent_id, **attributes)
