"""Hierarchical tracing spans with a near-zero disabled fast path.

Tracing is *opt-in per operation*: a caller opens a :func:`trace`
context, and every :func:`span` / :func:`record` call reached *on that
thread* while the context is open attaches a timed node to the trace
tree.  When no trace is open — the overwhelmingly common case — the
instrumented call sites pay one module-level integer truth test and
receive a shared no-op singleton: no allocation, no contextvar read.

The span stack lives in a :class:`contextvars.ContextVar`, so traces
are isolated per thread (and per asyncio task).  Worker threads never
open spans of their own: the sampling and the plan-order tally folds
both happen on the caller's thread, so caller-side instrumentation
accounts for the full pass.

>>> from repro import obs
>>> with obs.trace("query") as t:
...     with obs.span("observe.pass", n=1000):
...         pass
>>> t.stages()[0]["name"]
'observe.pass'
"""

from __future__ import annotations

import threading
import time
import uuid
from contextvars import ContextVar
from typing import Any

__all__ = [
    "Span",
    "Trace",
    "current_trace",
    "record",
    "span",
    "stage_report",
    "trace",
    "tracing_enabled",
]

# Module-level fast-path flag: number of traces currently open across
# the whole process.  Instrumented call sites test this single int
# before doing anything else; when it is zero (tracing disabled) the
# hot path allocates nothing.
_ACTIVE = 0
_ACTIVE_LOCK = threading.Lock()

# (trace, current_span) for the thread/task that opened the trace.
_STACK: ContextVar[tuple["Trace", "Span"] | None] = ContextVar(
    "repro_obs_stack", default=None
)


def tracing_enabled() -> bool:
    """True when at least one trace is open somewhere in the process.

    Hot loops that *accumulate* timings (rather than opening spans)
    guard on this so the disabled path stays free of clock reads.
    """
    return _ACTIVE > 0


class Span:
    """One timed stage in a trace tree."""

    __slots__ = ("name", "fields", "seconds", "count", "children", "_start")

    def __init__(self, name: str, fields: dict[str, Any] | None = None):
        self.name = name
        self.fields = fields or {}
        self.seconds = 0.0
        self.count = 1
        self.children: list[Span] = []
        self._start = 0.0

    def set(self, **fields: Any) -> None:
        """Attach fields discovered after the span opened."""
        self.fields.update(fields)

    def as_dict(self) -> dict[str, Any]:
        node: dict[str, Any] = {
            "name": self.name,
            "seconds": round(self.seconds, 9),
            "count": self.count,
        }
        if self.fields:
            node["fields"] = dict(self.fields)
        if self.children:
            node["children"] = [c.as_dict() for c in self.children]
        return node


class _NullSpan:
    """Shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **fields: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context manager that times one span and pushes it on the stack."""

    __slots__ = ("_span", "_token")

    def __init__(self, trace: "Trace", parent: Span, name: str,
                 fields: dict[str, Any]):
        node = Span(name, fields)
        parent.children.append(node)
        self._span = node
        self._token = _STACK.set((trace, node))

    def __enter__(self) -> Span:
        self._span._start = time.perf_counter()
        return self._span

    def __exit__(self, *exc: object) -> bool:
        self._span.seconds = time.perf_counter() - self._span._start
        _STACK.reset(self._token)
        return False

    def set(self, **fields: Any) -> None:
        self._span.fields.update(fields)


def span(name: str, **fields: Any):
    """Open a child span under the current trace.

    Returns a shared no-op object when tracing is disabled (or when the
    calling thread has no open trace), so call sites never need their
    own enabled-check.
    """
    if not _ACTIVE:
        return _NULL_SPAN
    top = _STACK.get()
    if top is None:
        return _NULL_SPAN
    return _LiveSpan(top[0], top[1], name, fields)


def record(name: str, seconds: float, *, count: int = 1,
           merge: bool = True, **fields: Any) -> None:
    """Attach a pre-measured duration as a span under the current span.

    Used where per-event spans would be too fine-grained (per-chunk
    sample/reduce stages): the instrumented loop accumulates floats
    locally — guarded by :func:`tracing_enabled` — and records one
    aggregate node per pass.  With ``merge=True`` repeated records of
    the same name under the same parent fold into one node.
    """
    if not _ACTIVE:
        return
    top = _STACK.get()
    if top is None:
        return
    parent = top[1]
    if merge:
        for child in parent.children:
            if child.name == name and not child.children:
                child.seconds += seconds
                child.count += count
                if fields:
                    child.fields.update(fields)
                return
    node = Span(name, dict(fields))
    node.seconds = seconds
    node.count = count
    parent.children.append(node)


class Trace:
    """Collector for one traced operation (a tree of spans)."""

    def __init__(self, name: str, trace_id: str | None = None,
                 fields: dict[str, Any] | None = None):
        self.trace_id = str(trace_id) if trace_id else uuid.uuid4().hex[:16]
        self.root = Span(name, fields)
        self._token: object | None = None

    # -- collection ---------------------------------------------------

    @property
    def total_seconds(self) -> float:
        return self.root.seconds

    def add_stage(self, name: str, seconds: float, **fields: Any) -> None:
        """Graft an externally measured stage onto the root.

        Used by the server for stages measured outside the dispatch
        thread's context (e.g. event-loop-side RW-lock waits).
        """
        node = Span(name, dict(fields))
        node.seconds = seconds
        self.root.children.append(node)

    # -- summaries ----------------------------------------------------

    def stages(self) -> list[dict[str, Any]]:
        """Flatten the tree into per-name aggregates, first-seen order."""
        order: list[str] = []
        agg: dict[str, dict[str, Any]] = {}

        def walk(node: Span) -> None:
            for child in node.children:
                entry = agg.get(child.name)
                if entry is None:
                    order.append(child.name)
                    agg[child.name] = {
                        "name": child.name,
                        "seconds": child.seconds,
                        "count": child.count,
                    }
                else:
                    entry["seconds"] += child.seconds
                    entry["count"] += child.count
                walk(child)

        walk(self.root)
        for entry in agg.values():
            entry["seconds"] = round(entry["seconds"], 9)
        return [agg[name] for name in order]

    def coverage(self) -> float:
        """Fraction of root wall-clock accounted for by direct stages."""
        total = self.root.seconds
        if total <= 0.0:
            return 1.0
        covered = sum(c.seconds for c in self.root.children)
        return min(covered / total, 1.0)

    def as_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "total_seconds": round(self.total_seconds, 9),
            "coverage": round(self.coverage(), 4),
            "stages": self.stages(),
            "spans": self.root.as_dict(),
        }


def stage_report(trace: Trace) -> dict[str, Any]:
    """The shared ``"stages"`` schema written by benches and the wire.

    ``{"total_seconds": float, "coverage": float,
       "stages": [{"name", "seconds", "count"}, ...]}``
    """
    return {
        "total_seconds": round(trace.total_seconds, 9),
        "coverage": round(trace.coverage(), 4),
        "stages": trace.stages(),
    }


class _TraceContext:
    __slots__ = ("_trace", "_token")

    def __init__(self, trace: Trace):
        self._trace = trace
        self._token = None

    def __enter__(self) -> Trace:
        global _ACTIVE
        with _ACTIVE_LOCK:
            _ACTIVE += 1
        self._token = _STACK.set((self._trace, self._trace.root))
        self._trace.root._start = time.perf_counter()
        return self._trace

    def __exit__(self, *exc: object) -> bool:
        global _ACTIVE
        root = self._trace.root
        root.seconds = time.perf_counter() - root._start
        _STACK.reset(self._token)
        with _ACTIVE_LOCK:
            _ACTIVE -= 1
        return False


def trace(name: str, *, trace_id: str | None = None, **fields: Any):
    """Open a trace: every span on this thread nests under ``name``."""
    return _TraceContext(Trace(name, trace_id=trace_id, fields=fields))


def current_trace() -> Trace | None:
    """The trace open on the calling thread, if any."""
    if not _ACTIVE:
        return None
    top = _STACK.get()
    return top[0] if top is not None else None
