"""Timing wrappers installed around public calls of the server process.

:func:`install` replaces public functions and methods of ``repro.server``,
``repro.service``, ``repro.core``, ``repro.operators`` and
``repro.engine`` with wrappers that record one span per call, so the
program under test is not edited.  A span is ``(id, name, start, end,
parent id, request id, attrs)``; starts and ends come from
``time.perf_counter`` (CLOCK_MONOTONIC), the clock the driver stamps
sends and receives with, so server spans and client latencies join by
request id.  Spans stay in memory and :func:`dump` writes them once,
when the server has drained.

Parents follow a per-thread stack, which is exact for the synchronous
calls (the executor-thread dispatch tree, and the event-loop leaves
``parse_request`` / ``needs_write`` / ``encode_response`` /
``observe_request``).  The async lock waits interleave on the loop, so
they record no parent and take their request id from a context variable
that the ``parse_request`` wrapper sets in the connection task — the
per-request task copies it when the server creates that task.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time

_CLOCK = time.perf_counter
_SPANS: list[tuple] = []
_IDS = itertools.count()
_LOCAL = threading.local()
_REQUEST = contextvars.ContextVar("perfbench_request", default=None)


def _stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def _wrap(owner, attr: str, name: str, *, rid=None, before=None,
          attrs=None, after=None):
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``rid(args, kwargs)`` names the request from the call's arguments
    (else the enclosing span's, else the task's context variable);
    ``attrs(args, kwargs, result, early)`` adds counts to the span,
    where ``early`` is ``before(args, kwargs)`` taken before the call;
    ``after(result)`` may replace the result (the perturbation hook).
    """
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        parent = stack[-1] if stack else None
        if rid is not None:
            request = rid(args, kwargs)
        elif parent is not None:
            request = parent[1]
        else:
            request = _REQUEST.get()
        early = before(args, kwargs) if before is not None else None
        sid = next(_IDS)
        stack.append((sid, request))
        start = _CLOCK()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _CLOCK()
            stack.pop()
        if request is None and isinstance(result, dict):
            request = result.get("id")  # parse_request: the parsed payload
        extra = attrs(args, kwargs, result, early) if attrs is not None else None
        _SPANS.append(
            (sid, name, start, end, parent[0] if parent else -1, request, extra)
        )
        return after(result) if after is not None else result

    setattr(owner, attr, wrapper)


def _wrap_async(owner, attr: str, name: str):
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        start = _CLOCK()
        await fn(*args, **kwargs)
        _SPANS.append(
            (next(_IDS), name, start, _CLOCK(), -1, _REQUEST.get(), None)
        )

    setattr(owner, attr, wrapper)


def _payload_id(index: int):
    def rid(args, kwargs):
        payload = args[index] if len(args) > index else kwargs.get("payload")
        return payload.get("id") if isinstance(payload, dict) else None

    return rid


def _parsed(args, kwargs, result, early):
    # Runs in the connection task: the per-request task created right
    # after this parse copies the context, and with it the request id.
    _REQUEST.set(result.get("id"))
    return None


def _perturb(value):
    """Damage an answer the way a wrong result would (self-test only)."""
    first = value[0] if isinstance(value, list) and value else value
    if isinstance(first, dict) and "sample_count" in first:
        first["sample_count"] += 1
    return value


def install(*, perturb: bool = False) -> None:
    """Wrap the layer boundaries (call before the server starts)."""
    from repro.core.randomized import GetNextRandomized
    from repro.engine import kernel, kernels
    from repro.operators.skyline import KSkybandIndex
    from repro.server import protocol
    from repro.server.metrics import ServerMetrics
    from repro.server.registry import AsyncRWLock
    from repro.service import batch
    from repro.service.cache import MISS, ResultCache
    from repro.service.parallel import ObserveExecutor
    from repro.service.session import StabilitySession

    # server.protocol — event-loop leaves, then the executor-side tree.
    _wrap(protocol, "parse_request", "protocol.parse_request",
          rid=lambda a, k: None, attrs=_parsed)
    _wrap(protocol, "needs_write", "protocol.needs_write", rid=_payload_id(1),
          attrs=lambda a, k, r, e: {"write": bool(r)})
    _wrap(protocol, "dispatch", "protocol.dispatch", rid=_payload_id(2))
    _wrap(protocol, "value_to_json", "protocol.value_to_json",
          after=_perturb if perturb else None)
    _wrap(protocol, "encode_response", "protocol.encode_response",
          rid=lambda a, k: a[0].get("id") if isinstance(a[0], dict) else None)
    # server.metrics and the session lock (server.app framing).
    _wrap(ServerMetrics, "observe_request", "metrics.observe_request")
    _wrap_async(AsyncRWLock, "acquire_read", "registry.lock")
    _wrap_async(AsyncRWLock, "acquire_write", "registry.lock")
    # service.batch / service.session / service.cache
    _wrap(batch, "execute_batch", "batch.execute_batch")
    for method in ("top_stable", "stability_of", "get_next"):
        _wrap(StabilitySession, method, "session.query")
    _wrap(ResultCache, "get", "cache.get",
          attrs=lambda a, k, r, e: {"hit": r is not MISS})
    _wrap(ResultCache, "put", "cache.put")
    # core.randomized pool reads and the observe pass.
    _wrap(GetNextRandomized, "top_from_pool", "pool.read")
    _wrap(GetNextRandomized, "stability_of", "pool.read")
    _wrap(ObserveExecutor, "observe", "observe.pass",
          attrs=lambda a, k, r, e: {"n": int(a[2] if len(a) > 2 else k["n_new"])})
    _wrap(GetNextRandomized, "prepare_observe", "observe.prepare")
    _wrap(GetNextRandomized, "sample_weights", "observe.sample")

    # KSkybandIndex.band caches per k: only a call that builds counts.
    _wrap(KSkybandIndex, "band", "skyband.band",
          before=lambda a, k: a[1] not in a[0].built_bands,
          attrs=lambda a, k, r, built: {
              "built": built, "items": int(r.size), "n": a[0].n_items})

    # engine.kernel(s) — the chunk reduction.  A backend subclass may
    # override a stage (numba's rank_rows), so every class that defines
    # one gets its own wrapper; the others inherit a wrapped one.
    _wrap(kernel, "score_block", "kernel.score", attrs=_score_shape)
    _wrap(kernel, "pack_rows", "kernel.pack")
    for cls in _with_subclasses(kernels.KernelBackend):
        for attr, name in (("rank_rows", "kernel.select"),
                           ("reduce_chunk", "kernel.reduce")):
            if attr in vars(cls):
                _wrap(cls, attr, name)
    _wrap(kernel.RankingTally, "observe_packed", "observe.fold")


def _with_subclasses(root: type) -> list[type]:
    found, todo = [], [root]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _score_shape(args, kwargs, result, early):
    rows, cols = result.shape
    dim = args[0].shape[1]
    return {
        "rows": int(rows),
        "cols": int(cols),
        # One multiply and one add per (sample, item, attribute).
        "flop": 2 * rows * cols * dim,
        # Read weights and values, write the score block (float64).
        "bytes": 8 * (rows * dim + cols * dim + rows * cols),
    }


def dump(path: str) -> None:
    """Write every recorded span as one JSON document."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"spans": _SPANS}, handle, separators=(",", ":"))
