"""The versioned JSON-lines serving protocol, shared by stdio and TCP.

One request per line, one response per line.  A request is a JSON
object with an ``"op"`` field; everything else is op-specific.  Two
protocol-level fields are understood on every request:

- ``"id"`` — an opaque client token echoed verbatim in the response
  (lets pipelining clients correlate responses);
- ``"dataset"`` — the registry name of the dataset to serve (TCP
  multi-dataset serving; stdio serves exactly one and ignores it);
- ``"deadline_ms"`` — an optional relative deadline in milliseconds,
  anchored at server receipt.  A request already past its deadline
  answers a structured ``deadline_exceeded`` error without doing work,
  and long cold observes honour the deadline cooperatively between
  chunk-plan groups (completed samples stay in the pool).

Responses always carry ``"ok"``.  Failures are *structured*::

    {"ok": false, "error": {"code": "unknown_op", "message": "..."}}

with a closed set of codes (:data:`ERROR_CODES`), so clients can branch
on machine-readable causes instead of parsing exception strings — and
so a malformed line, an unknown op, or an oversized frame degrades into
one error response instead of a dropped connection.

The ops are the service tier's query surface plus control ops::

    get_next | top_stable | stability_of      (repro.service.batch)
    hello | ping | stats | explain | invalidate | checkpoint | shutdown
    diag | profile                            (repro.obs diagnostics)

Every query op additionally understands ``"trace": true``: the server
executes the query inside an :mod:`repro.obs` trace and echoes a
``"trace"`` stage breakdown plus a ``"cost"`` attribution record in the
response.  ``"trace_id"`` (optional, string) propagates a client
correlation id into the server-side trace.  Untraced responses are
byte-identical to pre-tracing servers.

:func:`dispatch` executes one parsed request against one
:class:`~repro.service.StabilitySession` and is the single
implementation behind ``cli.py serve`` (stdio), the asyncio TCP app,
and any test harness — transports only frame lines and move bytes.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

from repro.errors import (
    BudgetExceededError,
    ExhaustedError,
    SnapshotError,
    StableRankingsError,
)
from repro.server import resilience

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "QUERY_OPS",
    "CONTROL_OPS",
    "ERROR_CODES",
    "RequestError",
    "parse_request",
    "error_payload",
    "classify_exception",
    "result_to_json",
    "value_to_json",
    "Handled",
    "dispatch",
]

#: Bumped when the wire format changes incompatibly; ``hello`` reports
#: it so clients can refuse servers they do not understand.
PROTOCOL_VERSION = 1

#: Default maximum request frame (one line, newline included).  A line
#: beyond the limit is answered with ``line_too_long`` and discarded;
#: the connection stays alive.
MAX_LINE_BYTES = 1 << 20

QUERY_OPS = ("get_next", "top_stable", "stability_of")
CONTROL_OPS = (
    "hello", "ping", "stats", "explain", "invalidate", "checkpoint",
    "shutdown", "diag", "profile",
)

#: The closed error-code vocabulary of the protocol.
ERROR_CODES = (
    "bad_json",        # the line is not a JSON object
    "bad_request",     # JSON object, but invalid fields/values
    "unknown_op",      # "op" is not one of QUERY_OPS + CONTROL_OPS
    "line_too_long",   # frame exceeded the server's line limit
    "unknown_dataset", # "dataset" names nothing in the registry
    "exhausted",       # GET-NEXT consumed every observed ranking
    "budget_exceeded", # a sampling budget/cap ran out before convergence
    "infeasible",      # the queried ranking/region is infeasible
    "snapshot_error",  # a checkpoint could not be written/restored
    "busy",            # admission control shed the request (retry later)
    "shutting_down",   # server is draining; no new work accepted
    "no_state_dir",    # checkpoint requested but serving is not durable
    "deadline_exceeded",  # the request's deadline_ms expired (not retried)
    "overloaded",      # degraded mode shed a cold observe (retry later)
    "unavailable",     # transient/injected transport fault; not executed
    "internal",        # unexpected server-side failure
)


def _reject_nonfinite(token: str) -> float:
    # json.loads accepts the NaN/Infinity/-Infinity extensions by
    # default, but json.dumps would then emit them back — producing
    # responses that are not valid JSON.  Strict interchange JSON only.
    raise ValueError(f"{token} is not valid interchange JSON")


def _valid_request_id(value) -> bool:
    """The ``"id"`` echo contract only holds for JSON scalars that
    round-trip: strings, bools, ints, and *finite* floats.  (``1e999``
    parses to ``inf`` without ever hitting the constant hook, and
    echoing it would corrupt the response frame.)"""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, (str, bool, int))


class RequestError(Exception):
    """A request that can be answered only with a structured error.

    ``request_id`` carries the request's ``"id"`` when the frame
    parsed far enough to reveal one, so even parse-level failures can
    honour the id-echo contract.  ``retry_after_ms`` is an optional
    backoff hint surfaced in the error object (degraded-mode sheds set
    it).
    """

    def __init__(self, code: str, message: str, *, request_id=None,
                 retry_after_ms=None):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.request_id = request_id
        self.retry_after_ms = retry_after_ms


def parse_request(line: str | bytes, *, max_bytes: int = MAX_LINE_BYTES) -> dict:
    """One JSON-object request from one raw line.

    Raises :class:`RequestError` (``line_too_long`` / ``bad_json`` /
    ``bad_request``) instead of letting transport loops die on bad
    input.
    """
    raw = line.encode("utf-8", "replace") if isinstance(line, str) else line
    raw = raw.strip()  # the frame terminator does not count toward the limit
    if len(raw) > max_bytes:
        raise RequestError(
            "line_too_long",
            f"request line is {len(raw)} bytes; the limit is {max_bytes}",
        )
    try:
        payload = json.loads(raw, parse_constant=_reject_nonfinite)
    except (ValueError, UnicodeDecodeError) as exc:
        raise RequestError("bad_json", f"not valid JSON: {exc}") from None
    except RecursionError:
        # Pathologically nested frames (60k open brackets still fit in
        # one line) must degrade into a structured error, not kill the
        # connection task.
        raise RequestError(
            "bad_json", "request JSON is nested too deeply"
        ) from None
    if not isinstance(payload, dict):
        raise RequestError(
            "bad_request",
            f"a request must be a JSON object, got {type(payload).__name__}",
        )
    request_id = payload.get("id")
    if request_id is not None and not _valid_request_id(request_id):
        # Validate before *any* error path echoes it: a non-scalar or
        # non-finite id inside error_payload would break the response
        # frame the same way it would break a success frame.
        raise RequestError(
            "bad_request",
            'the "id" field must be a JSON string, finite number, or bool',
        )
    op = payload.get("op")
    if not isinstance(op, str) or not op:
        raise RequestError(
            "bad_request",
            'a request needs a string "op" field',
            request_id=request_id,
        )
    if op not in QUERY_OPS and op not in CONTROL_OPS:
        raise RequestError(
            "unknown_op",
            f"unknown op {op!r}; known ops: "
            f"{', '.join(QUERY_OPS + CONTROL_OPS)}",
            request_id=request_id,
        )
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or not math.isfinite(deadline_ms)
            or deadline_ms <= 0
        ):
            raise RequestError(
                "bad_request",
                '"deadline_ms" must be a positive finite number of '
                "milliseconds",
                request_id=request_id,
            )
    return payload


def error_payload(
    code: str, message: str, *, request_id=None, retry_after_ms=None
) -> dict:
    """The structured failure response for one request.

    ``retry_after_ms`` adds a ``Retry-After``-style backoff hint to the
    error object; retry-aware clients use it as a backoff floor.
    """
    response = {"ok": False, "error": {"code": code, "message": message}}
    if retry_after_ms is not None:
        response["error"]["retry_after_ms"] = float(retry_after_ms)
    if request_id is not None:
        response["id"] = request_id
    return response


def encode_response(response: dict) -> str:
    """Serialize one response frame as strict interchange JSON.

    The read side rejects the NaN/Infinity extensions; the write side
    must honour the same contract, or a non-finite float deep in a
    stats or result payload would emit a frame no compliant JSON
    parser accepts.  Such a response is replaced by a structured
    internal error (id echo preserved) rather than corrupting the
    stream.
    """
    try:
        return json.dumps(response, allow_nan=False)
    except ValueError:
        fallback = error_payload(
            "internal",
            "response contained a non-finite number and was withheld",
            request_id=response.get("id") if isinstance(response, dict) else None,
        )
        return json.dumps(fallback, allow_nan=False)


def classify_exception(exc: BaseException) -> tuple[str, str]:
    """Map an exception to ``(code, message)`` for an error response."""
    message = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, RequestError):
        return exc.code, exc.message
    if isinstance(exc, resilience.DeadlineExceededError):
        # Not a StableRankingsError: a deadline expiry says nothing
        # about feasibility, and it must never be retried (the budget
        # the client granted is spent).
        resilience.DEADLINE_EXCEEDED.inc()
        return "deadline_exceeded", str(exc)
    if isinstance(exc, ExhaustedError):
        return "exhausted", message
    if isinstance(exc, BudgetExceededError):
        return "budget_exceeded", message
    if isinstance(exc, SnapshotError):
        return "snapshot_error", message
    if isinstance(exc, StableRankingsError):
        # Infeasible rankings/regions, invalid datasets/weights: the
        # request named something the engine rejects.
        return "infeasible", message
    if isinstance(exc, (ValueError, TypeError, KeyError, OverflowError)):
        # OverflowError: numpy >= 2 raises it for out-of-dtype ids in a
        # request payload — a client error, not a server bug.
        return "bad_request", message
    return "internal", message


# ----------------------------------------------------------------------
# Result serialization (shared by every serving surface)
# ----------------------------------------------------------------------
def result_to_json(dataset, result) -> dict:
    """One :class:`~repro.core.stability.StabilityResult` as JSON."""
    payload = {
        "ranking": [int(i) for i in result.ranking.order],
        "labels": [dataset.label_of(i) for i in result.ranking.order[:10]],
        "stability": result.stability,
        "confidence_error": result.confidence_error,
        "sample_count": result.sample_count,
    }
    if result.top_k_set is not None:
        payload["top_k_set"] = sorted(int(i) for i in result.top_k_set)
    return payload


def value_to_json(dataset, value) -> object:
    """A query result (one result or a list of them) as JSON."""
    if isinstance(value, list):
        return [result_to_json(dataset, r) for r in value]
    return result_to_json(dataset, value)


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
#: Protocol-level fields stripped before a query op reaches the
#: service tier's request parser.  ``deadline_ms`` is enforced by the
#: transport/dispatch layer (anchored at receipt), not re-anchored by
#: the batch request parser.
_META_FIELDS = ("id", "dataset", "trace", "trace_id", "deadline_ms")


def _resolve_extra(extra) -> dict:
    """A dict, a zero-argument callable returning one, or ``None``."""
    if extra is None:
        return {}
    return extra() if callable(extra) else extra


def hello_fields(
    *,
    transport: str,
    datasets: list[str],
    default_dataset: str | None,
    durable: bool,
) -> dict:
    """The transport-specific half of a ``hello`` response.

    One constructor for every transport, so stdio and TCP can never
    drift on the field set a client probes (``durable`` gates the
    checkpoint op, ``datasets`` the addressing).
    """
    import repro

    return {
        "transport": transport,
        "library": repro.__version__,
        "datasets": list(datasets),
        "default_dataset": default_dataset,
        "durable": bool(durable),
    }


@dataclass
class Handled:
    """The outcome of dispatching one request.

    Attributes
    ----------
    response:
        The JSON-safe response object to write back.
    advanced:
        Whether the request counts toward the checkpoint cadence (an
        explicit ``checkpoint`` op resets the counter instead).
    mutated:
        Whether durable session state may have changed (pool growth,
        cursor advance, cache fill, invalidation) — the server's dirty
        tracking for checkpoint-on-drain.
    stop:
        Whether the serving loop should stop after responding
        (``shutdown``).
    """

    response: dict
    advanced: bool = True
    mutated: bool = False
    stop: bool = False


def dispatch(
    session,
    dataset,
    payload: dict,
    *,
    checkpoint=None,
    hello_extra: dict | None = None,
    stats_extra: dict | None = None,
    trace_extra: dict | None = None,
    diag_extra: dict | None = None,
    allow_shutdown: bool = True,
    deadline=None,
) -> Handled:
    """Execute one parsed request against one session.

    Parameters
    ----------
    session, dataset:
        The serving session and its dataset (labels for responses).
    payload:
        A request dict from :func:`parse_request`.
    checkpoint:
        Zero-argument callable performing a durable checkpoint and
        returning ``{"path", "bytes"}``, or ``None`` when serving is
        not durable (the ``checkpoint`` op then answers
        ``no_state_dir``).
    hello_extra / stats_extra:
        Transport-specific additions to the ``hello`` / ``stats``
        responses (server identity, registry and metrics sections).
        Either may be a dict or a zero-argument callable returning one
        — callables are only invoked when their op actually runs, so
        transports can defer expensive introspection off the hot path.
    trace_extra:
        Extra stages (``{name: seconds}``, dict or zero-argument
        callable) measured by the transport outside this call — the TCP
        app's event-loop-side RW-lock wait, for example.  Grafted onto
        the trace root when the request asked for ``"trace": true``;
        ignored otherwise.
    diag_extra:
        Transport-specific additions to a ``diag`` bundle (dict or
        zero-argument callable): ``"metrics"`` — a fresh metrics
        snapshot appended to the bundle's metrics ring; ``"slo"`` — the
        current SLO scores.  The bundle itself comes from the
        process-global :mod:`repro.obs.flight` recorder.
    allow_shutdown:
        Whether the ``shutdown`` op is honoured (stdio honours it too:
        it ends the loop exactly like end-of-input).
    deadline:
        The request's :class:`~repro.server.resilience.Deadline`,
        already anchored at receipt by the transport; ``None`` derives
        one from the payload's ``deadline_ms`` (anchored *now* — the
        stdio loop calls dispatch synchronously at receipt, so the
        anchors coincide).  An already-expired deadline answers
        ``deadline_exceeded`` before any work (``shutdown`` excepted —
        the drain path must stay drivable), and the deadline is made
        ambient around query execution so the observe path can cancel
        cooperatively.

    Never raises for request-shaped failures — every error becomes a
    structured response.  Exceptions escaping this function indicate a
    server bug, and transports translate them to ``internal``.
    """
    op = payload.get("op")
    request_id = payload.get("id")
    if deadline is None:
        deadline = resilience.Deadline.from_request(payload)

    def fail(code: str, message: str, **flags) -> Handled:
        return Handled(
            error_payload(code, message, request_id=request_id), **flags
        )

    def ok(response: dict, **flags) -> Handled:
        if request_id is not None:
            response["id"] = request_id
        response["ok"] = True
        return Handled(response, **flags)

    if deadline is not None and deadline.expired() and op != "shutdown":
        resilience.DEADLINE_EXCEEDED.inc()
        return fail(
            "deadline_exceeded",
            f"deadline of {deadline.deadline_ms:g} ms expired before "
            "execution",
            advanced=False,
        )

    if op == "ping":
        return ok({"pong": True}, advanced=False)
    if op == "hello":
        response = {
            "server": "repro.server",
            "protocol": PROTOCOL_VERSION,
            "ops": list(QUERY_OPS + CONTROL_OPS),
        }
        response.update(_resolve_extra(hello_extra))
        return ok(response, advanced=False)
    if op == "stats":
        response = {"stats": session.stats()}
        response.update(_resolve_extra(stats_extra))
        return ok(response, advanced=False)
    if op == "explain":
        query = payload.get("query")
        if not isinstance(query, dict):
            return fail(
                "bad_request",
                'explain needs a "query" object (the query request '
                "to be planned, not executed)",
                advanced=False,
            )
        try:
            plan = session.explain(
                {k: v for k, v in query.items() if k not in _META_FIELDS}
            )
        except Exception as exc:
            return fail(*classify_exception(exc), advanced=False)
        return ok({"explain": plan}, advanced=False)
    if op == "invalidate":
        return ok({"invalidated": session.invalidate()}, mutated=True)
    if op == "checkpoint":
        if checkpoint is None:
            return fail(
                "no_state_dir",
                "serving is not durable (no --state-dir)",
                advanced=False,
            )
        try:
            saved = checkpoint()
        except Exception as exc:
            return fail(*classify_exception(exc), advanced=False)
        return ok({"checkpoint": saved}, advanced=False)
    if op == "shutdown":
        if not allow_shutdown:
            return fail("bad_request", "shutdown is not honoured here")
        return ok({"shutting_down": True}, advanced=False, stop=True)
    if op == "diag":
        from repro.obs import flight as obs_flight

        extra = _resolve_extra(diag_extra)
        bundle = obs_flight.diag_bundle(
            "wire",
            metrics_snapshot=extra.get("metrics"),
            slo=extra.get("slo"),
        )
        return ok(
            {"diag": bundle, "flight": obs_flight.enabled()}, advanced=False
        )
    if op == "profile":
        from repro.obs import profile as obs_profile

        action = payload.get("action", "status")
        if action == "start":
            hz = payload.get("hz", obs_profile.DEFAULT_HZ)
            if not isinstance(hz, (int, float)) or isinstance(hz, bool):
                return fail(
                    "bad_request", 'profile "hz" must be a number',
                    advanced=False,
                )
            try:
                snap = obs_profile.start(float(hz))
            except ValueError as exc:
                return fail("bad_request", str(exc), advanced=False)
        elif action == "stop":
            snap = obs_profile.stop()
        elif action == "status":
            snap = obs_profile.status()
        else:
            return fail(
                "bad_request",
                'profile "action" must be "start", "stop", or "status", '
                f"got {action!r}",
                advanced=False,
            )
        return ok({"profile": snap}, advanced=False)

    if op not in QUERY_OPS:
        return fail(
            "unknown_op",
            f"unknown op {op!r}; known ops: "
            f"{', '.join(QUERY_OPS + CONTROL_OPS)}",
        )

    from repro.service.batch import execute_batch

    request = {
        key: value for key, value in payload.items() if key not in _META_FIELDS
    }
    want_trace = bool(payload.get("trace"))
    trace_obj = None
    start = time.perf_counter()
    if want_trace:
        from repro.obs import tracing as obs_trace

        trace_id = payload.get("trace_id")
        with obs_trace.trace(
            f"server.dispatch:{op}",
            trace_id=trace_id if isinstance(trace_id, str) and trace_id else None,
        ) as trace_obj:
            with resilience.deadline_scope(deadline):
                outcome = execute_batch(session, [request])[0]
        for name, seconds in _resolve_extra(trace_extra).items():
            trace_obj.add_stage(name, float(seconds))
    else:
        with resilience.deadline_scope(deadline):
            outcome = execute_batch(session, [request])[0]
    elapsed = time.perf_counter() - start
    if not outcome.ok:
        # The attempt may have mutated state before failing (a
        # get_next that grew its pool to target and then found every
        # ranking already returned); over-marking dirty costs one
        # redundant checkpoint, under-marking loses samples at drain.
        return fail(*classify_exception(outcome.error), mutated=True)
    response = {
        "cached": outcome.cached,
        "seconds": round(elapsed, 6),
        "result": value_to_json(dataset, outcome.value),
    }
    if want_trace:
        from repro.obs import flight as obs_flight
        from repro.obs.tracing import stage_report

        response["cost"] = outcome.cost
        report = stage_report(trace_obj)
        response["trace"] = {"trace_id": trace_obj.trace_id, **report}
        if obs_flight._ENABLED:
            obs_flight.record_trace(
                {"op": op, "trace_id": trace_obj.trace_id, **report}
            )
    return ok(
        response,
        # get_next consumes a cursor; an uncached idempotent answer may
        # have grown a pool or filled the result cache.  Only a cache
        # hit provably left durable state untouched.
        mutated=(op == "get_next") or not outcome.cached,
    )


# ----------------------------------------------------------------------
# Write-lock classification (concurrency hint for the async app)
# ----------------------------------------------------------------------
def needs_write(session, payload: dict) -> bool:
    """Whether dispatching ``payload`` may mutate session state.

    The TCP app interleaves read-only requests under a shared read lock
    and serializes mutators under the write lock.  ``ping`` / ``hello``
    / ``stats`` never touch durable state; for the query ops the
    classification is the session's own
    :meth:`~repro.service.StabilitySession.query_is_warm_read` (it
    owns the state layout being probed).  A payload the session cannot
    even interpret classifies as a write — misclassifying toward
    "write" costs parallelism, never correctness.
    """
    op = payload.get("op")
    if op in ("ping", "hello", "stats", "explain", "diag", "profile"):
        # explain plans a query without materializing backend state —
        # it only inspects already-built pools; diag/profile touch only
        # the process-global recorder and profiler.
        return False
    try:
        return not session.query_is_warm_read(op, **_query_fields(payload))
    except Exception:
        return True


def answer_is_cached(session, payload: dict) -> bool:
    """The session's non-counting cache probe; bad payloads miss."""
    try:
        return session.answer_is_cached(payload["op"], **_query_fields(payload))
    except Exception:
        return False


def _query_fields(payload: dict) -> dict:
    """The session-side query keywords of one wire request."""
    defaults = {"kind": "full", "k": None, "backend": "auto", "ranking": None,
                "m": 1, "budget": None, "min_samples": None}
    return {name: payload.get(name, value) for name, value in defaults.items()}
