"""Batch planning: one amortized sampling pass for heterogeneous requests.

A production serving tier rarely receives one query at a time — it
receives a mixed burst: a few ``top_stable`` calls, some verifications,
a ``get_next`` drain.  Executed naively, every request over a
randomized configuration pays its own sampling pass.  The planner
exploits the session's pool semantics (cumulative targets, monotone
growth):

1. **group** requests by query configuration ``(kind, k, backend)``;
2. **prefill** each randomized group's pool once, to the *maximum*
   target any of its requests wants — one observe pass through the
   session's :class:`~repro.service.parallel.ObserveExecutor`
   (thread-sharded when it pays) instead of one per request;
3. **answer** every request in submission order through the ordinary
   session methods, which now find their pool already warm (and the
   result cache on the fast path for repeats).

Because session answers depend only on the pool state at answer time
and pool growth is monotone, a batch whose requests share one target
produces exactly the results sequential execution would; heterogeneous
targets can only give earlier requests *more* samples than sequential
execution (never fewer), i.e. tighter confidence errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

from repro.core.stability import StabilityResult
from repro.service.budget import PrecisionBudget, parse_budget

__all__ = ["StabilityRequest", "BatchOutcome", "BatchPlanner", "execute_batch"]

_OPS = ("get_next", "top_stable", "stability_of")


@dataclass(frozen=True)
class StabilityRequest:
    """One declarative stability query for batch execution.

    Attributes
    ----------
    op:
        ``"get_next"``, ``"top_stable"``, or ``"stability_of"``.
    kind, k, backend:
        The query configuration, as in the session methods.
    budget:
        Cumulative pool target (randomized configurations): a sample
        count, or a ``"ci:WIDTH[@MAX]"`` precision spec (parsed at
        construction, so a garbled spec fails the one request, not the
        batch).
    m:
        Result count for ``top_stable``.
    ranking:
        Item identifiers for ``stability_of`` (any iterable; stored
        canonically as a tuple).
    min_stability:
        Cutoff for ``top_stable``.
    min_samples:
        Verification pool floor for ``stability_of``.
    deadline_ms:
        Optional relative deadline, anchored at request *construction*
        (wire requests carry their deadline at the protocol layer
        instead, anchored at receipt).  An expired request fails alone
        with :class:`~repro.server.resilience.DeadlineExceededError`;
        the rest of the batch answers normally.
    """

    op: Literal["get_next", "top_stable", "stability_of"]
    kind: str = "full"
    k: int | None = None
    backend: str = "auto"
    budget: int | str | PrecisionBudget | None = None
    m: int = 1
    ranking: tuple[int, ...] | None = None
    min_stability: float = 0.0
    min_samples: int | None = None
    deadline_ms: float | None = None

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"op must be one of {_OPS}, got {self.op!r}")
        object.__setattr__(self, "budget", parse_budget(self.budget))
        if self.op == "top_stable" and self.m < 1:
            raise ValueError(f"top_stable needs m >= 1, got {self.m}")
        if self.op == "stability_of":
            if self.ranking is None:
                raise ValueError("stability_of requires ranking=")
            object.__setattr__(
                self, "ranking", tuple(int(i) for i in self.ranking)
            )
        if self.deadline_ms is None:
            object.__setattr__(self, "_deadline", None)
        else:
            dms = self.deadline_ms
            if (
                isinstance(dms, bool)
                or not isinstance(dms, (int, float))
                or not math.isfinite(dms)
                or dms <= 0
            ):
                raise ValueError(
                    "deadline_ms must be a positive finite number of "
                    f"milliseconds, got {dms!r}"
                )
            from repro.server.resilience import Deadline

            object.__setattr__(self, "deadline_ms", float(dms))
            object.__setattr__(self, "_deadline", Deadline(float(dms)))

    @property
    def deadline(self):
        """The anchored :class:`Deadline`, or ``None``."""
        return self._deadline

    @classmethod
    def from_dict(cls, payload: dict) -> "StabilityRequest":
        """Build a request from a JSON-style mapping (unknown keys rejected)."""
        allowed = set(cls.__dataclass_fields__)
        unknown = set(payload) - allowed
        if unknown:
            raise ValueError(f"unknown request fields: {sorted(unknown)}")
        return cls(**payload)


@dataclass
class BatchOutcome:
    """The result (or failure) of one batched request.

    ``request`` is the parsed :class:`StabilityRequest`, or the raw
    payload when parsing itself failed (``error`` set).
    """

    request: StabilityRequest | dict
    value: StabilityResult | list[StabilityResult] | None = None
    error: Exception | None = None
    cached: bool = False
    #: The session's cost-attribution record for this answer (see
    #: :attr:`StabilitySession.last_query_cost`); ``None`` on failure.
    cost: dict | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class BatchPlanner:
    """Plans and executes request batches against one session."""

    session: object
    prefill_targets: dict = field(default_factory=dict, init=False)
    precision_targets: dict = field(default_factory=dict, init=False)
    #: ``{config key: Deadline | None}`` — the most generous deadline
    #: among the requests that contributed a key's target (``None`` as
    #: soon as any contributor is deadline-free: the prefill then runs
    #: unbounded, scoped only by any ambient request deadline).
    prefill_deadlines: dict = field(default_factory=dict, init=False)

    def plan(self, requests) -> dict:
        """Per-configuration pool targets: the amortization schedule.

        Returns ``{(kind, k, resolved_backend): max cumulative target}``
        over the batch's randomized-configuration requests with plain
        sample-count targets.  Precision (``"ci:..."``) targets follow
        a different order — tightest width wins — so they accumulate
        separately in :attr:`precision_targets`; ``execute`` prefills
        both.
        """
        session = self.session
        targets: dict[tuple, int] = {}
        precision: dict[tuple, PrecisionBudget] = {}
        deadlines: dict[tuple, object] = {}
        for request in requests:
            if request.deadline is not None and request.deadline.expired():
                # Already dead on arrival: it must not inflate any
                # pool target (the answer loop fails it alone).
                continue
            try:
                state = session._state(
                    request.kind,
                    request.k,
                    session.query_backend(
                        request.op, request.kind, request.backend,
                        request.ranking,
                    ),
                )
            except Exception:
                # Invalid configuration (bad k, kind/backend mismatch...):
                # skip it here — execute() retries the request inside its
                # per-request isolation and reports the real error.
                continue
            if not state.is_randomized:
                continue
            key = (request.kind, request.k, state.engine.backend_name)
            if key not in deadlines:
                deadlines[key] = request.deadline
            else:
                held = deadlines[key]
                if held is not None and (
                    request.deadline is None
                    or request.deadline.expires_at > held.expires_at
                ):
                    deadlines[key] = request.deadline
            target = session.pool_target(
                request.op,
                m=request.m,
                budget=request.budget,
                min_samples=request.min_samples,
            )
            if isinstance(target, PrecisionBudget):
                held = precision.get(key)
                if (
                    held is None
                    or target.width < held.width
                    or (
                        target.width == held.width
                        and target.max_samples > held.max_samples
                    )
                ):
                    precision[key] = target
            else:
                targets[key] = max(targets.get(key, 0), target)
        self.prefill_targets = targets
        self.precision_targets = precision
        self.prefill_deadlines = deadlines
        return targets

    def execute(self, requests) -> list[BatchOutcome]:
        """Prefill pools, then answer every request in submission order."""
        requests = list(requests)
        session = self.session
        self.plan(requests)
        # Samples drawn by the amortized prefill are attributed to the
        # first request of each configuration (the one that would have
        # triggered the growth sequentially), keyed for the cost fixup
        # in the answer loop below.
        prefill_drawn: dict[tuple, dict] = {}

        def note(key, drawn: int) -> None:
            if drawn <= 0:
                return
            last = getattr(session._observer, "last_pass", None) or {}
            entry = prefill_drawn.setdefault(
                key, {"drawn": 0, "executor": None, "chunks": 0}
            )
            entry["drawn"] += drawn
            entry["executor"] = last.get("executor")
            entry["chunks"] = last.get("chunks", 0)

        # Deadline plumbing is lazy-imported: the resilience layer
        # lives above the service tier, and importing it at module
        # level would re-enter the server -> session import cycle.
        from repro.server.resilience import (
            DeadlineExceededError,
            deadline_scope,
        )

        for (kind, k, backend), target in self.prefill_targets.items():
            try:
                with deadline_scope(
                    self.prefill_deadlines.get((kind, k, backend))
                ):
                    drawn = session._ensure_pool(
                        session._state(kind, k, backend), target
                    )
            except DeadlineExceededError:
                # Cooperative cancellation mid-prefill: the completed
                # chunk groups stayed pooled, and the requests that
                # wanted this target re-raise under their own
                # per-request isolation below.
                continue
            note((kind, k, backend), drawn)
        for (kind, k, backend), budget in self.precision_targets.items():
            try:
                with deadline_scope(
                    self.prefill_deadlines.get((kind, k, backend))
                ):
                    drawn = session._ensure_pool(
                        session._state(kind, k, backend), budget
                    )
            except Exception:
                # A cap (or deadline) hit during prefill is not a batch
                # failure: the requests that named this budget re-raise
                # it under their own per-request isolation below.
                pass
            else:
                note((kind, k, backend), drawn)
        outcomes: list[BatchOutcome] = []
        for request in requests:
            try:
                if request.deadline is not None:
                    request.deadline.check("before executing the request")
                with deadline_scope(request.deadline):
                    if request.op == "get_next":
                        value = session.get_next(
                            kind=request.kind,
                            k=request.k,
                            backend=request.backend,
                            budget=request.budget,
                        )
                    elif request.op == "top_stable":
                        value = session.top_stable(
                            request.m,
                            kind=request.kind,
                            k=request.k,
                            backend=request.backend,
                            budget=request.budget,
                            min_stability=request.min_stability,
                        )
                    else:
                        value = session.stability_of(
                            request.ranking,
                            kind=request.kind,
                            k=request.k,
                            backend=request.backend,
                            min_samples=request.min_samples,
                        )
            except Exception as exc:  # per-request isolation
                outcomes.append(BatchOutcome(request=request, error=exc))
                continue
            cost = session.last_query_cost
            if cost is not None and cost.get("backend") is not None:
                # Fold this configuration's prefill draw back into the
                # first answer that wanted it — the session method saw a
                # pool the planner had already grown.
                info = prefill_drawn.pop(
                    (request.kind, request.k, cost["backend"]), None
                )
                if info is not None and "samples_drawn" in cost:
                    drawn = info["drawn"]
                    reclassified = min(drawn, cost["samples_before"])
                    cost["samples_drawn"] += drawn
                    cost["samples_before"] = max(
                        cost["samples_before"] - drawn, 0
                    )
                    after = cost.get("samples_after", 0)
                    cost["pool_reused_fraction"] = (
                        round(cost["samples_before"] / after, 6)
                        if after
                        else 1.0
                    )
                    if cost.get("executor") in (None, "none"):
                        cost["executor"] = info["executor"]
                        cost["chunks"] = info["chunks"]
                    # The session totals were bumped with the pre-fixup
                    # numbers inside _finish_cost; re-balance them.
                    with session._cost_lock:
                        session._cost_totals["samples_drawn"] += drawn
                        session._cost_totals["samples_reused"] -= reclassified
            outcomes.append(
                BatchOutcome(
                    request=request,
                    value=value,
                    cached=session.last_query_cached,
                    cost=cost,
                )
            )
        return outcomes


def execute_batch(session, requests) -> list[BatchOutcome]:
    """Execute ``requests`` against ``session`` with amortized sampling.

    Convenience over :class:`BatchPlanner`; accepts
    :class:`StabilityRequest` instances or JSON-style dicts.  A request
    that fails to parse is reported as a failed :class:`BatchOutcome`
    in place (service behaviour: one bad request never sinks a batch).
    """
    slots: list[BatchOutcome | StabilityRequest] = []
    valid: list[StabilityRequest] = []
    for raw in requests:
        try:
            request = (
                raw
                if isinstance(raw, StabilityRequest)
                else StabilityRequest.from_dict(raw)
            )
        except Exception as exc:
            slots.append(BatchOutcome(request=raw, error=exc))
            continue
        slots.append(request)
        valid.append(request)
    executed = iter(BatchPlanner(session).execute(valid))
    return [
        slot if isinstance(slot, BatchOutcome) else next(executed)
        for slot in slots
    ]
