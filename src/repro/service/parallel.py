"""Shard-parallel observe for the randomized backend.

The kernel's observe pass is embarrassingly parallel across scoring
chunks: each chunk's BLAS product, ranking-key reduction, and byte-pack
is independent, and numpy releases the GIL inside all three, so a
thread pool scales the pass across cores without pickling the dataset.
These workers are the only parallelism: importing the kernel pins
OpenBLAS to one thread, so each chunk's GEMM runs on its worker alone.

Exact serial equivalence is preserved by construction:

1. the pruning-index build and chunk plan run first, exactly as the
   serial path would (:meth:`GetNextRandomized.prepare_observe` /
   :meth:`~GetNextRandomized.plan_chunks`, or an explicit
   ``scoring_chunk``);
2. weight sampling stays on the caller's thread, one chunk at a time in
   plan order, so the operator's rng consumes the identical stream;
3. workers run only the pure chunk reduction
   (:meth:`~GetNextRandomized.reduce_for_weights`), producing a
   mergeable mini-tally per chunk;
4. mini-tallies fold into the operator's tally **in plan order**
   (:meth:`RankingTally.observe_packed`), reproducing the serial
   tally byte-for-byte — counts, totals, and first-seen tie-breaks.

:class:`ObserveExecutor` is the one dial over all of it: ``serial`` /
``thread`` behind a single ``observe`` call, with an ``auto`` mode that
picks per pass from the work size (``n_items`` x chunks x workers).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.randomized import GetNextRandomized
from repro.obs import tracing as obs_trace

__all__ = [
    "PARALLEL_MIN_ITEMS",
    "PARALLEL_MIN_CHUNKS",
    "EXECUTOR_MODES",
    "default_workers",
    "ObserveExecutor",
]

#: Below this many items a chunk reduction is too cheap for thread
#: handoff to pay off — ``auto`` runs the pass serially instead.
PARALLEL_MIN_ITEMS = 2_048

#: A pass needs at least this many chunks for sharding to matter.
PARALLEL_MIN_CHUNKS = 2

EXECUTOR_MODES = ("auto", "serial", "thread")


def default_workers() -> int:
    """Worker count for a pool without an explicit ``max_workers``.

    "Available cores minus one" (the caller's thread keeps sampling
    weights while workers reduce), floored at 1.  Available cores are
    ``os.sched_getaffinity`` — the CPUs this process may actually run
    on (cgroup/taskset limits) — where the platform has it, else
    ``os.cpu_count()``.
    """
    try:
        available = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        available = os.cpu_count() or 1
    return max(available - 1, 1)


class ObserveExecutor:
    """One dial over serial / thread-pool observe.

    The session, the batch planner, and the server all route pool
    growth through one of these; it owns the persistent thread pool and
    picks the backend per pass:

    - ``mode="serial"`` — always ``op.observe`` on the caller's thread;
    - ``mode="thread"`` — always the pool (an explicit mode runs the
      sharded path even for tiny passes: the caller has decided, and
      tests rely on pinning the code path);
    - ``mode="auto"`` — per pass (:meth:`resolve`): the pool only when
      there is more than one worker, the dataset has at least
      :data:`PARALLEL_MIN_ITEMS` items and the pass at least
      :data:`PARALLEL_MIN_CHUNKS` chunks; serial otherwise.

    :meth:`close` shuts the pool down — sessions call it from their own
    ``close``, so server drains and evictions release the worker
    threads deterministically.
    """

    def __init__(self, mode: str = "auto", *, max_workers: int | None = None):
        if mode not in EXECUTOR_MODES:
            raise ValueError(
                f"executor mode must be one of {EXECUTOR_MODES}, got {mode!r}"
            )
        self.mode = mode
        self.max_workers = max_workers
        self._thread_pool: ThreadPoolExecutor | None = None
        self._closed = False
        #: Cost-attribution record of the most recent pass:
        #: ``{"executor", "n", "chunks", "kernel"}`` (observability only).
        self.last_pass: dict | None = None

    # -- sizing ---------------------------------------------------------
    @property
    def workers(self) -> int:
        return (
            self.max_workers
            if self.max_workers is not None
            else default_workers()
        )

    def resolve(self, op, n_chunks: int) -> str:
        """The backend one pass of ``n_chunks`` over ``op`` would use."""
        if self.mode != "auto":
            return self.mode
        raw = getattr(op, "raw", op)
        if (
            self.workers > 1
            and raw.dataset.n_items >= PARALLEL_MIN_ITEMS
            and n_chunks >= PARALLEL_MIN_CHUNKS
        ):
            return "thread"
        return "serial"

    # -- pool -----------------------------------------------------------
    def _threads(self) -> ThreadPoolExecutor:
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=max(self.workers, 1),
                thread_name_prefix="repro-observe",
            )
        return self._thread_pool

    # -- the one entry point -------------------------------------------
    def observe(self, op, n_new: int) -> str:
        """Grow ``op``'s pool by ``n_new``; returns the backend used.

        Every backend produces the byte-identical tally; the return
        value (``"serial"`` / ``"thread"``) is for observability and
        tests only.
        """
        if self._closed:
            raise RuntimeError("ObserveExecutor is closed")
        raw = getattr(op, "raw", op)
        if not isinstance(raw, GetNextRandomized):
            raise TypeError(
                f"observe requires a randomized operator, got {type(raw).__name__}"
            )
        if n_new <= 0:
            return "serial"
        # Lazy import: resilience lives above the service tier, and a
        # module-level import here would re-enter the
        # registry -> session -> parallel import cycle.
        from repro.server.resilience import current_deadline

        deadline = current_deadline()
        with obs_trace.span("observe.pass", n=n_new) as pass_span:
            if deadline is None:
                mode, n_chunks = self._observe_one(raw, n_new)
            else:
                mode, n_chunks = self._observe_cooperative(
                    raw, n_new, deadline
                )
            pass_span.set(executor=mode, chunks=n_chunks,
                          kernel=raw.kernel_backend.name)
        self.last_pass = {
            "executor": mode,
            "n": n_new,
            "chunks": n_chunks,
            "kernel": raw.kernel_backend.name,
        }
        return mode

    def _observe_cooperative(self, raw, n_new: int, deadline) -> tuple[str, int]:
        """One observe pass with deadline checks between chunk groups.

        Byte-identity with the uninterrupted pass is load-bearing:
        ``prepare_observe`` runs once with the *full* ``n_new`` (so
        candidate pruning and chunk auto-tuning see exactly what a
        serial pass would), and the sub-passes follow the full pass's
        ``plan_chunks`` decomposition group by group — each sub-pass
        re-plans to the identical chunk slice, so the weight stream and
        fold order match sample for sample.  A deadline expiry between
        groups raises :class:`DeadlineExceededError` with every
        completed group already folded into the pool — a retry resumes
        warm from there.
        """
        deadline.check("before the observe pass started")
        # Fix candidate pruning and chunk tuning against the full pass
        # size before grouping; the per-group prepare calls below are
        # idempotent no-ops after this.
        raw.prepare_observe(n_new)
        sizes = raw.plan_chunks(n_new)
        group = max(4, 2 * max(self.workers, 1))
        if len(sizes) <= group:
            return self._observe_one(raw, n_new)
        mode, drawn = "serial", 0
        for start in range(0, len(sizes), group):
            if start:
                deadline.check(
                    f"observe pass cancelled after {drawn} of {n_new} "
                    "samples (completed samples stay pooled)"
                )
            sub_n = sum(sizes[start:start + group])
            mode, _ = self._observe_one(raw, sub_n)
            drawn += sub_n
        return mode, len(sizes)

    def _observe_one(self, raw, n_new: int) -> tuple[str, int]:
        """One uninterrupted pass; returns ``(backend, chunks)``."""
        if self.mode == "serial":
            raw.observe(n_new)
            return "serial", 0
        raw.prepare_observe(n_new)
        sizes = raw.plan_chunks(n_new)
        if self.resolve(raw, len(sizes)) == "serial" or self.workers < 1:
            raw.observe(n_new)
            return "serial", len(sizes)
        # Sampling consumes the operator's stream serially in plan order —
        # identical to the serial path's (rng for "mc", the quasi stream's
        # running Halton index for "qmc").
        traced = obs_trace.tracing_enabled()
        clock = time.perf_counter
        t0 = clock() if traced else 0.0
        weight_chunks = [raw.sample_weights(batch) for batch in sizes]
        if traced:
            obs_trace.record("observe.sample", clock() - t0,
                             count=len(sizes), n=n_new)
        pool = self._threads()
        t1 = clock() if traced else 0.0
        futures = [pool.submit(raw.reduce_for_weights, w) for w in weight_chunks]
        if traced:
            obs_trace.record("observe.submit", clock() - t1, count=len(futures))
        t2 = clock() if traced else 0.0
        for future in futures:  # plan order — NOT completion order
            keys, freqs, n_rows = future.result()
            raw.tally.observe_packed(keys, freqs, n_rows)
        if traced:
            # Wait-and-fold: worker reductions overlap this loop, so it
            # covers the whole reduce+fold tail of the pass.
            obs_trace.record("observe.fold", clock() - t2, count=len(futures))
        return "thread", len(sizes)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Shut the thread pool down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None

    def __enter__(self) -> "ObserveExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
