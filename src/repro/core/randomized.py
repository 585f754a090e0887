"""The randomized GET-NEXT operator (sections 4.3-4.5).

Uniform samples of the function space hit ranking regions with
probability equal to their stability, so counting which ranking each
sampled function induces simultaneously *discovers* rankings and
*estimates* their stability.  The operator therefore scales to settings
where arrangement construction is hopeless and — unlike GET-NEXT-MD —
works for partial (top-k) rankings, since it never needs the one-to-one
region/ranking correspondence.

The sampling hot path runs entirely on the vectorized kernel of
:mod:`repro.engine.kernel`, through the one chunk reduction of
:mod:`repro.engine.kernels`: one BLAS scoring product per block, bulk
``argsort``/``argpartition`` key extraction, byte-packed count keys,
and a heap-backed "best unreturned" query.

Two stopping rules are provided, matching Algorithms 7 and 8:

- **fixed budget** (:meth:`GetNextRandomized.get_next` with ``budget=N``)
  draws exactly ``N`` new samples and reports the best not-yet-returned
  ranking with its confidence error;
- **fixed confidence error** (``error=e``) keeps sampling until the
  normal-approximation half-width of the leading candidate drops to
  ``e`` (Equation 10), with non-deterministic cost ``~ s(1-s)(Z/e)^2``
  (Equation 11).
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Literal

import numpy as np

from repro.obs import tracing as obs_trace

from repro.core.dataset import Dataset
from repro.core.ranking import Ranking
from repro.core.region import FullSpace, RegionOfInterest
from repro.core.stability import StabilityResult
from repro.engine import kernel, kernels
from repro.errors import BudgetExceededError, ExhaustedError
from repro.sampling.montecarlo import confidence_error

__all__ = ["GetNextRandomized", "RankingKind"]

RankingKind = Literal["full", "topk_ranked", "topk_set"]

# Auto-pruning thresholds for the top-k observe path.  The strict
# k-skyband index costs O(n * band * d) to build: at d=4, k=10 on a
# 2-vCPU host, about 30 ms for n=10K uniform data but about 200 ms for
# anti-correlated data, where ~75% of the items stay in the band.  The
# thresholds stay because a budget-1K pass on such data would pay that
# build only to drop a quarter of its columns: the index is built only
# for large datasets and sampling plans big enough to amortise it.
_PRUNE_MIN_ITEMS = 4_096
_PRUNE_AFTER_SAMPLES = 10_000


class GetNextRandomized:
    """Monte-Carlo GET-NEXT over complete or top-k rankings.

    Parameters
    ----------
    dataset:
        The database (any ``n``, ``d``).
    region:
        Region of interest ``U*``; defaults to the full function space.
    kind:
        ``"full"`` for complete rankings, ``"topk_ranked"`` for ordered
        top-k prefixes, ``"topk_set"`` for unordered top-k sets
        (section 2.2.5's two partial notions).
    k:
        Prefix size for the top-k kinds.
    rng:
        Source of randomness.
    confidence:
        Confidence level for error half-widths (``alpha = 1 -
        confidence``).
    scoring_chunk:
        Number of sampled functions scored per vectorised block; bounds
        peak memory at ``scoring_chunk * n_items`` floats.  ``None``
        (the default) auto-tunes the block size to the dataset via
        :func:`repro.engine.kernel.auto_chunk_size`.
    prune_topk:
        Controls the strict k-skyband pruning index for the top-k
        kinds: items with ``k`` strict dominators can never enter a
        top-k under non-negative weights, so observing only the skyband
        columns is exact and much faster.  ``None`` (default) builds
        the index automatically once the dataset and the cumulative
        sampling plan are large enough to amortise its construction;
        ``True`` builds it on the first observation; ``False`` disables
        pruning.
    skyband:
        Optional prebuilt :class:`repro.operators.skyline.KSkybandIndex`
        over ``dataset.values``, shared across operators so a serving
        session pays the band construction once (the index caches per
        ``k``).  ``None`` builds a private index on demand.
    sampling:
        ``"mc"`` (default) draws i.i.d. uniform weights from the rng;
        ``"qmc"`` drives the pool with a randomised low-discrepancy
        stream (:class:`repro.sampling.quasi.QuasiStream`) — one
        Cranley-Patterson shift drawn from the rng at construction, a
        running Halton index continuing a single sequence across
        observe passes.  Only the full space and orthant-contained
        cones support it.  The estimator stays unbiased but the draws
        are no longer independent, so confidence half-widths are the
        (conservative) i.i.d. ones.
    """

    #: The chunk reduction every operator shares (stateless).
    kernel_backend = kernels.KernelBackend()

    def __init__(
        self,
        dataset: Dataset,
        *,
        region: RegionOfInterest | None = None,
        kind: RankingKind = "full",
        k: int | None = None,
        rng: np.random.Generator | None = None,
        confidence: float = 0.95,
        scoring_chunk: int | None = None,
        prune_topk: bool | None = None,
        skyband=None,
        sampling: str = "mc",
    ):
        if kind not in ("full", "topk_ranked", "topk_set"):
            raise ValueError(f"unknown ranking kind {kind!r}")
        if kind != "full":
            if k is None or k < 1 or k > dataset.n_items:
                raise ValueError(
                    f"top-k kinds require 1 <= k <= {dataset.n_items}, got {k}"
                )
        if sampling not in ("mc", "qmc"):
            raise ValueError(f"sampling must be 'mc' or 'qmc', got {sampling!r}")
        self.dataset = dataset
        self.region = region if region is not None else FullSpace(dataset.n_attributes)
        self.kind: RankingKind = kind
        self.k = int(k) if k is not None else None
        self.rng = rng if rng is not None else np.random.default_rng()
        self.confidence = confidence
        self.sampling = sampling
        if sampling == "qmc":
            from repro.sampling.quasi import QuasiStream

            self._qmc = QuasiStream.for_region(self.region, self.rng)
        else:
            self._qmc = None
        self._auto_chunk = scoring_chunk is None
        if scoring_chunk is None:
            self.scoring_chunk = kernel.auto_chunk_size(dataset.n_items)
        else:
            self.scoring_chunk = max(1, int(scoring_chunk))
        # State shared across get_next calls (Algorithm 7's cnts / N').
        key_length = dataset.n_items if kind == "full" else self.k
        self._tally = kernel.RankingTally(dataset.n_items, key_length)
        self.returned: list[StabilityResult] = []
        self._prune_topk = prune_topk if kind != "full" else False
        self._skyband = skyband
        self._candidates: np.ndarray | None = None
        self._candidate_values: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Sampling & counting
    # ------------------------------------------------------------------
    @property
    def total_samples(self) -> int:
        """Size of the cumulative sample pool (Algorithm 7's ``N'``)."""
        return self._tally.total

    @property
    def counts(self) -> Counter:
        """The count table with the paper's key convention.

        Keys are identifier tuples for ``"full"``/``"topk_ranked"`` and
        frozensets for ``"topk_set"``.  Built on demand from the
        byte-packed internal tally; mutate-and-expect-persistence is not
        supported.
        """
        tally = self._tally
        if self.kind == "topk_set":
            return Counter(
                {frozenset(tally.unpack(key)): c for key, c in tally.counts.items()}
            )
        return Counter({tally.unpack(key): c for key, c in tally.counts.items()})

    @property
    def tally(self) -> kernel.RankingTally:
        """The cumulative count table (read for merging/inspection only)."""
        return self._tally

    def prepare_observe(self, n_new: int) -> None:
        """Install the strict k-skyband candidate set when it pays off.

        Public so external observe drivers (the shard-parallel observer
        of :mod:`repro.service.parallel`) can reproduce the serial
        path's state transitions — index construction and the chunk
        re-tune — before planning their own chunk decomposition.
        """
        if self._prune_topk is False or self._candidates is not None:
            return
        if self.kind == "full":
            return
        n = self.dataset.n_items
        if self._prune_topk is None and (
            n < _PRUNE_MIN_ITEMS
            or self.total_samples + n_new < _PRUNE_AFTER_SAMPLES
            or self.k > n // 8
        ):
            return
        if self._skyband is None:
            from repro.operators.skyline import KSkybandIndex

            self._skyband = KSkybandIndex(self.dataset.values)
        candidates = self._skyband.band(self.k)
        if candidates.size >= n:
            self._prune_topk = False  # nothing to prune; stop re-checking
            return
        self._candidates = candidates
        self._candidate_values = np.ascontiguousarray(
            self.dataset.values[candidates]
        )
        if self._auto_chunk:
            self.scoring_chunk = kernel.auto_chunk_size(candidates.size)

    def plan_chunks(self, n_new: int) -> list[int]:
        """The chunk decomposition of an ``n_new``-sample observe pass.

        Deterministic given the operator's (already prepared) scoring
        chunk; serial and parallel observe share this plan so their
        tallies agree exactly.
        """
        sizes: list[int] = []
        remaining = max(int(n_new), 0)
        while remaining > 0:
            batch = min(self.scoring_chunk, remaining)
            sizes.append(batch)
            remaining -= batch
        return sizes

    def sample_weights(self, batch: int) -> np.ndarray:
        """The next ``batch`` sampled weight rows of this operator's stream.

        The single sampling entry point shared by the serial observe
        loop and the thread observer — ``"mc"`` consumes the
        rng, ``"qmc"`` advances the low-discrepancy stream.  Callers
        must draw in plan order (one chunk at a time) so every observe
        path consumes the identical stream.
        """
        if self._qmc is not None:
            return self._qmc.sample(batch)
        return self.region.sample(batch, self.rng)

    def reduce_for_weights(self, weights: np.ndarray, *, out: np.ndarray | None = None):
        """One chunk's pure reduction (:meth:`KernelBackend.reduce_chunk
        <repro.engine.kernels.KernelBackend.reduce_chunk>`).

        Returns ``(uniques, freqs, n_rows)`` for
        :meth:`~repro.engine.kernel.RankingTally.observe_packed`.  No
        operator state is mutated, so the thread observer submits chunks
        concurrently; candidate-space top-k rows are mapped back to
        dataset identifiers.  ``out`` optionally reuses a preallocated
        score buffer (serial path only — concurrent chunks must not
        share one).
        """
        if self._candidate_values is not None:
            values, candidates = self._candidate_values, self._candidates
        else:
            values, candidates = self.dataset.values, None
        return self.kernel_backend.reduce_chunk(
            values,
            weights,
            kind=self.kind,
            k=self.k,
            key_dtype=self._tally.dtype,
            candidates=candidates,
            out=out,
        )

    def observe(self, n_new: int) -> None:
        """Draw ``n_new`` functions and tally the induced (partial) rankings."""
        if n_new <= 0:
            return
        self.prepare_observe(n_new)
        plan = self.plan_chunks(n_new)
        if not plan:
            return
        n_effective = (
            self._candidate_values.shape[0]
            if self._candidate_values is not None
            else self.dataset.n_items
        )
        # One score buffer for the whole pass: every chunk's GEMM writes
        # into the same (chunk, n) block instead of allocating afresh.
        buf = np.empty((max(plan), n_effective), dtype=np.float64)
        if not obs_trace.tracing_enabled():
            for batch in plan:
                weights = self.sample_weights(batch)
                keys, freqs, n_rows = self.reduce_for_weights(weights, out=buf)
                self._tally.observe_packed(keys, freqs, n_rows)
            return
        # Traced pass: accumulate per-stage time locally and record one
        # aggregate span per stage, instead of a span per chunk.
        sample_s = reduce_s = fold_s = 0.0
        clock = time.perf_counter
        for batch in plan:
            t0 = clock()
            weights = self.sample_weights(batch)
            t1 = clock()
            keys, freqs, n_rows = self.reduce_for_weights(weights, out=buf)
            t2 = clock()
            self._tally.observe_packed(keys, freqs, n_rows)
            fold_s += clock() - t2
            sample_s += t1 - t0
            reduce_s += t2 - t1
        chunks = len(plan)
        obs_trace.record("observe.sample", sample_s, count=chunks, n=n_new)
        obs_trace.record("observe.reduce", reduce_s, count=chunks,
                         kernel=self.kernel_backend.name)
        obs_trace.record("observe.fold", fold_s, count=chunks)

    def _result_for(self, key: bytes) -> StabilityResult:
        count = self._tally.count_of(key)
        stability = count / self.total_samples
        error = confidence_error(
            stability, self.total_samples, confidence=self.confidence
        )
        ids = self._tally.unpack(key)
        if self.kind == "topk_set":
            ranking = Ranking(sorted(ids), n_items=self.dataset.n_items)
            return StabilityResult(
                ranking=ranking,
                stability=stability,
                confidence_error=error,
                sample_count=count,
                top_k_set=frozenset(ids),
            )
        ranking = Ranking(ids, n_items=self.dataset.n_items)
        return StabilityResult(
            ranking=ranking,
            stability=stability,
            confidence_error=error,
            sample_count=count,
        )

    # ------------------------------------------------------------------
    # The operator
    # ------------------------------------------------------------------
    def get_next(
        self,
        *,
        budget: int | None = None,
        error: float | None = None,
        max_samples: int = 10_000_000,
    ) -> StabilityResult:
        """Return the next stable (partial) ranking.

        Exactly one of ``budget`` and ``error`` must be given:

        - ``budget=N`` — Algorithm 7: draw ``N`` new samples, then report
          the most frequent unreturned ranking across *all* samples so
          far.  Raises :class:`ExhaustedError` if none is new.
        - ``error=e`` — Algorithm 8: keep drawing until the leading
          unreturned ranking's confidence half-width is at most ``e``.
          ``max_samples`` caps the total pool as a safety valve
          (:class:`BudgetExceededError`).
        """
        if (budget is None) == (error is None):
            raise ValueError("provide exactly one of budget= or error=")
        if budget is not None:
            if budget < 1:
                raise ValueError(f"budget must be >= 1, got {budget}")
            self.observe(budget)
            try:
                return self.next_from_pool()
            except ExhaustedError:
                raise ExhaustedError(
                    "no new ranking observed; call again with a larger budget"
                ) from None
        # Fixed-confidence mode (Algorithm 8).
        if error <= 0.0:
            raise ValueError(f"error must be positive, got {error}")
        step = 256
        while True:
            key = self._tally.best_unreturned()
            if key is not None:
                stability = self._tally.count_of(key) / self.total_samples
                half_width = confidence_error(
                    stability, self.total_samples, confidence=self.confidence
                )
                if half_width <= error:
                    result = self._result_for(key)
                    self._tally.mark_returned(key)
                    self.returned.append(result)
                    return result
            if self.total_samples >= max_samples:
                raise BudgetExceededError(
                    f"confidence error {error} not reached within "
                    f"{max_samples} samples"
                )
            self.observe(min(step, max_samples - self.total_samples))
            step = min(step * 2, 8192)

    def next_from_pool(self) -> StabilityResult:
        """The best not-yet-returned ranking of the *current* pool.

        Draws no new samples — the service layer's batch planner fills
        the pool once (possibly shard-parallel) and then drains answers
        through here.  Raises :class:`ExhaustedError` when every
        observed ranking has been returned.
        """
        key = self._tally.best_unreturned()
        if key is None:
            raise ExhaustedError(
                "every observed ranking has been returned; "
                "observe more samples to discover new ones"
            )
        result = self._result_for(key)
        self._tally.mark_returned(key)
        self.returned.append(result)
        return result

    def top_from_pool(self, m: int) -> list[StabilityResult]:
        """The ``m`` most frequent rankings of the current pool, best first.

        Non-consuming (returned-marks are neither consulted nor set)
        and idempotent given the pool, which makes it safe to cache:
        repeated top-``m`` queries over one session answer from the
        cumulative tally instead of re-running the GET-NEXT protocol.
        Returns fewer than ``m`` results when the pool has not observed
        that many distinct rankings.
        """
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if self.total_samples == 0:
            return []
        return [self._result_for(key) for key in self._tally.top_keys(m)]

    def stability_of(self, ranking, *, min_samples: int = 5_000) -> StabilityResult:
        """Estimate the stability of a specific (partial) ranking.

        Counts the fraction of the cumulative pool inducing ``ranking``,
        topping the pool up to ``min_samples`` first so a fresh operator
        can answer immediately.  Accepts a :class:`Ranking`, an id
        sequence, or (for ``kind="topk_set"``) any iterable of ids.

        On a ``kind="full"`` operator a ranking *shorter* than the
        dataset takes the **prefix fast path**: the estimate is the
        pool fraction whose induced ranking *begins* with ``ranking``
        (:meth:`~repro.engine.kernel.RankingTally.prefix_count`).
        Because a sampled function's ranked top-``len(ranking)`` prefix
        is by construction the prefix of its full ranking, this is the
        same quantity a dedicated ``topk_ranked`` operator estimates —
        answered from the pool already drawn instead of sampling a
        fresh configuration, which is what makes full-ranking pools
        useful at large ``n`` where any exact full ranking is
        vanishingly rare.
        """
        if self.total_samples < min_samples:
            self.observe(min_samples - self.total_samples)
        if self.total_samples == 0:
            # Reachable via min_samples<=0 on a fresh operator; reject
            # as a bad request instead of dividing by the empty pool.
            raise ValueError(
                "the sample pool is empty; pass min_samples >= 1 "
                "(or observe first)"
            )
        ids = list(ranking)
        if self.kind == "topk_set":
            ids = sorted(ids)
        if len(ids) != self._tally.key_length:
            if self.kind == "full" and 0 < len(ids) < self._tally.key_length:
                n_items = self.dataset.n_items
                bad = [i for i in ids if not 0 <= int(i) < n_items]
                if bad:
                    # Validate before byte-packing: numpy >= 2 raises
                    # OverflowError on out-of-dtype ids, which serving
                    # surfaces would misreport as a server bug.
                    raise ValueError(
                        f"prefix ids must be in [0, {n_items}), got {bad}"
                    )
                count = self._tally.prefix_count(ids)
                stability = count / self.total_samples
                return StabilityResult(
                    ranking=Ranking(ids, n_items=self.dataset.n_items),
                    stability=stability,
                    confidence_error=confidence_error(
                        stability,
                        self.total_samples,
                        confidence=self.confidence,
                    ),
                    sample_count=count,
                )
            raise ValueError(
                f"expected a ranking of {self._tally.key_length} items, "
                f"got {len(ids)}"
            )
        key = self._tally.pack(ids)
        count = self._tally.count_of(key)
        stability = count / self.total_samples
        return StabilityResult(
            ranking=Ranking(ids, n_items=self.dataset.n_items),
            stability=stability,
            confidence_error=confidence_error(
                stability, self.total_samples, confidence=self.confidence
            ),
            sample_count=count,
            top_k_set=frozenset(ids) if self.kind == "topk_set" else None,
        )

    # ------------------------------------------------------------------
    # Durable state (snapshot/restore)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Everything needed to resume this operator elsewhere.

        Covers the cumulative tally (counts, first-seen order, totals),
        the GET-NEXT return protocol (which rankings were consumed, in
        order, with the exact result values reported at the time), the
        generator's mid-stream state, and the pruning/chunking knobs
        that pin the observe-pass decomposition.  Restoring this state
        into an operator over the same dataset makes every future
        ``observe``/``get_next``/``top_from_pool`` answer byte-identical
        to the uninterrupted operator's.
        """
        tally_state = self._tally.export_state()
        # The exported key blob is in the count table's (first-seen)
        # order, so a key's index there is its position in the blob.
        position = {key: i for i, key in enumerate(self._tally.counts)}
        returned = []
        for result in self.returned:
            key = self._tally.pack(result.ranking.order)
            returned.append(
                {
                    "key": position[key],
                    "stability": result.stability,
                    "confidence_error": result.confidence_error,
                    "sample_count": result.sample_count,
                }
            )
        return {
            "kind": self.kind,
            "k": self.k,
            "region": repr(self.region),
            "rng_state": self.rng.bit_generator.state,
            "scoring_chunk": self.scoring_chunk,
            "auto_chunk": self._auto_chunk,
            "prune_topk": self._prune_topk,
            "candidates_installed": self._candidates is not None,
            "returned": returned,
            "tally": tally_state,
            # The kernel backend is deliberately absent: it is a pure
            # speed dial (byte-identical tallies), chosen per host.
            "sampling": self.sampling,
            "qmc": self._qmc.export_state() if self._qmc is not None else None,
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a state exported by :meth:`export_state`.

        The operator must have been constructed over the same dataset
        with the same ``kind``/``k``; everything else (tally, rng
        stream, returned cursor, chunking) is overwritten.  Raises
        :class:`ValueError` on any inconsistency rather than resuming
        from half-adopted state.
        """
        if state["kind"] != self.kind or state["k"] != self.k:
            raise ValueError(
                f"state is for kind={state['kind']!r}, k={state['k']}; "
                f"this operator serves kind={self.kind!r}, k={self.k}"
            )
        # The library keeps region reprs canonical, so repr equality is
        # region equality.  Adopting a pool sampled over a different
        # region would silently blend two distributions in one tally.
        if state["region"] != repr(self.region):
            raise ValueError(
                f"state was sampled over region {state['region']}, but "
                f"this operator samples {self.region!r}"
            )
        tally = kernel.RankingTally.from_state(
            self.dataset.n_items, **state["tally"]
        )
        if tally.key_length != self._tally.key_length:
            raise ValueError(
                f"tally key length {tally.key_length} does not match "
                f"operator key length {self._tally.key_length}"
            )
        # from_state inserted the keys in first-seen order, so the dict
        # order already is the blob order the "key" indices refer to.
        ordered = list(tally.counts)
        returned: list[StabilityResult] = []
        for entry in state["returned"]:
            key = ordered[entry["key"]]
            ids = tally.unpack(key)
            result = StabilityResult(
                ranking=Ranking(ids, n_items=self.dataset.n_items),
                stability=float(entry["stability"]),
                confidence_error=float(entry["confidence_error"]),
                sample_count=int(entry["sample_count"]),
                top_k_set=frozenset(ids) if self.kind == "topk_set" else None,
            )
            tally.mark_returned(key)
            returned.append(result)
        rng_state = state["rng_state"]
        bg_name = rng_state["bit_generator"]
        # The name comes from serialized state; resolve it against the
        # closed set of BitGenerators only — a generic getattr would
        # happily call arbitrary np.random functions (np.random.seed,
        # ...) with side effects before the .state assignment failed.
        known = {"PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}
        if bg_name not in known or not hasattr(np.random, bg_name):
            raise ValueError(
                f"unknown bit generator {bg_name!r} in rng state "
                f"(known: {sorted(known)})"
            )
        bit_generator = getattr(np.random, bg_name)()
        bit_generator.state = rng_state
        # Read every remaining key up front: a missing one must raise
        # *before* the first assignment, never between two of them.
        prune_topk = state["prune_topk"]
        candidates_installed = state["candidates_installed"]
        auto_chunk = state["auto_chunk"]
        scoring_chunk = int(state["scoring_chunk"])
        # Sampling-mode keys post-date the first snapshot format; absent
        # keys mean a plain-MC pool (.get defaults keep old snapshots
        # restoring byte-identically).
        sampling = state.get("sampling", "mc")
        if sampling not in ("mc", "qmc"):
            raise ValueError(f"unknown sampling mode {sampling!r} in state")
        qmc_state = state.get("qmc")
        qmc = None
        if sampling == "qmc":
            if qmc_state is None:
                raise ValueError("sampling='qmc' state is missing its stream")
            from repro.sampling.quasi import QuasiStream

            qmc = QuasiStream.restore(self.region, qmc_state)
        # All validation passed — adopt atomically.
        self._tally = tally
        self.returned = returned
        self.rng = np.random.Generator(bit_generator)
        self._prune_topk = prune_topk
        self._candidates = None
        self._candidate_values = None
        if candidates_installed and self.kind != "full":
            if self._skyband is None:
                from repro.operators.skyline import KSkybandIndex

                self._skyband = KSkybandIndex(self.dataset.values)
            candidates = self._skyband.band(self.k)
            if candidates.size < self.dataset.n_items:
                self._candidates = candidates
                self._candidate_values = np.ascontiguousarray(
                    self.dataset.values[candidates]
                )
        self._auto_chunk = auto_chunk
        self.scoring_chunk = scoring_chunk
        self.sampling = sampling
        self._qmc = qmc

    def top_h(self, h: int, *, budget_first: int, budget_rest: int) -> list[StabilityResult]:
        """Convenience: the h most stable rankings under a budget schedule.

        Mirrors the paper's experimental protocol ("5,000 samples for the
        first GET-NEXT-R call and 1,000 for subsequent calls").  Stops
        early if the operator is exhausted.
        """
        results: list[StabilityResult] = []
        for i in range(h):
            try:
                results.append(
                    self.get_next(budget=budget_first if i == 0 else budget_rest)
                )
            except ExhaustedError:
                break
        return results
