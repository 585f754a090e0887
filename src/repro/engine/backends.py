"""Stability backends: one protocol, four registered implementations.

The paper's GET-NEXT families — the exact 2D sweep (section 3), the
exact 2D *top-k* sweep (the section 4.5.1 extension), the lazy
arrangement traversal (section 4.2), and the Monte-Carlo
randomized operator (sections 4.3-4.5) — share a call surface here so
the :class:`~repro.engine.engine.StabilityEngine` facade (and any other
consumer) can treat them interchangeably:

- every backend is constructed as ``Backend(dataset, region=..., rng=...,
  confidence=..., **options)``;
- :meth:`~StabilityBackend.get_next` accepts (and, for the exact
  backends, ignores) the randomized stopping parameters ``budget`` and
  ``error`` so drivers never need per-backend branches;
- :meth:`~StabilityBackend.stability_of` answers Problem 1 for an
  explicit ranking with whatever machinery the backend already has
  (exact interval, shared oracle pool, or cumulative sample counts).

New backends register with :func:`register_backend`; dispatch rules
live in :func:`resolve_backend`.
"""

from __future__ import annotations

from typing import Iterator, Protocol, runtime_checkable

import numpy as np

from repro.core.dataset import Dataset
from repro.core.md import GetNextMD, verify_stability_md
from repro.core.randomized import GetNextRandomized, RankingKind
from repro.core.ranking import Ranking
from repro.core.region import FullSpace, RegionOfInterest
from repro.core.stability import StabilityResult
from repro.core.twod import GetNext2D, verify_stability_2d
from repro.core.twod_topk import enumerate_topk_2d, verify_topk_2d
from repro.errors import ExhaustedError
from repro.sampling.oracle import StabilityOracle

__all__ = [
    "StabilityBackend",
    "register_backend",
    "get_backend_cls",
    "create_backend",
    "available_backends",
    "resolve_backend",
    "DEFAULT_BUDGET",
    "MD_ITEM_LIMIT",
]

#: Per-call sample budget used when a randomized backend's ``get_next``
#: is invoked without an explicit ``budget`` or ``error`` (the paper's
#: first-call protocol uses 5,000).
DEFAULT_BUDGET = 5_000

#: Above this many items the lazy arrangement's shared pool and split
#: bookkeeping stop paying off and auto-dispatch prefers sampling (the
#: section 6.3 guidance).
MD_ITEM_LIMIT = 1_000


@runtime_checkable
class StabilityBackend(Protocol):
    """What every registered backend provides."""

    name: str
    dataset: Dataset
    region: RegionOfInterest
    #: Ranking kinds the backend can answer ("full", "topk_ranked",
    #: "topk_set"); defaulted to ("full",) by :func:`register_backend`.
    supports_kinds: tuple[str, ...]

    def get_next(
        self, *, budget: int | None = None, error: float | None = None
    ) -> StabilityResult:
        """The next most stable not-yet-returned ranking."""
        ...

    def stability_of(self, ranking) -> StabilityResult:
        """Stability of one explicit ranking (Problem 1)."""
        ...

    def __iter__(self) -> Iterator[StabilityResult]: ...


_REGISTRY: dict[str, type] = {}


def register_backend(name: str):
    """Class decorator adding a backend to the dispatch registry."""

    def decorate(cls: type) -> type:
        cls.name = name
        if not hasattr(cls, "supports_kinds"):
            cls.supports_kinds = ("full",)
        _REGISTRY[name] = cls
        return cls

    return decorate


def available_backends() -> tuple[str, ...]:
    """Registered backend names, registration order."""
    return tuple(_REGISTRY)


def get_backend_cls(name: str) -> type:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(_REGISTRY)}"
        ) from None


def create_backend(name: str, dataset: Dataset, **options) -> StabilityBackend:
    """Instantiate a registered backend by name."""
    return get_backend_cls(name)(dataset, **options)


def resolve_backend(
    dataset: Dataset,
    *,
    kind: RankingKind = "full",
    budget: int | None = None,
    md_item_limit: int = MD_ITEM_LIMIT,
) -> str:
    """Auto-dispatch on ``(d, n, kind, budget)``.

    - partial (top-k) rankings are exact in 2D (the annotated kinetic
      sweep of :mod:`repro.core.twod_topk`); beyond 2D only the
      randomized operator supports them;
    - ``d = 2`` is exact and cheap — always a sweep;
    - an explicit sampling ``budget`` signals a Monte-Carlo workflow;
    - otherwise the arrangement up to ``md_item_limit`` items, sampling
      beyond it.
    """
    if kind != "full":
        return "twod_topk" if dataset.n_attributes == 2 else "randomized"
    if dataset.n_attributes == 2:
        return "twod_exact"
    if budget is not None:
        return "randomized"
    if dataset.n_items <= md_item_limit:
        return "md_arrangement"
    return "randomized"


def _as_ranking(ranking, n_items: int) -> Ranking:
    if isinstance(ranking, Ranking):
        return ranking
    return Ranking(ranking, n_items=n_items)


class _IterMixin:
    def __iter__(self) -> Iterator[StabilityResult]:
        while True:
            try:
                yield self.get_next()
            except ExhaustedError:
                return

    @property
    def raw(self):
        """The wrapped algorithm object (``GetNext2D`` / ``GetNextMD`` /
        ``GetNextRandomized``), for algorithm-specific introspection."""
        return self._engine


@register_backend("twod_exact")
class TwoDExactBackend(_IterMixin):
    """Exact angle-sweep backend (Algorithms 1-3); requires ``d = 2``."""

    def __init__(
        self,
        dataset: Dataset,
        *,
        region: RegionOfInterest | None = None,
        rng: np.random.Generator | None = None,
        confidence: float = 0.95,
        method: str = "auto",
    ):
        # rng/confidence accepted for signature uniformity; the sweep is
        # deterministic and exact.
        self.dataset = dataset
        self.region = region if region is not None else FullSpace(2)
        self._engine = GetNext2D(dataset, region=self.region, method=method)

    def get_next(
        self, *, budget: int | None = None, error: float | None = None
    ) -> StabilityResult:
        return self._engine.get_next()

    def stability_of(self, ranking) -> StabilityResult:
        return verify_stability_2d(
            self.dataset,
            _as_ranking(ranking, self.dataset.n_items),
            region=self.region,
        )


@register_backend("md_arrangement")
class MDArrangementBackend(_IterMixin):
    """Lazy hyperplane-arrangement backend (Algorithm 6) for ``d >= 2``."""

    def __init__(
        self,
        dataset: Dataset,
        *,
        region: RegionOfInterest | None = None,
        rng: np.random.Generator | None = None,
        confidence: float = 0.95,
        n_samples: int = 100_000,
        min_split_samples: int = 1,
    ):
        self.dataset = dataset
        self.region = (
            region if region is not None else FullSpace(dataset.n_attributes)
        )
        self.confidence = confidence
        self._rng = rng if rng is not None else np.random.default_rng()
        self._n_samples = n_samples
        self._min_split_samples = min_split_samples
        # The arrangement (hyperplane detection + shared pool) is built
        # lazily: verification-only workloads never pay for it.
        self._engine: GetNextMD | None = None
        self._oracle: StabilityOracle | None = None

    def _ensure_engine(self) -> GetNextMD:
        if self._engine is None:
            self._engine = GetNextMD(
                self.dataset,
                region=self.region,
                n_samples=self._n_samples,
                rng=self._rng,
                confidence=self.confidence,
                min_split_samples=self._min_split_samples,
            )
        return self._engine

    @property
    def raw(self) -> GetNextMD:
        return self._ensure_engine()

    def get_next(
        self, *, budget: int | None = None, error: float | None = None
    ) -> StabilityResult:
        return self._ensure_engine().get_next()

    def stability_of(self, ranking) -> StabilityResult:
        if self._oracle is None:
            if self._engine is not None:
                # Reuse the arrangement's shared pool so verification is
                # consistent with enumeration estimates (section 5.4).
                pool = self._engine.arrangement.samples
            else:
                pool = self.region.sample(self._n_samples, self._rng)
            self._oracle = StabilityOracle(pool)
        return verify_stability_md(
            self.dataset,
            _as_ranking(ranking, self.dataset.n_items),
            region=self.region,
            oracle=self._oracle,
            confidence=self.confidence,
        )


@register_backend("twod_topk")
class TwoDTopkBackend(_IterMixin):
    """Exact top-k backend for ``d = 2`` (the annotated kinetic sweep).

    Wraps :mod:`repro.core.twod_topk`: the first ``get_next`` runs one
    sweep enumerating every feasible top-k outcome with its exact
    stability, then results stream best-first from the cached list.
    The randomized stopping parameters (``budget`` / ``error``) are
    accepted and ignored, like the other exact backends.
    """

    supports_kinds = ("topk_ranked", "topk_set")

    def __init__(
        self,
        dataset: Dataset,
        *,
        region: RegionOfInterest | None = None,
        rng: np.random.Generator | None = None,
        confidence: float = 0.95,
        kind: RankingKind = "topk_set",
        k: int | None = None,
    ):
        # rng/confidence accepted for signature uniformity; the sweep is
        # deterministic and exact.
        if dataset.n_attributes != 2:
            raise ValueError(
                f"twod_topk requires d = 2, got d = {dataset.n_attributes}"
            )
        if kind not in self.supports_kinds:
            raise ValueError(
                f"twod_topk serves top-k kinds {self.supports_kinds}, "
                f"got kind={kind!r}"
            )
        if k is None or not 1 <= k <= dataset.n_items:
            raise ValueError(
                f"top-k kinds require 1 <= k <= {dataset.n_items}, got {k}"
            )
        self.dataset = dataset
        self.region = region if region is not None else FullSpace(2)
        self.kind: RankingKind = kind
        self.k = int(k)
        self._results: list[StabilityResult] | None = None
        self._pos = 0

    @property
    def _sweep_kind(self) -> str:
        return "set" if self.kind == "topk_set" else "ranked"

    def _ensure_results(self) -> list[StabilityResult]:
        if self._results is None:
            self._results = enumerate_topk_2d(
                self.dataset, self.k, region=self.region, kind=self._sweep_kind
            )
        return self._results

    @property
    def raw(self):
        """The backend itself — the sweep has no separate engine object."""
        return self

    def get_next(
        self, *, budget: int | None = None, error: float | None = None
    ) -> StabilityResult:
        results = self._ensure_results()
        if self._pos >= len(results):
            raise ExhaustedError(
                "every feasible top-k outcome has been returned"
            )
        result = results[self._pos]
        self._pos += 1
        return result

    def stability_of(self, ranking) -> StabilityResult:
        return verify_topk_2d(
            self.dataset, ranking, region=self.region, kind=self._sweep_kind
        )


@register_backend("randomized")
class RandomizedBackend(_IterMixin):
    """Monte-Carlo backend (Algorithms 7-8); the only one supporting
    partial (top-k) rankings beyond two dimensions, running on the
    vectorized kernel."""

    supports_kinds = ("full", "topk_ranked", "topk_set")

    def __init__(
        self,
        dataset: Dataset,
        *,
        region: RegionOfInterest | None = None,
        rng: np.random.Generator | None = None,
        confidence: float = 0.95,
        kind: RankingKind = "full",
        k: int | None = None,
        scoring_chunk: int | None = None,
        prune_topk: bool | None = None,
        skyband=None,
        sampling: str = "mc",
    ):
        self.dataset = dataset
        self.region = (
            region if region is not None else FullSpace(dataset.n_attributes)
        )
        self._engine = GetNextRandomized(
            dataset,
            region=self.region,
            kind=kind,
            k=k,
            rng=rng,
            confidence=confidence,
            scoring_chunk=scoring_chunk,
            prune_topk=prune_topk,
            skyband=skyband,
            sampling=sampling,
        )

    @property
    def total_samples(self) -> int:
        return self._engine.total_samples

    def observe(self, n_new: int) -> None:
        """Grow the cumulative sample pool without returning a result."""
        self._engine.observe(n_new)

    def next_from_pool(self) -> StabilityResult:
        """Consume the best unreturned ranking of the current pool."""
        return self._engine.next_from_pool()

    def export_state(self) -> dict:
        """Serializable pool state (tally, rng, return cursor, chunking).

        The snapshot subsystem (:mod:`repro.service.persist`) calls this
        where the pool handle lives; see
        :meth:`~repro.core.randomized.GetNextRandomized.export_state`.
        """
        return self._engine.export_state()

    def restore_state(self, state: dict) -> None:
        """Adopt an exported pool state (same dataset, same kind/k)."""
        self._engine.restore_state(state)

    def top_from_pool(self, m: int) -> list[StabilityResult]:
        """The ``m`` most frequent pool rankings, best first (non-consuming)."""
        return self._engine.top_from_pool(m)

    def get_next(
        self, *, budget: int | None = None, error: float | None = None
    ) -> StabilityResult:
        if budget is None and error is None:
            budget = DEFAULT_BUDGET
        return self._engine.get_next(budget=budget, error=error)

    def stability_of(self, ranking, **options) -> StabilityResult:
        return self._engine.stability_of(ranking, **options)
