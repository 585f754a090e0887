"""repro — a reproduction of "On Obtaining Stable Rankings" (PVLDB 2018).

The library assesses and improves the *stability* of rankings produced by
linear scoring functions ``f_w(t) = sum_j w_j t[j]``: the fraction of the
space of acceptable weight vectors that induces a given ranking.

Quick tour
----------
>>> import numpy as np
>>> from repro import Dataset, ScoringFunction, verify_stability_2d
>>> data = Dataset(np.array([[0.63, 0.71], [0.83, 0.65], [0.58, 0.78],
...                          [0.70, 0.68], [0.53, 0.82]]))
>>> f = ScoringFunction.equal_weights(2)
>>> result = verify_stability_2d(data, f.rank(data))
>>> 0 < result.stability < 1
True

The documented entry point is the :class:`StabilityEngine` facade,
which dispatches on ``(d, n, kind, budget)`` over four registered
backends (verification, batch enumeration, iterative GET-NEXT):

>>> engine = StabilityEngine(data)
>>> engine.backend_name
'twod_exact'
>>> best = engine.get_next()
>>> 0 < best.stability <= 1
True

- ``twod_exact`` — the exact 2D sweep (:class:`repro.core.GetNext2D`);
- ``twod_topk`` — the exact 2D top-k sweep
  (:mod:`repro.core.twod_topk`) serving partial kinds at ``d = 2``;
- ``md_arrangement`` — lazy hyperplane-arrangement construction for
  d > 2 (:class:`repro.core.GetNextMD`);
- ``randomized`` — the Monte-Carlo operator, the only one supporting
  top-k partial rankings beyond 2D
  (:class:`repro.core.GetNextRandomized`), whose hot path runs on the
  vectorized :mod:`repro.engine.kernel`.

Serving workloads (repeated, incremental, or batched queries over one
dataset) go through the service layer (:mod:`repro.service`): a
:class:`StabilitySession` keeps cumulative sample pools, the shared
k-skyband index, and a keyed LRU result cache alive across calls, and
:func:`execute_batch` amortizes one sampling pass over a whole batch
of :class:`StabilityRequest`\\ s, shard-parallel when it pays.
"""

from repro import errors
from repro.core import (
    AngularRegion,
    BoundaryPair,
    RankProfile,
    Cone,
    ConstrainedRegion,
    Dataset,
    FullSpace,
    GetNext2D,
    GetNextMD,
    GetNextRandomized,
    Ranking,
    RegionOfInterest,
    ScoringFunction,
    StabilityResult,
    enumerate_stable_rankings,
    exchange_hyperplanes,
    make_get_next,
    rank_items,
    ranking_from_scores,
    ranking_region_md,
    boundary_pairs_2d,
    chebyshev_direction,
    facet_pairs_md,
    kendall_tau_within,
    rank_profile,
    ray_sweep,
    stable_pairs,
    sweep_boundaries,
    tight_constraints,
    tolerant_stability,
    top_h_stable_rankings,
    topk_membership_probability,
    verify_stability_2d,
    verify_stability_md,
    verify_topk_ranking_stability,
    verify_topk_set_stability,
)
from repro.core import (
    RankingLabel,
    TradeoffPoint,
    absolute_best_volumes,
    build_label,
    enumerate_topk_2d,
    most_stable_within,
    stability_similarity_tradeoff,
    sweep_topk_2d,
    verify_topk_2d,
)
from repro.engine import kernel
from repro.engine.backends import (
    StabilityBackend,
    available_backends,
    create_backend,
    register_backend,
    resolve_backend,
)
from repro.engine.engine import StabilityEngine
from repro.service import (
    ObserveExecutor,
    ResultCache,
    SessionConfig,
    StabilityRequest,
    StabilitySession,
    execute_batch,
)

__version__ = "1.1.0"

#: Server-tier names resolved lazily: ``repro.server`` pulls in asyncio
#: machinery no library-only consumer should pay for at import time.
_SERVER_EXPORTS = (
    "ServeClient",
    "ServerConfig",
    "SessionRegistry",
    "StabilityServer",
    "serve_in_thread",
)


def __getattr__(name: str):
    if name in _SERVER_EXPORTS:
        import repro.server as _server

        return getattr(_server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "errors",
    "ServeClient",
    "ServerConfig",
    "SessionRegistry",
    "StabilityServer",
    "serve_in_thread",
    "StabilityEngine",
    "SessionConfig",
    "StabilitySession",
    "StabilityRequest",
    "ResultCache",
    "execute_batch",
    "ObserveExecutor",
    "StabilityBackend",
    "available_backends",
    "create_backend",
    "register_backend",
    "resolve_backend",
    "kernel",
    "Dataset",
    "Ranking",
    "rank_items",
    "ranking_from_scores",
    "ScoringFunction",
    "RegionOfInterest",
    "FullSpace",
    "Cone",
    "ConstrainedRegion",
    "AngularRegion",
    "StabilityResult",
    "verify_stability_2d",
    "ray_sweep",
    "sweep_boundaries",
    "GetNext2D",
    "verify_stability_md",
    "ranking_region_md",
    "exchange_hyperplanes",
    "GetNextMD",
    "GetNextRandomized",
    "make_get_next",
    "enumerate_stable_rankings",
    "top_h_stable_rankings",
    "tolerant_stability",
    "kendall_tau_within",
    "BoundaryPair",
    "boundary_pairs_2d",
    "facet_pairs_md",
    "tight_constraints",
    "chebyshev_direction",
    "RankProfile",
    "rank_profile",
    "topk_membership_probability",
    "stable_pairs",
    "verify_topk_set_stability",
    "verify_topk_ranking_stability",
    "RankingLabel",
    "build_label",
    "TradeoffPoint",
    "most_stable_within",
    "stability_similarity_tradeoff",
    "absolute_best_volumes",
    "sweep_topk_2d",
    "enumerate_topk_2d",
    "verify_topk_2d",
    "__version__",
]
