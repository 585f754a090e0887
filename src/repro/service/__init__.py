"""The stability service layer: sessions, caching, batching, sharding.

The engine answers one query at a time from scratch; this package
turns it into a serving tier:

- :mod:`repro.service.config` — :class:`SessionConfig`, the one frozen,
  validated object carrying every session dial (durable: seed,
  confidence, budget, sampling; runtime: executor, workers, cache
  size);
- :mod:`repro.service.session` — :class:`StabilitySession`, reusable
  per-dataset state (cumulative Monte-Carlo pools, the shared k-skyband
  index, cached exact enumerations) behind pool-based query semantics;
- :mod:`repro.service.cache` — :class:`ResultCache`, a keyed LRU over
  ``(dataset fingerprint, query kind, params, budget)`` with hit/miss
  stats and per-dataset invalidation;
- :mod:`repro.service.batch` — :class:`StabilityRequest` /
  :func:`execute_batch`, grouping heterogeneous requests by backend and
  amortizing one sampling pass across a whole batch;
- :mod:`repro.service.parallel` — :class:`ObserveExecutor`,
  shard-parallel observe over the kernel's scoring chunks (serial /
  thread pool behind one dial) with exact serial tally equivalence and
  a serial fallback below the auto threshold;
- :mod:`repro.service.persist` — versioned snapshot/restore for
  sessions (:meth:`StabilitySession.save` /
  :meth:`StabilitySession.restore`): byte-packed tallies, rng streams,
  cursors, and warm cache entries in one checksummed container, so a
  service restart keeps its pools.
"""

from repro.service.batch import (
    BatchOutcome,
    BatchPlanner,
    StabilityRequest,
    execute_batch,
)
from repro.service.cache import (
    MISS,
    CacheStats,
    ResultCache,
    dataset_fingerprint,
    make_key,
)
from repro.service.config import SessionConfig
from repro.service.parallel import (
    ObserveExecutor,
    default_workers,
)
from repro.service.persist import (
    SNAPSHOT_VERSION,
    SnapshotInfo,
    load_session,
    read_snapshot_header,
    save_session,
)
from repro.service.session import VERIFY_MIN_SAMPLES, StabilitySession

__all__ = [
    "SNAPSHOT_VERSION",
    "SnapshotInfo",
    "save_session",
    "load_session",
    "read_snapshot_header",
    "SessionConfig",
    "StabilitySession",
    "VERIFY_MIN_SAMPLES",
    "ResultCache",
    "CacheStats",
    "MISS",
    "dataset_fingerprint",
    "make_key",
    "StabilityRequest",
    "BatchOutcome",
    "BatchPlanner",
    "execute_batch",
    "ObserveExecutor",
    "default_workers",
]
