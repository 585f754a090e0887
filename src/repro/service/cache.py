"""Keyed LRU result cache for the stability service layer.

Stability queries are expensive (a kinetic sweep, an arrangement
traversal, or thousands of Monte-Carlo samples) but their results are
small immutable records — ideal memoization targets.  The cache key is
the full identity of a query::

    (dataset fingerprint, region, query kind, params..., budget)

so two sessions over byte-identical data share hits, while any change
to the data, the region of interest, the query parameters, or the
sampling budget is a guaranteed miss.  Hit/miss/eviction statistics are
tracked for capacity planning, and :meth:`ResultCache.invalidate`
drops every entry of one dataset when it mutates.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MISS",
    "CacheStats",
    "ResultCache",
    "dataset_fingerprint",
    "make_key",
]

#: Sentinel distinguishing "no cached entry" from a cached ``None``.
MISS = object()


def dataset_fingerprint(dataset) -> str:
    """Content hash identifying a dataset's attribute matrix.

    Hashes the shape and the canonicalised float64 bytes of
    ``dataset.values`` (labels and attribute names are display-only —
    they cannot affect any stability result).  Accepts a
    :class:`~repro.core.dataset.Dataset` or a plain ``(n, d)`` array.

    The hash is *value*-based, not bit-pattern-based: ``-0.0`` is
    normalised to ``+0.0`` and every NaN payload to the single canonical
    quiet NaN, so two matrices that compare element-wise equal (with
    NaNs in the same cells) always fingerprint identically.  Without
    this, :meth:`StabilitySession.refresh` on a dataset whose buffer
    was mutated to a non-canonical NaN (e.g. the payload-carrying NaNs
    arithmetic can produce) would report a mutation on a value-equal
    matrix — or worse, depend on which NaN bits the producer happened
    to write.
    """
    values = np.ascontiguousarray(
        getattr(dataset, "values", dataset), dtype=np.float64
    )
    # Adding 0.0 copies into a writable buffer and maps -0.0 -> +0.0;
    # the explicit mask then rewrites every NaN (whatever its payload
    # or sign bit) with the one canonical quiet NaN.
    canonical = values + 0.0
    nan_mask = np.isnan(canonical)
    if nan_mask.any():
        canonical[nan_mask] = np.float64("nan")
    digest = hashlib.sha256()
    digest.update(repr(canonical.shape).encode())
    digest.update(canonical.tobytes())
    return digest.hexdigest()[:32]


def _freeze(value):
    """Normalise one key component into a hashable canonical form."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, frozenset):
        return ("frozenset", tuple(sorted(value)))
    if isinstance(value, (tuple, list)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, value.tobytes())
    if isinstance(value, np.generic):
        return value.item()
    # Regions, rankings, and other rich objects key by their repr, which
    # the library keeps canonical (rays, angles, constraint matrices).
    return repr(value)


def make_key(fingerprint: str, op: str, **params) -> tuple:
    """Build a canonical cache key for one query.

    ``params`` order is irrelevant (sorted), values are normalised via
    :func:`_freeze` so that e.g. a list and a tuple of the same item
    ids produce the same key.
    """
    return (
        fingerprint,
        op,
        tuple((name, _freeze(value)) for name, value in sorted(params.items())),
    )


@dataclass
class CacheStats:
    """Counters for one :class:`ResultCache` (monotonic, never reset
    except by :meth:`ResultCache.clear`)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when untouched)."""
        total = self.requests
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """A thread-safe LRU cache of stability results.

    Parameters
    ----------
    maxsize:
        Entry capacity; the least-recently-used entry is evicted when
        full.  ``maxsize <= 0`` disables storage (every lookup misses)
        while keeping the interface.
    """

    def __init__(self, maxsize: int = 512):
        self.maxsize = int(maxsize)
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def get(self, key: tuple):
        """The cached value for ``key``, or :data:`MISS`."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            self.stats.misses += 1
            return MISS

    def touch(self, key: tuple) -> bool:
        """Whether ``key`` is cached, marking it most recently used;
        counts nothing (a probe ahead of the :meth:`get` that counts)."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return True
            return False

    def put(self, key: tuple, value) -> None:
        """Insert (or refresh) one entry, evicting LRU entries if full."""
        if self.maxsize <= 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def approx_bytes(self) -> int:
        """Rough resident-byte estimate of the stored entries.

        Shallow ``sys.getsizeof`` per key and value plus a fixed
        per-slot overhead — cached stability records are small flat
        tuples, so a shallow walk is the right cost/accuracy trade for
        a telemetry gauge (this is *not* an accounting number).
        """
        import sys

        with self._lock:
            total = 0
            for key, value in self._entries.items():
                total += sys.getsizeof(key) + sys.getsizeof(value) + 144
            return total

    def entries_for(self, fingerprint: str) -> list[tuple[tuple, object]]:
        """Every ``(key, value)`` entry of one dataset, LRU-oldest first.

        The snapshot subsystem persists a session's warm entries with
        this; re-inserting them in the returned order reproduces the
        cache's eviction order.
        """
        with self._lock:
            return [
                (key, value)
                for key, value in self._entries.items()
                if key[0] == fingerprint
            ]

    def invalidate(self, fingerprint: str) -> int:
        """Drop every entry keyed to one dataset fingerprint.

        Called when a dataset mutates (or a session is torn down);
        returns the number of entries removed.
        """
        with self._lock:
            doomed = [k for k in self._entries if k[0] == fingerprint]
            for key in doomed:
                del self._entries[key]
            self.stats.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        """Empty the cache and reset statistics."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        return (
            f"ResultCache(size={len(self)}/{self.maxsize}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
