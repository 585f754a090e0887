"""Vectorized ranking kernel shared by every stability backend.

The Monte-Carlo operators of sections 4.3-4.5 spend their entire budget
in one inner loop: score the database under a batch of sampled
functions, reduce each score row to a ranking key, and tally the keys.
The seed implementation did that with per-sample Python work — a tuple
per sampled ranking, a ``Counter`` keyed by tuples/frozensets, and a
linear rescan of the whole count table to find the best unreturned key.
This module replaces all of it with batch-level numpy:

- :func:`auto_chunk_size` — pick the number of sampled functions scored
  per BLAS call so the transient score matrix stays cache/memory
  friendly regardless of ``n``;
- :func:`score_block` — the ``(batch, d) @ (d, n)`` product on one BLAS thread;
- :func:`full_ranking_rows` / :func:`topk_rows` — reduce a block of
  score rows to ranking keys in bulk (``argsort`` for complete
  rankings, ``argpartition`` + deterministic tie repair for top-k);
- :func:`pack_rows` / :func:`unpack_key` — compact byte-packed keys
  (one ``bytes`` object per ranking, minimal-width integer dtype)
  replacing Python tuples and frozensets as hash keys;
- :class:`RankingTally` — the count table of Algorithms 7-8 with a
  max-heap over (count, first-seen), rebuilt after each observe, so
  "best unreturned ranking" is a heap peek instead of a full-table scan.
"""

from __future__ import annotations

import contextlib
import ctypes
import heapq

import numpy as np

from repro.core.ranking import _top_k_order

__all__ = [
    "auto_chunk_size",
    "score_block",
    "full_ranking_rows",
    "topk_rows",
    "batch_topk_indices",
    "key_dtype_for",
    "pack_rows",
    "unpack_key",
    "RankingTally",
]

# Target transient footprint of one score block (bytes).  64 KiB rows at
# n = 10_000 give ~200-row batches: big enough to amortise the per-batch
# Python overhead, small enough to stay in L2/L3.
_TARGET_BLOCK_BYTES = 16 * 1024 * 1024
_MIN_CHUNK = 16
_MAX_CHUNK = 8192


def _pin_openblas() -> None:
    """Set each OpenBLAS in ``/proc/self/maps`` to one thread through its
    own ``openblas_set_num_threads`` (numpy's wheel prefixes and suffixes
    it: ``scipy_openblas_set_num_threads64_``).  See :func:`score_block`."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(None, 5)[5].strip() for line in maps
                     if "openblas" in line.lower()}
    except OSError:  # no /proc: not Linux
        return
    names = [f"{prefix}openblas_set_num_threads{suffix}"
             for prefix in ("", "scipy_") for suffix in ("", "64_", "_64")]
    for path in sorted(paths):
        with contextlib.suppress(OSError):  # mapped, but not loadable
            lib = ctypes.CDLL(path)
            for set_threads in [getattr(lib, n) for n in names if hasattr(lib, n)][:1]:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)


_pin_openblas()


def auto_chunk_size(
    n_items: int,
    *,
    target_bytes: int = _TARGET_BLOCK_BYTES,
    lo: int = _MIN_CHUNK,
    hi: int = _MAX_CHUNK,
) -> int:
    """Rows of sampled functions per scoring block, auto-tuned to ``n``.

    Bounds the transient ``(chunk, n)`` float64 score matrix (and the
    same-shaped argsort workspace) near ``target_bytes``, clamped to
    ``[lo, hi]``.  Deterministic: the result depends only on ``n`` and
    the explicit arguments, so two operators over the same dataset
    always agree on the chunk decomposition — the tally's first-seen
    tie-break order depends on it.  An operator's explicit
    ``scoring_chunk`` replaces the tuning.
    """
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    return int(np.clip(target_bytes // (8 * n_items), lo, hi))


def score_block(
    values: np.ndarray, weights: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Score every item under every sampled function: ``(batch, n)``.

    One BLAS GEMM — ``weights @ values.T`` — with both operands forced
    to contiguous float64 so the product never falls back to a strided
    loop.  ``out`` is an optional preallocated ``(>= batch, n)`` float64
    buffer; the leading ``batch`` rows are written in place and returned,
    so one observe pass can reuse a single buffer across all its chunks
    instead of allocating a fresh score matrix per BLAS call.

    Importing this module pins every loaded OpenBLAS (numpy's Linux
    wheels ship one; other BLAS libraries are left alone) to one thread:
    a second mostly spin-waits on these shapes, and how OpenBLAS splits
    a GEMM changes edge-tile scores' last bits, so tied data would tally
    differently per host.  It pins at import, before any scoring thread
    exists: resizing the pool mid-call is not documented as safe.
    """
    v = np.ascontiguousarray(values, dtype=np.float64)
    w = np.ascontiguousarray(np.atleast_2d(weights), dtype=np.float64)
    if out is not None:
        target = out[: w.shape[0]]
        np.matmul(w, v.T, out=target)
        return target
    return w @ v.T


def _descending_keys(scores: np.ndarray) -> tuple[np.ndarray, int]:
    """Fuse each score with its item id into one sortable ``uint64``.

    The IEEE-754 bit pattern of a non-negative float compares like an
    unsigned integer, so ``~bits`` sorts descending; a sign-flip
    transform extends this to negative scores.  The low
    ``ceil(log2 n)`` mantissa bits are truncated and replaced by the
    item identifier, so one *value* sort (``np.sort``, no index
    payload — much faster than ``argsort``) yields the ranking with
    the tie-break-by-identifier convention built in: exactly equal
    scores share the truncated prefix and order by id ascending.

    Truncation can collide two scores that differ only in the stolen
    mantissa bits (relative gap under ``2^-(52 - id_bits)``); callers
    must detect shared-prefix neighbours and repair against the exact
    float64 scores.

    Returns the ``(batch, n)`` key block and the number of id bits.
    """
    batch, n = scores.shape
    id_bits = max(1, int(n - 1).bit_length())
    if id_bits > 32:  # pragma: no cover - 4G items will not fit in RAM
        raise ValueError(f"dataset too large for fused ranking keys (n={n})")
    low_mask = np.uint64((1 << id_bits) - 1)
    s = np.ascontiguousarray(scores, dtype=np.float64)
    smin = s.min() if s.size else 0.0
    # One private allocation, then in-place bit twiddling: the caller's
    # score block is never written (collision repair re-reads it).
    if smin <= 0.0:
        keys = (s + 0.0).view(np.uint64)  # normalise -0.0 to +0.0
        if smin < 0.0:
            sign = np.uint64(0x8000000000000000)
            keys ^= ((keys >> np.uint64(63)) * np.uint64(0xFFFFFFFFFFFFFFFF)) | sign
        keys |= low_mask
    else:
        keys = s.view(np.uint64) | low_mask
    keys ^= ~np.arange(n, dtype=np.uint64)  # == (~bits & ~low_mask) | ids
    return keys, id_bits


def full_ranking_rows(scores: np.ndarray) -> np.ndarray:
    """Complete-ranking key rows for a block of score rows.

    Equivalent to ``np.argsort(-scores, axis=1, kind="stable")`` —
    descending score, ties broken by ascending item identifier (the
    paper's convention) — but implemented as one fused-key *value*
    sort (:func:`_descending_keys`).  Rows whose sorted keys contain a
    shared truncated prefix are verified against the exact scores and
    re-sorted only if the collision was real.
    """
    scores = np.atleast_2d(scores)
    keys, id_bits = _descending_keys(scores)
    keys.sort(axis=1)
    low_mask = np.uint64((1 << id_bits) - 1)
    rows = (keys & low_mask).astype(np.intp)
    if scores.shape[1] > 1:
        collided = (keys[:, 1:] ^ keys[:, :-1]) <= low_mask
        for i in np.flatnonzero(collided.any(axis=1)):
            ordered = scores[i, rows[i]]
            runs = np.flatnonzero(collided[i])
            # A shared prefix with *equal* scores is already in stable
            # order (ids ascend within the run); only genuinely
            # different scores need the exact re-sort.
            if np.any(ordered[runs] != ordered[runs + 1]):
                rows[i] = np.argsort(-scores[i], kind="stable")
    return rows


def topk_rows(scores: np.ndarray, k: int, *, ranked: bool) -> np.ndarray:
    """Top-k key rows for a block of score rows, in ``O(batch * n)``.

    A fused-key partial selection: an in-place value partition (no
    index payload) pulls each row's ``k + 1`` smallest descending
    keys, the ``k`` winners are ordered by one tiny sort, and ids drop
    out of the key low bits.  Exact score ties — within the top-k and
    at the selection boundary — break by ascending identifier directly
    in key order, matching
    :func:`~repro.core.ranking._top_k_order`; rows with a truncated-
    prefix collision among the ``k + 1`` head keys are repaired with
    that exact scalar routine.

    Returns ``(batch, k)`` identifier rows: rank order when ``ranked``,
    ascending-id canonical set form otherwise.
    """
    scores = np.atleast_2d(scores)
    n = scores.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    keys, id_bits = _descending_keys(scores)
    low_mask = np.uint64((1 << id_bits) - 1)
    if k + 1 >= n:
        keys.sort(axis=1)
        head = keys
    else:
        # kth=k pins the exact (k+1)-th smallest at position k with the
        # k winners (unordered) before it — one in-place introselect
        # pass over the private key block.
        keys.partition(k, axis=1)
        head = keys[:, : k + 1]
        head.sort(axis=1)
    rows = (head[:, :k] & low_mask).astype(np.intp)
    if ranked is False:
        out = np.sort(rows, axis=1)
    else:
        out = rows
    # Any shared truncated prefix among the k+1 head keys is repaired
    # with the exact scalar routine: unlike the full sort, the head is a
    # *window* — a prefix run can extend past it and hide an item whose
    # score differs only in the truncated bits (so equal head scores
    # certify nothing), and a run touching the boundary decides
    # membership.  Exact ties stay correct either way; genuinely tied
    # data just falls back to the seed-speed path for those rows.
    check = head[:, : min(k + 1, n)]
    collided = (check[:, 1:] ^ check[:, :-1]) <= low_mask
    for i in np.flatnonzero(collided.any(axis=1)):
        exact = _top_k_order(scores[i], k)
        out[i] = exact if ranked else sorted(exact)
    return out


def batch_topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Deterministic ranked top-k for one score row or a block of rows.

    The engine-level replacement for per-row ``_top_k_order`` loops:
    a single row returns shape ``(k,)``, a block returns ``(batch, k)``.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim == 1:
        return topk_rows(s[None, :], k, ranked=True)[0]
    return topk_rows(s, k, ranked=True)


def key_dtype_for(n_items: int) -> np.dtype:
    """Minimal unsigned dtype able to hold every item identifier."""
    if n_items <= np.iinfo(np.uint8).max + 1:
        return np.dtype(np.uint8)
    if n_items <= np.iinfo(np.uint16).max + 1:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


def pack_rows(rows: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """View identifier rows as one opaque fixed-width key per row.

    Casts to the minimal ``dtype`` and reinterprets each row as a
    single ``numpy.void`` scalar, so a block of rankings can be
    deduplicated with one :func:`numpy.unique` call and hashed as raw
    bytes — no per-sample tuple construction.
    """
    arr = np.ascontiguousarray(rows.astype(dtype, copy=False))
    void = np.dtype((np.void, arr.dtype.itemsize * arr.shape[1]))
    return arr.view(void).ravel()


def unpack_key(key: bytes, dtype: np.dtype) -> tuple[int, ...]:
    """Invert :func:`pack_rows` for a single byte-packed key."""
    return tuple(int(i) for i in np.frombuffer(key, dtype=dtype))


class RankingTally:
    """Count table + best-unreturned heap for the randomized operators.

    Keys are byte-packed rankings (:func:`pack_rows`), in first-seen
    order in the count table.  An observe only updates counts and drops
    the max-heap that serves "most frequent unreturned key"; the next
    query rebuilds it from the table.  Ties are broken by first-seen
    order (then by key bytes), matching the seed's insertion-order scan.

    Parameters
    ----------
    n_items:
        Dataset size; fixes the packed key dtype.
    key_length:
        Identifiers per key (``n`` for complete rankings, ``k`` for
        top-k keys).
    """

    __slots__ = ("dtype", "key_length", "counts", "total", "_heap",
                 "_returned")

    def __init__(self, n_items: int, key_length: int):
        self.dtype = key_dtype_for(n_items)
        self.key_length = int(key_length)
        self.counts: dict[bytes, int] = {}
        self.total = 0
        self._heap: list[tuple[int, int, bytes]] | None = None  # None: rebuild
        self._returned: set[bytes] = set()

    @property
    def nbytes(self) -> int:
        """Approximate resident bytes of this tally (telemetry only).

        Packed-key bytes across the count table, best-unreturned heap
        and returned set, plus CPython per-entry container overhead
        (dict slot + boxed int ~ 100 bytes).  The heap is counted as
        built, one entry per unreturned key, so a restored tally
        reports what the original did.  A gauge for the
        resource-telemetry layer, not an allocator-accurate number.
        """
        key_bytes = self.key_length * self.dtype.itemsize
        n_keys = len(self.counts)
        n_heap = n_keys - sum(key in self.counts for key in self._returned)
        return (
            n_keys * (key_bytes + 100)                # count table
            + n_heap * (key_bytes + 120)              # heap tuples
            + len(self._returned) * (key_bytes + 60)  # returned set
        )

    def observe_rows(self, rows: np.ndarray) -> None:
        """Tally a block of identifier rows (one ranking key per row)."""
        if rows.shape[0] == 0:
            return
        packed = pack_rows(rows, self.dtype)
        uniques, freqs = np.unique(packed, return_counts=True)
        self.observe_packed(uniques, freqs, int(rows.shape[0]))

    def observe_packed(self, keys, freqs, n_rows: int) -> None:
        """Merge a pre-reduced block of byte-packed keys into the tally.

        ``keys``/``freqs`` are the ``np.unique(..., return_counts=True)``
        reduction of one block of packed rows; ``n_rows`` is the block's
        row count.  ``keys`` may be the packed ``numpy.void`` array
        itself (the hot path: one C-level ``tolist()`` yields the
        ``bytes`` hash keys, no per-key Python loop materialises an
        intermediate list) or any iterable of ``bytes``.  This is the
        mergeable half of :meth:`observe_rows`: a worker can reduce its
        block off-thread and the owner folds the result in here.
        Folding blocks in their serial order
        reproduces the serial tally exactly — counts, totals, and
        first-seen tie-break order.
        """
        if isinstance(keys, np.ndarray):
            # void-dtype arrays list-ify straight to bytes objects.
            keys = keys.tolist()
        counts = self.counts
        get = counts.get
        for key, freq in zip(keys, np.asarray(freqs).tolist()):
            counts[key] = get(key, 0) + freq
        self.total += int(n_rows)
        self._heap = None

    def merge(self, other: "RankingTally") -> None:
        """Fold another tally's counts into this one.

        Keys are ingested in ``other``'s first-seen order, so merging
        shard tallies in shard order matches processing the shards'
        blocks sequentially *per shard*; returned-marks of ``other``
        are ignored (shards never return results themselves).
        """
        if other.key_length != self.key_length or other.dtype != self.dtype:
            raise ValueError("cannot merge tallies with different key layouts")
        self.observe_packed(
            list(other.counts), list(other.counts.values()), other.total
        )

    def export_state(self) -> dict:
        """The count table as flat, serialization-friendly buffers.

        Keys are emitted in first-seen order (the tie-break order is
        part of the observable state), concatenated into one ``bytes``
        blob of fixed-width packed keys; counts ride alongside as a
        little-endian ``uint64`` array.  Returned-marks are *not*
        included — they belong to the operator that owns the return
        protocol (see :meth:`GetNextRandomized.export_state`).
        """
        # Keys only ever enter ``counts`` at first observation (and are
        # never deleted), so dict insertion order *is* first-seen order
        # — no sort needed.
        ordered = list(self.counts)
        return {
            "key_length": self.key_length,
            "dtype": self.dtype.name,
            "n_keys": len(ordered),
            "total": self.total,
            "keys": b"".join(ordered),
            "counts": np.array(
                [self.counts[key] for key in ordered], dtype="<u8"
            ),
        }

    @classmethod
    def from_state(
        cls,
        n_items: int,
        *,
        key_length: int,
        dtype: str,
        n_keys: int,
        total: int,
        keys: bytes,
        counts: np.ndarray,
    ) -> "RankingTally":
        """Rebuild a tally from :meth:`export_state` buffers.

        Validates the layout hard — a snapshot whose buffers disagree
        with their declared shape (or whose counts do not sum to the
        total) must never produce a silently wrong count table.
        """
        tally = cls(n_items, key_length)
        if tally.dtype.name != dtype:
            raise ValueError(
                f"key dtype mismatch: n_items={n_items} implies "
                f"{tally.dtype.name}, state says {dtype}"
            )
        width = tally.key_length * tally.dtype.itemsize
        if len(keys) != n_keys * width:
            raise ValueError(
                f"key blob holds {len(keys)} bytes, expected "
                f"{n_keys} keys x {width} bytes"
            )
        freqs = np.asarray(counts, dtype=np.uint64)
        if freqs.shape != (n_keys,):
            raise ValueError(
                f"counts shape {freqs.shape} does not match n_keys={n_keys}"
            )
        if n_keys and int(freqs.min(initial=1)) < 1:
            raise ValueError("tally counts must be positive")
        if int(freqs.sum()) != int(total):
            raise ValueError(
                f"counts sum to {int(freqs.sum())}, total says {total}"
            )
        for i, count in enumerate(freqs.tolist()):
            tally.counts[keys[i * width : (i + 1) * width]] = count
        if len(tally.counts) != n_keys:
            raise ValueError("key blob contains duplicate keys")
        tally.total = int(total)
        return tally

    def top_keys(self, m: int) -> list[bytes]:
        """The ``m`` highest-count keys, best first — non-consuming.

        Ignores returned-marks; ties break by first-seen order then key
        bytes, exactly like :meth:`best_unreturned`.
        """
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        return [
            key
            for _, _, key in heapq.nsmallest(
                m,
                (
                    (-count, seq, key)
                    for seq, (key, count) in enumerate(self.counts.items())
                ),
            )
        ]

    def pack_prefix(self, ids) -> bytes:
        """Byte-pack a ranking *prefix* (``1 <= len(ids) <= key_length``).

        The packed bytes are exactly the leading bytes of any full key
        sharing the prefix, so prefix membership is one ``startswith``
        per key — no unpacking.
        """
        ids = list(ids)
        if not 1 <= len(ids) <= self.key_length:
            raise ValueError(
                f"prefix length must be in [1, {self.key_length}], "
                f"got {len(ids)}"
            )
        # Delegate to pack_rows so prefix bytes can never drift from
        # the packing that produced the stored keys.
        row = np.asarray(ids, dtype=self.dtype)[None, :]
        return pack_rows(row, self.dtype)[0].tobytes()

    def prefix_count(self, ids) -> int:
        """Total observations whose key starts with the identifiers ``ids``.

        For a full-ranking tally this is the number of sampled functions
        whose induced ranking *begins* with ``ids`` — i.e. the sample
        count of the ranked prefix — summed over every observed
        completion, so the prefix never needs to be re-sampled under a
        dedicated top-k configuration.  A full-length ``ids`` degrades
        to :meth:`count_of`.  Cost is one bytes-prefix comparison per
        distinct observed key.
        """
        prefix = self.pack_prefix(ids)
        if len(ids) == self.key_length:
            return self.counts.get(prefix, 0)
        return sum(
            count
            for key, count in self.counts.items()
            if key.startswith(prefix)
        )

    def best_unreturned(self) -> bytes | None:
        """The not-yet-returned key with the highest count, or ``None``."""
        returned = self._returned
        heap = self._heap
        if heap is None:
            heap = self._heap = [
                (-count, seq, key)
                for seq, (key, count) in enumerate(self.counts.items())
                if key not in returned
            ]
            heapq.heapify(heap)
        while heap and heap[0][2] in returned:
            heapq.heappop(heap)
        return heap[0][2] if heap else None

    def mark_returned(self, key: bytes) -> None:
        self._returned.add(key)

    def is_returned(self, key: bytes) -> bool:
        return key in self._returned

    def count_of(self, key: bytes) -> int:
        return self.counts.get(key, 0)

    def unpack(self, key: bytes) -> tuple[int, ...]:
        return unpack_key(key, self.dtype)

    def pack(self, ids) -> bytes:
        """Byte-pack one iterable of identifiers into this tally's key form."""
        row = np.asarray(list(ids), dtype=self.dtype)[None, :]
        return pack_rows(row, self.dtype)[0].tobytes()

    def __len__(self) -> int:
        return len(self.counts)
