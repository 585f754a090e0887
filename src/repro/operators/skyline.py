"""Skyline (Pareto-optimal set) computation.

The skyline of a dataset is the set of items not dominated by any other
item (Börzsönyi, Kossmann & Stocker, ICDE 2001 — reference [8] of the
paper).  Section 2.2.5 contrasts it with the most stable top-k set:
stable top-k items need not be skyline members, as the paper's toy
example ``{t1(1,0), t2(.99,.99), ..., t5(0,1)}`` shows.  The test-suite
reproduces that example against this implementation.

A block-nested-loops style algorithm with presorting is used: items are
ordered by descending attribute sum, which guarantees no later item can
dominate an earlier *skyline* member, so one pass with an incrementally
grown window suffices.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = [
    "skyline",
    "is_dominated",
    "dominance_count",
    "k_skyband",
    "KSkybandIndex",
]


def skyline(values: np.ndarray) -> np.ndarray:
    """Indices of the skyline (non-dominated) items, ascending.

    Parameters
    ----------
    values:
        ``(n, d)`` attribute matrix; larger is better on every attribute.

    Notes
    -----
    Exact duplicates of a skyline point are all kept: dominance requires
    strict superiority in at least one attribute, so equal items do not
    dominate each other (matching :func:`repro.geometry.dual.dominates`).
    """
    pts = np.asarray(values, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("values must be a 2-D array (n, d)")
    n = pts.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.intp)
    # Presort by descending sum: a dominator's sum is mathematically
    # strictly larger, so it is *almost* always processed first.  The
    # exception is floating point: a dominating margin smaller than the
    # sum's rounding unit yields an equal computed sum and an arbitrary
    # order, so an undominated candidate must still evict window members
    # it dominates (standard block-nested-loops behaviour).
    order = np.argsort(-pts.sum(axis=1), kind="stable")
    window: list[int] = []
    window_pts: list[np.ndarray] = []
    for idx in order:
        candidate = pts[idx]
        dominated = False
        for w in window_pts:
            if np.all(w >= candidate) and np.any(w > candidate):
                dominated = True
                break
        if not dominated:
            alive = [
                j
                for j, w in enumerate(window_pts)
                if not (np.all(candidate >= w) and np.any(candidate > w))
            ]
            if len(alive) != len(window):
                window = [window[j] for j in alive]
                window_pts = [window_pts[j] for j in alive]
            window.append(int(idx))
            window_pts.append(candidate)
    return np.array(sorted(window), dtype=np.intp)


class KSkybandIndex:
    """Reusable strict k-skyband index over one attribute matrix.

    The strict k-skyband (Papadias et al., dominance with ``>`` in
    *every* attribute) is a sound top-k candidate set for non-negative
    linear scoring: if ``x`` beats ``z`` in every attribute then
    ``f_w(x) > f_w(z)`` for every non-zero ``w >= 0``, so an item with
    ``k`` strict dominators can never enter a top-k.  The engine's
    randomized backend uses the band as a pruning index for its top-k
    observe path, and a :class:`repro.service.StabilitySession` shares
    one index across every operator it creates — bands are cached per
    ``k``, and the sum-order presort is computed once.

    Build paths:

    - ``d == 2`` — an exact incremental heap sweep: items are processed
      in descending ``x1`` order while a size-``k`` min-heap tracks the
      ``k`` largest ``x2`` values among strictly-``x1``-greater items,
      so each item's "has >= k strict dominators" test is one heap
      peek.  ``O(n log n)`` total, independent of the band size, and
      exact even under attribute ties.
    - ``d > 2`` — the windowed sum-order scan, counting each candidate
      only against *kept* items (sufficient: dominance is transitive,
      so any excluded dominator certifies ``k`` kept dominators),
      processed in ``chunk``-row blocks (512 by default) with saturating
      counts: a candidate stops scanning the moment it reaches ``k``
      dominators.  Because kept blocks arrive in descending sum order,
      heavily dominated items saturate against the first blocks.  Kept
      blocks are stored one attribute per row, so a block's dominance
      test is an AND of ``d`` two-dimensional ``rows x kept``
      comparisons, one per attribute (no ``rows x kept x d``
      temporary), and the in-block test runs only for the rows the scan
      left alive.  Measured at ``d = 4, k = 10`` on a 2-vCPU host
      (numpy 2.4): about 30 ms at ``n = 10_000`` uniform (band ~900),
      0.2 s at ``10_000`` anti-correlated (band ~7,500) and 0.4 s at
      ``100_000`` uniform.

    For ``d > 2``, when a dominating margin is below the sum's
    floating-point rounding unit the processing order between the two
    items is arbitrary and a dominator may go uncounted; the result is
    then a *superset* of the exact band — the safe direction for
    pruning, which only requires that no viable candidate is excluded.
    """

    def __init__(self, values: np.ndarray, *, chunk: int = 512):
        pts = np.asarray(values, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("values must be a 2-D array (n, d)")
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        self._pts = pts
        self._chunk = int(chunk)
        # Lazy sum-descending presort, shared by every band(k) build.
        self._order: np.ndarray | None = None
        self._sorted_pts: np.ndarray | None = None
        self._sorted_sums: np.ndarray | None = None
        self._bands: dict[int, np.ndarray] = {}

    @property
    def n_items(self) -> int:
        return self._pts.shape[0]

    @property
    def built_bands(self) -> tuple[int, ...]:
        """The ``k`` values whose bands are already cached, ascending."""
        return tuple(sorted(self._bands))

    def band(self, k: int) -> np.ndarray:
        """Indices of items with fewer than ``k`` strict dominators, ascending.

        Cached per ``k``; repeated calls return the same array.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k not in self._bands:
            band = self._build(k)
            band.setflags(write=False)
            self._bands[k] = band
        return self._bands[k]

    # ------------------------------------------------------------------
    def _build(self, k: int) -> np.ndarray:
        n, d = self._pts.shape
        if n == 0:
            return np.empty(0, dtype=np.intp)
        if k >= n:
            return np.arange(n, dtype=np.intp)
        if d == 2:
            return self._build_2d(k)
        return self._build_md(k)

    def _build_2d(self, k: int) -> np.ndarray:
        pts = self._pts
        # Descending x1, then descending x2 (tie order within an equal-
        # x1 group is irrelevant: equal x1 precludes strict dominance).
        order = np.lexsort((-pts[:, 1], -pts[:, 0]))
        xs = pts[order, 0]
        ys = pts[order, 1]
        n = order.shape[0]
        kept: list[int] = []
        heap: list[float] = []  # min-heap of the k largest x2 so far
        i = 0
        while i < n:
            j = i
            while j < n and xs[j] == xs[i]:
                j += 1
            # Heap holds only strictly-x1-greater items here: an item is
            # excluded iff the k-th largest of their x2 values beats it.
            for p in range(i, j):
                if len(heap) < k or heap[0] <= ys[p]:
                    kept.append(int(order[p]))
            for p in range(i, j):
                if len(heap) < k:
                    heapq.heappush(heap, float(ys[p]))
                elif ys[p] > heap[0]:
                    heapq.heapreplace(heap, float(ys[p]))
            i = j
        return np.array(sorted(kept), dtype=np.intp)

    def _build_md(self, k: int) -> np.ndarray:
        pts = self._pts
        chunk = self._chunk
        n = pts.shape[0]
        if self._order is None:
            self._order = np.argsort(-pts.sum(axis=1), kind="stable")
            self._sorted_pts = np.ascontiguousarray(pts[self._order])
            self._sorted_sums = self._sorted_pts.sum(axis=1)
        order = self._order
        sorted_pts = self._sorted_pts
        sorted_sums = self._sorted_sums
        kept_cols: list[np.ndarray] = []  # kept blocks, one row per attribute
        kept_idx: list[np.ndarray] = []
        for start in range(0, n, chunk):
            block = sorted_pts[start : start + chunk]
            block_sums = sorted_sums[start : start + chunk]
            counts = np.zeros(block.shape[0], dtype=np.int64)
            # Saturating scan: kept blocks are in descending sum order —
            # the strongest dominators first — so most non-band items
            # reach k within the first block and drop out of the scan.
            alive = np.arange(block.shape[0])
            for cols in kept_cols:
                if alive.size == 0:
                    break
                counts[alive] += _dominators(cols, block[alive]).sum(axis=1)
                alive = alive[counts[alive] < k]
            # Within the block only strictly-larger-sum items can dominate;
            # every such row is a candidate, but only alive rows are tested
            # (the others already have k dominators).
            if alive.size:
                inner = _dominators(block.T, block[alive])
                inner &= block_sums > block_sums[alive, None]
                counts[alive] += inner.sum(axis=1)
            keep = counts < k
            if keep.any():
                kept_cols.append(np.ascontiguousarray(block[keep].T))
                kept_idx.append(order[start : start + chunk][keep])
        return np.sort(np.concatenate(kept_idx)).astype(np.intp)


def _dominators(cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``(len(rows), cols.shape[1])`` mask of strict dominance in every
    attribute; ``cols`` holds the candidates one attribute per row."""
    mask = cols[0] > rows[:, 0, None]
    for a in range(1, cols.shape[0]):
        mask &= cols[a] > rows[:, a, None]
    return mask


def k_skyband(values: np.ndarray, k: int, *, chunk: int = 512) -> np.ndarray:
    """Indices of items with fewer than ``k`` *strict* dominators, ascending.

    One-shot convenience over :class:`KSkybandIndex` (which callers
    needing several ``k`` values or repeated builds should hold on to).
    """
    return KSkybandIndex(values, chunk=chunk).band(k)


def is_dominated(values: np.ndarray, index: int) -> bool:
    """Is item ``index`` dominated by any other item in ``values``?"""
    pts = np.asarray(values, dtype=np.float64)
    candidate = pts[index]
    geq = np.all(pts >= candidate, axis=1)
    gt = np.any(pts > candidate, axis=1)
    geq[index] = False
    return bool(np.any(geq & gt))


def dominance_count(values: np.ndarray) -> np.ndarray:
    """For each item, the number of items it dominates.

    Used by analyses of attribute correlation (section 6.2's Figure 21
    explanation: correlated data produce many dominance relationships,
    fewer feasible rankings, and a more skewed stability distribution).
    Quadratic; intended for datasets up to a few thousand items.
    """
    pts = np.asarray(values, dtype=np.float64)
    n = pts.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    for i in range(n):
        geq = np.all(pts[i] >= pts, axis=1)
        gt = np.any(pts[i] > pts, axis=1)
        geq[i] = False
        counts[i] = int(np.sum(geq & gt))
    return counts
