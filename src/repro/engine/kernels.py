"""The chunk reduction every observe pass bottoms out in.

Every observe pass — serial or thread-sharded — runs the same chunk
reduction: score a block of sampled functions (one BLAS GEMM), reduce
each score row to a ranking key, byte-pack the keys, and ``np.unique``
them into a mergeable mini-tally.  :class:`KernelBackend` is that
reduction, delegating to the fused-key routines of
:mod:`repro.engine.kernel`.

Byte identity is a hard contract: the scoring GEMM runs on one OpenBLAS
thread (:func:`repro.engine.kernel.score_block`) and the top-k selection
breaks exact ties by ascending item id, as
:func:`repro.core.ranking._top_k_order` does, so a pass produces the
identical packed tally (keys, counts, first-seen order) for any thread
count, and never touches the rng.
"""

from __future__ import annotations

import numpy as np

from repro.engine import kernel

__all__ = ["KernelBackend"]


class KernelBackend:
    """The numpy chunk reduction.

    There is one implementation, but it stays a class with these two
    methods: profilers and tracers wrap ``KernelBackend.rank_rows``
    (the top-k selection) and ``KernelBackend.reduce_chunk`` (the whole
    chunk) by name, so callers reach both through the class — an
    instance's method, or ``self.rank_rows`` inside :meth:`reduce_chunk`.
    Stateless: one shared instance serves every operator.
    """

    #: The name cost records, ``explain`` and ``stats`` report.
    name = "numpy"

    def rank_rows(self, scores: np.ndarray, *, kind: str, k: int | None) -> np.ndarray:
        """Reduce a block of score rows to ranking-identifier rows."""
        if kind == "full":
            return kernel.full_ranking_rows(scores)
        return kernel.topk_rows(scores, k, ranked=kind == "topk_ranked")

    def reduce_chunk(
        self,
        values: np.ndarray,
        weights: np.ndarray,
        *,
        kind: str,
        k: int | None,
        key_dtype: np.dtype,
        candidates: np.ndarray | None = None,
        out: np.ndarray | None = None,
    ):
        """One chunk's pure reduction: score, rank, pack, unique.

        ``candidates`` maps candidate-space rows back to dataset
        identifiers (the k-skyband pruning path); ``out`` is an optional
        preallocated score buffer reused across the chunks of one pass.
        Returns ``(uniques, freqs, n_rows)`` ready for
        :meth:`~repro.engine.kernel.RankingTally.observe_packed`.
        """
        scores = kernel.score_block(values, weights, out=out)
        rows = self.rank_rows(scores, kind=kind, k=k)
        if candidates is not None:
            rows = candidates[rows]
        packed = kernel.pack_rows(rows, key_dtype)
        uniques, freqs = np.unique(packed, return_counts=True)
        return uniques, freqs, int(rows.shape[0])

    def __repr__(self) -> str:
        return f"<KernelBackend {self.name!r}>"
