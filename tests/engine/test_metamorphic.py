"""Metamorphic relations of the randomized top-k GET-NEXT operator.

Exact stabilities are unknown at these sizes, so the oracle is a set of
relations between two runs: a transformation of the input, or of a
speed-only dial, whose effect on the count table is known.  Count
tables (``op.counts``) are compared, not first-seen order, which
legitimately depends on the chunk plan.

Data comes from a drawn seed (uniform in ``[0.05, 1)``), never from raw
drawn floats: exact score ties would make the id tie-break, and so the
permutation relation, data-dependent.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import Dataset
from repro.core.randomized import GetNextRandomized

RNG_SEED = 20180905
KINDS = st.sampled_from(["topk_ranked", "topk_set"])
SAMPLINGS = st.sampled_from(["mc", "qmc"])
RELATION_SETTINGS = settings(max_examples=40, deadline=None)
#: chunk=1 runs one Python-level reduction per sample.
CHUNK_SETTINGS = settings(max_examples=12, deadline=None)


@st.composite
def instances(draw):
    """``(values, k, budget)``: n 20-400, d 2-5, k < 10, budget 200-2000."""
    n = draw(st.integers(20, 400))
    d = draw(st.integers(2, 5))
    k = draw(st.integers(1, 9))
    budget = draw(st.integers(200, 2_000))
    data_seed = draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(data_seed).uniform(0.05, 1.0, size=(n, d))
    return values, k, budget


def _counts(values, k, budget, *, kind, sampling, **options) -> Counter:
    op = GetNextRandomized(
        Dataset(values),
        kind=kind,
        k=k,
        rng=np.random.default_rng(RNG_SEED),
        sampling=sampling,
        **options,
    )
    op.observe(budget)
    return op.counts


def _relabel(counts: Counter, ids: np.ndarray, kind: str) -> Counter:
    """Map every key's item ids through ``ids`` (new id -> old id)."""
    wrap = frozenset if kind == "topk_set" else tuple
    return Counter(
        {wrap(int(ids[i]) for i in key): count for key, count in counts.items()}
    )


@RELATION_SETTINGS
@given(case=instances(), kind=KINDS, sampling=SAMPLINGS)
def test_power_of_two_scaling_keeps_counts(case, kind, sampling):
    values, k, budget = case
    base = _counts(values, k, budget, kind=kind, sampling=sampling)
    assert _counts(values * 4.0, k, budget, kind=kind, sampling=sampling) == base


@RELATION_SETTINGS
@given(case=instances(), kind=KINDS, sampling=SAMPLINGS, data=st.data())
def test_appending_a_k_dominated_item_keeps_counts(case, kind, sampling, data):
    values, k, budget = case
    # Half the attribute-wise minimum of k items: every one of them
    # beats the new item by a wide margin in every attribute, so it can
    # never enter a top-k.
    chosen = data.draw(
        st.lists(
            st.integers(0, values.shape[0] - 1), min_size=k, max_size=k,
            unique=True,
        )
    )
    dominated = 0.5 * values[chosen].min(axis=0)
    extended = np.vstack([values, dominated])
    base = _counts(values, k, budget, kind=kind, sampling=sampling)
    assert _counts(extended, k, budget, kind=kind, sampling=sampling) == base


@RELATION_SETTINGS
@given(
    case=instances(), kind=KINDS, sampling=SAMPLINGS,
    perm_seed=st.integers(0, 2**32 - 1),
)
def test_permuting_items_keeps_counts_up_to_ids(case, kind, sampling, perm_seed):
    values, k, budget = case
    perm = np.random.default_rng(perm_seed).permutation(values.shape[0])
    base = _counts(values, k, budget, kind=kind, sampling=sampling)
    permuted = _counts(values[perm], k, budget, kind=kind, sampling=sampling)
    assert _relabel(permuted, perm, kind) == base


@RELATION_SETTINGS
@given(case=instances(), kind=KINDS, sampling=SAMPLINGS)
def test_skyband_pruning_keeps_counts(case, kind, sampling):
    values, k, budget = case
    run = dict(kind=kind, sampling=sampling)
    pruned = _counts(values, k, budget, prune_topk=True, **run)
    assert pruned == _counts(values, k, budget, prune_topk=False, **run)


@CHUNK_SETTINGS
@given(case=instances(), kind=KINDS, sampling=SAMPLINGS)
def test_scoring_chunk_keeps_counts(case, kind, sampling):
    values, k, budget = case
    run = dict(kind=kind, sampling=sampling)
    auto = _counts(values, k, budget, **run)
    for chunk in (1, 7, 64):
        assert _counts(values, k, budget, scoring_chunk=chunk, **run) == auto, chunk


@RELATION_SETTINGS
@given(case=instances(), sampling=SAMPLINGS)
def test_set_tally_is_ranked_tally_collapsed(case, sampling):
    values, k, budget = case
    ranked = _counts(values, k, budget, kind="topk_ranked", sampling=sampling)
    collapsed = Counter()
    for key, count in ranked.items():
        collapsed[frozenset(key)] += count
    assert _counts(values, k, budget, kind="topk_set", sampling=sampling) == collapsed
