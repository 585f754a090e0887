"""Snapshot-container fuzzing: every mutation refuses typed or restores
byte-identically.

The corpus half (``fuzz.CORRUPTION_CORPUS``) pins each named corruption
class to its typed :class:`SnapshotError` subclass and message.  The
hypothesis half throws random byte damage and CRC-valid crafted headers
at restore and holds the oracle: typed refusal, or answers equal to the
undamaged baseline — never an untyped crash, never silently wrong state.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import StabilitySession
from repro.loadgen import WorkloadSpec, make_dataset
from repro.loadgen import fuzz

MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))

FUZZ_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def probe(session):
    """The observable answers a restored session must reproduce."""
    results = session.top_stable(2, kind="topk_set", k=5, budget=300)
    return tuple(
        (r.ranking.order, r.stability, r.sample_count) for r in results
    )


@pytest.fixture(scope="module")
def corpus_target(tmp_path_factory):
    """One good snapshot: ``(pristine bytes, dataset, baseline answers)``."""
    dataset = make_dataset(WorkloadSpec(dataset_items=250))
    path = tmp_path_factory.mktemp("snap") / "good.snap"
    with StabilitySession(dataset, seed=11, executor="serial") as session:
        session.top_stable(2, kind="topk_set", k=5, budget=300)
        session.get_next(backend="randomized", budget=300)
        session.save(path)
    with StabilitySession.restore(path, dataset, executor="serial") as session:
        baseline = probe(session)
    return path.read_bytes(), dataset, baseline


class TestCorruptionCorpus:
    @pytest.mark.parametrize(
        "case", fuzz.CORRUPTION_CORPUS, ids=lambda case: case.name
    )
    def test_corpus_entry_raises_typed(self, case, corpus_target, tmp_path):
        data, dataset, _ = corpus_target
        path = tmp_path / f"{case.name}.snap"
        path.write_bytes(case.mutate(data))
        with pytest.raises(case.raises, match=case.match):
            StabilitySession.restore(path, dataset, executor="serial")

    def test_corpus_covers_every_error_type(self):
        from repro.errors import (
            SnapshotFormatError,
            SnapshotIntegrityError,
            SnapshotVersionError,
        )

        raised = {case.raises for case in fuzz.CORRUPTION_CORPUS}
        assert {
            SnapshotFormatError, SnapshotIntegrityError, SnapshotVersionError
        } <= raised

    def test_corpus_names_are_unique(self):
        names = [case.name for case in fuzz.CORRUPTION_CORPUS]
        assert len(set(names)) == len(names)


class TestRandomMutations:
    @given(seed=st.integers(0, 2**32 - 1))
    @FUZZ_SETTINGS
    def test_random_mutation_refuses_or_restores_exactly(
        self, corpus_target, tmp_path_factory, seed
    ):
        data, dataset, baseline = corpus_target
        rng = np.random.default_rng(seed)
        name, mutated = fuzz.random_snapshot_mutation(data, rng)
        path = tmp_path_factory.mktemp("mut") / f"{name}-{seed}.snap"
        path.write_bytes(mutated)
        outcome = fuzz.check_restore_contract(path, dataset, probe, baseline)
        assert outcome in ("refused", "equal")

    @given(seed=st.integers(0, 2**32 - 1))
    @FUZZ_SETTINGS
    def test_crafted_headers_never_crash_untyped(
        self, corpus_target, tmp_path_factory, seed
    ):
        """CRC-valid lies are the hard case: integrity checks pass, so
        only header validation stands between the file and restore."""
        data, dataset, baseline = corpus_target
        rng = np.random.default_rng(seed)
        mutated = fuzz.SNAPSHOT_MUTATORS[-1][1](data, rng)
        path = tmp_path_factory.mktemp("crafted") / f"h{seed}.snap"
        path.write_bytes(mutated)
        outcome = fuzz.check_restore_contract(path, dataset, probe, baseline)
        assert outcome in ("refused", "equal")

    def test_pristine_snapshot_restores_equal(self, corpus_target, tmp_path):
        """The oracle's control arm: unmutated bytes restore "equal"."""
        data, dataset, baseline = corpus_target
        path = tmp_path / "pristine.snap"
        path.write_bytes(data)
        assert (
            fuzz.check_restore_contract(path, dataset, probe, baseline)
            == "equal"
        )
