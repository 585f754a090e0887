"""Golden-file conformance: committed snapshots must restore exactly.

The two fixtures under ``golden/`` were written by the snapshot code at
a known-good revision (regenerate intentionally via
``python tests/service/conftest.py --regenerate``).  Restoring them
with *current* code must reproduce the recorded probe answers — ranking
orders, stabilities, sample counts, regions — and the recorded pool
statistics.  A failure here means the format or the restore semantics
drifted; that is a compatibility break, not a fixture refresh.
"""

import json
import math

import pytest

from repro import StabilitySession
from repro.service.persist import SNAPSHOT_VERSION, read_snapshot_header

from golden_specs import (
    GOLDEN_DIR,
    GOLDEN_SPECS,
    build_golden_session,
    run_probes,
)

GOLDEN_NAMES = sorted(GOLDEN_SPECS)


def _load(name):
    snap = GOLDEN_DIR / f"{name}.snap"
    expected = json.loads((GOLDEN_DIR / f"{name}.expected.json").read_text())
    return snap, expected


def _assert_stats_match(got: dict, want: dict):
    """Recorded per-config stats must survive verbatim.

    ``stats()`` may *gain* informational keys over time (``kernel``,
    ``sampling``, ...) without invalidating old goldens — what a golden
    pins is that every recorded key still reads back identical, and that
    no recorded config appears or disappears.
    """
    assert set(got) == set(want)
    for config, recorded in want.items():
        entry = got[config]
        for key, value in recorded.items():
            assert entry[key] == value, (config, key)


def _assert_payloads_equal(got, want):
    """Exact comparison, with one documented concession.

    Everything a stability answer is made of is exact (integer ratios,
    deterministic enumeration, pinned rng streams); only
    ``confidence_error`` passes through ``scipy``'s normal quantile, so
    it is compared to 1e-12 relative — anything looser is a real drift.
    """
    if isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_payloads_equal(g, w)
        return
    assert got["ranking"] == want["ranking"]
    assert got["stability"] == want["stability"]
    assert got["sample_count"] == want["sample_count"]
    assert got["top_k_set"] == want["top_k_set"]
    assert got["region"] == want["region"]
    assert math.isclose(
        got["confidence_error"], want["confidence_error"], rel_tol=1e-12,
        abs_tol=0.0,
    ) or got["confidence_error"] == want["confidence_error"]


@pytest.mark.parametrize("name", GOLDEN_NAMES)
class TestGoldenConformance:
    def test_fixture_files_are_committed(self, name):
        snap, expected = _load(name)
        assert snap.exists()
        assert expected["answers"], "expected file must record probe answers"

    def test_header_is_current_format(self, name):
        snap, _ = _load(name)
        header = read_snapshot_header(snap)
        assert header["format_version"] == SNAPSHOT_VERSION
        assert header["configs"], "golden snapshots must carry warm configs"

    def test_restores_to_recorded_answers(self, name):
        snap, expected = _load(name)
        spec = GOLDEN_SPECS[name]
        with StabilitySession.restore(
            snap, spec["dataset"](), executor="serial"
        ) as session:
            got = run_probes(session, expected["probes"])
            _assert_payloads_equal(got, expected["answers"])
            # The probes grew the pools / advanced the cursors exactly
            # as recorded, too.
            _assert_stats_match(
                session.stats()["configs"],
                expected["stats_configs_after_probes"],
            )

    def test_restores_to_recorded_pool_stats(self, name):
        snap, expected = _load(name)
        spec = GOLDEN_SPECS[name]
        with StabilitySession.restore(
            snap, spec["dataset"](), executor="serial"
        ) as session:
            _assert_stats_match(
                session.stats()["configs"], expected["stats_configs_at_save"]
            )

    def test_freshly_built_session_matches_golden_state(self, name):
        """The committed snapshot still matches what warmup produces today.

        Guards the *writer* half: if session/query semantics change so
        that the same warmup yields different pools, the golden must be
        regenerated consciously (and the format reviewed), not silently.
        """
        _, expected = _load(name)
        with build_golden_session(name) as session:
            _assert_stats_match(
                session.stats()["configs"], expected["stats_configs_at_save"]
            )
