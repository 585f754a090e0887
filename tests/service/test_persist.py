"""Snapshot/restore: round-trip equality, cursors, corruption, refusal.

The durable-sessions contract has two halves, and both are tested hard:

- a restored session must answer every future query **byte-identically**
  to the session that never restarted (the property grid below sweeps
  kinds x backends x budgets, including mid-``get_next`` cursor state);
- a snapshot that cannot be trusted — truncated, bit-flipped, produced
  by a newer format, or taken over different data — must raise a typed
  :class:`~repro.errors.SnapshotError`, never restore silently wrong
  state.
"""

import json
import struct
import zlib

import numpy as np
import pytest

from repro import Dataset, StabilitySession
from repro.core.randomized import GetNextRandomized
from repro.engine.kernel import RankingTally
from repro.errors import (
    ExhaustedError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotMismatchError,
    SnapshotVersionError,
)
from repro.loadgen.fuzz import CORRUPTION_CORPUS
from repro.service.persist import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    read_snapshot_header,
)


@pytest.fixture
def ds_md(rng_factory):
    return Dataset(rng_factory(30).uniform(size=(250, 3)))


@pytest.fixture
def ds_2d(paper_dataset):
    return paper_dataset


def result_key(result):
    """The full observable payload of one StabilityResult."""
    return (
        result.ranking.order,
        result.stability,
        result.confidence_error,
        result.sample_count,
        result.top_k_set,
        result.region,
    )


class TestTallyStateRoundTrip:
    def test_tally_buffers_rebuild_exactly(self, rng_factory):
        op = GetNextRandomized(
            Dataset(rng_factory(3).uniform(size=(40, 3))),
            kind="topk_set",
            k=5,
            rng=rng_factory(9),
        )
        op.observe(700)
        state = op.tally.export_state()
        rebuilt = RankingTally.from_state(40, **state)
        assert rebuilt.counts == op.tally.counts
        assert list(rebuilt.counts) == list(op.tally.counts)
        assert rebuilt.total == op.tally.total
        assert rebuilt.best_unreturned() == op.tally.best_unreturned()

    def test_from_state_rejects_inconsistent_buffers(self, rng_factory):
        op = GetNextRandomized(
            Dataset(rng_factory(3).uniform(size=(40, 3))),
            kind="topk_set",
            k=5,
            rng=rng_factory(9),
        )
        op.observe(300)
        good = op.tally.export_state()
        bad = dict(good, total=good["total"] + 1)
        with pytest.raises(ValueError, match="sum"):
            RankingTally.from_state(40, **bad)
        bad = dict(good, keys=good["keys"][:-1])
        with pytest.raises(ValueError, match="blob"):
            RankingTally.from_state(40, **bad)
        bad = dict(good, dtype="uint32")
        with pytest.raises(ValueError, match="dtype"):
            RankingTally.from_state(40, **bad)

    def test_operator_state_resumes_rng_mid_stream(self, rng_factory):
        ds = Dataset(rng_factory(4).uniform(size=(60, 3)))
        a = GetNextRandomized(ds, kind="full", rng=rng_factory(5))
        a.observe(400)
        state = a.export_state()
        b = GetNextRandomized(ds, kind="full", rng=rng_factory(999))
        b.restore_state(state)
        a.observe(300)
        b.observe(300)
        assert a.tally.counts == b.tally.counts
        assert list(a.tally.counts) == list(b.tally.counts)

    def test_operator_state_rejects_wrong_config(self, rng_factory):
        ds = Dataset(rng_factory(4).uniform(size=(60, 3)))
        a = GetNextRandomized(ds, kind="topk_set", k=5, rng=rng_factory(5))
        a.observe(100)
        b = GetNextRandomized(ds, kind="topk_set", k=6, rng=rng_factory(5))
        with pytest.raises(ValueError, match="kind"):
            b.restore_state(a.export_state())

    def test_operator_state_rejects_wrong_region(self, rng_factory):
        """A pool sampled over one region must not blend into another."""
        from repro import Cone

        ds = Dataset(rng_factory(4).uniform(size=(60, 3)))
        a = GetNextRandomized(ds, kind="topk_set", k=5, rng=rng_factory(5))
        a.observe(100)
        b = GetNextRandomized(
            ds,
            kind="topk_set",
            k=5,
            region=Cone(np.ones(3), 0.3),
            rng=rng_factory(5),
        )
        with pytest.raises(ValueError, match="region"):
            b.restore_state(a.export_state())

    def test_save_to_unwritable_path_is_a_typed_error(self, ds_md, tmp_path):
        with StabilitySession(ds_md, seed=5, executor="serial") as session:
            session.observe(100, kind="topk_set", k=3)
            with pytest.raises(SnapshotError, match="cannot write"):
                session.save(tmp_path / "no" / "such" / "dir" / "p.snap")


def _grid_workload(kind, k, backend, budget):
    """A mixed future workload for one configuration."""

    def run(session):
        out = [
            result_key(r)
            for r in session.top_stable(
                3, kind=kind, k=k, backend=backend, budget=budget
            )
        ]
        for _ in range(2):
            try:
                out.append(
                    result_key(
                        session.get_next(
                            kind=kind, k=k, backend=backend, budget=budget
                        )
                    )
                )
            except ExhaustedError:
                out.append("exhausted")
        probe = session.top_stable(
            1, kind=kind, k=k, backend=backend, budget=budget
        )
        if probe:
            out.append(
                result_key(
                    session.stability_of(
                        list(probe[0].ranking.order),
                        kind=kind,
                        k=k,
                        backend=backend,
                        min_samples=budget,
                    )
                )
            )
        return out

    return run


class TestSaveRestoreProperty:
    """save -> restore -> query == uninterrupted query, across the grid."""

    @pytest.mark.parametrize(
        "kind,k,backend,budget",
        [
            ("full", None, "randomized", 400),
            ("full", None, "randomized", 1100),
            ("topk_set", 5, "randomized", 400),
            ("topk_set", 5, "randomized", 1100),
            ("topk_ranked", 4, "randomized", 700),
            ("full", None, "md_arrangement", None),
        ],
    )
    def test_grid(self, ds_md, rng_factory, tmp_path, kind, k, backend, budget):
        if backend == "md_arrangement":
            # The lazy arrangement is for small n; a 250-item instance
            # would dominate the suite's wall-clock.
            ds_md = Dataset(rng_factory(33).uniform(size=(18, 3)))
        path = tmp_path / "grid.snap"
        live = StabilitySession(ds_md, seed=17, executor="serial")
        # Interrupt mid-protocol: one consumed cursor entry, a warm
        # top_stable, then snapshot.
        live.top_stable(2, kind=kind, k=k, backend=backend, budget=budget)
        live.get_next(kind=kind, k=k, backend=backend, budget=budget)
        live.save(path)
        restored = StabilitySession.restore(path, ds_md, executor="serial")
        workload = _grid_workload(kind, k, backend, budget)
        with live, restored:
            assert workload(restored) == workload(live)
            assert restored.stats()["configs"] == live.stats()["configs"]

    @pytest.mark.parametrize("kind,k", [("full", None), ("topk_set", 2)])
    def test_exact_2d_cursor_survives(self, ds_2d, tmp_path, kind, k):
        backend = "twod_exact" if kind == "full" else "twod_topk"
        path = tmp_path / "2d.snap"
        live = StabilitySession(ds_2d, seed=3)
        live.get_next(kind=kind, k=k, backend=backend)
        live.get_next(kind=kind, k=k, backend=backend)
        live.save(path)
        restored = StabilitySession.restore(path, ds_2d)

        def step(session):
            try:
                return result_key(session.get_next(kind=kind, k=k, backend=backend))
            except ExhaustedError:
                return "exhausted"

        with live, restored:
            # The cursor resumes where it stopped — no rewind, no skip,
            # and exhaustion strikes at the same step.
            for _ in range(3):
                assert step(restored) == step(live)

    def test_mid_get_next_cursor_not_rewound(self, ds_md, tmp_path):
        """A consumed ranking stays consumed across the restart."""
        path = tmp_path / "cursor.snap"
        live = StabilitySession(ds_md, seed=23, executor="serial")
        first = live.get_next(kind="topk_set", k=4, budget=900)
        live.save(path)
        restored = StabilitySession.restore(path, ds_md, executor="serial")
        with live, restored:
            again = restored.get_next(kind="topk_set", k=4, budget=900)
            assert result_key(again) != result_key(first)
            assert result_key(again) == result_key(
                live.get_next(kind="topk_set", k=4, budget=900)
            )

    def test_restored_cache_is_warm(self, ds_md, tmp_path):
        path = tmp_path / "warm.snap"
        with StabilitySession(ds_md, seed=5, executor="serial") as live:
            live.top_stable(3, kind="topk_set", k=5, budget=800)
            live.save(path)
        with StabilitySession.restore(path, ds_md, executor="serial") as restored:
            restored.top_stable(3, kind="topk_set", k=5, budget=800)
            assert restored.last_query_cached

    def test_restore_with_fresh_runtime_knobs(self, ds_md, tmp_path):
        """parallel/workers are runtime choices, not snapshot state."""
        path = tmp_path / "knobs.snap"
        with StabilitySession(ds_md, seed=5, executor="serial") as live:
            live.observe(600, kind="topk_set", k=4)
            live.save(path)
            expected = [
                result_key(r)
                for r in live.top_stable(2, kind="topk_set", k=4, budget=1_000)
            ]
        restored = StabilitySession.restore(
            path, ds_md, executor="thread", max_workers=2
        )
        with restored:
            got = [
                result_key(r)
                for r in restored.top_stable(2, kind="topk_set", k=4, budget=1_000)
            ]
        assert got == expected

    def test_mixed_batch_workload_byte_identical(self, ds_md, tmp_path):
        """A restored session runs execute_batch exactly like the original."""
        from repro import execute_batch

        workload = [
            {"op": "top_stable", "m": 3, "kind": "topk_set", "k": 5,
             "backend": "randomized", "budget": 900},
            {"op": "get_next", "kind": "topk_set", "k": 5,
             "backend": "randomized", "budget": 900},
            {"op": "top_stable", "m": 2, "kind": "topk_ranked", "k": 4,
             "backend": "randomized", "budget": 700},
            {"op": "stability_of", "kind": "topk_set", "k": 3,
             "backend": "randomized", "ranking": [0, 1, 2],
             "min_samples": 500},
            {"op": "get_next", "kind": "topk_ranked", "k": 4,
             "backend": "randomized", "budget": 1000},
        ]
        path = tmp_path / "batch.snap"
        live = StabilitySession(ds_md, seed=41, executor="serial")
        live.run_batch(workload)  # warm pools mid-protocol
        live.save(path)
        restored = StabilitySession.restore(path, ds_md, executor="serial")

        def payloads(outcomes):
            out = []
            for o in outcomes:
                assert o.ok, o.error
                value = o.value if isinstance(o.value, list) else [o.value]
                out.append([result_key(r) for r in value])
            return out

        with live, restored:
            assert payloads(execute_batch(restored, workload)) == payloads(
                execute_batch(live, workload)
            )

    def test_restored_session_reports_the_same_pool_stats(self, tmp_path):
        """Pool sizes, byte estimate included, survive a restart."""
        ds = Dataset(np.random.default_rng(40).uniform(size=(40, 3)))
        path = tmp_path / "stats.snap"
        with StabilitySession(ds, seed=3, executor="serial") as live:
            # Two passes over one pool, then a consumed ranking.
            live.top_stable(2, kind="topk_ranked", k=3, budget=200)
            live.top_stable(2, kind="topk_ranked", k=3, budget=400)
            live.get_next(kind="topk_ranked", k=3, budget=400)
            live.save(path)
            expected = live.stats()
        with StabilitySession.restore(path, ds, executor="serial") as restored:
            got = restored.stats()
        assert got["configs"] == expected["configs"]
        assert got["pool_bytes"] == expected["pool_bytes"] > 0

    def test_snapshot_of_restored_session_round_trips(self, ds_md, tmp_path):
        """restore -> save -> restore is as good as the original."""
        first, second = tmp_path / "a.snap", tmp_path / "b.snap"
        with StabilitySession(ds_md, seed=29, executor="serial") as live:
            live.top_stable(2, kind="topk_set", k=5, budget=700)
            live.save(first)
            expected = result_key(live.get_next(kind="topk_set", k=5, budget=700))
        mid = StabilitySession.restore(first, ds_md, executor="serial")
        with mid:
            mid.save(second)
        with StabilitySession.restore(second, ds_md, executor="serial") as restored:
            assert result_key(
                restored.get_next(kind="topk_set", k=5, budget=700)
            ) == expected


@pytest.fixture
def snapshot_file(ds_md, tmp_path):
    path = tmp_path / "pool.snap"
    with StabilitySession(ds_md, seed=11, executor="serial") as session:
        session.top_stable(2, kind="topk_set", k=5, budget=600)
        session.get_next(backend="randomized", budget=500)
        session.save(path)
    return path


class TestCorruption:
    """Every way a snapshot can lie must raise a typed SnapshotError.

    The byte-mutation cases live in the shared corruption corpus
    (:data:`repro.loadgen.fuzz.CORRUPTION_CORPUS`) so this suite and
    the snapshot fuzzer pin the exact same refusals; only mutations
    that need a *different dataset or region* (not different bytes)
    stay as bespoke tests below.
    """

    @pytest.mark.parametrize(
        "case", CORRUPTION_CORPUS, ids=lambda case: case.name
    )
    def test_corrupted_bytes_refuse_typed(self, case, snapshot_file, ds_md):
        snapshot_file.write_bytes(case.mutate(snapshot_file.read_bytes()))
        with pytest.raises(case.raises, match=case.match):
            StabilitySession.restore(snapshot_file, ds_md, executor="serial")

    def test_header_reader_rejects_noise(self, tmp_path):
        """The cheap header probe refuses garbage too, not just restore."""
        path = tmp_path / "noise.snap"
        path.write_bytes(b"definitely not a snapshot file")
        with pytest.raises(SnapshotFormatError, match="magic"):
            read_snapshot_header(path)
        path.write_bytes(SNAPSHOT_MAGIC[:4])
        with pytest.raises(SnapshotFormatError, match="short"):
            read_snapshot_header(path)

    def test_wrong_dataset_fingerprint(self, snapshot_file, rng_factory):
        other = Dataset(rng_factory(31).uniform(size=(250, 3)))
        with pytest.raises(SnapshotMismatchError, match="fingerprint"):
            StabilitySession.restore(snapshot_file, other)

    def test_wrong_region(self, snapshot_file, ds_md):
        from repro import Cone

        with pytest.raises(SnapshotMismatchError, match="region"):
            StabilitySession.restore(
                snapshot_file, ds_md, region=Cone(np.ones(3), 0.3)
            )

    def test_region_identity_is_content_not_shape(self, ds_md, tmp_path):
        """Regions that sample differently must never be conflated.

        Guards the repr-keyed identity checks against lossy reprs: a
        constraint region with the *opposite* constraint, and a cone
        whose angle differs below 6 significant digits, both used to
        repr identically.
        """
        from repro import Cone
        from repro.core.region import ConstrainedRegion

        path = tmp_path / "region.snap"
        with StabilitySession(
            ds_md, region=ConstrainedRegion([[1.0, -1.0, 0.0]]), seed=3,
            executor="serial",
        ) as live:
            live.observe(100, kind="topk_set", k=3)
            live.save(path)
        with pytest.raises(SnapshotMismatchError, match="region"):
            StabilitySession.restore(
                path, ds_md, region=ConstrainedRegion([[-1.0, 1.0, 0.0]])
            )
        path2 = tmp_path / "cone.snap"
        with StabilitySession(
            ds_md, region=Cone(np.ones(3), 0.3000001), seed=3, executor="serial"
        ) as live:
            live.observe(100, kind="topk_set", k=3)
            live.save(path2)
        with pytest.raises(SnapshotMismatchError, match="region"):
            StabilitySession.restore(
                path2, ds_md, region=Cone(np.ones(3), 0.3000004)
            )

    def test_all_corruption_errors_are_snapshot_errors(self):
        for exc in (
            SnapshotFormatError,
            SnapshotIntegrityError,
            SnapshotVersionError,
            SnapshotMismatchError,
        ):
            assert issubclass(exc, SnapshotError)


class TestHeaderInspection:
    def test_header_describes_the_snapshot(self, snapshot_file, ds_md):
        header = read_snapshot_header(snapshot_file)
        assert header["format_version"] == SNAPSHOT_VERSION
        assert header["n_items"] == ds_md.n_items
        assert header["n_attributes"] == ds_md.n_attributes
        assert len(header["configs"]) == 2
        names = {s["name"] for s in header["sections"]}
        assert "cache" in names
        assert any(n.startswith("tally/") for n in names)


class TestQuasiStreamPersistence:
    """A qmc pool must restore mid-sequence: the continuation after a
    save/load is the continuation the unsaved session would produce."""

    def test_qmc_session_roundtrip_continues_stream(self, ds_md, tmp_path):
        path = tmp_path / "qmc.snap"
        with StabilitySession(
            ds_md, seed=7, sampling="qmc", executor="serial"
        ) as original:
            original.observe(800, kind="topk_set", k=4)
            original.save(path)
            original.observe(700, kind="topk_set", k=4)
            expected = [result_key(r) for r in original.top_stable(
                3, kind="topk_set", k=4, budget=1_500
            )]
        with StabilitySession.restore(path, ds_md, executor="serial") as restored:
            assert restored.config.sampling == "qmc"
            got = [result_key(r) for r in restored.top_stable(
                3, kind="topk_set", k=4, budget=1_500
            )]
        assert got == expected

    def test_mc_snapshot_restores_without_sampling_key(self, ds_md, tmp_path):
        """Old snapshots carry no sampling header/operator state."""
        path = tmp_path / "mc.snap"
        with StabilitySession(ds_md, seed=7, executor="serial") as original:
            original.observe(500, kind="topk_set", k=4)
            original.save(path)
        # Strip the new keys the way a pre-kernel writer would not have
        # written them, then restore.
        raw = path.read_bytes()
        magic, version, header_len = raw[:8], raw[8:10], raw[10:14]
        n = struct.unpack("<I", header_len)[0]
        header = json.loads(raw[14 : 14 + n].decode())
        header.pop("sampling", None)
        for record in header["configs"]:
            if "state" in record:
                record["state"].pop("sampling", None)
                record["state"].pop("qmc", None)
        body = json.dumps(header, separators=(",", ":")).encode()
        stripped = (
            magic
            + version
            + struct.pack("<I", len(body))
            + body
            + struct.pack("<I", zlib.crc32(body))
            + raw[14 + n + 4 :]
        )
        legacy = tmp_path / "legacy.snap"
        legacy.write_bytes(stripped)
        with StabilitySession.restore(legacy, ds_md, executor="serial") as restored:
            assert restored.config.sampling == "mc"
            restored.observe(200, kind="topk_set", k=4)
