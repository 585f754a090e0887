"""Golden-snapshot fixtures for the durable-sessions conformance suite.

Two small committed snapshots under ``tests/service/golden/`` pin the
on-disk format: whatever the current code becomes, it must keep
restoring them to sessions that answer a fixed probe workload with the
recorded values.  Each golden is a pair of files:

- ``<name>.snap`` — a format-v1 snapshot written by
  :func:`repro.service.persist.save_session`;
- ``<name>.expected.json`` — the probe answers and pool statistics a
  correct restore must reproduce.

Everything needed to rebuild them lives here, next to the tests that
consume them.  After an *intentional* format-version bump, regenerate
with::

    PYTHONPATH=src python tests/service/conftest.py --regenerate

and commit both files; an unintentional diff in either is a format
regression, not a fixture refresh.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from repro import Dataset, StabilitySession

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The paper's 5-item HR example (Figure 1a) — exact literals, so the
#: golden dataset can never drift with a generator change.
_PAPER_VALUES = [
    [0.63, 0.71],
    [0.83, 0.65],
    [0.58, 0.78],
    [0.70, 0.68],
    [0.53, 0.82],
]


def _dataset_paper_2d() -> Dataset:
    return Dataset(np.array(_PAPER_VALUES))


def _dataset_topk_md() -> Dataset:
    # PCG64's raw stream is a frozen numpy compatibility guarantee, so
    # this matrix is bit-identical on every platform and version.
    return Dataset(np.random.default_rng(20180905).uniform(size=(40, 3)))


def _warm_paper_2d(session: StabilitySession) -> None:
    session.top_stable(2)  # twod_exact enumeration prefix + cache entry
    session.get_next()  # exact cursor at 1
    session.get_next(kind="topk_set", k=2, backend="twod_topk")
    session.top_stable(2, kind="full", backend="randomized", budget=300)
    session.get_next(kind="full", backend="randomized", budget=300)


def _warm_topk_md(session: StabilitySession) -> None:
    session.top_stable(3, kind="topk_set", k=5, budget=500)
    session.get_next(kind="topk_ranked", k=4, budget=400)
    session.get_next(kind="topk_ranked", k=4, budget=400)
    best = session.top_stable(1, kind="topk_set", k=5, budget=500)[0]
    session.stability_of(
        sorted(best.top_k_set), kind="topk_set", k=5, min_samples=500
    )


GOLDEN_SPECS = {
    "v1_paper_2d": {
        "dataset": _dataset_paper_2d,
        "seed": 2018,
        "warm": _warm_paper_2d,
        "probes": [
            {"op": "top_stable", "m": 3},
            {"op": "get_next"},
            {"op": "get_next", "kind": "topk_set", "k": 2,
             "backend": "twod_topk"},
            {"op": "top_stable", "m": 2, "kind": "full",
             "backend": "randomized", "budget": 300},
            {"op": "get_next", "kind": "full", "backend": "randomized",
             "budget": 450},
        ],
    },
    "v1_topk_md": {
        "dataset": _dataset_topk_md,
        "seed": 77,
        "warm": _warm_topk_md,
        "probes": [
            {"op": "top_stable", "m": 3, "kind": "topk_set", "k": 5,
             "budget": 500},
            {"op": "get_next", "kind": "topk_ranked", "k": 4, "budget": 400},
            {"op": "get_next", "kind": "topk_ranked", "k": 4, "budget": 650},
            {"op": "top_stable", "m": 2, "kind": "topk_set", "k": 5,
             "budget": 800},
        ],
    },
}


def _result_payload(result) -> dict:
    """One StabilityResult as the exact JSON-safe record the goldens pin."""
    region = None
    if result.region is not None and hasattr(result.region, "lo"):
        region = [result.region.lo, result.region.hi]
    return {
        "ranking": [int(i) for i in result.ranking.order],
        "stability": result.stability,
        "confidence_error": result.confidence_error,
        "sample_count": result.sample_count,
        "top_k_set": (
            sorted(int(i) for i in result.top_k_set)
            if result.top_k_set is not None
            else None
        ),
        "region": region,
    }


def run_probes(session: StabilitySession, probes) -> list:
    """Execute the probe workload, returning exact JSON-safe payloads."""
    out = []
    for probe in probes:
        probe = dict(probe)
        op = probe.pop("op")
        if op == "top_stable":
            results = session.top_stable(probe.pop("m"), **probe)
            out.append([_result_payload(r) for r in results])
        elif op == "get_next":
            out.append(_result_payload(session.get_next(**probe)))
        else:
            raise ValueError(f"unknown probe op {op!r}")
    return out


def build_golden_session(name: str) -> StabilitySession:
    """A freshly warmed session exactly as the golden snapshot recorded it."""
    spec = GOLDEN_SPECS[name]
    session = StabilitySession(
        spec["dataset"](), seed=spec["seed"], executor="serial"
    )
    spec["warm"](session)
    return session


def regenerate(golden_dir: Path = GOLDEN_DIR) -> list[str]:
    """(Re)write every golden snapshot and its expected-answer sidecar."""
    golden_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, spec in GOLDEN_SPECS.items():
        snap_path = golden_dir / f"{name}.snap"
        with build_golden_session(name) as session:
            session.save(snap_path)
        # Expected answers come from a *restored* session, so the golden
        # pins the full save -> restore -> answer pipeline.  Pool stats
        # are recorded both as-saved (what restore must reproduce) and
        # after the probes (which consume cursors and grow pools).
        with StabilitySession.restore(
            snap_path, spec["dataset"](), executor="serial"
        ) as restored:
            at_save = restored.stats()["configs"]
            expected = {
                "probes": spec["probes"],
                "stats_configs_at_save": at_save,
                "answers": run_probes(restored, spec["probes"]),
                "stats_configs_after_probes": restored.stats()["configs"],
            }
        expected_path = golden_dir / f"{name}.expected.json"
        expected_path.write_text(json.dumps(expected, indent=1) + "\n")
        written += [str(snap_path), str(expected_path)]
    return written
