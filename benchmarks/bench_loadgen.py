"""Load-generator acceptance benchmark: record, replay, stay flat.

Three claims back the ``repro.loadgen`` subsystem:

1. **Replay equivalence** — a Zipf-skewed, bursty, churning workload
   recorded against a live server replays against a *fresh* server of
   the same build with **zero** answer mismatches (exact per-request
   for idempotent ops, per-config multisets for ``get_next``).
2. **Resource flatness** — a short soak (the CI job runs the full
   60-second version) ends with RSS within its growth limit, asserted
   from the live ``/metrics`` scrape.
3. **Harness throughput** — the generator + trace layer itself is not
   the bottleneck: the recorded run sustains a positive request rate
   and every request receives exactly one response.

Runs standalone (``python benchmarks/bench_loadgen.py [--smoke]``) or
under pytest.  ``--smoke`` shrinks the request count and soak length
for CI wall-clock; the invariants are identical in both modes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from repro.loadgen import WorkloadSpec, generate_plan, replay_trace, run_load
from repro.loadgen.soak import run_soak

SEED = 20180905


def _spec(smoke: bool) -> WorkloadSpec:
    return WorkloadSpec(
        seed=SEED,
        requests=150 if smoke else 600,
        connections=8,
        arrival_rate=900.0,
        burstiness=4.0,
        churn=0.08,
        pipeline=0.3,
        n_configs=8,
        config_skew=1.2,
        dataset_items=300,
    )


def run(*, smoke: bool = False, verbose: bool = True) -> dict:
    spec = _spec(smoke)
    plan = generate_plan(spec)

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "bench.jsonl"
        recorded = run_load(plan, trace_path=trace_path)
        replay = replay_trace(trace_path)

    soak = run_soak(
        seconds=2.0 if smoke else 8.0,
        connections=8 if smoke else 16,
        seed=SEED,
    )

    record_rate = recorded.requests / max(recorded.elapsed, 1e-9)
    comparison = replay.comparison
    if verbose:
        mode = "smoke" if smoke else "full"
        print(
            f"  [{mode}] {spec.requests} requests x {spec.connections} "
            f"connections, {spec.n_configs} configs (zipf "
            f"{spec.config_skew}), churn {spec.churn:.0%}"
        )
        print(
            f"  record {recorded.elapsed * 1000:8.1f} ms "
            f"({record_rate:7.1f} req/s, {recorded.ok} ok, "
            f"{recorded.reconnects} reconnects)"
        )
        print(
            f"  replay: {comparison.compared} compared exact/multiset, "
            f"{comparison.skipped_loose} loose, "
            f"{comparison.skipped_load_dependent} load-dependent, "
            f"{len(comparison.mismatches)} mismatches"
        )
        print(
            f"  soak {soak.seconds:.0f}s x {soak.connections} conns: "
            f"{soak.requests} requests, rss {soak.rss_growth:+.1%}, "
            f"{'PASS' if soak.passed else 'FAIL'}"
        )
    return {
        "requests": float(recorded.requests),
        "record_rate": record_rate,
        "replay_compared": float(comparison.compared),
        "replay_mismatches": float(len(comparison.mismatches)),
        "soak_rss_growth": soak.rss_growth,
        "soak_passed": float(soak.passed),
        "smoke": float(smoke),
    }


def test_record_replay_and_soak_floors():
    metrics = run(smoke=True, verbose=True)
    assert metrics["replay_mismatches"] == 0
    assert metrics["soak_passed"] == 1.0
    assert metrics["record_rate"] > 0


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    metrics = run(smoke=smoke, verbose=True)
    floors = [
        ("replay_mismatches", metrics["replay_mismatches"], 0.0,
         metrics["replay_mismatches"] == 0.0),
        ("soak_passed", metrics["soak_passed"], 1.0,
         metrics["soak_passed"] == 1.0),
        ("record_rate", metrics["record_rate"], 0.0,
         metrics["record_rate"] > 0.0),
    ]
    metrics["floors"] = [
        {"name": name, "value": value, "floor": floor, "passed": passed}
        for name, value, floor, passed in floors
    ]
    with open("BENCH_loadgen.json", "w") as handle:
        json.dump(metrics, handle, indent=2, sort_keys=True)
        handle.write("\n")
    failed = [entry for entry in metrics["floors"] if not entry["passed"]]
    for entry in failed:
        print(
            f"  FLOOR REGRESSION: {entry['name']}: {entry['value']:.4f} "
            f"vs floor {entry['floor']}"
        )
    if failed:
        raise SystemExit(1)
