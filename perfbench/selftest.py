"""Toy-size self-tests of the benchmark itself.

Run from the root of a checkout (about two minutes on two cores)::

    python3 perfbench/selftest.py

or collect the ``test_*`` functions with pytest.  They check that the
answer oracle catches damaged answers, that the traced wire stages of
every warm read tile its client latency, that a traced run prints its
tracing overhead and every per-layer metric ``BENCHMARK.json`` names,
and that an untraced run prints every end-to-end metric and passes the
oracle on two seeds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402  (after the path set-up)
from layers import WIRE_STAGES, wire_stages, Spans  # noqa: E402


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args: str) -> tuple[int, str, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--toy", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, proc.stdout + proc.stderr, result


def test_oracle_fails_perturbed_answers():
    code, output, result = _run("--workload", "warm_read", "--seed", "3",
                                "--trace", "1", "--perturb")
    assert code != 0, output
    assert "mismatch" in output, output
    assert result is None or not result["correct"]


def test_traced_warm_stages_tile_client_latency():
    args = argparse.Namespace(workload="mixed_rw", seed=4, seconds=1.0,
                                  toy=True, perturb=False)
    bench = run.Bench(args)
    out = bench.one_server("selftest", timed=True, traced=True)
    index = Spans(out["spans"])
    warm = [r for r in out["timed_records"] if r[1] == "warm"]
    assert warm
    for rid, _, _, t_send, t_recv, _ in warm:
        stages = wire_stages(index, rid, t_send, t_recv)
        assert stages is not None, f"request {rid} has incomplete spans"
        parts = [stages[name] for name in WIRE_STAGES]
        assert all(p >= 0 for p in parts), (rid, stages)
        assert abs(sum(parts) - (t_recv - t_send)) < 1e-9


def test_traced_runs_print_overhead_and_every_layer_metric():
    names = {m["name"] for m in _spec()["per_layer"]}
    for workload in ("warm_read", "cold_observe", "mixed_rw"):
        code, output, result = _run("--workload", workload, "--seed", "5",
                                    "--trace", "1")
        assert code == 0, output
        assert "# tracing overhead (traced / untraced):" in output, output
        assert set(result["metrics"]) == names, set(result["metrics"]) ^ names


def test_untraced_runs_pass_the_oracle_on_two_seeds():
    names = {m["name"] for m in _spec()["end_to_end"]}
    for workload in ("warm_read", "cold_observe", "mixed_rw"):
        for seed in ("1", "2"):
            code, output, result = _run("--workload", workload, "--seed", seed,
                                        "--trace", "0")
            assert code == 0, output
            assert result["correct"] and result["failed"] == 0, output
            assert set(result["metrics"]) == names
            assert all(m["value"] > 0 for m in result["metrics"].values()), result


def main() -> int:
    failed = 0
    for name, test in sorted(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {str(exc)[:2000]}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
