"""Network front-end acceptance benchmark: concurrency, fidelity, drain.

Three claims back the ``repro.server`` subsystem:

1. **Concurrent throughput** — 8 TCP clients each running a mixed
   warm/cold batch over one ``n = 10_000`` dataset against a shared
   server finish at **>= 3x** the aggregate throughput of sequential
   stdio serving (one *fresh* single-client session per client — the
   pre-server protocol, where Monte-Carlo pools are reachable by
   exactly one process, so every client pays its own cold sampling).
2. **Fidelity** — every response any concurrent client receives is
   **byte-identical** to a serial single-session run of the same
   requests: the session locks serialize pool growth (once, to the
   shared target), so concurrency never changes answers.
3. **Warm rolling restart** — draining the server (the SIGTERM path)
   checkpoints every dirty session; a restarted server answers its
   first query **>= 5x** faster than a cold session computing it from
   scratch (the PR 3 floor, now holding across a server generation).

Runs standalone (``python benchmarks/bench_server.py [--smoke]``) or
under pytest.  ``--smoke`` shrinks budgets for CI wall-clock; the 3x
claim is asserted at full size only (tiny budgets are dominated by
fixed per-request overhead on both sides), fidelity and the restore
floor in both modes.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import time

import numpy as np

from repro import Dataset, StabilitySession
from repro.server import (
    ServeClient,
    ServerConfig,
    SessionRegistry,
    serve_in_thread,
)
from repro.server import protocol

N_ITEMS = 10_000
N_ATTRS = 4
K = 10
N_CLIENTS = 8
MIN_SPEEDUP = 3.0
MIN_RESTORE_SPEEDUP = 5.0
SEED = 20180905


def _client_batch(budget: int, prefix: list[int]) -> list[dict]:
    """One client's mixed warm/cold batch (idempotent ops only, so the
    answers of every client are comparable to one serial run)."""
    return [
        {"op": "top_stable", "m": 3, "kind": "topk_set", "k": K,
         "backend": "randomized", "budget": budget},
        {"op": "top_stable", "m": 3, "kind": "topk_ranked", "k": K,
         "backend": "randomized", "budget": budget},
        {"op": "stability_of", "kind": "full", "ranking": prefix,
         "min_samples": budget},
        {"op": "top_stable", "m": 5, "kind": "topk_set", "k": K,
         "backend": "randomized", "budget": budget},       # warm repeat+
        {"op": "stability_of", "kind": "topk_ranked", "k": K,
         "backend": "randomized", "ranking": prefix, "min_samples": budget},
        {"op": "top_stable", "m": 3, "kind": "topk_set", "k": K,
         "backend": "randomized", "budget": budget},       # warm repeat
        {"op": "top_stable", "m": 3, "kind": "topk_ranked", "k": K,
         "backend": "randomized", "budget": budget},       # warm repeat
        {"op": "stability_of", "kind": "full", "ranking": prefix[:5],
         "min_samples": budget},                           # prefix fast path
    ]


def _serial_answers(dataset: Dataset, requests: list[dict]) -> list[str]:
    """Ground truth: one session, requests in order, result payloads."""
    answers = []
    with StabilitySession(dataset, seed=SEED, executor="serial") as session:
        for request in requests:
            handled = protocol.dispatch(session, dataset, request)
            assert handled.response["ok"] is True, handled.response
            answers.append(json.dumps(handled.response["result"]))
    return answers


def _sequential_stdio(dataset: Dataset, requests: list[dict]) -> float:
    """The pre-server protocol: clients take turns, each with its own
    fresh single-client session (stdio serve = one session per process;
    no pool is shared across clients)."""
    start = time.perf_counter()
    for _ in range(N_CLIENTS):
        with StabilitySession(dataset, seed=SEED, executor="serial") as session:
            for request in requests:
                handled = protocol.dispatch(session, dataset, request)
                assert handled.response["ok"] is True, handled.response
    return time.perf_counter() - start


def _concurrent_tcp(
    handle, requests: list[dict]
) -> tuple[float, list[list[str]]]:
    """All clients at once against the shared server; returns the wall
    time and every client's result payloads."""
    results: list[list[str] | None] = [None] * N_CLIENTS
    errors: list[Exception] = []
    barrier = threading.Barrier(N_CLIENTS + 1)

    def worker(idx: int) -> None:
        try:
            with ServeClient(host=handle.host, port=handle.port) as client:
                barrier.wait(timeout=60)
                answers = []
                for request in requests:
                    response = client.request(dict(request))
                    assert response["ok"] is True, response
                    answers.append(json.dumps(response["result"]))
                results[idx] = answers
        except Exception as exc:  # surfaced by the caller
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=600)
    elapsed = time.perf_counter() - start
    assert not errors, errors
    assert all(answers is not None for answers in results)
    return elapsed, results  # type: ignore[return-value]


def _restart_latency(
    dataset: Dataset, state_dir: str, probe: dict
) -> tuple[float, float]:
    """First-query latency: cold session vs restarted (restored) server."""
    with StabilitySession(dataset, seed=SEED + 1, executor="serial") as cold:
        request = {
            key: value for key, value in probe.items() if key != "op"
        }
        start = time.perf_counter()
        cold.top_stable(request.pop("m"), **request)
        cold_seconds = time.perf_counter() - start
    registry = SessionRegistry(state_dir=state_dir, seed=SEED, executor="serial")
    registry.add_dataset("default", dataset)
    handle = serve_in_thread(registry, config=ServerConfig())
    try:
        with ServeClient(host=handle.host, port=handle.port) as client:
            start = time.perf_counter()
            warm = client.request(dict(probe))
            warm_seconds = time.perf_counter() - start
        assert warm["ok"] is True and warm["cached"] is True, warm
    finally:
        handle.stop()
    return cold_seconds, warm_seconds


def _wire_stage_breakdown(dataset: Dataset, budget: int) -> dict:
    """Cold traced request over TCP: the shared ``"stages"`` schema,
    as echoed back by the server's ``"trace": true`` protocol field."""
    registry = SessionRegistry(seed=SEED + 2, executor="serial")
    registry.add_dataset("default", dataset)
    handle = serve_in_thread(registry, config=ServerConfig())
    try:
        with ServeClient(host=handle.host, port=handle.port) as client:
            response = client.top_stable(
                3, kind="topk_set", k=K, backend="randomized",
                budget=budget, trace=True,
            )
    finally:
        handle.stop()
    assert response["ok"] is True and "trace" in response, response
    stages = dict(response["trace"])
    stages.pop("trace_id", None)
    return stages


def run(*, smoke: bool = False, verbose: bool = True) -> dict:
    budget = 800 if smoke else 4_000
    dataset = Dataset(
        np.random.default_rng(SEED).uniform(size=(N_ITEMS, N_ATTRS))
    )
    # A feasible ranked prefix to verify (from a throwaway warmup pool).
    from repro.core.randomized import GetNextRandomized

    warmup = GetNextRandomized(
        dataset, kind="topk_ranked", k=K, rng=np.random.default_rng(99)
    )
    prefix = list(warmup.get_next(budget=300).ranking.order)
    requests = _client_batch(budget, prefix)

    expected = _serial_answers(dataset, requests)
    t_stdio = _sequential_stdio(dataset, requests)

    with tempfile.TemporaryDirectory() as state_dir:
        registry = SessionRegistry(
            state_dir=state_dir, seed=SEED, executor="serial"
        )
        registry.add_dataset("default", dataset)
        handle = serve_in_thread(registry, config=ServerConfig())
        try:
            t_tcp, all_answers = _concurrent_tcp(handle, requests)
            with ServeClient(host=handle.host, port=handle.port) as client:
                pools = client.stats()["stats"]["configs"]
        finally:
            report = handle.stop()
        # Fidelity: every concurrent client == the serial session.
        for answers in all_answers:
            assert answers == expected, "concurrent answers diverged"
        # The shared pools grew exactly once, to the batch target.
        for label, pool in pools.items():
            assert pool["total_samples"] == budget, (label, pool)
        # The drain checkpointed the (dirty) session.
        assert [entry["dataset"] for entry in report] == ["default"]
        cold_s, warm_s = _restart_latency(dataset, state_dir, requests[0])

    speedup = t_stdio / t_tcp if t_tcp > 0 else float("inf")
    restore_speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    total_requests = N_CLIENTS * len(requests)
    if verbose:
        mode = "smoke" if smoke else "full"
        print(
            f"  [{mode}] n={N_ITEMS} d={N_ATTRS} k={K} budget={budget}: "
            f"{N_CLIENTS} clients x {len(requests)} mixed requests"
        )
        print(
            f"  sequential stdio {t_stdio * 1000:8.1f} ms "
            f"({total_requests / t_stdio:7.1f} req/s)   "
            f"concurrent tcp {t_tcp * 1000:8.1f} ms "
            f"({total_requests / t_tcp:7.1f} req/s)"
        )
        print(
            f"  aggregate speedup {speedup:5.2f}x "
            f"(floor {MIN_SPEEDUP}x at full size); answers byte-identical "
            f"across {N_CLIENTS} clients"
        )
        print(
            f"  rolling restart: cold first query {cold_s * 1000:8.1f} ms   "
            f"restarted-warm {warm_s * 1000:8.1f} ms   "
            f"speedup {restore_speedup:7.1f}x (floor {MIN_RESTORE_SPEEDUP}x)"
        )
    stages = _wire_stage_breakdown(dataset, budget)
    if verbose:
        print(
            f"  wire stage breakdown: coverage {stages['coverage']:.2%} of "
            f"{stages['total_seconds'] * 1000:.1f} ms cold traced request"
        )
    return {
        "speedup": speedup,
        "restore_speedup": restore_speedup,
        "stdio_seconds": t_stdio,
        "tcp_seconds": t_tcp,
        "smoke": float(smoke),
        "stages": stages,
    }


def test_concurrent_throughput_and_fidelity():
    metrics = run(verbose=True)
    assert metrics["speedup"] >= MIN_SPEEDUP, (
        f"concurrent serving only {metrics['speedup']:.2f}x sequential "
        f"stdio; the server tier requires >= {MIN_SPEEDUP}x"
    )
    assert metrics["restore_speedup"] >= MIN_RESTORE_SPEEDUP, (
        f"warm restart only {metrics['restore_speedup']:.2f}x a cold "
        f"first query; rolling restarts require >= {MIN_RESTORE_SPEEDUP}x"
    )


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    metrics = run(smoke=smoke, verbose=True)
    # Smoke floors fail the job on regression, not only on crashes; the
    # aggregate-throughput claim keeps a relaxed >1x bar at smoke sizes.
    floors = [
        ("restore_speedup", metrics["restore_speedup"], MIN_RESTORE_SPEEDUP,
         metrics["restore_speedup"] >= MIN_RESTORE_SPEEDUP),
        ("concurrent_speedup", metrics["speedup"],
         1.0 if smoke else MIN_SPEEDUP,
         metrics["speedup"] > 1.0 if smoke
         else metrics["speedup"] >= MIN_SPEEDUP),
    ]
    metrics["floors"] = [
        {"name": name, "value": value, "floor": floor, "passed": passed}
        for name, value, floor, passed in floors
    ]
    with open("BENCH_server.json", "w") as handle:
        json.dump(metrics, handle, indent=2, sort_keys=True)
        handle.write("\n")
    failed = [entry for entry in metrics["floors"] if not entry["passed"]]
    for entry in failed:
        print(
            f"  FLOOR REGRESSION: {entry['name']}: {entry['value']:.4f} "
            f"vs floor {entry['floor']}",
            file=sys.stderr,
        )
    raise SystemExit(1 if failed else 0)
