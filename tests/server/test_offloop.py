"""Off-loop observe: reads stay responsive while a cold pool grows.

The server claim behind the dedicated write-dispatch thread pool: a
long cold observe on one dataset must not freeze the event loop or
starve warm reads on another dataset.  These tests drive a real TCP
server with one deliberately slow cold write in flight and assert that
concurrent warm reads (a different dataset) and control ops keep
completing *during* the write — plus that the drain path shuts the
sessions' observe worker threads down.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.server import ServeClient
from server_testlib import make_dataset, running_server

#: Big enough that the cold observe takes a macroscopic slice of time
#: even on one core, small enough for the fast tier.
COLD_BUDGET = 60_000


def _cold_write(n: int = 2_600) -> dict:
    return {
        "op": "top_stable",
        "m": 2,
        "kind": "topk_set",
        "k": 5,
        "backend": "randomized",
        "budget": COLD_BUDGET,
        "dataset": "cold",
    }


@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_reads_interleave_with_cold_observe(executor):
    cold = make_dataset(n=2_600, seed=1)
    warm = make_dataset(n=150, seed=2)
    with running_server(
        warm,
        datasets={"cold": cold},
        registry_fields={"executor": executor, "max_workers": 2},
    ) as handle:
        with ServeClient(host=handle.host, port=handle.port) as reader:
            # Warm the read dataset so its queries classify as reads.
            warmup = {
                "op": "top_stable", "m": 2, "kind": "topk_set", "k": 4,
                "backend": "randomized", "budget": 400,
            }
            assert reader.request(dict(warmup))["ok"] is True

            write_done = threading.Event()
            write_result: dict = {}

            def writer():
                with ServeClient(host=handle.host, port=handle.port) as w:
                    write_result.update(w.request(_cold_write()))
                write_done.set()

            thread = threading.Thread(target=writer)
            thread.start()
            reads_during_write = 0
            latencies = []
            try:
                while not write_done.is_set() and reads_during_write < 200:
                    start = time.perf_counter()
                    response = reader.request(dict(warmup))
                    latencies.append(time.perf_counter() - start)
                    assert response["ok"] is True, response
                    if not write_done.is_set():
                        reads_during_write += 1
            finally:
                thread.join(timeout=120)
            assert write_result.get("ok") is True, write_result
            # The load was real (the write outlived many reads) and the
            # loop kept serving: reads completed while the cold observe
            # was still in flight.
            assert reads_during_write >= 3, (
                f"only {reads_during_write} reads completed during the "
                f"cold observe — the loop blocked on the write"
            )


def _observe_threads() -> set[threading.Thread]:
    return {
        thread for thread in threading.enumerate()
        if thread.name.startswith("repro-observe")
    }


def test_drain_shuts_worker_pools_down(tmp_path):
    dataset = make_dataset(n=2_600, seed=3)
    before = _observe_threads()
    with running_server(
        dataset,
        state_dir=tmp_path,
        registry_fields={"executor": "thread", "max_workers": 2},
    ) as handle:
        with ServeClient(host=handle.host, port=handle.port) as client:
            response = client.request(
                {
                    "op": "top_stable", "m": 2, "kind": "topk_set", "k": 4,
                    "backend": "randomized", "budget": 4_096,
                }
            )
            assert response["ok"] is True
        # The session grew its pool on its thread pool: workers are live.
        assert _observe_threads() - before
        # Holding the session keeps its pool from being garbage
        # collected, so only the drain's close() can end the workers.
        session = handle.server.registry._active["default"].session
        report = handle.stop()
    # Graceful drain checkpointed the dirty session AND joined the
    # session's observe worker threads.
    assert [entry["dataset"] for entry in report] == ["default"]
    assert not _observe_threads() - before
    assert session.observer.mode == "thread"
