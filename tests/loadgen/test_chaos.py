"""Chaos drills: SIGKILL workers mid-observe and servers mid-checkpoint.

Two recovery contracts, asserted end to end:

- killing every process-pool worker while a served query is sampling
  must rescue the pass in-process with a **byte-identical** tally — the
  client sees the same answer a serial run produces, never an error;
- SIGKILLing the whole server while it is checkpointing after every
  request must leave the state dir restorable (atomic snapshot writes),
  and a warm restart must answer **byte-identically** to the killed
  server.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import StabilitySession
from repro.cli import load_csv_dataset
from repro.loadgen import WorkloadSpec, make_dataset
from repro.server import (
    ServeClient,
    ServerConfig,
    SessionRegistry,
    serve_in_thread,
)

pytestmark = pytest.mark.slow


QUERY = {
    "op": "top_stable", "m": 2, "kind": "topk_set", "k": 3,
    "backend": "randomized", "budget": 500,
}


class TestWorkerKill:
    def test_worker_sigkill_mid_observe_answers_identically(self):
        """SIGKILL the shared-memory pool's workers while a cold query
        observes; the engine rescues in-process and the served answer
        matches a serial session byte for byte."""
        spec = WorkloadSpec(dataset_items=3000, dataset_seed=3)
        dataset = make_dataset(spec)
        budget = 60_000
        # One worker: killing a process whose sibling is still mid-spawn
        # can wedge the broken executor's management thread at exit.
        registry = SessionRegistry(
            seed=7, executor="process", max_workers=1
        )
        registry.add_dataset("default", dataset)
        handle = serve_in_thread(registry, config=ServerConfig())
        box: dict = {}
        try:
            def drive():
                with ServeClient(
                    host=handle.host, port=handle.port, timeout=90.0
                ) as c:
                    box["response"] = c.request(
                        {"op": "top_stable", "m": 2, "kind": "topk_set",
                         "k": 3, "budget": budget}
                    )

            thread = threading.Thread(target=drive)
            thread.start()
            # The engine is lazy: wait for the pool to exist, then
            # SIGKILL every live worker while the pass is in flight.
            killed = 0
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not killed:
                managed = handle.server.registry._active.get("default")
                engine = (
                    managed.session._observer._proc if managed else None
                )
                pool = getattr(engine, "_pool", None)
                workers = [
                    process
                    for process in list((pool._processes or {}).values())
                    if process.is_alive()
                ] if pool is not None and pool._processes else []
                if workers:
                    for process in workers:
                        process.kill()
                        killed += 1
                else:
                    time.sleep(0.002)
            thread.join(timeout=120)
            assert not thread.is_alive(), "query never answered"
            assert killed > 0, "pool never spun up — no chaos injected"
        finally:
            handle.stop()

        response = box["response"]
        assert response["ok"] is True, response
        with StabilitySession(dataset, seed=7, executor="serial") as ref:
            expected = ref.top_stable(
                2, kind="topk_set", k=3, budget=budget
            )
        got = response["result"]
        assert [r["ranking"] for r in got] == [
            [int(i) for i in e.ranking.order] for e in expected
        ]
        assert [r["stability"] for r in got] == [
            e.stability for e in expected
        ]
        assert [r["sample_count"] for r in got] == [
            e.sample_count for e in expected
        ]


def _start_server(csv_path, state_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", str(csv_path),
            "--tcp", "127.0.0.1:0", "--state-dir", str(state_dir),
            "--checkpoint-every", "1", "--seed", "7", "--executor", "serial",
        ],
        cwd="/root/repo",
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    import selectors

    selector = selectors.DefaultSelector()
    selector.register(proc.stderr, selectors.EVENT_READ)
    if not selector.select(timeout=60):
        proc.kill()
        raise AssertionError("server produced no announcement within 60s")
    line = proc.stderr.readline().decode()
    try:
        announcement = json.loads(line)
        host, port = announcement["serving"].split(":")
    except (ValueError, KeyError):
        proc.kill()
        raise AssertionError(f"server never announced: {line!r}")
    return proc, host, int(port)


class TestServerKill:
    def test_sigkill_mid_checkpoint_recovers_warm_and_identical(
        self, tmp_path
    ):
        rows = np.random.default_rng(41).uniform(size=(120, 3))
        csv_path = tmp_path / "items.csv"
        csv_path.write_text(
            "\n".join(
                ",".join(f"{value:.9f}" for value in row) for row in rows
            )
        )
        state_dir = tmp_path / "state"
        state_dir.mkdir()

        proc, host, port = _start_server(csv_path, state_dir)
        try:
            with ServeClient(host=host, port=port) as client:
                first = client.request(dict(QUERY))
                assert first["ok"] is True, first
                # checkpoint-every=1: every request below lands a
                # snapshot write, so the SIGKILL races checkpointing.
                stop = threading.Event()

                def hammer():
                    try:
                        with ServeClient(host=host, port=port) as c:
                            k = 2
                            while not stop.is_set():
                                c.request(
                                    {"op": "top_stable", "m": 1,
                                     "kind": "topk_set", "k": 2 + (k % 4),
                                     "budget": 400}
                                )
                                k += 1
                    except Exception:
                        pass  # the kill severs this connection

                thread = threading.Thread(target=hammer)
                thread.start()
                time.sleep(0.4)
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait(timeout=30)
                stop.set()
                thread.join(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        # The state dir survived the kill: snapshots restore typed.
        snapshots = sorted(state_dir.glob("*.snap"))
        assert snapshots, "no snapshot survived --checkpoint-every 1"
        dataset = load_csv_dataset(csv_path)
        with StabilitySession.restore(
            snapshots[0], dataset, executor="serial"
        ) as restored:
            assert len(restored.stats()["configs"]) > 0

        # A warm restart answers the original query byte-identically.
        proc2, host2, port2 = _start_server(csv_path, state_dir)
        try:
            with ServeClient(host=host2, port=port2) as client:
                again = client.request(dict(QUERY))
        finally:
            proc2.kill()
            proc2.wait(timeout=30)
        assert again["ok"] is True, again
        assert again["result"] == first["result"]
