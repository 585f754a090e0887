"""Chaos drill: SIGKILL a server mid-checkpoint.

SIGKILLing the whole server while it is checkpointing after every
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
from pathlib import Path

import numpy as np
import pytest

from repro import StabilitySession
from repro.cli import load_csv_dataset
from repro.server import ServeClient

pytestmark = pytest.mark.slow

#: The checkout under test: its own ``src`` serves, whatever the cwd.
ROOT = Path(__file__).resolve().parents[2]

QUERY = {
    "op": "top_stable", "m": 2, "kind": "topk_set", "k": 3,
    "backend": "randomized", "budget": 500,
}


def _start_server(csv_path, state_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", str(csv_path),
            "--tcp", "127.0.0.1:0", "--state-dir", str(state_dir),
            "--checkpoint-every", "1", "--seed", "7", "--executor", "serial",
        ],
        cwd=ROOT,
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
