"""Importing the kernel pins every loaded OpenBLAS to one thread.

Each check runs in a fresh interpreter: the thread count OpenBLAS
starts with comes from ``OPENBLAS_NUM_THREADS`` at library load, so
only a new process shows what the import does to it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Thread counts of every loaded OpenBLAS, then the tally of a tied
#: integer case (n=300, d=2) whose scores a two-thread OpenBLAS GEMM
#: rounds differently in the last bits, changing the tally.
PROBE = """
import ctypes, hashlib, json
import numpy as np
from repro import Dataset
from repro.core.randomized import GetNextRandomized

values = np.random.default_rng(72).integers(0, 4, size=(300, 2)).astype(float)
op = GetNextRandomized(Dataset(values), rng=np.random.default_rng(72))
op.observe(2_000)
state = op.tally.export_state()
threads = []
with open("/proc/self/maps") as maps:
    paths = {line.split(None, 5)[5].strip() for line in maps if "openblas" in line}
for path in sorted(paths):
    lib = ctypes.CDLL(path)
    threads += [getattr(lib, prefix + "openblas_get_num_threads" + suffix)()
                for prefix in ("", "scipy_") for suffix in ("", "64_", "_64")
                if hasattr(lib, prefix + "openblas_get_num_threads" + suffix)]
print(json.dumps({
    "threads": threads,
    "tally": hashlib.sha256(state["keys"] + state["counts"].tobytes()).hexdigest(),
}))
"""

#: CPU and wall time of two serial cold top-k observes at n=10K.
CPU_PROBE = """
import json, time
import numpy as np
from repro import Dataset
from repro.core.randomized import GetNextRandomized

values = np.random.default_rng(0).uniform(size=(10_000, 4))
cpu = wall = 0.0
for seed in (0, 1):
    op = GetNextRandomized(Dataset(values), kind="topk_ranked", k=10,
                           rng=np.random.default_rng(seed))
    c0, w0 = time.process_time(), time.perf_counter()
    op.observe(10_000)
    cpu += time.process_time() - c0
    wall += time.perf_counter() - w0
print(json.dumps({"cpu": cpu, "wall": wall}))
"""


def _start(code: str, threads: int) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": str(threads)}
    return subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE, text=True)


def _result(proc: subprocess.Popen) -> dict:
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    return json.loads(out.splitlines()[-1])


@pytest.fixture(scope="module")
def probes():
    """The probe under one and two BLAS threads, run side by side; the
    module's tests skip where numpy runs on another BLAS (MKL,
    Accelerate), which the kernel leaves alone."""
    procs = {threads: _start(PROBE, threads) for threads in (1, 2)}
    results = {threads: _result(proc) for threads, proc in procs.items()}
    if not results[2]["threads"]:
        pytest.skip("no OpenBLAS loaded on this host")
    return results


def test_every_loaded_openblas_runs_one_thread(probes):
    assert set(probes[2]["threads"]) == {1}


def test_blas_thread_setting_does_not_change_tallies(probes):
    assert probes[1]["tally"] == probes[2]["tally"]


def test_serial_cold_observe_runs_on_one_core(probes):
    probe = _result(_start(CPU_PROBE, 2))
    assert probe["cpu"] <= 1.3 * probe["wall"], probe
