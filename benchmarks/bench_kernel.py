"""Kernel acceptance benchmark: QMC sample savings, reduction timing.

One claim backs the precision machinery:

- **Quasi-MC sample savings** — randomised Halton points reach a fixed
  empirical RMS error on a known cap-volume target with **<= 0.5x**
  the samples plain MC needs (extending
  ``bench_ablation_quasi_mc.py``'s fixed-budget comparison to a
  samples-to-precision ladder — the quantity the ``"ci:..."`` budget
  controller actually spends).  The ladder is cheap, so every run
  (smoke or full) runs all of it and asserts the ceiling.

Alongside, it times the chunk reduction of ``repro.engine.kernels``
(score block -> per-row top-k -> pack -> ``np.unique``) on
pre-sampled chunks and records a traced cold observe's stage
breakdown; both are reported, not asserted.  Every run emits a
machine-readable ``BENCH_kernel.json`` so the perf trajectory is
tracked.

Run: ``python benchmarks/bench_kernel.py [--smoke] [--json PATH]``.
"""

from __future__ import annotations

import json
import math
import sys
import time

import numpy as np

from repro.engine import kernel, kernels
from repro.geometry.spherical import cap_area
from repro.sampling.cap import sample_cap
from repro.sampling.quasi import quasi_cap_points

N_ITEMS = 100_000
N_ITEMS_SMOKE = 5_000
K = 10
CHUNK = 512
N_CHUNKS = 8
N_CHUNKS_SMOKE = 3
MAX_QMC_SAMPLE_RATIO = 0.5
QMC_TARGET_RMSE = 0.01
QMC_LADDER = (125, 250, 500, 1_000, 2_000, 4_000, 8_000, 16_000)
QMC_REPLICATIONS = 16
QMC_DIM = 3
QMC_THETA = 0.3
SEED = 20180905
JSON_PATH = "BENCH_kernel.json"


def _reduction_benchmark(n_items: int, n_chunks: int) -> dict:
    """Seconds for one pass of the chunk reduction over pre-sampled
    chunks (after an untimed warm-up pass), so timing sees only it."""
    rng = np.random.default_rng(SEED)
    values = rng.uniform(0.05, 1.0, size=(n_items, 4))
    chunks = [
        np.abs(rng.standard_normal((CHUNK, 4))) + 1e-9
        for _ in range(n_chunks)
    ]
    backend = kernels.KernelBackend()
    dtype = kernel.key_dtype_for(n_items)
    out = np.empty((CHUNK, n_items))

    def one_pass() -> float:
        start = time.perf_counter()
        for weights in chunks:
            backend.reduce_chunk(
                values, weights, kind="topk_set", k=K, key_dtype=dtype, out=out
            )
        return time.perf_counter() - start

    one_pass()  # warm-up: page faults, first-touch of the score buffer
    return {
        "n_items": n_items,
        "k": K,
        "chunk": CHUNK,
        "chunks": n_chunks,
        "numpy_seconds": one_pass(),
    }


def _qmc_truth() -> float:
    inner = QMC_THETA / math.e
    return cap_area(QMC_DIM, inner) / cap_area(QMC_DIM, QMC_THETA)


def _rmse(sampler: str, budget: int) -> float:
    axis = np.full(QMC_DIM, 1.0 / math.sqrt(QMC_DIM))
    threshold = math.cos(QMC_THETA / math.e)
    truth = _qmc_truth()
    errors = []
    for rep in range(QMC_REPLICATIONS):
        rng = np.random.default_rng([SEED, rep, budget])
        if sampler == "mc":
            points = sample_cap(axis, QMC_THETA, budget, rng)
        else:
            points = quasi_cap_points(axis, QMC_THETA, budget, rng=rng)
        errors.append(float(np.mean(points @ axis >= threshold)) - truth)
    return float(np.sqrt(np.mean(np.square(errors))))


def _samples_to_width(sampler: str, target: float, ladder) -> int:
    """Smallest ladder budget whose empirical RMSE meets ``target``
    (0 when even the top rung misses — the ratio then stays unmeasured
    rather than lying)."""
    for budget in ladder:
        if _rmse(sampler, budget) <= target:
            return budget
    return 0


def _qmc_benchmark() -> dict:
    """The samples-to-precision ladder; cheap (cap sampling only), so
    smoke runs the full ladder and arms its ceiling too."""
    mc_samples = _samples_to_width("mc", QMC_TARGET_RMSE, QMC_LADDER)
    qmc_samples = _samples_to_width("qmc", QMC_TARGET_RMSE, QMC_LADDER)
    measured = mc_samples > 0 and qmc_samples > 0
    return {
        "target_rmse": QMC_TARGET_RMSE,
        "ladder": list(QMC_LADDER),
        "replications": QMC_REPLICATIONS,
        "mc_samples_to_width": mc_samples,
        "qmc_samples_to_width": qmc_samples,
        "measured": measured,
        "ratio": qmc_samples / mc_samples if measured else 0.0,
    }


def _stage_breakdown(n_items: int, n_chunks: int) -> dict:
    """Cold serial observe under a trace: the shared ``"stages"``
    schema, with per-chunk sample/reduce/fold timings aggregated."""
    from repro import obs
    from repro.core.dataset import Dataset
    from repro.core.randomized import GetNextRandomized

    dataset = Dataset(
        np.random.default_rng(SEED + 1).uniform(0.05, 1.0, size=(n_items, 4))
    )
    op = GetNextRandomized(
        dataset, kind="topk_set", k=K, rng=np.random.default_rng(3)
    )
    with obs.trace("bench.kernel_observe") as t:
        op.observe(n_chunks * CHUNK)
    return obs.stage_report(t)


def run(*, smoke: bool = False, verbose: bool = True) -> dict:
    n_items = N_ITEMS_SMOKE if smoke else N_ITEMS
    n_chunks = N_CHUNKS_SMOKE if smoke else N_CHUNKS
    reduction = _reduction_benchmark(n_items, n_chunks)
    qmc = _qmc_benchmark()
    metrics = {
        "mode": "smoke" if smoke else "full",
        "stages": _stage_breakdown(n_items, n_chunks),
        "kernel": kernels.KernelBackend.name,
        "reduction": reduction,
        "qmc": qmc,
        "floors": [
            {
                "name": "qmc_vs_mc_samples_to_width_ratio",
                "value": qmc["ratio"],
                "floor": MAX_QMC_SAMPLE_RATIO,
                "comparator": "<=",
                "asserted": True,
                "passed": qmc["measured"]
                and qmc["ratio"] <= MAX_QMC_SAMPLE_RATIO,
            },
        ],
    }
    if verbose:
        print(
            f"  [{metrics['mode']}] reduction n={n_items} k={K} "
            f"chunk={CHUNK}x{n_chunks}: "
            f"{reduction['numpy_seconds'] * 1000:8.1f} ms"
        )
        print(
            f"  samples to rmse<={qmc['target_rmse']}: "
            f"mc {qmc['mc_samples_to_width']}   "
            f"qmc {qmc['qmc_samples_to_width']}   "
            f"ratio {qmc['ratio']:4.2f} (ceiling {MAX_QMC_SAMPLE_RATIO})"
        )
    return metrics


def check_floors(metrics: dict) -> list[str]:
    """Armed floors that failed (empty == pass)."""
    return [
        f"{floor['name']}: {floor['value']:.3f} vs floor {floor['floor']}"
        for floor in metrics["floors"]
        if floor["asserted"] and not floor["passed"]
    ]


def test_reduction_structure():
    reduction = _reduction_benchmark(N_ITEMS_SMOKE, 2)
    assert reduction["numpy_seconds"] > 0


def test_smoke_metrics_structure():
    # Smoke sizes still run the full QMC ladder: its ceiling is armed
    # and must pass, and the JSON payload must be shaped for the
    # trajectory tooling.
    metrics = run(smoke=True, verbose=False)
    floors = {floor["name"]: floor for floor in metrics["floors"]}
    assert set(floors) == {"qmc_vs_mc_samples_to_width_ratio"}
    assert floors["qmc_vs_mc_samples_to_width_ratio"]["asserted"]
    assert floors["qmc_vs_mc_samples_to_width_ratio"]["passed"]
    assert check_floors(metrics) == []


def test_qmc_needs_fewer_samples_than_mc():
    qmc = _qmc_benchmark()
    assert qmc["measured"]
    assert qmc["qmc_samples_to_width"] <= qmc["mc_samples_to_width"]


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    json_path = JSON_PATH
    if "--json" in sys.argv:
        json_path = sys.argv[sys.argv.index("--json") + 1]
    metrics = run(smoke=smoke, verbose=True)
    with open(json_path, "w") as handle:
        json.dump(metrics, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"  wrote {json_path}")
    failed = check_floors(metrics)
    for line in failed:
        print(f"  FLOOR REGRESSION: {line}", file=sys.stderr)
    raise SystemExit(1 if failed else 0)
