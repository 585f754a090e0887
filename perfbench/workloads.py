"""Seeded inputs and the three workload definitions of the benchmark.

Everything a run sends is derived here from ``--seed``: the datasets,
the request vocabularies (after the oracle has filled its pools) and
the Zipf draws over them.  The server process receives only the
generated datasets; the driver process builds the identical arrays and
checks their fingerprints against the server's ready line.

This module imports numpy only, so the server launcher can import it
without pulling the driver's code in.
"""

from __future__ import annotations

import json

import numpy as np

#: The server's default per-session result cache (``cache_size=512``);
#: working sets below are stated against it.
RESULT_CACHE_ENTRIES = 512

#: Sampling seed of every served session (the registry's default).  The
#: benchmark seed varies the inputs; the answers' randomness stays fixed.
SESSION_SEED = 0

#: Per-connection pipelining limit of the default ``ServerConfig``.
SERVER_WINDOW = 8

WORKLOADS = ("warm_read", "cold_observe", "mixed_rw")

#: Zipf exponent of warm-read popularity.  It is the default of the
#: repository's own traffic model (``repro.loadgen.WorkloadSpec.config_skew``),
#: so the benchmark's reads are as skewed as the traffic the soak and
#: replay tools generate.
ZIPF_S = 1.2


def sizes(workload: str, *, toy: bool = False) -> dict:
    """The input sizes of one workload (``toy``: the self-test scale)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    n = 2_000 if toy else 10_000
    base = {
        "n": n,
        "d": 4,
        "k": 10,
        # The priming cold query every set-up runs: cold_observe's query.
        "cold_kind": "topk_ranked",
        "cold_m": 3,
        "cold_budget": 2_000 if toy else 10_000,
        "pool_budget": 500 if toy else 5_000,
        "cache_entries": RESULT_CACHE_ENTRIES,
    }
    if workload == "warm_read":
        base.update(
            datasets={"uniform": "uniform"},
            warm_dataset="uniform",
            warm_keys=64,
            working_set=64,
            top_stable_m=5,
            zipf_s=ZIPF_S,
            warm_window=SERVER_WINDOW,
            lru_warmup="every key once",
        )
    elif workload == "cold_observe":
        base.update(
            # Two seeded uniform datasets, queried in turn.  Set-up primes
            # both at once, so the server's two write threads both exist
            # before the timed phase instead of the second one appearing
            # at a random query (each brings its own malloc arena, which
            # moved peak RSS by 20-65 MiB).
            datasets={"uniform": "uniform", "uniform_b": "uniform"},
            warm_dataset="uniform",
            cold_datasets=["uniform", "uniform_b"],
            cold_window=1,
            # After each query, this long a burst of pipelined cache-hit
            # re-reads of its answer: the warm figures of this workload.
            warm_burst_s=0.03 if toy else 0.15,
            working_set=2,
            warm_window=SERVER_WINDOW,
        )
    else:
        base.update(
            datasets={"hot": "uniform", "cold": "anticorrelated"},
            warm_dataset="hot",
            cold_datasets=["cold"],
            warm_keys=256 if toy else 2_048,
            # The warm keys plus the cold dataset's one answer.
            working_set=(256 if toy else 2_048) + 1,
            top_stable_m=5,
            zipf_s=ZIPF_S,
            warm_window=SERVER_WINDOW,
            cold_window=1,
            write_budget=200 if toy else 1_000,
            lru_warmup_draws=512 if toy else 2_048,
        )
    base["working_set_vs_cache"] = round(
        base["working_set"] / RESULT_CACHE_ENTRIES, 4
    )
    return base


# ----------------------------------------------------------------------
# Datasets
# ----------------------------------------------------------------------
def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(tag)])


def uniform(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Independent U(0, 1) attributes."""
    return rng.random((n, d))


def anticorrelated(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Items near the hyperplane ``sum(x) = d/2``: good in one attribute,
    bad in another, so few items dominate others and the k-skyband
    keeps most of the data (pruning pays least)."""
    level = np.clip(rng.normal(0.5, 0.05, size=n), 0.05, 0.95) * d
    split = rng.dirichlet(np.ones(d), size=n)
    jitter = rng.normal(0.0, 0.02, size=(n, d))
    return np.clip(split * level[:, None] + jitter, 0.0, 1.0)


_GENERATORS = {"uniform": (uniform, 1), "anticorrelated": (anticorrelated, 2)}


def build_values(workload: str, seed: int, *, toy: bool = False) -> dict:
    """``{dataset name: (n, d) float64 array}`` for one workload."""
    spec = sizes(workload, toy=toy)
    out = {}
    for index, (name, kind) in enumerate(spec["datasets"].items()):
        make, tag = _GENERATORS[kind]
        out[name] = make(_stream(seed, 10 * index + tag), spec["n"], spec["d"])
    return out


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def cold_query(spec: dict, dataset: str, budget: int) -> dict:
    return {
        "op": "top_stable", "dataset": dataset, "m": spec["cold_m"],
        "kind": spec["cold_kind"], "k": spec["k"], "backend": "randomized",
        "budget": int(budget),
    }


def invalidate(dataset: str) -> dict:
    return {"op": "invalidate", "dataset": dataset}


def top_stable(spec: dict, dataset: str, kind: str, m: int) -> dict:
    return {
        "op": "top_stable", "dataset": dataset, "m": int(m), "kind": kind,
        "k": spec["k"], "backend": "randomized",
        "budget": spec["pool_budget"],
    }


def stability_of(spec: dict, dataset: str, kind: str, ranking) -> dict:
    return {
        "op": "stability_of", "dataset": dataset, "kind": kind,
        "k": spec["k"], "backend": "randomized",
        "ranking": [int(i) for i in ranking],
        "min_samples": spec["pool_budget"],
    }


def pool_fills(spec: dict, dataset: str) -> list[dict]:
    """The set-up requests that grow both warm pools to ``pool_budget``."""
    return [
        top_stable(spec, dataset, kind, spec["top_stable_m"])
        for kind in ("topk_set", "topk_ranked")
    ]


def warm_vocabulary(spec: dict, seed: int, pool_rankings: dict) -> list[dict]:
    """The warm working set: every ``top_stable`` with ``m = 1..M`` on
    both top-k kinds, then ``stability_of`` over rankings drawn (seeded)
    from the filled pools.  ``pool_rankings`` maps kind -> the pool's
    distinct rankings, most frequent first."""
    dataset = spec["warm_dataset"]
    vocab = [
        top_stable(spec, dataset, kind, m)
        for kind in ("topk_set", "topk_ranked")
        for m in range(1, spec["top_stable_m"] + 1)
    ]
    want = spec["warm_keys"] - len(vocab)
    # A small working set draws from the head of each pool, so its
    # stabilities are not all one-count rarities.
    head = 200 if spec["warm_keys"] <= 64 else None
    candidates = [
        (kind, tuple(ranking))
        for kind in ("topk_set", "topk_ranked")
        for ranking in pool_rankings[kind][:head]
    ]
    if len(candidates) < want:
        raise ValueError(
            f"the pools hold {len(candidates)} distinct rankings; "
            f"the working set needs {want}"
        )
    picks = _stream(seed, 3).choice(len(candidates), size=want, replace=False)
    vocab.extend(
        stability_of(spec, dataset, *candidates[i]) for i in sorted(picks)
    )
    return vocab


def zipf_draws(seed: int, n_keys: int, count: int, s: float, *, tag: int) -> np.ndarray:
    """``count`` key indices with Zipf(``s``) popularity over a seeded
    permutation of the keys (which key is hot depends on the seed)."""
    rng = _stream(seed, tag)
    weights = 1.0 / np.arange(1, n_keys + 1, dtype=np.float64) ** s
    order = rng.permutation(n_keys)
    ranks = rng.choice(n_keys, size=count, p=weights / weights.sum())
    return order[ranks].astype(np.int32)


def encode_tail(request: dict) -> bytes:
    """The request line after its ``{`` — the driver splices a fresh
    ``"id"`` in front, so each line costs one bytes format to send."""
    body = json.dumps(request, separators=(",", ":"))
    return body[1:].encode() + b"\n"


def line(rid: int, tail: bytes) -> bytes:
    return b'{"id":%d,%s' % (rid, tail)
