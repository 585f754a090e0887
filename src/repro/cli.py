"""Command-line interface for quick stability analyses on CSV files.

The per-query subcommands mirror the library's workflows::

    python -m repro.cli verify data.csv --weights 1,1
    python -m repro.cli enumerate data.csv --top 5
    python -m repro.cli topk data.csv --k 10 --kind set --budget 5000
    python -m repro.cli profile data.csv --items 0,1,2

and two service-layer commands run mixed workloads through a
:class:`~repro.service.StabilitySession` (shared sample pools, result
cache, batch-amortized sampling)::

    python -m repro.cli batch data.csv --requests requests.json
    python -m repro.cli serve data.csv                  # JSON-lines on stdio
    python -m repro.cli serve data.csv --tcp :7701      # asyncio TCP server

``requests.json`` holds a list of request objects, e.g.
``[{"op": "top_stable", "m": 3, "kind": "topk_set", "k": 5}]``;
``serve`` reads one such object per line and answers with one JSON
line each, speaking the versioned protocol of
:mod:`repro.server.protocol` (control ops ``hello``/``ping``/
``stats``/``invalidate``/``checkpoint``/``shutdown``; structured
``{"error": {"code", "message"}}`` failures).  ``--tcp HOST:PORT``
serves many concurrent clients over one shared session registry with
backpressure and graceful, checkpointed drain on SIGTERM.

The CSV must contain one numeric column per scoring attribute (a header
row is auto-detected); an optional ``--label-column NAME`` column holds
item names.  All attributes are min-max normalised, with
``--lower-is-better COL1,COL2`` flipping the named columns.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import (
    Cone,
    Dataset,
    FullSpace,
    ScoringFunction,
    StabilityEngine,
    StabilitySession,
    execute_batch,
    rank_profile,
)
from repro.server.protocol import value_to_json as _value_to_json
from repro.service.config import DURABLE, SessionConfig

__all__ = ["main", "load_csv_dataset"]

#: The subcommands that build a session from :func:`_add_session_dials`.
_SESSION_COMMANDS = ("batch", "serve", "snapshot", "restore")


def load_csv_dataset(
    path: str | Path,
    *,
    label_column: str | None = None,
    lower_is_better: tuple[str, ...] = (),
) -> Dataset:
    """Read a CSV of scoring attributes into a normalised :class:`Dataset`.

    A header row is assumed when the first row contains any non-numeric
    cell; otherwise columns are named ``x1..xd``.
    """
    rows: list[list[str]] = []
    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            if row:
                rows.append(row)
    if not rows:
        raise ValueError(f"{path} is empty")

    def _is_number(cell: str) -> bool:
        try:
            float(cell)
        except ValueError:
            return False
        return True

    has_header = not all(_is_number(cell) for cell in rows[0])
    if has_header:
        header = [cell.strip() for cell in rows[0]]
        body = rows[1:]
    else:
        header = [f"x{j + 1}" for j in range(len(rows[0]))]
        body = rows
    if label_column is not None:
        if label_column not in header:
            raise ValueError(f"label column {label_column!r} not in header {header}")
        label_idx = header.index(label_column)
        labels = [row[label_idx] for row in body]
        attr_idx = [j for j in range(len(header)) if j != label_idx]
    else:
        labels = None
        attr_idx = list(range(len(header)))
    names = [header[j] for j in attr_idx]
    values = np.array(
        [[float(row[j]) for j in attr_idx] for row in body], dtype=np.float64
    )
    unknown = set(lower_is_better) - set(names)
    if unknown:
        raise ValueError(f"--lower-is-better columns not found: {sorted(unknown)}")
    higher = [name not in lower_is_better for name in names]
    return Dataset(values, item_labels=labels, attribute_names=names).normalized(
        higher_is_better=higher
    )


def _parse_weights(text: str, dim: int) -> np.ndarray:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != dim:
        raise SystemExit(f"expected {dim} weights, got {len(parts)}")
    return np.array(parts)


def _region_for(args, dim: int, weights: np.ndarray | None):
    if args.cone_theta is not None:
        centre = weights if weights is not None else np.ones(dim)
        return Cone(centre, args.cone_theta)
    return FullSpace(dim)


def _add_session_dials(
    parser: argparse.ArgumentParser, *, durable: bool = True
) -> None:
    """The :class:`SessionConfig` flags of the session commands.

    Each flag stores under its field's name and only when given, so
    :func:`_session_config` takes every default (and every validation)
    from :class:`SessionConfig`.  ``durable=False`` (restore) leaves
    out ``--budget``/``--sampling``: a restored session takes its
    durable fields from the snapshot.
    """
    unset = argparse.SUPPRESS
    if durable:
        parser.add_argument(
            "--budget",
            default=unset,
            help="default pool target: a sample count or 'ci:WIDTH[@MAX]' "
            "precision spec (grow until the leading CI half-width fits)",
        )
        parser.add_argument(
            "--sampling",
            default=unset,
            help="weight sampling: mc (default, plain Monte-Carlo) or qmc "
            "(Halton; full-space and in-orthant cone regions only)",
        )
    parser.add_argument(
        "--executor",
        default=unset,
        help="observe executor: auto (default, picked per pass), serial, "
        "or thread",
    )
    parser.add_argument(
        "--workers",
        dest="max_workers",
        type=int,
        default=unset,
        metavar="N",
        help="observe worker-pool width (default: usable cores minus one)",
    )


def _session_config(args) -> SessionConfig:
    """The one args -> :class:`SessionConfig` mapping.

    Takes the fields :func:`_add_session_dials` stored, plus ``--seed``
    (default 0, so CLI sessions are reproducible unless told otherwise).
    """
    names = {field.name for field in dataclasses.fields(SessionConfig)}
    return SessionConfig(**{k: v for k, v in vars(args).items() if k in names})


def _warn_durable_flags(config: SessionConfig, path) -> None:
    """Say which durable flags a restore ignored (the snapshot's win)."""
    cold = SessionConfig(seed=0)  # what a command line without flags names
    flags = [
        f"--{name}"
        for name in DURABLE
        if getattr(config, name) != getattr(cold, name)
    ]
    if flags:
        print(
            f"restored session state from {path}; {'/'.join(flags)} "
            "ignored (durable fields apply only to a cold start)",
            file=sys.stderr,
        )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("csv", help="input CSV of scoring attributes")
    parser.add_argument("--label-column", default=None)
    parser.add_argument(
        "--lower-is-better",
        default="",
        help="comma-separated columns where smaller raw values are better",
    )
    parser.add_argument(
        "--cone-theta",
        type=float,
        default=None,
        help="restrict to a cone of this angle around the weights",
    )
    parser.add_argument("--seed", type=int, default=0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Stable-rankings analyses on CSV data"
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default="warning",
        help="threshold for structured event logs on stderr "
        "(default warning)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit event logs as JSON lines instead of text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="stability of the ranking under given weights")
    _add_common(p_verify)
    p_verify.add_argument("--weights", required=True, help="comma-separated weights")
    p_verify.add_argument("--samples", type=int, default=20_000)

    p_enum = sub.add_parser("enumerate", help="most stable rankings, best first")
    _add_common(p_enum)
    p_enum.add_argument("--top", type=int, default=5)
    p_enum.add_argument("--samples", type=int, default=20_000)

    p_topk = sub.add_parser("topk", help="most stable top-k sets / ranked prefixes")
    _add_common(p_topk)
    p_topk.add_argument("--k", type=int, required=True)
    p_topk.add_argument("--kind", choices=["set", "ranked"], default="set")
    p_topk.add_argument("--top", type=int, default=3)
    p_topk.add_argument("--budget", type=int, default=5_000)

    p_profile = sub.add_parser("profile", help="per-item rank ranges")
    _add_common(p_profile)
    p_profile.add_argument("--items", default=None, help="comma-separated item ids")
    p_profile.add_argument("--samples", type=int, default=2_000)

    p_label = sub.add_parser(
        "label", help="stability 'ranking facts' label for published weights"
    )
    _add_common(p_label)
    p_label.add_argument("--weights", required=True, help="comma-separated weights")
    p_label.add_argument("--k", type=int, default=10)
    p_label.add_argument("--samples", type=int, default=4_000)

    p_tradeoff = sub.add_parser(
        "tradeoff", help="stability vs cosine-similarity frontier around weights"
    )
    _add_common(p_tradeoff)
    p_tradeoff.add_argument("--weights", required=True, help="comma-separated weights")
    p_tradeoff.add_argument(
        "--cosines",
        default="0.9999,0.999,0.99,0.97",
        help="comma-separated cosine levels",
    )

    p_batch = sub.add_parser(
        "batch", help="run a JSON batch of requests through one session"
    )
    _add_common(p_batch)
    p_batch.add_argument(
        "--requests",
        required=True,
        help="path to a JSON list of request objects ('-' for stdin)",
    )
    _add_session_dials(p_batch)

    p_serve = sub.add_parser(
        "serve",
        help="JSON-lines request/response service on stdio or TCP",
    )
    _add_common(p_serve)
    _add_session_dials(p_serve)
    p_serve.add_argument(
        "--state-dir",
        default=None,
        help="directory of durable session snapshots: restore this "
        "dataset+region's snapshot on start (cold start if absent or "
        "untrusted), checkpoint it while serving",
    )
    p_serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=50,
        metavar="N",
        help="checkpoint after every N handled requests (0: only at exit)",
    )
    p_serve.add_argument(
        "--tcp",
        default=None,
        metavar="HOST:PORT",
        help="serve many concurrent clients over TCP instead of stdio "
        "(PORT alone binds 127.0.0.1; port 0 picks a free port); "
        "SIGTERM or {\"op\": \"shutdown\"} drains gracefully, "
        "checkpointing every dirty session",
    )
    p_serve.add_argument(
        "--dataset-name",
        default="default",
        metavar="NAME",
        help="registry name of the served dataset in TCP mode "
        "(requests may address it with {\"dataset\": NAME})",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="TCP: global admission cap; requests beyond it are shed "
        "with a structured 'busy' error instead of queued",
    )
    p_serve.add_argument(
        "--max-pending",
        type=int,
        default=8,
        metavar="N",
        help="TCP: per-connection pipelining depth; beyond it the "
        "server stops reading that socket (TCP backpressure)",
    )
    p_serve.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="TCP: how long a graceful drain waits for in-flight "
        "requests before checkpointing and exiting",
    )
    p_serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="TCP: also serve a plain-text metrics endpoint (HTTP) "
        "on this port",
    )
    p_serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="TCP: log a slow_query event for requests slower than "
        "this many milliseconds",
    )
    p_serve.add_argument(
        "--slo",
        default=None,
        metavar="SPEC",
        help='TCP: per-dataset objectives, e.g. "p99:50ms,err:0.1%%"; '
        "burn rates surface in stats and as repro_slo_* metrics",
    )
    p_serve.add_argument(
        "--diag-dir",
        default=None,
        metavar="DIR",
        help="TCP: directory for flight-recorder diag bundles "
        "(SIGUSR2, drain-on-error); default: current directory",
    )
    p_serve.add_argument(
        "--no-flight",
        action="store_true",
        help="TCP: disable the flight recorder (recent events, traces, "
        "slow queries, and metrics snapshots stop being captured)",
    )
    p_serve.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="TCP: inject faults at the transport layer, e.g. "
        "'delay:p=0.05,ms=100;error:p=0.01;drop:p=0.005' "
        "(kinds: delay, error, drop; seeded and deterministic)",
    )
    p_serve.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        metavar="N",
        help="TCP: seed of the chaos injector's RNG (default 0)",
    )
    p_serve.add_argument(
        "--memory-watermark",
        default=None,
        metavar="SIZE",
        help="TCP: degrade instead of growing past SIZE (e.g. '256mb') "
        "of pool+cache memory — cold queries are shed with "
        "'overloaded' until usage falls below the low watermark",
    )

    p_diag = sub.add_parser(
        "diag",
        help="fetch a running TCP server's flight-recorder diag bundle",
    )
    p_diag.add_argument(
        "address", metavar="HOST:PORT", help="address of a running server"
    )
    p_diag.add_argument(
        "--json",
        action="store_true",
        help="print the raw bundle as one JSON object",
    )
    p_diag.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the bundle to PATH",
    )

    p_stats = sub.add_parser(
        "stats",
        help="fetch and pretty-print a running TCP server's stats",
    )
    p_stats.add_argument(
        "address", metavar="HOST:PORT", help="address of a running server"
    )
    p_stats.add_argument(
        "--dataset", default=None, help="registry name to query stats for"
    )
    p_stats.add_argument(
        "--json",
        action="store_true",
        help="print the raw stats response as one JSON object",
    )

    p_snapshot = sub.add_parser(
        "snapshot",
        help="warm a session (optionally with a request batch) and save it",
    )
    _add_common(p_snapshot)
    p_snapshot.add_argument(
        "--out", required=True, help="snapshot file to write"
    )
    p_snapshot.add_argument(
        "--requests",
        default=None,
        help="optional JSON list of warmup requests ('-' for stdin); "
        "their outcomes print to stdout, one JSON line each",
    )
    _add_session_dials(p_snapshot)

    p_restore = sub.add_parser(
        "restore",
        help="restore a session snapshot (the dataset must fingerprint-match)",
    )
    _add_common(p_restore)
    p_restore.add_argument(
        "--snapshot", required=True, help="snapshot file to restore"
    )
    p_restore.add_argument(
        "--requests",
        default=None,
        help="optional JSON list of requests ('-' for stdin) to answer "
        "from the restored session; outcomes print to stdout",
    )
    p_restore.add_argument(
        "--inspect",
        action="store_true",
        help="print the verified snapshot header instead of restoring",
    )
    _add_session_dials(p_restore, durable=False)

    p_loadgen = sub.add_parser(
        "loadgen",
        help="drive a server with a deterministic synthetic workload "
        "(self-hosted unless --address), optionally recording a "
        "replayable trace",
    )
    p_loadgen.add_argument(
        "--address",
        default=None,
        metavar="HOST:PORT",
        help="drive a running server instead of self-hosting one",
    )
    p_loadgen.add_argument(
        "--requests", type=int, default=200, help="requests per run"
    )
    p_loadgen.add_argument("--connections", type=int, default=8)
    p_loadgen.add_argument(
        "--rate", type=float, default=400.0,
        help="mean open-loop arrival rate, requests/second",
    )
    p_loadgen.add_argument("--seed", type=int, default=0)
    p_loadgen.add_argument(
        "--burstiness", type=float, default=4.0,
        help="peak/trough arrival-rate ratio (1 = flat)",
    )
    p_loadgen.add_argument(
        "--churn", type=float, default=0.05,
        help="probability a batch reconnects first",
    )
    p_loadgen.add_argument(
        "--pipeline", type=float, default=0.25,
        help="probability consecutive requests pipeline into one batch",
    )
    p_loadgen.add_argument(
        "--configs", type=int, default=8,
        help="query-configuration vocabulary size",
    )
    p_loadgen.add_argument(
        "--skew", type=float, default=1.2,
        help="Zipf exponent of config popularity",
    )
    p_loadgen.add_argument("--dataset-items", type=int, default=400)
    p_loadgen.add_argument("--dataset-attributes", type=int, default=3)
    p_loadgen.add_argument(
        "--dataset-family", default="independent",
        choices=["independent", "correlated", "anticorrelated"],
    )
    p_loadgen.add_argument("--dataset-seed", type=int, default=20180905)
    p_loadgen.add_argument(
        "--server-seed", type=int, default=7,
        help="session seed of the (self-hosted) server",
    )
    p_loadgen.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a replayable JSONL trace to PATH",
    )
    p_loadgen.add_argument(
        "--retry", action="store_true",
        help="run the workers with the default client retry policy "
        "(idempotent ops only)",
    )
    p_loadgen.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="inject faults into the self-hosted server, e.g. "
        "'delay:p=0.05,ms=100;error:p=0.01;drop:p=0.005'",
    )
    p_loadgen.add_argument(
        "--chaos-seed", type=int, default=0, metavar="N",
        help="seed of the chaos injector's RNG (default 0)",
    )

    p_replay = sub.add_parser(
        "replay",
        help="re-run a recorded loadgen trace and assert answer "
        "equivalence (exit 1 on divergence)",
    )
    p_replay.add_argument("trace", metavar="TRACE", help="trace file to replay")
    p_replay.add_argument(
        "--address",
        default=None,
        metavar="HOST:PORT",
        help="replay against a running server instead of self-hosting "
        "the build under test",
    )
    p_replay.add_argument(
        "--time-scale", type=float, default=1.0,
        help="compress (<1) or stretch (>1) the recorded arrival schedule",
    )
    p_replay.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="inject faults into the replaying (self-hosted) server; "
        "get_next is judged in subset mode",
    )
    p_replay.add_argument(
        "--chaos-seed", type=int, default=0, metavar="N",
        help="seed of the chaos injector's RNG (default 0)",
    )
    p_replay.add_argument(
        "--retry", action="store_true",
        help="replay with the default client retry policy "
        "(idempotent ops only)",
    )

    args = parser.parse_args(argv)
    if args.command in _SESSION_COMMANDS:
        try:
            config = _session_config(args)
        except ValueError as exc:
            sub.choices[args.command].error(str(exc))

    from repro.obs import configure_logging

    configure_logging(json_lines=args.log_json, level=args.log_level)

    if args.command == "stats":
        # Pure network client: no CSV to load, no session to build.
        return _run_stats(args)

    if args.command == "diag":
        return _run_diag(args)

    if args.command == "loadgen":
        # Workload harness: synthesizes its own dataset from the spec.
        return _run_loadgen(args)

    if args.command == "replay":
        return _run_replay(args)

    if args.command == "restore" and args.inspect:
        # Header inspection needs no dataset — an orphaned snapshot must
        # be inspectable without (or with an unparseable) CSV, and a
        # header read should not pay a full CSV load+normalize.
        from repro.errors import SnapshotError
        from repro.service.persist import read_snapshot_header

        try:
            header = read_snapshot_header(args.snapshot)
        except SnapshotError as exc:
            raise SystemExit(f"cannot inspect {args.snapshot}: {exc}")
        header.pop("sections", None)
        print(json.dumps(header))
        return 0

    lower = tuple(c for c in args.lower_is_better.split(",") if c)
    ds = load_csv_dataset(
        args.csv, label_column=args.label_column, lower_is_better=lower
    )
    rng = np.random.default_rng(args.seed)
    out = sys.stdout

    if args.command == "verify":
        weights = _parse_weights(args.weights, ds.n_attributes)
        region = _region_for(args, ds.n_attributes, weights)
        ranking = ScoringFunction(weights).rank(ds)
        if ds.n_attributes == 2:
            engine = StabilityEngine(ds, region=region, backend="twod_exact")
        else:
            engine = StabilityEngine(
                ds,
                region=region,
                backend="md_arrangement",
                rng=rng,
                n_samples=args.samples,
            )
        result = engine.stability_of(ranking)
        print(f"stability: {result.stability:.6f}", file=out)
        if result.confidence_error:
            print(f"confidence_error: {result.confidence_error:.6f}", file=out)
        top = ", ".join(ds.label_of(i) for i in ranking.order[:10])
        print(f"ranking (top 10): {top}", file=out)
        return 0

    if args.command == "enumerate":
        region = _region_for(args, ds.n_attributes, None)
        engine = StabilityEngine(ds, region=region, rng=rng)
        for i in range(args.top):
            try:
                result = engine.get_next()
            except Exception:
                break
            head = ", ".join(ds.label_of(j) for j in result.ranking.order[:5])
            print(f"#{i + 1} stability={result.stability:.6f}  [{head}, ...]", file=out)
        return 0

    if args.command == "topk":
        region = _region_for(args, ds.n_attributes, None)
        kind = "topk_set" if args.kind == "set" else "topk_ranked"
        engine = StabilityEngine(
            ds, region=region, kind=kind, k=args.k, rng=rng
        )
        results = engine.top_stable(
            args.top, budget_first=args.budget, budget_rest=max(args.budget // 5, 1)
        )
        for i, result in enumerate(results, start=1):
            if result.top_k_set is not None:
                members = ", ".join(ds.label_of(j) for j in sorted(result.top_k_set))
            else:
                members = ", ".join(ds.label_of(j) for j in result.ranking)
            print(
                f"#{i} stability={result.stability:.4f} "
                f"(+/- {result.confidence_error:.4f})  {{{members}}}",
                file=out,
            )
        return 0

    if args.command == "profile":
        region = _region_for(args, ds.n_attributes, None)
        items = (
            [int(i) for i in args.items.split(",")] if args.items else None
        )
        for p in rank_profile(
            ds, items, region=region, n_samples=args.samples, rng=rng
        ):
            print(
                f"{ds.label_of(p.item):<24} ranks [{p.min_rank}, {p.max_rank}] "
                f"mean {p.mean_rank:.1f}",
                file=out,
            )
        return 0

    if args.command == "label":
        from repro.core.label import build_label

        weights = _parse_weights(args.weights, ds.n_attributes)
        region = _region_for(args, ds.n_attributes, weights)
        label = build_label(
            ds,
            weights,
            region=region,
            k=args.k,
            n_samples=args.samples,
            rng=rng,
        )
        print(label.render(labels=ds.item_labels), file=out)
        return 0

    if args.command == "tradeoff":
        from repro.core.tradeoff import stability_similarity_tradeoff

        weights = _parse_weights(args.weights, ds.n_attributes)
        cosines = tuple(float(c) for c in args.cosines.split(",") if c)
        points = stability_similarity_tradeoff(
            ds, weights, cosines=cosines, rng=rng
        )
        print(
            f"{'cosine':>8} {'theta':>9} {'best_stab':>10} "
            f"{'ref_stab':>10} {'moves':>6}",
            file=out,
        )
        for p in points:
            print(
                f"{p.cosine:8.4f} {p.theta:9.5f} {p.best.stability:10.5f} "
                f"{p.reference_stability:10.5f} {p.displacement:6d}",
                file=out,
            )
        return 0

    if args.command in _SESSION_COMMANDS:
        return _run_service_command(args, config, ds, out)

    raise AssertionError("unreachable")


def _run_service_command(args, config: SessionConfig, ds: Dataset, out) -> int:
    """Dispatch the session-backed subcommands (batch/serve/snapshot/restore)."""
    from repro.errors import SnapshotError

    region = _region_for(args, ds.n_attributes, None)

    if args.command == "serve" and args.tcp is not None:
        return _run_serve_tcp(args, config, ds, region)

    if args.command == "restore":
        try:
            session = StabilitySession.restore(
                args.snapshot, ds, region=region, config=config
            )
        except SnapshotError as exc:
            raise SystemExit(f"cannot restore {args.snapshot}: {exc}")
        _warn_durable_flags(config, args.snapshot)
        all_ok = True
        with session:
            if args.requests:
                all_ok = _print_outcomes(
                    session, ds, _load_requests(args.requests), out
                )
            print(json.dumps(session.stats()), file=sys.stderr)
        return 0 if all_ok else 1

    if args.command == "snapshot":
        session = StabilitySession(ds, region=region, config=config)
        all_ok = True
        with session:
            if args.requests:
                all_ok = _print_outcomes(
                    session, ds, _load_requests(args.requests), out
                )
            try:
                info = session.save(args.out)
            except SnapshotError as exc:
                raise SystemExit(f"cannot snapshot to {args.out}: {exc}")
        print(
            json.dumps(
                {
                    "snapshot": info.path,
                    "format_version": info.format_version,
                    "fingerprint": info.fingerprint,
                    "configs": info.n_configs,
                    "cache_entries": info.cache_entries,
                    "bytes": info.file_bytes,
                }
            ),
            file=sys.stderr,
        )
        return 0 if all_ok else 1

    state_path = None
    if args.command == "serve" and args.state_dir is not None:
        from repro.server.registry import snapshot_path_for

        state_dir = Path(args.state_dir)
        state_dir.mkdir(parents=True, exist_ok=True)
        state_path = snapshot_path_for(state_dir, ds, region)
    session = None
    if state_path is not None and state_path.exists():
        try:
            session = StabilitySession.restore(
                state_path, ds, region=region, config=config
            )
        except SnapshotError as exc:
            # The state dir is an opportunistic warm-start cache: a
            # snapshot that cannot be trusted costs the warmth, never
            # the server.  The next checkpoint overwrites it.
            print(
                f"ignoring snapshot {state_path} ({exc}); starting cold",
                file=sys.stderr,
            )
        else:
            _warn_durable_flags(config, state_path)
    if session is None:
        session = StabilitySession(ds, region=region, config=config)
    with session:
        if args.command == "batch":
            return _run_batch(session, ds, args, out)
        return _run_serve(
            session,
            ds,
            out,
            state_path=state_path,
            checkpoint_every=args.checkpoint_every,
        )


def _load_requests(source: str) -> list:
    """A JSON request list from a file path or ``-`` (stdin)."""
    if source == "-":
        requests = json.load(sys.stdin)
    else:
        with open(source) as handle:
            requests = json.load(handle)
    if not isinstance(requests, list):
        raise SystemExit("requests must be a JSON list of request objects")
    return requests


def _print_outcomes(session: StabilitySession, ds: Dataset, requests, out) -> bool:
    """One deterministic JSON line per outcome (no timing, no cache flag).

    The snapshot/restore commands share this printer so a snapshot-time
    warmup and a restore-time replay of the same requests produce
    byte-identical stdout — the cross-version CI round-trip diffs them.
    Returns whether every outcome succeeded (the commands' exit code).
    """
    all_ok = True
    for i, outcome in enumerate(execute_batch(session, requests)):
        request = outcome.request
        op = (
            request.get("op") if isinstance(request, dict)
            else getattr(request, "op", None)
        )
        record = {"index": i, "op": op, "ok": outcome.ok}
        if outcome.ok:
            record["result"] = _value_to_json(ds, outcome.value)
        else:
            record["error"] = f"{type(outcome.error).__name__}: {outcome.error}"
            all_ok = False
        print(json.dumps(record), file=out)
    return all_ok




def _run_batch(session: StabilitySession, ds: Dataset, args, out) -> int:
    """The ``batch`` subcommand: one amortized pass over a request file."""
    requests = _load_requests(args.requests)
    start = time.perf_counter()
    outcomes = execute_batch(session, requests)
    elapsed = time.perf_counter() - start
    for i, outcome in enumerate(outcomes):
        request = outcome.request
        op = (
            request.get("op") if isinstance(request, dict)
            else getattr(request, "op", None)
        )
        record = {"index": i, "op": op, "ok": outcome.ok,
                  "cached": outcome.cached}
        if outcome.ok:
            record["result"] = _value_to_json(ds, outcome.value)
        else:
            record["error"] = f"{type(outcome.error).__name__}: {outcome.error}"
        print(json.dumps(record), file=out)
    stats = session.stats()
    print(
        json.dumps(
            {
                "batch_seconds": round(elapsed, 6),
                "requests": len(outcomes),
                "cache": stats["cache"],
                "configs": stats["configs"],
            }
        ),
        file=out,
    )
    return 0 if all(o.ok for o in outcomes) else 1


def _run_serve(
    session: StabilitySession,
    ds: Dataset,
    out,
    *,
    state_path=None,
    checkpoint_every: int = 0,
) -> int:
    """The ``serve`` subcommand: a JSON-lines request loop on stdio.

    One transport of the versioned protocol in
    :mod:`repro.server.protocol` — the asyncio TCP server frames the
    same requests and dispatches through the same function, so stdio
    and network clients see identical semantics (structured error
    codes included: malformed JSON, an unknown op, or an oversized
    line each earn one ``{"error": {"code", "message"}}`` response and
    the loop keeps serving).  With ``state_path`` set the session is
    durable: every ``checkpoint_every`` handled requests (and at end
    of input) its pools, cursors, and warm cache are snapshotted
    atomically, and ``{"op": "checkpoint"}`` forces one on demand.
    ``{"op": "shutdown"}`` ends the loop exactly like end-of-input.
    """
    from repro.server import protocol

    hello_extra = protocol.hello_fields(
        transport="stdio",
        datasets=["default"],
        default_dataset="default",
        durable=state_path is not None,
    )
    since_checkpoint = 0

    def checkpoint() -> dict:
        nonlocal since_checkpoint
        info = session.save(state_path)
        since_checkpoint = 0
        return {"path": info.path, "bytes": info.file_bytes}

    def checkpoint_quietly() -> None:
        """Auto-checkpoints must never kill the serving loop.

        A full disk or revoked state dir costs durability, not
        availability: the failure is reported on stderr (stdout stays
        strictly one response per request) and serving continues.  The
        explicit ``{"op": "checkpoint"}`` path still reports failures
        in its response.
        """
        try:
            checkpoint()
        except Exception as exc:
            print(
                f"checkpoint to {state_path} failed: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
            )

    stop = False
    for line in _bounded_lines(sys.stdin, protocol.MAX_LINE_BYTES):
        payload = None
        try:
            if line is None:
                raise protocol.RequestError(
                    "line_too_long",
                    f"request line exceeded {protocol.MAX_LINE_BYTES} bytes",
                )
            if not line.strip():
                continue
            payload = protocol.parse_request(line)
            handled = protocol.dispatch(
                session,
                ds,
                payload,
                checkpoint=checkpoint if state_path is not None else None,
                hello_extra=hello_extra,
            )
            response, advanced, stop = (
                handled.response, handled.advanced, handled.stop,
            )
        except protocol.RequestError as exc:
            response, advanced = (
                protocol.error_payload(
                    exc.code, exc.message, request_id=exc.request_id
                ),
                True,
            )
        except Exception as exc:  # a dispatch bug — report, keep serving
            response, advanced = (
                protocol.error_payload(
                    *protocol.classify_exception(exc),
                    request_id=(
                        payload.get("id")
                        if isinstance(payload, dict)
                        else None
                    ),
                ),
                True,
            )
        print(protocol.encode_response(response), file=out, flush=True)
        # Count requests since the last successful save (an explicit
        # checkpoint op resets it), so an on-demand checkpoint landing
        # on the periodic boundary never writes twice back-to-back.
        if advanced:
            since_checkpoint += 1
        if (
            state_path is not None
            and checkpoint_every > 0
            and since_checkpoint >= checkpoint_every
        ):
            checkpoint_quietly()
        if stop:
            break
    if state_path is not None and since_checkpoint > 0:
        checkpoint_quietly()
    return 0


def _bounded_lines(stream, limit: int):
    """Lines from ``stream``, reading at most ``limit`` bytes per line.

    ``None`` marks an oversized line (its remainder is discarded
    through the newline) — the loop answers it with ``line_too_long``
    instead of letting ``for line in stream`` materialise a
    multi-gigabyte frame in memory first.  Works on byte and text
    streams (tests monkeypatch ``sys.stdin`` with ``StringIO``).
    """
    stream = getattr(stream, "buffer", stream)
    newline = b"\n" if isinstance(stream.read(0), bytes) else "\n"
    while True:
        line = stream.readline(limit + 1)
        if not line:
            return
        if len(line) > limit and not line.endswith(newline):
            while True:  # discard through the oversized line's newline
                rest = stream.readline(1 << 20)
                if not rest or rest.endswith(newline):
                    break
            yield None
            continue
        yield line


def _run_stats(args) -> int:
    """The ``stats`` subcommand: one stats op against a TCP server.

    ``--json`` dumps the raw response; the default view summarizes the
    serving state an operator checks first — uptime, request counts,
    per-dataset cache behaviour and pool sizes, resource gauges.
    """
    from repro.server.client import ServeClient

    with ServeClient(args.address, connect_retries=1) as client:
        response = client.stats(
            **({"dataset": args.dataset} if args.dataset else {})
        )
    if not response.get("ok"):
        print(json.dumps(response), file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(response))
        return 0
    stats = response.get("stats", {})
    server = response.get("server", {})
    metrics = server.get("metrics", {})
    registry = server.get("registry", {})
    print(f"uptime_seconds: {metrics.get('uptime_seconds', stats.get('uptime_seconds'))}")
    print(f"inflight: {server.get('inflight')}  draining: {server.get('draining')}")
    connections = metrics.get("connections", {})
    print(
        f"connections: active={connections.get('active')} "
        f"opened={connections.get('opened')}"
    )
    for op, count in sorted(metrics.get("requests_total", {}).items()):
        latency = metrics.get("latency", {}).get(op, {})
        print(
            f"op {op}: {count} requests, "
            f"p50={latency.get('p50_seconds')}s p95={latency.get('p95_seconds')}s"
        )
    for code, count in sorted(metrics.get("errors_total", {}).items()):
        print(f"error {code}: {count}")
    for name, entry in sorted(registry.get("active", {}).items()):
        print(
            f"dataset {name}: executor={entry.get('executor')} "
            f"kernel={entry.get('kernel')} "
            f"cache_hit_rate={entry.get('cache_hit_rate')} "
            f"pool_samples={entry.get('pool_samples')} "
            f"pool_bytes={entry.get('pool_bytes')} dirty={entry.get('dirty')}"
        )
    for name, value in sorted(metrics.get("resources", {}).items()):
        print(f"resource {name}: {value}")
    slo = metrics.get("slo")
    if slo:
        for name, score in sorted(slo.get("datasets", {}).items()):
            objectives = " ".join(
                f"{label}:burn={obj.get('burn_rate')}"
                for label, obj in sorted(score.get("objectives", {}).items())
            )
            verdict = "ok" if score.get("compliant") else "VIOLATED"
            print(f"slo {name}: {verdict} {objectives}")
    return 0


def _run_diag(args) -> int:
    """The ``diag`` subcommand: fetch and summarize a diag bundle.

    The pretty view answers the first incident questions — what ran
    recently, what was slow, where the time went — without the
    operator parsing JSON by hand; ``--out`` keeps the full bundle.
    """
    from repro.server.client import ServeClient

    with ServeClient(args.address, connect_retries=1) as client:
        response = client.diag()
    if not response.get("ok"):
        print(json.dumps(response), file=sys.stderr)
        return 1
    bundle = response.get("diag")
    if bundle is None:
        print(
            "flight recorder is disabled on the server (started with "
            "--no-flight); no bundle available",
            file=sys.stderr,
        )
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(bundle, handle)
            handle.write("\n")
    if args.json:
        print(json.dumps(bundle))
        return 0
    dropped = bundle.get("dropped", {})
    for ring in ("events", "traces", "slow_queries", "metrics"):
        entries = bundle.get(ring, [])
        print(f"{ring}: {len(entries)} entries, {dropped.get(ring, 0)} dropped")
    for entry in bundle.get("slow_queries", [])[-5:]:
        trace_id = entry.get("trace_id")
        join = f" trace_id={trace_id}" if trace_id else ""
        print(
            f"slow_query op={entry.get('op')} seconds={entry.get('seconds')} "
            f"dataset={entry.get('dataset')} error={entry.get('error')}{join}"
        )
    for entry in bundle.get("events", [])[-10:]:
        print(f"event {entry.get('event')}: {json.dumps(entry)}")
    profile = bundle.get("profile")
    if profile:
        print(
            f"profiler: running={profile.get('running')} "
            f"samples={profile.get('samples')} "
            f"stacks={profile.get('distinct_stacks')}"
        )
        stacks = profile.get("stacks") or {}
        for stack, count in list(stacks.items())[:5]:
            leaf = stack.rsplit(";", 2)[-2:]
            print(f"  {count:>6}  ...{';'.join(leaf)}")
    slo = bundle.get("slo")
    if slo:
        for name, score in sorted(slo.get("datasets", {}).items()):
            verdict = "ok" if score.get("compliant") else "VIOLATED"
            print(f"slo {name}: {verdict}")
    if args.out:
        print(f"bundle written to {args.out}")
    return 0


def _run_loadgen(args) -> int:
    """The ``loadgen`` command: synthetic load and replayable traces.

    The bounded soak has its own front-end, ``python -m repro.loadgen.soak``.
    """
    from repro.loadgen import WorkloadSpec, generate_plan, run_load

    spec = WorkloadSpec(
        seed=args.seed,
        requests=args.requests,
        connections=args.connections,
        arrival_rate=args.rate,
        burstiness=args.burstiness,
        churn=args.churn,
        pipeline=args.pipeline,
        n_configs=args.configs,
        config_skew=args.skew,
        dataset_family=args.dataset_family,
        dataset_items=args.dataset_items,
        dataset_attributes=args.dataset_attributes,
        dataset_seed=args.dataset_seed,
        server_seed=args.server_seed,
    )
    plan = generate_plan(spec)
    config_fields = {}
    if args.chaos is not None:
        if args.address is not None:
            raise SystemExit(
                "--chaos configures the self-hosted server; drop --address"
            )
        config_fields = {"chaos": args.chaos, "chaos_seed": args.chaos_seed}
    result = run_load(
        plan,
        address=args.address,
        trace_path=args.trace,
        retry=args.retry,
        **config_fields,
    )
    doc = result.to_dict()
    if args.trace:
        doc["trace"] = args.trace
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _run_replay(args) -> int:
    """The ``replay`` command: trace in, equivalence verdict out."""
    from repro.loadgen import TraceError, replay_trace

    try:
        report = replay_trace(
            args.trace,
            address=args.address,
            time_scale=args.time_scale,
            chaos=args.chaos,
            chaos_seed=args.chaos_seed,
            retry=args.retry,
        )
    except (TraceError, ValueError) as exc:
        raise SystemExit(f"cannot replay {args.trace}: {exc}")
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.equivalent else 1


def _run_serve_tcp(args, config: SessionConfig, ds: Dataset, region) -> int:
    """The ``serve --tcp`` mode: the asyncio multi-client front-end.

    Builds a :class:`~repro.server.SessionRegistry` over the one
    loaded dataset (restore-on-start and checkpointing live there),
    binds :class:`~repro.server.StabilityServer`, and serves until
    SIGTERM/SIGINT or a ``shutdown`` op, then drains gracefully —
    in-flight requests finish and every dirty session is checkpointed
    before exit.
    """
    import asyncio

    from repro.server import (
        ServerConfig,
        SessionRegistry,
        StabilityServer,
        parse_hostport,
    )

    host, port = parse_hostport(args.tcp)
    watermark = None
    if args.memory_watermark is not None:
        from repro.server.resilience import parse_size

        try:
            watermark = parse_size(args.memory_watermark)
        except ValueError as exc:
            raise SystemExit(f"bad --memory-watermark: {exc}")
    registry = SessionRegistry(state_dir=args.state_dir, config=config)
    registry.add_dataset(args.dataset_name, ds, region=region)
    try:
        config = ServerConfig(
            host=host,
            port=port,
            max_inflight=args.max_inflight,
            max_pending_per_connection=args.max_pending,
            drain_grace=args.drain_grace,
            checkpoint_every=args.checkpoint_every,
            metrics_port=args.metrics_port,
            slow_query_seconds=(
                args.slow_query_ms / 1000.0
                if args.slow_query_ms is not None
                else None
            ),
            slo=args.slo,
            diag_dir=args.diag_dir,
            flight=not args.no_flight,
            chaos=args.chaos,
            chaos_seed=args.chaos_seed,
            memory_watermark_bytes=watermark,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    server = StabilityServer(registry, config=config)

    async def serve() -> None:
        bound_host, bound_port = await server.start()
        print(
            json.dumps(
                {
                    "serving": f"{bound_host}:{bound_port}",
                    "dataset": args.dataset_name,
                    "durable": args.state_dir is not None,
                    "metrics_port": args.metrics_port,
                }
            ),
            file=sys.stderr,
            flush=True,
        )
        await server.serve_until_shutdown(install_signal_handlers=True)

    asyncio.run(serve())
    for entry in server.drain_report:
        print(json.dumps({"checkpointed": entry}), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
