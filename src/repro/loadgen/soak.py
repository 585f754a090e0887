"""Bounded soak: sustained skewed load with resource invariants.

:func:`run_soak` self-hosts a server with a live ``/metrics`` endpoint,
runs one warmup pass of a fixed workload plan (pools grow once, caches
fill, the allocator reaches steady state), scrapes a baseline, then
re-runs the same plan round after round until the deadline.  The
invariants are asserted from the *outside*, via the Prometheus scrape —
exactly what a production alert would see:

- ``repro_process_rss_bytes`` must not grow more than ``rss_limit``
  (default 10%) over the post-warmup baseline;
- the server must still answer ``ping`` after the final round.

Replaying one fixed plan is deliberate: the config vocabulary (and the
one-budget-per-config invariant) keeps pool memory bounded by design,
so any RSS ramp the soak sees is a leak, not workload drift.

A failing soak leaves evidence behind, not just a verdict: the final
``/metrics`` scrape is embedded in the report even when a round died
mid-way, and — with ``--diag PATH`` — the server's flight-recorder
diag bundle (recent events, slow queries, wire traces, metrics
snapshots, profiler stacks) is fetched over the wire and written to
``PATH``.  ``--profile-hz`` runs the sampling profiler for the whole
soak; ``--inject-failure`` forces the failure path end-to-end (CI
asserts the bundle machinery this way).

Runs as a module for CI::

    python -m repro.loadgen.soak --seconds 60 --connections 32

exits non-zero if any invariant fails, and prints the report as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from repro.loadgen import runner, trace as trace_mod
from repro.loadgen.workload import WorkloadSpec, generate_plan
from repro.server import RetryPolicy, ServeClient

__all__ = ["SoakReport", "run_soak", "main"]

RSS_GAUGE = "repro_process_rss_bytes"
CHAOS_COUNTER = "repro_chaos_injected_total"
RETRY_COUNTER = "repro_retries_total"

#: Objectives the hosted server tracks during a soak — generous enough
#: that a healthy run never violates them; their purpose here is to
#: exercise the ``repro_slo_*`` exposition under real load.
SOAK_SLO = "p99:2s,err:20%"


@dataclass
class SoakReport:
    seconds: float
    connections: int
    rounds: int = 0
    requests: int = 0
    ok: int = 0
    error_codes: dict = field(default_factory=dict)
    reconnects: int = 0
    #: Chaos spec the hosted server ran with (``None``: fault-free).
    chaos: str | None = None
    #: Requests the workers re-issued after retryable failures
    #: (chaos mode runs its clients with the default retry policy).
    retried: int = 0
    #: Rounds whose answers the oracle compared against the warmup
    #: round, and the mismatches it found — chaos mode only.
    oracle_rounds: int = 0
    oracle_mismatches: list = field(default_factory=list)
    rss_baseline: float = 0.0
    rss_final: float = 0.0
    failures: list = field(default_factory=list)
    #: The closing ``/metrics`` scrape — embedded even when a round
    #: failed mid-way, so the evidence the verdict was judged on ships
    #: with the report.
    metrics_final: dict = field(default_factory=dict)
    #: Sampling-profiler snapshot (with collapsed stacks) when the soak
    #: ran with ``profile_hz``.
    profile: dict | None = None
    #: Path of the diag bundle written on failure (``None``: no failure
    #: or no ``diag_path`` configured).
    diag_bundle: str | None = None

    @property
    def rss_growth(self) -> float:
        if self.rss_baseline <= 0:
            return 0.0
        return (self.rss_final - self.rss_baseline) / self.rss_baseline

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "seconds": self.seconds,
            "connections": self.connections,
            "rounds": self.rounds,
            "requests": self.requests,
            "ok": self.ok,
            "error_codes": self.error_codes,
            "reconnects": self.reconnects,
            "chaos": self.chaos,
            "retried": self.retried,
            "oracle_rounds": self.oracle_rounds,
            "oracle_mismatches": self.oracle_mismatches[:20],
            "rss_baseline": self.rss_baseline,
            "rss_final": self.rss_final,
            "rss_growth": self.rss_growth,
            "passed": self.passed,
            "failures": self.failures,
            "metrics_final": self.metrics_final,
            "profile": self.profile,
            "diag_bundle": self.diag_bundle,
        }


def build_soak_spec(
    *,
    seed: int = 0,
    connections: int = 32,
    requests_per_round: int | None = None,
    arrival_rate: float = 600.0,
) -> WorkloadSpec:
    """The soak's fixed plan: hot-key skew, churn, pipelining, bursts."""
    if requests_per_round is None:
        requests_per_round = max(200, connections * 12)
    return WorkloadSpec(
        seed=seed,
        requests=requests_per_round,
        connections=connections,
        arrival_rate=arrival_rate,
        burstiness=4.0,
        burst_every=1.0,
        churn=0.05,
        pipeline=0.25,
        n_configs=8,
        config_skew=1.2,
        dataset_items=400,
    )


def _check_invariants(report: SoakReport, rss_limit: float) -> None:
    """Append an entry to ``report.failures`` per violated invariant."""
    if report.rss_baseline <= 0:
        report.failures.append(f"{RSS_GAUGE} missing from the scrape")
    if report.rss_growth > rss_limit:
        report.failures.append(
            f"rss grew {report.rss_growth:.1%} over the warm baseline "
            f"(limit {rss_limit:.0%}): "
            f"{report.rss_baseline:.0f} -> {report.rss_final:.0f} bytes"
        )
    # exhausted get_next cursors, admission-control sheds, and
    # checkpoints against a non-durable server are expected under
    # sustained replayed load; anything else is not.
    allowed = {"exhausted", "busy", "infeasible", "no_state_dir"}
    if report.chaos is not None:
        # Injected faults surface as these codes by design.
        allowed |= {
            "unavailable",
            "overloaded",
            "deadline_exceeded",
            "connection_lost",
        }
    unexpected = {
        code: count
        for code, count in report.error_codes.items()
        if code not in allowed
    }
    if unexpected:
        report.failures.append(f"unexpected error codes: {unexpected}")
    if report.chaos is not None:
        injected = report.metrics_final.get(CHAOS_COUNTER, 0.0)
        if injected <= 0:
            report.failures.append(
                f"chaos mode ran but {CHAOS_COUNTER} is {injected:.0f} — "
                f"the injector never fired"
            )
        retried = report.metrics_final.get(RETRY_COUNTER, 0.0)
        if retried <= 0 and report.retried <= 0:
            report.failures.append(
                f"chaos mode ran but {RETRY_COUNTER} is {retried:.0f} and "
                f"no worker re-issued a request — retries never engaged"
            )
        if report.oracle_mismatches:
            report.failures.append(
                f"answer oracle found {len(report.oracle_mismatches)} "
                f"mismatches across {report.oracle_rounds} chaos rounds"
            )


def run_soak(
    *,
    seconds: float = 60.0,
    connections: int = 32,
    seed: int = 0,
    rss_limit: float = 0.10,
    arrival_rate: float = 600.0,
    profile_hz: float | None = None,
    inject_failure: bool = False,
    diag_path: str | None = None,
    chaos: str | None = None,
    log=None,
) -> SoakReport:
    """See the module docstring.  ``log`` (callable) gets progress lines.

    ``chaos`` (a :func:`~repro.server.parse_chaos` spec) turns the soak
    into a fault-injection run: the hosted server injects the given
    faults, the workers run with the default retry policy, and every
    post-warmup round's answers are compared against the warmup round
    (``get_next`` skipped — its cursors advance across rounds).  The
    run fails if the oracle finds a mismatch, or if the final scrape
    shows the injector or the retry path never fired.
    """
    import time

    report = SoakReport(seconds=seconds, connections=connections, chaos=chaos)
    spec = build_soak_spec(
        seed=seed, connections=connections, arrival_rate=arrival_rate
    )
    plan = generate_plan(spec)

    def emit(message: str) -> None:
        if log is not None:
            log(message)

    config_fields = {}
    if chaos is not None:
        config_fields = {"chaos": chaos, "chaos_seed": seed}
    baseline_records: list | None = None

    with runner.hosted_server(
        plan, metrics_port=0, slo=SOAK_SLO, **config_fields
    ) as handle:
        metrics_port = handle.metrics_port
        assert metrics_port is not None
        address = f"{handle.host}:{handle.port}"

        def one_round() -> runner.LoadResult:
            nonlocal baseline_records
            result = runner.run_load(
                plan, address=address, retry=chaos is not None
            )
            report.rounds += 1
            report.requests += result.requests
            report.ok += result.ok
            report.reconnects += result.reconnects
            report.retried += result.retried
            for code, count in result.error_codes.items():
                report.error_codes[code] = (
                    report.error_codes.get(code, 0) + count
                )
            if chaos is not None:
                if baseline_records is None:
                    baseline_records = result.records
                else:
                    verdict = trace_mod.compare_records(
                        baseline_records,
                        result.records,
                        get_next_mode="skip",
                    )
                    report.oracle_rounds += 1
                    report.oracle_mismatches.extend(verdict.mismatches)
            return result

        if profile_hz is not None:
            # The hosted server is in-process, so the wire-started
            # profiler samples the soak's actual serving work.
            with ServeClient(host=handle.host, port=handle.port) as client:
                started = client.profile("start", hz=profile_hz)
                if started.get("ok") is not True:
                    report.failures.append(
                        f"profiler failed to start: {started}"
                    )

        # Rounds are wrapped so a mid-round exception (a died
        # connection, a protocol bug) becomes a *reported* failure —
        # the closing scrape, ping check, and diag fetch still run.
        try:
            if chaos is not None:
                emit(f"soak: chaos spec {chaos!r}, retries enabled")
            emit(f"soak: warmup round against {address}")
            one_round()  # pools grow to target, caches fill
            baseline = runner.scrape_metrics(metrics_port, host=handle.host)
            report.rss_baseline = baseline.get(RSS_GAUGE, 0.0)
            emit(
                f"soak: baseline rss {report.rss_baseline / 1e6:.1f} MB, "
                f"running {seconds:.0f}s at {connections} connections"
            )

            deadline = time.monotonic() + seconds
            while time.monotonic() < deadline:
                result = one_round()
                emit(
                    f"soak: round {report.rounds} — "
                    f"{result.requests / max(result.elapsed, 1e-9):.0f} "
                    f"req/s, {sum(result.error_codes.values())} errors"
                )
        except Exception as exc:
            report.failures.append(
                f"round {report.rounds + 1} raised "
                f"{type(exc).__name__}: {exc}"
            )

        # The closing scrape runs even when a round failed mid-way —
        # losing the final metrics is losing the evidence the verdict
        # was judged on.
        try:
            final = runner.scrape_metrics(metrics_port, host=handle.host)
        except Exception as exc:
            report.failures.append(f"final metrics scrape failed: {exc}")
        else:
            report.rss_final = final.get(RSS_GAUGE, 0.0)
            report.metrics_final = final

        if profile_hz is not None:
            with ServeClient(host=handle.host, port=handle.port) as client:
                stopped = client.profile("stop")
                if stopped.get("ok") is True:
                    report.profile = stopped.get("profile")

        # Under chaos the injector can hit the health ping itself
        # (an ``unavailable`` answer or a dropped connection says
        # nothing about server health) — retry through it.
        ping_retry = None
        if chaos is not None:
            ping_retry = RetryPolicy(
                max_attempts=8, base_delay=0.01, max_delay=0.1, seed=0
            )
        try:
            with ServeClient(
                host=handle.host, port=handle.port, retry=ping_retry
            ) as client:
                if client.ping().get("ok") is not True:
                    report.failures.append("server stopped answering ping")
        except Exception as exc:
            report.failures.append(f"server stopped answering ping: {exc}")

        _check_invariants(report, rss_limit)
        if inject_failure:
            report.failures.append("injected failure (--inject-failure)")

        # A failing soak ships its evidence: fetch the server's flight
        # rings over the wire while it is still alive.
        if report.failures and diag_path is not None:
            try:
                with ServeClient(
                    host=handle.host, port=handle.port
                ) as client:
                    bundle = client.diag().get("diag")
                if bundle is not None:
                    bundle["reason"] = "soak-failure"
                    bundle["soak_failures"] = list(report.failures)
                    with open(diag_path, "w", encoding="utf-8") as out:
                        json.dump(bundle, out, default=str)
                        out.write("\n")
                    report.diag_bundle = diag_path
                    emit(f"soak: diag bundle written to {diag_path}")
            except Exception as exc:
                emit(f"soak: diag bundle fetch failed: {exc}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.loadgen.soak",
        description="Bounded soak asserting flat RSS from the live "
        "/metrics scrape.",
    )
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--connections", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rate", type=float, default=600.0)
    parser.add_argument(
        "--rss-limit",
        type=float,
        default=0.10,
        help="max fractional RSS growth over the warm baseline",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write the report to PATH"
    )
    parser.add_argument(
        "--diag",
        metavar="PATH",
        default="SOAK_DIAG.json",
        help="write the server's flight-recorder diag bundle to PATH "
        "when the soak fails (default SOAK_DIAG.json)",
    )
    parser.add_argument(
        "--profile-hz",
        type=float,
        default=None,
        metavar="HZ",
        help="run the sampling profiler at HZ for the whole soak",
    )
    parser.add_argument(
        "--inject-failure",
        action="store_true",
        help="force an invariant failure (exercises the diag path; "
        "the run exits non-zero)",
    )
    parser.add_argument(
        "--chaos",
        metavar="SPEC",
        default=None,
        help="inject faults into the hosted server "
        "(e.g. 'delay:p=0.05,ms=100;error:p=0.01;drop:p=0.005') and run "
        "the clients with retries; the answer oracle must stay clean",
    )
    args = parser.parse_args(argv)
    report = run_soak(
        seconds=args.seconds,
        connections=args.connections,
        seed=args.seed,
        rss_limit=args.rss_limit,
        arrival_rate=args.rate,
        profile_hz=args.profile_hz,
        inject_failure=args.inject_failure,
        diag_path=args.diag,
        chaos=args.chaos,
        log=lambda message: print(message, file=sys.stderr),
    )
    doc = report.to_dict()
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
