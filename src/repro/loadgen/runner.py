"""Drive a live :class:`StabilityServer` with a workload plan.

:func:`run_load` executes a :class:`~repro.loadgen.workload.WorkloadPlan`
over N concurrent :class:`~repro.server.client.ServeClient` connections
— one worker thread per connection, each pacing its pipelined batches
against the plan's open-loop arrival schedule, reconnecting where the
plan churns, and recording stripped responses in plan order.

Point it at a running server (``address="HOST:PORT"``) or let it
self-host: without an address it regenerates the plan's dataset, builds
a fresh :class:`~repro.server.SessionRegistry` seeded from the spec,
and serves in-process for the duration of the run — the configuration
trace replay relies on (same spec, same server, same answers).

:func:`scrape_metrics` fetches and parses a live Prometheus
``/metrics`` exposition so harnesses (the soak, CI) can assert resource
invariants — flat RSS — from the outside.
"""

from __future__ import annotations

import threading
import time
import urllib.request
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.loadgen import trace as trace_mod
from repro.loadgen.workload import WorkloadPlan, make_dataset
from repro.server import (
    RetryPolicy,
    ServeClient,
    ServerClosedError,
    ServerConfig,
    SessionRegistry,
    serve_in_thread,
)
from repro.server.resilience import IDEMPOTENT_OPS, RETRYABLE_ERROR_CODES

__all__ = [
    "LoadResult",
    "run_load",
    "hosted_server",
    "scrape_metrics",
    "parse_exposition",
]


@dataclass
class LoadResult:
    """One executed plan: records in plan order plus run aggregates."""

    records: list = field(default_factory=list)
    elapsed: float = 0.0
    ok: int = 0
    error_codes: Counter = field(default_factory=Counter)
    reconnects: int = 0
    #: Requests the workers re-issued after a retryable failure
    #: (idempotent ops only; each may carry further client-side
    #: retries inside :meth:`ServeClient.request`).
    retried: int = 0

    @property
    def requests(self) -> int:
        return len(self.records)

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "elapsed": self.elapsed,
            "throughput": (
                self.requests / self.elapsed if self.elapsed > 0 else 0.0
            ),
            "ok": self.ok,
            "error_codes": dict(self.error_codes),
            "reconnects": self.reconnects,
            "retried": self.retried,
        }


@contextmanager
def hosted_server(plan: WorkloadPlan, **config_fields):
    """A self-hosted server regenerated from the plan's spec.

    Yields the :class:`~repro.server.app.ServerHandle`.  Extra keyword
    arguments become :class:`~repro.server.ServerConfig` fields
    (``metrics_port=0`` gives the soak a scrapeable endpoint).
    """
    registry = SessionRegistry(seed=plan.spec.server_seed, executor="serial")
    registry.add_dataset("default", make_dataset(plan.spec))
    handle = serve_in_thread(registry, config=ServerConfig(**config_fields))
    try:
        yield handle
    finally:
        handle.stop()


def _connection_lost(exc: Exception) -> dict:
    return {
        "ok": False,
        "error": {"code": "connection_lost", "message": str(exc)},
    }


def _run_connection(
    host: str,
    port: int,
    batches: list,
    start: float,
    time_scale: float,
    out: list,
    counters: Counter,
    retry: RetryPolicy | None = None,
) -> None:
    """One worker: its connection's batches, paced and pipelined.

    With ``retry`` set, failures that are safe to repeat — structured
    retryable rejections and connection losses, idempotent ops only —
    are re-issued serially through :meth:`ServeClient.request` (which
    applies the policy's backoff/budget/breaker) after the batch's
    pipelined phase; ``get_next`` is never re-issued.
    """

    def fresh_client() -> ServeClient:
        return ServeClient(host=host, port=port, retry=retry)

    def reissue(client: ServeClient, event) -> ServeClient:
        """Serial retry of one event; returns a (possibly new) client."""
        try:
            out[event.index] = trace_mod.strip_response(
                client.request(event.request)
            )
            counters["retried"] += 1
        except (ServerClosedError, OSError):
            # The prior failure record for this event stands; hand the
            # next event a working connection.
            client.close()
            counters["reconnects"] += 1
            client = fresh_client()
        return client

    client = fresh_client()
    try:
        for batch in batches:
            if batch[0].reconnect:
                client.close()
                counters["reconnects"] += 1
                client = fresh_client()
            delay = start + batch[0].t * time_scale - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            answered = 0
            try:
                for event in batch:
                    client.send(event.request)
                for event in batch:
                    out[event.index] = trace_mod.strip_response(client.recv())
                    answered += 1
            except (ServerClosedError, OSError) as exc:
                for event in batch[answered:]:
                    out[event.index] = _connection_lost(exc)
                client.close()
                counters["reconnects"] += 1
                client = fresh_client()
                if retry is not None:
                    for event in batch[answered:]:
                        if event.request.get("op") in IDEMPOTENT_OPS:
                            client = reissue(client, event)
                continue
            if retry is None:
                continue
            for event in batch:
                response = out[event.index]
                error = (
                    response.get("error") if isinstance(response, dict) else None
                )
                code = error.get("code") if isinstance(error, dict) else None
                if (
                    code in RETRYABLE_ERROR_CODES
                    and event.request.get("op") in IDEMPOTENT_OPS
                ):
                    client = reissue(client, event)
    finally:
        client.close()


def run_load(
    plan: WorkloadPlan,
    *,
    address: str | None = None,
    time_scale: float = 1.0,
    trace_path=None,
    retry: RetryPolicy | bool | None = None,
    **config_fields,
) -> LoadResult:
    """Execute a plan and return its records (optionally tracing).

    ``time_scale`` compresses (< 1) or stretches (> 1) the arrival
    schedule without changing the requests — tests replay hour-shaped
    plans in seconds.  ``retry`` (``True`` for the default
    :class:`~repro.server.RetryPolicy`) makes workers re-issue
    idempotent requests that hit retryable failures.  ``config_fields``
    apply to the self-hosted server only and raise if combined with
    ``address``.
    """
    if retry is True:
        retry = RetryPolicy()
    elif retry is False:
        retry = None
    if address is not None and config_fields:
        raise ValueError(
            "server config fields only apply when self-hosting "
            f"(got {sorted(config_fields)} with address={address!r})"
        )
    if address is not None:
        from repro.server import parse_hostport

        host, port = parse_hostport(address)
        return _run_load_against(
            plan, host, port, time_scale, trace_path, retry
        )
    with hosted_server(plan, **config_fields) as handle:
        return _run_load_against(
            plan, handle.host, handle.port, time_scale, trace_path, retry
        )


def _run_load_against(
    plan: WorkloadPlan,
    host: str,
    port: int,
    time_scale: float,
    trace_path,
    retry: RetryPolicy | None = None,
) -> LoadResult:
    out: list = [None] * len(plan.events)
    start = time.monotonic() + 0.05
    threads = []
    counters = []  # one per worker; merged after join (no shared writes)
    begin = time.perf_counter()
    for conn, batches in enumerate(plan.events_by_connection()):
        if not batches:
            continue
        counter: Counter = Counter()
        counters.append(counter)
        thread = threading.Thread(
            target=_run_connection,
            args=(host, port, batches, start, time_scale, out, counter, retry),
            name=f"loadgen-conn-{conn}",
        )
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - begin

    result = LoadResult(
        elapsed=elapsed,
        reconnects=sum(counter["reconnects"] for counter in counters),
        retried=sum(counter["retried"] for counter in counters),
    )
    for event in plan.events:
        response = out[event.index]
        if response is None:  # worker died before reaching the batch
            response = _connection_lost(RuntimeError("request never ran"))
        if response.get("ok"):
            result.ok += 1
        else:
            error = response.get("error")
            code = error.get("code") if isinstance(error, dict) else str(error)
            result.error_codes[code] += 1
        result.records.append(
            {
                "i": event.index,
                "t": event.t,
                "conn": event.conn,
                "op": event.request.get("op"),
                "request": event.request,
                "response": response,
            }
        )
    if trace_path is not None:
        with trace_mod.TraceWriter(trace_path, plan.spec) as writer:
            for record in result.records:
                writer.append(record)
    return result


# ----------------------------------------------------------------------
# Prometheus scraping (resource invariants from the outside)
# ----------------------------------------------------------------------
def parse_exposition(text: str) -> dict[str, float]:
    """Prometheus text exposition -> ``{sample_name: value}``.

    Sample names keep their label sets verbatim
    (``repro_server_requests_total{op="ping"}``); unlabeled gauges are
    plain names (``repro_process_rss_bytes``).
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            samples[name] = float(value)
        except ValueError:
            continue
    return samples


def scrape_metrics(
    port: int, host: str = "127.0.0.1", timeout: float = 10.0
) -> dict[str, float]:
    """Fetch and parse a live ``/metrics`` endpoint."""
    url = f"http://{host}:{port}/metrics"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        text = response.read().decode("utf-8", "replace")
    return parse_exposition(text)
