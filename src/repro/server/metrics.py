"""Serving metrics: counters and latency histograms, no dependencies.

The server records every request (op, latency, error code), connection
lifecycle events, shed load, and checkpoints into one
:class:`ServerMetrics` object.  Two read surfaces exist:

- :meth:`ServerMetrics.snapshot` — a JSON-safe dict served by the
  ``{"op": "stats"}`` protocol op;
- :meth:`ServerMetrics.render_text` — a Prometheus-style text exposition
  served by the optional ``--metrics-port`` HTTP endpoint, so a scrape
  target needs nothing beyond the standard library.

All methods are thread-safe: request handlers run on executor threads
while the event loop reads snapshots concurrently.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left

from repro.obs.metrics import MetricsRegistry

__all__ = ["LatencyHistogram", "ServerMetrics"]

#: Upper bucket bounds in seconds (log-spaced, 100 us .. 10 s); the
#: final implicit bucket is +Inf.
LATENCY_BOUNDS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with cumulative Prometheus counts."""

    __slots__ = ("bounds", "buckets", "count", "sum")

    def __init__(self, bounds: tuple[float, ...] = LATENCY_BOUNDS):
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)  # last bucket is +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, seconds: float) -> None:
        self.buckets[bisect_left(self.bounds, seconds)] += 1
        self.count += 1
        self.sum += seconds

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding it.

        ``q=0`` returns the bound of the first non-empty bucket (not the
        first bucket outright), ``q=1`` the bound of the last non-empty
        one; observations past the final bound report ``+Inf``.
        """
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            seen += n
            if seen >= rank:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")

    def snapshot(self) -> dict:
        """JSON-safe summary: a quantile past the last bound reads as the
        string ``"inf"`` (strict JSON has no infinity)."""
        doc = {
            "count": self.count,
            "sum_seconds": round(self.sum, 6),
            "mean_seconds": round(self.sum / self.count, 6) if self.count else 0.0,
        }
        for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            value = self.quantile(q)
            doc[f"{name}_seconds"] = "inf" if value == float("inf") else value
        return doc


class ServerMetrics:
    """Counters + per-op latency histograms for one server process."""

    def __init__(self, registry: MetricsRegistry | None = None):
        self._lock = threading.Lock()
        #: Generalized gauge/counter registry; resource gauges (RSS,
        #: pool/cache bytes) are registered here by the app and rendered
        #: alongside the server families.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.started_at = time.time()
        self.requests_total: dict[str, int] = {}
        self.errors_total: dict[str, int] = {}
        self.latency: dict[str, LatencyHistogram] = {}
        # Per-dataset counters (query ops only) backing the SLO engine.
        self.dataset_requests: dict[str, int] = {}
        self.dataset_errors: dict[str, int] = {}
        self.dataset_latency: dict[str, LatencyHistogram] = {}
        #: Optional :class:`repro.obs.slo.SloTracker`; attached by the
        #: app when ``--slo`` is configured.  Its snapshot/exposition
        #: are computed *outside* ``_lock`` (the tracker reads back
        #: through :meth:`dataset_view`, and ``_lock`` is non-reentrant).
        self.slo = None
        self.connections_opened = 0
        self.connections_active = 0
        self.busy_shed_total = 0
        self.shutting_down_total = 0
        self.checkpoints_total = 0
        self.checkpoint_failures_total = 0
        self.evictions_total = 0
        self.bytes_in = 0
        self.bytes_out = 0

    # ------------------------------------------------------------------
    def observe_request(
        self,
        op: str,
        seconds: float,
        *,
        error_code: str | None = None,
        dataset: str | None = None,
    ) -> None:
        """Record one handled request (op label, latency, optional error).

        ``dataset`` additionally attributes the request to a dataset's
        SLO counters; callers pass it for query ops only so control
        traffic (ping, stats, diag) never skews latency objectives.
        """
        op = op if isinstance(op, str) and op else "<invalid>"
        # Allocate outside the lock: the first request for an op pays the
        # histogram construction without extending the critical section;
        # a racing thread's spare allocation is simply dropped.
        fresh = None if op in self.latency else LatencyHistogram()
        ds_fresh = (
            None
            if dataset is None or dataset in self.dataset_latency
            else LatencyHistogram()
        )
        with self._lock:
            self.requests_total[op] = self.requests_total.get(op, 0) + 1
            hist = self.latency.get(op)
            if hist is None:
                hist = self.latency[op] = (
                    fresh if fresh is not None else LatencyHistogram()
                )
            hist.observe(seconds)
            if error_code is not None:
                self.errors_total[error_code] = (
                    self.errors_total.get(error_code, 0) + 1
                )
            if dataset is not None:
                self.dataset_requests[dataset] = (
                    self.dataset_requests.get(dataset, 0) + 1
                )
                ds_hist = self.dataset_latency.get(dataset)
                if ds_hist is None:
                    ds_hist = self.dataset_latency[dataset] = (
                        ds_fresh if ds_fresh is not None else LatencyHistogram()
                    )
                ds_hist.observe(seconds)
                if error_code is not None:
                    self.dataset_errors[dataset] = (
                        self.dataset_errors.get(dataset, 0) + 1
                    )

    def dataset_view(self) -> dict:
        """Per-dataset counters for the SLO tracker (consistent copy)."""
        with self._lock:
            return {
                name: {
                    "requests": self.dataset_requests.get(name, 0),
                    "errors": self.dataset_errors.get(name, 0),
                    "count": hist.count,
                    "bounds": hist.bounds,
                    "buckets": list(hist.buckets),
                }
                for name, hist in self.dataset_latency.items()
            }

    def observe_error(self, error_code: str) -> None:
        """Record a protocol-level error that never reached a handler."""
        with self._lock:
            self.errors_total[error_code] = (
                self.errors_total.get(error_code, 0) + 1
            )

    def connection_opened(self) -> None:
        with self._lock:
            self.connections_opened += 1
            self.connections_active += 1

    def connection_closed(self) -> None:
        with self._lock:
            # Clamp at zero: a double-close (reader and writer teardown
            # racing) must not drive the gauge negative.
            self.connections_active = max(0, self.connections_active - 1)

    def shed(self) -> None:
        with self._lock:
            self.busy_shed_total += 1
            self.errors_total["busy"] = self.errors_total.get("busy", 0) + 1

    def refused_draining(self) -> None:
        with self._lock:
            self.shutting_down_total += 1

    def checkpointed(self, *, failed: bool = False) -> None:
        with self._lock:
            if failed:
                self.checkpoint_failures_total += 1
            else:
                self.checkpoints_total += 1

    def evicted(self) -> None:
        with self._lock:
            self.evictions_total += 1

    def add_bytes(self, *, received: int = 0, sent: int = 0) -> None:
        with self._lock:
            self.bytes_in += received
            self.bytes_out += sent

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe metrics for the ``stats`` op."""
        # The SLO tracker reads back through dataset_view(), which takes
        # _lock itself — compute its section before entering the lock.
        slo = self.slo
        slo_section = slo.snapshot() if slo is not None else None
        with self._lock:
            doc = {
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "requests_total": dict(self.requests_total),
                "errors_total": dict(self.errors_total),
                "latency": {
                    op: hist.snapshot() for op, hist in self.latency.items()
                },
                "connections": {
                    "opened": self.connections_opened,
                    "active": self.connections_active,
                },
                "busy_shed_total": self.busy_shed_total,
                "shutting_down_total": self.shutting_down_total,
                "checkpoints_total": self.checkpoints_total,
                "checkpoint_failures_total": self.checkpoint_failures_total,
                "evictions_total": self.evictions_total,
                "bytes_in": self.bytes_in,
                "bytes_out": self.bytes_out,
                "resources": self.registry.collect(),
            }
        if slo_section is not None:
            doc["slo"] = slo_section
        return doc

    def render_text(self) -> str:
        """Prometheus text exposition (``# HELP``/``# TYPE`` + samples)."""
        with self._lock:
            lines = [
                "# HELP repro_server_uptime_seconds Seconds since server start.",
                "# TYPE repro_server_uptime_seconds gauge",
                f"repro_server_uptime_seconds {time.time() - self.started_at:.3f}",
                "# HELP repro_server_connections_active Currently open client connections.",
                "# TYPE repro_server_connections_active gauge",
                f"repro_server_connections_active {self.connections_active}",
                "# HELP repro_server_connections_opened_total Connections accepted since start.",
                "# TYPE repro_server_connections_opened_total counter",
                f"repro_server_connections_opened_total {self.connections_opened}",
                "# HELP repro_server_busy_shed_total Requests shed under backpressure.",
                "# TYPE repro_server_busy_shed_total counter",
                f"repro_server_busy_shed_total {self.busy_shed_total}",
                "# HELP repro_server_checkpoints_total Session checkpoints written.",
                "# TYPE repro_server_checkpoints_total counter",
                f"repro_server_checkpoints_total {self.checkpoints_total}",
                "# HELP repro_server_evictions_total Idle sessions evicted.",
                "# TYPE repro_server_evictions_total counter",
                f"repro_server_evictions_total {self.evictions_total}",
                "# HELP repro_server_bytes_total Wire bytes by direction.",
                "# TYPE repro_server_bytes_total counter",
                f'repro_server_bytes_total{{direction="in"}} {self.bytes_in}',
                f'repro_server_bytes_total{{direction="out"}} {self.bytes_out}',
                "# HELP repro_server_requests_total Requests handled by op.",
                "# TYPE repro_server_requests_total counter",
            ]
            for op in sorted(self.requests_total):
                lines.append(
                    f'repro_server_requests_total{{op="{op}"}} '
                    f"{self.requests_total[op]}"
                )
            lines.append("# HELP repro_server_errors_total Errors returned by code.")
            lines.append("# TYPE repro_server_errors_total counter")
            for code in sorted(self.errors_total):
                lines.append(
                    f'repro_server_errors_total{{code="{code}"}} '
                    f"{self.errors_total[code]}"
                )
            lines.append(
                "# HELP repro_server_request_seconds Request latency by op."
            )
            lines.append("# TYPE repro_server_request_seconds histogram")
            for op in sorted(self.latency):
                hist = self.latency[op]
                cumulative = 0
                for bound, n in zip(hist.bounds, hist.buckets):
                    cumulative += n
                    lines.append(
                        f'repro_server_request_seconds_bucket{{op="{op}",'
                        f'le="{bound}"}} {cumulative}'
                    )
                lines.append(
                    f'repro_server_request_seconds_bucket{{op="{op}",'
                    f'le="+Inf"}} {hist.count}'
                )
                lines.append(
                    f'repro_server_request_seconds_sum{{op="{op}"}} '
                    f"{hist.sum:.6f}"
                )
                lines.append(
                    f'repro_server_request_seconds_count{{op="{op}"}} '
                    f"{hist.count}"
                )
            body = "\n".join(lines) + "\n"
        # Registry gauges read process state (RSS) and the SLO
        # tracker reads back through dataset_view() — render both
        # outside the server lock.
        body += self.registry.render_text()
        slo = self.slo
        if slo is not None:
            body += slo.render_text()
        return body
