"""repro.obs — zero-dependency observability: traces, logs, metrics.

Small modules, threaded through every layer of the stack:

- :mod:`repro.obs.tracing` — contextvar-based hierarchical spans with a
  module-level disabled fast path (``obs.span(...)`` costs one int
  test when no trace is open).
- :mod:`repro.obs.logs` — structured event logging (JSON lines behind
  ``--log-json``), with no handlers installed at import time.
- :mod:`repro.obs.metrics` — a generalized counter/gauge registry with
  Prometheus rendering; ``server/metrics.py`` is a client.
- :mod:`repro.obs.flight` — bounded flight-recorder rings (events,
  traces, slow queries, metrics snapshots) dumped as JSON diag
  bundles on failure, ``SIGUSR2``, or the ``diag`` wire op.
- :mod:`repro.obs.profile` — stdlib sampling profiler producing
  collapsed stacks for flamegraphs, start/stoppable over the wire.
- :mod:`repro.obs.slo` — per-dataset latency/error objectives with
  burn-rate computation over the server's latency histograms.
- :mod:`repro.obs.promlint` — exposition-format linter used by tests
  and CI's metrics scrape.
"""

from repro.obs import flight, profile
from repro.obs.logs import (
    JsonLinesFormatter,
    configure_logging,
    get_logger,
    log_event,
)
from repro.obs.metrics import (
    Counter,
    MetricsRegistry,
    register_resource_gauges,
    rss_bytes,
)
from repro.obs.slo import SloSpec, SloTracker, parse_slo
from repro.obs.tracing import (
    Span,
    Trace,
    current_trace,
    record,
    span,
    stage_report,
    trace,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "JsonLinesFormatter",
    "MetricsRegistry",
    "SloSpec",
    "SloTracker",
    "Span",
    "Trace",
    "configure_logging",
    "current_trace",
    "flight",
    "get_logger",
    "log_event",
    "parse_slo",
    "profile",
    "record",
    "register_resource_gauges",
    "rss_bytes",
    "span",
    "stage_report",
    "trace",
    "tracing_enabled",
]
