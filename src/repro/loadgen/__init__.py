"""repro.loadgen — workload replay, fuzzing, and soak harness.

The serving tier's traffic simulator and failure-mode hunter:

- :mod:`repro.loadgen.workload` — deterministic, seedable synthesis of
  Zipf-skewed op mixes with bursty open-loop arrivals, pipelined
  batches, and connection churn (:class:`WorkloadSpec` →
  :func:`generate_plan`);
- :mod:`repro.loadgen.runner` — drives a live server over N concurrent
  blocking clients (:func:`run_load`), self-hosting or by address, and
  scrapes Prometheus metrics (:func:`scrape_metrics`);
- :mod:`repro.loadgen.trace` — replayable JSONL traces and the
  answer-equivalence oracle (:func:`compare_records`);
- :mod:`repro.loadgen.replay` — re-runs a recorded trace against any
  server build and reports equivalence (:func:`replay_trace`);
- :mod:`repro.loadgen.soak` — bounded soak asserting flat RSS from the
  live ``/metrics`` scrape (:func:`run_soak`,
  ``python -m repro.loadgen.soak``);
- :mod:`repro.loadgen.fuzz` — malformed-frame and corrupt-snapshot
  generators plus the robustness contracts the fuzz suites assert.

``repro.cli loadgen`` / ``repro.cli replay`` expose the harness on the
command line.
"""

from repro.loadgen.replay import ReplayReport, replay_trace
from repro.loadgen.runner import (
    LoadResult,
    hosted_server,
    parse_exposition,
    run_load,
    scrape_metrics,
)
from repro.loadgen.soak import SoakReport, run_soak
from repro.loadgen.trace import (
    TRACE_VERSION,
    ComparisonReport,
    TraceError,
    TraceWriter,
    compare_records,
    read_trace,
    strip_response,
)
from repro.loadgen.workload import (
    DEFAULT_MIX,
    Event,
    WorkloadPlan,
    WorkloadSpec,
    generate_plan,
    make_dataset,
)

__all__ = [
    "TRACE_VERSION",
    "DEFAULT_MIX",
    "ComparisonReport",
    "Event",
    "LoadResult",
    "ReplayReport",
    "SoakReport",
    "TraceError",
    "TraceWriter",
    "WorkloadPlan",
    "WorkloadSpec",
    "compare_records",
    "generate_plan",
    "hosted_server",
    "make_dataset",
    "parse_exposition",
    "read_trace",
    "replay_trace",
    "run_load",
    "run_soak",
    "scrape_metrics",
    "strip_response",
]
