"""A generalized metrics registry: counters and callback gauges.

``server/metrics.py`` keeps its purpose-built request counters and
latency histograms but becomes a *client* of this registry: resource
gauges (RSS, per-session pool bytes, cache bytes)
registered here render into the same Prometheus text exposition and
the same ``stats`` snapshots.

Zero dependencies: RSS comes from ``/proc/self/statm`` with a
``resource.getrusage`` fallback.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable

__all__ = [
    "Counter",
    "MetricsRegistry",
    "register_resource_gauges",
    "rss_bytes",
]

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_bytes() -> int:
    """Resident-set size of this process in bytes (0 when unknowable)."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS; Linux is the target.
        return int(rss_kb) * 1024
    except Exception:
        return 0


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help = help_text
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class _Gauge:
    __slots__ = ("name", "help", "fn")

    def __init__(self, name: str, help_text: str, fn: Callable[[], float]):
        self.name = name
        self.help = help_text
        self.fn = fn


class MetricsRegistry:
    """Named counters + callback gauges with Prometheus rendering."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._gauges: dict[str, _Gauge] = {}
        self._counters: dict[str, Counter] = {}

    def register_gauge(self, name: str, fn: Callable[[], float], *,
                       help: str) -> None:
        """Register (or replace) a callback gauge; sampled at render time."""
        with self._lock:
            if name in self._counters:
                raise ValueError(f"metric {name!r} already registered as counter")
            self._gauges[name] = _Gauge(name, help, fn)

    def counter(self, name: str, *, help: str) -> Counter:
        """Get-or-create a counter (idempotent per name)."""
        with self._lock:
            if name in self._gauges:
                raise ValueError(f"metric {name!r} already registered as gauge")
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name, help)
            return counter

    def attach_counter(self, counter: Counter) -> Counter:
        """Register an *existing* counter instance (replaces by name).

        Lets process-global counters (the resilience layer's retry /
        deadline / chaos totals) render through a per-server registry
        without the registry owning their lifetime — attaching the same
        instance to a second server lifecycle is a no-op rather than a
        reset.
        """
        with self._lock:
            if counter.name in self._gauges:
                raise ValueError(
                    f"metric {counter.name!r} already registered as gauge"
                )
            self._counters[counter.name] = counter
            return counter

    def unregister(self, name: str) -> None:
        with self._lock:
            self._gauges.pop(name, None)
            self._counters.pop(name, None)

    def collect(self) -> dict[str, float]:
        """JSON-safe snapshot of every metric's current value."""
        with self._lock:
            gauges = list(self._gauges.values())
            counters = list(self._counters.values())
        values: dict[str, float] = {}
        for gauge in gauges:
            try:
                values[gauge.name] = float(gauge.fn())
            except Exception:
                values[gauge.name] = float("nan")
        for counter in counters:
            values[counter.name] = counter.value
        return values

    def render_text(self) -> str:
        """Prometheus text exposition (HELP/TYPE pair per family)."""
        with self._lock:
            gauges = list(self._gauges.values())
            counters = list(self._counters.values())
        lines: list[str] = []
        for gauge in gauges:
            try:
                value = float(gauge.fn())
            except Exception:
                continue
            lines.append(f"# HELP {gauge.name} {gauge.help}")
            lines.append(f"# TYPE {gauge.name} gauge")
            lines.append(f"{gauge.name} {value:g}")
        for counter in counters:
            lines.append(f"# HELP {counter.name} {counter.help}")
            lines.append(f"# TYPE {counter.name} counter")
            lines.append(f"{counter.name} {counter.value}")
        return "\n".join(lines) + ("\n" if lines else "")


def register_resource_gauges(
    registry: MetricsRegistry,
    *,
    pool_bytes: Callable[[], int] | None = None,
    cache_bytes: Callable[[], int] | None = None,
) -> None:
    """Install the standard process-resource gauges on ``registry``.

    ``pool_bytes`` / ``cache_bytes`` are caller-supplied closures
    (e.g. summing over a server's active sessions); omitted gauges are
    skipped rather than reported as zero.

    Idempotent under re-registration: every standard gauge name is
    unregistered first, so a second server lifecycle in the same
    process (tests, embedded restarts) neither double-renders gauges
    nor leaves a previous server's closures sampling dead sessions
    when this call omits ``pool_bytes``/``cache_bytes``.
    """
    for name in ("repro_process_rss_bytes", "repro_pool_bytes",
                 "repro_cache_bytes"):
        registry.unregister(name)
    registry.register_gauge(
        "repro_process_rss_bytes", rss_bytes,
        help="Resident set size of the serving process.")
    if pool_bytes is not None:
        registry.register_gauge(
            "repro_pool_bytes", pool_bytes,
            help="Approximate bytes held by Monte-Carlo sample pools.")
    if cache_bytes is not None:
        registry.register_gauge(
            "repro_cache_bytes", cache_bytes,
            help="Approximate bytes held by result caches.")
