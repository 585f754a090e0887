"""Structured event logging on the stdlib :mod:`logging` machinery.

Every noteworthy runtime event (pool growth jumps, checkpoint /
eviction / drain, budget exhaustion, slow queries) flows through
:func:`log_event` with a stable event name and flat key/value fields.
Rendering is a formatter concern: the default is human-readable text,
``--log-json`` switches the same records to JSON lines.

The module installs **no handlers at import time**: a library
embedding :mod:`repro` stays silent unless it configures logging
itself.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import Any, IO

from repro.obs import flight as _flight

__all__ = [
    "JsonLinesFormatter",
    "LOGGER_NAME",
    "configure_logging",
    "get_logger",
    "log_event",
]

LOGGER_NAME = "repro"

#: Event-name vocabulary (documented in README's Observability section).
EVENTS = (
    "pool.grow",          # a Monte-Carlo pool drew new samples
    "budget.exhausted",   # precision budget hit its sample cap
    "checkpoint.save",    # a session snapshot was written
    "session.restore",    # a session was restored from a snapshot
    "session.evict",      # registry evicted an idle session
    "server.drain",       # graceful drain began / finished
    "slow_query",         # a query exceeded the slow-query threshold
    "diag.dump",          # a flight-recorder diag bundle was written
)


class JsonLinesFormatter(logging.Formatter):
    """One JSON object per record: ts, level, event, then flat fields."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, Any] = {
            "ts": round(record.created, 3),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": getattr(record, "event", None) or record.getMessage(),
        }
        fields = getattr(record, "fields", None)
        if fields:
            payload.update(fields)
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


class _TextFormatter(logging.Formatter):
    """``LEVEL logger event k=v k=v`` — the non-JSON default."""

    def format(self, record: logging.LogRecord) -> str:
        event = getattr(record, "event", None) or record.getMessage()
        fields = getattr(record, "fields", None) or {}
        tail = " ".join(f"{k}={v}" for k, v in fields.items())
        line = f"{record.levelname} {record.name} {event}"
        if tail:
            line = f"{line} {tail}"
        if record.exc_info:
            line = f"{line}\n{self.formatException(record.exc_info)}"
        return line


def get_logger(name: str | None = None) -> logging.Logger:
    """The ``repro`` event logger, or a dotted child of it."""
    if name is None:
        return logging.getLogger(LOGGER_NAME)
    return logging.getLogger(f"{LOGGER_NAME}.{name}")


def log_event(event: str, *, level: int = logging.INFO,
              logger: logging.Logger | None = None, **fields: Any) -> None:
    """Emit one structured event; a no-op when the level is disabled.

    The flight recorder (when enabled) captures the event *before* the
    level check: it is a crash buffer, not a log sink, so a diag bundle
    holds recent INFO events even when the logger only emits warnings.
    The disabled path costs one module-int test.
    """
    if _flight._ENABLED:
        _flight.record_event(event, fields)
    log = logger if logger is not None else logging.getLogger(LOGGER_NAME)
    if not log.isEnabledFor(level):
        return
    log.log(level, event, extra={"event": event, "fields": fields})


def configure_logging(*, json_lines: bool = False, level: str | int = "warning",
                      stream: IO[str] | None = None) -> logging.Logger:
    """(Re)configure the ``repro`` logger; idempotent.

    Only handlers installed by this function are replaced, so embedding
    applications that attached their own handlers keep them.
    """
    if isinstance(level, str):
        level = getattr(logging, level.upper())
    log = logging.getLogger(LOGGER_NAME)
    log.setLevel(level)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonLinesFormatter() if json_lines else _TextFormatter())
    handler._repro_obs = True  # type: ignore[attr-defined]
    for existing in list(log.handlers):
        if getattr(existing, "_repro_obs", False):
            log.removeHandler(existing)
    log.addHandler(handler)
    log.propagate = False
    return log
