"""Structured event logging: JSON-lines rendering, idempotent
configuration, level gating, and foreign-handler preservation."""

from __future__ import annotations

import io
import json
import logging

import pytest

from repro.obs import configure_logging, get_logger, log_event
from repro.obs.logs import EVENTS, LOGGER_NAME


@pytest.fixture(autouse=True)
def _reset_repro_logger():
    """Leave the shared ``repro`` logger the way the suite found it."""
    log = logging.getLogger(LOGGER_NAME)
    saved = (list(log.handlers), log.level, log.propagate)
    yield
    log.handlers[:] = saved[0]
    log.setLevel(saved[1])
    log.propagate = saved[2]


def _configured(json_lines: bool, level: str = "info") -> io.StringIO:
    stream = io.StringIO()
    configure_logging(json_lines=json_lines, level=level, stream=stream)
    return stream


class TestJsonLines:
    def test_event_renders_one_json_object(self):
        stream = _configured(json_lines=True)
        log_event("pool.grow", config="topk_set:k=5", drawn=1000)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["event"] == "pool.grow"
        assert payload["level"] == "info"
        assert payload["logger"] == LOGGER_NAME
        assert payload["config"] == "topk_set:k=5"
        assert payload["drawn"] == 1000
        assert isinstance(payload["ts"], float)

    def test_non_serializable_fields_fall_back_to_str(self):
        stream = _configured(json_lines=True)
        log_event("session.evict", dataset=object())
        payload = json.loads(stream.getvalue())
        assert "object object at" in payload["dataset"]

    def test_text_formatter_emits_key_values(self):
        stream = _configured(json_lines=False)
        log_event("slow_query", op="top_stable", seconds=1.5)
        line = stream.getvalue().strip()
        assert line.startswith("INFO repro slow_query")
        assert "op=top_stable" in line and "seconds=1.5" in line


class TestConfiguration:
    def test_reconfigure_replaces_only_own_handler(self):
        log = logging.getLogger(LOGGER_NAME)
        foreign = logging.NullHandler()
        log.addHandler(foreign)
        configure_logging(level="info")
        configure_logging(json_lines=True, level="debug")
        own = [h for h in log.handlers if getattr(h, "_repro_obs", False)]
        assert len(own) == 1
        assert foreign in log.handlers

    def test_level_gates_events(self):
        stream = _configured(json_lines=True, level="warning")
        log_event("pool.grow", drawn=10)  # INFO: below the gate
        log_event("slow_query", level=logging.WARNING, seconds=9.0)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "slow_query"

    def test_get_logger_children_share_the_configured_root(self):
        stream = _configured(json_lines=True)
        log_event("session.evict", logger=get_logger("registry"), dataset="a")
        payload = json.loads(stream.getvalue())
        assert payload["logger"] == f"{LOGGER_NAME}.registry"
        assert payload["event"] == "session.evict"


def test_event_vocabulary_is_stable():
    """The documented vocabulary (README Observability) — renames must
    update the docs, so lock the names here."""
    assert set(EVENTS) == {
        "pool.grow", "budget.exhausted", "checkpoint.save",
        "session.restore", "session.evict", "server.drain",
        "slow_query", "diag.dump",
    }
