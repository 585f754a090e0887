"""The resilient request path: deadlines, retries, overload, chaos.

Four contracts, unit-tested where the machinery is deterministic and
end-to-end where the stack must compose:

- deadlines fast-fail expired requests without doing work, bound lock
  waits, cooperatively cancel long observes *between* chunk groups
  (completed samples stay pooled — a retry resumes warm and answers
  byte-identically), and win over ``shutting_down`` during a drain;
- the retry machinery (backoff, token budget, circuit breaker) retries
  idempotent ops on pre-execution rejections and connection loss, and
  never retries ``get_next``;
- the overload guard degrades instead of growing past the watermark:
  cold observes shed ``overloaded`` (with a retry hint) while warm
  reads keep answering;
- the chaos injector is seeded and deterministic, and every new metric
  family stays promlint-clean.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro import StabilitySession, execute_batch
from repro.server import protocol
from repro.server.client import RequestTimeoutError, ServeClient
from repro.server.resilience import (
    CHAOS_INJECTED,
    DEADLINE_EXCEEDED,
    RETRIES,
    ChaosInjector,
    CircuitBreaker,
    Deadline,
    DeadlineExceededError,
    OverloadGuard,
    RetryPolicy,
    RetryState,
    current_deadline,
    deadline_scope,
    parse_chaos,
    parse_size,
    reset_breakers,
)
from server_testlib import make_dataset, running_server

COLD_QUERY = {
    "op": "top_stable", "m": 2, "kind": "topk_set", "k": 3,
    "backend": "randomized", "budget": 400,
}


@pytest.fixture(autouse=True)
def _fresh_breakers():
    reset_breakers()
    yield
    reset_breakers()


# ======================================================================
# Deadline primitives
# ======================================================================
class TestDeadline:
    def test_from_request_parses_and_anchors(self):
        deadline = Deadline.from_request({"op": "ping", "deadline_ms": 50})
        assert deadline is not None
        assert deadline.deadline_ms == 50.0
        assert 0.0 < deadline.remaining() <= 0.05

    @pytest.mark.parametrize(
        "value", [None, True, "50", float("nan"), 0, -1]
    )
    def test_from_request_ignores_garbage(self, value):
        payload = {"op": "ping"}
        if value is not None:
            payload["deadline_ms"] = value
        assert Deadline.from_request(payload) is None

    def test_check_raises_once_expired(self):
        deadline = Deadline(0.01)
        time.sleep(0.002)
        with pytest.raises(DeadlineExceededError, match="0.01 ms"):
            deadline.check("unit test")
        assert deadline.expired()

    def test_scope_is_ambient_and_none_is_noop(self):
        assert current_deadline() is None
        deadline = Deadline(1000)
        with deadline_scope(deadline):
            assert current_deadline() is deadline
            with deadline_scope(None):
                assert current_deadline() is deadline
        assert current_deadline() is None

    def test_classify_exception_maps_to_deadline_exceeded(self):
        code, message = protocol.classify_exception(
            DeadlineExceededError("deadline of 5 ms exceeded: test")
        )
        assert code == "deadline_exceeded"
        assert "5 ms" in message

    def test_protocol_rejects_garbage_deadline_on_the_wire(self):
        for bad in ("soon", True, -3, 0):
            with pytest.raises(protocol.RequestError) as err:
                protocol.parse_request(
                    json.dumps({"op": "ping", "deadline_ms": bad})
                )
            assert err.value.code == "bad_request"

    def test_dispatch_fast_fails_expired_request_without_work(self):
        session = StabilitySession(make_dataset(60), seed=7, executor="serial")
        with session:
            deadline = Deadline(0.01)
            time.sleep(0.002)
            assert deadline.expired()
            before = DEADLINE_EXCEEDED.value
            handled = protocol.dispatch(
                session, session.dataset, dict(COLD_QUERY), deadline=deadline
            )
            error = handled.response["error"]
            assert error["code"] == "deadline_exceeded"
            assert not handled.advanced
            assert DEADLINE_EXCEEDED.value == before + 1
            # No pool was grown, no cache entry written: zero work.
            stats = session.stats()
            assert stats["configs"] == {}


# ======================================================================
# Cooperative cancellation mid-observe
# ======================================================================
class _TripAfter:
    """A deadline stub that expires after N ``check`` calls."""

    def __init__(self, allowed: int):
        self.allowed = allowed
        self.calls = 0
        self.deadline_ms = 1.0

    def check(self, what: str = "request") -> None:
        self.calls += 1
        if self.calls > self.allowed:
            raise DeadlineExceededError(
                f"deadline of {self.deadline_ms:g} ms exceeded: {what}"
            )

    def expired(self) -> bool:
        return self.calls >= self.allowed

    def remaining(self) -> float:
        return 1.0 if self.calls < self.allowed else -1.0


class TestCooperativeCancellation:
    # 8192-sample chunks: 48k -> 6 chunks, two groups of 4 at one
    # worker — the second group is gated on a deadline check.
    BUDGET = 48_000

    def _query(self, session):
        return session.top_stable(
            2, kind="topk_set", k=3, backend="randomized", budget=self.BUDGET
        )

    def test_cancel_keeps_pool_warm_and_resume_is_byte_identical(self):
        dataset = make_dataset(150)
        baseline_session = StabilitySession(dataset, seed=7, executor="serial")
        with baseline_session:
            baseline = self._query(baseline_session)

        session = StabilitySession(dataset, seed=7, executor="serial")
        with session:
            trip = _TripAfter(1)  # survives the pre-pass check only
            with deadline_scope(trip):
                with pytest.raises(DeadlineExceededError, match="stay pooled"):
                    self._query(session)
            assert trip.calls > 1  # the observe loop did re-check
            stats = session.stats()
            [config] = stats["configs"].values()
            drawn = config["total_samples"]
            # Cancellation landed between chunk groups: some samples
            # are pooled, but not the full budget.
            assert 0 < drawn < self.BUDGET
            # The retry draws only the remainder and answers exactly
            # what the uninterrupted session answered.
            resumed = self._query(session)
            [config] = session.stats()["configs"].values()
            assert config["total_samples"] == self.BUDGET
        assert [
            (r.stability, tuple(sorted(r.top_k_set))) for r in resumed
        ] == [
            (r.stability, tuple(sorted(r.top_k_set))) for r in baseline
        ]

    @pytest.mark.parametrize("executor", ["thread", "auto"])
    def test_sharded_cancel_resume_is_byte_identical(self, executor):
        # Two workers make chunk groups of 4: the 6-chunk pass runs one
        # sharded group, trips between groups, and the retry folds the
        # rest in plan order — the same tally a serial session builds.
        # n=3_000 clears the auto threshold, so auto shards too.
        dataset = make_dataset(3_000)
        with StabilitySession(dataset, seed=7, executor="serial") as serial:
            baseline = self._query(serial)
            [expected] = serial.stats()["configs"].values()
        session = StabilitySession(
            dataset, seed=7, executor=executor, max_workers=2
        )
        with session:
            trip = _TripAfter(1)
            with deadline_scope(trip):
                with pytest.raises(DeadlineExceededError, match="stay pooled"):
                    self._query(session)
            assert session.observer.last_pass is None  # pass never finished
            [config] = session.stats()["configs"].values()
            assert 0 < config["total_samples"] < self.BUDGET
            resumed = self._query(session)
            assert session.observer.last_pass["executor"] == "thread"
            [config] = session.stats()["configs"].values()
        assert config == expected
        assert [
            (r.stability, r.ranking.order, r.sample_count) for r in resumed
        ] == [
            (r.stability, r.ranking.order, r.sample_count) for r in baseline
        ]

    def test_small_pass_skips_grouping(self):
        session = StabilitySession(make_dataset(40), seed=7, executor="serial")
        with session:
            trip = _TripAfter(1)
            with deadline_scope(trip):
                result = session.top_stable(
                    1, kind="topk_set", k=3, backend="randomized", budget=200
                )
            assert result  # one chunk group: no mid-pass check, no trip


# ======================================================================
# Batch deadline propagation
# ======================================================================
class TestBatchDeadlines:
    def test_expired_request_fails_alone(self):
        session = StabilitySession(make_dataset(60), seed=7, executor="serial")
        requests = [
            {"op": "top_stable", "m": 1, "kind": "topk_set", "k": 3,
             "backend": "randomized", "budget": 300},
            {"op": "top_stable", "m": 1, "kind": "topk_set", "k": 4,
             "backend": "randomized", "budget": 300,
             "deadline_ms": 0.01},
            {"op": "stability_of", "ranking": [0, 1, 2],
             "kind": "topk_set", "k": 3, "backend": "randomized",
             "budget": 300},
        ]
        time.sleep(0.002)  # the deadline anchored at construction expires
        with session:
            outcomes = execute_batch(session, requests)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert isinstance(outcomes[1].error, DeadlineExceededError)

    def test_bad_deadline_fails_at_construction(self):
        from repro.service.batch import StabilityRequest

        for bad in (True, -5, 0, float("nan")):
            with pytest.raises(ValueError, match="deadline_ms"):
                StabilityRequest(op="get_next", deadline_ms=bad)


# ======================================================================
# Retry machinery units
# ======================================================================
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy(breaker_threshold=0)

    def test_backoff_full_jitter_bounds(self):
        state = RetryState(RetryPolicy(base_delay=0.1, max_delay=1.0, seed=0))
        for attempt, cap in [(1, 0.1), (2, 0.2), (3, 0.4), (6, 1.0)]:
            for _ in range(50):
                assert 0.0 <= state.backoff(attempt) <= cap

    def test_retry_after_hint_raises_the_floor(self):
        state = RetryState(RetryPolicy(base_delay=0.01, seed=0))
        assert state.backoff(1, retry_after_ms=500) >= 0.5
        assert state.backoff(1, retry_after_ms=True) <= 0.01  # bool ignored

    def test_token_budget_spends_and_earns_capped(self):
        state = RetryState(RetryPolicy(budget_tokens=2.0, budget_refill=0.5))
        assert state.spend() and state.spend()
        assert not state.spend()  # dry
        for _ in range(10):
            state.earn()
        assert state.tokens == 2.0  # capped at the start value
        assert state.spend()


class TestCircuitBreaker:
    def test_closed_open_halfopen_cycle(self):
        breaker = CircuitBreaker(threshold=2, reset_after=0.05)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        time.sleep(0.06)
        assert breaker.allow()  # the half-open probe
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_halfopen_failure_reopens(self):
        breaker = CircuitBreaker(threshold=1, reset_after=0.05)
        breaker.record_failure()
        time.sleep(0.06)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()


# ======================================================================
# Scripted-socket client retry behaviour
# ======================================================================
class _ScriptedServer:
    """A one-thread TCP server answering from a fixed script.

    Script entries: ``("error", code)`` answers a structured error,
    ``("ok",)`` answers success, ``("close",)`` drops the connection
    before answering, ``("silent",)`` reads but never answers.  Repeats
    the last entry once the script is exhausted.
    """

    def __init__(self, script):
        self.script = list(script)
        self.requests: list[dict] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _next_action(self):
        if len(self.script) > 1:
            return self.script.pop(0)
        return self.script[0]

    def _serve(self):
        self._listener.settimeout(0.1)
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us: shutting down
            with conn:
                handle = conn.makefile("rwb")
                try:
                    while not self._stop.is_set():
                        line = handle.readline()
                        if not line:
                            break
                        self.requests.append(json.loads(line))
                        action = self._next_action()
                        if action[0] == "close":
                            # makefile holds an fd reference: shut the
                            # socket down so the client sees EOF now.
                            handle.close()
                            conn.shutdown(socket.SHUT_RDWR)
                            break
                        if action[0] == "silent":
                            self._stop.wait(30.0)
                            break
                        if action[0] == "error":
                            response = {
                                "ok": False,
                                "error": {
                                    "code": action[1],
                                    "message": "scripted",
                                    "retry_after_ms": 1,
                                },
                            }
                        else:
                            response = {"ok": True, "op": "scripted"}
                        handle.write(json.dumps(response).encode() + b"\n")
                        handle.flush()
                except (OSError, ValueError):
                    pass
                finally:
                    try:
                        handle.close()
                    except OSError:
                        pass

    def close(self):
        self._stop.set()
        self._listener.close()
        self._thread.join(5.0)


FAST_RETRY = RetryPolicy(
    max_attempts=4, base_delay=0.001, max_delay=0.01, seed=0
)


class TestClientRetries:
    def test_retries_structured_rejections_until_ok(self):
        server = _ScriptedServer([("error", "busy"), ("error", "busy"), ("ok",)])
        try:
            before = RETRIES.value
            with ServeClient(
                host="127.0.0.1", port=server.port, retry=FAST_RETRY
            ) as client:
                response = client.ping()
            assert response["ok"] is True
            assert len(server.requests) == 3
            assert RETRIES.value == before + 2
        finally:
            server.close()

    def test_never_retries_get_next(self):
        server = _ScriptedServer([("error", "busy")])
        try:
            before = RETRIES.value
            with ServeClient(
                host="127.0.0.1", port=server.port, retry=FAST_RETRY
            ) as client:
                response = client.get_next()
            assert response["error"]["code"] == "busy"
            assert len(server.requests) == 1  # surfaced, not retried
            assert RETRIES.value == before
        finally:
            server.close()

    def test_deadline_exceeded_is_never_retried(self):
        server = _ScriptedServer([("error", "deadline_exceeded")])
        try:
            with ServeClient(
                host="127.0.0.1", port=server.port, retry=FAST_RETRY
            ) as client:
                response = client.ping()
            assert response["error"]["code"] == "deadline_exceeded"
            assert len(server.requests) == 1
        finally:
            server.close()

    def test_reconnects_after_connection_drop(self):
        server = _ScriptedServer([("close",), ("ok",)])
        try:
            with ServeClient(
                host="127.0.0.1", port=server.port, retry=FAST_RETRY
            ) as client:
                response = client.stats()
            assert response["ok"] is True
            assert len(server.requests) == 2
        finally:
            server.close()

    def test_gives_up_after_max_attempts(self):
        server = _ScriptedServer([("error", "busy")])
        try:
            with ServeClient(
                host="127.0.0.1", port=server.port, retry=FAST_RETRY
            ) as client:
                response = client.ping()
            assert response["error"]["code"] == "busy"
            assert len(server.requests) == FAST_RETRY.max_attempts
        finally:
            server.close()

    def test_no_retry_without_policy(self):
        server = _ScriptedServer([("error", "busy"), ("ok",)])
        try:
            with ServeClient(host="127.0.0.1", port=server.port) as client:
                response = client.ping()
            assert response["error"]["code"] == "busy"
            assert len(server.requests) == 1
        finally:
            server.close()

    def test_unresponsive_server_times_out_within_bound(self):
        """Regression: a server that accepts but never answers must not
        hang the client past its timeout — and the socket is declared
        unusable (desynchronized), not silently reused."""
        server = _ScriptedServer([("silent",)])
        try:
            client = ServeClient(
                host="127.0.0.1", port=server.port,
                timeout=0.3, connect_retries=1,
            )
            start = time.monotonic()
            with pytest.raises(RequestTimeoutError):
                client.request({"op": "ping"})
            assert time.monotonic() - start < 3.0
            with pytest.raises(ConnectionError):
                client.send({"op": "ping"})  # connection was dropped
            client.close()
        finally:
            server.close()

    def test_deadline_tightens_the_socket_timeout(self):
        server = _ScriptedServer([("silent",)])
        try:
            client = ServeClient(
                host="127.0.0.1", port=server.port,
                timeout=60.0, connect_retries=1,
            )
            start = time.monotonic()
            with pytest.raises(RequestTimeoutError):
                client.request({"op": "ping", "deadline_ms": 200})
            # deadline (0.2s) + DEADLINE_SLACK_S (1s), not 60s.
            assert time.monotonic() - start < 5.0
            client.close()
        finally:
            server.close()


# ======================================================================
# Overload degradation
# ======================================================================
class TestOverloadGuard:
    def test_hysteresis_band(self):
        guard = OverloadGuard(1000, low_fraction=0.5)
        assert not guard.update(999)
        assert guard.update(1000)  # enter at the high watermark
        assert guard.update(600)  # still above the low watermark
        assert not guard.update(499)  # exit below it
        assert guard.transitions == 2
        guard.shed()
        snapshot = guard.snapshot()
        assert snapshot["shed_total"] == 1
        assert snapshot["high_bytes"] == 1000 and snapshot["low_bytes"] == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            OverloadGuard(0)
        with pytest.raises(ValueError):
            OverloadGuard(100, low_fraction=0.0)
        with pytest.raises(ValueError):
            OverloadGuard(100, retry_after_ms=-1)

    def test_parse_size(self):
        assert parse_size("512") == 512
        assert parse_size("64kb") == 64 * 1024
        assert parse_size("1.5MiB") == int(1.5 * (1 << 20))
        assert parse_size("2gb") == 2 * (1 << 30)
        for bad in ("", "mb", "-1kb", "64qb"):
            with pytest.raises(ValueError):
                parse_size(bad)

    def test_server_sheds_cold_observes_but_answers_warm_reads(self, dataset):
        with running_server(dataset, memory_watermark_bytes=1) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                # First cold observe: usage is still 0, admitted.
                first = client.request(dict(COLD_QUERY))
                assert first["ok"] is True
                # Pool bytes now exceed the 1-byte watermark: the next
                # cold observe is shed with a retry hint...
                shed = client.request(dict(COLD_QUERY, k=4))
                assert shed["error"]["code"] == "overloaded"
                assert shed["error"]["retry_after_ms"] == 500.0
                # ...while the warm read keeps answering, identically.
                warm = client.request(dict(COLD_QUERY))
                assert warm["ok"] is True
                assert warm["result"] == first["result"]
                stats = client.stats()
                overload = stats["server"]["overload"]
                assert overload["degraded"] is True
                assert overload["shed_total"] >= 1
                text = handle.server.metrics.render_text()
        assert "repro_degraded_mode 1" in text

    def test_degraded_gauge_is_zero_without_pressure(self, dataset):
        with running_server(dataset) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                client.ping()
                text = handle.server.metrics.render_text()
        assert "repro_degraded_mode 0" in text


# ======================================================================
# Chaos injection
# ======================================================================
class TestChaos:
    def test_parse_chaos_grammar(self):
        config = parse_chaos("delay:p=0.05,ms=100;error:p=0.01;drop:p=0.005")
        assert config.delay_p == 0.05 and config.delay_ms == 100.0
        assert config.error_p == 0.01 and config.drop_p == 0.005
        assert config.enabled

    @pytest.mark.parametrize(
        "spec",
        [
            "boom:p=0.1",          # unknown kind
            "error:p=0.1;error:p=0.2",  # duplicate clause
            "error:p=1.5",         # p out of range
            "delay:p=0.6;error:p=0.6",  # probabilities sum past 1
            "error:q=0.1",         # unknown key
            "error",               # missing params
        ],
    )
    def test_parse_chaos_rejects(self, spec):
        with pytest.raises(ValueError):
            parse_chaos(spec)

    def test_injector_is_deterministic_per_seed(self):
        config = parse_chaos("delay:p=0.2,ms=1;error:p=0.2;drop:p=0.1")
        ops = ["ping", "top_stable", "get_next", "stats"] * 50

        def run(seed):
            injector = ChaosInjector(config, seed=seed)
            return [
                (fault.kind if fault else None)
                for fault in (injector.decide(op) for op in ops)
            ]

        first, second, third = run(3), run(3), run(4)
        assert first == second
        assert any(first)  # p=0.5 over 200 draws: faults certainly fired
        assert not all(first)
        assert first != third

    def test_injector_spares_shutdown_and_counts(self):
        config = parse_chaos("error:p=1.0")
        injector = ChaosInjector(config, seed=0)
        before = CHAOS_INJECTED.value
        assert injector.decide("shutdown") is None
        assert injector.decide("ping").kind == "error"
        assert CHAOS_INJECTED.value == before + 1
        assert injector.snapshot()["injected"]["error"] == 1

    def test_server_chaos_with_retries_answers_identically(self, dataset):
        with running_server(dataset) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                expected = client.request(dict(COLD_QUERY))
        assert expected["ok"] is True
        retry = RetryPolicy(
            max_attempts=8, base_delay=0.001, max_delay=0.01, seed=0
        )
        with running_server(dataset, chaos="error:p=0.25", chaos_seed=1) as handle:
            with ServeClient(
                host=handle.host, port=handle.port, retry=retry
            ) as client:
                for _ in range(10):
                    response = client.request(dict(COLD_QUERY))
                    assert response["ok"] is True
                    assert response["result"] == expected["result"]
                stats = client.stats()
                assert stats["server"]["chaos"]["injected"]["error"] >= 1

    def test_bad_chaos_spec_fails_server_config_fast(self, dataset):
        from repro.server import ServerConfig

        with pytest.raises(ValueError):
            ServerConfig(chaos="nonsense")


# ======================================================================
# Deadlines end to end (server)
# ======================================================================
class TestServerDeadlines:
    def test_expired_deadline_answers_fast_without_work(self, dataset):
        with running_server(dataset) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                start = time.monotonic()
                response = client.request(dict(COLD_QUERY, deadline_ms=0.01))
                elapsed = time.monotonic() - start
                assert response["error"]["code"] == "deadline_exceeded"
                assert elapsed < 2.0  # a real cold observe, not just fast-fail
                stats = client.stats()
                # The shed request never grew a pool.
                [entry] = stats["server"]["registry"]["active"].values()
                assert entry["pool_samples"] == 0

    def test_generous_deadline_answers_ok(self, dataset):
        with running_server(dataset) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                response = client.request(dict(COLD_QUERY, deadline_ms=30_000))
                assert response["ok"] is True

    def test_deadline_bounds_the_session_lock_wait(self, dataset):
        with running_server(dataset) as handle:
            blocker = ServeClient(host=handle.host, port=handle.port)
            waiter = ServeClient(host=handle.host, port=handle.port)
            try:
                # Occupy the session write lock with a long cold observe.
                blocker.send(dict(COLD_QUERY, budget=600_000))
                time.sleep(0.1)
                start = time.monotonic()
                response = waiter.request(
                    dict(COLD_QUERY, k=4, deadline_ms=100)
                )
                elapsed = time.monotonic() - start
                assert response["error"]["code"] == "deadline_exceeded"
                assert elapsed < 2.0
                assert blocker.recv()["ok"] is True
            finally:
                blocker.close()
                waiter.close()

    def test_drain_refusal_prefers_deadline_exceeded(self, dataset):
        """A request whose deadline expired while the server drained is
        answered ``deadline_exceeded`` (terminal), not ``shutting_down``
        (an invitation to retry the deadline no longer allows)."""
        with running_server(
            dataset, max_pending_per_connection=1, drain_grace=10.0
        ) as handle:
            client = ServeClient(host=handle.host, port=handle.port)
            try:
                # The first request occupies the one pipelining slot;
                # the second (tiny deadline) parks until the slot frees.
                client.send(dict(COLD_QUERY, budget=40_000))
                client.send({"op": "ping", "deadline_ms": 1})
                time.sleep(0.05)
                handle.server.request_shutdown()
                first = client.recv()
                second = client.recv()
                assert first["ok"] is True
                assert second["error"]["code"] == "deadline_exceeded"
            finally:
                client.close()


# ======================================================================
# Exposition: the new families exist and lint clean
# ======================================================================
class TestResilienceMetrics:
    def test_families_render_and_lint_clean(self, dataset):
        from repro.obs.promlint import lint

        with running_server(
            dataset, chaos="error:p=1.0", chaos_seed=0,
            memory_watermark_bytes=1 << 40,
        ) as handle:
            retry = RetryPolicy(max_attempts=2, base_delay=0.001, seed=0)
            with ServeClient(
                host=handle.host, port=handle.port, retry=retry
            ) as client:
                response = client.ping()
                assert response["error"]["code"] == "unavailable"
                client.request({"op": "ping", "deadline_ms": 0.001})
            text = handle.server.metrics.render_text()
        assert lint(text) == []
        for family in (
            "repro_retries_total",
            "repro_deadline_exceeded_total",
            "repro_chaos_injected_total",
            "repro_degraded_mode",
        ):
            assert f"\n{family} " in text or text.startswith(f"{family} ")
