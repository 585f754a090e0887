"""End-to-end TCP server tests: hardening, concurrency, drain, restart.

Every test talks to a real server over a real socket.  The three
acceptance properties of the subsystem live here:

(a) answers under N concurrent clients are byte-identical to a serial
    single-session run;
(b) a pool observed concurrently grows exactly once (the write lock
    serializes growth; late writers find the pool at target);
(c) a graceful drain checkpoints every dirty session, and the
    restarted server answers warm.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro import Dataset, StabilitySession
from repro.server import (
    ServeClient,
    ServerClosedError,
    SessionRegistry,
    parse_hostport,
    serve_in_thread,
)
from repro.server import protocol

from server_testlib import make_dataset, running_server

#: The mixed warm/cold workload every concurrency test replays: two
#: randomized configurations, idempotent ops only (so answers are
#: comparable across clients), with warm repeats.
WORKLOAD = [
    {"op": "top_stable", "m": 2, "kind": "topk_set", "k": 3,
     "backend": "randomized", "budget": 300},
    {"op": "top_stable", "m": 2, "kind": "topk_ranked", "k": 3,
     "backend": "randomized", "budget": 300},
    {"op": "top_stable", "m": 2, "kind": "topk_set", "k": 3,
     "backend": "randomized", "budget": 300},
    {"op": "stability_of", "kind": "full", "ranking": [0, 1],
     "min_samples": 300},
]


def serial_answers(dataset: Dataset, seed: int, requests=WORKLOAD) -> list:
    """The single-session ground truth for ``requests`` (result payloads)."""
    answers = []
    with StabilitySession(dataset, seed=seed, executor="serial") as session:
        for request in requests:
            handled = protocol.dispatch(session, dataset, request)
            assert handled.response["ok"] is True, handled.response
            answers.append(json.dumps(handled.response["result"]))
    return answers


class TestHardening:
    def test_bad_input_never_kills_the_connection(self, dataset):
        with running_server(dataset, max_line_bytes=4096) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                bad = client.request_raw(b"}{ not json\n")
                assert bad["error"]["code"] == "bad_json"
                unknown = client.request({"op": "teleport"})
                assert unknown["error"]["code"] == "unknown_op"
                not_object = client.request_raw(b"[1, 2, 3]\n")
                assert not_object["error"]["code"] == "bad_request"
                oversized = client.request_raw(
                    b'{"op": "ping", "pad": "' + b"x" * 8192 + b'"}\n'
                )
                assert oversized["error"]["code"] == "line_too_long"
                # The same connection still serves real work.
                assert client.ping()["pong"] is True
                result = client.top_stable(
                    1, kind="topk_set", k=3, backend="randomized", budget=200
                )
                assert result["ok"] is True

    def test_oversized_line_does_not_corrupt_next_frame(self, dataset):
        with running_server(dataset, max_line_bytes=1024) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                # Oversized frame and a valid frame written together:
                # the discard must stop exactly at the newline.
                client._file.write(
                    b'{"pad": "' + b"y" * 4096 + b'"}\n{"op": "ping"}\n'
                )
                client._file.flush()
                first = json.loads(client._file.readline())
                second = json.loads(client._file.readline())
                assert first["error"]["code"] == "line_too_long"
                assert second == {"ok": True, "pong": True}

    def test_unknown_dataset_is_structured(self, dataset):
        with running_server(dataset) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                response = client.request(
                    {"op": "stats", "dataset": "missing"}
                )
                assert response["error"]["code"] == "unknown_dataset"
                assert "default" in response["error"]["message"]

    def test_request_errors_echo_ids(self, dataset):
        with running_server(dataset) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                response = client.request(
                    {"op": "top_stable", "m": 0, "id": "q-17"}
                )
                assert response["ok"] is False and response["id"] == "q-17"


class TestProtocolOverTcp:
    def test_hello_stats_invalidate(self, dataset):
        with running_server(dataset) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                hello = client.hello()
                assert hello["protocol"] == protocol.PROTOCOL_VERSION
                assert hello["datasets"] == ["default"]
                client.top_stable(1, kind="topk_set", k=3,
                                  backend="randomized", budget=200)
                stats = client.stats()
                assert stats["stats"]["configs"]
                assert stats["server"]["registry"]["active"]
                assert stats["server"]["metrics"]["requests_total"]
                assert client.invalidate()["invalidated"] >= 0

    def test_pipelined_responses_stay_ordered(self, dataset):
        with running_server(dataset) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                lines = b"".join(
                    json.dumps({"op": "ping", "id": i}).encode() + b"\n"
                    for i in range(10)
                )
                client._file.write(lines)
                client._file.flush()
                ids = [
                    json.loads(client._file.readline())["id"]
                    for i in range(10)
                ]
                assert ids == list(range(10))

    def test_multiple_named_datasets(self, dataset):
        other = make_dataset(40, 2, seed=11)
        with running_server(dataset, datasets={"other": other}) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                default = client.top_stable(
                    1, kind="topk_set", k=3, backend="randomized", budget=200
                )
                named = client.top_stable(
                    1, kind="topk_set", k=3, backend="randomized",
                    budget=200, dataset="other",
                )
                assert default["ok"] and named["ok"]
                assert default["result"] != named["result"]

    def test_parse_hostport_forms(self):
        assert parse_hostport("0.0.0.0:7701") == ("0.0.0.0", 7701)
        assert parse_hostport(":7701") == ("127.0.0.1", 7701)
        assert parse_hostport("7701") == ("127.0.0.1", 7701)
        with pytest.raises(ValueError):
            parse_hostport("nope")


class TestConcurrency:
    N_CLIENTS = 6

    def test_concurrent_clients_match_serial_and_grow_pool_once(self, dataset):
        seed = 7
        expected = serial_answers(dataset, seed)
        with running_server(dataset, seed=seed) as handle:
            results: dict[int, list] = {}
            errors: list = []
            barrier = threading.Barrier(self.N_CLIENTS)

            def worker(idx: int):
                try:
                    with ServeClient(
                        host=handle.host, port=handle.port
                    ) as client:
                        barrier.wait(timeout=30)
                        answers = []
                        for request in WORKLOAD:
                            response = client.request(dict(request))
                            assert response["ok"] is True, response
                            answers.append(json.dumps(response["result"]))
                        results[idx] = answers
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(self.N_CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors, errors
            # (a) every client saw the serial single-session answers.
            assert len(results) == self.N_CLIENTS
            for answers in results.values():
                assert answers == expected
            # (b) each pool grew exactly once to its target — no
            # duplicated observe work under the write lock.
            with ServeClient(host=handle.host, port=handle.port) as client:
                configs = client.stats()["stats"]["configs"]
            by_label = {
                label: pool["total_samples"]
                for label, pool in configs.items()
            }
            assert by_label == {
                "topk_set:k=3@randomized": 300,
                "topk_ranked:k=3@randomized": 300,
                "full@randomized": 300,
            }

    def test_busy_shedding_under_admission_cap(self, dataset):
        slow = make_dataset(4000, 3, seed=3)
        with running_server(slow, max_inflight=1) as handle:
            release: list = []

            def slow_request():
                with ServeClient(host=handle.host, port=handle.port) as c:
                    release.append(
                        c.top_stable(1, kind="topk_set", k=8,
                                     backend="randomized", budget=60_000)
                    )

            thread = threading.Thread(target=slow_request)
            thread.start()
            try:
                deadline = time.monotonic() + 30
                while (
                    handle.server._inflight < 1
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.005)
                assert handle.server._inflight >= 1
                with ServeClient(host=handle.host, port=handle.port) as c:
                    shed = c.ping()
                assert shed["ok"] is False
                assert shed["error"]["code"] == "busy"
            finally:
                thread.join(timeout=120)
            assert release and release[0]["ok"] is True
            with ServeClient(host=handle.host, port=handle.port) as c:
                assert c.ping()["pong"] is True  # capacity is back
                assert c.stats()["server"]["metrics"]["busy_shed_total"] >= 1


class TestDrainAndRestart:
    def test_graceful_drain_checkpoints_and_restarts_warm(
        self, dataset, tmp_path
    ):
        seed = 13
        request = {"op": "top_stable", "m": 2, "kind": "topk_set", "k": 3,
                   "backend": "randomized", "budget": 400}
        with running_server(dataset, state_dir=tmp_path, seed=seed) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                first = client.request(dict(request))
                assert first["ok"] is True and first["cached"] is False
            report = handle.stop()
        assert [entry["dataset"] for entry in report] == ["default"]
        snaps = list(tmp_path.glob("*.snap"))
        assert len(snaps) == 1
        # The restarted server answers the same query warm: from the
        # restored result cache, without growing any pool.
        with running_server(dataset, state_dir=tmp_path, seed=seed) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                warm = client.request(dict(request))
                assert warm["ok"] is True
                assert warm["cached"] is True
                assert warm["result"] == first["result"]
                stats = client.stats()
                assert stats["server"]["registry"]["active"]["default"][
                    "restored"
                ]
                pools = stats["stats"]["configs"]
                assert pools["topk_set:k=3@randomized"]["total_samples"] == 400

    def test_shutdown_op_drains_and_checkpoints(self, dataset, tmp_path):
        with running_server(dataset, state_dir=tmp_path) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                assert client.top_stable(
                    1, kind="topk_set", k=3, backend="randomized", budget=200
                )["ok"]
                assert client.shutdown()["shutting_down"] is True
                # The server closes the connection after draining.
                with pytest.raises((ServerClosedError, OSError)):
                    for _ in range(5):
                        client.ping()
                        time.sleep(0.1)
            handle.thread.join(timeout=30)
            assert not handle.thread.is_alive()
        assert list(tmp_path.glob("*.snap"))

    def test_drain_completes_while_an_idle_client_stays_connected(
        self, dataset
    ):
        """Since Python 3.12.1 Server.wait_closed() blocks until every
        client connection is gone; the drain must cancel idle handlers
        first or a single keep-alive connection parks it forever."""
        with running_server(dataset) as handle:
            idle = ServeClient(host=handle.host, port=handle.port)
            try:
                assert idle.ping()["pong"] is True
                handle.stop(timeout=30)  # must not hang
            finally:
                idle.close()
        assert not handle.thread.is_alive()

    @pytest.mark.parametrize(
        "deadline,code",
        [(None, "shutting_down"), (1, "deadline_exceeded")],
    )
    def test_drain_answers_a_request_parked_behind_backpressure(
        self, dataset, deadline, code
    ):
        """A request the read loop has read but parked behind
        ``max_pending_per_connection`` is not counted in ``_inflight``.
        When the request ahead of it finishes, ``_inflight`` reads 0
        before the parked handler wakes; a drain that cancelled every
        handler then would leave the parked request unanswered.  The
        first request here finishes by holding the event loop past the
        drain's next poll, so the drain looks in exactly that gap.  A
        parked request whose 1 ms deadline ran out meanwhile is refused
        ``deadline_exceeded``, any other ``shutting_down``."""
        with running_server(
            dataset, max_pending_per_connection=1, drain_grace=10.0
        ) as handle:
            server = handle.server
            process = server._process
            first, parked = {"op": "stats"}, {"op": "ping", "id": "parked"}
            if deadline is not None:
                parked["deadline_ms"] = deadline
            sent = sum(len(json.dumps(p)) + 1 for p in (first, parked))

            async def finish_in_the_gap(payload, deadline=None, earlier=()):
                response = await process(payload, deadline, earlier)
                # Every byte counted means the ping was read and parked:
                # the handler parks in the same step that reads it.
                while server.metrics.bytes_in < sent:
                    await asyncio.sleep(0.001)
                server.request_shutdown()
                while not server._draining:
                    await asyncio.sleep(0.001)
                time.sleep(0.1)  # the drain's 20 ms poll is now due...
                await asyncio.sleep(0)  # ...and runs right after we finish
                return response

            server._process = finish_in_the_gap
            client = ServeClient(host=handle.host, port=handle.port)
            try:
                client.send(first)
                client.send(parked)
                assert client.recv()["ok"] is True
                refusal = client.recv()
            finally:
                client.close()
            handle.thread.join(timeout=30)
        assert refusal["id"] == "parked"
        assert refusal["error"]["code"] == code

    def test_sigterm_during_load_checkpoints_every_dirty_session(
        self, tmp_path
    ):
        """The acceptance drill: SIGTERM mid-request loses nothing."""
        dataset = make_dataset(2000, 3, seed=9)
        other = make_dataset(500, 3, seed=10)
        registry = SessionRegistry(state_dir=tmp_path, seed=3, executor="serial")
        registry.add_dataset("default", dataset)
        registry.add_dataset("other", other)
        handle = serve_in_thread(registry)
        responses: list = []

        def load():
            with ServeClient(host=handle.host, port=handle.port) as client:
                responses.append(
                    client.top_stable(2, kind="topk_set", k=5,
                                      backend="randomized", budget=20_000)
                )

        with ServeClient(host=handle.host, port=handle.port) as client:
            assert client.top_stable(
                1, kind="topk_set", k=3, backend="randomized",
                budget=300, dataset="other",
            )["ok"]
        thread = threading.Thread(target=load)
        thread.start()
        deadline = time.monotonic() + 30
        while handle.server._inflight < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        # request_shutdown is exactly what the SIGTERM handler calls.
        report = handle.stop(timeout=120)
        thread.join(timeout=120)
        # The in-flight request finished (drain waited for it)...
        assert responses and responses[0]["ok"] is True
        # ...and *both* dirty sessions reached disk.
        assert sorted(entry["dataset"] for entry in report) == [
            "default", "other",
        ]
        assert len(list(tmp_path.glob("*.snap"))) == 2
        # A restarted registry answers the heavy query warm.
        fresh = SessionRegistry(state_dir=tmp_path, seed=3, executor="serial")
        fresh.add_dataset("default", dataset)
        fresh.add_dataset("other", other)
        h2 = serve_in_thread(fresh)
        try:
            with ServeClient(host=h2.host, port=h2.port) as client:
                warm = client.top_stable(2, kind="topk_set", k=5,
                                         backend="randomized", budget=20_000)
                assert warm["cached"] is True
                assert warm["result"] == responses[0]["result"]
        finally:
            h2.stop()


class TestMetricsEndpoint:
    def test_text_endpoint_serves_prometheus(self, dataset):
        import urllib.request

        with running_server(dataset, metrics_port=0) as handle:
            # port 0 resolved by the OS; read it off the bound socket.
            mport = handle.server._metrics_server.sockets[0].getsockname()[1]
            with ServeClient(host=handle.host, port=handle.port) as client:
                client.ping()
            with urllib.request.urlopen(
                f"http://127.0.0.1:{mport}/metrics", timeout=10
            ) as response:
                body = response.read().decode()
                content_type = response.headers["Content-Type"]
        assert "text/plain" in content_type
        assert 'repro_server_requests_total{op="ping"} 1' in body


class TestMisbehavingClients:
    def test_unknown_op_echoes_id(self, dataset):
        with running_server(dataset) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                response = client.request({"op": "teleport", "id": "x9"})
                assert response["error"]["code"] == "unknown_op"
                assert response["id"] == "x9"

    def test_config_rejects_zero_admission_knobs(self):
        from repro.server import ServerConfig

        with pytest.raises(ValueError):
            ServerConfig(max_pending_per_connection=0)
        with pytest.raises(ValueError):
            ServerConfig(max_inflight=0)

    def test_pipelining_disconnector_does_not_leak_the_handler(self, dataset):
        """A client that floods requests and vanishes without reading
        must tear down cleanly: the read loop unblocks when the sender
        dies, instead of parking forever on the full response queue."""
        import socket

        with running_server(dataset, max_pending_per_connection=2) as handle:
            sock = socket.create_connection(
                (handle.host, handle.port), timeout=10
            )
            # More pings than the response queue can hold, never read.
            sock.sendall(b'{"op": "ping"}\n' * 200)
            sock.close()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                with ServeClient(host=handle.host, port=handle.port) as c:
                    active = c.stats()["server"]["metrics"]["connections"][
                        "active"
                    ]
                # Only the probing client itself should be connected.
                if active <= 1:
                    break
                time.sleep(0.1)
            assert active <= 1, f"handler leaked: {active} active"
            # And the server still serves.
            with ServeClient(host=handle.host, port=handle.port) as c:
                assert c.ping()["pong"] is True
