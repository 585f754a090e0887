"""Cache hits answered on the event loop, and the coalescing send path.

A warm ``top_stable``/``stability_of`` whose answer already sits in the
session's result cache is answered by the connection's read loop: no
executor hop, no per-request task, no lock round trip.  These tests pin
what that fast path must keep: the same bytes as the executor path,
writer exclusion, one cache hit counted per hit, request order, the
receipt-anchored deadline and the registry's LRU order.  The send-path
tests pin the coalesced writes: finished responses leave together, a
slow request holds back only the responses behind it, and a client that
vanishes mid-window still tears its handler down.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro import StabilitySession
from repro.server import ServeClient
from repro.server.registry import ManagedSession
from server_testlib import make_dataset, running_server

HIT = {
    "op": "top_stable", "m": 2, "kind": "topk_set", "k": 3,
    "backend": "randomized", "budget": 300,
}
VERIFY = {
    "op": "stability_of", "kind": "topk_set", "k": 3,
    "backend": "randomized", "ranking": [2, 0, 1], "min_samples": 300,
}


def _count_executor_dispatches(server) -> list:
    """Record every executor dispatch the server makes (one per call)."""
    calls: list = []
    original = server._dispatch_in_executor

    async def counting(managed, payload, **kwargs):
        calls.append(payload.get("op"))
        return await original(managed, payload, **kwargs)

    server._dispatch_in_executor = counting
    return calls


def _on_loop(handle, coro, timeout: float = 10.0):
    """Run ``coro`` on the server's event loop and wait for it."""
    return asyncio.run_coroutine_threadsafe(
        coro, handle.server._loop
    ).result(timeout)


def _lines(*payloads) -> bytes:
    return b"".join(json.dumps(p).encode() + b"\n" for p in payloads)


class _Raw:
    """A bare socket: pipelined writes, line reads with a timeout."""

    def __init__(self, handle):
        self.sock = socket.create_connection(
            (handle.host, handle.port), timeout=10
        )
        self.buffer = b""

    def send(self, *payloads) -> None:
        self.sock.sendall(_lines(*payloads))

    def recv(self, timeout: float = 30.0) -> dict:
        """The next response line; ``socket.timeout`` if none arrives."""
        self.sock.settimeout(timeout)
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def close(self) -> None:
        self.sock.close()


def _silent_for(raw: _Raw, seconds: float) -> bool:
    """Whether no response arrives within ``seconds``."""
    try:
        raw.recv(timeout=seconds)
    except socket.timeout:
        return True
    return False


@pytest.mark.parametrize("query", [HIT, VERIFY], ids=["top_stable", "stability_of"])
def test_hit_answers_without_the_executor(dataset, monkeypatch, query):
    threads = []
    original = getattr(StabilitySession, query["op"])

    def recording(self, *args, **kwargs):
        threads.append(threading.current_thread().name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(StabilitySession, query["op"], recording)
    with running_server(dataset) as handle:
        dispatches = _count_executor_dispatches(handle.server)
        with ServeClient(host=handle.host, port=handle.port) as client:
            first = client.request(dict(query))
            assert first["ok"] is True and first["cached"] is False, first
            assert dispatches == [query["op"]]
            repeat = client.request(dict(query))
        assert repeat["ok"] is True and repeat["cached"] is True, repeat
        # No executor dispatch for the hit: the loop thread answered it.
        assert dispatches == [query["op"]]
        assert threads[-1] == handle.thread.name != threads[0]
        assert json.dumps(repeat["result"]) == json.dumps(first["result"])


@pytest.mark.parametrize("writer_state", ["held", "awaited"])
def test_hit_waits_for_a_writer_of_its_session(dataset, writer_state):
    with running_server(dataset) as handle:
        with ServeClient(host=handle.host, port=handle.port) as client:
            first = client.request(dict(HIT))
        lock = handle.server.registry._active["default"].lock
        dispatches = _count_executor_dispatches(handle.server)
        if writer_state == "held":
            _on_loop(handle, lock.acquire_write())
        else:
            _on_loop(handle, lock.acquire_read())
            writer = asyncio.run_coroutine_threadsafe(
                lock.acquire_write(), handle.server._loop
            )
            deadline = time.monotonic() + 10
            while not lock.writer_pending and time.monotonic() < deadline:
                time.sleep(0.01)
            assert lock.writer_pending
        raw = _Raw(handle)
        try:
            raw.send({**HIT, "id": "after-writer"})
            assert _silent_for(raw, 0.3), "a hit overtook the writer"
            if writer_state == "awaited":
                _on_loop(handle, lock.release_read())
                writer.result(10)
                assert _silent_for(raw, 0.2), "a hit overtook the writer"
            _on_loop(handle, lock.release_write())
            response = raw.recv()
        finally:
            raw.close()
        assert response["ok"] is True and response["cached"] is True
        assert response["id"] == "after-writer"
        assert json.dumps(response["result"]) == json.dumps(first["result"])
        # It took the locked executor path.
        assert dispatches == ["top_stable"]


def test_each_hit_counts_once_and_misses_stay(dataset):
    with running_server(dataset) as handle:
        with ServeClient(host=handle.host, port=handle.port) as client:
            client.request(dict(HIT))
            client.request(dict(VERIFY))
            before = client.stats()["stats"]
            dispatches = _count_executor_dispatches(handle.server)
            for _ in range(3):
                assert client.request(dict(HIT))["cached"] is True
                assert client.request(dict(VERIFY))["cached"] is True
            after = client.stats()["stats"]
        assert dispatches == ["stats"]  # the six hits ran on the loop
        for section in ("cache", "cache_session"):
            assert after[section]["hits"] - before[section]["hits"] == 6
            assert after[section]["misses"] == before[section]["misses"]


def test_pipelined_mix_answers_in_request_order(dataset):
    miss = {**HIT, "m": 1}  # warm pool, answer not cached: a pool read
    cold = {**HIT, "kind": "topk_ranked"}  # a new pool: a write
    with running_server(dataset) as handle:
        with ServeClient(host=handle.host, port=handle.port) as client:
            hit = client.request(dict(HIT))
            verify = client.request(dict(VERIFY))
        window = [HIT, miss, cold, {"op": "ping"}, HIT, VERIFY, miss, HIT]
        raw = _Raw(handle)
        try:
            raw.send(*({**p, "id": i} for i, p in enumerate(window)))
            responses = [raw.recv() for _ in window]
        finally:
            raw.close()
    assert [r["id"] for r in responses] == list(range(len(window)))
    assert all(r["ok"] for r in responses), responses
    assert [r.get("cached") for r in responses] == [
        True, False, False, None, True, True, True, True
    ]
    for i in (0, 4, 7):
        assert responses[i]["result"] == hit["result"]
    assert responses[5]["result"] == verify["result"]
    assert responses[6]["result"] == responses[1]["result"]


def test_deadline_anchored_at_receipt_still_expires_a_hit(dataset):
    # Every request is delayed 60 ms after receipt: a 20 ms deadline is
    # spent before the hit reaches the fast path.
    with running_server(dataset, chaos="delay:p=1,ms=60") as handle:
        with ServeClient(host=handle.host, port=handle.port) as client:
            assert client.request(dict(HIT))["ok"] is True
            assert client.request(dict(HIT))["cached"] is True
            for deadline_ms in (20, 1e-6):
                response = client.request(
                    {**HIT, "id": "late", "deadline_ms": deadline_ms}
                )
                assert response["ok"] is False, response
                assert response["error"]["code"] == "deadline_exceeded"
                assert response["id"] == "late"


def test_hits_keep_their_dataset_most_recently_used(dataset):
    others = {"b": make_dataset(seed=5), "c": make_dataset(seed=6)}
    with running_server(dataset, datasets=others, max_active=2) as handle:
        registry = handle.server.registry
        with ServeClient(host=handle.host, port=handle.port) as client:
            client.request(dict(HIT))
            client.request({**HIT, "dataset": "b"})
            dispatches = _count_executor_dispatches(handle.server)
            for _ in range(3):
                assert client.request(dict(HIT))["cached"] is True
            assert dispatches == []
            assert (
                registry._active["default"].last_used
                > registry._active["b"].last_used
            )
            client.request({**HIT, "dataset": "c"})
        # Activating c evicted the idle least-recently-used session.
        assert sorted(registry._active) == ["c", "default"]


def test_a_window_of_hits_is_written_in_fewer_writes(dataset, monkeypatch):
    writes = []
    original = asyncio.StreamWriter.write

    def counting(self, data):
        writes.append(data.count(b"\n"))
        return original(self, data)

    with running_server(dataset) as handle:
        with ServeClient(host=handle.host, port=handle.port) as client:
            client.request(dict(HIT))
        raw = _Raw(handle)
        try:
            monkeypatch.setattr(asyncio.StreamWriter, "write", counting)
            raw.send(*({**HIT, "id": i} for i in range(8)))
            responses = [raw.recv() for _ in range(8)]
            monkeypatch.undo()
        finally:
            raw.close()
    assert [r["id"] for r in responses] == list(range(8))
    assert sum(writes) == 8
    assert len(writes) < 8, writes


def test_slow_request_holds_back_only_the_responses_behind_it(dataset):
    with running_server(dataset, datasets={"slow": make_dataset(seed=9)}) as handle:
        with ServeClient(host=handle.host, port=handle.port) as client:
            client.request(dict(HIT))
            client.request({**HIT, "dataset": "slow"})
        lock = handle.server.registry._active["slow"].lock
        window = [HIT, VERIFY, {**HIT, "dataset": "slow"}, HIT, VERIFY]
        _on_loop(handle, lock.acquire_write())
        raw = _Raw(handle)
        try:
            raw.send(*({**p, "id": i} for i, p in enumerate(window)))
            ahead = [raw.recv(timeout=10) for _ in range(2)]
            assert _silent_for(raw, 0.3), "a response overtook the slow one"
            _on_loop(handle, lock.release_write())
            behind = [raw.recv() for _ in range(3)]
        finally:
            raw.close()
    assert [r["id"] for r in ahead + behind] == list(range(len(window)))
    assert all(r["ok"] for r in ahead + behind)


def test_client_vanishing_mid_window_tears_the_handler_down(dataset):
    with running_server(
        dataset, datasets={"slow": make_dataset(seed=9)}
    ) as handle:
        with ServeClient(host=handle.host, port=handle.port) as client:
            client.request(dict(HIT))
            client.request({**HIT, "dataset": "slow"})
        lock = handle.server.registry._active["slow"].lock
        _on_loop(handle, lock.acquire_write())
        raw = _Raw(handle)
        # Hits, a request stuck behind the writer, then more requests
        # than the response queue holds — and the client never reads.
        raw.send(*([HIT] * 8 + [{**HIT, "dataset": "slow"}] + [HIT] * 200))
        raw.close()
        time.sleep(0.2)
        _on_loop(handle, lock.release_write())
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            with ServeClient(host=handle.host, port=handle.port) as client:
                active = client.stats()["server"]["metrics"]["connections"][
                    "active"
                ]
            if active <= 1:  # only the probing client
                break
            time.sleep(0.1)
        assert active <= 1, f"handler leaked: {active} active"
        with ServeClient(host=handle.host, port=handle.port) as client:
            assert client.request(dict(HIT))["cached"] is True


def test_hit_never_overtakes_an_earlier_write_of_its_connection(dataset):
    grow = {**HIT, "budget": 2_000}  # a write: grows the pool HIT reads
    with running_server(dataset) as handle:
        with ServeClient(host=handle.host, port=handle.port) as client:
            first = client.request(dict(HIT))
        raw = _Raw(handle)
        try:
            raw.send(grow, HIT)
            grown, after_grow = raw.recv(), raw.recv()
            raw.send({"op": "invalidate"}, HIT)
            _, after_invalidate = raw.recv(), raw.recv()
        finally:
            raw.close()
    # Each read ran after the pipelined write before it: the first
    # answers from the grown pool, the second regrew an invalidated one.
    assert grown["cached"] is False
    assert after_grow["cached"] is True
    assert after_grow["result"] == grown["result"] != first["result"]
    assert after_invalidate["cached"] is False
    assert after_invalidate["result"] == first["result"]


def test_pipelined_write_waits_for_the_reads_before_it():
    # The pool holds 300 samples; the pipelined window grows it, reads
    # it, drops it and reads it again.  The invalidate must not take
    # the session before the read queued ahead of it, nor the last read
    # run before the invalidate.
    with running_server(make_dataset(2_000, 3)) as handle:
        with ServeClient(host=handle.host, port=handle.port) as client:
            first = client.request(dict(HIT))
        window = [{**HIT, "budget": 2_000}, HIT, {"op": "invalidate"}, HIT]
        raw = _Raw(handle)
        try:
            raw.send(*({**p, "id": i} for i, p in enumerate(window)))
            responses = [raw.recv() for _ in window]
        finally:
            raw.close()
    assert all(r["ok"] for r in responses), responses
    grown, read, _, regrown = responses
    assert grown["result"] != first["result"]
    assert read["result"] == grown["result"]
    assert regrown["cached"] is False
    assert regrown["result"] == first["result"]


def test_read_waits_for_a_write_still_activating_its_session(
    dataset, monkeypatch, tmp_path
):
    # One active session: activating "default" for the pipelined write
    # evicts "other", whose checkpoint is held.  A read sent meanwhile
    # finds "default" already active and warm (restored from its
    # snapshot) and must still wait for the write before it.
    entered, release = threading.Event(), threading.Event()
    checkpoint = ManagedSession.checkpoint

    def held_checkpoint(self):
        entered.set()
        release.wait(30)
        return checkpoint(self)

    grow = {**HIT, "budget": 2_000}
    with running_server(dataset, state_dir=tmp_path, max_active=1,
                        datasets={"other": make_dataset(seed=3)}) as handle:
        with ServeClient(host=handle.host, port=handle.port) as client:
            first = client.request(dict(HIT))
            client.request({**HIT, "dataset": "other"})  # evicts "default"
        monkeypatch.setattr(ManagedSession, "checkpoint", held_checkpoint)
        raw = _Raw(handle)
        try:
            raw.send(grow)
            assert entered.wait(30)
            raw.send(HIT)
            time.sleep(0.2)
            release.set()
            grown, read = raw.recv(), raw.recv()
        finally:
            release.set()
            raw.close()
    assert grown["ok"] and read["ok"], (grown, read)
    assert grown["result"] != first["result"]
    assert read["result"] == grown["result"]


def test_pipelined_writes_to_other_datasets_do_not_wait(dataset):
    # "default" is write-locked; the connection's write to "other",
    # pipelined behind its write to "default", runs meanwhile.
    grow = {**HIT, "budget": 2_000}
    with running_server(dataset, datasets={"other": make_dataset(seed=3)}) as handle:
        with ServeClient(host=handle.host, port=handle.port) as client:
            client.request(dict(HIT))
        lock = handle.server.registry._active["default"].lock
        dispatched = []
        original = handle.server._dispatch_in_executor

        async def recording(managed, payload, **kwargs):
            dispatched.append(managed.name)
            return await original(managed, payload, **kwargs)

        handle.server._dispatch_in_executor = recording
        _on_loop(handle, lock.acquire_write())
        raw = _Raw(handle)
        try:
            raw.send(grow, {**grow, "dataset": "other"})
            deadline = time.monotonic() + 5
            while "other" not in dispatched and time.monotonic() < deadline:
                time.sleep(0.01)
            while_locked = list(dispatched)
        finally:
            _on_loop(handle, lock.release_write())
        try:
            responses = [raw.recv(), raw.recv()]
        finally:
            raw.close()
    assert while_locked == ["other"]
    assert all(r["ok"] for r in responses), responses
    assert dispatched == ["other", "default"]
