"""Property-based wire-protocol fuzzing against a live server.

The contract under test, for *any* frame: exactly one response line,
strictly valid (interchange) JSON, a structured error from the closed
code vocabulary when refused — and the connection survives (a
follow-up ping answers).  ``REPRO_FUZZ_EXAMPLES`` scales the example
budget (CI's fuzz-smoke job raises it).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.loadgen import WorkloadSpec, make_dataset
from repro.loadgen import fuzz
from repro.server import (
    ServeClient,
    ServerConfig,
    SessionRegistry,
    serve_in_thread,
)

MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))

FUZZ_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.large_base_example,
    ],
)


@pytest.fixture(scope="module")
def server():
    registry = SessionRegistry(seed=7, executor="serial")
    registry.add_dataset(
        "default", make_dataset(WorkloadSpec(dataset_items=120))
    )
    handle = serve_in_thread(registry, config=ServerConfig())
    yield handle
    handle.stop()


class TestMalformedFrames:
    def test_every_mutator_class_on_one_connection(self, server):
        """Deterministic sweep: every mutator class, all interleaved on
        a single connection that must survive the whole gauntlet."""
        rng = np.random.default_rng(20180905)
        with ServeClient(host=server.host, port=server.port) as client:
            for name, build, codes in fuzz.FRAME_MUTATORS:
                for _ in range(3):
                    fuzz.check_wire_contract(client, build(rng), codes)

    @given(seed=st.integers(0, 2**32 - 1))
    @FUZZ_SETTINGS
    def test_random_malformed_frame_contract(self, server, seed):
        rng = np.random.default_rng(seed)
        name, frame, codes = fuzz.random_frame(rng)
        with ServeClient(host=server.host, port=server.port) as client:
            fuzz.check_wire_contract(client, frame, codes)

    @given(
        seed=st.integers(0, 2**32 - 1),
        payload=st.dictionaries(
            st.text(max_size=8),
            st.one_of(
                st.none(), st.booleans(), st.integers(-10, 10**6),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=12),
                st.lists(st.integers(0, 5), max_size=4),
            ),
            max_size=5,
        ),
    )
    @FUZZ_SETTINGS
    def test_random_json_objects_never_kill_the_connection(
        self, server, seed, payload
    ):
        """Arbitrary JSON objects (valid frames, arbitrary content) get
        a structured answer, echo scalar ids, and keep the line open."""
        rng = np.random.default_rng(seed)
        if rng.random() < 0.5:
            payload["op"] = [
                "ping", "hello", "stats", "top_stable", "nonsense"
            ][int(rng.integers(5))]
        frame = json.dumps(payload).encode()
        with ServeClient(host=server.host, port=server.port) as client:
            response = fuzz.check_wire_contract(client, frame)
            request_id = payload.get("id")
            if request_id is not None and isinstance(
                request_id, (str, int, bool)
            ):
                assert response.get("id") == request_id


class TestFraming:
    @given(seed=st.integers(0, 2**32 - 1))
    @FUZZ_SETTINGS
    def test_split_frames_answer_once(self, server, seed):
        """A valid frame written in arbitrary chunks (byte-dribbled
        TCP) still yields exactly one response."""
        rng = np.random.default_rng(seed)
        frame = json.dumps({"op": "ping", "id": int(seed % 1000)}).encode()
        cuts = sorted(
            int(c)
            for c in rng.integers(1, len(frame), size=int(rng.integers(1, 4)))
        )
        chunks, start = [], 0
        for cut in cuts + [len(frame)]:
            if cut > start:
                chunks.append(frame[start:cut])
                start = cut
        with ServeClient(host=server.host, port=server.port) as client:
            for chunk in chunks:
                client._file.write(chunk)
                client._file.flush()
            client._file.write(b"\n")
            client._file.flush()
            response = fuzz.strict_loads(client._file.readline())
            assert response["ok"] is True and response["id"] == seed % 1000
            assert client.ping()["ok"] is True

    @given(seed=st.integers(0, 2**32 - 1))
    @FUZZ_SETTINGS
    def test_interleaved_good_and_bad_frames_stay_ordered(self, server, seed):
        """A pipelined burst mixing valid and malformed frames answers
        one response per frame, in order, ids echoed where given."""
        rng = np.random.default_rng(seed)
        frames, expect_ids = [], []
        for i in range(int(rng.integers(2, 6))):
            if rng.random() < 0.5:
                frames.append(
                    json.dumps({"op": "ping", "id": i}).encode()
                )
                expect_ids.append(i)
            else:
                name, frame, _ = fuzz.random_frame(rng)
                # Oversized frames aside (they dominate the buffer),
                # any malformed frame can ride in the burst.
                if name == "oversized":
                    frame = b"not json"
                frames.append(frame)
                expect_ids.append(None)
        with ServeClient(host=server.host, port=server.port) as client:
            client._file.write(b"\n".join(frames) + b"\n")
            client._file.flush()
            for expected in expect_ids:
                response = fuzz.strict_loads(client._file.readline())
                assert isinstance(response, dict) and "ok" in response
                if expected is not None:
                    assert response["ok"] is True
                    assert response["id"] == expected
            assert client.ping()["ok"] is True


class TestRegressionFindings:
    """Wire-level regressions for the fuzzer findings fixed in-tree."""

    def test_nan_id_answers_strict_json_error(self, server):
        with ServeClient(host=server.host, port=server.port) as client:
            response = fuzz.check_wire_contract(
                client, b'{"op": "ping", "id": NaN}', ("bad_json",)
            )
            assert response["ok"] is False

    def test_overflow_id_never_echoes_infinity(self, server):
        with ServeClient(host=server.host, port=server.port) as client:
            client._file.write(b'{"op": "ping", "id": 1e999}\n')
            client._file.flush()
            line = client._file.readline()
            assert b"Infinity" not in line
            response = fuzz.strict_loads(line)
            assert response["error"]["code"] == "bad_request"
            assert client.ping()["ok"] is True

    def test_deep_nesting_keeps_connection(self, server):
        depth = 60_000
        frame = b"[" * depth + b"]" * depth
        with ServeClient(host=server.host, port=server.port) as client:
            fuzz.check_wire_contract(client, frame, ("bad_json",))
