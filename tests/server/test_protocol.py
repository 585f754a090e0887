"""Protocol-layer unit tests: framing, structured errors, dispatch."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Dataset, StabilitySession
from repro.errors import ExhaustedError
from repro.server import protocol
from repro.server.metrics import LatencyHistogram, ServerMetrics

from server_testlib import make_dataset


class TestParseRequest:
    def test_valid_request_round_trips(self):
        payload = protocol.parse_request(b'{"op": "ping", "id": 3}\n')
        assert payload == {"op": "ping", "id": 3}

    def test_accepts_str_lines(self):
        assert protocol.parse_request('{"op": "hello"}')["op"] == "hello"

    def test_bad_json_is_structured(self):
        with pytest.raises(protocol.RequestError) as err:
            protocol.parse_request(b"not json\n")
        assert err.value.code == "bad_json"

    def test_non_object_is_bad_request(self):
        with pytest.raises(protocol.RequestError) as err:
            protocol.parse_request(b"[1, 2]\n")
        assert err.value.code == "bad_request"

    def test_missing_op_is_bad_request(self):
        with pytest.raises(protocol.RequestError) as err:
            protocol.parse_request(b'{"m": 3}\n')
        assert err.value.code == "bad_request"

    def test_unknown_op_has_its_own_code(self):
        with pytest.raises(protocol.RequestError) as err:
            protocol.parse_request(b'{"op": "teleport"}\n')
        assert err.value.code == "unknown_op"
        assert "teleport" in err.value.message

    def test_oversized_line_reports_limit(self):
        line = b'{"op": "ping", "pad": "' + b"x" * 128 + b'"}'
        with pytest.raises(protocol.RequestError) as err:
            protocol.parse_request(line, max_bytes=64)
        assert err.value.code == "line_too_long"

    def test_newline_does_not_count_toward_limit(self):
        line = b'{"op": "ping"}'
        protocol.parse_request(line + b"\n", max_bytes=len(line))

    def test_error_codes_are_closed_vocabulary(self):
        with pytest.raises(ValueError):
            protocol.RequestError("made_up_code", "nope")

    # --- fuzzer findings (regressions) --------------------------------
    # json.loads accepts the NaN/Infinity extensions by default; a
    # request like {"op": "ping", "id": NaN} would then echo NaN into
    # the response, which json.dumps emits verbatim — an invalid JSON
    # frame on the wire.  Found by the loadgen protocol fuzzer.
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_nonfinite_literals_are_bad_json(self, literal):
        with pytest.raises(protocol.RequestError) as err:
            protocol.parse_request(f'{{"op": "ping", "id": {literal}}}')
        assert err.value.code == "bad_json"
        # The broken id must never be echoed into the error either.
        assert err.value.request_id is None

    def test_overflowing_number_id_is_rejected(self):
        # 1e999 parses to float inf without hitting the constant hook,
        # so it needs the id-validation path, not parse_constant.
        with pytest.raises(protocol.RequestError) as err:
            protocol.parse_request(b'{"op": "ping", "id": 1e999}')
        assert err.value.code == "bad_request"
        assert err.value.request_id is None

    @pytest.mark.parametrize(
        "bad_id", ['[1, 2]', '{"a": 1}'], ids=["array", "object"]
    )
    def test_composite_ids_are_bad_request(self, bad_id):
        with pytest.raises(protocol.RequestError) as err:
            protocol.parse_request(
                ('{"op": "ping", "id": %s}' % bad_id).encode()
            )
        assert err.value.code == "bad_request"
        assert err.value.request_id is None

    @pytest.mark.parametrize(
        "good_id", ["x", 0, 17, True, 2.5], ids=type
    )
    def test_scalar_ids_still_echo(self, good_id):
        line = json.dumps({"op": "ping", "id": good_id})
        assert protocol.parse_request(line)["id"] == good_id

    def test_deeply_nested_json_is_bad_json(self):
        # 60k brackets fit well inside one MAX_LINE_BYTES frame but
        # blow the recursion limit inside json.loads; the fuzzer found
        # this escaping as a RecursionError that killed the connection
        # task instead of answering a structured error.
        depth = 60_000
        line = ("[" * depth + "]" * depth).encode()
        with pytest.raises(protocol.RequestError) as err:
            protocol.parse_request(line)
        assert err.value.code == "bad_json"
        # The wrapped-in-an-object variant too.
        line = b'{"op": "ping", "x": ' + b"[" * depth + b"]" * depth + b"}"
        with pytest.raises(protocol.RequestError) as err:
            protocol.parse_request(line)
        assert err.value.code == "bad_json"


class TestClassifyException:
    def test_known_exceptions_map_to_codes(self):
        cases = [
            (ExhaustedError("done"), "exhausted"),
            (ValueError("bad"), "bad_request"),
            (RuntimeError("boom"), "internal"),
        ]
        for exc, expected in cases:
            code, message = protocol.classify_exception(exc)
            assert code == expected
            assert type(exc).__name__ in message

    def test_request_error_passes_through(self):
        code, message = protocol.classify_exception(
            protocol.RequestError("busy", "later")
        )
        assert (code, message) == ("busy", "later")


class TestEncodeResponse:
    def test_plain_response_round_trips(self):
        response = {"ok": True, "id": 4, "result": {"stability": 0.25}}
        line = protocol.encode_response(response)
        assert json.loads(line) == response

    def test_nonfinite_value_becomes_internal_error(self):
        # The read side rejects NaN/Infinity; the write side must never
        # emit them, however deep in the payload they hide.
        for poison in (float("nan"), float("inf"), float("-inf")):
            response = {"ok": True, "id": 9, "result": {"rate": poison}}
            line = protocol.encode_response(response)
            assert "NaN" not in line and "Infinity" not in line
            replaced = json.loads(line)
            assert replaced["ok"] is False
            assert replaced["error"]["code"] == "internal"
            assert replaced["id"] == 9

    def test_fallback_without_id(self):
        line = protocol.encode_response({"ok": True, "x": float("nan")})
        replaced = json.loads(line)
        assert replaced["ok"] is False and "id" not in replaced


class TestDispatch:
    @pytest.fixture
    def session(self, dataset):
        with StabilitySession(dataset, seed=3, executor="serial") as s:
            yield s

    def test_ping(self, session, dataset):
        handled = protocol.dispatch(session, dataset, {"op": "ping"})
        assert handled.response == {"pong": True, "ok": True}
        assert not handled.advanced and not handled.mutated

    def test_hello_reports_protocol_and_extras(self, session, dataset):
        handled = protocol.dispatch(
            session, dataset, {"op": "hello"}, hello_extra={"transport": "t"}
        )
        assert handled.response["protocol"] == protocol.PROTOCOL_VERSION
        assert handled.response["transport"] == "t"
        assert set(protocol.QUERY_OPS) <= set(handled.response["ops"])

    def test_id_is_echoed(self, session, dataset):
        handled = protocol.dispatch(
            session, dataset, {"op": "ping", "id": "abc"}
        )
        assert handled.response["id"] == "abc"

    def test_query_success_shape(self, session, dataset):
        handled = protocol.dispatch(
            session,
            dataset,
            {"op": "top_stable", "m": 2, "kind": "topk_set", "k": 3,
             "backend": "randomized", "budget": 300},
        )
        response = handled.response
        assert response["ok"] is True and len(response["result"]) == 2
        assert handled.mutated  # cold pool growth
        # The idempotent repeat answers from cache and is clean.
        again = protocol.dispatch(
            session,
            dataset,
            {"op": "top_stable", "m": 2, "kind": "topk_set", "k": 3,
             "backend": "randomized", "budget": 300},
        )
        assert again.response["cached"] is True
        assert not again.mutated

    def test_query_failure_is_structured(self, session, dataset):
        handled = protocol.dispatch(
            session, dataset, {"op": "top_stable", "m": 0}
        )
        assert handled.response["ok"] is False
        assert handled.response["error"]["code"] == "bad_request"

    def test_meta_fields_are_stripped_from_queries(self, session, dataset):
        # "id"/"dataset" are protocol fields, not request fields; the
        # service request parser rejects unknown keys, so leaking them
        # through would fail every addressed query.
        handled = protocol.dispatch(
            session,
            dataset,
            {"op": "top_stable", "m": 1, "kind": "topk_set", "k": 3,
             "backend": "randomized", "budget": 200, "id": 9,
             "dataset": "default"},
        )
        assert handled.response["ok"] is True
        assert handled.response["id"] == 9

    def test_checkpoint_without_state_dir(self, session, dataset):
        handled = protocol.dispatch(session, dataset, {"op": "checkpoint"})
        assert handled.response["error"]["code"] == "no_state_dir"

    def test_checkpoint_with_callback(self, session, dataset, tmp_path):
        def checkpoint():
            info = session.save(tmp_path / "s.snap")
            return {"path": info.path, "bytes": info.file_bytes}

        handled = protocol.dispatch(
            session, dataset, {"op": "checkpoint"}, checkpoint=checkpoint
        )
        assert handled.response["ok"] is True
        assert handled.response["checkpoint"]["path"].endswith(".snap")
        assert not handled.advanced  # does not count toward the cadence

    def test_shutdown_sets_stop(self, session, dataset):
        handled = protocol.dispatch(session, dataset, {"op": "shutdown"})
        assert handled.response["shutting_down"] is True
        assert handled.stop

    def test_exhausted_maps_to_exhausted_code(self, dataset):
        small = Dataset(np.array([[0.9, 0.1], [0.1, 0.9]]))
        with StabilitySession(small, seed=1, executor="serial") as session:
            responses = [
                protocol.dispatch(session, small, {"op": "get_next"})
                for _ in range(4)
            ]
        codes = [
            r.response.get("error", {}).get("code") for r in responses
        ]
        assert "exhausted" in codes


class TestNeedsWrite:
    @pytest.fixture
    def session(self, dataset):
        with StabilitySession(dataset, seed=3, executor="serial") as s:
            yield s

    def test_control_reads(self, session):
        assert not protocol.needs_write(session, {"op": "stats"})
        assert not protocol.needs_write(session, {"op": "ping"})
        assert not protocol.needs_write(session, {"op": "hello"})

    def test_mutators_are_writes(self, session):
        assert protocol.needs_write(session, {"op": "get_next"})
        assert protocol.needs_write(session, {"op": "invalidate"})
        assert protocol.needs_write(session, {"op": "checkpoint"})

    def test_cold_config_is_a_write(self, session):
        assert protocol.needs_write(
            session,
            {"op": "top_stable", "m": 1, "kind": "topk_set", "k": 3,
             "backend": "randomized", "budget": 200},
        )

    def test_warm_pool_read_vs_growth_write(self, session):
        request = {"op": "top_stable", "m": 1, "kind": "topk_set", "k": 3,
                   "backend": "randomized", "budget": 200}
        session.top_stable(1, kind="topk_set", k=3, backend="randomized",
                           budget=200)
        assert not protocol.needs_write(session, request)
        assert protocol.needs_write(session, dict(request, budget=500))

    def test_malformed_requests_classify_as_writes(self, session):
        assert protocol.needs_write(session, {"op": "top_stable", "m": "x"})

    def test_full_prefix_stability_classifies_via_randomized(self, session):
        request = {"op": "stability_of", "kind": "full",
                   "ranking": [0, 1, 2], "min_samples": 250}
        assert protocol.needs_write(session, request)  # cold
        session.stability_of([0, 1, 2], kind="full", min_samples=250)
        assert not protocol.needs_write(session, request)  # warm pool


class TestMetrics:
    def test_histogram_buckets_and_quantiles(self):
        hist = LatencyHistogram()
        for value in (0.0002, 0.0002, 0.002, 2.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["p50_seconds"] <= snap["p99_seconds"]

    def test_render_text_is_prometheus_shaped(self):
        metrics = ServerMetrics()
        metrics.observe_request("top_stable", 0.004)
        metrics.observe_request("get_next", 0.2, error_code="exhausted")
        metrics.connection_opened()
        metrics.shed()
        text = metrics.render_text()
        assert 'repro_server_requests_total{op="top_stable"} 1' in text
        assert 'repro_server_errors_total{code="exhausted"} 1' in text
        assert 'le="+Inf"' in text
        assert text.endswith("\n")
        snap = metrics.snapshot()
        assert snap["requests_total"] == {"top_stable": 1, "get_next": 1}
        assert snap["busy_shed_total"] == 1

    def test_value_to_json_lists_and_labels(self):
        dataset = make_dataset(6, 2)
        with StabilitySession(dataset, seed=0, executor="serial") as session:
            results = session.top_stable(2)
        encoded = protocol.value_to_json(dataset, results)
        assert isinstance(encoded, list) and len(encoded) == 2
        assert encoded[0]["labels"][0].startswith("item-")
        json.dumps(encoded)  # JSON-safe end to end
