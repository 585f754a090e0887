"""Fuzzing primitives: malformed wire frames and corrupt snapshots.

Dependency-free building blocks the hypothesis suites (and plain
parametrized tests) drive.  Two surfaces:

**Wire protocol** — :data:`FRAME_MUTATORS` generate single malformed
frames (mutated JSON, non-finite literals, pathological nesting,
oversized lines, binary garbage); :func:`check_wire_contract` asserts
the protocol's robustness contract for any frame: *exactly one
response line, strictly valid JSON, a structured error from the closed
code vocabulary when refused — and the connection stays alive* (a
follow-up ping must answer).

**Snapshot container** — :data:`CORRUPTION_CORPUS` is the named,
deterministic corruption corpus (shared with
``tests/service/test_persist.py``: every entry must raise its expected
:class:`~repro.errors.SnapshotError` subclass), and
:data:`SNAPSHOT_MUTATORS` are rng-driven byte/header mutations for the
property-based fuzzer.  :func:`check_restore_contract` asserts the
restore oracle: a mutated container either *refuses with a typed
SnapshotError* or *restores to a session whose answers match the
uncorrupted baseline* — never an untyped crash, never silently wrong
answers.

The crafted-header corpus entries are regression cases from fuzzer
findings: CRC-valid headers with missing/mistyped fields used to
escape as ``KeyError``/``TypeError``/``ValueError`` from deep inside
restore.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass

from repro.errors import (
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotVersionError,
)
from repro.server import protocol
from repro.service.persist import SNAPSHOT_MAGIC, SNAPSHOT_VERSION

__all__ = [
    "FRAME_MUTATORS",
    "random_frame",
    "strict_loads",
    "check_wire_contract",
    "SnapshotCorruption",
    "CORRUPTION_CORPUS",
    "SNAPSHOT_MUTATORS",
    "random_snapshot_mutation",
    "resign_header",
    "check_restore_contract",
]


# ----------------------------------------------------------------------
# Wire-protocol frames
# ----------------------------------------------------------------------
def strict_loads(line: bytes | str):
    """``json.loads`` that refuses the NaN/Infinity extensions — the
    response side of the wire must be *interchange* JSON."""

    def reject(token):
        raise AssertionError(f"response is not strict JSON: {token}")

    return json.loads(line, parse_constant=reject)


def _strip_newlines(data: bytes) -> bytes:
    return data.replace(b"\n", b" ").replace(b"\r", b" ")


def _garbage(rng) -> bytes:
    length = int(rng.integers(1, 200))
    return _strip_newlines(rng.integers(0, 256, size=length).astype("u1").tobytes())


def _scalar(rng) -> bytes:
    return [b"42", b"true", b"null", b'"just a string"', b"-1.5"][
        int(rng.integers(5))
    ]


def _array(rng) -> bytes:
    return json.dumps(list(range(int(rng.integers(0, 6))))).encode()


def _missing_op(rng) -> bytes:
    return json.dumps({"m": int(rng.integers(10)), "id": 1}).encode()


def _non_string_op(rng) -> bytes:
    return json.dumps({"op": int(rng.integers(100))}).encode()


def _unknown_op(rng) -> bytes:
    names = ["teleport", "drop_table", "TOP_STABLE", "ping ", "", "get-next"]
    return json.dumps({"op": names[int(rng.integers(len(names)))]}).encode()


def _nonfinite_literal(rng) -> bytes:
    literal = ["NaN", "Infinity", "-Infinity"][int(rng.integers(3))]
    field = ["id", "m", "budget"][int(rng.integers(3))]
    return f'{{"op": "ping", "{field}": {literal}}}'.encode()


def _overflow_id(rng) -> bytes:
    return f'{{"op": "ping", "id": 1e{int(rng.integers(400, 999))}}}'.encode()


def _composite_id(rng) -> bytes:
    bad = [[1, 2], {"a": 1}][int(rng.integers(2))]
    return json.dumps({"op": "ping", "id": bad}).encode()


def _deep_nesting(rng) -> bytes:
    depth = int(rng.integers(5_000, 60_000))
    return b"[" * depth + b"]" * depth


def _oversized(rng) -> bytes:
    pad = b"x" * (protocol.MAX_LINE_BYTES + int(rng.integers(1, 4096)))
    return b'{"op": "ping", "pad": "' + pad + b'"}'


def _bad_utf8(rng) -> bytes:
    return b'{"op": "ping", "x": "\xff\xfe\xfa"}'


def _raw_control_char(rng) -> bytes:
    return b'{"op": "pi\x00ng"}'


def _truncated_json(rng) -> bytes:
    frame = json.dumps(
        {"op": "top_stable", "m": 3, "kind": "topk_set", "k": 4}
    ).encode()
    return frame[: int(rng.integers(1, len(frame)))]


def _wrong_types(rng) -> bytes:
    bad = [
        {"op": "top_stable", "m": "three", "kind": "topk_set", "k": 3,
         "backend": "randomized", "budget": 100},
        {"op": "top_stable", "m": 1, "kind": 7, "budget": 100},
        {"op": "stability_of", "kind": "full", "ranking": "abc",
         "min_samples": 100},
        {"op": "get_next", "kind": "topk_set", "k": -4,
         "backend": "randomized", "budget": 100},
        {"op": "explain", "query": "not an object"},
        {"op": "top_stable", "m": 1, "kind": "topk_set", "k": 3,
         "backend": "randomized", "budget": "lots"},
    ]
    return json.dumps(bad[int(rng.integers(len(bad)))]).encode()


def _junk_fields(rng) -> bytes:
    # A valid op with random extra fields: any structured outcome is
    # acceptable, but the contract (one strict frame, live connection)
    # still holds.
    extras = {
        f"x{int(rng.integers(10))}": [None, True, 3.5, "y", [1], {"z": 1}][
            int(rng.integers(6))
        ]
    }
    return json.dumps({"op": "ping", **extras}).encode()


#: (name, build(rng) -> frame bytes, expected error codes or None).
#: ``None`` means any structured outcome satisfies the contract.
FRAME_MUTATORS = (
    ("garbage", _garbage, ("bad_json", "bad_request")),
    ("scalar", _scalar, ("bad_request",)),
    ("array", _array, ("bad_request",)),
    ("missing_op", _missing_op, ("bad_request",)),
    ("non_string_op", _non_string_op, ("bad_request",)),
    ("unknown_op", _unknown_op, ("unknown_op", "bad_request")),
    ("nonfinite_literal", _nonfinite_literal, ("bad_json",)),
    ("overflow_id", _overflow_id, ("bad_request",)),
    ("composite_id", _composite_id, ("bad_request",)),
    ("deep_nesting", _deep_nesting, ("bad_json",)),
    ("oversized", _oversized, ("line_too_long",)),
    ("bad_utf8", _bad_utf8, ("bad_json",)),
    ("raw_control_char", _raw_control_char, ("bad_json",)),
    ("truncated_json", _truncated_json, ("bad_json",)),
    ("wrong_types", _wrong_types, ("bad_request", "infeasible")),
    ("junk_fields", _junk_fields, None),
)


def random_frame(rng) -> tuple[str, bytes, tuple | None]:
    """One random malformed frame: ``(mutator name, bytes, codes)``."""
    name, build, codes = FRAME_MUTATORS[int(rng.integers(len(FRAME_MUTATORS)))]
    return name, build(rng), codes


def check_wire_contract(client, frame: bytes, expected_codes=None) -> dict:
    """Assert the robustness contract for one frame over a live client.

    Sends the frame, reads exactly one response, checks it is strict
    JSON with the structured-error shape, optionally pins the error
    code, then proves the connection survived with a ping.
    """
    client._file.write(frame + b"\n")
    client._file.flush()
    line = client._file.readline()
    assert line, f"connection dropped without a response (frame {frame[:80]!r})"
    response = strict_loads(line)
    assert isinstance(response, dict) and "ok" in response, response
    if response["ok"] is False:
        error = response.get("error")
        assert isinstance(error, dict), response
        assert error.get("code") in protocol.ERROR_CODES, response
        assert isinstance(error.get("message"), str), response
        if expected_codes is not None:
            assert error["code"] in expected_codes, (
                f"expected {expected_codes}, got {error['code']}: "
                f"{error['message']}"
            )
    pong = client.ping()
    assert pong.get("ok") is True, (
        f"connection unusable after frame {frame[:80]!r}: {pong}"
    )
    return response


# ----------------------------------------------------------------------
# Snapshot containers
# ----------------------------------------------------------------------
_PREFIX = struct.Struct("<8sHI")
_CRC = struct.Struct("<I")


def resign_header(data: bytes, mutate_header) -> bytes:
    """Rebuild a container with a mutated header and a *valid* CRC.

    ``mutate_header(header_dict)`` edits in place.  This is how crafted
    (as opposed to merely damaged) snapshots are made: the integrity
    layer passes, so only typed header validation stands between the
    file and restore.
    """
    magic, version, header_len = _PREFIX.unpack_from(data)
    header = json.loads(data[_PREFIX.size : _PREFIX.size + header_len])
    payload = data[_PREFIX.size + header_len + _CRC.size :]
    mutate_header(header)
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    return (
        _PREFIX.pack(magic, version, len(header_bytes))
        + header_bytes
        + _CRC.pack(zlib.crc32(header_bytes))
        + payload
    )


@dataclass(frozen=True)
class SnapshotCorruption:
    """One named corpus entry: a mutation and its expected refusal."""

    name: str
    mutate: object  # Callable[[bytes], bytes]
    raises: type = SnapshotError
    match: str | None = None


def _drop_key(*path):
    def mutate(header):
        target = header
        for key in path[:-1]:
            target = target[key]
        if isinstance(target, list):
            target = target[0]
        target.pop(path[-1])

    return mutate


def _set_key(value, *path):
    def mutate(header):
        target = header
        for key in path[:-1]:
            target = target[key]
        if isinstance(target, list):
            target = target[0]
        target[path[-1]] = value

    return mutate


def _bump_tally_total(header):
    config = next(c for c in header["configs"] if "tally" in c)
    config["tally"]["total"] += 1


#: The promoted corruption corpus: every entry must refuse with its
#: typed error.  Damage cases exercise the integrity layer; crafted
#: cases (``resign_header``) exercise typed header validation — the
#: ``header_*`` / ``section_*`` entries are fuzzer-finding regressions.
CORRUPTION_CORPUS = (
    SnapshotCorruption(
        "not_a_snapshot",
        lambda data: b"definitely not a snapshot file",
        SnapshotFormatError, "magic",
    ),
    SnapshotCorruption(
        "too_short",
        lambda data: SNAPSHOT_MAGIC[:4],
        SnapshotFormatError, "short",
    ),
    SnapshotCorruption(
        "truncated_file",
        lambda data: data[: int(len(data) * 0.6)],
        SnapshotFormatError, "truncated",
    ),
    SnapshotCorruption(
        "flipped_payload_byte",
        lambda data: data[:-10] + bytes([data[-10] ^ 0xFF]) + data[-9:],
        SnapshotIntegrityError, "checksum",
    ),
    SnapshotCorruption(
        "flipped_header_byte",
        lambda data: data[:20] + bytes([data[20] ^ 0x01]) + data[21:],
        SnapshotIntegrityError, "header checksum",
    ),
    SnapshotCorruption(
        "future_format_version",
        lambda data: data[:8]
        + struct.pack("<H", SNAPSHOT_VERSION + 7)
        + data[10:],
        SnapshotVersionError, "newer",
    ),
    SnapshotCorruption(
        "tampered_tally_total",
        lambda data: resign_header(data, _bump_tally_total),
        SnapshotError, None,
    ),
    SnapshotCorruption(
        "header_missing_fingerprint",
        lambda data: resign_header(data, _drop_key("fingerprint")),
        SnapshotFormatError, "malformed snapshot header",
    ),
    SnapshotCorruption(
        "header_missing_entropy",
        lambda data: resign_header(data, _drop_key("entropy")),
        SnapshotFormatError, "malformed snapshot header",
    ),
    SnapshotCorruption(
        "header_entropy_string",
        lambda data: resign_header(data, _set_key("zebra", "entropy")),
        SnapshotFormatError, "malformed snapshot header",
    ),
    SnapshotCorruption(
        "header_confidence_out_of_range",
        lambda data: resign_header(data, _set_key(-3.0, "confidence")),
        SnapshotFormatError, "malformed snapshot header",
    ),
    SnapshotCorruption(
        "header_budget_hint_object",
        lambda data: resign_header(data, _set_key({}, "budget_hint")),
        SnapshotFormatError, "malformed snapshot header",
    ),
    SnapshotCorruption(
        "header_configs_not_a_list",
        lambda data: resign_header(data, _set_key(17, "configs")),
        SnapshotFormatError, "malformed snapshot header",
    ),
    SnapshotCorruption(
        "section_offset_string",
        lambda data: resign_header(data, _set_key("x", "sections", "offset")),
        SnapshotFormatError, "malformed snapshot header",
    ),
    SnapshotCorruption(
        "section_offset_negative",
        lambda data: resign_header(data, _set_key(-4, "sections", "offset")),
        SnapshotFormatError, "malformed snapshot header",
    ),
    SnapshotCorruption(
        "section_missing_crc32",
        lambda data: resign_header(data, _drop_key("sections", "crc32")),
        SnapshotFormatError, "malformed snapshot header",
    ),
    SnapshotCorruption(
        "header_sampling_not_a_string",
        lambda data: resign_header(data, _set_key(1.5, "sampling")),
        SnapshotFormatError, "malformed snapshot header",
    ),
    SnapshotCorruption(
        "header_unknown_sampling_scheme",
        lambda data: resign_header(data, _set_key("psychic", "sampling")),
        SnapshotFormatError, "restorable",
    ),
)


def _flip_random_byte(data: bytes, rng) -> bytes:
    position = int(rng.integers(len(data)))
    bit = 1 << int(rng.integers(8))
    return data[:position] + bytes([data[position] ^ bit]) + data[position + 1:]


def _truncate_random(data: bytes, rng) -> bytes:
    return data[: int(rng.integers(0, len(data)))]


def _splice_junk(data: bytes, rng) -> bytes:
    position = int(rng.integers(len(data) + 1))
    junk = rng.integers(0, 256, size=int(rng.integers(1, 64))).astype("u1")
    return data[:position] + junk.tobytes() + data[position:]


def _zero_run(data: bytes, rng) -> bytes:
    position = int(rng.integers(len(data)))
    length = int(rng.integers(1, min(128, len(data) - position) + 1))
    return data[:position] + b"\x00" * length + data[position + length:]


def _delete_run(data: bytes, rng) -> bytes:
    position = int(rng.integers(len(data)))
    length = int(rng.integers(1, min(64, len(data) - position) + 1))
    return data[:position] + data[position + length:]


def _crafted_header_junk(data: bytes, rng) -> bytes:
    fields = (
        "fingerprint", "entropy", "confidence", "region", "budget_hint",
        "sampling", "configs", "sections", "cache_entries",
    )
    values = (None, True, -1, 1.5, "zebra", [], {}, "1e999", 2**80)
    field = fields[int(rng.integers(len(fields)))]
    value = values[int(rng.integers(len(values)))]

    def mutate(header):
        if rng.random() < 0.3:
            header.pop(field, None)
        else:
            header[field] = value

    return resign_header(data, mutate)


#: rng-driven mutations for the property-based snapshot fuzzer.
SNAPSHOT_MUTATORS = (
    ("flip_byte", _flip_random_byte),
    ("truncate", _truncate_random),
    ("splice_junk", _splice_junk),
    ("zero_run", _zero_run),
    ("delete_run", _delete_run),
    ("crafted_header", _crafted_header_junk),
)


def random_snapshot_mutation(data: bytes, rng) -> tuple[str, bytes]:
    """One random container mutation: ``(mutator name, mutated bytes)``."""
    name, mutate = SNAPSHOT_MUTATORS[int(rng.integers(len(SNAPSHOT_MUTATORS)))]
    return name, mutate(data, rng)


def check_restore_contract(path, dataset, probe, baseline) -> str:
    """Assert the restore oracle for one (possibly mutated) container.

    Returns ``"refused"`` when restore raised a typed
    :class:`SnapshotError`, ``"equal"`` when it restored and
    ``probe(session)`` matched ``baseline``.  Anything else — an
    untyped exception, or a restored session with different answers —
    fails the assertion.
    """
    from repro.service.persist import load_session

    try:
        session = load_session(path, dataset, executor="serial")
    except SnapshotError:
        return "refused"
    except Exception as exc:  # noqa: BLE001 — the oracle's whole point
        raise AssertionError(
            f"restore crashed untyped on a mutated snapshot: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    try:
        answers = probe(session)
    finally:
        session.close()
    assert answers == baseline, (
        "a mutated snapshot restored to a session with different answers"
    )
    return "equal"
