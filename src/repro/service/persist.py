"""Versioned snapshot/restore for :class:`StabilitySession` pools.

The randomized stability estimator only pays off at scale when its
Monte-Carlo state is reused across queries — but every warm pool a
session accumulates used to die with the process.  This module makes a
session durable: :func:`save_session` serializes the byte-packed
tallies, the per-``(kind, k, backend)`` pool metadata (mid-stream rng
state, return cursors, chunking knobs), the dataset fingerprint, and
the warm :class:`~repro.service.cache.ResultCache` entries into one
self-describing file, and :func:`load_session` rebuilds a session that
answers ``top_stable``/``stability_of``/``get_next`` byte-identically
to the session that never restarted.

Snapshot container (format version 1)
-------------------------------------
::

    offset  size  field
    0       8     magic  b"REPROSNP"
    8       2     format version            (uint16, little-endian)
    10      4     header length H           (uint32, little-endian)
    14      H     header JSON               (UTF-8)
    14+H    4     CRC-32 of the header JSON (uint32, little-endian)
    then          section payloads, back to back

The header carries the identity (dataset fingerprint, region repr,
session entropy, confidence), one record per query configuration, and a
section table ``{name, offset, length, raw_length, crc32}`` with
offsets relative to the first payload byte.  Sections are
zlib-compressed; their CRC-32 is taken over the *compressed* bytes so
corruption is detected before any byte is interpreted.  Binary tally
payloads hold each pool's packed keys in first-seen order followed by a
little-endian ``uint64`` count array; the result-cache section is typed
JSON (no pickle anywhere, so a snapshot can never execute code).

Every failure mode raises a typed
:class:`~repro.errors.SnapshotError` subclass — truncation and garbled
structure (:class:`~repro.errors.SnapshotFormatError`), checksum
mismatches (:class:`~repro.errors.SnapshotIntegrityError`), a
too-new writer (:class:`~repro.errors.SnapshotVersionError`), and a
fingerprint/region that does not match the dataset being served
(:class:`~repro.errors.SnapshotMismatchError`).  A snapshot that cannot
be trusted never restores silently wrong state.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.ranking import Ranking
from repro.core.stability import AngularRegion, StabilityResult
from repro.errors import (
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotMismatchError,
    SnapshotVersionError,
)
from repro.geometry.halfspace import ConvexCone, Halfspace
from repro.obs import log_event
from repro.obs import tracing as obs_trace
from repro.service.budget import PrecisionBudget
from repro.service.cache import dataset_fingerprint
from repro.service.config import SessionConfig

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SnapshotInfo",
    "save_session",
    "load_session",
    "read_snapshot_header",
]

SNAPSHOT_MAGIC = b"REPROSNP"
SNAPSHOT_VERSION = 1

_PREFIX = struct.Struct("<8sHI")  # magic, format version, header length
_CRC = struct.Struct("<I")


@dataclass(frozen=True)
class SnapshotInfo:
    """What one :func:`save_session` call wrote."""

    path: str
    format_version: int
    fingerprint: str
    n_configs: int
    cache_entries: int
    cache_skipped: int
    file_bytes: int


# ----------------------------------------------------------------------
# Typed JSON codec for cached results (no pickle: snapshots are data)
# ----------------------------------------------------------------------
_TAG = "__snap__"


def _encode(value):
    """One cache key/value component as tagged, JSON-safe data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, bytes):
        return {_TAG: "bytes", "hex": value.hex()}
    if isinstance(value, tuple):
        return {_TAG: "tuple", "items": [_encode(v) for v in value]}
    if isinstance(value, list):
        return {_TAG: "list", "items": [_encode(v) for v in value]}
    if isinstance(value, frozenset):
        return {_TAG: "frozenset", "items": sorted(int(v) for v in value)}
    if isinstance(value, np.generic):
        return _encode(value.item())
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value, dtype=np.float64)
        return {_TAG: "ndarray", "shape": list(arr.shape), "hex": arr.tobytes().hex()}
    if isinstance(value, Ranking):
        return {
            _TAG: "Ranking",
            "order": [int(i) for i in value.order],
            "n_items": value.n_items,
        }
    if isinstance(value, AngularRegion):
        return {_TAG: "AngularRegion", "lo": value.lo, "hi": value.hi}
    if isinstance(value, Halfspace):
        return {
            _TAG: "Halfspace",
            "normal": [float(c) for c in value.normal],
            "sign": value.sign,
        }
    if isinstance(value, ConvexCone):
        return {
            _TAG: "ConvexCone",
            "dim": value.dim,
            "halfspaces": [_encode(h) for h in value.halfspaces],
        }
    if isinstance(value, StabilityResult):
        return {
            _TAG: "StabilityResult",
            "ranking": _encode(value.ranking),
            "stability": value.stability,
            "region": _encode(value.region),
            "confidence_error": value.confidence_error,
            "sample_count": value.sample_count,
            "top_k_set": _encode(value.top_k_set),
        }
    raise ValueError(f"cannot snapshot value of type {type(value).__name__}")


def _decode(value):
    """Invert :func:`_encode`; unknown tags are a format error."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [_decode(v) for v in value]
    if not isinstance(value, dict) or _TAG not in value:
        raise SnapshotFormatError(f"undecodable snapshot value: {value!r}")
    tag = value[_TAG]
    if tag == "bytes":
        return bytes.fromhex(value["hex"])
    if tag == "tuple":
        return tuple(_decode(v) for v in value["items"])
    if tag == "list":
        return [_decode(v) for v in value["items"]]
    if tag == "frozenset":
        return frozenset(value["items"])
    if tag == "ndarray":
        return np.frombuffer(
            bytes.fromhex(value["hex"]), dtype=np.float64
        ).reshape(value["shape"])
    if tag == "Ranking":
        return Ranking(value["order"], n_items=value["n_items"])
    if tag == "AngularRegion":
        return AngularRegion(lo=value["lo"], hi=value["hi"])
    if tag == "Halfspace":
        return Halfspace(tuple(value["normal"]), value["sign"])
    if tag == "ConvexCone":
        return ConvexCone(
            [_decode(h) for h in value["halfspaces"]], dim=value["dim"]
        )
    if tag == "StabilityResult":
        return StabilityResult(
            ranking=_decode(value["ranking"]),
            stability=value["stability"],
            region=_decode(value["region"]),
            confidence_error=value["confidence_error"],
            sample_count=value["sample_count"],
            top_k_set=_decode(value["top_k_set"]),
        )
    raise SnapshotFormatError(f"unknown snapshot value tag {tag!r}")


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def save_session(session, path: str | Path) -> SnapshotInfo:
    """Serialize ``session`` into one snapshot file at ``path``.

    Captures every randomized pool (tally + rng + return cursor), every
    exact enumeration cursor, and the session's warm result-cache
    entries.  The file is written to a temporary sibling and atomically
    renamed, so a crash mid-checkpoint never leaves a torn snapshot and
    a concurrent reader only ever sees the previous complete one.
    """
    with obs_trace.span("snapshot.save", path=str(path)) as sp:
        info = _save_session_body(session, path)
        sp.set(bytes=info.file_bytes, configs=info.n_configs)
    log_event(
        "checkpoint.save",
        path=info.path,
        bytes=info.file_bytes,
        configs=info.n_configs,
        cache_entries=info.cache_entries,
    )
    return info


def _save_session_body(session, path: str | Path) -> SnapshotInfo:
    from repro import __version__

    path = Path(path)
    sections: list[tuple[str, bytes, int, int]] = []  # name, comp, raw_len, crc

    def add_section(name: str, raw: bytes) -> None:
        comp = zlib.compress(raw, 6)
        sections.append((name, comp, len(raw), zlib.crc32(comp)))

    configs = []
    for (kind, k, backend), state in session._states.items():
        record: dict = {"kind": kind, "k": k, "backend": backend}
        if state.is_randomized:
            op_state = state.engine.backend.export_state()
            tally = op_state.pop("tally")
            name = f"tally/{len(configs)}"
            add_section(
                name, tally.pop("keys") + tally.pop("counts").tobytes()
            )
            record.update(
                state=op_state,
                tally=tally,  # key_length, dtype, n_keys, total
                section=name,
            )
        else:
            record.update(
                yielded=len(state.yielded),
                cursor=state.cursor,
                exhausted=state.exhausted,
            )
        configs.append(record)

    entries = []
    skipped = 0
    for key, value in session.cache.entries_for(session.fingerprint):
        try:
            entries.append([_encode(key), _encode(value)])
        except ValueError:
            skipped += 1  # an exotic cached value costs warmth, not safety
    add_section("cache", json.dumps({"entries": entries}).encode())

    offset = 0
    table = []
    for name, comp, raw_len, crc in sections:
        table.append(
            {
                "name": name,
                "offset": offset,
                "length": len(comp),
                "raw_length": raw_len,
                "crc32": crc,
            }
        )
        offset += len(comp)

    config = session.config
    header = {
        "format_version": SNAPSHOT_VERSION,
        "library_version": __version__,
        "fingerprint": session.fingerprint,
        "n_items": session.dataset.n_items,
        "n_attributes": session.dataset.n_attributes,
        "entropy": config.seed,
        "confidence": config.confidence,
        "region": session._region_key,
        # Precision budgets serialize as their spec string — the header
        # is JSON, and the spec round-trips through parse_budget on load.
        "budget_hint": (
            config.budget.spec
            if isinstance(config.budget, PrecisionBudget)
            else config.budget
        ),
        "sampling": config.sampling,
        "configs": configs,
        "cache_entries": len(entries),
        "cache_skipped": skipped,
        "sections": table,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode()

    # A unique temp name (not a fixed ".tmp" sibling) keeps concurrent
    # checkpoints of the same snapshot path from interleaving writes and
    # renaming a torn file over the last good snapshot.
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=path.parent
        )
        with os.fdopen(fd, "wb") as handle:
            handle.write(
                _PREFIX.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, len(header_bytes))
            )
            handle.write(header_bytes)
            handle.write(_CRC.pack(zlib.crc32(header_bytes)))
            for _, comp, _, _ in sections:
                handle.write(comp)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise SnapshotError(f"cannot write snapshot {path}: {exc}") from exc
    except BaseException:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise
    return SnapshotInfo(
        path=str(path),
        format_version=SNAPSHOT_VERSION,
        fingerprint=session.fingerprint,
        n_configs=len(configs),
        cache_entries=len(entries),
        cache_skipped=skipped,
        file_bytes=path.stat().st_size,
    )


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def _read_container(
    path: str | Path, *, with_sections: bool = True
) -> tuple[dict, dict[str, bytes]]:
    """Parse and verify a snapshot file: header dict + raw section bytes.

    ``with_sections=False`` stops after the header (magic, version, and
    header CRC still verified) and reads only the prefix + header bytes
    from disk — inspection tooling stays O(header) in I/O and memory,
    never touching the (potentially huge) tally payloads it would
    discard.
    """
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(_PREFIX.size)
            if with_sections:
                data = prefix + handle.read()
            elif len(prefix) == _PREFIX.size:
                _, _, header_len = _PREFIX.unpack(prefix)
                data = prefix + handle.read(header_len + _CRC.size)
            else:
                data = prefix
    except OSError as exc:
        raise SnapshotFormatError(f"cannot read snapshot {path}: {exc}") from exc
    if len(data) < _PREFIX.size:
        raise SnapshotFormatError(
            f"{path} is {len(data)} bytes — too short to be a snapshot"
        )
    magic, version, header_len = _PREFIX.unpack_from(data)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(
            f"{path} is not a repro snapshot (magic {magic!r})"
        )
    if version > SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"snapshot format version {version} is newer than this reader "
            f"(understands <= {SNAPSHOT_VERSION}); upgrade the library"
        )
    if version < 1:
        raise SnapshotVersionError(f"invalid snapshot format version {version}")
    header_end = _PREFIX.size + header_len
    if len(data) < header_end + _CRC.size:
        raise SnapshotFormatError(f"{path} is truncated inside the header")
    header_bytes = data[_PREFIX.size : header_end]
    (header_crc,) = _CRC.unpack_from(data, header_end)
    if zlib.crc32(header_bytes) != header_crc:
        raise SnapshotIntegrityError(
            f"{path}: header checksum mismatch — the snapshot was altered"
        )
    try:
        header = json.loads(header_bytes)
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: undecodable header JSON") from exc
    if header.get("format_version") != version:
        raise SnapshotFormatError(
            f"{path}: header format_version {header.get('format_version')} "
            f"disagrees with the container's {version}"
        )
    _validate_header(path, header)
    raw_sections: dict[str, bytes] = {}
    if not with_sections:
        return header, raw_sections
    payload = data[header_end + _CRC.size :]
    for entry in header.get("sections", []):
        start, length = entry["offset"], entry["length"]
        blob = payload[start : start + length]
        if len(blob) != length:
            raise SnapshotFormatError(
                f"{path} is truncated inside section {entry['name']!r}"
            )
        if zlib.crc32(blob) != entry["crc32"]:
            raise SnapshotIntegrityError(
                f"{path}: checksum mismatch in section {entry['name']!r} — "
                f"the snapshot was altered"
            )
        try:
            raw = zlib.decompress(blob)
        except zlib.error as exc:
            raise SnapshotIntegrityError(
                f"{path}: section {entry['name']!r} does not decompress"
            ) from exc
        if len(raw) != entry["raw_length"]:
            raise SnapshotIntegrityError(
                f"{path}: section {entry['name']!r} decompressed to "
                f"{len(raw)} bytes, expected {entry['raw_length']}"
            )
        raw_sections[entry["name"]] = raw
    return header, raw_sections


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_header(path, header: dict) -> None:
    """Typed refusal of structurally broken headers.

    The CRC only proves the header was not *altered after writing*; a
    crafted container can carry a self-consistent CRC over arbitrary
    JSON.  The snapshot fuzzer found such headers escaping as untyped
    ``KeyError``/``TypeError``/``ValueError`` from deep inside restore —
    every malformed field must instead be a :class:`SnapshotFormatError`
    callers can branch on.
    """

    def fail(message: str):
        raise SnapshotFormatError(
            f"{path}: malformed snapshot header: {message}"
        )

    if not isinstance(header.get("fingerprint"), str):
        fail('"fingerprint" must be a string')
    if not _is_int(header.get("entropy")) or header["entropy"] < 0:
        fail('"entropy" must be a non-negative integer')
    confidence = header.get("confidence")
    if (
        not isinstance(confidence, (int, float))
        or isinstance(confidence, bool)
        or not 0.0 < float(confidence) < 1.0
    ):
        fail('"confidence" must be a number in (0, 1)')
    if not isinstance(header.get("region"), str):
        fail('"region" must be a string')
    budget_hint = header.get("budget_hint")
    if not (
        budget_hint is None or _is_int(budget_hint)
        or isinstance(budget_hint, str)
    ):
        fail('"budget_hint" must be an integer, a spec string, or null')
    if not isinstance(header.get("sampling", "mc"), str):
        fail('"sampling" must be a string')
    configs = header.get("configs")
    if not isinstance(configs, list):
        fail('"configs" must be a list')
    for record in configs:
        if not isinstance(record, dict):
            fail("every config record must be an object")
        for key in ("kind", "backend"):
            if not isinstance(record.get(key), str):
                fail(f'config records need a string "{key}"')
        if not (record.get("k") is None or _is_int(record["k"])):
            fail('config "k" must be an integer or null')
        if "section" in record:
            if not isinstance(record["section"], str):
                fail('config "section" must be a string')
            if not isinstance(record.get("state"), dict):
                fail('pool-backed configs need an object "state"')
            tally = record.get("tally")
            if not isinstance(tally, dict):
                fail('pool-backed configs need an object "tally"')
            for key in ("n_keys", "total"):
                if not _is_int(tally.get(key)) or tally[key] < 0:
                    fail(f'tally "{key}" must be a non-negative integer')
            if not _is_int(tally.get("key_length")) or tally["key_length"] < 1:
                fail('tally "key_length" must be a positive integer')
            if not isinstance(tally.get("dtype"), str):
                fail('tally "dtype" must be a string')
        else:
            for key in ("yielded", "cursor"):
                if not _is_int(record.get(key)) or record[key] < 0:
                    fail(f'config "{key}" must be a non-negative integer')
            if not isinstance(record.get("exhausted"), bool):
                fail('config "exhausted" must be a bool')
    sections = header.get("sections", [])
    if not isinstance(sections, list):
        fail('"sections" must be a list')
    for entry in sections:
        if not isinstance(entry, dict):
            fail("every section-table entry must be an object")
        if not isinstance(entry.get("name"), str):
            fail('section entries need a string "name"')
        for key in ("offset", "length", "raw_length"):
            if not _is_int(entry.get(key)) or entry[key] < 0:
                fail(f'section "{key}" must be a non-negative integer')
        if not _is_int(entry.get("crc32")):
            fail('section "crc32" must be an integer')


def read_snapshot_header(path: str | Path) -> dict:
    """The verified header of a snapshot, without restoring anything.

    Useful for inspection tooling (the CLI's ``restore --inspect``):
    identity, per-configuration pool metadata, and the section table.
    The header's CRC is verified; section payloads are not read.
    """
    header, _ = _read_container(path, with_sections=False)
    return header


def load_session(
    path: str | Path,
    dataset,
    *,
    region=None,
    cache=None,
    config: SessionConfig | None = None,
    **fields,
):
    """Restore a :class:`StabilitySession` from a snapshot of it.

    ``dataset`` must fingerprint to the snapshot's fingerprint and
    ``region`` (default: the full space) must match the snapshot's
    region of interest — durable state over the wrong data is refused
    with :class:`~repro.errors.SnapshotMismatchError`, never guessed
    around.  ``config`` (plus any field keywords, as for the session
    itself) supplies the runtime fields; the durable ones —
    everything the answers depend on — come from the file.  A pool
    grown on one executor restores and continues identically on
    another — executors agree byte-for-byte.
    """
    config = SessionConfig.of(config, **fields)
    with obs_trace.span("snapshot.restore", path=str(path)):
        return _load_session_body(path, dataset, region, cache, config)


def _load_session_body(path: str | Path, dataset, region, cache, config):
    from repro.service.session import StabilitySession

    header, raw_sections = _read_container(path)
    # The session fingerprints its dataset at construction anyway —
    # comparing that (rather than hashing the matrix a second time
    # here) keeps restore at one fingerprint pass; construction is
    # cheap, every engine and index is lazy.
    try:
        session = StabilitySession(
            dataset,
            region=region,
            cache=cache,
            config=SessionConfig.of(
                config,
                seed=header["entropy"],
                confidence=header["confidence"],
                budget=header["budget_hint"],
                sampling=header.get("sampling", "mc"),
            ),
        )
    except SnapshotError:
        raise
    except Exception as exc:
        # Backstop behind _validate_header: a header can be
        # well-typed yet still name values the session rejects
        # (an unknown sampling scheme, an unparseable budget spec).
        raise SnapshotFormatError(
            f"snapshot {path} header does not describe a restorable "
            f"session: {type(exc).__name__}: {exc}"
        ) from exc
    if header["fingerprint"] != session.fingerprint:
        session.close()
        raise SnapshotMismatchError(
            f"snapshot is of dataset {header['fingerprint'][:12]}..., but "
            f"the dataset being served fingerprints to "
            f"{session.fingerprint[:12]}..."
        )
    if session._region_key != header["region"]:
        session.close()
        raise SnapshotMismatchError(
            f"snapshot was taken over region {header['region']}, but the "
            f"session is being restored with {session._region_key}"
        )
    try:
        for record in header["configs"]:
            state = session._state(record["kind"], record["k"], record["backend"])
            if "section" in record:
                raw = raw_sections[record["section"]]
                meta = record["tally"]
                n_keys, total = meta["n_keys"], meta["total"]
                width = meta["key_length"] * np.dtype(meta["dtype"]).itemsize
                key_bytes = n_keys * width
                if len(raw) != key_bytes + 8 * n_keys:
                    raise SnapshotFormatError(
                        f"tally section {record['section']!r} holds "
                        f"{len(raw)} bytes, expected {key_bytes + 8 * n_keys}"
                    )
                op_state = dict(record["state"])
                op_state["tally"] = {
                    "key_length": meta["key_length"],
                    "dtype": meta["dtype"],
                    "n_keys": n_keys,
                    "total": total,
                    "keys": raw[:key_bytes],
                    "counts": np.frombuffer(raw[key_bytes:], dtype="<u8"),
                }
                state.engine.backend.restore_state(op_state)
            else:
                # Exact backends enumerate deterministically under the
                # session's derived rng streams: replay the recorded
                # prefix, then reposition the cursor.
                target = record["yielded"] + (1 if record["exhausted"] else 0)
                session._ensure_yielded(state, target)
                if len(state.yielded) != record["yielded"] or (
                    record["exhausted"] and not state.exhausted
                ):
                    raise SnapshotFormatError(
                        f"exact-backend replay diverged for config "
                        f"({record['kind']}, {record['k']}, "
                        f"{record['backend']}): snapshot recorded "
                        f"{record['yielded']} results, replay produced "
                        f"{len(state.yielded)}"
                    )
                state.cursor = record["cursor"]
        cache_doc = json.loads(raw_sections["cache"].decode())
        for key_enc, value_enc in cache_doc["entries"]:
            session.cache.put(_decode(key_enc), _decode(value_enc))
    except SnapshotError:
        session.close()
        raise
    except Exception as exc:
        session.close()
        raise SnapshotFormatError(
            f"snapshot {path} is internally inconsistent: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return session
