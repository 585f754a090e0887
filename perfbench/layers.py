"""Per-layer metrics from the traced server's spans and the driver's stamps.

A layer's self time is its span minus its child spans.  Wire-path
metrics are medians over the timed warm reads, each joined with its
client send/receive stamps by request id; the stages tile the client
latency::

    read | parse | admit | classify | lock_wait | hop | dispatch |
    return | metrics | encode | write

``read`` is send -> parse start (client write, kernel, loop wake-up,
line read), ``admit`` parse end -> first classification (admission,
task start, registry lookup), ``hop`` what is left before dispatch
starts on the executor thread, ``return`` dispatch end -> encode start
minus the metrics call (thread -> loop hand-back, lock release, send
queue), ``write`` encode end -> the client has the whole line.

Cold-path metrics are per observe pass (medians over passes) and
per-call layers are per call.  Each is taken over the timed phase; a
layer with no spans there (the cold path of ``warm_read``) is taken
over the set-up phase instead, and :func:`analyse` says which.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

#: Self-time span names whose per-pass sums must cover the observe pass.
PASS_PARTS = {
    "skyband.band": "observe.band_ms",
    "observe.prepare": "observe.prepare_ms",
    "observe.sample": "observe.sample_ms",
    "kernel.score": "kernel.score_ms",
    "kernel.select": "kernel.select_ms",
    "kernel.pack": "kernel.pack_ms",
    "kernel.reduce": "kernel.unique_ms",
    "observe.fold": "observe.fold_ms",
}

WIRE_STAGES = (
    "read", "parse", "admit", "classify", "lock_wait", "hop", "dispatch",
    "return", "metrics", "encode", "write",
)


def _median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


class Spans:
    """Indexes over one server's span list."""

    def __init__(self, spans):
        self.spans = {s[0]: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            if s[4] != -1:
                self.children[s[4]].append(s[0])
        self.by_name = defaultdict(list)
        self.by_request = defaultdict(list)
        for s in spans:
            self.by_name[s[1]].append(s)
            if s[4] == -1 and s[5] is not None:
                self.by_request[s[5]].append(s)

    @staticmethod
    def duration(span) -> float:
        return span[3] - span[2]

    def self_time(self, span) -> float:
        return self.duration(span) - sum(
            self.duration(self.spans[c]) for c in self.children[span[0]]
        )

    def subtree(self, span):
        todo = list(self.children[span[0]])
        while todo:
            sid = todo.pop()
            yield self.spans[sid]
            todo.extend(self.children[sid])


def wire_stages(index: Spans, rid, t_send: float, t_recv: float):
    """``{stage: seconds}`` for one request, or ``None`` if its spans are
    incomplete.  The stages sum to ``t_recv - t_send``."""
    spans = defaultdict(list)
    for s in index.by_request.get(rid, ()):
        spans[s[1]].append(s)
    needed = ("protocol.parse_request", "protocol.needs_write",
              "protocol.dispatch", "metrics.observe_request",
              "protocol.encode_response")
    if any(len(spans[name]) == 0 for name in needed):
        return None
    (parse,) = spans["protocol.parse_request"]
    classify = sorted(spans["protocol.needs_write"], key=lambda s: s[2])
    (dispatch,) = spans["protocol.dispatch"]
    (metrics,) = spans["metrics.observe_request"]
    (encode,) = spans["protocol.encode_response"]
    dur = Spans.duration
    classify_s = sum(dur(s) for s in classify)
    lock_s = sum(dur(s) for s in spans["registry.lock"])
    return {
        "read": parse[2] - t_send,
        "parse": dur(parse),
        "admit": classify[0][2] - parse[3],
        "classify": classify_s,
        "lock_wait": lock_s,
        "hop": dispatch[2] - classify[0][2] - classify_s - lock_s,
        "dispatch": dur(dispatch),
        "return": encode[2] - dispatch[3] - dur(metrics),
        "metrics": dur(metrics),
        "encode": dur(encode),
        "write": t_recv - encode[3],
        "_classified_write": bool(classify[0][6]["write"]),
        "_dispatch_span": dispatch,
    }


def analyse(spans, warm_records, t_start: float, t_end: float,
            cache_evictions: int) -> tuple[dict, dict]:
    """``(metrics, notes)`` for one traced server.

    ``warm_records`` are the timed warm reads as ``(rid, t_send,
    t_recv)``; ``t_start``/``t_end`` bound the timed phase.
    """
    index = Spans(spans)
    metrics: dict[str, float] = {}
    notes: dict[str, str] = {}

    def in_timed(span) -> bool:
        return t_start <= span[2] <= t_end

    def scoped(name, spans_of=None):
        spans_of = spans_of if spans_of is not None else index.by_name[name]
        timed = [s for s in spans_of if in_timed(s)]
        if timed:
            return timed, "timed"
        setup = [s for s in spans_of if s[2] < t_start]
        return setup, ("set-up" if setup else "none")

    # -- wire path ------------------------------------------------------
    per_stage = defaultdict(list)
    tiled = writes = joined = 0
    inner = defaultdict(list)
    for rid, t_send, t_recv in warm_records:
        stages = wire_stages(index, rid, t_send, t_recv)
        if stages is None:
            continue
        joined += 1
        dispatch = stages.pop("_dispatch_span")
        writes += stages.pop("_classified_write")
        tiled += all(v >= 0 for v in stages.values())
        for stage, seconds in stages.items():
            per_stage[stage].append(seconds)
        sums = defaultdict(float)
        sums["protocol.dispatch"] = index.self_time(dispatch)
        for s in index.subtree(dispatch):
            sums[s[1]] += index.self_time(s)
        for name in ("protocol.dispatch", "protocol.value_to_json",
                     "batch.execute_batch", "session.query"):
            inner[name].append(sums[name])
    for stage in WIRE_STAGES:
        if stage != "dispatch":
            metrics[f"server.{stage}_us"] = _median(per_stage[stage]) * 1e6
    metrics["server.dispatch_us"] = _median(inner["protocol.dispatch"]) * 1e6
    metrics["server.to_json_us"] = _median(inner["protocol.value_to_json"]) * 1e6
    metrics["batch.execute_us"] = _median(inner["batch.execute_batch"]) * 1e6
    metrics["session.query_us"] = _median(inner["session.query"]) * 1e6
    metrics["server.write_classified"] = writes / joined if joined else 0.0
    metrics["server.tiled_ratio"] = tiled / joined if joined else 0.0
    notes["wire"] = (
        f"{joined} of {len(warm_records)} timed warm reads joined by id"
    )
    notes["wire_stage_p50_us"] = {
        stage: round(_median(per_stage[stage]) * 1e6, 1) for stage in WIRE_STAGES
    }

    # -- cache and pool reads (per call) --------------------------------
    gets, where = scoped("cache.get")
    metrics["cache.get_us"] = _median(Spans.duration(s) for s in gets) * 1e6
    hits = sum(1 for s in gets if s[6]["hit"])
    metrics["cache.hit_ratio"] = hits / len(gets) if gets else 0.0
    metrics["cache.evictions"] = float(cache_evictions)
    notes["cache"] = where
    reads, where = scoped("pool.read")
    metrics["pool.read_us"] = _median(index.self_time(s) for s in reads) * 1e6
    notes["pool.read"] = where

    # -- cold path (per observe pass) -----------------------------------
    passes, where = scoped("observe.pass")
    notes["observe"] = f"{len(passes)} passes ({where})"
    per_pass = defaultdict(list)
    for p in passes:
        sums = defaultdict(float)
        rows = cols = flop = nbytes = chunks = 0
        for s in index.subtree(p):
            sums[s[1]] += index.self_time(s)
            if s[1] == "kernel.score":
                chunks += 1
                rows += s[6]["rows"]
                cols += s[6]["rows"] * s[6]["cols"]
                flop += s[6]["flop"]
                nbytes += s[6]["bytes"]
        total = Spans.duration(p)
        for name, metric in PASS_PARTS.items():
            per_pass[metric].append(sums[name] * 1e3)
        per_pass["observe.self_cover"].append(
            sum(sums[name] for name in PASS_PARTS) / total if total else 0.0
        )
        per_pass["observe.pass_ms"].append(total * 1e3)
        per_pass["observe.samples"].append(p[6]["n"])
        per_pass["kernel.chunks"].append(chunks)
        per_pass["observe.columns"].append(cols / rows if rows else 0.0)
        per_pass["kernel.score_gflop"].append(flop / 1e9)
        per_pass["kernel.score_mb"].append(nbytes / 1e6)
    for metric in ("observe.pass_ms", "observe.samples", *PASS_PARTS.values(),
                   "observe.self_cover", "kernel.chunks", "observe.columns",
                   "kernel.score_gflop", "kernel.score_mb"):
        metrics[metric] = _median(per_pass[metric])
    metrics["observe.passes"] = float(len(passes))
    # Chunk reductions sharded onto the observe thread pool (auto mode
    # with three or more usable CPUs) have no parent pass: say so, because
    # the per-pass sums above then leave them out.
    in_passes = {s[0] for p in index.by_name["observe.pass"] for s in index.subtree(p)}
    outside = sum(1 for s in index.by_name["kernel.reduce"] if s[0] not in in_passes)
    notes["chunks_outside_passes"] = outside
    if outside:
        notes["warning"] = (
            f"{outside} chunk reductions ran outside every observe pass "
            "(sharded onto worker threads?): the kernel.* per-pass metrics "
            "and observe.self_cover leave them out"
        )

    # -- skyband builds (per build) -------------------------------------
    built = [s for s in index.by_name["skyband.band"] if s[6]["built"]]
    metrics["skyband.timed_builds"] = float(sum(1 for s in built if in_timed(s)))
    builds, where = scoped("skyband.band", built)
    notes["skyband"] = f"{len(builds)} builds ({where})"
    metrics["skyband.build_ms"] = _median(Spans.duration(s) for s in builds) * 1e3
    metrics["skyband.band_items"] = _median(s[6]["items"] for s in builds)
    metrics["skyband.pruned_ratio"] = _median(
        1.0 - s[6]["items"] / s[6]["n"] for s in builds
    )
    return metrics, notes
