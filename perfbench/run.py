"""The repository's benchmark: one workload against a server in its own process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload warm_read|cold_observe|mixed_rw
        --seed N --seconds S --trace 0|1

Each run builds the workload's inputs from the seed, computes every
expected answer with an in-process serial oracle (:mod:`oracle`), starts
the server through :mod:`launcher`, warms it up and drives it closed-loop
for ``--seconds`` from one single-threaded driver over at most two TCP
connections.  Every timed answer is checked against the oracle.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; the server is
set up ``SETUPS`` times and ``setup_s`` is the median.  With
``--trace 1`` one untraced and one traced server run back to back, the
metrics are the per-layer ones of the traced server (:mod:`layers`),
and the traced end-to-end numbers are printed against the untraced ones
as the tracing overhead.  Lines before the last one are diagnostics:
host fingerprint, noise (steal, driver CPU), tails and failure counts.

The exit code is 0 only when every answer matched.  Without a ``src/repro``
next to this directory the run stops at once with code 2.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import functools
import gc
import itertools
import json
import math
import os
import platform
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Launcher logs and span files (inside the checkout, ignored by git).
WORK = ROOT / ".perfbench"

#: Server set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Time slices of the timed phase: at most this many ...
MAX_SLICES = 20
#: ... and this many warm completions per slice on average.
MIN_PER_SLICE = 100
#: Zipf draws made per run; the timed phase cycles through them.
ZIPF_DRAWS = 1 << 20
#: Seconds a launched server may take to print its ready line.
READY_TIMEOUT = 300.0
#: Seconds in-flight requests may take to answer after the timed phase.
DRAIN_TIMEOUT = 60.0
#: Seconds a server may take to exit after ``shutdown`` before it is killed.
EXIT_TIMEOUT = 60.0

CLOCK = time.perf_counter
TICKS = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """A run that cannot produce a result (exit code 1, no result line)."""


# ----------------------------------------------------------------------
# Host and process probes
# ----------------------------------------------------------------------
def host_fingerprint() -> dict:
    import importlib.util

    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for row in handle:
                if row.startswith("model name"):
                    model = row.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def steal_seconds() -> float:
    """Cumulative CPU time stolen by the hypervisor, all CPUs."""
    with open("/proc/stat", encoding="utf-8") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / TICKS if len(fields) > 8 else 0.0


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU of one process (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / TICKS


def peak_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for row in handle:
            if row.startswith("VmHWM:"):
                return int(row.split()[1]) / 1024.0
    raise BenchError("VmHWM missing from /proc status")


def driver_cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Launch:
    """One server process: start, read its ready line, reap on every path."""

    def __init__(self, workload: str, seed: int, *, toy: bool, spans: Path | None,
                 perturb: bool, tag: str):
        self.t_launch = CLOCK()
        cmd = [sys.executable, str(HERE / "launcher.py"), "--workload", workload,
               "--seed", str(seed)]
        if toy:
            cmd.append("--toy")
        if spans is not None:
            cmd += ["--spans", str(spans)]
            if perturb:
                cmd.append("--perturb")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
        self.log_path = WORK / f"server-{tag}.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            # The server exits when this pipe closes, so it cannot
            # outlive the driver even if the driver is killed.
            cmd, stdout=subprocess.PIPE, stderr=self._log, stdin=subprocess.PIPE,
            env=env, cwd=str(ROOT),
        )
        self.conns: list[Conn] = []
        try:
            self.ready = self._read_ready()
        except BaseException:
            self.close()
            raise
        self.pid = self.proc.pid

    def _read_ready(self) -> dict:
        # Blocks until the launcher prints (or dies): no polling.
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not selector.select(READY_TIMEOUT):
                raise BenchError(f"server not ready within {READY_TIMEOUT} s")
        finally:
            selector.close()
        line = self.proc.stdout.readline().decode()
        if not line.startswith("READY "):
            raise BenchError(
                f"server failed to start (see {self.log_path}): {line!r}"
            )
        return json.loads(line[len("READY "):])

    def connect(self, window: int) -> "Conn":
        conn = Conn(self.ready["port"], window)
        self.conns.append(conn)
        return conn

    def shutdown(self) -> None:
        """``shutdown`` op, then wait for the drain; kill if it overruns."""
        if self.proc.poll() is None and self.conns:
            try:
                conn = self.conns[0]
                conn.sock.sendall(b'{"op":"shutdown"}\n')
                conn.sock.settimeout(EXIT_TIMEOUT)
                conn.sock.recv(1 << 16)
            except OSError:
                pass
            try:
                self.proc.wait(timeout=EXIT_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        self.close()

    def close(self) -> None:
        """Kill the server if it is still running, and wait for it."""
        for conn in self.conns:
            conn.close()
        self.conns = []
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self._log.close()


class Conn:
    """One client connection with a window of in-flight requests."""

    def __init__(self, port: int, window: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.window = window
        self.inflight: collections.deque = collections.deque()
        self.partial = b""

    def close(self) -> None:
        self.sock.close()


class Driver:
    """The single-threaded closed-loop driver over one or two connections.

    A *source* is a zero-argument callable returning the next request as
    ``(op class, oracle key, pre-encoded tail)``, or ``None`` when it has
    no more.  Responses are stored raw with their receive stamp and
    checked later, outside every timed interval.
    """

    def __init__(self):
        self._next_id = 0
        self.records: list[tuple] = []  # (rid, cls, key, t_send, t_recv, raw)
        self.timed_out: list[tuple] = []  # (rid, cls, key, t_send)

    def pump(self, pairs, *, seconds: float | None = None) -> tuple[float, float]:
        """Run ``[(conn, source), ...]`` until the sources end (or for
        ``seconds``), then drain.  Returns ``(t_start, t_last_receive)``."""
        from workloads import line

        selector = selectors.DefaultSelector()
        for conn, _ in pairs:
            selector.register(conn.sock, selectors.EVENT_READ, conn)
        t_start = t_last = CLOCK()
        deadline = t_start + seconds if seconds is not None else math.inf
        stopping = False
        stop_at = math.inf
        live = {id(conn) for conn, _ in pairs}
        try:
            while True:
                now = CLOCK()
                if not stopping and now >= deadline:
                    stopping, stop_at = True, now
                if not stopping:
                    for conn, source in pairs:
                        while id(conn) in live and len(conn.inflight) < conn.window:
                            item = source()
                            if item is None:
                                live.discard(id(conn))
                                break
                            cls, key, tail = item
                            self._next_id += 1
                            data = line(self._next_id, tail)
                            t_send = CLOCK()
                            conn.sock.sendall(data)
                            conn.inflight.append((self._next_id, cls, key, t_send))
                    if not live:
                        stopping, stop_at = True, CLOCK()
                if stopping and not any(conn.inflight for conn, _ in pairs):
                    break
                limit = (deadline if not stopping else stop_at + DRAIN_TIMEOUT)
                timeout = None if limit == math.inf else max(limit - CLOCK(), 0.0)
                events = selector.select(timeout)
                if not events and stopping and CLOCK() >= stop_at + DRAIN_TIMEOUT:
                    for conn, _ in pairs:
                        self.timed_out.extend(conn.inflight)
                        conn.inflight.clear()
                    break
                for event, _ in events:
                    conn = event.data
                    chunk = conn.sock.recv(1 << 20)
                    t_recv = CLOCK()
                    if not chunk:
                        raise BenchError("the server closed a connection")
                    lines = (conn.partial + chunk).split(b"\n")
                    conn.partial = lines.pop()
                    for raw in lines:
                        rid, cls, key, t_send = conn.inflight.popleft()
                        self.records.append((rid, cls, key, t_send, t_recv, raw))
                        t_last = t_recv
        finally:
            selector.close()
        return t_start, t_last

    def request(self, conn: Conn, items, *more) -> list[tuple]:
        """Send ``items`` on ``conn`` at depth ``conn.window`` (and, at
        the same time, each further ``(conn, items)`` pair of ``more``);
        returns their records."""
        first = len(self.records)
        self.pump([(c, functools.partial(next, iter(i), None))
                   for c, i in ((conn, items), *more)])
        return self.records[first:]


def source_cycle(items):
    """A source that repeats ``items`` forever."""
    return itertools.cycle(items).__next__


def source_zipf(draws, tails):
    """Warm reads of the vocabulary in the order of the Zipf draws."""
    keys = itertools.cycle(draws.tolist())

    def next_item():
        key = next(keys)
        return "warm", ("warm", key), tails[key]

    return next_item


# ----------------------------------------------------------------------
# Checking (never inside a timed interval)
# ----------------------------------------------------------------------
class Check:
    """Per-class attempt and failure accounting against the oracle."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.counts = collections.defaultdict(collections.Counter)
        self.latency = collections.defaultdict(list)
        #: ``(receive stamp, latency)`` per class, for slicing.
        self.stamps = collections.defaultdict(list)
        self.examples: list[str] = []

    def records(self, records, timed_out=()) -> None:
        from oracle import canonical

        for rid, cls, key, t_send, t_recv, raw in records:
            counts = self.counts[cls]
            counts["attempted"] += 1
            verdict = None
            try:
                response = json.loads(raw)
            except ValueError:
                verdict = "bad_frame"
            else:
                if response.get("id") != rid:
                    verdict = "out_of_order"
                elif not response.get("ok"):
                    verdict = "not_ok"
                elif key is not None and canonical(response["result"]) != self.expected[key]:
                    verdict = "mismatch"
            # A failed request misses every latency limit.
            latency = t_recv - t_send if verdict is None else math.inf
            self.latency[cls].append(latency)
            self.stamps[cls].append((t_recv, latency))
            if verdict is None:
                continue
            counts[verdict] += 1
            counts["failed"] += 1
            if len(self.examples) < 3:
                self.examples.append(f"{verdict} {cls} id={rid}: {raw[:200]!r}")
        for rid, cls, key, t_send in timed_out:
            self.counts[cls]["attempted"] += 1
            self.counts[cls]["timed_out"] += 1
            self.counts[cls]["failed"] += 1
            self.latency[cls].append(math.inf)

    def total(self, field: str, classes) -> int:
        return sum(self.counts[c][field] for c in classes)

    @property
    def failed(self) -> int:
        return sum(c["failed"] for c in self.counts.values())


def tail(latencies) -> tuple[str, float, int]:
    """The highest ladder percentile with at least 10 samples beyond it."""
    values = sorted(latencies)
    n = len(values)
    label, value = "p50", _quantile(values, 0.5)
    for q in (0.9, 0.99, 0.999, 0.9999):
        if n * (1.0 - q) >= 10:
            label, value = f"p{q * 100:g}", _quantile(values, q)
    return label, value, n


def _quantile(sorted_values, q: float) -> float:
    if not sorted_values:
        return math.nan
    pos = min(int(math.ceil(q * len(sorted_values))) - 1, len(sorted_values) - 1)
    return sorted_values[max(pos, 0)]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


# ----------------------------------------------------------------------
# One server's life: set-up, then (optionally) the timed phase
# ----------------------------------------------------------------------
class Bench:
    def __init__(self, args):
        import workloads
        from oracle import Oracle

        self.args = args
        self.workload = args.workload
        self.spec = workloads.sizes(args.workload, toy=args.toy)
        values = workloads.build_values(args.workload, args.seed, toy=args.toy)
        self.oracle = Oracle(args.workload, args.seed, values, toy=args.toy)
        self.oracle.close()
        spec = self.spec
        tail_of = workloads.encode_tail
        warm = spec["warm_dataset"]
        self.t_prime = tail_of(workloads.cold_query(spec, warm, spec["cold_budget"]))
        self.t_inv_warm = tail_of(workloads.invalidate(warm))
        self.t_fills = [tail_of(r) for r in workloads.pool_fills(spec, warm)] \
            if "warm_keys" in spec else []
        self.vocab_tails = [tail_of(r) for r in self.oracle.vocab]
        #: Per cold dataset: its untimed invalidate, then its cold query.
        budget = spec.get("write_budget", spec["cold_budget"])
        self.cold_pairs = [
            [("helper", None, tail_of(workloads.invalidate(name))),
             ("cold", ("write", name), tail_of(workloads.cold_query(spec, name, budget)))]
            for name in spec.get("cold_datasets", ())
        ]
        if self.vocab_tails:
            n_keys = len(self.vocab_tails)
            self.timed_draws = workloads.zipf_draws(
                args.seed, n_keys, ZIPF_DRAWS, spec["zipf_s"], tag=4)
            self.warmup_draws = workloads.zipf_draws(
                args.seed, n_keys, spec.get("lru_warmup_draws", n_keys),
                spec["zipf_s"], tag=5)
        WORK.mkdir(exist_ok=True)

    def one_server(self, tag: str, *, timed: bool, traced: bool) -> dict:
        """Launch, set up, optionally drive the timed phase; always reap."""
        spans = WORK / f"spans-{tag}.json" if traced else None
        driver = Driver()
        check = Check(self.oracle.expected)
        launch = Launch(self.workload, self.args.seed, toy=self.args.toy,
                        spans=spans, perturb=self.args.perturb, tag=tag)
        try:
            out = self._drive(launch, driver, check, timed=timed)
            launch.shutdown()
        finally:
            launch.close()
        if traced:
            with open(spans, encoding="utf-8") as handle:
                out["spans"] = json.load(handle)["spans"]
            spans.unlink()
        launch.log_path.unlink()
        out["check"] = check
        return out

    def _drive(self, launch: Launch, driver: Driver, check: Check, *, timed: bool) -> dict:
        if launch.ready["fingerprints"] != self.oracle.fingerprints:
            raise BenchError("the server built other datasets than the oracle")
        spec = self.spec
        out = {"import_s": launch.ready["import_s"], "build_s": launch.ready["build_s"]}
        a = launch.connect(1)
        b = launch.connect(1) if self.cold_pairs else None
        # Set-up.  The priming cold query is cold_observe's query; its
        # pools are dropped again unless it is cold_observe, which primes
        # its second dataset at the same time on the second connection.
        more = []
        if self.workload == "cold_observe":
            _, key, tail = self.cold_pairs[1][1]
            more.append((b, [("setup", key, tail)]))
        prime = driver.request(a, [("setup", "prime", self.t_prime)], *more)
        out["prime_s"] = next(r[4] - r[3] for r in prime if r[2] == "prime")
        setup = [] if self.workload == "cold_observe" else \
            [("setup", None, self.t_inv_warm)]
        setup += [("setup", None, t) for t in self.t_fills]
        driver.request(a, setup)
        if self.workload == "mixed_rw":
            driver.request(b, [("setup", key, tail) for _, key, tail in self.cold_pairs[0]])
        if self.vocab_tails:
            a.window = spec["warm_window"]
            if self.workload == "warm_read":
                keys = range(len(self.vocab_tails))
            else:
                keys = self.warmup_draws
            driver.request(a, [("setup", ("warm", int(k)), self.vocab_tails[k])
                               for k in keys])
        setup_check = Check(self.oracle.expected)
        setup_check.records(driver.records, driver.timed_out)
        if setup_check.failed:
            raise BenchError(
                "set-up answers failed: " + "; ".join(setup_check.examples))
        out["setup_s"] = CLOCK() - launch.t_launch
        if not timed:
            return out

        cache0 = self._cache_stats(driver, a)

        # The timed phase.
        pid = launch.pid
        first = len(driver.records)
        gc.collect()
        gc.disable()
        try:
            steal0, cpu0, drv0 = steal_seconds(), process_cpu_seconds(pid), driver_cpu_seconds()
            if self.workload == "cold_observe":
                timing = self._cold_cycles(driver, a, pid)
            else:
                pairs = [(a, source_zipf(self.timed_draws, self.vocab_tails))]
                if self.cold_pairs:
                    pairs.append((b, source_cycle(self.cold_pairs[0])))
                t_start, t_end = driver.pump(pairs, seconds=self.args.seconds)
                timing = {"t_start": t_start, "t_end": t_end, "windows": None,
                          "cpu_classes": ("warm", "cold"),
                          "metric_cpu_s": process_cpu_seconds(pid) - cpu0}
            steal1, cpu1, drv1 = steal_seconds(), process_cpu_seconds(pid), driver_cpu_seconds()
        finally:
            gc.enable()
        timed_records = driver.records[first:]
        # Untimed from here on: stats, peak RSS, then the answer check.
        cache1 = self._cache_stats(driver, a)
        cache = {k: cache1[k] - cache0[k] for k in cache1}
        out.update(
            timing, elapsed=timing["t_end"] - timing["t_start"],
            server_cpu_s=cpu1 - cpu0, driver_cpu_s=drv1 - drv0,
            steal_s=steal1 - steal0, rss_mb=peak_rss_mib(pid),
            cache=cache, timed_records=timed_records,
        )
        check.records(timed_records, driver.timed_out)
        return out

    def _cold_cycles(self, driver: Driver, conn: Conn, pid: int) -> dict:
        """cold_observe's timed phase: cycles of one depth-1 cold query
        (after its untimed invalidate), then ``warm_burst_s`` of pipelined
        cache-hit re-reads of its answer, the cold datasets taken in turn.
        The warm figures are taken over the bursts, and the server CPU of
        cpu_us_per_req over the cold halves only."""
        spec = self.spec
        rereads = [source_cycle([("warm", key, tail)]) for (_, (_, key, tail))
                   in self.cold_pairs]
        windows, cold_cpu = [], 0.0
        t_start = CLOCK()
        for cycle in itertools.count():
            if CLOCK() - t_start >= self.args.seconds:
                break
            turn = cycle % len(self.cold_pairs)
            conn.window = spec["cold_window"]
            cpu0 = process_cpu_seconds(pid)
            driver.request(conn, self.cold_pairs[turn])
            cold_cpu += process_cpu_seconds(pid) - cpu0
            conn.window = spec["warm_window"]
            windows.append(driver.pump([(conn, rereads[turn])],
                                       seconds=spec["warm_burst_s"]))
        return {"t_start": t_start, "t_end": windows[-1][1], "windows": windows,
                "cpu_classes": ("cold",), "metric_cpu_s": cold_cpu}

    def _cache_stats(self, driver: Driver, conn: Conn) -> dict:
        """Result-cache counters summed over the datasets the warm reads
        go to: cold_observe re-reads both its datasets (untimed requests)."""
        names = self.spec.get("cold_datasets") if self.workload == "cold_observe" \
            else [self.spec["warm_dataset"]]
        stats = driver.request(conn, [("stats", None, b'"op":"stats","dataset":"%s"}\n'
                                       % name.encode()) for name in names])
        caches = [json.loads(r[5])["stats"]["cache"] for r in stats]
        return {k: sum(c[k] for c in caches) for k in ("hits", "misses", "evictions")}


def warm_windows(run: dict) -> list[tuple[float, float]]:
    """The time windows the warm figures are medians over: cold_observe's
    re-read bursts, or else equal slices of the timed phase, so a burst
    of hypervisor steal moves a few slices rather than the reported
    figure.  Slices hold ``MIN_PER_SLICE`` completions on average, and
    number at most ``MAX_SLICES``."""
    if run["windows"] is not None:
        return run["windows"]
    count = min(MAX_SLICES, max(1, len(run["check"].stamps["warm"]) // MIN_PER_SLICE))
    width = (run["t_end"] - run["t_start"]) / count
    return [(run["t_start"] + i * width, run["t_start"] + (i + 1) * width)
            for i in range(count)]


def windowed(stamps, windows) -> dict:
    """Completions per second and p50 latency, each a median over windows."""
    starts = [t0 for t0, _ in windows]
    buckets = [[] for _ in windows]
    for t_recv, latency in stamps:
        buckets[max(bisect.bisect_right(starts, t_recv) - 1, 0)].append(latency)
    rates = [sum(1 for x in bucket if x != math.inf) / (t1 - t0)
             for bucket, (t0, t1) in zip(buckets, windows)]
    p50s = [median(bucket) for bucket in buckets if bucket]
    return {"count": len(windows), "rates": rates, "p50s": p50s,
            "rate": median(rates), "p50": median(p50s)}


def metric_done(run: dict) -> int:
    """Requests answered correctly among those cpu_us_per_req counts."""
    return sum(1 for cls in run["cpu_classes"] for _, latency in run["check"].stamps[cls]
               if latency != math.inf)


def end_to_end(bench: Bench, runs: list[dict]) -> dict:
    """The six end-to-end metrics from untimed set-ups plus one timed run."""
    timed = runs[-1]
    warm = windowed(timed["check"].stamps["warm"], warm_windows(timed))
    if bench.workload == "warm_read":
        # No cold query is timed: the set-ups' priming queries are.
        cold = [r["prime_s"] for r in runs]
    else:
        cold = timed["check"].latency["cold"]
    return {
        "warm_rps": warm["rate"],
        "warm_p50_ms": warm["p50"] * 1e3,
        "cold_p50_ms": median(cold) * 1e3,
        "cpu_us_per_req": timed["metric_cpu_s"] / max(metric_done(timed), 1) * 1e6,
        "setup_s": median(r["setup_s"] for r in runs),
        "rss_mb": timed["rss_mb"],
    }


UNITS = {
    "warm_rps": "1/s", "warm_p50_ms": "ms", "cold_p50_ms": "ms",
    "cpu_us_per_req": "us", "setup_s": "s", "rss_mb": "MiB",
}


def workload_why(name: str) -> str:
    """The workload's reason for existing, from its ``BENCHMARK.json`` entry."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        entries = json.load(handle)["workloads"]
    return next(entry["why"] for entry in entries if entry["name"] == name)


def per_layer_units(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_gflop", "GFLOP"),
                         ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("_ratio", "_classified", "_cover")):
        return "ratio"
    return "count"


def report_run(label: str, run: dict, metrics: dict) -> None:
    check = run["check"]
    n_req = check.total("attempted", ("warm", "cold", "helper"))
    print(f"# {label}: timed {run['elapsed']:.3f} s, {n_req} requests, "
          f"server cpu {run['server_cpu_s'] / max(n_req, 1) * 1e6:.1f} us/req, "
          f"driver cpu {run['driver_cpu_s'] / max(n_req, 1) * 1e6:.1f} us/req, "
          f"steal {run['steal_s']:.2f} s, server import {run['import_s']:.3f} s, "
          f"data build {run['build_s']:.3f} s")
    for cls in ("warm", "cold", "helper"):
        counts = check.counts[cls]
        if not counts["attempted"]:
            continue
        label_q, value, n = tail(check.latency[cls])
        print(f"#   {cls}: attempted {counts['attempted']}, failed {counts['failed']} "
              f"(not_ok {counts['not_ok']}, mismatch {counts['mismatch']}, "
              f"out_of_order {counts['out_of_order']}, timed_out {counts['timed_out']}); "
              f"p50 {median(check.latency[cls]) * 1e3:.3f} ms, "
              f"tail {label_q} {value * 1e3:.3f} ms (n={n}, not gated)")
    warm = windowed(check.stamps["warm"], warm_windows(run))
    print(f"#   warm windows: {warm['count']}, rate "
          f"{min(warm['rates']):.1f}-{max(warm['rates']):.1f} 1/s, p50 "
          f"{min(warm['p50s']) * 1e3:.3f}-{max(warm['p50s']) * 1e3:.3f} ms")
    cache = run["cache"]
    lookups = max(cache["hits"] + cache["misses"], 1)
    print(f"#   cache (timed phase): hits {cache['hits']}, misses {cache['misses']} "
          f"({cache['misses'] / lookups:.1%} of lookups), evictions {cache['evictions']}")
    print("#   e2e: " + ", ".join(f"{k}={v:.4f}" for k, v in metrics.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("warm_read", "cold_observe", "mixed_rw"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="self-test scale (small n and budgets)")
    parser.add_argument("--perturb", action="store_true",
                        help="damage the traced server's answers (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Byte-compile first, so no set-up pays for it (a no-op when warm).
    import compileall

    compileall.compile_dir(str(SRC), quiet=2)

    bench = Bench(args)
    host = host_fingerprint()
    print("# host: " + json.dumps(host))
    spec = dict(bench.spec, why=workload_why(args.workload), seed=args.seed)
    print(f"# workload {args.workload}: " + json.dumps(spec))

    checks = []
    if args.trace == 0:
        runs = [bench.one_server(f"setup{i}", timed=False, traced=False)
                for i in range(SETUPS - 1)]
        runs.append(bench.one_server("timed", timed=True, traced=False))
        checks = [r["check"] for r in runs]
        metrics = end_to_end(bench, runs)
        report_run("untraced", runs[-1], metrics)
        out_metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    else:
        from layers import analyse

        plain = bench.one_server("plain", timed=True, traced=False)
        traced = bench.one_server("traced", timed=True, traced=True)
        checks = [plain["check"], traced["check"]]
        base = end_to_end(bench, [plain])
        with_trace = end_to_end(bench, [traced])
        report_run("untraced", plain, base)
        report_run("traced", traced, with_trace)
        print("# tracing overhead (traced / untraced): " + ", ".join(
            f"{k} {with_trace[k] / base[k]:.3f}" for k in
            ("warm_rps", "warm_p50_ms", "cold_p50_ms", "cpu_us_per_req")))
        warm = [(r[0], r[3], r[4]) for r in traced["timed_records"] if r[1] == "warm"]
        layer, notes = analyse(traced["spans"], warm, traced["t_start"],
                               traced["t_end"], traced["cache"]["evictions"])
        layer["trace.cpu_ratio"] = with_trace["cpu_us_per_req"] / base["cpu_us_per_req"]
        layer["trace.warm_p50_ratio"] = with_trace["warm_p50_ms"] / base["warm_p50_ms"]
        print("# layers: " + json.dumps(notes))
        print("# per-layer: " + ", ".join(f"{k}={v:.4g}" for k, v in layer.items()))
        out_metrics = {k: {"value": v, "unit": per_layer_units(k)}
                       for k, v in layer.items()}
    attempted = sum(c.total("attempted", ("warm", "cold", "helper")) for c in checks)
    failed = sum(c.total("failed", ("warm", "cold", "helper")) for c in checks)
    for c in checks:
        for example in c.examples:
            print("# failure: " + example)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": out_metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so every server gets reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
