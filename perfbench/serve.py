"""serve-mixed: a live ``repro serve --nprobe 8`` daemon under mixed traffic.

Set-up builds a seeded 100k x 32 float64 base and an IVF index with 316
lists (sqrt n) and 4 training iterations over a seeded sample of 64 rows
per list, holding every base row, and saves it (untimed).  The
timed set-up is daemon spawn until ``/healthz`` answers.  The work is
an open-loop Poisson stream at 20 req/s for ``--seconds`` with the
default mix (80% query by id with k=10, 10% insert, 5% delete, 5%
explain) and Zipf alpha 1.1, sent by one :class:`SoakRunner` with two
worker threads (never more than ``nproc``).  Latency is timed from each
request's scheduled send time.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from repro.index import IVFIndex
from repro.loadgen import SoakRunner, WorkloadSpec
from repro.loadgen.report import server_latency_summary
from repro.storage import EmbeddingStore

from perfbench.common import Check, Context, Outcome, median
from perfbench.host import pinned_env
from perfbench.spec import ROOT, SRC

N_BASE, SMOKE_BASE = 100_000, 2_000
DIM = 32
NPROBE = 8
TRAIN_ITERATIONS = 4
#: Training rows per list.  k-means is measured by offline-100k; here it
#: is untimed set-up, and a sample keeps a run inside its time budget.
TRAIN_ROWS_PER_LIST = 64
QPS = 20.0
ZIPF_ALPHA = 1.1
K = 10
#: One load-generator process, at most this many threads (and <= nproc).
MAX_WORKERS = 2
BOOT_TIMEOUT = 120.0
#: Boots per run (each ~8 s of index load); the last one serves.
SETUP_REPEATS = 2
#: Query tail quantile printed with every run (not gated; see README.md).
TAIL_Q = 99


def n_lists(n: int) -> int:
    return max(1, round(n ** 0.5))


def build_artifacts(seed: int, n: int, root: Path) -> tuple[np.ndarray, Path, float, float]:
    """The base vectors and a saved index; returns build and save seconds."""
    # A stream of its own: the traffic's generator is seeded with the
    # same seed, and a shared stream would make inserts duplicate rows.
    rng = np.random.default_rng([seed, 1])
    base = rng.normal(size=(n, DIM))
    lists = n_lists(n)
    sample = np.sort(rng.choice(n, size=min(n, TRAIN_ROWS_PER_LIST * lists), replace=False))
    start = time.perf_counter()
    index = IVFIndex(n_clusters=lists, train_iterations=TRAIN_ITERATIONS)
    index.train(base[sample]).add(base)
    built = time.perf_counter()
    path = index.save(root / "ivf.json")
    return base, Path(path), built - start, time.perf_counter() - built


def write_store(base: np.ndarray, root: Path, capacity: int) -> Path:
    """A pristine store: the daemon appends to it, so one per pass."""
    path = root / "emb.store"
    store = EmbeddingStore.create(path, base.shape, "float64", capacity=capacity)
    store[:] = base
    store.update_checksum()
    store.close()
    return path


def _http(url: str, method: str = "GET", body: dict | None = None, timeout: float = 30.0):
    """(status, decoded JSON or text) for one request."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            raw, status = response.read().decode("utf-8"), response.status
    except urllib.error.HTTPError as error:
        raw, status = error.read().decode("utf-8"), error.code
    try:
        return status, json.loads(raw)
    except json.JSONDecodeError:
        return status, raw


class Daemon:
    """One daemon process, launched through :mod:`perfbench.launcher`."""

    def __init__(self, store: Path, index: Path, log: Path, trace_out: Path | None = None):
        command = [sys.executable, "-m", "perfbench.launcher"]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["serve", "--store", str(store), "--index", str(index),
                    "--port", "0", "--nprobe", str(NPROBE)]
        env = pinned_env()
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(SRC)])
        self._log = open(log, "ab")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, text=True,
            cwd=ROOT, env=env,
        )
        try:
            banner = self.process.stdout.readline().strip()
            if "serving on" not in banner:
                raise RuntimeError(f"daemon failed to boot: banner {banner!r}; see {log}")
            self.url = "http://127.0.0.1:" + banner.rsplit(":", 1)[1]
            deadline = start + BOOT_TIMEOUT
            while True:
                try:
                    if _http(self.url + "/healthz", timeout=5.0)[0] == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() > deadline:
                    raise RuntimeError("daemon never answered /healthz")
                time.sleep(0.01)
            self.boot_seconds = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise

    def cpu_seconds(self) -> float:
        """The daemon's utime + stime so far, from /proc/<pid>/stat."""
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> int:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        self._log.close()
        return self.process.returncode


class RecordingRunner(SoakRunner):
    """A :class:`SoakRunner` that also keeps every request's outcome (the
    stock runner keeps only aggregates).  Requests go through the stock
    sender."""

    def __init__(self, url: str, workers: int) -> None:
        super().__init__(url, workers=workers)
        self.records: list[tuple] = []
        self._records_lock = threading.Lock()

    def _fire(self, start, request):
        outcome = super()._fire(start, request)
        with self._records_lock:
            self.records.append((request, outcome))
        return outcome


@dataclass
class StreamFacts:
    """What the stream did, as the correctness checks need it."""

    scheduled: int
    completed: int
    errors: int
    timeouts: int
    max_version_lag: int
    live_inserted: set[int] = field(default_factory=set)
    deleted: set[int] = field(default_factory=set)
    #: Inserted ids whose delete was sent before the insert was
    #: acknowledged: either order may have won, so either outcome passes.
    raced: set[int] = field(default_factory=set)


def stream_facts(report, records) -> StreamFacts:
    """Acknowledged writes by request id.  Times are offsets from the
    stream's start: sent = arrival + dispatch lag, acknowledged =
    arrival + latency."""
    acked, deleted, raced = {}, set(), set()
    for request, outcome in records:
        if request.kind == "insert" and outcome.status == "ok":
            acked[request.entity_id] = request.arrival + outcome.latency
    for request, outcome in records:
        if request.kind != "delete" or outcome.status != "ok":
            continue
        sent = request.arrival + outcome.dispatch_lag
        if request.entity_id in acked and sent > acked[request.entity_id]:
            deleted.add(request.entity_id)
        else:
            raced.add(request.entity_id)
    return StreamFacts(
        scheduled=report.scheduled, completed=report.completed,
        errors=report.errors, timeouts=report.timeouts,
        max_version_lag=report.max_version_lag,
        live_inserted=set(acked) - deleted - raced, deleted=deleted, raced=raced,
    )


def probe_writes(url: str, facts: StreamFacts) -> dict[int, tuple[int, int | None]]:
    """Query every written id after the stream: id -> (status, rank-1 id)."""
    probes = {}
    for entity_id in sorted(facts.live_inserted | facts.deleted | facts.raced):
        status, body = _http(url + "/query", "POST", {"entity_id": entity_id, "k": 1})
        top = None
        if status == 200 and body.get("matches"):
            top = int(body["matches"][0]["entity_id"])
        probes[entity_id] = (status, top)
    return probes


def self_ranking(facts: StreamFacts, probes) -> tuple[float, float, int]:
    """(hits1, f1, ids) over the surviving inserts, from the post-stream
    probes.  A hit is an insert that ranks itself first."""
    live = sorted(facts.live_inserted)
    hits = sum(1 for i in live if probes.get(i) == (200, i))
    answered = sum(1 for i in live if (probes.get(i) or (None,))[0] == 200)
    precision = hits / answered if answered else 0.0
    recall = hits / len(live) if live else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return recall, f1, len(live)


def check_serve(facts: StreamFacts, probes: dict[int, tuple[int, int | None]]) -> list[Check]:
    """No errors, timeouts or stale reads; every surviving insert ranks
    itself first; every deleted id answers 404; every raced id does one
    or the other."""
    lost = [(i, probes.get(i)) for i in sorted(facts.live_inserted)
            if probes.get(i) != (200, i)]
    alive = [(i, probes.get(i)) for i in sorted(facts.deleted)
             if (probes.get(i) or (None,))[0] != 404]
    torn = [(i, probes.get(i)) for i in sorted(facts.raced)
            if probes.get(i) != (200, i) and (probes.get(i) or (None,))[0] != 404]
    return [
        Check("serve.all_requests_completed", facts.completed == facts.scheduled,
              f"{facts.completed}/{facts.scheduled}"),
        Check("serve.zero_errors_and_timeouts", facts.errors == 0 and facts.timeouts == 0,
              f"errors={facts.errors} timeouts={facts.timeouts}"),
        Check("serve.max_version_lag_zero", facts.max_version_lag == 0,
              f"max_version_lag={facts.max_version_lag}"),
        Check("serve.inserts_queryable_and_self_ranked", not lost,
              f"{len(facts.live_inserted)} live inserts; (id, (status, rank-1 id)) "
              f"failing: {lost[:5]}"),
        Check("serve.deleted_ids_answer_404", not alive,
              f"{len(facts.deleted)} deletes; still answering: {alive[:5]}"),
        Check("serve.raced_ids_deleted_or_self_ranked", not torn,
              f"{len(facts.raced)} deletes sent before their insert was answered; "
              f"neither 404 nor self-ranked: {torn[:5]}"),
    ]


def install_tracing(tracer) -> None:
    """Nothing to wrap in this process: the daemon's layers are wrapped
    inside the daemon by :mod:`perfbench.launcher`."""


def _session(ctx: Context, base, index_path: Path, spec, requests, trace_out: Path | None):
    """One daemon session: boots, the stream, and the post-stream probes."""
    store = write_store(base, ctx.workdir, capacity=len(base) + len(requests) + 8)
    log = ctx.workdir / "daemon.log"
    boots = []
    for repeat in range(ctx.setup_repeats):
        last = repeat == ctx.setup_repeats - 1
        daemon = Daemon(store, index_path, log, trace_out if last else None)
        boots.append(daemon.boot_seconds)
        if not last:
            daemon.stop()
    try:
        runner = RecordingRunner(daemon.url, min(MAX_WORKERS, os.cpu_count() or 1))
        cpu0, client0 = daemon.cpu_seconds(), time.process_time()
        report = runner.run(spec, requests)
        client_cpu = time.process_time() - client0
        daemon_cpu = daemon.cpu_seconds() - cpu0
        _, stats = _http(daemon.url + "/stats")
        _, metrics_text = _http(daemon.url + "/metrics")
        facts = stream_facts(report, runner.records)
        probes = probe_writes(daemon.url, facts)
    finally:
        code = daemon.stop()
    if code != 0:
        raise RuntimeError(f"daemon exited with code {code}; see {log}")
    return {
        "boots": boots, "report": report, "records": runner.records,
        "daemon_cpu": daemon_cpu, "client_cpu": client_cpu, "stats": stats,
        "metrics_text": metrics_text, "facts": facts, "probes": probes,
    }


def run(ctx: Context) -> Outcome:
    n = SMOKE_BASE if ctx.smoke else N_BASE
    if "artifacts" not in ctx.shared:
        ctx.shared["artifacts"] = build_artifacts(ctx.seed, n, ctx.workdir)
    base, index_path, build_s, save_s = ctx.shared["artifacts"]
    spec = WorkloadSpec(seed=ctx.seed, qps=QPS, duration_seconds=float(ctx.seconds),
                        zipf_alpha=ZIPF_ALPHA, k=K)
    requests = spec.generate(n, DIM)
    trace_out = ctx.workdir / "daemon-trace.json" if ctx.tracer is not None else None
    session = _session(ctx, base, index_path, spec, requests, trace_out)
    report, records, stats = session["report"], session["records"], session["stats"]

    queries = [o.latency for r, o in records if r.kind == "query"]
    writes = [o.latency for r, o in records if r.kind in ("insert", "delete")]
    hits1, f1, probed = self_ranking(session["facts"], session["probes"])
    lag_ms = 1e3 * report.max_dispatch_lag_seconds
    query_p50_ms = 1e3 * median(queries)

    out = Outcome()
    out.put("setup_s", median(session["boots"]), len(session["boots"]))
    out.put("work_s", report.wall_seconds, report.completed)
    out.put("peak_rss_mb", stats["peak_rss_bytes"] / 2**20, 1)
    out.put("hits1", hits1, probed)
    out.put("f1", f1, probed)
    out.put("cpu_ms_per_req", 1e3 * session["daemon_cpu"] / report.completed, report.completed)
    write_p50_ms = 1e3 * median(writes)
    tail = float(np.percentile(queries, TAIL_Q)) * 1e3
    # Open-loop latencies follow the host's CPU steal too closely to gate
    # (README.md, "What is not gated"); they are printed with every run.
    out.reported.update({
        "query_p50_ms": (query_p50_ms, "ms", len(queries)),
        "write_p50_ms": (write_p50_ms, "ms", len(writes)),
        "query_p99_ms": (tail, "ms", len(queries)),
        "self_hit1": (hits1, "share", probed),
    })
    out.work_seconds = report.wall_seconds
    out.attempted = report.scheduled + len(session["probes"])
    checks = check_serve(session["facts"], session["probes"])
    out.checks.extend(checks)
    out.failed = report.errors + report.timeouts + (report.scheduled - report.completed) + sum(
        not c.ok for c in checks
    )
    out.notes.update({
        "loadgen.dispatch_lag_max_ms": lag_ms,
        "loadgen.behind_schedule": lag_ms > query_p50_ms,
        "requests": {kind: sum(1 for r, _ in records if r.kind == kind)
                     for kind in ("query", "insert", "delete", "explain")},
        "daemon_cpu_s": session["daemon_cpu"],
        "p50_ms_by_kind": {
            kind: 1e3 * median([o.latency for r, o in records if r.kind == kind])
            for kind in ("query", "insert", "delete", "explain")
            if any(r.kind == kind for r, _ in records)
        },
    })

    if ctx.tracer is not None:
        trace = json.loads(trace_out.read_text(encoding="utf-8"))
        seconds, calls = trace["seconds"], trace["calls"]
        counters = trace["counters"]
        server = server_latency_summary(session["metrics_text"]) or {}
        state_s = sum(seconds.get(f"serve.state.{op}", 0.0) for op in ("query", "insert", "delete"))
        handled_s = state_s + seconds.get("serve.http.explain", 0.0)
        n_requests = server.get("count", 0.0)
        unattributed = server.get("sum_seconds", 0.0) - handled_s
        writes_n = calls.get("serve.state.insert", 0) + calls.get("serve.state.delete", 0)

        def per_call_ms(name: str) -> float:
            return 1e3 * seconds.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

        searched = counters["index.search.queries"]
        out.layers.update({
            "storage.append_row_ms": per_call_ms("storage.append_row"),
            "kmeans.train_s": seconds.get("kmeans.train", 0.0),
            "index.add_s": seconds.get("index.add", 0.0),
            "index.search_s": seconds.get("index.search", 0.0),
            "index.search_ms": 1e3 * seconds.get("index.search", 0.0) / searched if searched else 0.0,
            "index.scanned": counters["index.search.scanned"],
            "index.shortfall": counters["index.search.shortfall"],
            "index.vstack_s": seconds.get("index.vstack", 0.0),
            "index.load_s": seconds.get("index.load", 0.0),
            "index.build_s": build_s,
            "index.save_s": save_s,
            "index.clone_append_ms": 1e3 * (seconds.get("index.clone", 0.0)
                                            + seconds.get("index.append", 0.0)) / writes_n
            if writes_n else 0.0,
            "similarity.engine_s": seconds.get("similarity.engine", 0.0),
            "similarity.cache_hits": stats["cache"].get("hits", 0),
            "similarity.cache_misses": stats["cache"].get("misses", 0),
            "similarity.computations": stats["cache"].get("computations", 0),
            "serve.state.query_ms": per_call_ms("serve.state.query"),
            "serve.state.insert_ms": per_call_ms("serve.state.insert"),
            "serve.state.delete_ms": per_call_ms("serve.state.delete"),
            "serve.state.compactions": counters["serve.compactions.migrate"]
            + counters["serve.compactions.recluster"],
            "serve.state.delta_depth_max": trace["maxima"].get("serve.state.delta_depth", 0),
            "serve.batching.wait_ms_p50": stats["batcher"]["wait_ms"]["p50"],
            "serve.batching.batch_mean": stats["batcher"]["mean_batch"],
            "serve.http.request_ms_p50": 1e3 * server.get("p50_seconds", 0.0),
            "serve.http.overhead_ms": 1e3 * unattributed / n_requests if n_requests else 0.0,
            "serve.http.explain_ms": per_call_ms("serve.http.explain"),
            "loadgen.dispatch_lag_max_ms": lag_ms,
            "loadgen.client_cpu_ms_per_req": 1e3 * session["client_cpu"] / report.completed,
            "loadgen.query_p50_ms": query_p50_ms,
            "loadgen.write_p50_ms": write_p50_ms,
            "loadgen.query_p99_ms": tail,
            "workload.unattributed_s": unattributed,
        })
    return out
