"""offline-100k: the ``BENCH_scale.json`` 100k point, out of core.

A seeded 100k x 32 float32 aligned pair is written to two memmap
stores (set-up), then ``blocked_candidates`` (IVF: k-means training,
list fill, batched scan) and sparse ``Greedy.match_candidates`` align
every source row (work).  Row ``i`` of the source is gold-aligned to
row ``i`` of the target.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from repro.core.greedy import Greedy
from repro.index.blocked import blocked_candidates
from repro.index.candidates import CandidateSet
from repro.index.ivf import IVFIndex
from repro.obs.metrics import get_metrics
from repro.storage import EmbeddingStore

from perfbench.common import Check, Context, Outcome, median, timed_repeats, vm_hwm_mb

N_ROWS, SMOKE_ROWS = 100_000, 2_000
DIM = 32
K, NPROBE, TRAIN_ITERATIONS = 10, 8, 4
MEMORY_BUDGET = 256 * 2**20
#: Set-up is cheap (~0.4 s, two fsync'd store writes), so it is repeated
#: more often than the other workloads' for a steadier median.
SETUP_REPEATS = 9
#: hits1 measured per seed at the commit that defined this benchmark.
EXPECTED_FILE = Path(__file__).with_name("expected_hits1.json")
#: Allowed distance from the recorded per-seed hits1.  It is the quality
#: budget the roadmap gives a k-means/scan rewrite (recall within 0.005),
#: so a faithful rewrite passes and a broken scan does not.
HITS1_TOLERANCE = 0.005
#: Floor for seeds that have no recorded value.
HITS1_FLOOR = 0.9


def aligned_pair(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(n, DIM)).astype(np.float32)
    source = latent + 0.3 * rng.normal(size=(n, DIM)).astype(np.float32)
    target = latent + 0.3 * rng.normal(size=(n, DIM)).astype(np.float32)
    return source, target


def expected_hits1(seed: int) -> float | None:
    table = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    return table.get(str(seed))


def check_offline(
    pairs: np.ndarray, top1: np.ndarray, n: int, hits1: float, expected: float | None
) -> list[Check]:
    """Every row gets one pair, Greedy took each row's best candidate,
    and hits1 is the seed's value."""
    checks = []
    rows = pairs[:, 0] if len(pairs) else np.empty(0, dtype=np.int64)
    one_each = len(pairs) == n and np.array_equal(np.sort(rows), np.arange(n))
    checks.append(Check("offline.one_pair_per_row", bool(one_each),
                        f"{len(pairs)} pairs for {n} rows"))
    if one_each:
        order = np.argsort(rows)
        took_best = np.array_equal(pairs[order, 1], top1)
        checks.append(Check("offline.greedy_takes_top_candidate", bool(took_best)))
    if expected is None:
        checks.append(Check("offline.hits1_floor", hits1 >= HITS1_FLOOR,
                            f"hits1={hits1:.6f}, no recorded value; floor {HITS1_FLOOR}"))
    else:
        checks.append(Check(
            "offline.hits1_matches_seed", abs(hits1 - expected) <= HITS1_TOLERANCE,
            f"hits1={hits1:.6f} recorded={expected:.6f} tol={HITS1_TOLERANCE}",
        ))
    return checks


def install_tracing(tracer) -> None:
    tracer.wrap(EmbeddingStore, "write", "storage.write")
    tracer.wrap(IVFIndex, "train", "kmeans.train")
    tracer.wrap(IVFIndex, "add", "index.add")
    tracer.wrap(IVFIndex, "search", "index.search")
    tracer.wrap(CandidateSet, "vstack", "index.vstack")


def run(ctx: Context) -> Outcome:
    n = SMOKE_ROWS if ctx.smoke else N_ROWS
    out = Outcome()
    setups = []
    stores: list = []
    for _ in range(ctx.setup_repeats):
        for store in stores:
            store.close()
        start = time.perf_counter()
        source, target = aligned_pair(ctx.seed, n)
        stores = []
        for side, array in (("source", source), ("target", target)):
            stores.append(EmbeddingStore.write(ctx.workdir / f"{side}.store", array))
        setups.append(time.perf_counter() - start)
    del source, target
    source_store, target_store = stores

    registry = get_metrics()
    scanned0 = registry.counter("index.search.scanned")
    shortfall0 = registry.counter("index.search.shortfall")
    result: dict = {}

    def unit() -> None:
        greedy = Greedy()
        if ctx.tracer is not None:
            ctx.tracer.wrap(greedy, "match_candidates", "core.greedy.match")
        candidates = blocked_candidates(
            source_store, target_store, K, nprobe=NPROBE,
            train_iterations=TRAIN_ITERATIONS, memory_budget=MEMORY_BUDGET,
        )
        result["candidates"] = candidates
        result["pairs"] = greedy.match_candidates(candidates).pairs

    cpu0 = time.process_time()
    traced0 = ctx.tracer.top_level_seconds if ctx.tracer is not None else 0.0
    durations = timed_repeats(ctx, unit)
    cpu = time.process_time() - cpu0
    out.work_seconds = median(durations)

    pairs = np.asarray(result["pairs"], dtype=np.int64).reshape(-1, 2)
    candidates = result["candidates"]
    has_any = np.diff(candidates.indptr) > 0
    top1 = np.full(n, -1, dtype=np.int64)
    top1[has_any] = candidates.indices[candidates.indptr[:-1][has_any]]
    correct = int(np.count_nonzero(pairs[:, 1] == pairs[:, 0]))
    hits1 = correct / n
    precision = correct / len(pairs) if len(pairs) else 0.0
    f1 = 2 * precision * hits1 / (precision + hits1) if precision + hits1 else 0.0

    out.put("setup_s", median(setups), len(setups))
    out.put("work_s", out.work_seconds, len(durations))
    out.put("peak_rss_mb", vm_hwm_mb(), 1)
    out.put("hits1", hits1, n)
    out.put("f1", f1, n)
    out.put("cpu_ms_per_req", 1e3 * cpu / (n * len(durations)), n * len(durations))
    out.attempted = n
    expected = None if ctx.smoke else expected_hits1(ctx.seed)
    out.checks.extend(check_offline(pairs, top1, n, hits1, expected))
    out.failed = n - len(np.unique(pairs[:, 0])) + sum(not c.ok for c in out.checks)
    out.notes["candidate_nnz"] = int(candidates.nnz)

    if ctx.tracer is not None:
        t = ctx.tracer
        out.layers.update({
            "storage.write_s": t.seconds.get("storage.write", 0.0),
            "kmeans.train_s": t.seconds.get("kmeans.train", 0.0),
            "index.add_s": t.seconds.get("index.add", 0.0),
            "index.search_s": t.seconds.get("index.search", 0.0),
            "index.search_ms": 1e3 * t.seconds.get("index.search", 0.0) / (n * len(durations)),
            "index.scanned": registry.counter("index.search.scanned") - scanned0,
            "index.shortfall": registry.counter("index.search.shortfall") - shortfall0,
            "index.vstack_s": t.seconds.get("index.vstack", 0.0),
            "core.greedy.match_s": t.seconds.get("core.greedy.match", 0.0),
            "workload.unattributed_s": sum(durations) - (t.top_level_seconds - traced0),
        })
    for store in stores:
        store.close()
    return out
