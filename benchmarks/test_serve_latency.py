"""Serving latency/throughput benchmark for the online alignment daemon.

Measures the two numbers a serving deployment is sized by and records
them into ``benchmarks/results/BENCH_serve.json`` for the bench-check
regression gate:

* single-query latency through ``ServingState.query`` (the in-process
  path the HTTP handler sits on), reported as p50/p95 over a fixed
  query stream against a store with a populated delta layer — the
  worst realistic read path: IVF probe + brute-force delta scan +
  merge;
* coalesced throughput through the ``MicroBatcher`` with concurrent
  submitters, reported as ``queries_per_second``;
* the ``boot`` block: ``ServingState.load`` seconds at 100k x 32 (316
  lists — the ``perfbench`` serve-mixed shape), the vector-free index
  file's size and save seconds, and the median ``insert_seconds`` at
  10k and 100k base rows (an insert copies no vector, so the two should
  stay close).

Absolute numbers are hardware-bound; the committed baseline is gated
with the wide ``*per_second*`` / ``*seconds*`` tolerance bands in
``check_regression.py``.  The assertions here are sanity floors only
(the service answers, batching actually coalesces), not perf targets.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.index import IVFIndex
from repro.serve.batching import MicroBatcher
from repro.serve.state import ServingState
from repro.storage import EmbeddingStore

from conftest import RESULTS_DIR

pytestmark = pytest.mark.serve

N_BASE, DIM, N_CLUSTERS = 4000, 64, 16
N_DELTA = 48  # live delta depth during the measurement (worst read path)
NPROBE = 4
K = 10
LATENCY_QUERIES = 400
THROUGHPUT_QUERIES = 800
SUBMIT_THREADS = 8


def _merge_results(key, entry):
    """Merge one benchmark section into BENCH_serve.json (tests may run solo)."""
    path = RESULTS_DIR / "BENCH_serve.json"
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        document = {}
    document[key] = entry
    RESULTS_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def served_state(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve-bench")
    rng = np.random.default_rng(20240808)
    base = rng.normal(size=(N_BASE, DIM)).astype(np.float64)
    store = EmbeddingStore.create(
        tmp / "emb.store", base.shape, "float64", capacity=N_BASE + N_DELTA
    )
    store[:] = base
    store.update_checksum()
    store.close()
    IVFIndex(n_clusters=N_CLUSTERS).train(base).add(base).save(tmp / "ivf.json")
    state = ServingState.load(
        tmp / "emb.store", tmp / "ivf.json",
        nprobe=NPROBE, max_delta=N_DELTA + 1,  # keep the delta un-compacted
    )
    for vector in rng.normal(size=(N_DELTA, DIM)):
        state.insert(vector)
    assert state.stats()["delta_depth"] == N_DELTA
    return state


def test_single_query_latency(served_state):
    rng = np.random.default_rng(7)
    queries = rng.normal(size=(LATENCY_QUERIES, DIM))

    served_state.query(queries[0], K)  # warm caches / code paths
    samples = np.empty(LATENCY_QUERIES)
    for row, query in enumerate(queries):
        start = time.perf_counter()
        served_state.query(query, K)
        samples[row] = time.perf_counter() - start

    p50, p95 = (float(np.percentile(samples, q)) for q in (50, 95))
    _merge_results("single_query", {
        "n_base": N_BASE, "dim": DIM, "nprobe": NPROBE, "k": K,
        "delta_depth": N_DELTA, "queries": LATENCY_QUERIES,
        "p50_seconds": p50, "p95_seconds": p95,
    })
    print(f"\nserve single-query: p50={p50 * 1e3:.3f}ms p95={p95 * 1e3:.3f}ms")
    assert p95 < 1.0  # sanity floor, not a perf target


def test_batched_throughput(served_state):
    rng = np.random.default_rng(11)
    vectors = rng.normal(size=(THROUGHPUT_QUERIES, DIM))

    def handle(batch, ks):
        return [
            type(result)(
                entity_ids=result.entity_ids[:k],
                scores=result.scores[:k],
                version=result.version,
            )
            for result, k in zip(served_state.query(batch, max(ks)), ks)
        ]

    start_barrier = threading.Barrier(SUBMIT_THREADS + 1)
    failures: list = []

    with MicroBatcher(handle, max_batch=32, max_wait=0.002) as batcher:

        def worker(worker_index: int) -> None:
            try:
                start_barrier.wait()
                for row in range(worker_index, THROUGHPUT_QUERIES, SUBMIT_THREADS):
                    batcher.submit(vectors[row], K)
            except Exception as error:  # pragma: no cover - surfaced below
                failures.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(SUBMIT_THREADS)
        ]
        for thread in threads:
            thread.start()
        start_barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        stats = batcher.stats()

    assert not failures, failures
    assert stats["queries"] == THROUGHPUT_QUERIES
    assert stats["largest_batch"] > 1  # coalescing actually happened

    qps = THROUGHPUT_QUERIES / elapsed
    _merge_results("batched", {
        "n_base": N_BASE, "dim": DIM, "nprobe": NPROBE, "k": K,
        "threads": SUBMIT_THREADS, "queries": THROUGHPUT_QUERIES,
        "largest_batch": stats["largest_batch"],
        "mean_batch": stats["mean_batch"],
        "total_seconds": elapsed,
        "queries_per_second": qps,
    })
    print(f"\nserve batched: {qps:.0f} qps "
          f"(mean batch {stats['mean_batch']:.1f}, largest {stats['largest_batch']})")
    assert qps > 20.0  # sanity floor, not a perf target


BOOT_ROWS, BOOT_DIM, BOOT_LISTS = 100_000, 32, 316
BOOT_REPEATS = 3
INSERT_SIZES = (10_000, 100_000)
INSERTS = 200


def _serving_artifacts(root, n_rows, lists, rng):
    """A sealed store with insert headroom plus its saved index."""
    base = rng.normal(size=(n_rows, BOOT_DIM))
    store = EmbeddingStore.create(
        root / "emb.store", base.shape, "float64", capacity=n_rows + INSERTS
    )
    store[:] = base
    store.update_checksum()
    store.close()
    # Train on a seeded 64-rows-per-list sample (untimed set-up), fill
    # the lists with every row.
    sample = rng.choice(n_rows, min(n_rows, 64 * lists), replace=False)
    index = IVFIndex(n_clusters=lists, train_iterations=4)
    index.train(base[sample]).add(base)
    start = time.perf_counter()
    index.save(root / "ivf")
    save_seconds = time.perf_counter() - start
    return root / "emb.store", root / "ivf", save_seconds


def test_boot_and_insert(tmp_path_factory):
    rng = np.random.default_rng(20261018)
    store_path, index_path, save_seconds = _serving_artifacts(
        tmp_path_factory.mktemp("boot"), BOOT_ROWS, BOOT_LISTS, rng
    )
    boots = []
    for _ in range(BOOT_REPEATS):
        start = time.perf_counter()
        state = ServingState.load(store_path, index_path, nprobe=8)
        boots.append(time.perf_counter() - start)
        state.store.close()
    index_bytes = index_path.stat().st_size

    insert_seconds = {}
    for n_rows in INSERT_SIZES:
        lists = max(1, int(round(np.sqrt(n_rows))))
        store_path, index_path, _ = _serving_artifacts(
            tmp_path_factory.mktemp(f"insert-{n_rows}"), n_rows, lists, rng
        )
        state = ServingState.load(store_path, index_path, nprobe=8)
        samples = np.empty(INSERTS)
        for row, vector in enumerate(rng.normal(size=(INSERTS, BOOT_DIM))):
            start = time.perf_counter()
            state.insert(vector)
            samples[row] = time.perf_counter() - start
        state.store.close()
        insert_seconds[f"rows_{n_rows}"] = float(np.median(samples))

    load_seconds = float(np.median(boots))
    _merge_results("boot", {
        "n_rows": BOOT_ROWS, "dim": BOOT_DIM, "n_clusters": BOOT_LISTS,
        "repeats": BOOT_REPEATS, "inserts": INSERTS,
        "load_seconds": load_seconds,
        "save_seconds": save_seconds,
        "index_file_bytes": index_bytes,
        "insert_seconds": insert_seconds,
    })
    print(f"\nserve boot: load={load_seconds:.3f}s save={save_seconds:.3f}s "
          f"index={index_bytes / 2**20:.2f} MiB insert="
          + ", ".join(f"{key}:{value * 1e3:.2f}ms"
                      for key, value in insert_seconds.items()))
    # The file holds no vectors: far below the 25.6 MB of float64 rows.
    assert index_bytes < 2**20
    assert save_seconds < 0.5
