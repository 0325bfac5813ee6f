"""The version-2 index file: no vectors, store binding, v1 migration."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.errors import DataIntegrityError
from repro.index import IVFIndex, LegacyIndexError
from repro.index.ivf import rows_digest
from repro.serve.state import ServingState
from repro.storage import EmbeddingStore
from repro.storage.durable import payload_checksum


@pytest.fixture
def vectors():
    return np.random.default_rng(31).normal(size=(60, 5))


def write_store(path, rows, dtype="float64", capacity=None):
    store = EmbeddingStore.create(path, rows.shape, dtype, capacity=capacity)
    store[:] = rows
    store.update_checksum()
    store.close()
    return path


def write_v1(index: IVFIndex, path) -> None:
    """A version-1 document, byte-for-byte as the JSON writer produced it."""
    document = {
        "format": "repro-ivf",
        "version": 1,
        "metric": index.metric,
        "n_clusters": index.n_clusters,
        "train_iterations": index.train_iterations,
        "center": index._center.tolist(),
        "centroids": index._centroids.tolist(),
        "vectors": index.reconstruct(np.arange(index.ntotal)).tolist(),
        "assignments": index._assignments.tolist(),
    }
    if index.n_tombstoned:
        document["tombstones"] = np.flatnonzero(~index.alive_mask).tolist()
    body = json.dumps(document, sort_keys=True).encode("utf-8")
    document["checksum"] = payload_checksum(body)
    path.write_text(json.dumps(document) + "\n", encoding="utf-8")


class TestLayout:
    def test_file_holds_no_vector_bytes(self, vectors, tmp_path):
        index = IVFIndex(n_clusters=4).train(vectors).add(vectors)
        index.tombstone(7)
        path = index.save(tmp_path / "ivf")
        raw = path.read_bytes()
        for row in vectors:
            assert row.tobytes() not in raw
        # Arrays: center + centroids (float64), assignments + tombstones
        # (int64); the rest is the prefix, the header and the trailer.
        arrays = 8 * (5 + 4 * 5 + 60 + 1)
        header = int.from_bytes(raw[8:16], "little")
        assert len(raw) == 16 + header + arrays + 32
        assert header % 8 == 0

    def test_records_the_row_digest(self, vectors, tmp_path):
        index = IVFIndex(n_clusters=3).train(vectors).add(vectors)
        path = index.save(tmp_path / "ivf")
        header = int.from_bytes(path.read_bytes()[8:16], "little")
        document = json.loads(path.read_bytes()[16 : 16 + header])
        assert document["version"] == 2
        assert document["rows"]["digest"] == rows_digest(vectors)

    def test_digest_is_chunk_independent(self, vectors, monkeypatch):
        whole = rows_digest(vectors)
        monkeypatch.setattr("repro.index.ivf._DIGEST_CHUNK_ROWS", 7)
        assert rows_digest(vectors) == whole
        assert rows_digest(vectors.astype(np.float32)) == rows_digest(
            vectors.astype(np.float32).astype(np.float64)
        )

    def test_loaded_index_needs_rows_to_search(self, vectors, tmp_path):
        path = IVFIndex(n_clusters=3).train(vectors).add(vectors).save(tmp_path / "i")
        loaded = IVFIndex.load(path)
        assert loaded.stats()["ntotal"] == 60
        with pytest.raises(RuntimeError, match="bind"):
            loaded.search(vectors[:2], k=3)

    def test_resave_of_a_loaded_index_is_identical(self, vectors, tmp_path):
        path = IVFIndex(n_clusters=3).train(vectors).add(vectors).save(tmp_path / "a")
        again = IVFIndex.load(path).save(tmp_path / "b")
        assert again.read_bytes() == path.read_bytes()


class TestBinding:
    def test_bound_search_equals_in_memory_search(self, vectors, tmp_path):
        index = IVFIndex(n_clusters=4).train(vectors).add(vectors)
        store = EmbeddingStore.open(write_store(tmp_path / "s", vectors))
        bound = IVFIndex.load(index.save(tmp_path / "ivf")).bind(store)
        queries = np.random.default_rng(2).normal(size=(7, 5))
        for stable in (False, True):
            want = index.search(queries, k=6, nprobe=4, stable=stable)
            got = bound.search(queries, k=6, nprobe=4, stable=stable)
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_array_equal(got.scores, want.scores)

    def test_foreign_store_is_refused_naming_both_paths(self, vectors, tmp_path):
        index_path = IVFIndex(n_clusters=3).train(vectors).add(vectors).save(
            tmp_path / "ivf"
        )
        other = vectors.copy()
        other[17, 2] += 1e-12
        store_path = write_store(tmp_path / "other.store", other, capacity=80)
        with pytest.raises(DataIntegrityError) as caught:
            ServingState.load(store_path, index_path)
        assert str(store_path) in str(caught.value)
        assert str(index_path) in str(caught.value)

    def test_store_with_fewer_rows_is_refused(self, vectors, tmp_path):
        index_path = IVFIndex(n_clusters=3).train(vectors).add(vectors).save(
            tmp_path / "ivf"
        )
        store_path = write_store(tmp_path / "short.store", vectors[:50])
        with pytest.raises(ValueError, match="holds only 50 rows"):
            ServingState.load(store_path, index_path)

    def test_append_requires_the_row_in_the_store(self, vectors, tmp_path):
        store = EmbeddingStore.open(
            write_store(tmp_path / "s", vectors, capacity=64), mode="r+"
        )
        index = IVFIndex(n_clusters=3).train(vectors).add(vectors).bind(store)
        fresh = np.full(5, 0.25)
        with pytest.raises(ValueError, match="holds no row 60"):
            index.append_to_list(fresh)
        store.append_row(fresh)
        with pytest.raises(ValueError, match="does not match row 60"):
            index.append_to_list(fresh + 1.0)
        assert index.append_to_list(fresh) == 60
        np.testing.assert_array_equal(index.reconstruct([60])[0], fresh)

    def test_bound_append_assigns_the_row_as_stored(self, tmp_path):
        # A vector a hair off the midpoint of two centroids: float64 puts
        # it in one list, its float32 rounding (the midpoint) in the
        # other.  A restart reads the float32 row back, so the live
        # insert must assign that row too.
        from repro.utils.kmeans import nearest_centroid

        rows = np.array([[0.0, 0.0], [0.0, 0.25], [2.0, 0.0], [2.0, 0.25]])
        store = EmbeddingStore.open(
            write_store(tmp_path / "s", rows, dtype="float32", capacity=8), mode="r+"
        )
        index = IVFIndex(n_clusters=2).train(rows).add(rows).bind(store)
        centroids, center = index._centroids, index._center
        mid = (centroids + center).mean(axis=0)
        tie = int(nearest_centroid(mid[None, :], centroids, center)[0])
        vector = mid + 1e-8 * (centroids[1 - tie] - centroids[tie])
        assert np.array_equal(vector.astype(np.float32).astype(np.float64), mid)
        assert nearest_centroid(vector[None, :], centroids, center)[0] == 1 - tie
        store.append_row(vector.astype(np.float32))
        position = index.append_to_list(vector)
        assert index._assignments[position] == tie
        assert position in index._lists[tie]

    def test_bound_append_pins_a_prefix_and_copies_no_vectors(
        self, vectors, tmp_path
    ):
        store = EmbeddingStore.open(
            write_store(tmp_path / "s", vectors, capacity=64), mode="r+"
        )
        index = IVFIndex(n_clusters=3).train(vectors).add(vectors).bind(store)
        before = index.clone()
        store.append_row(np.ones(5))
        index.append_to_list(np.ones(5))
        assert np.shares_memory(index._rows, before._rows)
        assert before._rows.shape == (60, 5) and index._rows.shape == (61, 5)


class TestRecluster:
    def test_positions_survive_and_dead_rows_leave_the_lists(self, vectors):
        index = IVFIndex(n_clusters=4).train(vectors).add(vectors)
        for position in (0, 9, 33):
            index.tombstone(position)
        fresh = index.recluster()
        assert fresh.ntotal == 60 and fresh.n_alive == 57
        assert fresh.n_tombstoned == 0
        listed = np.sort(np.concatenate(fresh._lists))
        np.testing.assert_array_equal(listed, np.flatnonzero(index.alive_mask))
        assert index.n_tombstoned == 3  # the original is untouched
        # Same answers as a cold build over the survivors, in positions.
        survivors = np.flatnonzero(index.alive_mask)
        cold = IVFIndex(n_clusters=4).train(vectors[survivors]).add(vectors[survivors])
        queries = np.random.default_rng(4).normal(size=(5, 5))
        got = fresh.search(queries, k=8, nprobe=4, stable=True)
        want = cold.search(queries, k=8, nprobe=4, stable=True)
        np.testing.assert_array_equal(got.indices, survivors[want.indices])
        np.testing.assert_array_equal(got.scores, want.scores)

    def test_reclustered_index_round_trips(self, vectors, tmp_path):
        index = IVFIndex(n_clusters=4).train(vectors).add(vectors)
        index.tombstone(5)
        fresh = index.recluster()
        store = EmbeddingStore.open(write_store(tmp_path / "s", vectors))
        loaded = IVFIndex.load(fresh.save(tmp_path / "ivf")).bind(store)
        assert loaded.n_tombstoned == 0 and loaded.n_alive == 59
        queries = np.random.default_rng(5).normal(size=(3, 5))
        np.testing.assert_array_equal(
            loaded.search(queries, k=5, nprobe=4, stable=True).indices,
            fresh.search(queries, k=5, nprobe=4, stable=True).indices,
        )


class TestLegacyDocuments:
    def test_v1_document_is_refused_naming_migrate(self, vectors, tmp_path):
        index = IVFIndex(n_clusters=3).train(vectors).add(vectors)
        write_v1(index, tmp_path / "old.ivf.json")
        with pytest.raises(LegacyIndexError, match="repro index migrate"):
            IVFIndex.load(tmp_path / "old.ivf.json")

    def test_cli_stats_on_v1_names_migrate(self, vectors, tmp_path, capsys):
        index = IVFIndex(n_clusters=3).train(vectors).add(vectors)
        write_v1(index, tmp_path / "old.ivf.json")
        assert main(["index", "stats", str(tmp_path / "old.ivf.json")]) == 1
        assert "repro index migrate" in capsys.readouterr().err

    def test_migrate_round_trips_to_identical_answers(self, vectors, tmp_path, capsys):
        index = IVFIndex(n_clusters=4).train(vectors).add(vectors)
        index.tombstone(11)
        old, new = tmp_path / "old.ivf.json", tmp_path / "new.ivf"
        write_v1(index, old)
        assert main(["index", "migrate", str(old), str(new)]) == 0
        assert "version 2" in capsys.readouterr().out
        store = EmbeddingStore.open(write_store(tmp_path / "s", vectors))
        migrated = IVFIndex.load(new).bind(store)
        assert migrated.n_tombstoned == 1
        queries = np.random.default_rng(9).normal(size=(6, 5))
        for nprobe in (1, 4):
            for stable in (False, True):
                want = index.search(queries, k=7, nprobe=nprobe, stable=stable)
                got = migrated.search(queries, k=7, nprobe=nprobe, stable=stable)
                np.testing.assert_array_equal(got.indptr, want.indptr)
                np.testing.assert_array_equal(got.indices, want.indices)
                np.testing.assert_array_equal(got.scores, want.scores)

    def test_migrate_refuses_corrupt_and_v2_inputs(self, vectors, tmp_path, capsys):
        index = IVFIndex(n_clusters=3).train(vectors).add(vectors)
        v2 = index.save(tmp_path / "already.ivf")
        assert main(["index", "migrate", str(v2), str(tmp_path / "x")]) == 1
        old = tmp_path / "old.ivf.json"
        write_v1(index, old)
        text = old.read_text()
        old.write_text(text.replace('"n_clusters": 3', '"n_clusters": 2'))
        assert main(["index", "migrate", str(old), str(tmp_path / "y")]) == 1
        assert "checksum mismatch" in capsys.readouterr().err
        assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()
