"""Unit tests for ServingState: snapshots, compaction policy, recovery."""

import numpy as np
import pytest

from repro.index import IVFIndex
from repro.serve.state import ServingState
from repro.storage import EmbeddingStore

pytestmark = pytest.mark.serve

DIM = 4


def make_state(tmp_path, n_base=20, capacity=64, seed=7, **kwargs):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n_base, DIM)).astype(np.float64)
    store_path = tmp_path / "emb.store"
    store = EmbeddingStore.create(store_path, base.shape, "float64",
                                  capacity=capacity)
    store[:] = base
    store.update_checksum()
    store.close()
    index = IVFIndex(n_clusters=3).train(base).add(base)
    index.save(tmp_path / "ivf.json")
    return ServingState.load(store_path, tmp_path / "ivf.json", **kwargs), base


class TestLifecycle:
    def test_mismatched_artifacts_are_rejected(self, tmp_path):
        state, base = make_state(tmp_path)
        small = IVFIndex(n_clusters=2).train(base[:5]).add(base[:5])
        with pytest.raises(ValueError, match="rebuild the index"):
            ServingState(state.store, small)

    def test_insert_assigns_sequential_ids_and_bumps_version(self, tmp_path):
        state, _ = make_state(tmp_path)
        rng = np.random.default_rng(1)
        first = state.insert(rng.normal(size=DIM))
        second = state.insert(rng.normal(size=DIM))
        assert (first, second) == (20, 21)
        assert state.snapshot.version == 2
        assert state.store.n_rows == 22  # durable before visible

    def test_delete_returns_false_for_unknown_ids(self, tmp_path):
        state, _ = make_state(tmp_path)
        assert state.delete(999) is False
        assert state.delete(3) is True
        assert state.delete(3) is False  # already gone

    def test_deleted_entities_disappear_from_queries(self, tmp_path):
        state, base = make_state(tmp_path)
        result = state.query(base[5], k=1)[0]
        assert result.entity_ids[0] == 5  # self-match at cosine 1.0
        state.delete(5)
        result = state.query(base[5], k=20)[0]
        assert 5 not in result.entity_ids

    def test_insert_with_live_id_replaces(self, tmp_path):
        state, base = make_state(tmp_path)
        replacement = -base[2]
        state.insert(replacement, entity_id=2)
        vector = state.get_vector(2)
        np.testing.assert_array_equal(vector, replacement)
        result = state.query(replacement, k=1)[0]
        assert result.entity_ids[0] == 2
        assert len(state.live_entity_ids()) == 20  # replaced, not added

    def test_store_capacity_exhaustion_surfaces(self, tmp_path):
        state, _ = make_state(tmp_path, n_base=4, capacity=5)
        state.insert(np.ones(DIM))
        with pytest.raises(ValueError, match="full"):
            state.insert(np.ones(DIM))


class TestSnapshots:
    def test_queries_pin_one_version(self, tmp_path):
        state, base = make_state(tmp_path)
        snap_before = state.snapshot
        state.insert(np.ones(DIM))
        snap_after = state.snapshot
        assert snap_before.version == 0 and snap_after.version == 1
        # The old snapshot still answers consistently: its index never
        # saw the insert.
        assert snap_before.index.ntotal == 20
        assert snap_after.index.ntotal == 21

    def test_delta_is_visible_at_nprobe_one(self, tmp_path):
        state, _ = make_state(tmp_path, nprobe=1)
        inserted = np.full(DIM, 25.0)
        eid = state.insert(inserted)
        result = state.query(inserted, k=1)[0]
        assert result.entity_ids[0] == eid


class TestCompaction:
    def test_deep_delta_triggers_migration(self, tmp_path):
        state, _ = make_state(tmp_path, max_delta=3)
        rng = np.random.default_rng(3)
        for _ in range(3):
            state.insert(rng.normal(size=DIM))
        stats = state.stats()
        assert stats["delta_depth"] == 0  # absorbed at the threshold
        assert stats["compactions"] == 0  # no retrain

    def test_skew_triggers_recluster(self, tmp_path):
        # All inserts land in one corner of the space: one list balloons
        # past skew_factor x mean and forces a retrain.
        state, _ = make_state(tmp_path, max_delta=10**6, skew_factor=2.0)
        rng = np.random.default_rng(4)
        for _ in range(40):
            state.insert(np.full(DIM, 50.0) + rng.normal(size=DIM))
        assert state.snapshot.compactions >= 1
        assert state.snapshot.index.n_tombstoned == 0

    def test_recluster_drops_tombstones(self, tmp_path):
        state, _ = make_state(tmp_path)
        for entity in range(5):
            state.delete(entity)
        assert state.snapshot.index.n_tombstoned == 5
        assert state.compact(recluster=True) is True
        assert state.snapshot.index.n_tombstoned == 0
        # Positions are store rows and are never renumbered: the dead
        # rows leave every list but still count towards ntotal.
        assert state.snapshot.index.n_alive == 15
        assert state.snapshot.index.ntotal == 20
        assert state.compact() is False  # nothing left to do

    def test_compact_preserves_results(self, tmp_path):
        state, base = make_state(tmp_path)
        rng = np.random.default_rng(5)
        for _ in range(4):
            state.insert(rng.normal(size=DIM))
        state.delete(1)
        queries = rng.normal(size=(3, DIM))
        before = state.query(queries, k=6)
        state.compact()
        after = state.query(queries, k=6)
        for old, new in zip(before, after):
            np.testing.assert_array_equal(old.entity_ids, new.entity_ids)
            np.testing.assert_array_equal(old.scores, new.scores)


class TestRecovery:
    def test_load_replays_durable_tail_rows(self, tmp_path):
        state, _ = make_state(tmp_path)
        rng = np.random.default_rng(6)
        inserted = rng.normal(size=(3, DIM))
        ids = [state.insert(vector) for vector in inserted]
        queries = rng.normal(size=(2, DIM))
        before = state.query(queries, k=5)
        state.store.close()

        # A fresh process: same artifacts, index never re-saved.
        recovered = ServingState.load(tmp_path / "emb.store", tmp_path / "ivf.json")
        assert sorted(recovered.live_entity_ids()) == sorted(state.live_entity_ids())
        for eid, vector in zip(ids, inserted):
            np.testing.assert_array_equal(recovered.get_vector(eid), vector)
        after = recovered.query(queries, k=5)
        for old, new in zip(before, after):
            np.testing.assert_array_equal(old.entity_ids, new.entity_ids)
            np.testing.assert_array_equal(old.scores, new.scores)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_replay_repeats_compactions_and_scores_bitwise(self, tmp_path, dtype):
        # Skewed inserts force re-clusters, a small max_delta forces
        # migrations; the restart must replay the same decisions and,
        # on a float32 store too, score the same stored bytes.
        rng = np.random.default_rng(8)
        base = rng.normal(size=(20, DIM)).astype(dtype)
        store = EmbeddingStore.create(tmp_path / "emb.store", base.shape, dtype,
                                      capacity=96)
        store[:] = base
        store.update_checksum()
        store.close()
        rows = base.astype(np.float64)
        IVFIndex(n_clusters=3).train(rows).add(rows).save(tmp_path / "ivf")
        knobs = dict(max_delta=4, skew_factor=2.0)
        state = ServingState.load(tmp_path / "emb.store", tmp_path / "ivf", **knobs)
        for _ in range(40):
            state.insert(np.full(DIM, 50.0) + rng.normal(size=DIM) / 3)
        assert state.snapshot.compactions >= 1
        queries = rng.normal(size=(4, DIM)) * 20
        before = state.query(queries, k=12)
        uninterrupted = state.snapshot
        state.store.close()  # the "kill": nothing is saved

        recovered = ServingState.load(
            tmp_path / "emb.store", tmp_path / "ivf", **knobs
        )
        replayed = recovered.snapshot
        assert replayed.compactions == uninterrupted.compactions
        assert replayed.version == uninterrupted.version
        np.testing.assert_array_equal(
            replayed.delta_positions, uninterrupted.delta_positions
        )
        np.testing.assert_array_equal(
            replayed.index.live_list_sizes(), uninterrupted.index.live_list_sizes()
        )
        for nprobe in (1, recovered.nprobe):
            for old, new in zip(
                state.query(queries, k=12, nprobe=nprobe),
                recovered.query(queries, k=12, nprobe=nprobe),
            ):
                np.testing.assert_array_equal(old.entity_ids, new.entity_ids)
                np.testing.assert_array_equal(old.scores, new.scores)
        assert [r.scores.tobytes() for r in before] == [
            r.scores.tobytes() for r in recovered.query(queries, k=12)
        ]

    def test_store_shorter_than_index_is_rejected(self, tmp_path):
        state, base = make_state(tmp_path)
        state.store.close()
        bigger = IVFIndex(n_clusters=2)
        grown = np.concatenate([base, np.ones((1, DIM))])
        bigger.train(grown).add(grown)
        bigger.save(tmp_path / "big.ivf.json")
        with pytest.raises(ValueError, match="holds only"):
            ServingState.load(tmp_path / "emb.store", tmp_path / "big.ivf.json")


class TestStats:
    def test_stats_shape(self, tmp_path):
        state, _ = make_state(tmp_path)
        state.insert(np.ones(DIM))
        stats = state.stats()
        assert stats["delta_depth"] == 1
        assert stats["version"] == 1
        assert stats["live_entities"] == 21
        assert stats["store_rows"] == 21
        assert stats["store_capacity"] == 64
