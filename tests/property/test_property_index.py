"""Property-based tests for the IVF index.

The load-bearing invariant: with every list probed, IVF is *exactly*
brute force — clustering only partitions the scan, the rescoring is
exact.  Hypothesis hunts for geometries (ties, duplicates, degenerate
clusters) where the partition could leak candidates.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.index import IVFIndex
from repro.obs.metrics import get_metrics
from repro.similarity.chunked import chunked_top_k
from repro.similarity.metrics import similarity_matrix


def index_problems(max_targets=24, max_queries=8, max_dim=5):
    """(queries, targets, n_clusters, k) with k <= n_targets."""
    shape = st.tuples(
        st.integers(2, max_targets),   # targets
        st.integers(1, max_queries),   # queries
        st.integers(1, max_dim),       # dim
    )

    def build(s):
        n_targets, n_queries, dim = s
        elements = st.floats(-5, 5, allow_nan=False, width=32)
        return st.tuples(
            arrays(np.float64, (n_queries, dim), elements=elements),
            arrays(np.float64, (n_targets, dim), elements=elements),
            st.integers(1, 6),           # requested clusters (clamped)
            st.integers(1, n_targets),   # k
        )

    return shape.flatmap(build)


class TestFullProbeExactness:
    @given(index_problems())
    @settings(max_examples=40, deadline=None)
    def test_nprobe_equals_clusters_is_brute_force(self, problem):
        queries, targets, n_clusters, k = problem
        index = IVFIndex(n_clusters=n_clusters).train(targets).add(targets)
        found = index.search(queries, k=k, nprobe=index.n_clusters)
        _, exact_scores = chunked_top_k(queries, targets, k)
        # With every list probed, no row comes up short and both scans
        # return their k best scores in descending order.  Compare the
        # *scores*, not the ids: equal-score ties may legitimately
        # resolve to different target ids between the two scans.
        assert found.k_max == k
        np.testing.assert_array_equal(found.row_counts, k)
        np.testing.assert_allclose(
            found.scores.reshape(len(queries), k), exact_scores, atol=1e-9
        )

    @given(index_problems())
    @settings(max_examples=40, deadline=None)
    def test_partial_probe_is_a_subset_of_brute_force_scores(self, problem):
        queries, targets, n_clusters, k = problem
        index = IVFIndex(n_clusters=n_clusters).train(targets).add(targets)
        found = index.search(queries, k=k, nprobe=1)
        # Every returned score is a true similarity against its target.
        dense = similarity_matrix(queries, targets)
        rows = found.row_of_entry()
        np.testing.assert_allclose(
            found.scores, dense[rows, found.indices], atol=1e-9
        )


def live_problems():
    """An index problem plus tombstone and exclude masks over the targets."""
    def build(problem):
        queries, targets, n_clusters, _ = problem
        n_targets = len(targets)
        return st.tuples(
            st.just(queries),
            st.just(targets),
            st.just(n_clusters),
            st.integers(1, n_targets + 3),  # k may exceed the live count
            st.lists(st.booleans(), min_size=n_targets, max_size=n_targets),
            st.lists(st.booleans(), min_size=n_targets, max_size=n_targets),
        )

    return index_problems().flatmap(build)


def _shortfall_of(search):
    registry = get_metrics()
    before = registry.counter("index.search.shortfall")
    found = search()
    return found, registry.counter("index.search.shortfall") - before


def _masked_index(targets, n_clusters, tombstoned, metric="cosine"):
    index = IVFIndex(n_clusters=n_clusters, metric=metric).train(targets).add(targets)
    for position in np.flatnonzero(tombstoned):
        index.tombstone(int(position))
    return index


class TestDefaultPathWithDeadPositions:
    """The pruned default scan against brute force and the stable scan,
    with tombstones, an exclude mask, and rows left short of ``k``."""

    @given(live_problems(), st.sampled_from(["cosine", "euclidean", "manhattan"]))
    @settings(max_examples=60, deadline=None)
    def test_full_probe_is_brute_force_over_live_targets(self, problem, metric):
        queries, targets, n_clusters, k, tombstoned, excluded = problem
        tombstoned, excluded = np.array(tombstoned), np.array(excluded)
        index = _masked_index(targets, n_clusters, tombstoned, metric)
        found, shortfall = _shortfall_of(lambda: index.search(
            queries, k=k, nprobe=index.n_clusters, exclude=excluded
        ))
        live = np.flatnonzero(~tombstoned & ~excluded)
        expected_count = min(k, len(live))
        # sqrt amplifies the expansion formula's cancellation near zero.
        atol = 1e-6 if metric == "euclidean" else 1e-9
        np.testing.assert_array_equal(found.row_counts, expected_count)
        assert shortfall == (len(queries) if len(live) < k else 0)
        if not len(live):
            return
        assert np.isin(found.indices, live).all()
        dense = similarity_matrix(queries, targets[live], metric)
        exact = -np.sort(-dense, axis=1)[:, :expected_count]
        np.testing.assert_allclose(
            found.scores.reshape(len(queries), expected_count), exact, atol=atol
        )
        # Each returned score is the true similarity of its pair.
        truth = similarity_matrix(queries, targets, metric)
        np.testing.assert_allclose(
            found.scores, truth[found.row_of_entry(), found.indices], atol=atol
        )

    @given(live_problems(), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_partial_probe_matches_the_stable_scan(self, problem, nprobe):
        queries, targets, n_clusters, k, tombstoned, excluded = problem
        tombstoned, excluded = np.array(tombstoned), np.array(excluded)
        index = _masked_index(targets, n_clusters, tombstoned)
        default, shortfall = _shortfall_of(
            lambda: index.search(queries, k=k, nprobe=nprobe, exclude=excluded)
        )
        stable, stable_shortfall = _shortfall_of(lambda: index.search(
            queries, k=k, nprobe=nprobe, exclude=excluded, stable=True
        ))
        # Same probe, same live members: same row lengths, same scores
        # (to roundoff), and a short row is exactly a shortfall.
        np.testing.assert_array_equal(default.row_counts, stable.row_counts)
        assert shortfall == stable_shortfall == int((default.row_counts < k).sum())
        np.testing.assert_allclose(default.scores, stable.scores, atol=1e-9)
        for row in range(len(queries)):
            ids, scores = default.row(row)
            assert not (tombstoned[ids] | excluded[ids]).any()
            assert list(scores) == sorted(scores, reverse=True)
