"""The shared k-means quantizer: same partition, bounded memory.

The seeding, grouped centroid update and chunked assignment are pinned
against a verbatim reference of the straightforward formulation
(norm-based farthest-point seeding, one boolean mask per cluster, one
``n x k`` distance matrix): every seeded input must produce the same
partition and the same centroids.
"""

import tracemalloc

import numpy as np
import pytest

from repro.utils.kmeans import (
    ASSIGN_CHUNK_ELEMS,
    centroid_distances,
    kmeans_centroids,
    nearest_centroid,
)
from repro.utils.parallel import rows_per_chunk


def reference_kmeans(matrix, k, iterations=8):
    """The O(n d k)-memory formulation the chunked fit must reproduce."""
    center = matrix.mean(axis=0)
    centered = matrix - center
    chosen = [0]
    distances = np.linalg.norm(centered - centered[0], axis=1)
    for _ in range(1, k):
        next_idx = int(distances.argmax())
        chosen.append(next_idx)
        distances = np.minimum(
            distances, np.linalg.norm(centered - centered[next_idx], axis=1)
        )
    centroids = centered[chosen].copy()
    for _ in range(iterations):
        assignment = centroid_distances(
            centered, centroids, np.zeros_like(center)
        ).argmin(axis=1)
        for b in range(k):
            members = centered[assignment == b]
            if len(members):
                centroids[b] = members.mean(axis=0)
    return centroids, center


def blocking_target():
    """The target side of ``tests/core/test_blocking.py``'s fixture."""
    rng = np.random.default_rng(123)
    n, d = 80, 16
    latent = rng.normal(size=(n, d))
    latent[:, 0] += np.linspace(-4, 4, n)
    rng.normal(size=latent.shape)  # the fixture's source-side noise
    return latent + 0.05 * rng.normal(size=latent.shape)


def drift_matrix():
    """A drift-sized (2k x 32) embedding matrix with cluster structure."""
    rng = np.random.default_rng(7)
    anchors = rng.normal(size=(40, 32)) * 3.0
    return anchors[rng.integers(0, 40, 2000)] + rng.normal(size=(2000, 32))


class TestSamePartitionAsReference:
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_blocking_inputs(self, k):
        self._assert_same(blocking_target(), k, iterations=8)

    @pytest.mark.parametrize("k", [16, 45])
    def test_drift_sized_matrix(self, k):
        self._assert_same(drift_matrix(), k, iterations=4)

    @staticmethod
    def _assert_same(matrix, k, iterations):
        expected, expected_center = reference_kmeans(matrix, k, iterations)
        centroids, center = kmeans_centroids(matrix, k, iterations=iterations)
        np.testing.assert_array_equal(center, expected_center)
        np.testing.assert_array_equal(centroids, expected)
        np.testing.assert_array_equal(
            nearest_centroid(matrix, centroids, center),
            centroid_distances(matrix, expected, expected_center).argmin(axis=1),
        )


class TestChunkedAssignment:
    def test_equals_full_argmin_across_ragged_chunks(self):
        rng = np.random.default_rng(3)
        k = 64
        chunk = rows_per_chunk(k, ASSIGN_CHUNK_ELEMS)
        n = 3 * chunk + chunk // 2 + 1  # several chunks, ragged last one
        matrix = rng.normal(size=(n, 16))
        centroids = rng.normal(size=(k, 16))
        center = rng.normal(size=16)
        np.testing.assert_array_equal(
            nearest_centroid(matrix, centroids, center),
            centroid_distances(matrix, centroids, center).argmin(axis=1),
        )

    def test_peak_memory_is_far_below_n_by_k(self):
        n, k = 50_000, 256
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(n, 32))
        centroids = rng.normal(size=(k, 32))
        center = matrix.mean(axis=0)
        tracemalloc.start()
        try:
            nearest_centroid(matrix, centroids, center)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * k * 8 / 4
