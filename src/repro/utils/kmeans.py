"""Deterministic mini k-means — the shared coarse quantizer.

Both sub-quadratic candidate-generation paths in this library partition
an embedding space with the same clustering primitive: embedding-space
blocking (:class:`repro.core.blocking.BlockedMatcher`) and the IVF
candidate index (:class:`repro.index.IVFIndex`).  Factoring it here
keeps the two paths bit-identical on the quantizer they share — an index
trained with ``n_clusters`` probes exactly the partition a blocked
matcher with ``num_blocks`` would have formed.

The fit is fully deterministic: k-means++-style greedy farthest-point
seeding from a fixed start, a fixed iteration count, and no randomness
anywhere.  Cost, for ``n`` points of dimension ``d`` and ``k`` clusters:

* seeding is ``k`` mat-vec passes over the data, O(n d k) flops but only
  O(n) extra memory — distances come from cached squared norms
  (``|x|^2 - 2 x.c + |c|^2``), never from an ``n x d`` difference;
* each round assigns points in fixed row chunks of
  :data:`ASSIGN_CHUNK_ELEMS` distance entries, so no ``n x k`` matrix
  is ever built, and updates all centroids in one grouped pass.

Peak working memory beyond the centered copy of the input is therefore
O(n + k d + ASSIGN_CHUNK_ELEMS), independent of ``n x k``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.utils.parallel import row_chunks, rows_per_chunk

#: Distance entries per assignment chunk (rows x k, float64): 2 MiB per
#: temporary, a fixed grid that depends on ``k`` only.
ASSIGN_CHUNK_ELEMS = 2**18


def kmeans_centroids(
    matrix: np.ndarray,
    k: int,
    iterations: int = 8,
    on_round: Callable[[int, int], None] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic mini k-means over centered embeddings.

    The data is centered first: embedding spaces often share a large
    common component (encoder oversmoothing) that carries no identity
    signal, and clustering the raw vectors would slice along it.
    Farthest-point seeding keeps the result deterministic and well
    spread.  Returns ``(centroids, center)``; the centroids live in the
    centered frame, so queries must be shifted by the same ``center``
    (see :func:`centroid_distances`).

    ``on_round(round_index, moved)`` is called after each assignment
    round with the 1-based round number and how many points changed
    cluster — a progress hook, so this module needs no dependency on the
    telemetry layer.  Passing it never changes the fit.
    """
    center = matrix.mean(axis=0)
    centered = matrix - center
    # Farthest-point seeding from a fixed start, on squared distances
    # (same argmax as the distances themselves): one mat-vec per seed,
    # into a reused buffer.
    sq_norms = np.einsum("ij,ij->i", centered, centered)
    buffer = np.empty_like(sq_norms)

    def squared_distances_to(seed: int) -> np.ndarray:
        """``|x|^2 - 2.0 * x.c + |c|^2`` for every row, into ``buffer``."""
        np.matmul(centered, centered[seed], out=buffer)
        np.multiply(buffer, 2.0, out=buffer)
        np.subtract(sq_norms, buffer, out=buffer)
        return np.add(buffer, sq_norms[seed], out=buffer)

    chosen = [0]
    distances = squared_distances_to(0).copy()
    for _ in range(1, k):
        next_idx = int(distances.argmax())
        chosen.append(next_idx)
        np.minimum(distances, squared_distances_to(next_idx), out=distances)
    centroids = centered[chosen].copy()

    previous = None
    for round_index in range(iterations):
        assignment = nearest_centroid(centered, centroids, np.zeros_like(center))
        _update_centroids(centered, assignment, centroids)
        if on_round is not None:
            moved = (
                len(assignment)
                if previous is None
                else int(np.count_nonzero(assignment != previous))
            )
            on_round(round_index + 1, moved)
            previous = assignment
    return centroids, center


def _update_centroids(
    centered: np.ndarray, assignment: np.ndarray, centroids: np.ndarray
) -> None:
    """Move each non-empty cluster's centroid to its members' mean, in place.

    One grouped pass per dimension: ``np.bincount`` accumulates each
    cluster's members in ascending row order, exactly the order
    ``centered[assignment == b].mean(axis=0)`` sums them, so the
    centroids are bitwise those of a per-cluster mean.  Empty clusters
    keep their previous centroid.
    """
    k = len(centroids)
    counts = np.bincount(assignment, minlength=k)
    filled = np.flatnonzero(counts)
    sums = np.stack(
        [np.bincount(assignment, weights=column, minlength=k) for column in centered.T],
        axis=1,
    )
    centroids[filled] = sums[filled] / counts[filled, None]


def centroid_distances(
    matrix: np.ndarray, centroids: np.ndarray, center: np.ndarray
) -> np.ndarray:
    """Squared distances to each centroid, as one ``(n, k)`` matrix.

    ``center`` is the mean the centroids were fitted under; query rows
    are shifted by the *same* mean so both sides live in one coordinate
    frame.  Allocates ``n x k``: callers that only need the nearest
    centroid use :func:`nearest_centroid`, which works in bounded chunks.
    """
    shape = (matrix.shape[0], centroids.shape[0])
    return _distances_into(
        matrix - center,
        centroids,
        np.sum(centroids**2, axis=1),
        np.empty(shape),
        np.empty(shape),
    )


def nearest_centroid(
    matrix: np.ndarray, centroids: np.ndarray, center: np.ndarray
) -> np.ndarray:
    """Nearest-centroid cluster id per row of ``matrix``.

    Equal to ``centroid_distances(matrix, centroids, center).argmin(1)``
    but computed in row chunks of about :data:`ASSIGN_CHUNK_ELEMS`
    distances through two reused buffers, so the working set is bounded
    regardless of ``n``.
    """
    assignment = np.empty(matrix.shape[0], dtype=np.int64)
    sq_centroids = np.sum(centroids**2, axis=1)
    chunk_rows = rows_per_chunk(len(centroids), ASSIGN_CHUNK_ELEMS)
    distances = np.empty((min(chunk_rows, matrix.shape[0]), len(centroids)))
    products = np.empty_like(distances)
    for rows in row_chunks(matrix.shape[0], chunk_rows):
        n_rows = rows.stop - rows.start
        assignment[rows] = _distances_into(
            matrix[rows] - center,
            centroids,
            sq_centroids,
            distances[:n_rows],
            products[:n_rows],
        ).argmin(axis=1)
    return assignment


def _distances_into(
    data: np.ndarray,
    centroids: np.ndarray,
    sq_centroids: np.ndarray,
    distances: np.ndarray,
    products: np.ndarray,
) -> np.ndarray:
    """``|x|^2 + |c|^2 - 2.0 * x.c`` written into ``distances``.

    The one distance formula both entry points share; ``products`` is
    scratch of the same shape.  Evaluated in place with the same
    roundings as the plain expression.
    """
    np.add(np.sum(data**2, axis=1)[:, None], sq_centroids, out=distances)
    np.matmul(data, centroids.T, out=products)
    products *= 2.0
    distances -= products
    return distances
