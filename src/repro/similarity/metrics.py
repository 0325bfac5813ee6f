"""Similarity metrics over entity embedding matrices.

All metrics return an ``(n_source, n_target)`` matrix where larger values
mean "more likely equivalent", matching the paper's convention.  Distances
are negated so downstream code never has to branch on metric direction.

Each metric is factored into a *prepared kernel* (:func:`prepare_metric`):
a one-time preparation over the full inputs (row normalisation, squared
norms) plus a function that computes any block of ``S``: a source-row
selection (a slice or an index array) against all targets, or against a
contiguous target-column slice.  The public
functions compute the single full-matrix block; the chunked helpers and
the :class:`~repro.similarity.engine.SimilarityEngine` schedule many
blocks, serially or across threads.  Preparation is row-independent, so
a block's values do not depend on how the rows were chunked — except for
the BLAS matmul inside the cosine/euclidean kernels, whose summation
order may vary with the block height (documented on the engine).

Kernels preserve the floating dtype of their inputs: the public API
validates to float64 (exactly the historical behaviour), while the
engine may feed float32 views to halve memory bandwidth.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.utils.parallel import DEFAULT_CHUNK_ELEMS, rows_per_chunk
from repro.utils.validation import check_embedding_matrix, check_shape_compatible

_EPS = 1e-12

#: A prepared kernel: maps a source-row selection, and optionally a
#: target-column slice (default: every target), to that block of ``S``.
BlockKernel = Callable[..., np.ndarray]

_ALL = slice(None)


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm; zero rows are left at zero."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norms, _EPS)


def _prepare_cosine(source: np.ndarray, target: np.ndarray) -> BlockKernel:
    normalized_source = _normalize_rows(source)
    normalized_target_t = _normalize_rows(target).T

    def block(rows, cols: slice = _ALL) -> np.ndarray:
        return normalized_source[rows] @ normalized_target_t[:, cols]

    return block


def _prepare_euclidean(source: np.ndarray, target: np.ndarray) -> BlockKernel:
    # ||u - v||^2 = ||u||^2 + ||v||^2 - 2 u.v, computed without the n^2 x d
    # intermediate that a broadcasted subtraction would need.
    sq_source = np.sum(source**2, axis=1)
    sq_target = np.sum(target**2, axis=1)

    def block(rows, cols: slice = _ALL) -> np.ndarray:
        squared = sq_source[rows, None] + sq_target[None, cols]
        squared -= 2.0 * (source[rows] @ target[cols].T)
        np.maximum(squared, 0.0, out=squared)
        np.sqrt(squared, out=squared)
        np.negative(squared, out=squared)
        return squared

    return block


def _prepare_manhattan(
    source: np.ndarray, target: np.ndarray, chunk_elems: int
) -> BlockKernel:
    def block(rows, cols: slice = _ALL) -> np.ndarray:
        sub, columns = source[rows], target[cols]
        n_target, dim = columns.shape
        # L1 has no matmul shortcut; bound the (rows x n_target x dim)
        # broadcast intermediate to ~chunk_elems elements per inner step.
        inner_rows = rows_per_chunk(n_target * dim, chunk_elems)
        result = np.empty((sub.shape[0], n_target), dtype=sub.dtype)
        for start in range(0, sub.shape[0], inner_rows):
            stop = min(start + inner_rows, sub.shape[0])
            diffs = np.abs(sub[start:stop, None, :] - columns[None, :, :])
            result[start:stop] = -diffs.sum(axis=2)
        return result

    return block


def prepare_metric(
    metric: str,
    source: np.ndarray,
    target: np.ndarray,
    chunk_elems: int = DEFAULT_CHUNK_ELEMS,
) -> BlockKernel:
    """One-time preparation of ``metric`` over validated inputs.

    Returns a kernel computing any block of ``S`` (``kernel(rows)`` or
    ``kernel(rows, cols)`` with ``cols`` a target-column slice).  Inputs
    must already be validated and dtype-cast by the caller — this is the
    engine-facing seam below the public API.  ``chunk_elems`` bounds the
    broadcast intermediate of metrics without a matmul form (Manhattan).
    """
    if metric == "cosine":
        return _prepare_cosine(source, target)
    if metric == "euclidean":
        return _prepare_euclidean(source, target)
    if metric == "manhattan":
        return _prepare_manhattan(source, target, chunk_elems)
    known = ", ".join(sorted(SIMILARITY_METRICS))
    raise ValueError(f"unknown similarity metric {metric!r}; known metrics: {known}")


def _full(metric: str, source: np.ndarray, target: np.ndarray, **kwargs) -> np.ndarray:
    source = check_embedding_matrix(source, "source")
    target = check_embedding_matrix(target, "target")
    check_shape_compatible(source, target)
    kernel = prepare_metric(metric, source, target, **kwargs)
    return kernel(slice(0, source.shape[0]))


def cosine_similarity(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Cosine similarity matrix between two embedding matrices.

    The paper's default metric (Section 4.2).  Zero vectors are treated as
    having zero similarity to everything rather than raising.
    """
    return _full("cosine", source, target)


def euclidean_similarity(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Negated Euclidean distance matrix (higher means closer)."""
    return _full("euclidean", source, target)


def manhattan_similarity(
    source: np.ndarray,
    target: np.ndarray,
    chunk_elems: int = DEFAULT_CHUNK_ELEMS,
) -> np.ndarray:
    """Negated Manhattan (L1) distance matrix (higher means closer).

    ``chunk_elems`` bounds the broadcasted ``rows x n_target x dim``
    difference tensor to roughly that many elements (the same budget the
    similarity engine uses for its chunk-size policy), trading peak
    memory against per-chunk overhead.
    """
    return _full("manhattan", source, target, chunk_elems=chunk_elems)


def rowwise_scores(
    metric: str, query: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Scores of one ``query`` vector against ``targets`` rows, *pair-stable*.

    Every output value is a pure function of ``(query, targets[j])``
    alone: the kernels use elementwise multiply/subtract plus a per-row
    reduction, never a BLAS matmul — so the score of a pair does not
    change with how many other queries were batched alongside or which
    other targets happen to share the call.  This is the determinism
    foundation of the serving layer (DESIGN.md §12): batched requests,
    single requests, inverted-list scans, and a from-scratch index
    rebuild all produce bitwise-identical scores for the same pair.

    The BLAS kernels in :func:`prepare_metric` do *not* have this
    property (summation order varies with the block shape), which is why
    the serving path cannot reuse them for its equality contracts.
    ``query`` is a 1-D vector; ``targets`` is ``(n, dim)``.  Matches the
    sign convention of the full-matrix metrics (larger = closer).
    """
    query = np.asarray(query, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if query.ndim != 1:
        raise ValueError(f"query must be 1-D, got shape {query.shape}")
    if targets.ndim != 2 or targets.shape[1] != query.shape[0]:
        raise ValueError(
            f"targets must be (n, {query.shape[0]}), got shape {targets.shape}"
        )
    if metric == "cosine":
        q = query / max(float(np.linalg.norm(query)), _EPS)
        norms = np.maximum(np.linalg.norm(targets, axis=1, keepdims=True), _EPS)
        return ((targets / norms) * q).sum(axis=1)
    if metric == "euclidean":
        squared = ((targets - query) ** 2).sum(axis=1)
        return -np.sqrt(np.maximum(squared, 0.0))
    if metric == "manhattan":
        return -np.abs(targets - query).sum(axis=1)
    known = ", ".join(sorted(SIMILARITY_METRICS))
    raise ValueError(f"unknown similarity metric {metric!r}; known metrics: {known}")


#: Registry used by :func:`similarity_matrix` and the experiment configs.
SIMILARITY_METRICS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "cosine": cosine_similarity,
    "euclidean": euclidean_similarity,
    "manhattan": manhattan_similarity,
}


def similarity_matrix(
    source: np.ndarray, target: np.ndarray, metric: str = "cosine"
) -> np.ndarray:
    """Pairwise score matrix ``S`` under the named ``metric``.

    This is the "Derive similarity matrix S based on E" step shared by
    every algorithm description in the paper (Algorithms 3-6).
    """
    try:
        func = SIMILARITY_METRICS[metric]
    except KeyError:
        known = ", ".join(sorted(SIMILARITY_METRICS))
        raise ValueError(f"unknown similarity metric {metric!r}; known metrics: {known}")
    return func(source, target)
