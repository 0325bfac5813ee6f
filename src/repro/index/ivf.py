"""IVF-style approximate-nearest-neighbour candidate index (numpy-only).

The scalable candidate-generation design both benchmarking surveys rely
on: a coarse quantizer (the deterministic mini k-means shared with
embedding-space blocking, :mod:`repro.utils.kmeans`) partitions the
target vectors into inverted lists; a query scores only the vectors in
its ``nprobe`` nearest lists, with the *true* similarity metric — so the
approximation is entirely in which candidates are scanned, never in how
a scanned candidate is scored ("exact rescoring").  ``nprobe ==
n_clusters`` scans everything and recovers exact brute-force top-k, the
property the recall test suite pins.

Work per query is O(n_clusters d + scanned d); with balanced lists and
``nprobe`` fixed, the scanned set is ``~ nprobe / n_clusters`` of the
targets — the knob that trades recall for speed.  Training is the
chunked k-means of :mod:`repro.utils.kmeans` (O(n d k) flops, no
``n x k`` matrix); :meth:`IVFIndex.add` assigns in the same bounded
chunks.  A default (non-stable) search of ``q`` queries holds one
prepared copy of the probed lists' live vectors, the ``q x n_clusters``
centroid distances, one score block per (list, querying rows) pair at
a time, and at most ``~1.5 q k`` pairs that survive threshold pruning
(plus one block's survivors) — never the ``q x scanned`` pairs it
scores.

Where the vectors live.  :meth:`IVFIndex.add` keeps a reference to the
matrix it was given (no copy for a float64 array); :meth:`IVFIndex.bind`
instead points the index at an
:class:`~repro.storage.memmap.EmbeddingStore`, whose first ``ntotal``
rows it then reads straight from the memmap — the serving daemon's one
copy of every vector.  Gathered rows are upcast to float64 before
scoring, so a float64 store scores bitwise like the in-memory array and
a float32 store scores its own durable bytes.

Persistence (:meth:`IVFIndex.save` / :meth:`IVFIndex.load`) is a
vector-free checksummed binary file, format version 2::

    [ 8 B magic b"REPROIVF" ][ 8 B little-endian header length H ]
    [ H B canonical JSON header, space-padded to 8-byte alignment ]
    [ center f8[dim] ][ centroids f8[n_clusters, dim] ]
    [ assignments i8[ntotal] ][ tombstones i8[n_tombstones] ]
    [ 32 B hex blake2b-128 of every byte before it ]

The header records the configuration, the array lengths, and the
*provenance* of the indexed rows: a blake2b digest of rows
``0..ntotal`` as C-ordered float64.  :meth:`IVFIndex.bind` recomputes
that digest over the store's rows and refuses a store the index was not
built from.  Loading is one read, one checksum over the raw bytes, and
``np.frombuffer`` — no vector is parsed, because none is stored.  The
version-1 JSON document (which embedded every vector as text) is read
only by ``repro index migrate`` (:mod:`repro.index.migrate`).

The index is observable (``index.*`` spans and counters: queries,
scanned candidates, per-row shortfalls).
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from repro.errors import DataIntegrityError
from repro.index.candidates import CandidateSet
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.similarity.metrics import prepare_metric, rowwise_scores
from repro.storage.durable import (
    CHECKSUM_ALGORITHM,
    CHECKSUM_DIGEST_SIZE,
    atomic_write,
    payload_checksum,
    verify_checksum,
)
from repro.utils.kmeans import centroid_distances, kmeans_centroids, nearest_centroid
from repro.utils.validation import check_embedding_matrix

#: Persistence format tag and version (bumped on breaking layout change).
IVF_FORMAT = "repro-ivf"
IVF_VERSION = 2
IVF_MAGIC = b"REPROIVF"
#: Magic + header length, then the header starts.
_PREFIX = struct.Struct("<8sQ")
#: The trailing hex checksum over every preceding byte.
_TRAILER_BYTES = 2 * CHECKSUM_DIGEST_SIZE
#: Rows hashed per step by :func:`rows_digest` (bounds the float64 upcast).
_DIGEST_CHUNK_ROWS = 1 << 16


class LegacyIndexError(ValueError):
    """A version-1 (JSON) index document, which this build does not load.

    Convert it once with ``repro index migrate OLD NEW``.
    """


def rows_digest(rows: np.ndarray) -> str:
    """blake2b digest of ``rows`` as C-ordered float64 bytes.

    The provenance an index file records for the rows it indexes.
    float64 rows are hashed in place; other dtypes are upcast one
    bounded chunk at a time.
    """
    digest = hashlib.blake2b(digest_size=CHECKSUM_DIGEST_SIZE)
    for start in range(0, rows.shape[0], _DIGEST_CHUNK_ROWS):
        chunk = np.ascontiguousarray(
            rows[start : start + _DIGEST_CHUNK_ROWS], dtype=np.float64
        )
        digest.update(memoryview(chunk).cast("B"))
    return digest.hexdigest()


def _inverted_lists(assignments: np.ndarray, n_clusters: int) -> list[np.ndarray]:
    """Positions per cluster, ascending, from one stable grouping sort.

    Positions assigned ``-1`` (tombstoned rows a re-cluster left out)
    belong to no list.
    """
    order = np.argsort(assignments, kind="stable")
    counts = np.bincount(assignments + 1, minlength=n_clusters + 1)
    return np.split(order, np.cumsum(counts)[:-1])[1 : n_clusters + 1]


def _top_k_per_row(
    rows: np.ndarray, positions: np.ndarray, scores: np.ndarray, n_rows: int, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's best ``k`` entries under ``(-score, position asc)``, as CSR.

    One sort ranks every score; a second sorts the unique integer key
    ``(row, score rank)``, laying every row out best-first.  Only rows
    holding equal scores need the position tie-break, and only those
    rows are re-sorted on all three keys.
    """
    rank = np.empty(len(scores), dtype=np.int64)
    rank[np.argsort(-scores)] = np.arange(len(scores))
    order = np.argsort(rows * len(scores) + rank)
    rows, positions, scores = rows[order], positions[order], scores[order]
    tied = (rows[1:] == rows[:-1]) & (scores[1:] == scores[:-1])
    if tied.any():
        fix = np.flatnonzero(np.isin(rows, rows[1:][tied]))
        resort = fix[np.lexsort((positions[fix], -scores[fix], rows[fix]))]
        positions[fix], scores[fix] = positions[resort], scores[resort]
    counts = np.bincount(rows, minlength=n_rows)
    place_in_row = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    keep = place_in_row < k
    indptr = np.concatenate([[0], np.cumsum(np.minimum(counts, k))])
    return indptr, positions[keep], scores[keep]


class IVFIndex:
    """Inverted-file candidate index over target embeddings.

    Lifecycle: :meth:`train` fits the coarse quantizer, :meth:`add`
    assigns vectors to inverted lists, :meth:`search` returns each
    query's exact-rescored top-k candidates as a
    :class:`~repro.index.candidates.CandidateSet`.  An index read back
    by :meth:`load` holds no vectors until :meth:`bind` points it at the
    store it was built from.
    """

    def __init__(
        self,
        n_clusters: int = 16,
        metric: str = "cosine",
        train_iterations: int = 8,
    ) -> None:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if train_iterations < 1:
            raise ValueError(f"train_iterations must be >= 1, got {train_iterations}")
        self.n_clusters = n_clusters
        self.metric = metric
        self.train_iterations = train_iterations
        self._centroids: np.ndarray | None = None
        self._center: np.ndarray | None = None
        #: The indexed rows ``0..ntotal`` (an in-memory matrix, or a
        #: view of the bound store); None for a loaded, unbound index.
        self._rows: np.ndarray | None = None
        #: The bound store, when rows come from one (see :meth:`bind`).
        self._store = None
        #: The row digest a loaded file recorded (checked by :meth:`bind`).
        self._rows_digest: str | None = None
        #: Where the index was loaded from, for error messages.
        self._origin = "(in memory)"
        self._assignments: np.ndarray | None = None
        self._lists: list[np.ndarray] = []
        #: Liveness per indexed position; False = tombstoned (skipped by
        #: search, kept in the lists until a re-cluster compacts them out).
        self._alive: np.ndarray | None = None

    # -- lifecycle -----------------------------------------------------

    @property
    def is_trained(self) -> bool:
        return self._centroids is not None

    @property
    def ntotal(self) -> int:
        """Number of indexed positions (dead ones included).

        Positions are never renumbered: after :meth:`recluster` the
        tombstoned positions stay counted here, in no inverted list.
        """
        return 0 if self._alive is None else len(self._alive)

    @property
    def n_alive(self) -> int:
        """Number of live (non-tombstoned) vectors."""
        return 0 if self._alive is None else int(self._alive.sum())

    @property
    def n_tombstoned(self) -> int:
        """Number of tombstoned positions still in a list (awaiting compaction)."""
        if self._alive is None:
            return 0
        return int(np.count_nonzero(~self._alive & (self._assignments >= 0)))

    @property
    def dim(self) -> int | None:
        return None if self._centroids is None else self._centroids.shape[1]

    @property
    def alive_mask(self) -> np.ndarray:
        """Read-only liveness mask over indexed positions (do not mutate)."""
        if self._alive is None:
            return np.empty(0, dtype=bool)
        return self._alive

    def reconstruct(self, positions: np.ndarray) -> np.ndarray:
        """The indexed rows at ``positions``, as a new float64 array."""
        self._require_rows("reconstruct")
        return self._gather(np.asarray(positions, dtype=np.int64))

    def _gather(self, positions: np.ndarray) -> np.ndarray:
        """Rows at ``positions``, upcast to float64 for scoring."""
        return np.asarray(self._rows[positions], dtype=np.float64)

    def _require_rows(self, operation: str) -> None:
        if self._rows is None:
            raise RuntimeError(
                f"IVFIndex.{operation} called before add() (a loaded index "
                f"needs bind() to the store it was built from)"
            )

    def train(self, vectors: np.ndarray) -> "IVFIndex":
        """Fit the coarse quantizer on ``vectors`` (O(n d k), no n^2 or n k).

        With an event sink installed, every assignment round emits
        ``index.train.round`` (round number, points that changed
        cluster), so a multi-minute build at 100k+ vectors is no longer
        silent.  The hook never changes the fit.
        """
        vectors = check_embedding_matrix(vectors, "vectors")
        k = min(self.n_clusters, vectors.shape[0])
        obs_events.emit(
            "index.train.start",
            n=vectors.shape[0],
            clusters=k,
            iterations=self.train_iterations,
        )
        on_round = None
        if obs_events.enabled():
            iterations = self.train_iterations

            def on_round(round_index: int, moved: int) -> None:
                obs_events.emit(
                    "index.train.round",
                    round=round_index,
                    of=iterations,
                    moved=moved,
                )

        with obs_trace.span("index.train", n=vectors.shape[0], clusters=k):
            self._centroids, self._center = kmeans_centroids(
                vectors, k, iterations=self.train_iterations, on_round=on_round
            )
        self.n_clusters = k
        self._rows = None
        self._store = None
        self._rows_digest = None
        self._assignments = None
        self._lists = []
        self._alive = None
        obs_events.emit("index.train.finish", clusters=k)
        return self

    def add(self, vectors: np.ndarray) -> "IVFIndex":
        """Assign ``vectors`` to inverted lists (replaces prior contents)."""
        if not self.is_trained:
            raise RuntimeError("IVFIndex.add called before train()")
        vectors = check_embedding_matrix(vectors, "vectors")
        if vectors.shape[1] != self.dim:
            raise ValueError(
                f"vector dim {vectors.shape[1]} does not match the trained "
                f"quantizer dim {self.dim}"
            )
        with obs_trace.span("index.add", n=vectors.shape[0]):
            assignments = nearest_centroid(vectors, self._centroids, self._center)
        self._rows = vectors
        self._store = None
        self._rows_digest = None
        self._assignments = assignments
        self._lists = _inverted_lists(assignments, self.n_clusters)
        self._alive = np.ones(vectors.shape[0], dtype=bool)
        if obs_events.enabled():
            sizes = np.array([len(lst) for lst in self._lists])
            obs_events.emit(
                "index.lists_filled",
                n=vectors.shape[0],
                lists=len(self._lists),
                min=int(sizes.min()),
                mean=float(sizes.mean()),
                max=int(sizes.max()),
                empty=int((sizes == 0).sum()),
            )
        return self

    # -- incremental updates -------------------------------------------

    def append_to_list(self, vector: np.ndarray) -> int:
        """Assign one new vector to its nearest inverted list; return its position.

        The incremental-insert primitive: no retraining, no rebuild —
        the coarse quantizer stays fixed and the vector joins the list
        whose centroid is nearest, exactly as :meth:`add` would have
        assigned it.  The payload arrays are rebound (never mutated in
        place), so clones sharing them (:meth:`clone`) are unaffected.

        A store-bound index (:meth:`bind`) copies no vector: the store
        must already hold ``vector`` as row ``ntotal`` (the caller
        appended it durably), and the index pins the one-row-longer
        prefix of the store and assigns the row *as stored*.  An index
        over an in-memory matrix grows a copy of it instead.
        """
        self._require_rows("append_to_list")
        vector = np.asarray(vector, dtype=np.float64).reshape(-1)
        if vector.shape[0] != self.dim:
            raise ValueError(
                f"vector dim {vector.shape[0]} does not match the trained "
                f"quantizer dim {self.dim}"
            )
        check_embedding_matrix(vector[None, :], "vector")
        position = self.ntotal
        if self._store is not None:
            if self._store.n_rows <= position:
                raise ValueError(
                    f"store {self._store.path} holds no row {position}; "
                    f"append the vector to the store before indexing it"
                )
            rows = self._store.rows(slice(0, position + 1))
            stored = rows[position]
            if not np.array_equal(stored, vector.astype(stored.dtype)):
                raise ValueError(
                    f"vector does not match row {position} of store "
                    f"{self._store.path}"
                )
            vector = np.asarray(stored, dtype=np.float64)
        else:
            rows = np.concatenate([self._rows, vector[None, :]])
        cluster = int(
            nearest_centroid(vector[None, :], self._centroids, self._center)[0]
        )
        self._rows = rows
        self._assignments = np.concatenate(
            [self._assignments, np.array([cluster], dtype=np.int64)]
        )
        self._lists[cluster] = np.concatenate(
            [self._lists[cluster], np.array([position], dtype=np.int64)]
        )
        self._alive = np.concatenate([self._alive, np.array([True])])
        obs_events.emit("index.append", position=position, cluster=cluster)
        return position

    def tombstone(self, position: int) -> None:
        """Mark an indexed position dead: search skips it from now on.

        The incremental-delete primitive.  The vector stays in its
        inverted list (O(1) delete); a later re-cluster compaction
        reclaims the space.  Tombstoning an already-dead position is a
        no-op.
        """
        if self._alive is None:
            raise RuntimeError("IVFIndex.tombstone called before add()")
        if not 0 <= position < self.ntotal:
            raise ValueError(
                f"position {position} out of range for {self.ntotal} indexed vectors"
            )
        if self._alive[position]:
            self._alive[position] = False
            obs_events.emit("index.tombstone", position=position)

    def clone(self) -> "IVFIndex":
        """Copy-on-write clone for off-to-the-side compaction.

        The clone shares the (immutable-by-convention) payload arrays —
        centroids, row view, assignments, list members — and copies only
        the outer list container and the liveness mask, so cloning is
        O(n_clusters + ntotal) bytes regardless of the row width.  Mutating
        primitives (:meth:`append_to_list`, :meth:`tombstone`) rebind or
        write only clone-owned arrays, leaving the original serving
        queries untouched — the serving layer's old-or-new (never torn)
        swap relies on this.
        """
        other = IVFIndex(
            n_clusters=self.n_clusters,
            metric=self.metric,
            train_iterations=self.train_iterations,
        )
        other._centroids = self._centroids
        other._center = self._center
        other._rows = self._rows
        other._store = self._store
        other._rows_digest = self._rows_digest
        other._origin = self._origin
        other._assignments = self._assignments
        other._lists = list(self._lists)
        other._alive = None if self._alive is None else self._alive.copy()
        return other

    # -- search --------------------------------------------------------

    def _live_members(
        self, cluster: int, exclude: np.ndarray | None
    ) -> np.ndarray:
        """Members of one inverted list that search may score."""
        members = self._lists[cluster]
        if len(members) == 0:
            return members
        keep = self._alive[members]
        if exclude is not None:
            keep = keep & ~exclude[members]
        if keep.all():
            return members
        return members[keep]

    def search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int = 1,
        exclude: np.ndarray | None = None,
        stable: bool = False,
    ) -> CandidateSet:
        """Top-``k`` exact-rescored candidates per query row.

        ``nprobe`` nearest inverted lists are scanned per query; every
        scanned candidate is scored with the index's true similarity
        metric, and the best ``k`` survive.  Rows whose probed lists
        hold fewer than ``k`` vectors return what was found (a
        *shortfall*, counted on ``index.search.shortfall``).

        Tombstoned positions are never scanned.  ``exclude`` is an
        optional length-``ntotal`` boolean mask of further positions to
        skip (the serving layer masks base copies of entities that have
        a newer delta version).  Both paths select under the total
        tie order ``(-score, position asc)``.  ``stable=True`` switches
        to the *pair-stable* scorer (:func:`rowwise_scores`) —
        bitwise-reproducible across batch sizes, probe sets, and index
        rebuilds, which the serving equality contracts require; the
        default path uses the faster threshold-pruned BLAS scan
        (:meth:`_scan_pruned`), whose exact float values may vary with
        the scanned block shape.  Either way, live members are gathered
        only for the lists some query probes.
        """
        self._require_rows("search")
        queries = check_embedding_matrix(queries, "queries")
        if queries.shape[1] != self.dim:
            raise ValueError(
                f"query dim {queries.shape[1]} does not match the trained "
                f"quantizer dim {self.dim}"
            )
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        nprobe = min(nprobe, self.n_clusters)
        n_queries = queries.shape[0]
        if exclude is not None:
            exclude = np.asarray(exclude, dtype=bool)
            if exclude.shape != (self.ntotal,):
                raise ValueError(
                    f"exclude mask must have shape ({self.ntotal},), "
                    f"got {exclude.shape}"
                )
        registry = obs_metrics.get_metrics()
        with obs_trace.span(
            "index.search", queries=n_queries, k=k, nprobe=nprobe
        ) as span:
            distances = centroid_distances(queries, self._centroids, self._center)
            if nprobe < self.n_clusters:
                probe = np.argpartition(distances, nprobe - 1, axis=1)[:, :nprobe]
                probed_lists = np.unique(probe)
            else:
                probe = np.broadcast_to(
                    np.arange(self.n_clusters), (n_queries, self.n_clusters)
                )
                probed_lists = np.arange(self.n_clusters)
            live_lists = {
                int(cluster): self._live_members(int(cluster), exclude)
                for cluster in probed_lists
            }
            sizes = np.zeros(self.n_clusters, dtype=np.int64)
            for cluster, members in live_lists.items():
                sizes[cluster] = len(members)
            # Every live member of every probed list is scored exactly
            # once per query, on either path.
            available = sizes[probe].sum(axis=1)
            scanned = int(available.sum())
            shortfall = int(np.count_nonzero(available < k))
            if stable:
                found = self._scan_stable(queries, probe, live_lists, k)
            else:
                found = self._scan_pruned(
                    queries, probe, distances, live_lists, sizes, k
                )
            span.count("scanned", scanned)
            span.count("shortfall", shortfall)
        registry.inc("index.search.queries", n_queries)
        registry.inc("index.search.scanned", scanned)
        registry.inc("index.search.shortfall", shortfall)
        return found

    def _scan_stable(
        self,
        queries: np.ndarray,
        probe: np.ndarray,
        live_lists: dict[int, np.ndarray],
        k: int,
    ) -> CandidateSet:
        """Query-major pair-stable scan.

        One rowwise kernel over the concatenated probed candidates per
        query (lists in ascending id order), selected under the total
        order ``(-score, position asc)``.
        """
        rows: list[tuple[np.ndarray, np.ndarray]] = []
        for query in range(queries.shape[0]):
            chunks = [
                live_lists[int(cluster)]
                for cluster in np.sort(probe[query])
                if len(live_lists[int(cluster)])
            ]
            if not chunks:
                rows.append((np.empty(0, dtype=np.int64), np.empty(0)))
                continue
            ids = np.concatenate(chunks)
            scores = rowwise_scores(self.metric, queries[query], self._gather(ids))
            order = np.lexsort((ids, -scores))[:k]
            rows.append((ids[order], scores[order]))
        return CandidateSet.from_rows(rows, n_targets=self.ntotal)

    def _scan_pruned(
        self,
        queries: np.ndarray,
        probe: np.ndarray,
        distances: np.ndarray,
        live_lists: dict[int, np.ndarray],
        sizes: np.ndarray,
        k: int,
    ) -> CandidateSet:
        """Cluster-major BLAS scan with threshold pruning.

        Both sides are prepared once: the probed lists' live members are
        laid out contiguously, list after list, so each list is a column
        slice of one prepared kernel.  Blocks are (querying rows, list)
        pairs, scanned in two phases:

        1. each row's *nearest* probed list — the row keeps that list's
           top-``k``, whose ``k``-th score becomes the row's threshold;
        2. every other probed list — only pairs scoring at least the
           row's threshold are kept.  The row's final top-``k`` already
           has ``k`` pairs at or above it, so no dropped pair could have
           entered.

        Survivors go through one per-row selection under ``(-score,
        position asc)``, which emits the CSR arrays directly.  Whenever
        more than ``1.5 q k`` survivors pile up, they are compacted to
        each row's top-``k`` so far, and a full row's ``k``-th score
        becomes its (tighter) threshold — the survivor buffer stays
        O(q k) even where the nearest list's threshold prunes little.
        """
        n_queries, width = probe.shape
        starts = np.cumsum(sizes) - sizes
        members = np.concatenate(
            [live_lists[cluster] for cluster in sorted(live_lists)]
        )
        kernel = prepare_metric(self.metric, queries, self._gather(members))

        nearest_slot = np.take_along_axis(distances, probe, axis=1).argmin(axis=1)
        nearest = probe[np.arange(n_queries), nearest_slot]
        pair_rows = np.repeat(np.arange(n_queries), width)
        pair_lists = probe.reshape(-1)
        pair_later = pair_lists != nearest[pair_rows]
        # Group (row, list) pairs by (phase, list); a stable sort keeps
        # rows ascending inside each group.
        group = pair_later * self.n_clusters + pair_lists
        order = np.argsort(group, kind="stable")
        group, pair_rows = group[order], pair_rows[order]
        bounds = np.flatnonzero(np.diff(group)) + 1
        group_starts = np.concatenate([[0], bounds])
        group_stops = np.concatenate([bounds, [len(group)]])

        thresholds = np.full(n_queries, -np.inf)
        kept_rows = [np.empty(0, dtype=np.int64)]
        kept_positions = [np.empty(0, dtype=np.int64)]
        kept_scores = [np.empty(0)]
        kept = 0
        for lo, hi in zip(group_starts, group_stops):
            later, cluster = divmod(int(group[lo]), self.n_clusters)
            size = int(sizes[cluster])
            if size == 0:
                continue
            rows = pair_rows[lo:hi]
            start = int(starts[cluster])
            block = kernel(rows, slice(start, start + size))
            if not later and size > k:
                thresholds[rows] = np.partition(block, size - k, axis=1)[:, size - k]
            hits = np.flatnonzero(block >= thresholds[rows, None])
            hit_row, hit_col = np.divmod(hits, size)
            kept_rows.append(rows[hit_row])
            kept_positions.append(live_lists[cluster][hit_col])
            kept_scores.append(block.ravel()[hits])
            kept += len(hits)
            if kept > 3 * n_queries * k // 2:
                # Compact to each row's top-k so far; a full row's k-th
                # score is a tighter threshold for the lists still ahead.
                indptr, positions, scores = _top_k_per_row(
                    np.concatenate(kept_rows),
                    np.concatenate(kept_positions),
                    np.concatenate(kept_scores),
                    n_queries,
                    k,
                )
                counts = np.diff(indptr)
                full = np.flatnonzero(counts == k)
                thresholds[full] = scores[indptr[full + 1] - 1]
                kept_rows = [np.repeat(np.arange(n_queries), counts)]
                kept_positions, kept_scores = [positions], [scores]
                kept = len(positions)
        indptr, indices, scores = _top_k_per_row(
            np.concatenate(kept_rows),
            np.concatenate(kept_positions),
            np.concatenate(kept_scores),
            n_queries,
            k,
        )
        return CandidateSet(indptr, indices, scores, self.ntotal)

    # -- reporting -----------------------------------------------------

    def live_list_sizes(self) -> np.ndarray:
        """Live (non-tombstoned) member count per inverted list."""
        return np.array(
            [
                int(self._alive[members].sum()) if len(members) else 0
                for members in self._lists
            ],
            dtype=np.int64,
        )

    def stats(self) -> dict[str, object]:
        """Structure snapshot: list-size balance and configuration.

        Sizes count *live* members only, so the balance report reflects
        what search actually scans.  Every ratio is guarded: degenerate
        shapes (untrained index, zero lists, all lists empty, everything
        tombstoned) report zeros instead of dividing by them.
        """
        sizes = self.live_list_sizes()
        populated = sizes[sizes > 0]
        populated_mean = float(populated.mean()) if len(populated) else 0.0
        return {
            "metric": self.metric,
            "n_clusters": self.n_clusters,
            "ntotal": self.ntotal,
            "alive": self.n_alive,
            "tombstones": self.n_tombstoned,
            "dim": self.dim,
            "trained": self.is_trained,
            "list_min": int(sizes.min()) if len(sizes) else 0,
            "list_mean": float(sizes.mean()) if len(sizes) else 0.0,
            "list_max": int(sizes.max()) if len(sizes) else 0,
            "empty_lists": int((sizes == 0).sum()) if len(sizes) else 0,
            "imbalance": (
                float(sizes.max() / populated_mean) if populated_mean > 0.0 else 0.0
            ),
        }

    # -- store binding and compaction ----------------------------------

    def bind(self, store) -> "IVFIndex":
        """Read the indexed rows from ``store`` from now on; returns self.

        ``store`` is an :class:`~repro.storage.memmap.EmbeddingStore`
        (anything with ``path``, ``dim``, ``n_rows`` and ``rows(slice)``).
        Its first ``ntotal`` rows, hashed as float64, must equal the
        digest the index file recorded (or, for an index built in
        memory, the digest of the rows it holds); a mismatch raises
        :class:`~repro.errors.DataIntegrityError` naming both files.
        The index then scans a view of exactly those rows — a prefix
        that later appends to the store, which land past it, never
        change.
        """
        if self._alive is None:
            raise RuntimeError("IVFIndex.bind called before add() or load()")
        n = self.ntotal
        if store.dim != self.dim:
            raise ValueError(
                f"store {store.path} holds {store.dim}-dim rows but index "
                f"{self._origin} has dim {self.dim}"
            )
        if store.n_rows < n:
            raise ValueError(
                f"index {self._origin} holds {n} vectors but the store at "
                f"{store.path} holds only {store.n_rows} rows"
            )
        rows = store.rows(slice(0, n))
        expected = (
            self._rows_digest if self._rows is None else rows_digest(self._rows)
        )
        actual = rows_digest(rows)
        if actual != expected:
            raise DataIntegrityError(
                f"store {store.path} rows 0..{n} hash to "
                f"{CHECKSUM_ALGORITHM}:{actual}, but index {self._origin} "
                f"was built over rows hashing to {CHECKSUM_ALGORITHM}:"
                f"{expected}; the index does not belong to this store — "
                f"rebuild it from the store's rows"
            )
        self._rows, self._store = rows, store
        return self

    def recluster(self) -> "IVFIndex":
        """A new index: the quantizer retrained over the live rows only.

        Live rows, in position order, train the k-means quantizer and
        fill the new lists, which hold only live positions.  Positions
        keep their meaning — no row is renumbered or copied into the
        index, and tombstoned positions stay dead (assignment ``-1``) —
        so ties still break by ascending position and a full-probe
        answer equals a cold build over the survivors.  ``self`` is
        untouched (queries in flight keep using it).
        """
        self._require_rows("recluster")
        live = np.flatnonzero(self._alive)
        vectors = self._gather(live)
        other = IVFIndex(
            n_clusters=self.n_clusters,
            metric=self.metric,
            train_iterations=self.train_iterations,
        )
        other.train(vectors).add(vectors)
        assignments = np.full(self.ntotal, -1, dtype=np.int64)
        assignments[live] = other._assignments
        other._assignments = assignments
        other._lists = [live[members] for members in other._lists]
        other._alive = self._alive.copy()
        other._rows, other._store = self._rows, self._store
        other._origin = self._origin
        return other

    # -- persistence ---------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write the quantizer, lists and tombstones (no vectors), format v2.

        The file lands through the atomic temp-file + rename protocol
        and ends in a blake2b checksum of every byte before it, so a
        torn write never leaves a half-index and any corruption is
        caught at :meth:`load`.  The header records the digest of the
        indexed rows (:func:`rows_digest`), which :meth:`bind` checks.
        """
        if self._alive is None:
            raise RuntimeError("IVFIndex.save called before train()/add()")
        digest = self._rows_digest if self._rows is None else rows_digest(self._rows)
        tombstones = np.flatnonzero(~self._alive)
        header = {
            "format": IVF_FORMAT,
            "version": IVF_VERSION,
            "metric": self.metric,
            "n_clusters": self.n_clusters,
            "train_iterations": self.train_iterations,
            "dim": self.dim,
            "ntotal": self.ntotal,
            "tombstones": len(tombstones),
            "rows": {
                "algorithm": CHECKSUM_ALGORITHM,
                "dtype": "float64",
                "digest": digest,
            },
        }
        encoded = json.dumps(header, sort_keys=True).encode("ascii")
        # Pad so every array that follows starts 8-byte aligned.
        encoded = encoded.ljust(-(-len(encoded) // 8) * 8)
        body = b"".join([
            _PREFIX.pack(IVF_MAGIC, len(encoded)),
            encoded,
            np.ascontiguousarray(self._center, dtype="<f8").tobytes(),
            np.ascontiguousarray(self._centroids, dtype="<f8").tobytes(),
            np.ascontiguousarray(self._assignments, dtype="<i8").tobytes(),
            np.ascontiguousarray(tombstones, dtype="<i8").tobytes(),
        ])
        path = Path(path)
        atomic_write(path, body + payload_checksum(body).encode("ascii"))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "IVFIndex":
        """Reload an index written by :meth:`save` (unbound: no rows yet).

        Validation order: magic, then the checksum over the raw bytes,
        then format and version, then the array lengths.  Every
        truncation and bit flip fails the checksum and raises
        :class:`~repro.errors.DataIntegrityError`; a version-1 JSON
        document raises :class:`LegacyIndexError`, naming the migrate
        command.  Call :meth:`bind` before searching.
        """
        path = Path(path)
        data = path.read_bytes()
        if data.startswith(b"{"):
            if f'"format": "{IVF_FORMAT}"'.encode("ascii") in data[:64]:
                raise LegacyIndexError(
                    f"{path} is a version-1 (JSON) {IVF_FORMAT} document; this "
                    f"build reads version {IVF_VERSION} only — convert it once "
                    f"with `repro index migrate {path} NEW`"
                )
            raise DataIntegrityError(f"{path} is not a {IVF_FORMAT} index file")
        if len(data) < _PREFIX.size + _TRAILER_BYTES or not data.startswith(
            IVF_MAGIC
        ):
            raise DataIntegrityError(
                f"{path}: IVF index file is truncated or is not a "
                f"{IVF_FORMAT} file ({len(data)} bytes, bad magic or length)"
            )
        body = memoryview(data)[:-_TRAILER_BYTES]
        verify_checksum(
            path,
            data[-_TRAILER_BYTES:].decode("ascii", "replace"),
            body,
            artifact="IVF index",
        )
        _, header_bytes = _PREFIX.unpack_from(data)
        offset = _PREFIX.size + header_bytes
        try:
            header = json.loads(data[_PREFIX.size : offset].decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise DataIntegrityError(
                f"{path}: IVF index header does not parse ({error})"
            ) from error
        if not isinstance(header, dict) or header.get("format") != IVF_FORMAT:
            raise DataIntegrityError(f"{path} is not a {IVF_FORMAT} index file")
        if header.get("version") != IVF_VERSION:
            raise ValueError(
                f"unsupported {IVF_FORMAT} version {header.get('version')!r}; "
                f"this build reads version {IVF_VERSION}"
            )
        try:
            dim, n_clusters = int(header["dim"]), int(header["n_clusters"])
            counts = (
                ("<f8", dim),
                ("<f8", n_clusters * dim),
                ("<i8", int(header["ntotal"])),
                ("<i8", int(header["tombstones"])),
            )
            arrays = []
            for dtype, count in counts:
                arrays.append(np.frombuffer(body, dtype, count, offset))
                offset += arrays[-1].nbytes
            if offset != len(body):
                raise ValueError(f"{len(body) - offset} trailing bytes")
            center, centroids, assignments, tombstones = arrays
            index = cls(
                n_clusters=n_clusters,
                metric=header["metric"],
                train_iterations=int(header["train_iterations"]),
            )
            digest = header["rows"]["digest"]
        except (KeyError, TypeError, ValueError) as error:
            raise DataIntegrityError(
                f"{path}: IVF index arrays do not match the header ({error})"
            ) from error
        ntotal = len(assignments)
        if ntotal and not -1 <= assignments.min() <= assignments.max() < n_clusters:
            raise DataIntegrityError(f"{path}: IVF list assignments out of range")
        if len(tombstones) and not 0 <= tombstones.min() <= tombstones.max() < ntotal:
            raise DataIntegrityError(
                f"{path}: tombstone positions out of range for {ntotal} "
                f"indexed vectors"
            )
        index._center = center
        index._centroids = centroids.reshape(n_clusters, dim)
        index._assignments = assignments.astype(np.int64)
        index._lists = _inverted_lists(index._assignments, n_clusters)
        index._alive = np.ones(ntotal, dtype=bool)
        index._alive[tombstones] = False
        index._rows_digest = digest
        index._origin = str(path)
        return index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IVFIndex(n_clusters={self.n_clusters}, metric={self.metric!r}, "
            f"ntotal={self.ntotal})"
        )
