"""ANN candidate index and sparse top-k candidate sets.

The first path through the stack that never allocates an n x n matrix:

* :mod:`repro.index.candidates` — :class:`CandidateSet`, the CSR-like
  per-source top-k container the sparse matchers decode;
* :mod:`repro.index.ivf` — :class:`IVFIndex`, a from-scratch numpy IVF
  index (shared mini k-means quantizer, exact rescoring, obs
  instrumentation, vector-free binary persistence bound to a store);
* :mod:`repro.index.migrate` — the one-way version-1 (JSON) to
  version-2 converter behind ``repro index migrate``;
* :mod:`repro.index.config` — :class:`IndexConfig` +
  :func:`build_candidates`, the one-argument handle the runner,
  pipeline, and CLI accept;
* :mod:`repro.index.blocked` — :func:`blocked_candidates`, coarse-to-
  fine candidate generation in memory-budgeted row batches (the
  out-of-core front end).
"""

from repro.index.blocked import blocked_candidates, default_clusters, default_nprobe
from repro.index.candidates import CandidateSet
from repro.index.config import INDEX_KINDS, IndexConfig, build_candidates
from repro.index.ivf import IVF_FORMAT, IVF_VERSION, IVFIndex, LegacyIndexError

__all__ = [
    "CandidateSet",
    "INDEX_KINDS",
    "IndexConfig",
    "blocked_candidates",
    "build_candidates",
    "default_clusters",
    "default_nprobe",
    "IVF_FORMAT",
    "IVF_VERSION",
    "IVFIndex",
    "LegacyIndexError",
]
