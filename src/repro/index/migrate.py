"""One-way conversion of version-1 (JSON) IVF index documents to version 2.

Version 1 stored every indexed vector as JSON text next to the
quantizer; loading one at 100k x 32 meant a 64 MiB parse plus a second
full serialisation to check its checksum.  Version 2
(:mod:`repro.index.ivf`) stores no vectors and records a digest of the
rows instead, so this module is the only reader of version 1 left:
``repro index migrate OLD NEW`` verifies the old document, rebuilds the
index over its embedded vectors, and saves it as version 2 — the same
quantizer, lists and tombstones, so the migrated index, bound to the
store those vectors came from, gives identical answers.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.errors import DataIntegrityError
from repro.index.ivf import IVF_FORMAT, IVFIndex, _inverted_lists
from repro.storage.durable import verify_checksum

#: The only version this module reads.
LEGACY_VERSION = 1


def migrate(old: str | Path, new: str | Path) -> IVFIndex:
    """Convert the version-1 document at ``old`` to a version-2 file at ``new``.

    The document's canonical-body checksum is verified when present;
    malformed JSON, a wrong format tag, or a wrong version raise
    :class:`~repro.errors.DataIntegrityError` and write nothing.
    Returns the index, holding the document's vectors in memory.
    """
    path = Path(old)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise DataIntegrityError(
            f"{path}: IVF index document is not valid JSON ({error}); "
            f"the file is truncated, corrupt, or already version 2"
        ) from error
    if not isinstance(document, dict) or document.get("format") != IVF_FORMAT:
        raise DataIntegrityError(f"{path} is not a {IVF_FORMAT} document")
    if document.get("version") != LEGACY_VERSION:
        raise DataIntegrityError(
            f"{path} is {IVF_FORMAT} version {document.get('version')!r}; "
            f"migrate reads version {LEGACY_VERSION} only"
        )
    recorded = document.get("checksum")
    if recorded is not None:
        body = {key: value for key, value in document.items() if key != "checksum"}
        verify_checksum(
            path,
            recorded,
            json.dumps(body, sort_keys=True).encode("utf-8"),
            artifact="IVF index",
        )
    index = IVFIndex(
        n_clusters=int(document["n_clusters"]),
        metric=document["metric"],
        train_iterations=int(document["train_iterations"]),
    )
    index._centroids = np.asarray(document["centroids"], dtype=np.float64)
    index._center = np.asarray(document["center"], dtype=np.float64)
    index._rows = np.asarray(document["vectors"], dtype=np.float64)
    index._assignments = np.asarray(document["assignments"], dtype=np.int64)
    index._lists = _inverted_lists(index._assignments, index.n_clusters)
    index._alive = np.ones(len(index._assignments), dtype=bool)
    tombstones = np.asarray(document.get("tombstones", []), dtype=np.int64)
    if len(tombstones) and not 0 <= tombstones.min() <= tombstones.max() < index.ntotal:
        raise DataIntegrityError(
            f"{path}: tombstone positions out of range for {index.ntotal} "
            f"indexed vectors"
        )
    index._alive[tombstones] = False
    index.save(new)
    return index
