"""Crash-safe persistence primitives: atomic renames and content checksums.

Every durable artifact in the repo — the memmap embedding store, the IVF
index file, the run ledger — used to be written in place: a crash
(or an injected torn write) mid-``write()`` left a half-file that later
readers either mis-parsed or choked on with a raw decoding error.  This
module centralises the two standard remedies:

* :func:`atomic_write` / :func:`atomic_writer` — the temp-file protocol:
  write to a temporary sibling in the *same directory*, flush, fsync,
  then ``os.replace`` onto the destination (atomic on POSIX within one
  filesystem), and fsync the directory so the rename itself survives a
  power cut.  A crash at any byte offset leaves either the old complete
  file or the new complete file, never a blend.
* :func:`payload_checksum` / :func:`verify_checksum` — blake2b content
  digests (the same construction as the engine's embedding fingerprint
  and the ledger's config fingerprint), embedded in an artifact's header
  at write time and recomputed on demand, so silent corruption *inside*
  a well-formed file (a flipped block, a hex-editor accident) surfaces
  as a typed :class:`~repro.errors.DataIntegrityError` naming the path
  and both digests instead of as garbage numbers.

Append-only files (the JSONL ledger) cannot use the rename protocol —
their durability story is fsync-on-append plus torn-tail recovery, which
lives with the ledger itself (:mod:`repro.obs.ledger`); :func:`fsync_file`
and :func:`fsync_dir` are the shared low-level pieces.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

from repro.errors import DataIntegrityError

#: Digest algorithm and size shared by every checksummed artifact.  16
#: bytes (128 bits) matches the engine/ledger fingerprints — collision
#: odds are negligible and the hex digest stays short enough for headers.
CHECKSUM_ALGORITHM = "blake2b"
CHECKSUM_DIGEST_SIZE = 16


def payload_checksum(payload: bytes | memoryview) -> str:
    """blake2b hex digest of ``payload`` (the artifact's content bytes)."""
    digest = hashlib.blake2b(digest_size=CHECKSUM_DIGEST_SIZE)
    digest.update(payload)
    return digest.hexdigest()


def verify_checksum(
    path: Path | str, expected: str, payload: bytes | memoryview, artifact: str = "file"
) -> str:
    """Recompute ``payload``'s digest and compare against ``expected``.

    Returns the recomputed digest on success; raises
    :class:`~repro.errors.DataIntegrityError` naming the path and both
    digests on mismatch — the one corruption message every durable
    artifact shares.
    """
    actual = payload_checksum(payload)
    if actual != expected:
        raise DataIntegrityError(
            f"{path}: {artifact} checksum mismatch: header records "
            f"{CHECKSUM_ALGORITHM}:{expected}, payload hashes to "
            f"{CHECKSUM_ALGORITHM}:{actual}; the file is corrupt"
        )
    return actual


def fsync_file(handle: IO[bytes] | IO[str]) -> None:
    """Flush ``handle`` and push its bytes to stable storage."""
    handle.flush()
    os.fsync(handle.fileno())


def fsync_dir(directory: Path | str) -> None:
    """fsync a directory so a rename/create inside it is itself durable.

    Best-effort: some platforms/filesystems refuse to open directories
    (or to fsync them); those cannot honour the stronger guarantee and
    the write-then-rename protocol still leaves a consistent file.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_writer(path: Path | str) -> Iterator[IO[bytes]]:
    """Context manager yielding a binary handle that lands atomically.

    The handle writes to a temporary sibling of ``path`` (same directory,
    so the final ``os.replace`` never crosses a filesystem).  On clean
    exit the temp file is flushed, fsynced, renamed over ``path``, and
    the directory is fsynced; on *any* exception the temp file is
    removed and ``path`` is untouched — a torn write can only ever tear
    the invisible temp file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    handle = os.fdopen(fd, "wb")
    try:
        yield handle
        fsync_file(handle)
        handle.close()
        os.replace(temp_name, path)
    except BaseException:
        handle.close()
        try:
            os.unlink(temp_name)
        except OSError:  # pragma: no cover - already gone
            pass
        raise
    fsync_dir(path.parent)


def atomic_write(path: Path | str, payload: bytes | str) -> Path:
    """Write ``payload`` to ``path`` via the temp-file + rename protocol.

    The whole-payload convenience form of :func:`atomic_writer`; text
    payloads are encoded as UTF-8.  Returns ``path``.
    """
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    path = Path(path)
    with atomic_writer(path) as handle:
        handle.write(payload)
    return path
