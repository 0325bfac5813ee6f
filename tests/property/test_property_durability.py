"""Property-based corruption testing of every durable artifact.

One invariant, three artifacts: however a store file, an IVF index
file, or a ledger file is truncated or bit-flipped, the reader
either returns correct data or raises a *typed* error naming the
artifact — never a raw ``json.JSONDecodeError``/``UnicodeDecodeError``,
never a hang, and never a silently wrong answer.
"""

import json

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import DataIntegrityError
from repro.index import IVFIndex
from repro.obs.ledger import RunLedger, build_record
from repro.storage import HEADER_BYTES, EmbeddingStore

flip_masks = st.integers(1, 255)  # XOR with a nonzero mask always changes the byte


def _store_bytes(tmp_path, n_rows=6, dim=4):
    path = tmp_path / "emb.bin"
    rng = np.random.default_rng(0)
    array = rng.normal(size=(n_rows, dim)).astype(np.float32)
    EmbeddingStore.write(path, array).close()
    return path, array


def _ivf_bytes(tmp_path):
    path = tmp_path / "index.ivf"
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(20, 6))
    index = IVFIndex(n_clusters=3).train(vectors).add(vectors)
    index.tombstone(4)  # every array of the file is non-empty
    index.save(path)
    return path


def _ledger_bytes(tmp_path):
    path = tmp_path / "runs.jsonl"
    ledger = RunLedger(path)
    for matcher in ("DInf", "CSLS", "Hun."):
        record = build_record(
            fingerprint="fp", preset="dbp15k/zh_en", regime="R",
            task="dbp15k/zh_en", matcher=matcher, seed=0, scale=0.5,
            metric="cosine", status="ok",
            metrics={"precision": 0.5, "recall": 0.5, "f1": 0.5},
            ranking={"hits@1": 0.5},
        )
        # Pin every host- and time-dependent field, so the file is the
        # same bytes everywhere and a byte offset names the same spot.
        record.update(
            run_id="0" * 32,
            created_at="2024-01-01T00:00:00+00:00",
            provenance={"python": "3", "git": {"sha": None, "dirty": False}},
            resources={"backend": "thread", "workers": 1, "shards": 0,
                       "peak_rss_bytes": 0},
        )
        ledger.append(record)
    return path


#: The newline between records 2 and 3 of the ``_ledger_bytes`` file.
#: Flipping it merges the two records into one unparseable final line.
_SECOND_NEWLINE = 1415


class TestStoreCorruption:
    @settings(max_examples=30, deadline=None)
    @given(offset_fraction=st.floats(0.0, 1.0, exclude_max=True))
    def test_any_truncation_raises_typed(self, tmp_path_factory, offset_fraction):
        path, _ = _store_bytes(tmp_path_factory.mktemp("store"))
        size = path.stat().st_size
        with path.open("r+b") as handle:
            handle.truncate(int(offset_fraction * size))
        try:
            EmbeddingStore.open(path, verify=True).close()
            raise AssertionError("a truncated store must not open")
        except DataIntegrityError as error:
            assert str(path) in str(error)

    @settings(max_examples=30, deadline=None)
    @given(offset=st.integers(0, 6 * 4 * 4 - 1), mask=flip_masks)
    def test_any_payload_bit_flip_fails_verification(
        self, tmp_path_factory, offset, mask
    ):
        path, array = _store_bytes(tmp_path_factory.mktemp("store"))
        raw = bytearray(path.read_bytes())
        raw[HEADER_BYTES + offset] ^= mask
        path.write_bytes(bytes(raw))
        try:
            EmbeddingStore.open(path, verify=True).close()
            raise AssertionError("a flipped payload must not verify")
        except DataIntegrityError as error:
            assert "checksum mismatch" in str(error)

    @settings(max_examples=30, deadline=None)
    @given(offset=st.integers(0, HEADER_BYTES - 1), mask=flip_masks)
    def test_any_header_bit_flip_raises_typed(self, tmp_path_factory, offset, mask):
        path, array = _store_bytes(tmp_path_factory.mktemp("store"))
        raw = bytearray(path.read_bytes())
        raw[offset] ^= mask
        path.write_bytes(bytes(raw))
        # A flip in the padding region leaves the header parseable but
        # then the recorded checksum still matches — that open must
        # return the exact original data; any other flip must be typed.
        try:
            with EmbeddingStore.open(path, verify=True) as store:
                np.testing.assert_array_equal(store.as_array(), array)
        except DataIntegrityError:
            pass  # typed, names the path — the contract


class TestIVFCorruption:
    """The index file is small and checksummed over every byte, so the
    tests below are exhaustive rather than sampled: *every* truncation
    and *every* single-bit flip must raise a typed error."""

    def test_any_truncation_raises_typed(self, tmp_path):
        path = _ivf_bytes(tmp_path)
        raw = path.read_bytes()
        for size in range(len(raw)):
            path.write_bytes(raw[:size])
            try:
                IVFIndex.load(path)
            except DataIntegrityError as error:
                assert "IVF index" in str(error)
            else:
                raise AssertionError(f"a {size}-byte truncation loaded")

    def test_any_bit_flip_raises_typed_or_roundtrips(self, tmp_path):
        path = _ivf_bytes(tmp_path)
        raw = path.read_bytes()
        for offset in range(len(raw)):
            for bit in range(8):
                flipped = bytearray(raw)
                flipped[offset] ^= 1 << bit
                path.write_bytes(bytes(flipped))
                try:
                    IVFIndex.load(path)
                except DataIntegrityError as error:
                    assert str(path) in str(error)
                else:
                    raise AssertionError(f"flip of bit {bit} at byte {offset} loaded")


class TestLedgerCorruption:
    @settings(max_examples=30, deadline=None)
    @given(offset_fraction=st.floats(0.0, 1.0))
    def test_any_truncation_recovers_the_complete_prefix(
        self, tmp_path_factory, offset_fraction
    ):
        path = _ledger_bytes(tmp_path_factory.mktemp("ledger"))
        raw = path.read_bytes()
        offset = int(offset_fraction * len(raw))
        line_starts = [0]
        for i, byte in enumerate(raw):
            if byte == ord("\n"):
                line_starts.append(i + 1)
        complete = sum(1 for start in line_starts[1:] if start <= offset)
        if offset < len(raw) and raw[offset] == ord("\n"):
            # Cutting exactly the newline leaves an unterminated but
            # fully valid final line, which the scanner counts complete.
            complete += 1
        path.write_bytes(raw[:offset])
        ledger = RunLedger(path)
        # Pure truncation is always a torn tail, never mid-file
        # corruption: the tolerant reader recovers every record whose
        # final newline survived, and fsck can repair the rest.
        records = ledger.records(strict=False)
        assert len(records) == complete
        report = ledger.fsck(repair=True)
        assert report.error is None
        assert len(ledger.records()) == complete

    def test_pinned_offset_is_the_second_newline(self, tmp_path):
        raw = _ledger_bytes(tmp_path).read_bytes()
        newlines = [i for i, byte in enumerate(raw) if byte == ord("\n")]
        assert newlines[1] == _SECOND_NEWLINE

    @settings(max_examples=30, deadline=None)
    @given(offset=st.integers(0, 4095), mask=flip_masks)
    @example(offset=_SECOND_NEWLINE, mask=1)
    @example(offset=_SECOND_NEWLINE, mask=0x0A)  # newline -> NUL
    def test_any_bit_flip_is_typed_or_still_valid(
        self, tmp_path_factory, offset, mask
    ):
        path = _ledger_bytes(tmp_path_factory.mktemp("ledger"))
        raw = bytearray(path.read_bytes())
        assume(offset < len(raw))
        raw[offset] ^= mask
        path.write_bytes(bytes(raw))
        ledger = RunLedger(path)
        try:
            records = ledger.records(strict=False)
            assert len(records) in (2, 3)  # a flipped digit can stay valid
        except json.JSONDecodeError:
            raise AssertionError("raw JSONDecodeError escaped the ledger reader")
        except ValueError as error:
            # Typed and located: the message always carries path:lineno.
            assert f"{path}:" in str(error)
