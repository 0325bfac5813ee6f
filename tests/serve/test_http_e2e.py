"""Golden end-to-end tests for the ``repro serve`` daemon.

The daemon is the real CLI in a real subprocess on an ephemeral port,
driven with stdlib ``urllib``.  Response bodies are asserted *byte-equal*
against committed golden files — the canonical-JSON wire format plus the
deterministic fixture make every run (and every machine) produce the
same bytes.  The kill-and-restart tests pin the PR 7 durability
contract at the serving layer: SIGTERM, restart from the same artifacts,
bitwise-identical responses, and zero index rebuild (no ``index.train``
event in the restart's event log).

Regenerate goldens after an intentional wire-format change with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/serve/test_http_e2e.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from .conftest import Daemon

pytestmark = pytest.mark.serve

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: One fixed query vector (values chosen by hand, not drawn — the
#: golden bytes embed its exact scores).
QUERY_VECTOR = [0.5, -1.25, 0.75, 2.0, -0.5, 1.5]


def check_golden(name: str, payload: bytes) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(payload)
        return
    assert path.exists(), (
        f"missing golden {path}; run with REPRO_UPDATE_GOLDENS=1 to create it"
    )
    assert payload == path.read_bytes(), (
        f"response bytes diverged from {path.name}:\n"
        f"  got:    {payload!r}\n"
        f"  golden: {path.read_bytes()!r}"
    )


def post(daemon, path, obj):
    return daemon.request("POST", path, json.dumps(obj).encode("utf-8"))


class TestGoldenResponses:
    def test_healthz(self, daemon):
        status, body = daemon.request("GET", "/healthz")
        assert status == 200
        check_golden("healthz.json", body)

    def test_query_by_vector(self, daemon):
        status, body = post(daemon, "/query", {"vector": QUERY_VECTOR, "k": 5})
        assert status == 200
        check_golden("query_vector_k5.json", body)

    def test_query_by_entity(self, daemon):
        status, body = post(daemon, "/query", {"entity_id": 7, "k": 3})
        assert status == 200
        check_golden("query_entity7_k3.json", body)
        # The entity matches itself first at score 1 (cosine).
        matches = json.loads(body)["matches"]
        assert matches[0]["entity_id"] == 7
        assert matches[0]["score"] == pytest.approx(1.0)

    def test_explain(self, daemon):
        status, body = daemon.request("GET", "/entity/3/explain")
        assert status == 200
        check_golden("explain_entity3.json", body)
        report = json.loads(body)
        assert report["query"] == 3
        assert report["candidates"][0]["candidate"] == 3  # raw top-1 is itself

    def test_stats_shape(self, daemon):
        status, body = daemon.request("GET", "/stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["ntotal"] == 48
        assert stats["alive"] == 48
        assert stats["delta_depth"] == 0
        assert stats["version"] == 0
        assert stats["trained"] is True
        assert set(stats) >= {"imbalance", "cache", "batcher", "nprobe"}

    def test_error_paths(self, daemon):
        assert daemon.request("GET", "/nope")[0] == 404
        assert daemon.request("GET", "/entity/999/explain")[0] == 404
        assert post(daemon, "/query", {"k": 2})[0] == 400
        assert post(daemon, "/query", {"vector": QUERY_VECTOR, "k": 0})[0] == 400
        assert post(daemon, "/delete", {"entity_id": "x"})[0] == 400
        status, body = daemon.request("POST", "/query", b"not json")
        assert status == 400


class TestKillAndRestart:
    PROBES = (
        ("GET", "/healthz", None),
        ("POST", "/query", {"vector": QUERY_VECTOR, "k": 5}),
        ("POST", "/query", {"entity_id": 7, "k": 3}),
        ("GET", "/entity/3/explain", None),
    )

    def collect(self, daemon):
        responses = []
        for method, path, obj in self.PROBES:
            body = json.dumps(obj).encode("utf-8") if obj is not None else None
            responses.append(daemon.request(method, path, body))
        return responses

    def test_sigterm_then_restart_is_bitwise_identical(
        self, served_artifacts, tmp_path
    ):
        first = Daemon(served_artifacts, tmp_path)
        before = self.collect(first)
        assert first.terminate() == 0  # clean SIGTERM exit

        with Daemon(served_artifacts, tmp_path) as second:
            after = self.collect(second)
            events = second.events_path.read_text().splitlines()
        assert before == after
        # Zero rebuild: the restart loaded persisted artifacts; the
        # quantizer was never retrained.
        names = [json.loads(line)["name"] for line in events]
        assert "serve.start" in names
        assert not any(name.startswith("index.train") for name in names)

    def test_inserts_survive_the_kill(self, writable_artifacts, tmp_path):
        inserted = [9.0, -3.0, 1.0, 4.0, -2.0, 0.5]
        probe = {"vector": inserted, "k": 2}
        first = Daemon(writable_artifacts, tmp_path)
        status, body = post(first, "/insert", {"vector": inserted})
        assert status == 200
        entity_id = json.loads(body)["entity_id"]
        status, before = post(first, "/query", probe)
        assert status == 200
        assert json.loads(before)["matches"][0]["entity_id"] == entity_id
        assert first.terminate() == 0

        # The store grew durably; the restart recovers the row into the
        # delta layer (no index re-save, no rebuild) and the top match
        # is the same entity with the same score bytes.
        with Daemon(writable_artifacts, tmp_path) as second:
            status, after = post(second, "/query", probe)
            assert status == 200
            assert json.loads(after)["matches"] == json.loads(before)["matches"]
            events = second.events_path.read_text().splitlines()
        payloads = [json.loads(line) for line in events]
        assert any(event["name"] == "serve.recovered" for event in payloads)
        assert not any(event["name"].startswith("index.train") for event in payloads)


@pytest.fixture
def float32_artifacts(served_artifacts, tmp_path):
    """The fixture vectors in a float32 store, indexed from its own rows."""
    import numpy as np

    from repro.index import IVFIndex
    from repro.storage import EmbeddingStore

    from .conftest import CAPACITY, N_CLUSTERS, Artifacts

    rows = served_artifacts.vectors.astype(np.float32)
    store_path = tmp_path / "entities32.store"
    store = EmbeddingStore.create(store_path, rows.shape, "float32", capacity=CAPACITY)
    store[:] = rows
    store.update_checksum()
    store.close()
    as_stored = rows.astype(np.float64)
    index_path = tmp_path / "entities32.ivf"
    IVFIndex(n_clusters=N_CLUSTERS).train(as_stored).add(as_stored).save(index_path)
    return Artifacts(store=store_path, index=index_path, vectors=as_stored)


class TestFloat32StoreKill:
    """Scores come from the store's durable bytes, not from a float64 copy.

    Inserted values are not representable in float32, so a daemon that
    scored the float64 request vector would answer differently after a
    restart that reads the rounded row back from the store.
    """

    INSERTS = [
        [0.1, -0.7, 1.3, 0.3, -2.1, 0.9],
        [1.1, 0.2, -0.3, 0.7, 0.6, -1.9],
        [-0.4, 2.3, 0.1, -1.7, 0.8, 0.05],
        [0.33, 0.33, -0.66, 1.01, -0.2, 0.7],
        [2.2, -0.1, 0.4, -0.9, 1.3, 0.3],
    ]

    def probes(self, daemon, entity_ids):
        bodies = [post(daemon, "/query", {"vector": QUERY_VECTOR, "k": 8})]
        for entity_id in entity_ids:
            bodies.append(post(daemon, "/query", {"entity_id": entity_id, "k": 4}))
        for vector in self.INSERTS:
            bodies.append(post(daemon, "/query", {"vector": vector, "k": 3}))
        return bodies

    def test_insert_sigkill_restart_is_bitwise_identical(
        self, float32_artifacts, tmp_path
    ):
        first = Daemon(float32_artifacts, tmp_path, extra_args=("--max-delta", "3"))
        entity_ids = []
        for vector in self.INSERTS:
            status, body = post(first, "/insert", {"vector": vector})
            assert status == 200
            entity_ids.append(json.loads(body)["entity_id"])
        before = self.probes(first, entity_ids)
        first.process.kill()  # SIGKILL: no shutdown path runs
        first.process.communicate(timeout=30)

        with Daemon(float32_artifacts, tmp_path, extra_args=("--max-delta", "3")) as second:
            after = self.probes(second, entity_ids)
        assert all(status == 200 for status, _ in before)
        assert after == before


class TestBootRefusesForeignIndex:
    def test_store_index_content_mismatch_exits_nonzero(
        self, served_artifacts, float32_artifacts
    ):
        # Same shape, different bytes: the float64 fixture index does not
        # belong to the float32-rounded store.
        import subprocess
        import sys

        from .conftest import REPO_SRC

        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve",
             "--store", str(float32_artifacts.store),
             "--index", str(served_artifacts.index), "--port", "0"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": REPO_SRC},
        )
        assert result.returncode == 1
        assert "cannot load serving state" in result.stderr
        assert str(float32_artifacts.store) in result.stderr
        assert str(served_artifacts.index) in result.stderr
