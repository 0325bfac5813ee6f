"""One malformed query must not hurt the queries after it.

Regression for a dispatcher-killing batch: two ``/query`` vectors of
different lengths, coalesced into one micro-batch, made ``np.stack``
raise outside the dispatcher's guard.  The dispatcher thread died and
every later ``submit()`` waited forever.  Two fixes are pinned here:
the HTTP edge answers 400 for a wrong dimension or non-finite values
before anything is enqueued, and the batcher assembles each batch
inside its guarded region, so a bad batch fails only its own queries.
"""

from __future__ import annotations

import json
import threading
import urllib.error

import numpy as np
import pytest

from repro.serve.batching import MicroBatcher
from repro.serve.http import AlignmentServer

from .test_request_context import call, live_server  # noqa: F401 - fixture

pytestmark = pytest.mark.serve


def echo_norms(vectors, ks):
    return [float(np.linalg.norm(row)) for row in vectors]


class TestMixedLengthBatch:
    def test_dispatcher_survives_a_mixed_length_batch(self):
        batcher = MicroBatcher(echo_norms, max_batch=2, max_wait=5.0)
        errors: list[BaseException] = []

        def submit(vector):
            try:
                batcher.submit(vector, 1, timeout=10)
            except BaseException as error:  # noqa: BLE001 - collected
                errors.append(error)

        threads = [
            threading.Thread(target=submit, args=(np.ones(3),)),
            threading.Thread(target=submit, args=(np.ones(2),)),
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=15)
            # Both rows failed together, each with the stacking error...
            assert len(errors) == 2
            assert all(isinstance(error, ValueError) for error in errors)
            # ...and the dispatcher is still alive for the next query.
            assert batcher.submit(np.full(4, 2.0), 1, timeout=10) == 4.0
            assert batcher.stats()["queries"] == 1
        finally:
            batcher.close()


@pytest.fixture
def batching_server(live_server):  # noqa: F811
    """The live server's state behind a batcher that coalesces pairs."""
    server = AlignmentServer(
        ("127.0.0.1", 0), live_server.state, max_batch=2, max_wait=0.5
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.close()
        thread.join(timeout=5)


class TestCoBatchedQueries:
    GOOD = {"vector": [0.5, -1.0, 0.25, 2.0], "k": 3}

    @pytest.mark.parametrize(
        "bad",
        [b'{"vector": [1.0, 2.0], "k": 2}', b'{"vector": [1.0, NaN, 0.0, 1.0], "k": 2}'],
        ids=["short", "nan"],
    )
    def test_malformed_query_never_fails_its_batch_mate(self, batching_server, bad):
        alone = call(batching_server, "POST", "/query", json.dumps(self.GOOD).encode())
        statuses: dict[str, object] = {}

        def send(name, body):
            try:
                statuses[name] = call(batching_server, "POST", "/query", body)
            except urllib.error.HTTPError as error:
                statuses[name] = error.code

        threads = [
            threading.Thread(target=send, args=("bad", bad)),
            threading.Thread(
                target=send, args=("good", json.dumps(self.GOOD).encode())
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert statuses["bad"] == 400
        status, _, body = statuses["good"]
        assert status == 200
        assert json.loads(body)["matches"] == json.loads(alone[2])["matches"]


class TestQueryValidation:
    def post_query(self, server, body):
        try:
            return call(server, "POST", "/query", json.dumps(body).encode())[0]
        except urllib.error.HTTPError as error:
            return error.code

    @pytest.mark.parametrize(
        "vector",
        [[1.0, 2.0, 3.0], [1.0] * 5, [[1.0, 2.0, 3.0, 4.0]], ["a", 1, 2, 3]],
        ids=["short", "long", "nested", "strings"],
    )
    def test_malformed_vectors_get_400(self, live_server, vector):  # noqa: F811
        assert self.post_query(live_server, {"vector": vector, "k": 2}) == 400

    def test_non_finite_values_get_400(self, live_server):  # noqa: F811
        # json.loads accepts the NaN/Infinity literals.
        for literal in ("NaN", "Infinity", "-Infinity"):
            body = ('{"vector": [1.0, 2.0, %s, 0.5], "k": 2}' % literal).encode()
            try:
                status = call(live_server, "POST", "/query", body)[0]
            except urllib.error.HTTPError as error:
                status = error.code
            assert status == 400, literal

    def test_well_formed_query_answers_after_bad_ones(self, live_server):  # noqa: F811
        for vector in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0, 5.0]):
            assert self.post_query(live_server, {"vector": vector, "k": 2}) == 400
        status, _, body = call(
            live_server, "POST", "/query",
            json.dumps({"vector": [0.5, -1.0, 0.25, 2.0], "k": 3}).encode(),
        )
        assert status == 200
        assert len(json.loads(body)["matches"]) == 3
