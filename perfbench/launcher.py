"""Launch ``repro serve`` with the traced run's layer wrappers inside.

    python3 -m perfbench.launcher [--trace-out PATH] serve --store ... --index ...

Without ``--trace-out`` this is exactly ``python -m repro serve``.  With
it, timing wrappers are installed on the serving layers before the
daemon's own entry point runs, and their totals (plus the daemon's
metrics-registry counters) are written to PATH when the daemon shuts
down cleanly on SIGTERM.
"""

from __future__ import annotations

import json
import sys

from perfbench.tracer import Tracer

#: Registry counters the benchmark reads back from the daemon.
COUNTERS = (
    "index.search.queries",
    "index.search.scanned",
    "index.search.shortfall",
    "serve.compactions.migrate",
    "serve.compactions.recluster",
)


def install(tracer: Tracer) -> None:
    from repro.index.candidates import CandidateSet
    from repro.index.ivf import IVFIndex
    from repro.serve.http import AlignmentServer
    from repro.serve.state import ServingState
    from repro.similarity.engine import SimilarityEngine
    from repro.storage import EmbeddingStore

    insert = ServingState.insert

    def insert_noting_depth(self, *args, **kwargs):
        entity_id = insert(self, *args, **kwargs)
        tracer.note_max(
            "serve.state.delta_depth", len(self.snapshot.live_delta_positions)
        )
        return entity_id

    ServingState.insert = insert_noting_depth
    tracer.wrap(ServingState, "insert", "serve.state.insert")
    tracer.wrap(ServingState, "query", "serve.state.query")
    tracer.wrap(ServingState, "delete", "serve.state.delete")
    tracer.wrap(IVFIndex, "load", "index.load")
    tracer.wrap(IVFIndex, "train", "kmeans.train")
    tracer.wrap(IVFIndex, "add", "index.add")
    tracer.wrap(IVFIndex, "search", "index.search")
    tracer.wrap(IVFIndex, "clone", "index.clone")
    tracer.wrap(IVFIndex, "append_to_list", "index.append")
    tracer.wrap(CandidateSet, "vstack", "index.vstack")
    tracer.wrap(EmbeddingStore, "append_row", "storage.append_row")
    tracer.wrap(SimilarityEngine, "similarity", "similarity.engine")
    tracer.wrap(AlignmentServer, "handle_explain", "serve.http.explain")


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    tracer = Tracer()
    if trace_out is not None:
        install(tracer)
    from repro.cli import main as repro_main
    from repro.obs.metrics import get_metrics

    code = repro_main(argv)
    if trace_out is not None:
        registry = get_metrics()
        document = tracer.dump()
        document["counters"] = {name: registry.counter(name) for name in COUNTERS}
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
