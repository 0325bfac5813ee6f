"""The metrics and workloads, read from ``BENCHMARK.json`` at the repo root."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"

#: Workload name -> the module that runs it (``run(ctx) -> Outcome``).
WORKLOADS = {
    "offline-100k": "perfbench.offline",
    "campaign": "perfbench.campaign",
    "serve-mixed": "perfbench.serve",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Allowed worsening as a share of the parent's median (end-to-end only).
    bound: float | None = None


def load_spec(path: Path = BENCHMARK_FILE) -> dict:
    document = json.loads(path.read_text(encoding="utf-8"))
    return {
        "run_seconds": int(document["run_seconds"]),
        "workloads": [entry["name"] for entry in document["workloads"]],
        "end_to_end": [Metric(**entry) for entry in document["end_to_end"]],
        "per_layer": [Metric(**entry) for entry in document["per_layer"]],
    }
