"""What every workload takes in and hands back."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench.tracer import Tracer


@dataclass
class Context:
    seed: int
    seconds: float
    workdir: Path
    #: Tiny inputs for the benchmark's own tests (never used for numbers).
    smoke: bool = False
    #: Installed wrappers when this pass is the traced one, else None.
    tracer: Tracer | None = None
    #: Set-ups in this pass (a workload's ``SETUP_REPEATS`` untraced, one
    #: traced); ``setup_s`` is their median.
    setup_repeats: int = 1
    #: Inputs a traced run's two passes share (built once, untimed).
    shared: dict[str, Any] = field(default_factory=dict)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """One workload pass: end-to-end values, checks, and layer numbers."""

    #: name -> (value, samples behind it)
    metrics: dict[str, tuple[float, int]] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: The workload's measured time that the layer split is taken of.
    work_seconds: float = 0.0
    #: Printed with every run but not gated: name -> (value, unit, samples).
    reported: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    #: name -> value, only filled by a traced pass.
    layers: dict[str, float] = field(default_factory=dict)
    #: Extra facts printed with the run (not gated).
    notes: dict[str, Any] = field(default_factory=dict)

    def put(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = (float(value), int(samples))

    @property
    def correct(self) -> bool:
        return all(check.ok for check in self.checks)


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def timed_repeats(ctx: Context, unit) -> list[float]:
    """Run ``unit`` once, then again while another run is expected to
    end within ``ctx.seconds`` of the start; return each run's seconds."""
    durations: list[float] = []
    start = time.perf_counter()
    while not durations or (
        time.perf_counter() - start + median(durations) <= ctx.seconds
    ):
        began = time.perf_counter()
        unit()
        durations.append(time.perf_counter() - began)
    return durations


def vm_hwm_mb() -> float:
    """This process's peak resident set, in MiB, from /proc."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")
