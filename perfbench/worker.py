"""One workload run, inside a process with BLAS pinned to one thread.

    python3 -m perfbench.worker --workload NAME --seed N --seconds S \\
        --trace 0|1 --workdir DIR [--smoke]

Prints one JSON record as the last line of stdout (progress goes to
stderr).  ``perfbench/run.py`` starts it; run it directly only to debug
one workload.

A traced run makes two passes in this process: an untraced reference
pass, then the pass with layer wrappers installed.  The difference in
their time is ``workload.trace_overhead_frac``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path

from perfbench import host
from perfbench.common import Context, Outcome
from perfbench.spec import ROOT, WORKLOADS, load_spec
from perfbench.tracer import Tracer


def _overhead(name: str, reference: Outcome, traced: Outcome) -> float:
    """Traced time against untraced time, minus one.

    serve-mixed runs a fixed schedule, so its wall time cannot show the
    wrappers' cost; the daemon's CPU per request does.
    """
    if name == "serve-mixed":
        base = reference.metrics["cpu_ms_per_req"][0]
        return traced.metrics["cpu_ms_per_req"][0] / base - 1.0 if base else 0.0
    base = reference.work_seconds
    return traced.work_seconds / base - 1.0 if base else 0.0


def run(args: argparse.Namespace) -> dict:
    spec = load_spec()
    module = importlib.import_module(WORKLOADS[args.workload])
    cpu_before = host.cpu_times()
    started = time.perf_counter()

    def context(**extra) -> Context:
        return Context(seed=args.seed, seconds=args.seconds, workdir=args.workdir,
                       smoke=args.smoke, **extra)

    if not args.trace:
        outcome = module.run(context(setup_repeats=module.SETUP_REPEATS))
        metrics = {
            m.name: {"value": outcome.metrics[m.name][0], "unit": m.unit,
                     "samples": outcome.metrics[m.name][1]}
            for m in spec["end_to_end"]
        }
        passes = [outcome]
    else:
        shared: dict = {}
        reference = module.run(context(setup_repeats=1, shared=shared))
        tracer = Tracer()
        module.install_tracing(tracer)
        traced = module.run(context(setup_repeats=1, tracer=tracer, shared=shared))
        traced.layers["workload.trace_overhead_frac"] = _overhead(args.workload, reference, traced)
        metrics, idle = {}, []
        for m in spec["per_layer"]:
            if m.name not in traced.layers:
                idle.append(m.name)
            metrics[m.name] = {"value": float(traced.layers.get(m.name, 0.0)), "unit": m.unit}
        traced.notes["idle_layers"] = idle
        traced.notes["reference_pass_metrics"] = {
            name: value for name, (value, _) in reference.metrics.items()
        }
        passes = [reference, traced]
        for label, outcome in (("reference", reference), ("traced", traced)):
            for check in outcome.checks:
                check.name = f"{label}/{check.name}"

    last = passes[-1]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "correct": all(p.correct for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
        "checks": [
            {"name": c.name, "ok": c.ok, "detail": c.detail} for p in passes for c in p.checks
        ],
        "reported": {name: {"value": value, "unit": unit, "samples": samples}
                     for name, (value, unit, samples) in last.reported.items()},
        "notes": last.notes,
        "elapsed_s": time.perf_counter() - started,
        "stamp": host.stamp(ROOT, cpu_before),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    unpinned = {k: os.environ.get(k) for k, v in host.PINNED_ENV.items()
                if os.environ.get(k) != v}
    if unpinned:
        print(f"perfbench.worker: BLAS threads not pinned: {unpinned}", file=sys.stderr)
        return 2
    args.workdir.mkdir(parents=True, exist_ok=True)
    record = run(args)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
