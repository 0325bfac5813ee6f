"""The repository benchmark: one command, three seeded workloads.

One run::

    python3 perfbench/run.py --workload offline-100k --seed 1 --seconds 10 --trace 0

prints every end-to-end metric by name with its unit and sample count
(``--trace 1``: every per-layer metric instead), the correctness checks
and a host stamp, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits
non-zero if a correctness check fails or the run does not finish.

Every workload, untraced, over several seeds, with a spread summary::

    python3 perfbench/run.py --all --runs 5

See README.md for the workloads, the metrics and the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.host import pinned_env  # noqa: E402
from perfbench.spec import BENCHMARK_FILE, ROOT, SRC, WORKLOADS, load_spec  # noqa: E402

#: A run must end within 180 s; the worker is killed a little before.
RUN_TIMEOUT = 170.0
SCRATCH = ROOT / ".perfbench"
#: Set-up time's spread is not gated, but its median is compared across
#: sets of runs, so a wide spread is still named, marked as not gated.
SPREAD_NOT_GATED = {"setup_s"}


class RunFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               smoke: bool = False, timeout: float = RUN_TIMEOUT) -> dict:
    """Run one workload in a pinned child process; return its record."""
    workdir = SCRATCH / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    env = pinned_env()
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(SRC)])
    command = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", str(workdir)] + (["--smoke"] if smoke else [])
    # Own session, so one signal stops the worker and any daemon it left.
    process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
    if stdout is None:
        raise RunFailed(f"{workload} seed {seed}: no result within {timeout:.0f}s")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if process.returncode != 0 or not lines:
        raise RunFailed(f"{workload} seed {seed}: worker exited {process.returncode}")
    return json.loads(lines[-1])


def validate(record: dict, spec: dict) -> None:
    """The record carries exactly the metrics BENCHMARK.json lists for its mode."""
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    missing = [m.name for m in wanted if m.name not in record["metrics"]]
    extra = sorted(set(record["metrics"]) - {m.name for m in wanted})
    if missing or extra:
        raise RunFailed(f"metric set mismatch: missing {missing}, unexpected {extra}")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_run(record: dict) -> None:
    head = f"{record['workload']} seed={record['seed']} trace={record['trace']}"
    print(f"== {head} elapsed={record['elapsed_s']:.1f}s")
    for name, metric in record["metrics"].items():
        samples = metric.get("samples")
        suffix = f"  (n={samples})" if samples is not None else ""
        print(f"  {name} = {_fmt(metric['value'])} {metric['unit']}{suffix}")
    for check in record["checks"]:
        print(f"  check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")
    for name, metric in record["reported"].items():
        print(f"  {name} = {_fmt(metric['value'])} {metric['unit']}  "
              f"(n={metric['samples']}, reported, not gated)")
    notes = record["notes"]
    if "p50_ms_by_kind" in notes:
        print("  p50 by request kind (ms): " + ", ".join(
            f"{kind}={_fmt(value)}" for kind, value in notes["p50_ms_by_kind"].items()))
    if "loadgen.dispatch_lag_max_ms" in notes:
        print(f"  loadgen.dispatch_lag_max_ms = {_fmt(notes['loadgen.dispatch_lag_max_ms'])} ms")
        if notes.get("loadgen.behind_schedule"):
            print("  FLAG: the load generator fell behind its schedule by more than "
                  "the query p50; this run's latencies are suspect")
    if notes.get("idle_layers"):
        print("  not run by this workload, so reported as 0: "
              + ", ".join(notes["idle_layers"]))
    shown = {"p50_ms_by_kind", "idle_layers",
             "loadgen.dispatch_lag_max_ms", "loadgen.behind_schedule"}
    for key, value in notes.items():
        if key not in shown:
            print(f"  note {key} = {json.dumps(value, sort_keys=True)}")
    print(f"  stamp {json.dumps(record['stamp'], sort_keys=True)}")


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in record["metrics"].items()},
    })


def _row(name: str, values: list[float], samples: float, bound: float | None) -> str:
    mid = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
    spread = (q3 - q1) / abs(mid) if mid else float("inf")
    deviation = max(abs(v - mid) for v in values) / abs(mid) if mid else float("inf")
    shown = "  -   " if bound is None else f"{bound:6.3f}"
    flag = "  OUTSIDE BOUND" if bound is not None and spread > bound else ""
    return (f"  {name:16} {_fmt(mid):>12} {_fmt(q1):>12} {_fmt(q3):>12} {spread:8.4f} "
            f"{deviation:8.4f} {shown} {len(values):4d} {samples:8g}{flag}")


def summarize(records: list[dict], spec: dict) -> list[str]:
    """Per workload and end-to-end metric: median, quartiles, spread,
    largest deviation, run and sample counts.  Returns (and marks) every
    metric whose spread exceeds its bound, ``setup_s`` marked as not
    gated; ungated numbers follow with no bound."""
    outside = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == workload]
        print(f"== summary {workload}: {len(runs)} runs, seeds "
              f"{[r['seed'] for r in runs]}")
        steal = [r["stamp"]["steal_share"] for r in runs if r["stamp"]["steal_share"] is not None]
        if steal:
            print(f"  steal share: median {statistics.median(steal):.3f} max {max(steal):.3f}")
        behind = sum(bool(r["notes"].get("loadgen.behind_schedule")) for r in runs)
        if behind:
            print(f"  load generator behind schedule (FLAG) in {behind} of {len(runs)} runs")
        print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'max dev':>8} {'bound':>6} {'runs':>4} {'samples':>8}")
        for metric in spec["end_to_end"]:
            row = _row(metric.name, [r["metrics"][metric.name]["value"] for r in runs],
                       statistics.median(r["metrics"][metric.name]["samples"] for r in runs),
                       metric.bound)
            if row.endswith("OUTSIDE BOUND"):
                ungated = metric.name in SPREAD_NOT_GATED
                row += " (spread not gated; median is)" if ungated else ""
                outside.append(f"{workload}/{metric.name}" + (" (not gated)" if ungated else ""))
            print(row)
        for name in runs[0]["reported"]:
            print(_row(name, [r["reported"][name]["value"] for r in runs],
                       statistics.median(r["reported"][name]["samples"] for r in runs), None))
    return outside


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload (or --workloads) over --runs seeds")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not BENCHMARK_FILE.is_file() or not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: need {BENCHMARK_FILE.name} and "
              f"src/repro under {ROOT}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if not args.all:
        if args.workload is None:
            parser.error("--workload is required without --all")
        try:
            record = run_worker(args.workload, args.seed, seconds, args.trace, args.smoke)
            validate(record, spec)
        except RunFailed as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
        print_run(record)
        print(result_line(record), flush=True)
        return 0 if record["correct"] else 1

    workloads = [name for name in args.workloads.split(",") if name]
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}")
    records, broken = [], []
    for workload in workloads:
        for seed in range(args.seed, args.seed + args.runs):
            try:
                record = run_worker(workload, seed, seconds, args.trace, args.smoke)
                validate(record, spec)
            except RunFailed as error:
                broken.append(str(error))
                print(f"perfbench: {error}", file=sys.stderr)
                continue
            print_run(record)
            records.append(record)
            if not record["correct"]:
                broken.append(f"{workload} seed {seed}: correctness check failed")
    outside = summarize(records, spec) if records and not args.trace else []
    if outside:
        print(f"spread outside its bound: {', '.join(outside)}")
    for problem in broken:
        print(f"FAILED: {problem}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
