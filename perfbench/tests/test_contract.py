"""The command's output format, at smoke scale (seconds per workload)."""

import json
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import run as bench
from perfbench.host import steal_share
from perfbench.spec import ROOT, WORKLOADS, load_spec
from perfbench.tracer import Tracer

SPEC = load_spec()


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


def test_benchmark_file_names_the_runnable_workloads():
    assert SPEC["workloads"] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m.name: m.unit for m in wanted
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        if not trace:
            assert metric["value"] > 0, name
            # Human lines name each metric with its unit and sample count.
            assert f"  {name} = " in done.stdout and "(n=" in done.stdout
    if workload == "serve-mixed" and not trace:
        for name in ("query_p50_ms", "write_p50_ms", "query_p99_ms", "self_hit1"):
            assert f"  {name} = " in done.stdout, name
        assert "reported, not gated" in done.stdout


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    started = time.monotonic()
    done = _run(tmp_path, "--workload", "offline-100k", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert time.monotonic() - started < 180
    assert '"correct"' not in done.stdout


def test_only_outermost_calls_count_as_attributed():
    tracer = Tracer()

    class Layer:
        def outer(self):
            time.sleep(0.02)
            self.inner()

        def inner(self):
            time.sleep(0.02)

    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    Layer().outer()
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert tracer.seconds["outer"] >= tracer.seconds["inner"] >= 0.02
    assert tracer.top_level_seconds == tracer.seconds["outer"]


def test_steal_share_is_the_steal_delta_over_all_jiffies():
    before = [100, 0, 50, 800, 0, 0, 0, 50, 0, 0]
    after = [200, 0, 100, 1600, 0, 0, 0, 100, 0, 0]
    assert steal_share(before, after) == pytest.approx(50 / 1000)
    assert steal_share([], after) is None


def _record(workload, seed, values):
    return {
        "workload": workload, "seed": seed,
        "stamp": {"steal_share": 0.01}, "notes": {},
        "reported": {"query_p50_ms": {"value": 10.0 + seed, "unit": "ms", "samples": 9}},
        "metrics": {m.name: {"value": values.get(m.name, 1.0), "unit": m.unit, "samples": 5}
                    for m in SPEC["end_to_end"]},
    }


def test_summary_names_the_metric_outside_its_bound(capsys):
    records = [_record("campaign", seed, {"work_s": 1.0 + 0.3 * (seed % 2)})
               for seed in range(6)]
    outside = bench.summarize(records, SPEC)
    assert outside == ["campaign/work_s"]
    printed = capsys.readouterr().out
    assert "work_s" in printed and "OUTSIDE BOUND" in printed
    assert "query_p50_ms" in printed  # ungated numbers are summarized too


def test_summary_names_a_wide_setup_spread_as_not_gated(capsys):
    records = [_record("campaign", seed, {"setup_s": 1.0 + 0.3 * (seed % 2)})
               for seed in range(6)]
    assert bench.summarize(records, SPEC) == ["campaign/setup_s (not gated)"]
    assert "OUTSIDE BOUND (spread not gated; median is)" in capsys.readouterr().out
