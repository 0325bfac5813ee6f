"""campaign: the paper's matcher campaign on trained embeddings.

All seven matchers at scale 1.0 over four seeded cells — Table 6
(``dwy100k/dbp_wd`` on RREA), the paper's second encoder
(``dwy100k/dbp_yg`` on GCN), Table 7's unmatchable entities
(``dbp15k_plus/zh_en``) and Table 8's non-1-to-1 links
(``fb_dbp_mul``) — plus the three drift-reference configs pinned to
seed 0 as a correctness probe.  Set-up is dataset generation and real
encoder training for every cell; the work is the matcher sweep, which
runs through ``run_experiment`` with the set-up's embeddings.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from repro.core.registry import PAPER_MATCHERS, create_matcher
from repro.datasets import load_preset
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.regimes import build_embeddings
from repro.obs.drift import check_drift, load_reference, reference_configs
from repro.obs.ledger import RunLedger
from repro.similarity.engine import SimilarityEngine

from perfbench.common import Check, Context, Outcome, median, timed_repeats, vm_hwm_mb
from perfbench.spec import ROOT

SEEDED_CELLS = (
    ("dwy100k/dbp_wd", "rrea"),
    ("dwy100k/dbp_yg", "gcn"),
    ("dbp15k_plus/zh_en", "rrea"),
    ("fb_dbp_mul", "rrea"),
)
SMOKE_SCALE = 0.1
SETUP_REPEATS = 5
REFERENCE_FILE = ROOT / "benchmarks" / "results" / "REFERENCE_accuracy.json"
#: Paper matcher name -> layer tag in the per-layer metric names.
MATCHER_TAGS = {
    "DInf": "dinf", "CSLS": "csls", "RInf": "rinf", "Sink.": "sinkhorn",
    "Hun.": "hungarian", "SMat": "smat", "RL": "rl",
}


def cell_configs(seed: int, smoke: bool) -> list[tuple]:
    """``(config, dataset seed)`` per cell: the seeded cells draw a new
    dataset from ``seed``; the drift-reference cells keep the preset's
    own dataset seed (``None``), as the reference was built."""
    scale = SMOKE_SCALE if smoke else 1.0
    seeded = [
        (ExperimentConfig(preset=preset, input_regime=regime, scale=scale, seed=seed), seed)
        for preset, regime in SEEDED_CELLS
    ]
    return seeded + [(config, None) for config in reference_configs()]


def check_campaign(configs, results, errors, drift_report) -> list[Check]:
    """No cell fails or degrades, and the drift cells stay in their bands."""
    bad = [f"{config.preset}/{config.input_regime}: {error}"
           for config, error in errors]
    for config, result in zip(configs, results):
        if result is None:
            continue
        for name in config.matchers:
            run = result.runs.get(name)
            if run is None or run.degraded or name in result.failures:
                bad.append(f"{config.preset}/{config.input_regime}/{name}")
    expected = len(configs) * len(PAPER_MATCHERS)
    return [
        Check("campaign.no_failed_or_degraded_cell", not bad,
              f"{expected} runs; bad: {bad[:5]}"),
        Check("campaign.drift_within_reference_bands", drift_report.ok,
              drift_report.describe().replace("\n", "; ")),
    ]


def _tracing_factory(tracer):
    def factory(name: str, **kwargs):
        matcher = create_matcher(name, **kwargs)
        tag = MATCHER_TAGS[name]
        tracer.wrap(matcher, "match", f"core.{tag}.match")
        if hasattr(matcher, "fit"):
            tracer.wrap(matcher, "fit", f"core.{tag}.fit")
        return matcher

    return factory


def install_tracing(tracer) -> None:
    tracer.wrap(SimilarityEngine, "similarity", "similarity.engine")


def run(ctx: Context) -> Outcome:
    tracer = ctx.tracer

    def span(name: str):
        return tracer.span(name) if tracer is not None else nullcontext()

    cells = cell_configs(ctx.seed, ctx.smoke)
    configs = [config for config, _ in cells]
    out = Outcome()
    setups: list[float] = []
    prepared: list = []
    for _ in range(ctx.setup_repeats):
        start = time.perf_counter()
        prepared = []
        for config, dataset_seed in cells:
            with span("datasets.generate"):
                task = load_preset(config.preset, scale=config.scale, seed=dataset_seed)
            with span("embedding.encode"):
                embeddings = build_embeddings(
                    task, config.input_regime, seed=config.seed, preset_name=config.preset
                )
            prepared.append((task, embeddings))
        setups.append(time.perf_counter() - start)

    def prepared_embeddings(task, input_regime, seed=0, preset_name=None):
        for (known_task, embeddings), config in zip(prepared, configs):
            if task is known_task:
                if (input_regime, seed, preset_name) != (
                    config.input_regime, config.seed, config.preset
                ):
                    raise RuntimeError(f"unexpected embedding request for {preset_name}")
                return embeddings
        raise RuntimeError("run_experiment asked for embeddings of an unknown task")

    ledger = RunLedger(ctx.workdir / "campaign.jsonl")
    factory = _tracing_factory(tracer) if tracer is not None else None
    sweep: dict = {}

    def unit() -> None:
        results, errors, cache = [], [], {"hits": 0, "misses": 0, "computations": 0}
        for config, (task, _) in zip(configs, prepared):
            engine = SimilarityEngine()
            try:
                results.append(runner.run_experiment(
                    config, task=task, engine=engine, ledger=ledger,
                    matcher_factory=factory,
                ))
            except Exception as error:  # noqa: BLE001 - counted as a failed cell
                results.append(None)
                errors.append((config, f"{type(error).__name__}: {error}"))
            finally:
                info = engine.cache_info()
                for key in cache:
                    cache[key] += int(info[key])
                engine.close()
        sweep.update(results=results, errors=errors, cache=cache)

    original = runner.build_embeddings
    runner.build_embeddings = prepared_embeddings
    traced0 = tracer.top_level_seconds if tracer is not None else 0.0
    cpu0 = time.process_time()
    try:
        durations = timed_repeats(ctx, unit)
    finally:
        runner.build_embeddings = original
    cpu = time.process_time() - cpu0
    out.work_seconds = median(durations)

    results, errors = sweep["results"], sweep["errors"]
    done = [result for result in results if result is not None]
    runs = [run for result in done for run in result.runs.values()]
    drift = check_drift(ledger.records(), load_reference(REFERENCE_FILE))
    space_hits1 = sum(result.ranking.get("hits@1", 0.0) for result in done) / max(1, len(done))
    n_runs = len(configs) * len(configs[0].matchers)

    out.put("setup_s", median(setups), len(setups))
    out.put("work_s", out.work_seconds, len(durations))
    out.put("peak_rss_mb", vm_hwm_mb(), 1)
    out.put("hits1", space_hits1, len(done))
    out.put("f1", sum(run.f1 for run in runs) / max(1, len(runs)), len(runs))
    out.put("cpu_ms_per_req", 1e3 * cpu / max(1, len(runs) * len(durations)), len(runs))
    out.attempted = n_runs
    out.checks.extend(check_campaign(configs, results, errors, drift))
    out.failed = (n_runs - len(runs)) + sum(run.degraded for run in runs) + len(drift.violations)
    out.notes["cells"] = [f"{c.preset}/{c.input_regime}@seed{c.seed}" for c in configs]

    if tracer is not None:
        t = tracer
        out.layers.update({
            "datasets.generate_s": t.seconds.get("datasets.generate", 0.0),
            "embedding.encode_s": t.seconds.get("embedding.encode", 0.0),
            "similarity.engine_s": t.seconds.get("similarity.engine", 0.0),
            "similarity.cache_hits": sweep["cache"]["hits"],
            "similarity.cache_misses": sweep["cache"]["misses"],
            "similarity.computations": sweep["cache"]["computations"],
            "workload.unattributed_s": sum(durations) - (t.top_level_seconds - traced0),
        })
        for tag in MATCHER_TAGS.values():
            out.layers[f"core.{tag}.match_s"] = t.seconds.get(f"core.{tag}.match", 0.0)
        out.layers["core.rl.fit_s"] = t.seconds.get("core.rl.fit", 0.0)
    return out
