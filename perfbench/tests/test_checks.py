"""Each correctness check passes on good output and fails when that
output is deliberately corrupted."""

from types import SimpleNamespace

import numpy as np
import pytest

from perfbench.campaign import check_campaign
from perfbench.offline import HITS1_TOLERANCE, check_offline
from perfbench.serve import StreamFacts, check_serve, self_ranking, stream_facts


def failing(checks):
    return {check.name for check in checks if not check.ok}


# -- offline-100k ---------------------------------------------------------


@pytest.fixture
def greedy_output():
    n = 50
    rng = np.random.default_rng(3)
    top1 = np.arange(n)
    top1[rng.choice(n, 5, replace=False)] = rng.integers(0, n, 5)
    pairs = np.stack([np.arange(n), top1], axis=1)
    hits1 = float(np.mean(top1 == np.arange(n)))
    return pairs, top1, n, hits1


def test_offline_clean_output_passes(greedy_output):
    pairs, top1, n, hits1 = greedy_output
    assert failing(check_offline(pairs, top1, n, hits1, hits1)) == set()


def test_offline_shuffled_pairs_fail(greedy_output):
    pairs, top1, n, hits1 = greedy_output
    shuffled = pairs.copy()
    shuffled[:, 1] = np.random.default_rng(0).permutation(shuffled[:, 1])
    assert "offline.greedy_takes_top_candidate" in failing(
        check_offline(shuffled, top1, n, hits1, hits1)
    )


def test_offline_dropped_pair_fails(greedy_output):
    pairs, top1, n, hits1 = greedy_output
    assert "offline.one_pair_per_row" in failing(
        check_offline(pairs[1:], top1, n, hits1, hits1)
    )


def test_offline_hits1_off_the_seed_value_fails(greedy_output):
    pairs, top1, n, hits1 = greedy_output
    off = hits1 - 2 * HITS1_TOLERANCE
    assert "offline.hits1_matches_seed" in failing(check_offline(pairs, top1, n, off, hits1))
    assert "offline.hits1_floor" in failing(check_offline(pairs, top1, n, 0.5, None))


# -- campaign ---------------------------------------------------------------


def _campaign(degraded=None, failed=None, drift_ok=True):
    from repro.core.registry import PAPER_MATCHERS

    config = SimpleNamespace(preset="p", input_regime="r", matchers=PAPER_MATCHERS)
    runs = {name: SimpleNamespace(degraded=name == degraded) for name in PAPER_MATCHERS
            if name != failed}
    failures = {failed: object()} if failed else {}
    result = SimpleNamespace(runs=runs, failures=failures)
    drift = SimpleNamespace(ok=drift_ok, describe=lambda: "drift")
    return [config], [result], [], drift


def test_campaign_clean_sweep_passes():
    assert failing(check_campaign(*_campaign())) == set()


@pytest.mark.parametrize("corruption", [{"degraded": "Sink."}, {"failed": "Hun."}])
def test_campaign_failed_or_degraded_cell_fails(corruption):
    assert "campaign.no_failed_or_degraded_cell" in failing(
        check_campaign(*_campaign(**corruption))
    )


def test_campaign_crashed_cell_fails():
    configs, _, _, drift = _campaign()
    checks = check_campaign(configs, [None], [(configs[0], "ValueError: boom")], drift)
    assert "campaign.no_failed_or_degraded_cell" in failing(checks)


def test_campaign_drift_violation_fails():
    """A real drift check over the committed reference: records at the
    reference values pass; one F1 pushed out of its band fails."""
    from repro.obs.drift import check_drift, load_reference

    from perfbench.campaign import REFERENCE_FILE

    reference = load_reference(REFERENCE_FILE)
    records = []
    for key, cell in reference["cells"].items():
        preset, regime, matcher = key.split("|")
        records.append({
            "preset": preset, "regime": regime, "matcher": matcher, "status": "ok",
            "metrics": {"f1": cell["metrics"]["f1"]},
            "ranking": {"hits@1": cell["metrics"].get("hits@1", 0.0)},
        })
    configs, results, errors, _ = _campaign()
    assert failing(check_campaign(configs, results, errors,
                                  check_drift(records, reference))) == set()
    records[0] = dict(records[0], metrics={"f1": records[0]["metrics"]["f1"] - 0.2})
    assert "campaign.drift_within_reference_bands" in failing(
        check_campaign(configs, results, errors, check_drift(records, reference))
    )


# -- serve-mixed -------------------------------------------------------------


def _facts(**changes):
    facts = StreamFacts(scheduled=10, completed=10, errors=0, timeouts=0,
                        max_version_lag=0, live_inserted={100, 101}, deleted={102})
    for name, value in changes.items():
        setattr(facts, name, value)
    return facts


GOOD_PROBES = {100: (200, 100), 101: (200, 101), 102: (404, None)}


def test_serve_clean_stream_passes():
    assert failing(check_serve(_facts(), GOOD_PROBES)) == set()


def test_serve_dropped_insert_fails():
    probes = {**GOOD_PROBES, 101: (404, None)}
    assert failing(check_serve(_facts(), probes)) == {"serve.inserts_queryable_and_self_ranked"}


def test_serve_insert_not_ranked_first_fails():
    probes = {**GOOD_PROBES, 100: (200, 7)}
    assert failing(check_serve(_facts(), probes)) == {"serve.inserts_queryable_and_self_ranked"}


def test_serve_deleted_id_still_answering_fails():
    probes = {**GOOD_PROBES, 102: (200, 102)}
    assert failing(check_serve(_facts(), probes)) == {"serve.deleted_ids_answer_404"}


@pytest.mark.parametrize("probe, ok", [((404, None), True), ((200, 103), True),
                                       ((200, 7), False), ((500, None), False)])
def test_serve_raced_id_must_be_deleted_or_self_ranked(probe, ok):
    checks = check_serve(_facts(raced={103}), {**GOOD_PROBES, 103: probe})
    assert failing(checks) == (set() if ok else {"serve.raced_ids_deleted_or_self_ranked"})


@pytest.mark.parametrize("changes, name", [
    ({"errors": 1}, "serve.zero_errors_and_timeouts"),
    ({"timeouts": 1}, "serve.zero_errors_and_timeouts"),
    ({"max_version_lag": 1}, "serve.max_version_lag_zero"),
    ({"completed": 9}, "serve.all_requests_completed"),
])
def test_serve_stream_faults_fail(changes, name):
    assert name in failing(check_serve(_facts(**changes), GOOD_PROBES))


def _request(kind, entity_id, arrival):
    return SimpleNamespace(kind=kind, entity_id=entity_id, arrival=arrival)


def _outcome(status="ok", latency=0.01, dispatch_lag=0.0):
    return SimpleNamespace(status=status, latency=latency, dispatch_lag=dispatch_lag)


def test_stream_facts_take_writes_from_request_ids_and_ok_statuses():
    report = SimpleNamespace(scheduled=6, completed=6, errors=1, timeouts=0, max_version_lag=0)
    records = [
        (_request("insert", 100, 0.0), _outcome()),
        (_request("insert", 101, 0.1), _outcome()),
        (_request("insert", 102, 0.2), _outcome(latency=0.05)),  # acked at 0.25
        (_request("insert", 103, 0.3), _outcome(status="error")),
        (_request("delete", 101, 0.5), _outcome()),
        # Sent at 0.21, before its insert was acknowledged: either may win.
        (_request("delete", 102, 0.2), _outcome(dispatch_lag=0.01)),
    ]
    facts = stream_facts(report, records)
    assert facts.live_inserted == {100}
    assert facts.deleted == {101}
    assert facts.raced == {102}
    assert facts.errors == 1


def test_serve_hits1_is_the_share_of_surviving_inserts_ranked_first():
    assert self_ranking(_facts(), GOOD_PROBES) == (1.0, 1.0, 2)
    hits1, f1, n = self_ranking(_facts(), {**GOOD_PROBES, 101: (200, 7)})
    assert (hits1, n) == (0.5, 2) and f1 == pytest.approx(0.5)
