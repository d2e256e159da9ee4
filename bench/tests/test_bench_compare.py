import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from fairbench import compare  # noqa: E402

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_claim_wins_when_nine_tenths_of_pairs_win_beyond_the_spread():
    change = [v - 1.0 for v in PARENT]
    change[0] = PARENT[0] + 0.5  # one lost pair of ten is allowed
    assert compare.claim_verdict(PARENT, change, "lower")[0] == "win"


def test_claim_not_met_on_too_few_wins_small_gain_or_few_pairs():
    two_losses = [v - 1.0 for v in PARENT]
    two_losses[0] = two_losses[1] = 11.0
    assert compare.claim_verdict(PARENT, two_losses, "lower")[0] == "not met"
    within_spread = [v - 0.01 for v in PARENT]  # wins every pair, gain inside the IQR
    assert compare.claim_verdict(PARENT, within_spread, "lower")[0] == "not met"
    assert compare.claim_verdict(PARENT[:5], [v - 1 for v in PARENT[:5]], "lower")[0] == "not met"
    higher_is_better = [v + 1.0 for v in PARENT]
    assert compare.claim_verdict(PARENT, higher_is_better, "higher")[0] == "win"


def test_regression_beyond_the_bound():
    worse = [v * 1.2 for v in PARENT]
    assert compare.regression_verdict(PARENT, worse, "lower", 0.1)[0] == "regression"
    slightly_worse = [v * 1.05 for v in PARENT]
    assert compare.regression_verdict(PARENT, slightly_worse, "lower", 0.1)[0] == "ok"


def test_unresolved_when_the_spread_is_wider_than_the_bound():
    noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.regression_verdict(noisy, PARENT, "lower", 0.1)[0] == "unresolved"
    # unless every change run beats every parent run
    assert compare.regression_verdict(noisy, [4.0] * 10, "lower", 0.1)[0] == "ok"


def _write_runs(path, workload, values, failed=0, seconds=35.0):
    lines = [json.dumps({"workload": workload, "seed": seed, "seconds": seconds, "trace": False,
                         "correct": not failed, "attempted": 3, "failed": failed,
                         "metrics": {"sweep_s": {"value": v, "unit": "s"},
                                     "setup_s": {"value": 0.2, "unit": "s"}}})
             for seed, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")


def test_compare_command_verdicts(tmp_path, capsys):
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps({"end_to_end": [
        {"name": "sweep_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]}))
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    _write_runs(parent, "knn-greedy", PARENT)
    _write_runs(change, "knn-greedy", [v - 2.0 for v in PARENT])
    assert compare.compare(parent, change, spec, "sweep_s", "knn-greedy") == 0
    assert "claim win" in capsys.readouterr().out

    assert compare.compare(parent, change, spec, "sweep_s", "nmf-random-wide") == 1
    assert "claim not evaluated" in capsys.readouterr().out

    _write_runs(change, "knn-greedy", [v * 1.3 for v in PARENT])
    assert compare.compare(parent, change, spec) == 1
    assert "regression" in capsys.readouterr().out

    _write_runs(change, "knn-greedy", PARENT, failed=1)
    assert compare.compare(parent, change, spec) == 1
    out = capsys.readouterr().out
    assert "failed_share" in out and "regression" in out


def test_compare_refuses_runs_of_different_lengths(tmp_path):
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps({"end_to_end": []}))
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    _write_runs(parent, "knn-greedy", PARENT)
    _write_runs(change, "knn-greedy", PARENT, seconds=10.0)
    with pytest.raises(ValueError, match="--seconds"):
        compare.compare(parent, change, spec)
