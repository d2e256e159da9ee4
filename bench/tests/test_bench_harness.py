import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from fairbench import harness, layers  # noqa: E402
from fairbench.workloads import WORKLOADS, Shape, Workload, synthetic_triples  # noqa: E402


def test_generator_draws_the_same_ratings_as_the_test_suite():
    path = BENCH.parent / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("fairrec_tests_conftest", path)
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    for shape, seed in ((Shape(60, 80, 10, 28), 7), (Shape(40, 300, 3, 9), 3)):
        ours = synthetic_triples(shape, seed)
        theirs = conftest.synthetic_triples(shape.n_users, shape.n_items, seed,
                                            shape.min_per_user, shape.max_per_user)
        assert np.array_equal(ours, np.asarray(theirs))


def test_benchmark_json_lists_the_metrics_the_harness_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.reported_metrics()
    assert [m["name"] for m in spec["end_to_end"]] == ["sweep_s", "setup_s", "peak_rss_mb"]


def test_each_workload_reports_only_the_functions_it_calls():
    for workload in WORKLOADS.values():
        assert all(any(f in workload.expected for f in members)
                   for members in layers.ROLES.values())
        figures = layers.workload_metrics(workload.expected)
        for f in layers.FUNCTIONS:
            assert (f"{f}.busy_s" in figures) == (f in workload.expected)
        assert ("predictors.save_score_cache.bytes" in figures) == (workload.name == "cache-resweep")


@pytest.fixture
def tiny(tmp_path):
    workload = Workload(
        name="tiny", why="test", shape=Shape(30, 40, 8, 15),
        calls=({"predictor": "nmf", "nmf_epochs": "3", "post": "greedy", "k": "3",
                "theta": "2,5", "threshold": "1.0", "cache": "true"},) * 2,
        expected=WORKLOADS["cache-resweep"].expected,
    )
    inputs = harness.prepare_inputs(workload, 5, tmp_path)
    return workload, inputs, harness.Runner(harness.ROOT, tmp_path)


def _job(runner, inputs, tmp_path, name, trace):
    out = tmp_path / f"{name}-out"
    calls = [["run", "--config", cfg, "--out", str(out)] for cfg in inputs["configs"]]
    return runner.spawn(name, calls, trace, out, timeout=60)


def test_traced_child_job_fires_every_expected_span(tiny, tmp_path):
    workload, inputs, runner = tiny
    assert inputs["grid_points"] == 4
    result = _job(runner, inputs, tmp_path, "job1", trace=True)
    assert result["codes"] == [0, 0] and result["setup_s"] > 0
    assert harness.check_job(result, workload, 5, inputs["items"], None) == []
    spans = [layers.Span(**s) for s in result["trace"]["spans"]]
    figures = layers.summarize(spans, result["trace"]["counts"])
    assert all(figures[f"{f}.calls"] > 0 for f in workload.expected)
    assert figures["predictors.pairs_scored"] == inputs["candidate_pairs"]
    assert figures["reranking.greedy_rerank.theta"] == 14
    assert figures["trace.self_sum_s"] == pytest.approx(result["sweep_s"], rel=0.05)

    repeat = _job(runner, inputs, tmp_path, "job2", trace=False)
    assert harness.check_job(repeat, workload, 5, inputs["items"], result) == []
    repeat["hashes"][0]["results.csv"] = "0" * 64
    assert harness.check_job(repeat, workload, 5, inputs["items"], result) == [
        "call 1: results.csv differs from the first job's"
    ]
