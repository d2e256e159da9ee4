import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from fairbench import layers  # noqa: E402
from fairbench.spans import Span, Tracer, self_times  # noqa: E402


def span(name, start, end, parent=None):
    return Span(name, start, end, parent, "job1")


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("sweep.run_sweep", 1.0, 9.0, parent=0),
        span("predictors.predict_nmf", 2.0, 6.0, parent=1),
        span("predictors.fit_nmf", 2.5, 5.5, parent=2),
        span("reranking.top_k", 6.0, 7.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([2.0, 3.0, 1.0, 3.0, 1.0])
    # the self times of all spans add up to the root's duration
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_clips_children_and_merges_overlap():
    spans = [
        span("a", 0.0, 4.0),
        span("b", 1.0, 3.0, parent=0),
        span("c", 2.0, 5.0, parent=0),  # overlaps b and runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_records_parent_error_and_counts():
    ticks = iter(range(100))
    tracer = Tracer("job7", clock=lambda: float(next(ticks)))

    def hook(counts, args, kwargs, result):
        counts["seen"] = counts.get("seen", 0) + result

    inner = tracer.wrap("inner", lambda x: x * 2, hook=hook)

    def fail():
        raise ValueError("boom")

    outer = tracer.wrap("outer", lambda: inner(3) + inner(4))
    failing = tracer.wrap("failing", fail)
    assert outer() == 14
    with pytest.raises(ValueError):
        failing()
    names = [(s.name, s.parent, s.error, s.job) for s in tracer.spans]
    assert names == [("outer", None, False, "job7"), ("inner", 0, False, "job7"),
                     ("inner", 0, False, "job7"), ("failing", None, True, "job7")]
    assert tracer.counts == {"seen": 14}


def test_failing_count_hook_is_noted_not_raised():
    tracer = Tracer("job1")
    wrapped = tracer.wrap("f", lambda: 1, hook=lambda *a: 1 / 0)
    assert wrapped() == 1
    assert "ZeroDivisionError" in tracer.notes[0]


def test_summarize_fills_every_function_and_the_ratios():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("dataset.load_ratings", 1.0, 3.0, parent=0),
        span("reranking.greedy_rerank", 4.0, 5.0, parent=0),
    ]
    counts = {"ratings": 1000, "reranking.greedy_rerank.achieved": 30,
              "reranking.greedy_rerank.theta": 40}
    figures = layers.summarize(spans, counts)
    assert figures["dataset.load_ratings.ratings_per_s"] == pytest.approx(500.0)
    assert figures["reranking.greedy_rerank.achieved_per_theta"] == pytest.approx(0.75)
    assert figures["predictors.predict_knn.calls"] == 0
    assert figures["reranking.rerank.busy_s"] == pytest.approx(1.0)
    assert figures["cli.main.self_s"] == pytest.approx(7.0)
    assert figures["dataset.self_s"] == pytest.approx(2.0)
    assert figures["trace.self_sum_s"] == pytest.approx(10.0)
    reported = set(layers.reported_metrics()) - {"trace.traced_sweep_s", "trace.overhead_s"}
    assert reported <= set(figures)
