import logging
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fairrec
from fairrec import (GreedyParams, InvalidInputError, KnnParams, NmfParams, RandomParams, build_config,
                     emit_plot_data, run_sweep, save_score_cache, sweep)
from fairrec.cli import _build_parser, main
from fairrec.metrics import RESULTS_HEADER
from fairrec.predictors import _workers
from fairrec.sweep import SweepConfig, read_config_file


def small_cfg(synthetic_file, out_dir, **kw):
    defaults = dict(
        data=synthetic_file,
        predictor="knn",
        post="none",
        k=3,
        ell=(4, 8),
        theta=(1, 4),
        seed=11,
        out=out_dir,
        nmf_factors=4,
        nmf_epochs=10,
    )
    defaults.update(kw)
    return SweepConfig(**defaults)


# -------------------------------------------------------------- config ----

def test_read_config_file(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        """
        # experiment settings
        data = ratings.data
        predictor = nmf
        post = random
        k = 5
        ell = 10,50,100,500
        threshold = 3.5
        seed = 42
        out = results  # inline comment
        cache = true
        """
    )
    overrides = read_config_file(path)
    assert overrides["predictor"] == "nmf"
    assert overrides["ell"] == (10, 50, 100, 500)
    assert overrides["k"] == 5
    assert overrides["cache"] is True
    assert str(overrides["out"]) == "results"


def test_read_config_drops_a_byte_order_mark(tmp_path):
    # some editors save UTF-8 with a leading BOM, which is no part of the first key
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfk = 3\n")
    assert read_config_file(path) == {"k": 3}


@pytest.mark.parametrize("line", ['out = "res#1"', "out = 'res#1'", 'out="res#1"  # a comment'])
def test_read_config_keeps_a_hash_inside_quotes(tmp_path, line):
    # cutting the comment first read these as out = "res, which wrote to res/
    path = tmp_path / "sweep.cfg"
    path.write_text(f"{line}\n")
    assert read_config_file(path) == {"out": Path("res#1")}


def test_read_config_cuts_a_comment_after_a_quoted_value(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text('out = "results"  # "quoted" note\npredictor = \'nmf\'# note = x\n')
    assert read_config_file(path) == {"out": Path("results"), "predictor": "nmf"}


@pytest.mark.parametrize("line", ["k 5", 'out = "res', 'out = "res" extra', "k = 5\"", "out = res'", 'out = a""'])
def test_read_config_rejects_a_line_not_of_the_key_value_form(tmp_path, line):
    # all but the first were read, as res, res" extra, 5, res and a: a stray quote went unnoticed
    path = tmp_path / "sweep.cfg"
    path.write_text(f"seed = 1\n{line}\n")
    with pytest.raises(InvalidInputError, match=r"sweep.cfg:2: expected 'key = value'$"):
        read_config_file(path)


def test_read_config_keeps_a_quote_inside_a_bare_value(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("out = it's  # a comment\n")
    assert read_config_file(path) == {"out": Path("it's")}


def test_read_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("bogus = 1\n")
    with pytest.raises(InvalidInputError, match="bogus"):
        read_config_file(path)


def test_read_config_rejects_a_repeated_key_naming_both_lines(tmp_path):
    # taking either value would silently drop the other
    path = tmp_path / "sweep.cfg"
    path.write_text("k = 5\n# a comment\nseed = 1\nk = 10\n")
    with pytest.raises(InvalidInputError, match=r"sweep.cfg:4: config key 'k' repeats line 1$"):
        read_config_file(path)


def test_read_config_rejects_bad_boolean(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("cache = maybe\n")
    with pytest.raises(InvalidInputError):
        read_config_file(path)


@pytest.mark.parametrize("line, message", [
    ("cache = maybe", "config key 'cache' expects a boolean, got 'maybe'"),
    ("k = 2.5", "config key 'k' expects an integer >= 1, got '2.5'"),
    ("threshold = high", "config key 'threshold' expects a number in [1, 5], got 'high'"),
    ("theta = 10,x", "config key 'theta' expects a tuple of integers >= 0, got '10,x'"),
    # int() and float() alone read these as 10, 3, (10, 20), (10,), 3.5 and 35
    ("k = 1_0", "config key 'k' expects an integer >= 1, got '1_0'"),
    ("seed = \u0663", "config key 'seed' expects an integer >= 0, got '\u0663'"),
    ("ell = 1_0,2_0", "config key 'ell' expects a tuple of integers >= 1, got '1_0,2_0'"),
    ("theta = \uff11\uff10", "config key 'theta' expects a tuple of integers >= 0, got '\uff11\uff10'"),
    ("threshold = \uff13.5", "config key 'threshold' expects a number in [1, 5], got '\uff13.5'"),
    ("threshold = 3_5", "config key 'threshold' expects a number in [1, 5], got '3_5'"),
])
def test_read_config_type_errors_name_the_bad_value(tmp_path, line, message):
    path = tmp_path / "sweep.cfg"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(InvalidInputError) as info:
        read_config_file(path)
    assert str(info.value) == message


@pytest.mark.parametrize("flag, value", [
    ("--k", "1_0"), ("--seed", "\u0663"), ("--threshold", "\uff13.5"), ("--threshold", "3_5"),
])
def test_cli_number_flags_reject_separators_and_non_ascii_digits(flag, value, tmp_path, capsys):
    # a flag value is read exactly as the same config file value is
    path = tmp_path / "sweep.cfg"
    path.write_text(f"{flag[2:]} = {value}\n", encoding="utf-8")
    with pytest.raises(InvalidInputError) as info:
        read_config_file(path)
    assert main(["run", flag, value, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"fairrec: error: {info.value}\n"


@pytest.mark.parametrize("flag", ["--ell", "--theta"])
def test_cli_reports_bad_grid_flag(flag, tmp_path, capsys):
    bound = {"--ell": 1, "--theta": 0}[flag]
    assert main(["run", flag, "1_0,x", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"fairrec: error: config key '{flag[2:]}' expects a tuple of integers >= {bound}, got '1_0,x'\n"
    )


def test_read_config_rejects_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "sweep.cfg"
    path.write_bytes(b"k = 3\n\xff\xfe\x00binary\n")
    with pytest.raises(InvalidInputError, match="not UTF-8"):
        read_config_file(path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("fairrec: error:")


def test_build_config_overrides_beat_file(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("k = 3\npredictor = nmf\n")
    cfg = build_config(path, k=2)
    assert cfg.k == 2
    assert cfg.predictor == "nmf"


def test_build_config_reads_string_keywords_as_config_values(synthetic_file, tmp_path):
    typed = build_config(data=synthetic_file, post="greedy", k=3, theta=(1, 4), threshold=3.0,
                         per_user=True, out=tmp_path / "typed")
    texts = build_config(data=str(synthetic_file), post="greedy", k="3", theta="1,4",
                         threshold="3.0", per_user="true", out=str(tmp_path / "texts"))
    assert texts == replace(typed, out=tmp_path / "texts")
    for cfg in (typed, texts):
        run_sweep(cfg)
    files = sorted(p.name for p in typed.out.iterdir())
    assert files == sorted(p.name for p in texts.out.iterdir())
    assert all((typed.out / f).read_bytes() == (texts.out / f).read_bytes() for f in files)


def test_numpy_integer_settings_write_the_same_files(synthetic_file, tmp_path):
    plain = build_config(data=synthetic_file, post="greedy", k=3, theta=(10,), seed=1, per_user=True,
                         out=tmp_path / "plain")
    numpy = build_config(data=synthetic_file, post="greedy", k=np.int64(3), theta=(np.int64(10),),
                         seed=np.int64(1), per_user=True, out=tmp_path / "numpy")
    for cfg in (plain, numpy):
        run_sweep(cfg)
    files = sorted(p.name for p in plain.out.iterdir())
    assert "results.csv" in files and files == sorted(p.name for p in numpy.out.iterdir())
    assert all((plain.out / f).read_bytes() == (numpy.out / f).read_bytes() for f in files)


def test_build_config_rejects_an_unknown_keyword():
    with pytest.raises(InvalidInputError, match=r"^unknown config fields: \['bogus'\]$"):
        build_config(bogus=1)


def test_build_config_rejects_a_bad_string_keyword():
    with pytest.raises(InvalidInputError, match="config key 'k' expects an integer >= 1, got 'x'"):
        build_config(k="x")


@pytest.mark.parametrize("key", ["data", "out"])
@pytest.mark.parametrize("value", ["", "  "])
def test_blank_path_values_are_rejected(key, value, tmp_path, capsys):
    # Path("") is the working directory, where a blank out would write the results
    message = f"config key {key!r} expects a path, got {value!r}"
    with pytest.raises(InvalidInputError) as info:
        build_config(**{key: value})
    assert str(info.value) == message
    path = tmp_path / "sweep.cfg"
    path.write_text(f"{key} = '{value}'\n")
    with pytest.raises(InvalidInputError, match=f"config key {key!r} expects a path"):
        read_config_file(path)
    assert main(["run", f"--{key}", value]) == 2
    assert capsys.readouterr().err == f"fairrec: error: {message}\n"


def _other_value(field) -> str:
    """Config file text for a valid value of the field other than its default."""
    default = field.default
    if isinstance(default, bool):
        return "true"
    if isinstance(default, (int, float)):
        return str(default + 1)
    if isinstance(default, tuple):
        return ",".join(str(v + 1) for v in default)
    if isinstance(default, Path):
        return f"{default}.other"
    return {"predictor": "nmf", "post": "greedy"}[field.name]


def test_every_run_flag_is_a_field():
    dests = set(vars(_build_parser().parse_args(["run"]))) - {"command", "config"}
    assert dests <= {f.name for f in fields(SweepConfig)}


@pytest.mark.parametrize("field", fields(SweepConfig), ids=lambda f: f.name)
def test_each_setting_has_one_name(field, tmp_path, monkeypatch):
    # the field name is the config key and, where a flag exists, the flag's dest
    text = _other_value(field)
    path = tmp_path / "sweep.cfg"
    path.write_text(f"{field.name} = {text}\n")
    from_file = read_config_file(path)[field.name]
    assert type(from_file) is type(field.default)
    assert from_file != field.default

    captured = []
    monkeypatch.setattr("fairrec.cli.run_sweep", lambda cfg: captured.append(cfg) or [])
    assert main(["run", "--config", str(path)]) == 0
    assert captured == [SweepConfig(**{field.name: from_file})]
    if field.name in vars(_build_parser().parse_args(["run"])):
        flag = "--" + field.name.replace("_", "-")
        assert main(["run", flag] if isinstance(field.default, bool) else ["run", flag, text]) == 0
        assert captured[1] == captured[0]


def test_config_validation_errors():
    with pytest.raises(InvalidInputError):
        SweepConfig(predictor="svd")
    with pytest.raises(InvalidInputError):
        SweepConfig(post="mmr")
    with pytest.raises(InvalidInputError):
        SweepConfig(k=0)
    with pytest.raises(InvalidInputError):
        SweepConfig(post="random", ell=())
    with pytest.raises(InvalidInputError):
        SweepConfig(post="greedy", theta=())
    # every grid value and hyperparameter is checked before any work starts
    with pytest.raises(InvalidInputError, match="ell=4 must be >= k=5"):
        SweepConfig(post="random", k=5, ell=(10, 4))
    with pytest.raises(InvalidInputError, match=r"^ell must be a tuple of integers >= 1, got \(10, 0\)$"):
        SweepConfig(post="random", ell=(10, 0))
    with pytest.raises(InvalidInputError, match=r"^theta must be a tuple of integers >= 0, got \(10, -1\)$"):
        SweepConfig(post="greedy", theta=(10, -1))
    for threshold in (0.5, 5.5):
        with pytest.raises(InvalidInputError, match=rf"^threshold must be a number in \[1, 5\], got {threshold}$"):
            SweepConfig(post="greedy", threshold=threshold)
    with pytest.raises(InvalidInputError, match="^knn_neighbors must be an integer >= 1, got 0$"):
        SweepConfig(predictor="knn", knn_neighbors=0)
    with pytest.raises(InvalidInputError, match="^knn_min_overlap must be an integer >= 1, got 0$"):
        SweepConfig(predictor="knn", knn_min_overlap=0)
    with pytest.raises(InvalidInputError, match="^nmf_factors must be an integer >= 1, got 0$"):
        SweepConfig(predictor="nmf", nmf_factors=0)
    with pytest.raises(InvalidInputError, match="^nmf_epochs must be an integer >= 0, got -1$"):
        SweepConfig(predictor="nmf", nmf_epochs=-1)
    # a grid that the selected post-processor does not use is checked too
    with pytest.raises(InvalidInputError, match=r"^ell must be a tuple of integers >= 1, got \(0,\)$"):
        SweepConfig(post="greedy", ell=(0,))


# each config field that a run passes on to a parameter class, and the field it fills
FEEDS = [("knn_neighbors", KnnParams, "n_neighbors"), ("knn_min_overlap", KnnParams, "min_overlap"),
         ("nmf_factors", NmfParams, "n_factors"), ("nmf_epochs", NmfParams, "n_epochs"),
         ("seed", NmfParams, "seed"), ("seed", RandomParams, "seed"), ("ell", RandomParams, "ell"),
         ("theta", GreedyParams, "theta"), ("threshold", GreedyParams, "threshold")]


@pytest.mark.parametrize("key, params, name", FEEDS, ids=[f"{key}-{name}" for key, _, name in FEEDS])
def test_each_setting_carries_the_annotation_of_the_params_field_it_feeds(key, params, name):
    # the config checks each field by its annotation, so a config that builds
    # always builds the params of its fit and of every grid point
    annotation = {f.name: f.type for f in fields(params)}[name]
    if key == "theta":  # a grid: one params object per value; Random takes its whole grid
        annotation = f"tuple[{annotation}, ...]"
    assert {f.name: f.type for f in fields(SweepConfig)}[key] == annotation


def test_a_setting_out_of_range_is_rejected_though_the_run_does_not_use_it(tmp_path, capsys):
    # each field is checked whatever predictor and post-processor run, naming the config key
    for settings, key, value, noun in [
        ({"predictor": "knn"}, "nmf_factors", 0, "an integer >= 1"),
        ({"predictor": "nmf"}, "knn_neighbors", 0, "an integer >= 1"),
        ({"post": "none"}, "threshold", 7, "a number in [1, 5]"),
    ]:
        for make in (SweepConfig, build_config):
            with pytest.raises(InvalidInputError) as info:
                make(**settings, **{key: value})
            assert str(info.value) == f"{key} must be {noun}, got {value!r}"
        path = tmp_path / "sweep.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in {**settings, key: value}.items()))
        read = read_config_file(path)[key]  # 7.0 for the threshold, a number field
        message = f"{key} must be {noun}, got {read!r}"
        with pytest.raises(InvalidInputError) as info:
            build_config(path)
        assert str(info.value) == message
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"fairrec: error: {message}\n"
        assert not out.exists()
    # a rule between fields applies only to the post-processor that uses it:
    # the default l grid holds 10 < k, but greedy does not read it
    assert SweepConfig(post="greedy", k=20).ell == (10, 50, 100, 500)


WRONG_TYPES = [
    ("k", True, "k must be an integer >= 1, got True"),
    ("k", 2.7, "k must be an integer >= 1, got 2.7"),
    ("seed", 1.0, "seed must be an integer >= 0, got 1.0"),
    ("ell", (10, "x"), "ell must be a tuple of integers >= 1, got (10, 'x')"),
    ("ell", [10, 50], "ell must be a tuple of integers >= 1, got [10, 50]"),
    ("out", "r", "out must be a path, got 'r'"),
]


@pytest.mark.parametrize("field, value, message", WRONG_TYPES,
                         ids=[f"{field}={value!r}" for field, value, _ in WRONG_TYPES])
def test_config_rejects_a_value_of_the_wrong_type(field, value, message):
    with pytest.raises(InvalidInputError) as info:
        SweepConfig(**{field: value})
    assert str(info.value) == message
    if isinstance(value, str):  # build_config reads a string keyword as config file text
        assert build_config(**{field: value}) == SweepConfig(**{field: Path(value)})
    else:
        with pytest.raises(InvalidInputError) as info:
            build_config(**{field: value})
        assert str(info.value) == message


def test_config_takes_an_integer_threshold_and_cannot_change():
    cfg = build_config(threshold=4)
    assert cfg == SweepConfig(threshold=4)
    with pytest.raises(FrozenInstanceError):
        cfg.k = 3


# --------------------------------------------------------------- sweep ----

def test_baseline_run_has_zero_disparity(synthetic_file, tmp_path, capsys):
    reports = run_sweep(small_cfg(synthetic_file, tmp_path / "out"))
    assert capsys.readouterr().out == ""  # only the CLI prints the summaries
    assert len(reports) == 1
    baseline = reports[0]
    assert baseline.post == "none"
    assert baseline.param == 0
    assert baseline.score_disparity == 0.0
    assert baseline.recommendation_disparity == 0.0
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert lines[0] == RESULTS_HEADER
    assert len(lines) == 2


def test_random_with_ell_equal_k_matches_baseline(synthetic_file, tmp_path):
    cfg = small_cfg(synthetic_file, tmp_path / "out", post="random", ell=(3,))
    reports = run_sweep(cfg)
    baseline, point = reports
    assert point.aggregate_diversity == baseline.aggregate_diversity
    assert point.score_disparity == 0.0
    assert point.recommendation_disparity == 0.0


def test_random_grid_emits_one_report_per_point(synthetic_file, tmp_path):
    cfg = small_cfg(synthetic_file, tmp_path / "out", post="random")
    reports = run_sweep(cfg)
    assert [r.param for r in reports] == [0, 4, 8]
    assert all(r.post == "random" for r in reports[1:])
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert len(lines) == 4


def test_random_sweep_reads_an_ell_beyond_int64_as_every_candidate(
    synthetic_file, synthetic_dataset, tmp_path
):
    # min(l, n_items) is taken in Python, so numpy never sees an l past int64
    n_items = synthetic_dataset.n_items
    every = small_cfg(synthetic_file, tmp_path / "every", post="random", ell=(n_items,))
    _, expected = run_sweep(every)
    _, got = run_sweep(replace(every, ell=(10**21,), out=tmp_path / "huge"))
    assert got.param == 10**21
    assert np.array_equal(got.overlap, expected.overlap)
    assert (got.aggregate_diversity, got.score_disparity, got.recommendation_disparity) == (
        expected.aggregate_diversity, expected.score_disparity, expected.recommendation_disparity)


def test_greedy_grid_reports_achieved_increase(synthetic_file, tmp_path):
    cfg = small_cfg(synthetic_file, tmp_path / "out", post="greedy", theta=(1, 4, 1000))
    reports = run_sweep(cfg)
    assert reports[0].achieved is None
    greedy = reports[1:]
    assert [r.param for r in greedy] == [1, 4, 1000]
    assert greedy[0].achieved == 1
    assert greedy[1].achieved <= 4
    # an oversized theta stops early and reports what it managed
    assert greedy[2].achieved < 1000
    aggs = [r.aggregate_diversity for r in greedy]
    assert aggs == sorted(aggs)


def test_a_greedy_sweep_walks_once_and_each_point_equals_a_one_theta_sweep(
        synthetic_file, tmp_path, monkeypatch, caplog):
    # one walk to the largest theta serves a grid out of order with a repeat: every
    # other point's call is cut from it; its counter line comes first, then each
    # other point's, each one a one-theta sweep's own
    walks = []

    def counted(graph, base, params, walk=None):
        walks.append((params, walk is None))
        return fairrec.greedy_rerank(graph, base, params, walk=walk)

    def sweep_at(grid, out):
        walks.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="fairrec.reranking"):
            run_sweep(small_cfg(synthetic_file, out, post="greedy", theta=grid, threshold=3.0))
        rows = (out / "results.csv").read_text().splitlines()[2:]
        return walks[:], rows, [r.getMessage() for r in caplog.records if r.name == "fairrec.reranking"]

    monkeypatch.setattr(sweep, "greedy_rerank", counted)
    grid = (20, 5, 60, 5)
    calls, rows, lines = sweep_at(grid, tmp_path / "grid")
    assert calls == [(GreedyParams(theta=theta, threshold=3.0), theta == 60) for theta in (60, 20, 5, 5)]
    alone = {theta: sweep_at((theta,), tmp_path / f"theta{theta}") for theta in set(grid)}
    assert all(len(walked) == len(row) == len(line) == 1 for walked, row, line in alone.values())
    assert rows == [alone[theta][1][0] for theta in grid] and len(set(rows)) == 3
    assert lines == [alone[theta][2][0] for theta in (60, 20, 5, 5)]


def test_greedy_sweep_regression_lock(synthetic_file, tmp_path):
    # exact outputs frozen after a run whose structure was verified by the
    # invariant tests (monotone diversity, exact achieved counts)
    cfg = small_cfg(
        synthetic_file, tmp_path / "out", post="greedy", theta=(1, 4, 50), seed=9
    )
    run_sweep(cfg)
    assert (tmp_path / "out" / "results.csv").read_text() == (
        "predictor,post,param,k,agg_div,d_s,d_r\n"
        "knn,none,0,3,0.262500,0.000000,0.000000\n"
        "knn,greedy,1,3,0.275000,0.000109,0.005493\n"
        "knn,greedy,4,3,0.312500,0.000678,0.021780\n"
        "knn,greedy,50,3,0.862500,0.027808,0.258838\n"
    )


def test_random_sweep_regression_lock(synthetic_file, tmp_path):
    # exact outputs frozen from the per-user-loop implementation of Random;
    # ell=60 exceeds some users' candidate counts, so their draw is truncated
    cfg = small_cfg(synthetic_file, tmp_path / "out", post="random", ell=(3, 8, 60), seed=9)
    run_sweep(cfg)
    assert (tmp_path / "out" / "results.csv").read_text() == (
        "predictor,post,param,k,agg_div,d_s,d_r\n"
        "knn,none,0,3,0.262500,0.000000,0.000000\n"
        "knn,random,3,3,0.262500,0.000000,0.000000\n"
        "knn,random,8,3,0.337500,0.013023,0.336190\n"
        "knn,random,60,3,0.887500,0.048501,0.900000\n"
    )


def test_nmf_sweep_with_cache(synthetic_file, tmp_path):
    out = tmp_path / "out"
    cfg = small_cfg(
        synthetic_file, out, predictor="nmf", post="random", ell=(4,), cache=True
    )
    reports = run_sweep(cfg)
    assert len(list(out.glob("scores_nmf_*.npy"))) == 1
    assert reports[0].predictor == "nmf"
    assert reports[0].score_disparity == 0.0
    first = (out / "results.csv").read_bytes()
    run_sweep(cfg)
    assert (out / "results.csv").read_bytes() == first


def test_sweep_when_no_user_has_neighbors(tmp_path):
    # two users with disjoint rated items: knn falls back to each user's
    # mean everywhere and the harness still produces a clean baseline
    data = tmp_path / "disjoint.data"
    lines = [f"1 {i} {r} 0\n" for i, r in zip((1, 2, 3, 4), (1, 2, 4, 5))]
    lines += [f"2 {i} 4 0\n" for i in (5, 6, 7, 8)]
    data.write_text("".join(lines))
    cfg = SweepConfig(
        data=data, predictor="knn", post="random", k=2, ell=(3,),
        seed=0, out=tmp_path / "out",
    )
    reports = run_sweep(cfg)
    assert len(reports) == 2
    assert reports[0].score_disparity == 0.0
    assert reports[0].recommendation_disparity == 0.0


def test_sweep_is_deterministic_byte_for_byte(synthetic_file, tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = small_cfg(synthetic_file, out, post="random", svg=True, per_user=True)
        run_sweep(cfg)
        files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        outputs.append({str(p): (out / p).read_bytes() for p in files})
    assert outputs[0].keys() == outputs[1].keys()
    for name, blob in outputs[0].items():
        assert blob == outputs[1][name], f"{name} differs between identical runs"


def test_sweep_cache_round_trip_is_stable(synthetic_file, tmp_path):
    out = tmp_path / "out"
    cfg = small_cfg(synthetic_file, out, post="greedy", cache=True)
    run_sweep(cfg)
    assert len(list(out.glob("scores_knn_*.npy"))) == 1
    first = (out / "results.csv").read_bytes()

    run_sweep(cfg)  # warm: loads the cache instead of refitting
    assert (out / "results.csv").read_bytes() == first


def test_sweep_passes_the_cache_path_by_keyword(synthetic_file, tmp_path, monkeypatch):
    # the traced benchmark reads the written file's path from the call's keywords
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        save_score_cache(*args, **kwargs)

    monkeypatch.setattr("fairrec.sweep.save_score_cache", record)
    run_sweep(small_cfg(synthetic_file, tmp_path / "out", cache=True))
    [(args, kwargs)] = calls
    assert len(args) == 1 and set(kwargs) == {"path"}
    assert kwargs["path"].is_file()


def test_cached_and_uncached_runs_write_identical_files(synthetic_file, tmp_path, monkeypatch):
    def outputs(out, **kw):
        cfg = small_cfg(synthetic_file, out, predictor="nmf", post="greedy", per_user=True, **kw)
        run_sweep(cfg)
        return {p.name: p.read_bytes() for p in out.iterdir() if not p.name.startswith("scores_")}

    fresh = outputs(tmp_path / "fresh", cache=True)
    with monkeypatch.context() as patch:
        patch.setattr("fairrec.sweep.predict_nmf", lambda *a: pytest.fail("refit on a cache hit"))
        assert outputs(tmp_path / "fresh", cache=True) == fresh
    assert outputs(tmp_path / "plain") == fresh
    assert len(list((tmp_path / "fresh").glob("scores_nmf_*.npy"))) == 1

    # a changed hyperparameter refits into its own cache file instead of loading the old one
    refit = outputs(tmp_path / "fresh", cache=True, nmf_epochs=3)
    assert len(list((tmp_path / "fresh").glob("scores_nmf_*.npy"))) == 2
    assert refit == outputs(tmp_path / "plain3", nmf_epochs=3)
    assert refit["results.csv"] != fresh["results.csv"]


def _cache_name(synthetic_file, out, **kw) -> str:
    run_sweep(small_cfg(synthetic_file, out, cache=True, **kw))
    [path] = out.glob("scores_*.npy")
    return path.name


# the settings each predictor's fit reads, each with a value other than small_cfg's
FIT_SETTINGS = {"knn": {"knn_neighbors": 7, "knn_min_overlap": 2},
                "nmf": {"nmf_factors": 3, "nmf_epochs": 3, "seed": 12}}


@pytest.mark.parametrize("predictor", FIT_SETTINGS)
def test_each_setting_of_a_fit_and_no_other_changes_its_cache_file(synthetic_file, tmp_path, predictor):
    # a changed setting refits into its own file instead of loading a stale one;
    # a setting the fit does not read finds the same file
    base = _cache_name(synthetic_file, tmp_path / "base", predictor=predictor)
    names = {base}
    for key, value in FIT_SETTINGS[predictor].items():
        names.add(_cache_name(synthetic_file, tmp_path / key, predictor=predictor, **{key: value}))
    assert len(names) == 1 + len(FIT_SETTINGS[predictor])
    other = "nmf" if predictor == "knn" else "knn"
    for key, value in FIT_SETTINGS[other].items():
        assert _cache_name(synthetic_file, tmp_path / f"unread-{key}", predictor=predictor, **{key: value}) == base


def test_cache_file_names_are_locked(synthetic_file, tmp_path):
    # a cache written by an earlier version is found again only while its name holds
    for predictor, name in [("knn", "scores_knn_e3719d3ed9c83526.npy"), ("nmf", "scores_nmf_f4d5eea06f079bac.npy")]:
        out = tmp_path / predictor
        run_sweep(build_config(data=synthetic_file, predictor=predictor, k=3, cache=True, out=out))
        assert [p.name for p in out.glob("scores_*")] == [name]


def test_per_user_files_written(synthetic_file, tmp_path):
    out = tmp_path / "out"
    cfg = small_cfg(synthetic_file, out, post="random", ell=(4,), per_user=True)
    run_sweep(cfg)
    baseline = out / "per_user__none__0.csv"
    point = out / "per_user__random__4.csv"
    assert baseline.read_text().splitlines()[0] == "user,satisfaction,overlap"
    assert len(point.read_text().splitlines()) == 61  # header + 60 users


def test_emit_plot_data_row_counts(synthetic_file, tmp_path):
    cfg = small_cfg(synthetic_file, tmp_path / "runa", post="random")
    reports = run_sweep(cfg)

    single = emit_plot_data(reports[:1], tmp_path / "one")
    rows = [
        line
        for line in single[0].read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert len(rows) == 1

    out_dir = tmp_path / "many"
    paths = emit_plot_data(reports, out_dir)
    assert sorted(p.name for p in paths) == [
        "random__knn__recommendation_disparity.dat",
        "random__knn__score_disparity.dat",
    ]
    text = paths[0].read_text()
    data_rows = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert len(data_rows) == 3  # baseline + 2 grid points
    assert "baseline" in text

    again = emit_plot_data(reports, tmp_path / "again")
    assert again[0].read_bytes() == paths[0].read_bytes()


def test_emit_plot_data_rejects_no_reports(tmp_path):
    with pytest.raises(InvalidInputError, match="^no reports to plot$"):
        emit_plot_data([], tmp_path / "none")
    assert not (tmp_path / "none").exists()


def test_emit_plot_data_rejects_reports_of_two_sweeps(synthetic_file, tmp_path):
    # one file per metric is named for one predictor and one post-processor
    reports = run_sweep(small_cfg(synthetic_file, tmp_path / "run", post="random"))
    for other in (replace(reports[1], predictor="nmf"), replace(reports[1], post="greedy")):
        with pytest.raises(InvalidInputError, match="one predictor, one post-processor"):
            emit_plot_data(reports + [other], tmp_path / "mixed")
    assert not (tmp_path / "mixed").exists()


# ----------------------------------------------------------------- cli ----

def test_cli_run_with_config_file(synthetic_file, tmp_path, capsys):
    cfg_file = tmp_path / "sweep.cfg"
    out = tmp_path / "out"
    cfg_file.write_text(
        f"data = {synthetic_file}\npost = random\nell = 3,6\nk = 3\nout = {out}\nseed = 1\n"
    )
    assert main(["run", "--config", str(cfg_file)]) == 0
    assert (out / "results.csv").exists()
    stdout = capsys.readouterr().out
    assert len(stdout.splitlines()) == 3  # one summary line per report
    assert "agg_div=" in stdout
    assert "D_S=" in stdout


def _run_python(script, *args):
    """Run ``python -c script args`` on this fairrec, its stdout and stderr captured as text."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(fairrec.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, check=True)


def test_a_sweep_imports_no_masked_array_module(synthetic_file, tmp_path):
    # numpy.ma is a lazy numpy submodule; no report or writer needs it, so a
    # whole sweep loads none of it beyond what importing the CLI loaded
    script = (
        "import sys\n"
        "import fairrec.cli\n"
        "masked = lambda: {name for name in sys.modules if name.split('.')[:2] == ['numpy', 'ma']}\n"
        "before = masked()\n"
        "code = fairrec.cli.main(sys.argv[1:])\n"
        "print(code, sorted(masked() - before))\n"
    )
    args = ["run", "--data", str(synthetic_file), "--post", "greedy", "--k", "3", "--theta", "1,4", "--per-user",
            "--out", str(tmp_path / "out")]
    run = _run_python(script, *args)
    assert run.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "greedy__knn__score_disparity.dat").exists()


@pytest.mark.parametrize("predictor, fit_line", [
    ("knn", "predict_knn: 0 of "),
    ("nmf", "predict_nmf: squared-error loss "),
])
def test_verbose_logs_the_fit_to_stderr_and_changes_no_file(predictor, fit_line, synthetic_file, tmp_path, capsys):
    # -v shows the fit's DEBUG lines (its blocks and threads, KNN's fallback count
    # or NMF's loss, then the clamp count), greedy's counters and each stage's time and peak RSS on
    # stderr; every file in out, cache included, is the same without it
    stage = re.compile(r"fairrec\.sweep: run_sweep: (.+): \d+\.\d{3} s, peak RSS \d+\.\d MB")

    def shape(lines):  # a stage line by its stage alone, as its time and RSS vary
        return [m[1] if (m := stage.fullmatch(line)) else line for line in lines]

    def run(out, *flags):
        args = ["run", *flags, "--data", str(synthetic_file), "--predictor", predictor, "--post", "greedy",
                "--k", "3", "--theta", "4", "--per-user", "--cache", "--out", str(out)]
        assert main(args) == 0
        logged = [line for line in capsys.readouterr().err.splitlines() if line.startswith("fairrec")]
        return shape(logged), {p.name: p.read_bytes() for p in out.iterdir()}

    quiet_logged, quiet_files = run(tmp_path / "quiet")
    logged, files = run(tmp_path / "verbose", "-v")
    assert quiet_logged == []
    assert logged[0] == "read"
    fitted, rest = logged[1:-6], logged[-6:]
    blocks = {
        "nmf": "fit_nmf: 1 user blocks and 1 item blocks of at least 60 rows on 1 threads",
        "knn": f"predict_knn order: 1 user blocks of at most 60 rows, int16 ids, on {_workers(80)} threads",
    }
    assert fitted[:-2] == [f"fairrec.predictors: {blocks[predictor]}"]
    assert fitted[-2].startswith(f"fairrec.predictors: {fit_line}")
    assert fitted[-1].startswith("fairrec.predictors: score graph: ")
    assert rest[0] == "scores"
    assert rest[1].startswith("fairrec.reranking: greedy_rerank: theta=4: 4 items introduced, ")
    assert rest[2:] == ["order", "none 0", "greedy 4", "write"]
    assert files == quiet_files
    # a cache hit recomputes no fit-only figure, so -v then logs greedy's line unchanged, and the stages
    assert run(tmp_path / "verbose", "-v") == (logged[:1] + rest, files)


def test_greedy_walks_every_theta_in_the_order_stage(synthetic_file, tmp_path, capsys):
    # every theta's lists are drawn before any report, out-of-order grid and all,
    # so each greedy stage line times only its report; -v changes no result
    def run(out, *flags):
        args = ["run", *flags, "--data", str(synthetic_file), "--post", "greedy", "--k", "3", "--theta", "20,5",
                "--out", str(out)]
        assert main(args) == 0
        err = capsys.readouterr().err.splitlines()
        return [line for line in err if line.startswith("fairrec.")], (out / "results.csv").read_bytes()

    logged, results = run(tmp_path / "verbose", "-v")
    walks = [n for n, line in enumerate(logged) if line.startswith("fairrec.reranking: greedy_rerank: ")]
    stages = {m[1]: n for n, line in enumerate(logged)
              if (m := re.fullmatch(r"fairrec\.sweep: run_sweep: (.+): \d+\.\d{3} s, .*", line))}
    assert [logged[n].split(": ")[2] for n in walks] == ["theta=20", "theta=5"]
    assert list(stages) == ["read", "scores", "order", "none 0", "greedy 20", "greedy 5", "write"]
    assert stages["scores"] < walks[0] and walks[-1] < stages["order"]
    assert run(tmp_path / "quiet") == ([], results)


def test_each_stage_line_times_its_own_stage(synthetic_file, tmp_path, monkeypatch, caplog):
    # a clock that reads 0, 1, 4, 9, ...: each stage since the last mark took 1, 3, 5, ... s
    ticks = iter(range(100))
    monkeypatch.setattr(sweep, "time", SimpleNamespace(perf_counter=lambda: next(ticks) ** 2))
    caplog.set_level(logging.DEBUG, logger="fairrec.sweep")
    run_sweep(small_cfg(synthetic_file, tmp_path / "out", post="random"))
    lines = [record.getMessage() for record in caplog.records if record.name == "fairrec.sweep"]
    stages = ["read", "scores", "order", "none 0", "random 4", "random 8", "write"]
    assert [line.split(",")[0] for line in lines] == [
        f"run_sweep: {stage}: {2 * n + 1}.000 s" for n, stage in enumerate(stages)]
    assert all(float(line.split("peak RSS ")[1].removesuffix(" MB")) > 0 for line in lines)


@pytest.mark.skipif(sys.platform != "linux", reason="the run's own peak is read from Linux's /proc")
def test_stage_lines_read_the_runs_own_peak_not_its_parents(tmp_path):
    # Linux carries ru_maxrss across exec, so a run spawned by a process that
    # once held about 300 MB read that peak at every stage; VmHWM is the run's own
    ratings = tmp_path / "ratings.data"
    ratings.write_text("".join(f"{u} {i} {1 + (u + i) % 5} 0\n"
                               for u in range(1, 9) for i in range(1, 13) if (u + i) % 3))
    script = (
        "import subprocess, sys\n"
        "ballast = b'x' * (300 << 20)\n"
        "del ballast\n"
        "sys.exit(subprocess.run([sys.executable, '-m', 'fairrec', *sys.argv[1:]]).returncode)\n"
    )
    args = ["run", "-v", "--data", str(ratings), "--k", "2", "--out", str(tmp_path / "out")]
    run = _run_python(script, *args)
    stage = re.compile(r"^fairrec\.sweep: run_sweep: .+, peak RSS (\d+\.\d) MB$", re.M)
    peaks = [float(peak) for peak in stage.findall(run.stderr)]
    assert len(peaks) == 5  # read, scores, order, none 0, write
    assert max(peaks) < 200


def test_cli_flags_override_config(synthetic_file, tmp_path):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(f"data = {synthetic_file}\nk = 3\npost = none\n")
    out = tmp_path / "cli_out"
    code = main(
        ["run", "--config", str(cfg_file), "--k", "4", "--out", str(out), "--predictor", "knn"]
    )
    assert code == 0
    row = (out / "results.csv").read_text().splitlines()[1]
    assert row.split(",")[3] == "4"


def test_cli_reports_missing_data_file(tmp_path, capsys):
    code = main(["run", "--data", str(tmp_path / "absent.data"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lines, message",
    [
        (["1 10 4 0\n", "2 10 3 0\n", "1 10 5 0\n"], "line 3: duplicate rating for user 1, item 10"),
        (["1 10 4 0\n", "2 10 6 0\n"], "line 2: rating 6 outside [1, 5]"),
        (["1 10 4 0\n", "1 20 3 0\n", "2 10 5 0\n"], "user 1 has only 0 candidates, needs k=1"),
    ],
    ids=["repeat", "rating", "shortfall"],
)
def test_a_rejected_ratings_file_leaves_no_output_directory(lines, message, tmp_path, capsys):
    data = tmp_path / "ratings.data"
    data.write_text("".join(lines), encoding="ascii")
    out = tmp_path / "out"
    assert main(["run", "--data", str(data), "--k", "1", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_reports_invalid_config(synthetic_file, tmp_path, capsys):
    code = main(
        ["run", "--data", str(synthetic_file), "--post", "random", "--ell", "2",
         "--k", "5", "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_rejects_bad_grid_before_writing_cache(synthetic_file, tmp_path, capsys):
    out = tmp_path / "o"
    code = main(
        ["run", "--data", str(synthetic_file), "--predictor", "nmf", "--post", "random",
         "--ell", "10,2", "--k", "3", "--cache", "--out", str(out)]
    )
    assert code == 2
    assert "ell=2 must be >= k=3" in capsys.readouterr().err
    assert not list(out.glob("scores_*"))


def test_cli_rejects_unknown_choice(synthetic_file, tmp_path, capsys):
    # a flag is read as a config value is, so SweepConfig's one check answers both routes
    out = tmp_path / "o"
    for flag, value, noun in [("--predictor", "svd++", "predictor"), ("--post", "Greedy", "post-processor")]:
        assert main(["run", "--data", str(synthetic_file), flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"fairrec: error: unknown {noun} {value!r}\n"
        assert not out.exists()
    config = tmp_path / "sweep.cfg"
    config.write_text(f"data = {synthetic_file}\npredictor = svd++\n")
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "fairrec: error: unknown predictor 'svd++'\n"
    assert not out.exists()
