from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from fairrec import InvalidInputError, build_config, emit_plot_data, run_sweep, save_score_cache
from fairrec.cli import _build_parser, main
from fairrec.metrics import RESULTS_HEADER
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
    ("k = 2.5", "config key 'k' expects an integer, got '2.5'"),
    ("threshold = high", "config key 'threshold' expects a number, got 'high'"),
    ("theta = 10,x", "grid must be comma-separated integers, got '10,x'"),
    # int() and float() alone read these as 10, 3, (10, 20), (10,), 3.5 and 35
    ("k = 1_0", "config key 'k' expects an integer, got '1_0'"),
    ("seed = \u0663", "config key 'seed' expects an integer, got '\u0663'"),
    ("ell = 1_0,2_0", "grid must be comma-separated integers, got '1_0,2_0'"),
    ("theta = \uff11\uff10", "grid must be comma-separated integers, got '\uff11\uff10'"),
    ("threshold = \uff13.5", "config key 'threshold' expects a number, got '\uff13.5'"),
    ("threshold = 3_5", "config key 'threshold' expects a number, got '3_5'"),
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
    assert main(["run", flag, "1_0,x", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "fairrec: error: grid must be comma-separated integers, got '1_0,x'\n"
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


def test_build_config_rejects_a_bad_string_keyword():
    with pytest.raises(InvalidInputError, match="config key 'k' expects an integer, got 'x'"):
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
        SweepConfig(predictor="svd").validate()
    with pytest.raises(InvalidInputError):
        SweepConfig(post="mmr").validate()
    with pytest.raises(InvalidInputError):
        SweepConfig(k=0).validate()
    with pytest.raises(InvalidInputError):
        SweepConfig(post="random", ell=()).validate()
    with pytest.raises(InvalidInputError):
        SweepConfig(post="greedy", theta=()).validate()
    # every grid value and hyperparameter is checked before any work starts
    with pytest.raises(InvalidInputError, match="ell=4 must be >= k=5"):
        SweepConfig(post="random", k=5, ell=(10, 4)).validate()
    with pytest.raises(InvalidInputError, match="ell must be >= 1"):
        SweepConfig(post="random", ell=(10, 0)).validate()
    with pytest.raises(InvalidInputError, match="theta"):
        SweepConfig(post="greedy", theta=(10, -1)).validate()
    for threshold in (0.5, 5.5):
        with pytest.raises(InvalidInputError, match="threshold"):
            SweepConfig(post="greedy", threshold=threshold).validate()
    with pytest.raises(InvalidInputError, match="n_neighbors"):
        SweepConfig(predictor="knn", knn_neighbors=0).validate()
    with pytest.raises(InvalidInputError, match="min_overlap"):
        SweepConfig(predictor="knn", knn_min_overlap=0).validate()
    with pytest.raises(InvalidInputError, match="n_factors"):
        SweepConfig(predictor="nmf", nmf_factors=0).validate()
    with pytest.raises(InvalidInputError, match="n_epochs"):
        SweepConfig(predictor="nmf", nmf_epochs=-1).validate()
    # a grid that the selected post-processor does not use is not checked
    SweepConfig(post="greedy", ell=(0,)).validate()


WRONG_TYPES = [
    ("k", True, "config key 'k' expects an integer, got True"),
    ("k", 2.7, "config key 'k' expects an integer, got 2.7"),
    ("seed", 1.0, "config key 'seed' expects an integer, got 1.0"),
    ("ell", (10, "x"), "config key 'ell' expects a tuple of integers, got (10, 'x')"),
    ("ell", [10, 50], "config key 'ell' expects a tuple of integers, got [10, 50]"),
    ("out", "r", "config key 'out' expects a path, got 'r'"),
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
        (["1 10 4 0\n", "1 20 3 0\n", "2 10 5 0\n"], "user 1 has only 0 unrated items"),
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


def test_cli_rejects_unknown_choice():
    with pytest.raises(SystemExit):
        main(["run", "--predictor", "svd++"])
