import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from fairbench import check  # noqa: E402

RESULTS = """predictor,post,param,k,agg_div,d_s,d_r
knn,none,0,5,0.100000,0.000000,0.000000
knn,greedy,10,5,0.200000,0.000100,0.010000
knn,greedy,20,5,0.300000,0.000200,0.020000
"""
DAT = """# knn greedy: aggregate diversity vs score_disparity
# columns: agg_div  disparity
# next row is the baseline (no post-processing)
0.100000  0.000000
0.200000  0.000100
"""


@pytest.fixture
def ref_dir(tmp_path):
    (tmp_path / "results.csv").write_text(RESULTS)
    (tmp_path / "greedy__knn__score_disparity.dat").write_text(DAT)
    return tmp_path


def outputs(results=RESULTS, dat=DAT):
    return {"results.csv": results, "greedy__knn__score_disparity.dat": dat}


def test_reference_accepts_identical_and_last_digit_outputs(ref_dir):
    assert check.compare_to_reference(outputs(), ref_dir) == []
    nudged = RESULTS.replace("0.200000,0.000100", "0.200001,0.000099")
    assert check.compare_to_reference(outputs(results=nudged), ref_dir) == []


@pytest.mark.parametrize("old, new", [
    ("0.200000,0.000100", "0.200002,0.000100"),  # two units in the sixth decimal
    ("greedy,10,5", "greedy,11,5"),  # an integer column
    ("knn,none", "nmf,none"),  # a text column
])
def test_reference_catches_corrupted_results_csv(ref_dir, old, new):
    problems = check.compare_to_reference(outputs(results=RESULTS.replace(old, new)), ref_dir)
    assert len(problems) == 1 and problems[0].startswith("results.csv:")


def test_reference_catches_changed_dat_comment_and_missing_file(ref_dir):
    changed = DAT.replace("baseline", "base line")
    assert check.compare_to_reference(outputs(dat=changed), ref_dir)
    assert check.compare_to_reference({"results.csv": RESULTS}, ref_dir) == [
        "greedy__knn__score_disparity.dat: missing from the outputs"
    ]


def test_invariants_hold_on_valid_results():
    assert check.check_invariants(RESULTS, n_items=100) == []


@pytest.mark.parametrize("old, new, n_items, expect", [
    ("0,5,0.100000,0.000000,0.000000", "0,5,0.100000,0.000001,0.000000", 100, "baseline"),
    ("20,5,0.300000", "20,5,0.150000", 100, "fell below"),
    ("10,5,0.200000", "10,5,0.205000", 100, "pool grew"),  # 10.5 items
    ("", "", 1000, "pool grew"),  # 100 items added with theta=10
])
def test_invariants_catch_broken_results(old, new, n_items, expect):
    problems = check.check_invariants(RESULTS.replace(old, new), n_items)
    assert any(expect in p for p in problems), problems


def test_invariants_reject_malformed_results():
    assert check.check_invariants("", 10) == ["results.csv: missing or unexpected header"]
    assert "malformed" in check.check_invariants(RESULTS + "knn,greedy\n", 100)[0]


def test_hash_comparison_flags_nondeterministic_outputs():
    first = [{"results.csv": "aa", "x.dat": "bb"}]
    assert check.compare_hashes(first, first) == []
    assert check.compare_hashes([{"results.csv": "ab", "x.dat": "bb"}], first) == [
        "call 1: results.csv differs from the first job's"
    ]
