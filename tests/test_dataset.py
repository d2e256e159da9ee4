import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrec import (
    CandidateShortfallError,
    DuplicateRatingError,
    RatingParseError,
    RatingRangeError,
    candidate_sets,
    parse_ratings,
)

from conftest import synthetic_triples


def test_parse_three_lines_direct_readback():
    d = parse_ratings(["1\t10\t4\t0\n", "1\t20\t5\t0\n", "2\t10\t3\t0\n"])
    assert d.n_users == 2
    assert d.n_items == 2
    assert d.n_ratings == 3
    assert d.user_ids.tolist() == [1, 2]
    assert d.item_ids.tolist() == [10, 20]
    triples = set(zip(d.users.tolist(), d.items.tolist(), d.ratings.tolist()))
    assert triples == {(0, 0, 4.0), (0, 1, 5.0), (1, 0, 3.0)}


def test_parse_accepts_spaces_and_blank_lines():
    d = parse_ratings(["1 10 4 881250949\n", "\n", "2 10 3 891717742\n"])
    assert d.n_users == 2
    assert d.n_ratings == 2


def test_parse_underscore_timestamp_is_discarded():
    d = parse_ratings(["1 10 4 _\n"])
    assert d.n_ratings == 1


@pytest.mark.parametrize("rating", ["0", "6", "7"])
def test_rating_out_of_range(rating):
    with pytest.raises(RatingRangeError, match="line 1"):
        parse_ratings([f"1 10 {rating} _\n"])


@pytest.mark.parametrize(
    "line",
    ["1 10 4\n", "1 10 4 0 extra\n", "x 10 4 0\n", "1 y 4 0\n", "1 10 3.5 0\n",
     "99999999999999999999 1 5 0\n", "1 -99999999999999999999 5 0\n",
     "1_0 10 4 0\n", "1 1_0 4 0\n", "1 10 0_5 0\n",
     "\u0661 10 4 0\n", "2 \uff11\uff10 5 0\n", "2 10 4 0\u00e9\n"],  # int() reads non-ASCII digits
)
def test_malformed_line_is_a_parse_error(line):
    with pytest.raises(RatingParseError, match="line 2"):
        parse_ratings(["1 10 4 0\n", line])


def test_duplicate_pair_rejected_even_with_same_rating():
    with pytest.raises(DuplicateRatingError, match="user 1, item 10"):
        parse_ratings(["1 10 4 0\n", "1 10 4 99\n"])


def test_empty_source_rejected():
    with pytest.raises(RatingParseError):
        parse_ratings(["\n", "  \n"])


def test_non_ascii_file_rejected(tmp_path):
    path = tmp_path / "bad.data"
    path.write_bytes("1 10 4 0\n1 2ダ4 0\n".encode("utf-8"))
    with pytest.raises(RatingParseError, match="ASCII"):
        parse_ratings(path)


def test_dense_ids_are_contiguous_and_sorted_by_raw_id():
    d = parse_ratings(["7 300 1 0\n", "3 100 2 0\n", "7 100 5 0\n"])
    assert d.user_ids.tolist() == [3, 7]
    assert d.item_ids.tolist() == [100, 300]
    assert d.users.tolist() == [1, 0, 1]
    assert d.items.tolist() == [1, 0, 0]


def test_parse_is_independent_of_line_order():
    lines = ["5 8 3 0\n", "2 8 4 0\n", "5 9 5 0\n", "1 7 2 0\n"]
    a = parse_ratings(lines)
    b = parse_ratings(list(reversed(lines)))
    assert np.array_equal(a.user_ids, b.user_ids)
    assert np.array_equal(a.item_ids, b.item_ids)
    ta = set(zip(a.users.tolist(), a.items.tolist(), a.ratings.tolist()))
    tb = set(zip(b.users.tolist(), b.items.tolist(), b.ratings.tolist()))
    assert ta == tb


def raw_triples(d):
    """The dataset's ratings in file order, mapped back to raw ids."""
    return list(zip(d.user_ids[d.users].tolist(), d.item_ids[d.items].tolist(), d.ratings.tolist()))


def test_parse_then_map_back_round_trip(synthetic_dataset):
    d = synthetic_dataset
    triples = synthetic_triples()
    assert raw_triples(d) == [(u, i, float(r)) for u, i, r in triples]
    assert d.n_users == len({u for u, _, _ in triples})
    assert d.n_items == len({i for _, i, _ in triples})


def test_fingerprint_changes_with_any_rating_or_raw_id():
    lines = ["1 10 4 0\n", "2 10 3 0\n", "2 20 5 0\n"]
    digest = parse_ratings(lines).fingerprint()
    assert parse_ratings(list(lines)).fingerprint() == digest
    for changed in (["1 10 5 0\n"] + lines[1:], ["7 10 4 0\n"] + lines[1:],
                    lines[:2] + ["2 21 5 0\n"], lines[:2]):
        assert parse_ratings(changed).fingerprint() != digest


def test_rating_counts_add_up(synthetic_dataset):
    d = synthetic_dataset
    user_counts = np.bincount(d.users)
    assert user_counts.size == d.n_users
    assert user_counts.sum() == d.n_ratings
    assert user_counts.min() >= 1
    item_counts = np.bincount(d.items, minlength=d.n_items)
    assert item_counts.min() >= 1


def test_candidates_are_the_sorted_complement(synthetic_dataset):
    d = synthetic_dataset
    cands = candidate_sets(d)
    assert cands.dtype == bool
    assert cands.shape == (d.n_users, d.n_items)
    for u in range(d.n_users):
        cand = np.flatnonzero(cands[u])
        rated = d.items[d.users == u]
        assert cand.size + rated.size == d.n_items
        assert np.intersect1d(cand, rated).size == 0
        assert np.array_equal(np.union1d(cand, rated), np.arange(d.n_items))


def test_candidate_complement_small_case():
    # item universe fixed by user 1 rating everything; user 2 rated items 1 and 3
    lines = [f"1 {i} 3 0\n" for i in (1, 2, 3, 4, 5)] + ["2 1 4 0\n", "2 3 2 0\n"]
    cands = candidate_sets(parse_ratings(lines))
    assert np.flatnonzero(cands[0]).tolist() == []
    assert np.flatnonzero(cands[1]).tolist() == [1, 3, 4]


def test_candidate_singleton_when_all_but_one_rated():
    lines = [f"1 {i} 3 0\n" for i in (1, 2, 3, 4, 5)] + [f"2 {i} 4 0\n" for i in (1, 2, 3, 4)]
    cands = candidate_sets(parse_ratings(lines))
    assert np.flatnonzero(cands[1]).tolist() == [4]


def test_min_size_rejects_user_by_raw_id():
    lines = ["1 1 3 0\n", "1 2 3 0\n"] + [f"9 {i} 4 0\n" for i in (1, 2, 3, 4, 5)]
    with pytest.raises(CandidateShortfallError, match="user 9"):
        candidate_sets(parse_ratings(lines), min_size=2)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 15), st.integers(1, 25), st.integers(1, 5)),
        min_size=1,
        max_size=50,
        unique_by=lambda t: (t[0], t[1]),
    )
)
def test_round_trip_property(triples):
    lines = [f"{u}\t{i}\t{r}\t123\n" for u, i, r in triples]
    d = parse_ratings(lines)
    assert d.n_ratings == len(triples)
    assert raw_triples(d) == [(u, i, float(r)) for u, i, r in triples]

    cands = candidate_sets(d)
    assert (cands.sum(axis=1) + np.bincount(d.users)).tolist() == [d.n_items] * d.n_users
