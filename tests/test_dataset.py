import tempfile
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

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
    load_ratings,
    parse_ratings,
)
from fairrec.dataset import _parse_plain

from conftest import synthetic_triples


def _arrays(d):
    return [(a.dtype.str, a.shape, a.tobytes())
            for a in (d.users, d.items, d.ratings, d.user_ids, d.item_ids)]


def _outcome(source):
    """The parsed arrays as (dtype, shape, bytes), or the error's type and message."""
    try:
        return _arrays(parse_ratings(source))
    except Exception as exc:  # every outcome is compared, not only the expected ones
        return type(exc), str(exc)


def file_outcomes(text: str):
    """Parse ``text`` written to a file, by path and through the line loop alone.

    A path takes the vectorised pass and falls back to the line loop; an open
    text stream takes only the line loop. Returns both outcomes.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ratings.data"
        path.write_bytes(text.encode())
        from_path = _outcome(path)
        assert _outcome(str(path)) == from_path
        with open(path, encoding="ascii") as stream:
            return from_path, _outcome(stream)


def parse(lines):
    """parse_ratings(lines), checked against the same lines read from a file.

    The file must give exactly what the list gives: the same arrays, or the
    same error type and message. An open stream gives the same, except that
    one that is not ASCII fails on decoding rather than at a named line.
    """
    from_path, from_stream = file_outcomes("".join(lines))
    from_lines = _outcome(list(lines))
    assert from_path == from_lines
    if all(line.isascii() for line in lines):
        assert from_stream == from_path
    else:
        assert from_stream[0] is RatingParseError
        assert "not ASCII" in from_stream[1]
    return parse_ratings(list(lines))


def test_parse_three_lines_direct_readback():
    d = parse(["1\t10\t4\t0\n", "1\t20\t5\t0\n", "2\t10\t3\t0\n"])
    assert d.n_users == 2
    assert d.n_items == 2
    assert d.n_ratings == 3
    assert d.user_ids.tolist() == [1, 2]
    assert d.item_ids.tolist() == [10, 20]
    triples = set(zip(d.users.tolist(), d.items.tolist(), d.ratings.tolist()))
    assert triples == {(0, 0, 4.0), (0, 1, 5.0), (1, 0, 3.0)}


def test_parse_accepts_spaces_and_blank_lines():
    d = parse(["1 10 4 881250949\n", "\n", "2 10 3 891717742\n"])
    assert d.n_users == 2
    assert d.n_ratings == 2


def test_parse_underscore_timestamp_is_discarded():
    d = parse(["1 10 4 _\n"])
    assert d.n_ratings == 1


@pytest.mark.parametrize("rating", ["0", "6", "7"])
def test_rating_out_of_range(rating):
    for timestamp in ("0", "_"):  # a file with "_" is left to the line loop
        with pytest.raises(RatingRangeError, match="line 2"):
            parse(["2 10 4 0\n", f"1 10 {rating} {timestamp}\n"])


@pytest.mark.parametrize(
    "line",
    ["1 10 4\n", "1 10 4 0 extra\n", "x 10 4 0\n", "1 y 4 0\n", "1 10 3.5 0\n",
     "99999999999999999999 1 5 0\n", "1 -99999999999999999999 5 0\n",
     "1 10 4 \n", "1 10 4 0 0\n", "1\t10\t4\t0\t\t5\n",
     "1_0 10 4 0\n", "1 1_0 4 0\n", "1 10 0_5 0\n",
     "\u0661 10 4 0\n", "2 \uff11\uff10 5 0\n", "2 10 4 0\u00e9\n"],  # int() reads non-ASCII digits
)
def test_malformed_line_is_a_parse_error(line):
    with pytest.raises(RatingParseError, match="line 2") as info:
        parse(["1 10 4 0\n", line])
    # a '_' field fails the one integer rule, so it gets its field's own message
    exact = {"1_0 10 4 0\n": "line 2: non-numeric user or item id",
             "1 1_0 4 0\n": "line 2: non-numeric user or item id",
             "1 10 0_5 0\n": "line 2: rating must be an integer, got '0_5'"}
    if line in exact:
        assert str(info.value) == exact[line]


@pytest.mark.parametrize(
    "lines",
    [["1 10 4 0 5\n", "3 4 0\n"], ["3 4 1\n", "0 5 3 4 0\n"],  # 8 numbers: two valid rows
     ["1 10\n", "3\n"]],  # 3 numbers and 2 sentinels: five values, the fifth a sentinel
    ids=["five-three", "three-five", "two-one"],
)
def test_field_counts_that_only_add_up_over_two_lines_are_a_parse_error(lines):
    with pytest.raises(RatingParseError, match="line 1: expected 4 fields"):
        parse(lines)


def test_duplicate_pair_rejected_even_with_same_rating():
    with pytest.raises(DuplicateRatingError, match="user 1, item 10"):
        parse(["1 10 4 0\n", "1 10 4 99\n"])


@pytest.mark.parametrize("last, error, message", [
    ("1 10 5 0\n", DuplicateRatingError, "line 3: duplicate rating for user 1, item 10"),
    ("3 10 6 0\n", RatingRangeError, "line 3: rating 6 outside [1, 5]"),
])
def test_plain_file_content_faults_need_no_second_parse(last, error, message, tmp_path,
                                                       monkeypatch):
    path = tmp_path / "ratings.data"
    path.write_text("1 10 4 0\n2 20 3 0\n" + last)

    def line_loop(source):
        raise AssertionError("a plain file went through the line loop")

    monkeypatch.setattr("fairrec.dataset._parse_lines", line_loop)
    with pytest.raises(error) as info:
        parse_ratings(path)
    assert str(info.value) == message


def test_a_format_fault_is_reported_before_an_earlier_content_fault(tmp_path):
    lines = ["1 10 4 0\n", "1 10 5 0\n", "x 1 1 1\n"]  # a duplicate on line 2
    path = tmp_path / "ratings.data"
    path.write_text("".join(lines))
    with open(path, encoding="ascii") as stream:
        for source in (path, str(path), stream, lines):
            with pytest.raises(RatingParseError, match="^line 3: non-numeric user or item id$"):
                parse_ratings(source)


def test_rating_beyond_int64_is_named_in_full():
    with pytest.raises(RatingRangeError) as info:
        parse(["1 10 99999999999999999999 0\n"])
    assert str(info.value) == "line 1: rating 99999999999999999999 outside [1, 5]"


def test_empty_source_rejected():
    for lines in (["\n", "  \n"], []):
        with pytest.raises(RatingParseError, match="no ratings"):
            parse(lines)


@pytest.mark.parametrize(
    "lines, error",
    [(["+1 10 4 0\n", "-2 010 5 0\n"], None),
     (["9223372036854775807 10 4 0\n", "1000000000000000000 10 5 0\n"], None),
     (["1 10 4 0\r\n", "2 10 5 0\r\n"], None),
     (["1 10 4 0\n", "2 10 5 0"], None),
     (["1 10 4 0\n", "2 10 5 1234567890123456789012\n"], None),
     (["1 10 4 0\n", "\n", "2 10 5 0\n"], None),
     # fromstring clamps this id to 2**63 - 1, which the pass's bound rejects
     (["1 10 4 0\n", "99999999999999999999 10 5 0\n"],
      "line 2: user or item id outside the int64 range"),
     (["1 10 4 0\n", "2 10 5 0 3 20 4 0 0\n"],
      "line 2: expected 4 fields (user item rating timestamp), got 9"),
     (["1 10 4 0\n", "2 10 5 1000000000000000000\n"], None)],
    ids=["signs", "19-digit-ids", "crlf", "no-final-newline",
         "long-timestamp", "blank-line", "20-digit-id", "nine-numbers", "ten-to-the-18"],
)
def test_lines_left_to_the_loop_parse_alike(lines, error):
    assert _parse_plain("".join(lines).encode()) is None
    if error is None:
        assert parse(lines).n_ratings == 2
    else:
        with pytest.raises(RatingParseError) as info:
            parse(lines)
        assert str(info.value) == error


def test_vectorised_pass_reads_leading_zeros_18_digits_and_edge_whitespace():
    lines = ["007\t010\t4\t0 \n", "\t999999999999999999  10 5 123456789012345678\n",
             "0000000000000000000000007 20 3 999999999999999999\n"]  # 25 digits, value 7
    assert _parse_plain("".join(lines).encode()) is not None
    d = parse(lines)
    assert d.user_ids.tolist() == [7, 999999999999999999]
    assert d.item_ids.tolist() == [10, 20]


def test_load_ratings_equals_the_line_loop(synthetic_file):
    assert _parse_plain(synthetic_file.read_bytes()) is not None
    with open(synthetic_file, encoding="ascii") as stream:
        assert _arrays(load_ratings(synthetic_file)) == _arrays(parse_ratings(stream))


def test_non_ascii_file_rejected(tmp_path):
    path = tmp_path / "bad.data"
    path.write_bytes("1 10 4 0\n1 2ダ4 0\n".encode("utf-8"))
    with pytest.raises(RatingParseError, match="ASCII"):
        parse_ratings(path)


def test_non_ascii_byte_past_the_first_read_chunk_names_its_line(tmp_path):
    # a byte past the first 8 KiB used to be reported by its offset inside that chunk
    lines = [f"{u} {i} {1 + (u + i) % 5} 0\n" for u in range(1, 40) for i in range(1, 26)]
    data = bytearray("".join(lines).encode())
    line = data.count(b"\n", 0, 9000) + 1
    data[9000] = 0xC3
    path = tmp_path / "bad.data"
    path.write_bytes(bytes(data))
    with pytest.raises(RatingParseError, match=f"^line {line}: not ASCII text$"):
        parse_ratings(path)


def test_dense_ids_are_contiguous_and_sorted_by_raw_id():
    d = parse(["7 300 1 0\n", "3 100 2 0\n", "7 100 5 0\n"])
    assert d.user_ids.tolist() == [3, 7]
    assert d.item_ids.tolist() == [100, 300]
    assert d.users.tolist() == [1, 0, 1]
    assert d.items.tolist() == [1, 0, 0]


def test_parse_is_independent_of_line_order():
    lines = ["5 8 3 0\n", "2 8 4 0\n", "5 9 5 0\n", "1 7 2 0\n"]
    a = parse(lines)
    b = parse(list(reversed(lines)))
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


def test_user_and_item_counts_are_the_id_array_sizes(synthetic_dataset):
    d = synthetic_dataset
    assert not {"n_users", "n_items"} & {f.name for f in fields(d)}  # nothing to disagree with
    assert (d.n_users, d.n_items) == (d.user_ids.size, d.item_ids.size)


def test_dataset_fields_cannot_be_reassigned(synthetic_dataset):
    for field in fields(synthetic_dataset):
        with pytest.raises(FrozenInstanceError):
            setattr(synthetic_dataset, field.name, getattr(synthetic_dataset, field.name))


def test_fingerprint_changes_with_any_rating_or_raw_id():
    lines = ["1 10 4 0\n", "2 10 3 0\n", "2 20 5 0\n"]
    digest = parse(lines).fingerprint()
    # the score cache's file name is keyed on this digest, so it must not drift
    assert digest == "d332e6c4a83f3886db1d69c4d6a77e1e4381003e3d9b2c3578a36a8b9a7a6729"
    assert parse(list(lines)).fingerprint() == digest
    for changed in (["1 10 5 0\n"] + lines[1:], ["7 10 4 0\n"] + lines[1:],
                    lines[:2] + ["2 21 5 0\n"], lines[:2]):
        assert parse(changed).fingerprint() != digest


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
    cands = candidate_sets(parse(lines))
    assert np.flatnonzero(cands[0]).tolist() == []
    assert np.flatnonzero(cands[1]).tolist() == [1, 3, 4]


def test_candidate_singleton_when_all_but_one_rated():
    lines = [f"1 {i} 3 0\n" for i in (1, 2, 3, 4, 5)] + [f"2 {i} 4 0\n" for i in (1, 2, 3, 4)]
    cands = candidate_sets(parse(lines))
    assert np.flatnonzero(cands[1]).tolist() == [4]


def test_min_size_rejects_user_by_raw_id():
    lines = ["1 1 3 0\n", "1 2 3 0\n"] + [f"9 {i} 4 0\n" for i in (1, 2, 3, 4, 5)]
    with pytest.raises(CandidateShortfallError, match="user 9"):
        candidate_sets(parse(lines), min_size=2)


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
    d = parse(lines)
    assert d.n_ratings == len(triples)
    assert raw_triples(d) == [(u, i, float(r)) for u, i, r in triples]

    cands = candidate_sets(d)
    assert (cands.sum(axis=1) + np.bincount(d.users)).tolist() == [d.n_items] * d.n_users


def _mutate(lines, triples, sep, mutation, at):
    u, i, r = triples[at]
    if mutation == "crlf":
        return [line[:-1] + "\r\n" for line in lines]
    if mutation == "no-final-newline":
        return lines[:-1] + [lines[-1][:-1]]
    changed = {
        "trailing-space": lines[at][:-1] + " \n",
        "plus": "+" + lines[at],
        "minus": "-" + lines[at],
        "leading-zeros": "00" + lines[at],
        "19-digit-id": sep.join(map(str, (10**18 + u, i, r, 0))) + "\n",
        "20-digit-id": sep.join(map(str, (10**19 + u, i, r, 0))) + "\n",
        "long-timestamp": sep.join(map(str, (u, i, r, "9" * 25))) + "\n",
        "three-fields": sep.join(map(str, (u, i, r))) + "\n",
        "five-fields": lines[at][:-1] + sep + "7\n",
        "rating-0": sep.join(map(str, (u, i, 0, 0))) + "\n",
        "rating-6": sep.join(map(str, (u, i, 6, 0))) + "\n",
    }
    if mutation in changed:
        return lines[:at] + [changed[mutation]] + lines[at + 1:]
    if mutation == "duplicate":
        return lines + [sep.join(map(str, (u, i, r % 5 + 1, 0))) + "\n"]
    if mutation == "blank-line":
        return lines[:at] + ["\n"] + lines[at:]
    return lines


MUTATIONS = ("none", "crlf", "no-final-newline", "trailing-space", "plus", "minus",
             "leading-zeros", "19-digit-id", "20-digit-id", "long-timestamp", "three-fields",
             "five-fields", "rating-0", "rating-6", "duplicate", "blank-line")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 15), st.integers(1, 25), st.integers(1, 5)),
        min_size=1,
        max_size=30,
        unique_by=lambda t: (t[0], t[1]),
    ),
    st.sampled_from(["\t", " "]),
    st.sampled_from(MUTATIONS),
    st.integers(0, 29),
)
def test_vectorised_pass_equals_the_line_loop(triples, sep, mutation, at):
    lines = [sep.join(map(str, (u, i, r, 881250949))) + "\n" for u, i, r in triples]
    text = "".join(_mutate(lines, triples, sep, mutation, at % len(triples)))
    from_path, from_loop = file_outcomes(text)
    assert from_path == from_loop
    if mutation in ("none", "leading-zeros"):
        assert _parse_plain(text.encode()) is not None
