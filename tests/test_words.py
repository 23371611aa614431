"""Vertex words: parsing, projections, frequency bookkeeping."""

import collections
import random
import re

import pytest
from hypothesis import given, strategies as st

from conftest import filter_project, vertex_letter_lists
from langrep.errors import FormatError
from langrep.words import (
    VertexWord,
    check_binary,
    complement_word,
    project_rows,
)


def test_parse_contiguous_single_chars():
    w = VertexWord.parse("abca")
    assert w.letters == ("a", "b", "c", "a")
    assert w.alphabet() == frozenset("abc")


def test_parse_separated_tokens():
    assert VertexWord.parse("v1 v2 v1").letters == ("v1", "v2", "v1")
    assert VertexWord.parse("x,y,x").letters == ("x", "y", "x")
    # mixed separators collapse
    assert VertexWord.parse(" a,  b \t a ").letters == ("a", "b", "a")


def test_parse_rejects_empty_text():
    with pytest.raises(FormatError):
        VertexWord.parse("")
    with pytest.raises(FormatError):
        VertexWord.parse("   ")


def test_word_must_be_nonempty():
    with pytest.raises(ValueError):
        VertexWord([])


def test_tokens_may_not_contain_separators():
    with pytest.raises(FormatError):
        VertexWord(["a b"])
    with pytest.raises(FormatError):
        VertexWord(["a", ""])


def test_text_is_parse_inverse():
    for raw in ("abca", "a b a", "v1 v2 v1"):
        w = VertexWord.parse(raw)
        assert VertexWord.parse(w.text()) == w


def test_text_contiguous_only_for_single_char_tokens():
    assert VertexWord(["a", "b"]).text() == "ab"
    assert VertexWord(["v1", "b"]).text() == "v1 b"


def test_projection_pair_patterns():
    w = VertexWord.parse("14213243")
    assert w.project("1", "4") == "0101"
    assert w.project("4", "1") == "1010"
    assert w.project("1", "3") == "0011"
    assert w.project("2", "4") == "1001"


def test_projection_endpoints_distinct():
    with pytest.raises(ValueError):
        VertexWord.parse("ab").project("a", "a")


def test_project_set_keeps_order_and_rejects_disjoint():
    w = VertexWord.parse("abcabc")
    assert w.project_set({"a", "c"}).letters == ("a", "c", "a", "c")
    with pytest.raises(ValueError):
        w.project_set({"z"})


def test_immutable():
    w = VertexWord.parse("ab")
    with pytest.raises(AttributeError):
        w.letters = ("c",)


def test_equality_and_hash_follow_letters():
    assert VertexWord.parse("ab") == VertexWord(["a", "b"])
    assert hash(VertexWord.parse("ab")) == hash(VertexWord(["a", "b"]))
    assert VertexWord.parse("ab") != VertexWord.parse("ba")


@given(vertex_letter_lists())
def test_frequency_profile_counts(letters):
    w = VertexWord(letters)
    assert w.frequency_profile() == dict(collections.Counter(letters))


@given(vertex_letter_lists())
def test_reverse_involution(letters):
    w = VertexWord(letters)
    assert w.reverse().reverse() == w
    assert list(w.reverse()) == list(reversed(letters))


@given(vertex_letter_lists())
def test_projection_counts_match_profile(letters):
    w = VertexWord(letters)
    prof = w.frequency_profile()
    alpha = sorted(w.alphabet())
    if len(alpha) >= 2:
        u, v = alpha[0], alpha[1]
        b = w.project(u, v)
        assert b.count("0") == prof[u]
        assert b.count("1") == prof[v]


# multi-character tokens, one a prefix of another; "zz" never occurs
_TOKENS = ["a", "v1", "v10", "bb"]


@given(
    st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=30),
    st.lists(st.tuples(st.sampled_from(_TOKENS + ["zz"]), st.sampled_from(_TOKENS + ["zz"])),
             min_size=1, max_size=8),
)
def test_project_matches_filter(letters, pairs):
    # repeated calls on one word reuse its position index
    w = VertexWord(letters)
    for u, v in pairs + pairs:
        if u == v:
            with pytest.raises(ValueError):
                w.project(u, v)
            continue
        assert w.project(u, v) == filter_project(letters, u, v)
        assert w.project(v, u) == complement_word(w.project(u, v))
    # all rows at once: each vertex onto the later ones, in order, with
    # vertices absent from the word projecting to fewer letters
    vs = list(dict.fromkeys([v for pair in pairs for v in pair] + _TOKENS))
    assert list(project_rows(w, vs)) == [
        [filter_project(letters, u, v) for v in vs[i + 1:]] for i, u in enumerate(vs)
    ]
    with pytest.raises(ValueError, match="distinct"):
        w.project("a", "a")


def test_project_absent_endpoints():
    w = VertexWord(["v1", "v10", "v1"])
    assert w.project("zz", "yy") == ""
    assert w.project("v1", "zz") == "00"
    assert w.project("zz", "v10") == "1"
    with pytest.raises(ValueError):
        w.project("zz", "zz")


@pytest.mark.parametrize("length", [9, 10, 11, 99, 100, 101, 999, 1000, 1001, 10007, 65_543])
def test_project_across_tag_width_boundaries(length):
    # lengths on either side of powers of ten, and one whose positions pass
    # 16 bits: a position tag keeps the position above its side byte
    rng = random.Random(length)
    tokens = rng.sample(["a", "v1", "v10", "bb", "v100", "x7y", "q"], rng.randint(3, 6))
    letters = [rng.choice(tokens) for _ in range(length)]
    w = VertexWord(letters)
    for u in tokens + ["zz"]:
        others = [v for v in tokens + ["zz"] if v != u]
        for v in others:
            assert w.project(u, v) == filter_project(letters, u, v), (u, v)
    assert list(project_rows(w, tokens)) == [
        [filter_project(letters, u, v) for v in tokens[i + 1:]] for i, u in enumerate(tokens)
    ]


def test_word_names_its_first_bad_token_in_word_order():
    # distinct tokens are checked once each, so a repeated valid token
    # before the bad one must not change which one is named
    with pytest.raises(FormatError, match=re.escape("'c d'")):
        VertexWord(["b", "a", "b", "c d", "a", ""])
    with pytest.raises(FormatError, match=re.escape("''")):
        VertexWord(["a", "a", "", "c d"])


def test_word_rejects_a_non_string_token_with_type_error():
    with pytest.raises(TypeError):
        VertexWord(["a", 5])
    with pytest.raises(FormatError):
        VertexWord(["a", None])


def test_project_index_ignored_by_equality():
    w = VertexWord.parse("abab")
    w.project("a", "b")
    fresh = VertexWord.parse("abab")
    assert w == fresh and hash(w) == hash(fresh)


def test_binary_helpers():
    assert check_binary("0101") == "0101"
    with pytest.raises(FormatError):
        check_binary("01a")
    assert complement_word("0011") == "1100"
    assert complement_word(complement_word("0110")) == "0110"
