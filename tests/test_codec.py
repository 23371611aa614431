"""Binary graph codec: round trips, determinism, the sparse length law,
streaming adjacency, and corruption diagnostics."""

import random
import tracemalloc

import pytest

from langrep.codec import (
    MAGIC,
    _write_varint,
    adjacent,
    decode,
    decode_word,
    default_names,
    encode,
    stored_mode,
)
from langrep.errors import FormatError
from langrep.graphs import Graph, complete_graph, path_graph
from langrep.isomorphism import enumerate_graphs
from langrep.languages import parse_language
from langrep.represent import evaluate


def _all_small_graphs():
    for n in range(1, 5):
        yield from enumerate_graphs(n)


@pytest.mark.parametrize("mode", ["sparse", "dense"])
def test_round_trip_named(mode):
    for g in _all_small_graphs():
        assert decode(encode(g, mode)) == g


@pytest.mark.parametrize("mode", ["sparse", "dense"])
def test_round_trip_anonymous(mode):
    for g in _all_small_graphs():
        blob = encode(g, mode, include_names=False)
        names = default_names(g.order)
        relabeled = g.relabel({v: names[i] for i, v in enumerate(g.vertices)})
        assert decode(blob) == relabeled


def test_encoding_deterministic():
    g = path_graph(4)
    same = Graph(g.vertices, sorted(g.edges, reverse=True))
    assert encode(g) == encode(same)
    assert encode(g, "dense") == encode(same, "dense")


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        encode(path_graph(2), "compact")


def test_sparse_length_law():
    for g in _all_small_graphs():
        word = decode_word(encode(g, "sparse"))
        assert len(word) == 4 * g.order + 2 * g.size


def test_stored_word_evaluates_back():
    copy_lang = parse_language("copy")
    co_copy = parse_language("not(copy)")
    for g in _all_small_graphs():
        assert evaluate(decode_word(encode(g, "dense")), copy_lang) == g
        assert evaluate(decode_word(encode(g, "sparse")), co_copy) == g


def test_stored_mode():
    g = path_graph(3)
    assert stored_mode(encode(g, "sparse")) == "sparse"
    assert stored_mode(encode(g, "dense")) == "dense"


def test_default_names_sorted():
    assert default_names(3) == ["0", "1", "2"]
    names = default_names(11)
    assert names[0] == "00" and names[10] == "10"
    assert names == sorted(names)


def test_medium_random_round_trips():
    rng = random.Random(7)
    for _ in range(5):
        n = rng.randint(30, 60)
        names = default_names(n)
        edges = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i)
            if rng.random() < 0.3
        ]
        g = Graph(names, edges)
        assert decode(encode(g, "sparse")) == g
        assert decode(encode(g, "dense")) == g


# --- streaming adjacency ----------------------------------------------------


@pytest.mark.parametrize("mode", ["sparse", "dense"])
def test_adjacent_matches_decode(mode):
    for g in _all_small_graphs():
        blob = encode(g, mode)
        for u in g.vertices:
            for v in g.vertices:
                if u == v:
                    assert adjacent(blob, u, v) is False
                else:
                    assert adjacent(blob, u, v) == g.has_edge(u, v)


def test_adjacent_unknown_vertex():
    blob = encode(path_graph(2))
    with pytest.raises(FormatError):
        adjacent(blob, "v1", "nope")


# --- corruption diagnostics -------------------------------------------------


def test_bad_magic():
    blob = bytearray(encode(path_graph(2)))
    blob[0] ^= 0xFF
    with pytest.raises(FormatError) as err:
        decode(bytes(blob))
    assert err.value.offset == 0


def test_bad_mode_byte():
    blob = bytearray(encode(path_graph(2)))
    blob[4] = 9
    with pytest.raises(FormatError) as err:
        decode(bytes(blob))
    assert err.value.offset == 4


def test_missing_mode_byte():
    with pytest.raises(FormatError):
        decode(MAGIC)


def test_truncated_payload():
    blob = encode(complete_graph(4), include_names=False)
    with pytest.raises(FormatError):
        decode(blob[: len(blob) - 1])


def test_truncated_varint():
    with pytest.raises(FormatError):
        decode(MAGIC + bytes([0, 0x80]))


def test_vertex_count_beyond_word_length_rejected_before_allocating():
    # a copy word has at least 4n symbols, so a header promising 2*10^6
    # vertices over an empty word is refused before any name is made
    blob = bytearray(MAGIC + bytes([0]))
    _write_varint(blob, 2 * 10**6)
    _write_varint(blob, 0)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="below 4n"):
            decode(bytes(blob))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_symbol_index_out_of_range():
    # order 3 packs 2-bit indices; 0xFF opens with symbol 3
    blob = bytearray(encode(path_graph(3), include_names=False))
    blob[7] = 0xFF
    with pytest.raises(FormatError, match="beyond"):
        decode(bytes(blob))


def test_nonzero_padding_bits():
    # order 2 with one edge: ten 1-bit symbols leave six padding bits
    g = complete_graph(2)
    blob = bytearray(encode(g, "sparse", include_names=False))
    blob[-1] |= 0x01
    with pytest.raises(FormatError, match="padding"):
        decode(bytes(blob))


def test_duplicate_names_rejected():
    g = Graph("ab", [("a", "b")])
    blob = bytearray(encode(g, "sparse"))
    assert blob.endswith(b"\x01b")
    blob[-1] = ord("a")
    with pytest.raises(FormatError, match="duplicate"):
        decode(bytes(blob))


def test_garbled_word_structure():
    # swap two adjacent payload symbols of a dense block listing; the copy
    # halves stop agreeing and decode must say so rather than guess
    g = complete_graph(3)
    blob = bytearray(encode(g, "dense", include_names=False))
    blob[7], blob[8] = blob[8], blob[7]
    with pytest.raises(FormatError):
        decode(bytes(blob))
