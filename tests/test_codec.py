"""Binary graph codec: round trips, determinism, the sparse length law,
streaming adjacency, and corruption diagnostics."""

import itertools
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


def test_encoding_pinned_bytes():
    # locks the LGR1 layout: header, packed copy word, then the name table
    g = path_graph(4)
    assert encode(g, "sparse").hex() == (
        "4c475231000416015abc119bb0027631027632027633027634"
    )
    assert encode(g, "dense").hex() == (
        "4c47523101041605287c162c70027631027632027633027634"
    )


def test_sparse_encode_memory_follows_the_edges():
    # the sparse word is written from adjacency lists (4n + 2m symbols);
    # building the complement graph first peaked near 770 MB here
    rng = random.Random(2000)
    names = default_names(2000)
    edges = set()
    while len(edges) < 4000:
        u, v = rng.sample(names, 2)
        edges.add((min(u, v), max(u, v)))
    g = Graph(names, edges)
    tracemalloc.start()
    try:
        blob = encode(g, "sparse")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert decode(blob) == g


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


def _medium_random_graphs():
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
        yield Graph(names, edges)


def test_medium_random_round_trips():
    for g in _medium_random_graphs():
        assert decode(encode(g, "sparse")) == g
        assert decode(encode(g, "dense")) == g


# --- streaming adjacency ----------------------------------------------------


@pytest.mark.parametrize("mode", ["sparse", "dense"])
def test_adjacent_matches_decode(mode):
    # every ordered pair of the small graphs, 100 seeded pairs of each
    # medium one (each call validates the whole word, as decode does)
    rng = random.Random(3)
    cases = [(g, itertools.product(g.vertices, repeat=2)) for g in _all_small_graphs()]
    for g in _medium_random_graphs():
        cases.append((g, rng.sample(list(itertools.product(g.vertices, repeat=2)), 100)))
    for g, pairs in cases:
        blob = encode(g, mode)
        back = decode(blob)
        for u, v in pairs:
            assert adjacent(blob, u, v) is back.has_edge(u, v) is g.has_edge(u, v)


def _malformed_streams():
    """Five corruptions of a sparse stream of order 5 (3-bit symbols, six
    padding bits): truncated payload, nonzero padding, an out-of-range
    first symbol, a duplicate name, and a header promising 10^4 vertices
    over an empty word."""
    blob = encode(Graph("abcde", [("a", "c")]), "sparse")
    start = len(MAGIC) + 3  # mode byte, n = 5 and 22 symbols take a byte each
    end = start + (22 * 3 + 7) // 8
    assert blob[end:end + 4] == b"\x01a\x01b"
    padding = bytearray(blob)
    padding[end - 1] |= 0x01
    high = bytearray(blob)
    high[start] |= 0xE0  # symbol 7 >= n
    oversized = bytearray(MAGIC + bytes([0]))
    _write_varint(oversized, 10_000)
    _write_varint(oversized, 0)
    return [
        blob[:end - 1],
        bytes(padding),
        bytes(high),
        blob[:end] + b"\x01a\x01a" + blob[end + 4:],
        bytes(oversized),
    ]


def _garbled_dense_triangle():
    # swap two adjacent payload symbols of a dense block listing; the copy
    # halves stop agreeing
    blob = bytearray(encode(complete_graph(3), "dense", include_names=False))
    blob[7], blob[8] = blob[8], blob[7]
    return bytes(blob)


def _zero_word():
    # order 2, eight 1-bit symbols all 0: no block of vertex 1 closes
    blob = bytearray(MAGIC + bytes([0]))
    _write_varint(blob, 2)
    _write_varint(blob, 8)
    return bytes(blob + b"\x00")


def _non_utf8_name():
    blob = bytearray(encode(Graph("ab", [("a", "b")]), "sparse"))
    blob[-1] = 0xFF  # the last name, "b", becomes a lone 0xFF byte
    return bytes(blob)


@pytest.mark.parametrize(
    "blob, u, v",
    [(bad, "a", "b") for bad in _malformed_streams()]
    + [(_garbled_dense_triangle(), "0", "1"), (_zero_word(), "0", "1")]
    + [(_non_utf8_name(), "a", "b")],
    ids=[
        "truncated", "padding", "high-symbol", "duplicate", "oversized",
        "garbled", "zeros", "non-utf8",
    ],
)
def test_adjacent_rejects_what_decode_rejects(blob, u, v):
    with pytest.raises(FormatError):
        decode(blob)
    with pytest.raises(FormatError):
        decode_word(blob)
    for pair in ((u, v), (v, u), (u, u)):
        with pytest.raises(FormatError):
            adjacent(blob, *pair)


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


def test_name_not_utf8_rejected():
    blob = _non_utf8_name()
    with pytest.raises(FormatError, match="UTF-8") as err:
        decode(blob)
    assert err.value.offset == len(blob) - 1


def test_garbled_word_structure():
    # decode must say so rather than guess
    with pytest.raises(FormatError):
        decode(_garbled_dense_triangle())
