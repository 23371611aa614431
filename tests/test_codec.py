"""Binary graph codec: round trips, determinism, the sparse length law,
streaming adjacency, and corruption diagnostics."""

import hashlib
import itertools
import random
import time
import timeit
import tracemalloc

import pytest

from langrep import codec
from langrep.codec import (
    MAGIC,
    _pack,
    _unpack,
    _write_varint,
    adjacent,
    decode,
    decode_word,
    default_names,
    encode,
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
    # the byte after the magic: 0 sparse, 1 dense
    g = path_graph(3)
    assert encode(g, "sparse")[len(MAGIC)] == 0
    assert encode(g, "dense")[len(MAGIC)] == 1


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
    # a payload that raises is never cached, so it raises on every call
    for _ in range(3):
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
    with pytest.raises(FormatError):
        adjacent(blob, ["x"], "v1")  # unhashable


# --- the payload index cache --------------------------------------------------


def test_cache_is_keyed_by_content():
    # a bytearray changed in place after a query is read afresh
    blob = bytearray(encode(Graph("abc", [("a", "b")])))
    assert adjacent(blob, "a", "b") and not adjacent(blob, "a", "c")
    blob[:] = encode(Graph("abc", [("a", "c")]))
    assert not adjacent(blob, "a", "b") and adjacent(blob, "a", "c")
    assert decode(blob) == Graph("abc", [("a", "c")])
    blob[0] ^= 0xFF
    with pytest.raises(FormatError, match="magic"):
        adjacent(blob, "a", "b")
    blob[0] ^= 0xFF
    assert adjacent(blob, "a", "c")


def test_cache_hits_on_equal_bytes_and_stays_bounded():
    g = path_graph(5)
    blob = encode(g)
    adjacent(blob, "v1", "v2")
    before = codec._read.cache_info()
    # an equal payload in a new object is a hit: nothing is parsed again
    assert adjacent(bytes(bytearray(blob)), "v2", "v3")
    assert decode(bytes(blob)) == g
    after = codec._read.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)
    for k in range(3 * codec._CACHED_PAYLOADS):
        assert decode(encode(path_graph(k + 1))) == path_graph(k + 1)
        assert codec._read.cache_info().currsize <= codec._CACHED_PAYLOADS
    assert codec._read.cache_info().maxsize == codec._CACHED_PAYLOADS


def test_non_buffer_payload_is_refused_without_allocating():
    # bytes(10**12) would allocate a terabyte
    with pytest.raises(TypeError):
        decode(10**12)


# --- bit packing ------------------------------------------------------------


def _ref_pack(indices, width):
    out, acc, bits = bytearray(), 0, 0
    for i in indices:
        acc = (acc << width) | i
        bits += width
        while bits >= 8:
            bits -= 8
            out.append((acc >> bits) & 0xFF)
        acc &= (1 << bits) - 1
    if bits:
        out.append((acc << (8 - bits)) & 0xFF)
    return bytes(out)


def _ref_unpack(data, start, count, n, width):
    """The per-symbol reader, with its messages and offsets."""
    acc = bits = 0
    pos = start
    out = []
    for k in range(count):
        while bits < width:
            acc = (acc << 8) | data[pos]
            pos += 1
            bits += 8
        bits -= width
        idx = (acc >> bits) & ((1 << width) - 1)
        acc &= (1 << bits) - 1
        if idx >= n:
            raise FormatError(f"symbol {k} is {idx}, beyond n={n}", offset=pos)
        out.append(idx)
    if acc & ((1 << bits) - 1):
        raise FormatError("nonzero padding bits", offset=pos)
    return out


# both sides of each power of two, so every width from 1 to 12 occurs
_PACK_ORDERS = sorted(
    {1, 2, 3, 4, 5, 8, 9, 256, 257, 2048, 2049}
    | {m for w in range(1, 13) for m in (2 ** (w - 1) + 1, 2 ** w)}
)
# widths 13 to 20: 16-bit lanes, a width that fills its lane, 32-bit lanes
_WIDE_ORDERS = sorted({m for w in range(13, 21) for m in (2 ** (w - 1) + 1, 2 ** w)})
_F = codec._FIELDS
# counts on both sides of a chunk, and two whole chunks and a short one
_CHUNK_COUNTS = [_F - 1, _F, _F + 1, 2 * _F + 3]


def _error(fn, *args):
    with pytest.raises(FormatError) as err:
        fn(*args)
    return str(err.value), err.value.offset


@pytest.mark.parametrize("n", _PACK_ORDERS + _WIDE_ORDERS)
def test_pack_and_unpack_match_the_per_symbol_loop(n):
    width = codec._width(n)
    assert width == max(1, (n - 1).bit_length())
    rng = random.Random(n)
    # lengths across byte and chunk boundaries, with and without padding bits
    counts = [1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 129, 300] + _CHUNK_COUNTS
    for count in counts + rng.sample(range(1, 1000), 5):
        word = [rng.randrange(n) for _ in range(count)]
        if count > 2:
            word[:2] = [0, n - 1]
        packed = bytes(_pack(word, width))
        assert packed == _ref_pack(word, width)
        data = b"head" + packed + b"tail"
        assert _unpack(data, 4, count, n) == word == _ref_unpack(data, 4, count, n, width)


@pytest.mark.parametrize("n", _PACK_ORDERS + _WIDE_ORDERS)
def test_unpack_errors_match_the_per_symbol_loop(n):
    width = codec._width(n)
    rng = random.Random(-n)
    # 11 is odd, so the payload ends in padding bits unless width is 8
    for count in (11, 2 * _F + 3):
        word = [rng.randrange(n) for _ in range(count)]
        packed = _pack(word, width)
        padded = count * width % 8 != 0
        if padded:
            padding = b"x" + packed[:-1] + bytes([packed[-1] | 1]) + b"y"
            assert _error(_unpack, padding, 1, count, n) == _error(
                _ref_unpack, padding, 1, count, n, width
            ) == (f"nonzero padding bits (at offset {1 + len(packed)})", 1 + len(packed))
        if n == 2**width:
            continue  # every width-bit symbol is below n
        # the first, a random, and the last symbol; in the long word also
        # one in the middle chunk and one in the last chunk
        spots = {0, rng.randrange(count), count - 1}
        if count > _F:
            spots |= {_F + rng.randrange(_F), 2 * _F + 1}
        for k in sorted(spots):
            high = list(word)
            high[-1] = 2**width - 1  # a later bad symbol is not the one named
            high[k] = rng.randrange(n, 2**width)
            blob = _pack(high, width)
            faults = [b"x" + blob + b"y"]
            if padded:  # a bad symbol is named before nonzero padding
                faults.append(b"x" + blob[:-1] + bytes([blob[-1] | 1]) + b"y")
            for data in faults:
                got = _error(_unpack, data, 1, count, n)
                assert got == _error(_ref_unpack, data, 1, count, n, width)
                assert got[0] == f"symbol {k} is {high[k]}, beyond n={n} (at offset {got[1]})"


def test_sparse_order_70000_round_trips_in_linear_time():
    # width 17: 32-bit lanes over 206 chunks of _FIELDS symbols
    n = 70_000
    rng = random.Random(n)
    names = [f"v{i:05d}" for i in range(n)]
    edges = set()
    while len(edges) < n:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((names[a], names[b]))
    g = Graph(names, edges)
    assert codec._width(n) == 17
    t0 = time.perf_counter()
    blob = encode(g)
    back = decode(blob)
    elapsed = time.perf_counter() - t0
    assert back == g
    assert elapsed < 10.0  # about 0.6 s on a 2-core x86-64 host
    # the whole payload takes about its share of chunks times what the first
    # 8 chunks take (35 times here, for a share of 25.6); a chunk loop that
    # re-read or re-shifted the whole payload took 147 times
    count = 4 * n + 2 * g.size
    start = len(blob) - sum(len(v) + 1 for v in names) - (count * 17 + 7) // 8
    part = 8 * _F
    t_part = min(timeit.repeat(lambda: _unpack(blob, start, part, n), number=1, repeat=5))
    t_all = min(timeit.repeat(lambda: _unpack(blob, start, count, n), number=1, repeat=3))
    assert t_all < 3 * (count / part) * t_part


# --- pinned encodings -------------------------------------------------------


def _pinned_cases():
    """(graph, mode, include_names): seeded graphs at every order of
    ``_PACK_ORDERS``, so every symbol width from 1 to 12, plus order 1, an
    edgeless graph, a complete graph and a 200-byte vertex name, whose
    length needs a two-byte varint.  Every graph goes in sparse mode and
    those up to order 513 (width 10) also dense, each with and without
    names; a dense word grows with the non-edges, n^2 / 2 at these sizes."""
    rng = random.Random(1313)
    long_name = "x" * 200
    graphs = [
        Graph(["solo"]),
        Graph([f"w{i}" for i in range(9)]),
        complete_graph(12),
        Graph([long_name, "b", "\u00e9\u00e9"], [(long_name, "b"), ("b", "\u00e9\u00e9")]),
    ]
    for n in _PACK_ORDERS:
        names = [f"v{i}" for i in range(n)]
        m = rng.randrange(min(2 * n, n * (n - 1) // 2) + 1)
        edges = set()
        while len(edges) < m:
            u, v = rng.sample(names, 2)
            edges.add((min(u, v), max(u, v)))
        graphs.append(Graph(names, edges))
    for g in graphs:
        for mode in ("sparse", "dense") if g.order <= 513 else ("sparse",):
            for include_names in (True, False):
                yield g, mode, include_names


def test_encodings_are_pinned_and_decode_to_the_validated_graph():
    digest = hashlib.sha256()
    for g, mode, include_names in _pinned_cases():
        blob = encode(g, mode, include_names)
        digest.update(len(blob).to_bytes(8, "big") + blob)
        expected = Graph(g.vertices, g.edges)  # through the validating entry
        if not include_names:
            expected = expected.relabel(dict(zip(g.vertices, default_names(g.order))))
        back = decode(blob)
        assert back.vertices == expected.vertices
        assert back.edges == expected.edges
        assert back._adj == expected._adj
        assert hash(back) == hash(expected)
    assert digest.hexdigest() == (
        "f09e5d27914325aabb084ccb253cde97d91443bdedbcd1fdc66759af1bb76027"
    )


def test_decode_puts_a_name_table_out_of_token_order_in_order():
    # the encoder writes names sorted; a table naming vertices 0, 1, 2 as
    # c, b, a still decodes, with each edge in token order
    blob = encode(Graph("abc", [("a", "b")]))
    assert blob.endswith(b"\x01a\x01b\x01c")
    shuffled = blob[:-6] + b"\x01c\x01b\x01a"
    back = decode(shuffled)
    expected = Graph("cba", [("c", "b")])
    assert (back.vertices, back.edges, back._adj) == (expected.vertices, expected.edges, expected._adj)
    assert back.edges == frozenset({("b", "c")})
    assert adjacent(shuffled, "b", "c") and not adjacent(shuffled, "a", "b")


def test_decoded_graph_is_immutable():
    back = decode(encode(path_graph(3)))
    with pytest.raises(AttributeError):
        back.vertices = ("x",)
    with pytest.raises(AttributeError):
        back._adj = {}
    assert isinstance(back.edges, frozenset)
    assert all(isinstance(s, frozenset) for s in back._adj.values())
    assert back == path_graph(3) and hash(back) == hash(path_graph(3))


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


_NAME_TABLES = [
    b"\x01a\x02bb\x01c",  # sound
    b"\x01c\x01b\x01a",  # sound, out of token order
    b"\x01a\x02\xc3\xa9\x01c",  # a UTF-8 name that is not ASCII
    b"\x01a\xc8\x01" + b"b" * 200 + b"\x01c",  # a two-byte length
    b"\x01a\x00\x01c",  # an empty name
    b"\x01a\x02b b\x01c",
    b"\x01a\x02b,\x01c",
    b"\x01a\x02b\t\x01c",
    b"\x01a\x01a\x01c",  # duplicate
    b"\x01a\x01b",  # a name short
    b"\x01a\x01b\x05c",  # truncated
    b"\x01a\x01b\x01cd",  # trailing bytes
    b"\x01a\x01b\x01\xff",  # not UTF-8
]


@pytest.mark.parametrize("table", _NAME_TABLES, ids=range(len(_NAME_TABLES)))
def test_ascii_name_tables_read_as_the_per_name_reader_does(monkeypatch, table):
    # the bulk ASCII read must accept, reject and report exactly as reading
    # the table one name at a time does
    blob = encode(path_graph(3), "sparse", include_names=False) + table

    def outcome():
        codec._read.cache_clear()
        try:
            return decode(blob)
        except FormatError as err:
            return str(err), err.offset

    bulk = outcome()
    monkeypatch.setattr(codec, "_ascii_names", lambda table, n: None)
    assert outcome() == bulk


def _names_one_by_one(names):
    """The name table as a per-name writer gives it: a varint byte length,
    then the UTF-8 bytes."""
    out = bytearray()
    for v in names:
        raw = v.encode("utf-8")
        _write_varint(out, len(raw))
        out += raw
    return bytes(out)


@pytest.mark.parametrize("name", [
    "a" * 127,  # the longest one-byte length
    "a" * 128,  # a two-byte length
    "\u00e9",  # not ASCII
    "\u00e9" * 64,  # 64 characters in 128 UTF-8 bytes
    "\u00e9" * 100,
    "a" * 0x110000,  # a length chr refuses
], ids=["ascii-127", "ascii-128", "e-acute", "utf8-128-bytes", "utf8-200-bytes", "ascii-0x110000"])
def test_name_tables_match_the_per_name_writer(name):
    for g in (Graph([name]), Graph(["b", name, "c"], [("b", name), (name, "c")])):
        blob = encode(g)
        assert blob == encode(g, include_names=False) + _names_one_by_one(g.vertices)
        assert decode(blob) == g


def test_garbled_word_structure():
    # decode must say so rather than guess
    with pytest.raises(FormatError):
        decode(_garbled_dense_triangle())


def _seeded_graph(rng, n, m):
    names = [f"v{i}" for i in range(n)]
    edges = set()
    while len(edges) < m:
        u, v = rng.sample(names, 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(names, edges)


def _corruption_corpus():
    """3000 seeded corruptions of encodings at n = 300 (width 9, with and
    without names) and at widths 1-6 (sparse and dense): per base stream,
    one to three flipped bits, one byte xored with a nonzero byte, and a
    truncation, in turn."""
    rng = random.Random(1818)
    bases = [
        (encode(_seeded_graph(rng, 300, 601), "sparse", include_names), 200)
        for include_names in (True, False)
    ]
    for n in (2, 3, 6, 12, 20, 33):
        g = _seeded_graph(rng, n, rng.randrange(n * (n - 1) // 2 + 1))
        bases.append((encode(g, "sparse", n % 2 == 0), 50))
        bases.append((encode(g, "dense", n % 2 == 1), 50))
    for blob, k in bases:
        for _ in range(k):
            bits = bytearray(blob)
            for _ in range(rng.randint(1, 3)):
                b = rng.randrange(8 * len(blob))
                bits[b // 8] ^= 0x80 >> (b % 8)
            yield bytes(bits)
            flipped = bytearray(blob)
            flipped[rng.randrange(len(blob))] ^= rng.randrange(1, 256)
            yield bytes(flipped)
            yield blob[: rng.randrange(len(blob))]


def test_corrupted_streams_keep_their_pinned_outcomes():
    # each outcome is the decoded graph and stored word, or the FormatError
    # message and offset; the digest pins which check rejects each stream
    # and where, so a faster reader must reject in the same order
    digest = hashlib.sha256()
    count = 0
    for blob in _corruption_corpus():
        try:
            g = decode(blob)
        except FormatError as err:
            outcome = ("error", str(err), err.offset)
            with pytest.raises(FormatError) as again:
                decode_word(blob)
            assert (str(again.value), again.value.offset) == outcome[1:]
        else:
            outcome = ("graph", g.vertices, sorted(g.edges), decode_word(blob).letters)
        digest.update(repr(outcome).encode())
        count += 1
    assert count == 3000
    assert digest.hexdigest() == (
        "794edc39346ef84c40383cc2613191a4283c138134c5abdbd4da770e1d4c63bb"
    )


def _stream(n, word):
    """A sparse LGR1 stream of order n storing the given symbols, with no
    name table and no check that they form a copy word."""
    blob = bytearray(MAGIC + bytes([0]))
    _write_varint(blob, n)
    _write_varint(blob, len(word))
    return bytes(blob + _pack(word, max(1, (n - 1).bit_length())))


@pytest.mark.parametrize("word, message", [
    # order 3; copy word 0 0 | 1 1 | 0 2 2 then 0 0 | 1 1 | 2 0 2 is sound
    ([0, 0, 1, 1, 0, 2, 2, 0, 0, 1, 1, 2, 0, 2, 1], "copy word has odd length"),
    ([0, 0, 1, 1, 0, 0, 2, 2, 0, 0, 1, 1, 2, 0, 0, 2], "block of vertex 2 lists bad vertices"),
    ([0, 0, 1, 1, 1, 0, 2, 2, 0, 0, 1, 1, 2, 1, 0, 2], "block of vertex 2 lists bad vertices"),
    ([1, 0, 0, 1, 1, 2, 2, 0, 1, 0, 1, 1, 2, 2], "block of vertex 0 lists bad vertices"),
    ([0, 0, 2, 1, 1, 2, 2, 0, 0, 1, 2, 1, 2, 2], "block of vertex 1 lists bad vertices"),
    ([0, 0, 1, 0, 1, 2, 2, 0, 0, 1, 1, 2, 2], "copy word has odd length"),
    ([0, 0, 0, 0, 1, 1, 2, 2, 0, 0, 1, 0, 0, 1, 2, 2], "block of vertex 1 lists bad vertices"),
    ([0, 0, 2, 1, 2, 2, 0, 0, 1, 1, 2, 2], "block of vertex 1 is malformed"),
    ([0, 0, 1, 1, 0, 2, 2, 1, 0, 0, 1, 1, 2, 0, 2, 1], "copy word halves misaligned"),
    ([0, 0, 1, 1, 0, 2, 2, 0, 0, 1, 1, 2, 2, 0], "copy word second half is inconsistent"),
])
def test_block_faults_name_the_block_at_the_payload_start(word, message):
    # every copy-word check reports the offset where the symbols start
    blob = _stream(3, word)
    for read in (decode, decode_word, lambda b: adjacent(b, "0", "1")):
        with pytest.raises(FormatError) as err:
            read(blob)
        assert str(err.value).startswith(message)
        assert err.value.offset == len(MAGIC) + 3


@pytest.mark.parametrize("mode", ["sparse", "dense"])
def test_a_changed_second_half_symbol_is_inconsistent(mode):
    # one second-half symbol set to another index below n: the first half,
    # the symbol width and the padding are as encoded, so only the
    # second-half check can reject the payload
    rng = random.Random(3535)
    for n in (2, 3, 9, 40, 300):
        g = _seeded_graph(rng, n, rng.randrange(n * (n - 1) // 2 + 1))
        blob = encode(g, mode)
        n, pos = codec._read_varint(blob, 5)
        count, start = codec._read_varint(blob, pos)
        size = (count * codec._width(n) + 7) // 8
        word = _unpack(blob, start, count, n)
        k = rng.randrange(count // 2, count)
        word[k] = rng.choice([i for i in range(n) if i != word[k]])
        bad = blob[:start] + _pack(word, codec._width(n)) + blob[start + size:]
        assert len(bad) == len(blob)
        u, v = g.vertices[:2]
        for read in (decode, decode_word, lambda b: adjacent(b, u, v)):
            with pytest.raises(FormatError) as err:
                read(bad)
            assert str(err.value).startswith("copy word second half is inconsistent")
            assert err.value.offset == start
