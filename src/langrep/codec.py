"""Bit-exact graph serialization through copy-language words.

Layout: magic ``LGR1``, one mode byte (0 sparse, 1 dense), vertex count n
and word length as unsigned LEB128 varints, then the word as fixed-width
max(1, ceil(log2 n))-bit vertex indices packed big-endian and zero-padded
to a byte boundary, then an optional name table (one length-prefixed UTF-8
token per index, detected by trailing bytes being present).

The word is a copy word (``copy_word``): per vertex, in index order, one
block listing earlier vertices.  Sparse mode lists each vertex's earlier
neighbors, gathered in one pass over the edges, so the word has exactly
4n + 2m symbols; it is the copy word of the complement graph.  Dense mode
lists earlier non-neighbors (4n + 2 * non-edges): the copy word of the
graph itself.

The codec works on vertex indices from the adjacency to the packed bits
and back.  ``encode`` builds each block as a list of indices, then the
word from the blocks; ``copy_word`` uses the same two steps.  A name
length below 0x80 is a one-byte varint, so a table whose names are ASCII
and each below 0x80 characters is ASCII throughout: ``encode`` writes it
with one join, and ``decode`` reads it once and checks its names in bulk.
Any other table is written name by name, each length a varint.  A table
that fails any check is read again name by name, to report the first
fault where it lies.

Symbols are packed and unpacked ``_FIELDS`` at a time as big ints.  A
chunk of f fixed-width fields is whole bytes, read with one int
conversion; log2(f) mask-and-shift steps then move field k from bit
k * width to bit k * lane, where the lane is the smallest of 16, 32 and
64 bits that holds the width, and one conversion to big-endian lanes
gives an array of the indices (byte-swapped on a little-endian host).
Packing takes the steps in reverse.  The masks of the last four widths
are cached; their size depends on ``_FIELDS`` and the width, never on
the payload.

``decode``, ``decode_word`` and ``adjacent`` read one validated index
per distinct payload: a payload is parsed once, through every check,
into its names and blocks.  The indexes of the last ``_CACHED_PAYLOADS``
payloads are kept, keyed by the payload's content (never by object
identity), so a repeated query on identical bytes is a lookup, and a
bytearray changed in place is read afresh.  A payload that raises is not
kept, so it raises again on every call.  The copy-word check finds each
block's doubled terminator, tests in one big-int pass over the first
half that every block ascends, and compares the second half with the one
the blocks give (``_second_half``, which ``_copy_symbols`` writes too).
The blocks are slices of the first half, so it matches them by
construction and is not rebuilt.  Each block is kept, once, as its
ascending index list, which ``adjacent`` bisects and from which
``decode_word`` rebuilds the word.  ``decode`` freezes its graph straight
from the validated blocks, with no adjacency: the graph builds that on
its first neighbour query.  The names were checked once, while the table
was read.
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_left
from functools import lru_cache
from typing import NamedTuple

from .errors import FormatError
from .graphs import Graph
from .words import _BAD_TOKEN_CHARS, VertexWord, check_token

MAGIC = b"LGR1"
_MODES = {"sparse": 0, "dense": 1}
_MODE_NAMES = {v: k for k, v in _MODES.items()}
_CACHED_PAYLOADS = 4  # validated indexes kept, least recently used dropped
# symbols per big-int chunk in _pack and _unpack: a power of two, so the
# lane steps halve it down to one field, and a multiple of 8, so every
# chunk of fixed-width symbols is whole bytes
_FIELDS = 2048
# lane bits -> format character: struct's standard sizes under ">", and
# array's item sizes on every platform CPython supports
_LANE_CODES = {16: "H", 32: "I", 64: "Q"}


def _width(n: int) -> int:
    return max(1, (n - 1).bit_length())


def _write_varint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int):
    shift = 0
    value = 0
    while True:
        if pos >= len(data):
            raise FormatError("truncated varint", offset=pos)
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise FormatError("varint too long", offset=pos)


def default_names(n: int):
    """Anonymous vertex tokens: zero-padded decimals, so lexicographic
    order equals index order."""
    width = max(1, len(str(n - 1)))
    return [f"{i:0{width}d}" for i in range(n)]


def _copy_blocks(g: Graph, complement: bool = False) -> list:
    """Per vertex index i, the ascending earlier indices block i of
    ``copy_word`` lists."""
    vs = g.vertices
    if complement:
        # one pass over the edges: vertices are sorted tokens, so token
        # order is index order and each edge (u, v) has u earlier than v
        where = {v: i for i, v in enumerate(vs)}
        blocks = [[] for _ in vs]
        for u, v in g.edges:
            blocks[where[v]].append(where[u])
        for block in blocks:
            block.sort()
        return blocks
    adj = g._adj
    return [[j for j in range(i) if vs[j] not in adj[v]] for i, v in enumerate(vs)]


def _copy_symbols(blocks: list) -> list:
    """The copy word of the blocks as vertex indices: per block i, the
    block then i i in the first half, then the ``_second_half``."""
    word = []
    for i, block in enumerate(blocks):
        word += block
        word.append(i)
        word.append(i)
    _second_half(word, blocks)
    return word


def _second_half(out: list, blocks: list) -> None:
    """Append the copy word's second half to out: per block i, i, the
    block, i."""
    for i, block in enumerate(blocks):
        out.append(i)
        out += block
        out.append(i)


def copy_word(g: Graph, complement: bool = False) -> list:
    """Letters of the copy word of g, or with ``complement`` of g's
    complement, built from g's adjacency without forming the complement.

    Block i lists, as vertex indices in ascending order, v_i's earlier
    non-neighbors (with ``complement``, its earlier neighbors, gathered in
    one pass over g's edges), closed by i; the first half is each block
    then a lone i, the second a lone i then each block.  A pair projects
    onto equal halves iff no block lists its earlier vertex under the later
    one, i.e. iff it is an edge of the graph the word is of.  ``encode``
    packs the indices as they are; the letters are the indices mapped to
    g's vertex names."""
    return list(map(g.vertices.__getitem__, _copy_symbols(_copy_blocks(g, complement))))


@lru_cache(maxsize=4)
def _lanes(width: int) -> tuple:
    """(lane bits, steps) for width-bit symbols in _FIELDS-symbol
    chunks, read and never changed by ``_pack`` and ``_unpack``.  The lane
    is the smallest of 16, 32 and 64 bits that holds width.  Step s, for
    groups of g = _FIELDS >> s fields whose fields lie width bits apart and
    whose groups start g lanes apart, moves each group's high half up by
    shift = g/2 * (lane - width) bits, so its groups of g/2 fields start
    g/2 lanes apart: after the last, field k sits at bit k * lane.  Each
    step is (mask of the high halves, shift, that mask shifted); a chunk
    of f < _FIELDS fields takes the last log2(f) steps.  The masks are
    _FIELDS lanes wide whatever the payload; a width equal to its lane
    needs no steps."""
    lane = min(b for b in _LANE_CODES if b >= width)
    steps = []
    g = _FIELDS
    while g > 1 and lane > width:
        half = g // 2
        group = ((1 << half * width) - 1 << half * width).to_bytes(g * lane // 8, "big")
        mask = int.from_bytes(group * (_FIELDS // g), "big")
        shift = half * (lane - width)
        steps.append((mask, shift, mask << shift))
        g = half
    return lane, steps


def _chunk_fields(rest: int) -> int:
    """Fields in the chunk that holds the next rest symbols: _FIELDS, or
    for the last chunk the least power of two at least rest and 8."""
    return min(_FIELDS, max(8, 1 << (rest - 1).bit_length()))


def _pack(indices: list, width: int) -> bytes:
    """The indices as big-endian width-bit fields, zero-padded to a byte:
    per chunk, the indices as big-endian lanes in one int (struct packs a
    list faster than array takes one), then the ``_lanes`` steps in
    reverse."""
    lane, steps = _lanes(width)
    out = []
    for first in range(0, len(indices), _FIELDS):
        part = indices[first:first + _FIELDS]
        fields = _chunk_fields(len(part))
        acc = int.from_bytes(struct.pack(f">{len(part)}{_LANE_CODES[lane]}", *part), "big")
        acc <<= (fields - len(part)) * lane
        for _, shift, high in reversed(steps[len(steps) + 1 - fields.bit_length():]):
            hi = acc & high
            acc = acc ^ hi | hi >> shift
        out.append(acc.to_bytes(fields * width // 8, "big"))
    return b"".join(out)[:(len(indices) * width + 7) // 8]


def encode(g: Graph, mode: str = "sparse", include_names: bool = True) -> bytes:
    """Serialize a graph; the stored word is ``copy_word`` of g (dense) or
    of its complement (sparse, O(n + m) symbols), so equal labeled graphs
    encode byte-for-byte equal."""
    if mode not in _MODES:
        raise ValueError(f"unknown codec mode {mode!r}")
    n = g.order
    word = _copy_symbols(_copy_blocks(g, complement=mode == "sparse"))
    if mode == "sparse" and len(word) != 4 * n + 2 * g.size:
        raise AssertionError("sparse word violates the 4n+2m length law")

    out = bytearray(MAGIC)
    out.append(_MODES[mode])
    _write_varint(out, n)
    _write_varint(out, len(word))
    out += _pack(word, _width(n))
    if include_names:
        out += _name_table(g.vertices)
    return bytes(out)


def _name_table(names) -> bytes:
    """Per name, its UTF-8 byte length as a varint, then those bytes.  When
    every name is ASCII and below 0x80 characters, each length is one ASCII
    byte, and the table is one join; a longer name gives a non-ASCII length
    character, so one isascii() test sees both."""
    try:
        table = "".join([chr(len(v)) + v for v in names])
    except ValueError:  # chr refuses a length of 0x110000 or more
        pass
    else:
        if table.isascii():
            return table.encode("ascii")
    out = bytearray()
    for v in names:
        raw = v.encode("utf-8")
        _write_varint(out, len(raw))
        out += raw
    return bytes(out)


def _unpack(data: bytes, start: int, count: int, n: int) -> list:
    """The count payload symbols at data[start:], each checked below n,
    then the padding bits after them checked zero.  Per chunk, one int
    conversion, the ``_lanes`` steps, and one conversion to big-endian
    lanes; the lanes of all chunks become the list at once."""
    width = _width(n)
    lane, steps = _lanes(width)
    size = (count * width + 7) // 8
    lanes = array(_LANE_CODES[lane])
    for first in range(0, count, _FIELDS):
        fields = _chunk_fields(count - first)
        at = start + first * width // 8
        chunk = data[at:min(at + fields * width // 8, start + size)]
        acc = int.from_bytes(chunk, "big") << (fields * width - len(chunk) * 8)
        for mask, shift, _ in steps[len(steps) + 1 - fields.bit_length():]:
            hi = acc & mask
            acc = acc ^ hi | hi << shift
        lanes.frombytes(acc.to_bytes(fields * lane // 8, "big"))
    if sys.byteorder == "little":
        lanes.byteswap()
    word = lanes.tolist()
    del word[count:]
    if max(word) >= n:
        k = next(k for k, i in enumerate(word) if i >= n)
        raise FormatError(
            f"symbol {k} is {word[k]}, beyond n={n}",
            offset=start + ((k + 1) * width + 7) // 8,
        )
    if data[start + size - 1] & ((1 << (size * 8 - count * width)) - 1):
        raise FormatError("nonzero padding bits", offset=start + size)
    return word


def _read_names(data: bytes, pos: int, n: int):
    if pos == len(data):
        return default_names(n)
    names = _ascii_names(data[pos:], n)
    if names is not None:
        return names
    # the per-name reader names the first fault and its offset
    size = len(data)
    names = []
    for _ in range(n):
        length = data[pos] if pos < size else 0x80
        if length < 0x80:  # a one-byte varint
            pos += 1
        else:
            length, pos = _read_varint(data, pos)
        end = pos + length
        if end > size:
            raise FormatError("truncated name table", offset=size)
        try:
            tok = data[pos:end].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("vertex name is not UTF-8", offset=pos) from None
        names.append(check_token(tok))
        pos = end
    if pos != size:
        raise FormatError("trailing bytes after name table", offset=pos)
    if len(set(names)) != n:
        raise FormatError("duplicate vertex names", offset=pos)
    return names


def _ascii_names(table: bytes, n: int):
    """The n names of an ASCII table that passes every check, else None.
    Every byte is below 0x80, so each length is a one-byte varint."""
    if not table.isascii():
        return None
    text = table.decode("ascii")
    names = []
    at = 0
    try:
        for _ in range(n):
            end = at + 1 + table[at]
            names.append(text[at + 1:end])
            at = end
    except IndexError:
        return None
    if at != len(text) or not all(names) or not _BAD_TOKEN_CHARS.isdisjoint("".join(names)):
        return None
    return names if len(set(names)) == n else None


class _Index(NamedTuple):
    mode: str
    names: tuple
    where: dict  # name -> vertex index
    blocks: list  # per vertex index, the ascending earlier indices its block lists


@lru_cache(maxsize=_CACHED_PAYLOADS)
def _read(data: bytes) -> _Index:
    """Every check of the format (header, name table, symbols, copy-word
    blocks, in that order), then the index."""
    if data[:4] != MAGIC:
        raise FormatError("bad magic; not an LGR1 stream", offset=0)
    if len(data) < 5:
        raise FormatError("missing mode byte", offset=4)
    if data[4] not in _MODE_NAMES:
        raise FormatError(f"unknown mode byte {data[4]}", offset=4)
    n, pos = _read_varint(data, 5)
    wordlen, start = _read_varint(data, pos)
    if n < 1:
        raise FormatError("vertex count must be positive", offset=5)
    # every copy word has at least 4n symbols; checked before anything is
    # allocated in proportion to the untrusted n
    if wordlen < 4 * n:
        raise FormatError(f"word length {wordlen} is below 4n = {4 * n}", offset=5)
    end = start + (wordlen * _width(n) + 7) // 8
    if end > len(data):
        raise FormatError("truncated payload", offset=len(data))
    names = _read_names(data, end, n)
    blocks = _parse_copy_blocks(_unpack(data, start, wordlen, n), n, start)
    where = {v: i for i, v in enumerate(names)}
    return _Index(_MODE_NAMES[data[4]], tuple(names), where, blocks)


def _index(data) -> _Index:
    # keyed by content: bytes(memoryview(...)) snapshots a bytearray, and
    # refuses a non-buffer such as an int (bytes(k) would allocate k bytes)
    return _read(data if isinstance(data, bytes) else bytes(memoryview(data)))


def decode(data: bytes) -> Graph:
    """Structural decode: the copy word's first half is blocks of earlier
    non-neighbors (of the stored graph) each closed by a doubled vertex, so
    one pass recovers the edges without any language evaluation.  The
    graph is frozen straight from the validated blocks, its adjacency left
    to its first neighbour query: each name was checked once, as the name
    table was read."""
    ix = _index(data)
    names = ix.names
    if ix.mode == "sparse":
        earlier = ix.blocks
    else:
        earlier = [[j for j in range(i) if j not in s] for i, s in enumerate(map(set, ix.blocks))]
    # each edge once, as (earlier name, later name)
    edges = [(names[j], v) for v, block in zip(names, earlier) for j in block]
    vs = tuple(sorted(names))
    if vs != names:  # a name table out of token order
        edges = [(u, v) if u < v else (v, u) for u, v in edges]
    return Graph._frozen(vs, edges)


def _descents(symbols: list, lane: int) -> int:
    """Per adjacent pair (p, p + 1) of the symbols, one lane of a
    big-endian int, pair 0 highest, whose top bit is set iff symbol p >=
    symbol p + 1; every symbol fits in lane - 1 bits."""
    pairs = len(symbols) - 1
    seq = int.from_bytes(struct.pack(f">{pairs + 1}{_LANE_CODES[lane]}", *symbols), "big")
    ones = int.from_bytes((bytes(lane // 8 - 1) + b"\1") * pairs, "big")
    top = ones << (lane - 1)
    # lane by lane, top + later - earlier - 1 lies in [0, 2 * top): it keeps
    # its top bit, and borrows from no other lane, iff later > earlier
    later = seq & ((1 << pairs * lane) - 1)
    return top & ~((later | top) - (seq >> lane) - ones)


def _parse_copy_blocks(word, n, offset):
    # first half: block_i (ascending earlier listings, then i) then a lone i;
    # second half: lone i then block_i.  Find each block's doubled
    # terminator, check in one pass over the first half that the blocks
    # ascend, then demand the second half is the one the blocks give.  Of
    # several faults, the one of the first faulty block is raised.
    if len(word) % 2:
        raise FormatError("copy word has odd length", offset=offset)
    half = len(word) // 2
    lane = min(b for b in _LANE_CODES if b > _width(n))
    size = lane // 8
    marks = bytearray(half * size)  # a top bit in the lane of each block's first terminator
    blocks = []
    fault = None
    pos = 0
    for i in range(n):
        try:
            end = word.index(i, pos, half - 1)  # leaves room for the lone i
        except ValueError:
            end = None
        if end is None or word[end + 1] != i:
            fault = f"block of vertex {i} is malformed"
            break
        blocks.append(word[pos:end])
        marks[end * size] = 0x80
        pos = end + 2
    else:
        if pos != half:
            fault = "copy word halves misaligned"
    if pos:
        # a symbol may be >= its successor only at a doubled terminator:
        # i >= i, and i >= the first listing of the next block
        terminators = int.from_bytes(marks[:(pos - 1) * size], "big")
        bad = _descents(word[:pos], lane) & ~(terminators | terminators >> lane)
        if bad:
            p = pos - 2 - (bad.bit_length() - 1) // lane
            i = marks.count(0x80, 0, p * size)
            raise FormatError(f"block of vertex {i} lists bad vertices", offset=offset)
    if fault:
        raise FormatError(fault, offset=offset)
    # the first half is the blocks by construction; the second must follow
    second = []
    _second_half(second, blocks)
    if second != word[half:]:
        raise FormatError("copy word second half is inconsistent", offset=offset)
    return blocks


def decode_word(data: bytes) -> VertexWord:
    """The stored representing word itself, over the stored vertex names,
    after the same copy-word check as ``decode``."""
    ix = _index(data)
    return VertexWord(map(ix.names.__getitem__, _copy_symbols(ix.blocks)))


def adjacent(data: bytes, u, v) -> bool:
    """Single-pair adjacency from the same validated blocks as ``decode``,
    without building the graph: a malformed payload raises FormatError."""
    ix = _index(data)
    try:
        iu, iv = ix.where[u], ix.where[v]
    except (KeyError, TypeError):  # TypeError: an unhashable vertex
        raise FormatError(f"unknown vertex in pair ({u!r},{v!r})") from None
    if iu == iv:
        return False
    if iu > iv:
        iu, iv = iv, iu
    block = ix.blocks[iv]
    k = bisect_left(block, iu)
    return (k < len(block) and block[k] == iu) == (ix.mode == "sparse")
