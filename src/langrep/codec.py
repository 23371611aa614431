"""Bit-exact graph serialization through copy-language words.

Layout: magic ``LGR1``, one mode byte (0 sparse, 1 dense), vertex count n
and word length as unsigned LEB128 varints, then the word as fixed-width
max(1, ceil(log2 n))-bit vertex indices packed big-endian and zero-padded
to a byte boundary, then an optional name table (one length-prefixed UTF-8
token per index, detected by trailing bytes being present).

The word is a copy word (``copy_word``): per vertex, in index order, one
block listing earlier vertices.  Sparse mode lists each vertex's earlier
neighbors, read straight off the adjacency lists, so the word has exactly
4n + 2m symbols; it is the copy word of the complement graph.  Dense mode
lists earlier non-neighbors (4n + 2 * non-edges): the copy word of the
graph itself.  ``decode`` and ``adjacent`` read the same validated blocks.
"""

from __future__ import annotations

from .errors import FormatError
from .graphs import Graph
from .words import VertexWord, check_token

MAGIC = b"LGR1"
_MODES = {"sparse": 0, "dense": 1}
_MODE_NAMES = {v: k for k, v in _MODES.items()}


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


def copy_word(g: Graph, complement: bool = False) -> list:
    """Letters of the copy word of g, or with ``complement`` of g's
    complement, built from g's adjacency without forming the complement.

    Block i lists v_i's earlier non-neighbors (with ``complement``, its
    earlier neighbors) ascending, closed by v_i; the first half is each
    block then a lone v_i, the second a lone v_i then each block.  A pair
    projects onto equal halves iff no block lists its earlier vertex under
    the later one, i.e. iff it is an edge of the graph the word is of."""
    vs = g.vertices
    first = []
    second = []
    for i, v in enumerate(vs):
        if complement:
            # vertices are sorted tokens, so token order is index order
            block = sorted(u for u in g.neighbors(v) if u < v)
        else:
            block = [u for u in vs[:i] if not g.has_edge(v, u)]
        block.append(v)
        first += block
        first.append(v)
        second.append(v)
        second += block
    return first + second


def encode(g: Graph, mode: str = "sparse", include_names: bool = True) -> bytes:
    """Serialize a graph; the stored word is ``copy_word`` of g (dense) or
    of its complement (sparse, O(n + m) symbols), so equal labeled graphs
    encode byte-for-byte equal."""
    if mode not in _MODES:
        raise ValueError(f"unknown codec mode {mode!r}")
    n = g.order
    index = {v: i for i, v in enumerate(g.vertices)}
    letters = copy_word(g, complement=mode == "sparse")
    if mode == "sparse" and len(letters) != 4 * n + 2 * g.size:
        raise AssertionError("sparse word violates the 4n+2m length law")

    out = bytearray(MAGIC)
    out.append(_MODES[mode])
    _write_varint(out, n)
    _write_varint(out, len(letters))
    width = _width(n)
    acc = 0
    bits = 0
    for tok in letters:
        acc = (acc << width) | index[tok]
        bits += width
        while bits >= 8:
            bits -= 8
            out.append((acc >> bits) & 0xFF)
        acc &= (1 << bits) - 1  # keep the accumulator bounded
    if bits:
        out.append((acc << (8 - bits)) & 0xFF)
    if include_names:
        for v in g.vertices:
            raw = str(v).encode("utf-8")
            _write_varint(out, len(raw))
            out.extend(raw)
    return bytes(out)


class _Reader:
    """Parsed header plus lazy access to payload symbols and names."""

    __slots__ = ("data", "mode", "n", "wordlen", "width", "payload_start", "names")

    def __init__(self, data: bytes):
        if data[:4] != MAGIC:
            raise FormatError("bad magic; not an LGR1 stream", offset=0)
        if len(data) < 5:
            raise FormatError("missing mode byte", offset=4)
        if data[4] not in _MODE_NAMES:
            raise FormatError(f"unknown mode byte {data[4]}", offset=4)
        self.mode = _MODE_NAMES[data[4]]
        self.n, pos = _read_varint(data, 5)
        self.wordlen, pos = _read_varint(data, pos)
        if self.n < 1:
            raise FormatError("vertex count must be positive", offset=5)
        # every copy word has at least 4n symbols; checked before anything
        # is allocated in proportion to the untrusted n
        if self.wordlen < 4 * self.n:
            raise FormatError(
                f"word length {self.wordlen} is below 4n = {4 * self.n}", offset=5
            )
        self.width = _width(self.n)
        self.payload_start = pos
        payload_bytes = (self.wordlen * self.width + 7) // 8
        end = pos + payload_bytes
        if end > len(data):
            raise FormatError("truncated payload", offset=len(data))
        self.data = data
        self.names = self._read_names(end)

    def _read_names(self, pos: int):
        if pos == len(self.data):
            return default_names(self.n)
        names = []
        for _ in range(self.n):
            length, pos = _read_varint(self.data, pos)
            if pos + length > len(self.data):
                raise FormatError("truncated name table", offset=len(self.data))
            try:
                tok = self.data[pos:pos + length].decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError("vertex name is not UTF-8", offset=pos) from None
            names.append(check_token(tok))
            pos += length
        if pos != len(self.data):
            raise FormatError("trailing bytes after name table", offset=pos)
        if len(set(names)) != self.n:
            raise FormatError("duplicate vertex names", offset=pos)
        return names

    def symbols(self):
        """Stream payload indices; constant extra memory."""
        data, width, start = self.data, self.width, self.payload_start
        acc = 0
        bits = 0
        pos = start
        for k in range(self.wordlen):
            while bits < width:
                acc = (acc << 8) | data[pos]
                pos += 1
                bits += 8
            bits -= width
            idx = (acc >> bits) & ((1 << width) - 1)
            acc &= (1 << bits) - 1
            if idx >= self.n:
                raise FormatError(f"symbol {k} is {idx}, beyond n={self.n}", offset=pos)
            yield idx
        rest = acc & ((1 << bits) - 1)
        if rest:
            raise FormatError("nonzero padding bits", offset=pos)

    def blocks(self):
        """Per vertex index, the set of earlier indices its block lists,
        after checking the whole word is a well-formed copy word."""
        return _parse_copy_blocks(list(self.symbols()), self.n, self.payload_start)


def decode(data: bytes) -> Graph:
    """Structural decode: the copy word's first half is blocks of earlier
    non-neighbors (of the stored graph) each closed by a doubled vertex, so
    one pass recovers the adjacency without any language evaluation."""
    r = _Reader(data)
    blocks = r.blocks()
    names = r.names
    if r.mode == "sparse":
        edges = [(names[i], names[j]) for i in range(r.n) for j in blocks[i]]
    else:
        edges = [
            (names[i], names[j])
            for i in range(r.n)
            for j in range(i)
            if j not in blocks[i]
        ]
    return Graph(names, edges)


def _parse_copy_blocks(word, n, offset):
    # first half: block_i (ascending earlier listings, then i) then a lone i;
    # second half: lone i then block_i.  Parse the first half, then demand
    # the second half is its exact block-wise transpose.
    if len(word) % 2:
        raise FormatError("copy word has odd length", offset=offset)
    half = len(word) // 2
    blocks = []
    expected = []
    pos = 0
    for i in range(n):
        try:
            end = word.index(i, pos, half - 1)  # leaves room for the lone i
        except ValueError:
            end = None
        if end is None or word[end + 1] != i:
            raise FormatError(f"block of vertex {i} is malformed", offset=offset)
        listed = word[pos:end]
        if listed != sorted(set(listed)) or listed and listed[-1] > i:
            raise FormatError(f"block of vertex {i} lists bad vertices", offset=offset)
        blocks.append(set(listed))
        expected.append(i)
        expected += listed
        expected.append(i)
        pos = end + 2
    if pos != half:
        raise FormatError("copy word halves misaligned", offset=offset)
    if word[half:] != expected:
        raise FormatError("copy word second half is inconsistent", offset=offset)
    return blocks


def decode_word(data: bytes) -> VertexWord:
    """The stored representing word itself, over the stored vertex names,
    after the same copy-word check as ``decode``."""
    r = _Reader(data)
    r.blocks()
    return VertexWord(r.names[i] for i in r.symbols())


def stored_mode(data: bytes) -> str:
    return _Reader(data).mode


def adjacent(data: bytes, u, v) -> bool:
    """Single-pair adjacency from the same validated blocks as ``decode``,
    without building the graph: a malformed payload raises FormatError."""
    r = _Reader(data)
    try:
        iu, iv = r.names.index(u), r.names.index(v)
    except ValueError:
        raise FormatError(f"unknown vertex in pair ({u!r},{v!r})")
    blocks = r.blocks()
    if iu == iv:
        return False
    lo, hi = sorted((iu, iv))
    return (lo in blocks[hi]) == (r.mode == "sparse")
