"""Words over vertex alphabets and binary pattern words.

A vertex word is a nonempty sequence of vertex tokens.  Projecting a vertex
word onto an ordered pair (u, v) yields a binary word: occurrences of u
become 0, occurrences of v become 1, everything else vanishes.  Binary words
are plain strings over {0, 1} and may be empty.

One routine projects: ``project_rows`` yields the projections onto every
pair of a vertex list, restricting the word to ever fewer letters, as byte
strings, by C-level ``translate`` calls (see its docstring).
``VertexWord.project`` runs it on one pair, O(|w|) per call, so many pairs
belong in one ``project_rows`` call.
"""

from __future__ import annotations

from functools import cache
from itertools import repeat

from .errors import FormatError

Vertex = str

_BAD_TOKEN_CHARS = set(" \t\n\r,")


def check_token(tok: str) -> str:
    if not tok or not _BAD_TOKEN_CHARS.isdisjoint(tok):
        raise FormatError(f"invalid vertex token {tok!r}")
    return tok


class VertexWord:
    """Immutable nonempty word over an arbitrary vertex alphabet."""

    __slots__ = ("letters",)

    def __init__(self, letters):
        letters = tuple(letters)
        if not letters:
            raise ValueError("vertex word must be nonempty")
        for tok in dict.fromkeys(letters):  # each distinct token once, in word order
            check_token(tok)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, value):
        raise AttributeError("VertexWord is immutable")

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __eq__(self, other):
        return isinstance(other, VertexWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"VertexWord({self.text()!r})"

    @staticmethod
    def parse(text: str) -> "VertexWord":
        """Parse a word: whitespace- or comma-separated tokens, or, when the
        text contains no separators, one single-character token per symbol."""
        text = text.strip()
        if not text:
            raise FormatError("empty word text")
        if not _BAD_TOKEN_CHARS.isdisjoint(text):
            toks = [t for t in text.replace(",", " ").split() if t]
            return VertexWord(toks)
        return VertexWord(list(text))

    def text(self) -> str:
        """Inverse of parse: contiguous when all tokens are single characters."""
        if all(len(t) == 1 for t in self.letters):
            return "".join(self.letters)
        return " ".join(self.letters)

    def alphabet(self) -> frozenset:
        return frozenset(self.letters)

    def frequency_profile(self) -> dict:
        prof: dict = {}
        for tok in self.letters:
            prof[tok] = prof.get(tok, 0) + 1
        return prof

    def reverse(self) -> "VertexWord":
        return VertexWord(reversed(self.letters))

    def project(self, u: Vertex, v: Vertex) -> str:
        """The pair morphism h_{u,v}: u -> 0, v -> 1, other letters -> empty.
        One ``project_rows`` pass, O(|w|); use that for many pairs."""
        if u == v:
            raise ValueError("projection endpoints must be distinct")
        return next(project_rows(self, (u, v)))[0]

    def project_set(self, keep) -> "VertexWord":
        """The projective morphism h_A keeping only letters in ``keep``."""
        keep = frozenset(keep)
        out = [tok for tok in self.letters if tok in keep]
        if not out:
            raise ValueError("projection onto a set disjoint from the alphabet")
        return VertexWord(out)


def project_rows(word: VertexWord, vs):
    """For each vs[i] in turn, its projections onto the later vertices:
    the list [h_{vs[i], v}(w) for v in vs[i + 1:]].  vs holds distinct
    tokens; letters of the word outside it drop out.

    Three restrictions, each a C-level pass over bytes; with letters
    spread evenly over the vertices:

    0. vs splits into groups of at most ``_GROUP`` = 127.  For group i and
       each group j >= i, the word on the two groups becomes one bytes
       string, group i's vertices coded 0-126 and group j's 127-253 (when
       j == i, group i alone): O(|w|) map steps per group pair.  Group i's
       strings, about 2·|w| bytes, are all that is kept at once.
    1. For each band A of ``_BLOCK`` rows and each block B of as many
       later columns, one ``translate`` with a recode table and a delete
       set keeps the word on A ∪ B, A's vertices coded from 0 and B's from
       ``_BLOCK``: O(127·n·|w| / _BLOCK²) bytes over all blocks.
    2. Each pair (u, v) of the block is one more ``translate`` of that
       string, deleting every code but u's and v's and writing u as 0 and
       v as 1, then a ``decode``: O(_BLOCK·n·|w|) bytes over all pairs.

    The Python steps are O(n²/_BLOCK²) for the blocks; the pairs of a block
    row go through ``map``.  A band's rows are yielded together once its
    blocks are done, so the rows held at once are one band's."""
    n = len(vs)
    marks, deletes = _pair_tables()
    letters = word.letters
    for g in range(0, n, _GROUP):
        group = vs[g:g + _GROUP]
        # level 0: the word on this group, then on it and each later group,
        # each with the codes its columns start and end at
        own = _restrict(letters, group, ())
        spans = [(own, 0, len(group))] + [
            (_restrict(letters, group, later), _GROUP, _GROUP + len(later))
            for later in (vs[h:h + _GROUP] for h in range(g + _GROUP, n, _GROUP))
        ]
        for a0 in range(0, len(group), _BLOCK):
            a1 = min(a0 + _BLOCK, len(group))
            m = a1 - a0
            rows = [[] for _ in range(m)]
            band = _CODES[a0:a1]
            # the pairs inside the band: A's codes alone, from 0
            local = own.translate(bytes.maketrans(band, _CODES[:m]), _CODES[:a0] + _CODES[a1:])
            for cu in range(m - 1):
                rows[cu] += map(
                    bytes.decode,
                    map(local.translate, repeat(marks[cu], m - 1 - cu), deletes[cu][cu + 1:m]),
                )
            # the later columns, block by block
            for sub, start, end in spans:
                for c0 in range(max(start, a1), end, _BLOCK):
                    c1 = min(c0 + _BLOCK, end)
                    k = c1 - c0
                    local = sub.translate(
                        bytes.maketrans(band + _CODES[c0:c1], _CODES[:m] + _CODES[_BLOCK:_BLOCK + k]),
                        _CODES[:a0] + _CODES[a1:c0] + _CODES[c1:],
                    )
                    for cu in range(m):
                        rows[cu] += map(
                            bytes.decode,
                            map(local.translate, repeat(marks[cu], k), deletes[cu][_BLOCK:_BLOCK + k]),
                        )
            yield from rows


def _restrict(letters, low, high) -> bytes:
    """letters on low ∪ high as bytes: low[k] coded k, high[k] _GROUP + k."""
    code = {v: k for k, v in enumerate(low)}
    code.update({v: _GROUP + k for k, v in enumerate(high)})
    return bytes(map(code.get, letters, repeat(_DROP))).translate(None, _CODES[_DROP:])


@cache
def _pair_tables() -> tuple:
    """Level 2's tables, built on first use: marks[cu] writes local code cu
    as "0" and any other as "1"; deletes[cu][cv] holds every local code but
    cu and cv."""
    local = range(2 * _BLOCK)
    marks = [b"1" * cu + b"0" + b"1" * (255 - cu) for cu in range(_BLOCK)]
    deletes = [[bytes(c for c in local if c != cu and c != cv) for cv in local] for cu in local]
    return marks, deletes


_GROUP = 127  # vertices per level-0 group: two groups' codes stay below _DROP
_BLOCK = 5  # rows per band and columns per block at level 1
_DROP = 255  # level 0's code for a letter outside both groups
_CODES = bytes(range(256))


def check_binary(b: str) -> str:
    if any(c not in "01" for c in b):
        raise FormatError(f"not a binary word: {b!r}")
    return b


def complement_word(b: str) -> str:
    """The 0 <-> 1 involution on binary words."""
    return b.translate(_COMPLEMENT)


_COMPLEMENT = str.maketrans("01", "10")
