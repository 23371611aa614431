"""Words over vertex alphabets and binary pattern words.

A vertex word is a nonempty sequence of vertex tokens.  Projecting a vertex
word onto an ordered pair (u, v) yields a binary word: occurrences of u
become 0, occurrences of v become 1, everything else vanishes.  Binary words
are plain strings over {0, 1} and may be empty.

A word projects through a position index built once, on the first
projection.  Each position p of a letter is kept twice, as an integer tag
(p << 8) | ord(side), the side being "0" for the letter mapped to 0 or "1"
for the letter mapped to 1, so tags sort in position order.  Projecting u
onto a row of letters v sorts, for each v, u's 0-side tags together with v's
1-side tags, packs them as unsigned 64-bit machine integers, and reads the
low byte of each, the side, with one extended slice of the packed bytes;
``project_row`` is that one routine and ``project`` its one-pair case.  A
pair costs O(|u| + |v|) rather than O(|w|), all pairs together O(n·|w|),
and the per-symbol work runs in C.
"""

from __future__ import annotations

import sys
from array import array

from .errors import FormatError

Vertex = str

_BAD_TOKEN_CHARS = set(" \t\n\r,")


def check_token(tok: str) -> str:
    if not tok or not _BAD_TOKEN_CHARS.isdisjoint(tok):
        raise FormatError(f"invalid vertex token {tok!r}")
    return tok


class VertexWord:
    """Immutable nonempty word over an arbitrary vertex alphabet."""

    # _index: letter -> (0-side tags, 1-side tags), built by the first
    # projection.  A tag is (position << 8) | ord(side); each list is
    # ascending.  Equality and hashing see only the letters.
    __slots__ = ("letters", "_index")

    def __init__(self, letters):
        letters = tuple(letters)
        if not letters:
            raise ValueError("vertex word must be nonempty")
        for tok in dict.fromkeys(letters):  # each distinct token once, in word order
            check_token(tok)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_index", None)

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
        """The pair morphism h_{u,v}: u -> 0, v -> 1, other letters -> empty."""
        return self.project_row(u, (v,))[0]

    def project_row(self, u: Vertex, others) -> list:
        """u's projection onto each v in others, in order: [h_{u,v}(w) ...]."""
        tags_of = self._index or self._build_index()
        zeros = tags_of.get(u, _ABSENT)[0]
        row = []
        for v in others:
            if v == u:
                raise ValueError("projection endpoints must be distinct")
            # both lists are ascending, so Timsort merges the two runs in one pass
            tags = zeros + tags_of.get(v, _ABSENT)[1]
            tags.sort()
            row.append(array("Q", tags).tobytes()[_SIDE_BYTE::8].decode())
        return row

    def _build_index(self) -> dict:
        zeros: dict = {}
        for tag, tok in zip(range(_ZERO, len(self.letters) << 8, 1 << 8), self.letters):
            zeros.setdefault(tok, []).append(tag)
        # ord("1") == ord("0") + 1, so a 1-side tag is its 0-side tag plus one
        index = {tok: (tags, [t + 1 for t in tags]) for tok, tags in zeros.items()}
        object.__setattr__(self, "_index", index)
        return index

    def project_set(self, keep) -> "VertexWord":
        """The projective morphism h_A keeping only letters in ``keep``."""
        keep = frozenset(keep)
        out = [tok for tok in self.letters if tok in keep]
        if not out:
            raise ValueError("projection onto a set disjoint from the alphabet")
        return VertexWord(out)


_ABSENT = ([], [])  # a letter not in the word: never mutated
_ZERO = ord("0")
# where a tag's low byte sits among its 8 packed bytes
_SIDE_BYTE = 0 if sys.byteorder == "little" else 7


def check_binary(b: str) -> str:
    if any(c not in "01" for c in b):
        raise FormatError(f"not a binary word: {b!r}")
    return b


def complement_word(b: str) -> str:
    """The 0 <-> 1 involution on binary words."""
    return b.translate(_COMPLEMENT)


_COMPLEMENT = str.maketrans("01", "10")
