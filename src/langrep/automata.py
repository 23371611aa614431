"""Deterministic finite automata over the alphabet {0, 1}.

Small self-contained machinery: regular-expression compilation (one pass,
no syntax tree, to the position automaton, then to a Dfa), product
constructions, complement by accepting-set flip, minimization by partition
refinement, and decision helpers (emptiness, equivalence, shortest
accepted word).  One subset
construction determinizes both the position automaton and the reversed
moves of ``Dfa.reverse``.  States are integers; every Dfa is total over
both input symbols, and none is built past ``AUTOMATON_BUDGET`` states, nor
a subset construction past ``SUBSET_BUDGET`` kept items.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque

from .errors import CapacityError, FormatError

ALPHABET = ("0", "1")

# states any one automaton construction may create; past it explore raises
AUTOMATON_BUDGET = 10**5

# items summed over the subsets one subset construction keeps (each state is
# a frozenset, some 50 bytes an item); past it _subsets raises
SUBSET_BUDGET = 10**6


class Dfa:
    """Total deterministic automaton; ``trans[q]`` is a (on-0, on-1) pair."""

    __slots__ = ("trans", "start", "accept")

    def __init__(self, trans, start, accept):
        self.trans = tuple((int(a), int(b)) for a, b in trans)
        self.start = int(start)
        self.accept = frozenset(accept)
        n = len(self.trans)
        for a, b in self.trans:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError("transition out of range")
        if not 0 <= self.start < n:
            raise ValueError("start state out of range")
        if any(not 0 <= q < n for q in self.accept):
            raise ValueError("accept state out of range")

    def __len__(self):
        return len(self.trans)

    def accepts(self, b: str) -> bool:
        q = self.start
        for c in b:
            q = self.trans[q][0] if c == "0" else self.trans[q][1]
        return q in self.accept

    def complement(self) -> "Dfa":
        return Dfa(self.trans, self.start, set(range(len(self))) - self.accept)

    def swap01(self) -> "Dfa":
        """Image under the complement-morphism: exchange the 0 and 1 moves."""
        return Dfa([(b, a) for a, b in self.trans], self.start, self.accept)

    def product(self, other: "Dfa", combine) -> "Dfa":
        """Reachable pair construction; ``combine`` joins acceptance bits."""
        return explore(
            (self.start, other.start),
            lambda s, c: (self.trans[s[0]][c], other.trans[s[1]][c]),
            lambda s: combine(s[0] in self.accept, s[1] in other.accept),
        )

    def intersect(self, other):
        return self.product(other, lambda a, b: a and b)

    def union(self, other):
        return self.product(other, lambda a, b: a or b)

    def is_empty(self) -> bool:
        return self.shortest_accepted() is None

    def shortest_accepted(self):
        """Length-lexicographically least accepted word, or None."""
        if self.start in self.accept:
            return ""
        seen = {self.start}
        todo = deque([(self.start, "")])
        while todo:
            q, w = todo.popleft()
            for c, q2 in zip(ALPHABET, self.trans[q]):
                if q2 not in seen:
                    if q2 in self.accept:
                        return w + c
                    seen.add(q2)
                    todo.append((q2, w + c))
        return None

    def equivalent(self, other: "Dfa") -> bool:
        return self.product(other, lambda a, b: a != b).is_empty()

    def reverse(self) -> "Dfa":
        """Automaton for the reversal language, via reversed-edge subset
        construction starting from the accepting set."""
        moves = [([], []) for _ in self.trans]
        for q, row in enumerate(self.trans):
            for c, r in enumerate(row):
                moves[r][c].append(q)
        return _subsets(self.accept, moves, lambda s: self.start in s)

    def minimize(self) -> "Dfa":
        """The minimal equivalent Dfa, by Moore partition refinement (Moore
        1956): split the states by acceptance, then by the blocks of their
        two successors until no block splits; the quotient keeps only the
        blocks reachable from the start."""
        block = [int(q in self.accept) for q in range(len(self))]
        count = len(set(block))
        while True:
            ids: dict = {}
            block = [
                ids.setdefault((block[q], block[a], block[b]), len(ids))
                for q, (a, b) in enumerate(self.trans)
            ]
            if len(ids) == count:
                break
            count = len(ids)
        rep = {b: q for q, b in enumerate(block)}
        return explore(
            block[self.start],
            lambda b, c: block[self.trans[rep[b]][c]],
            lambda b: rep[b] in self.accept,
        )


def explore(start, step, is_accept) -> Dfa:
    """The Dfa on the states reachable from ``start``, where ``step(s, c)``
    gives the successor of state s on symbol index c; states are any
    hashable values, numbered in breadth-first order; ``is_accept`` judges
    each state once, when it is created.  CapacityError is raised instead
    of creating a state past AUTOMATON_BUDGET."""
    index = {start: 0}
    trans = [None]
    accept = set()
    if is_accept(start):
        accept.add(0)
    todo = deque([start])
    while todo:
        s = todo.popleft()
        row = []
        for c in (0, 1):
            t = step(s, c)
            if t not in index:
                if len(trans) == AUTOMATON_BUDGET:
                    raise CapacityError(
                        f"automaton exceeds the budget of {AUTOMATON_BUDGET} states"
                    )
                index[t] = len(trans)
                trans.append(None)
                if is_accept(t):
                    accept.add(index[t])
                todo.append(t)
            row.append(index[t])
        trans[index[s]] = tuple(row)
    return Dfa(trans, 0, accept)


def _subsets(start, moves, is_accept) -> Dfa:
    """Subset construction: a state is a frozenset of items, entered from
    ``start``; on symbol index c an item p goes to each item of
    ``moves[p][c]``, and ``is_accept`` judges a whole set.  explore judges
    each state once, as it keeps it, so the judging charges the set's size
    to SUBSET_BUDGET and raises CapacityError past it."""
    kept = 0

    def judged(s) -> bool:
        nonlocal kept
        kept += len(s)
        if kept > SUBSET_BUDGET:
            raise CapacityError(
                f"subset construction exceeds the budget of {SUBSET_BUDGET} kept items"
            )
        return is_accept(s)

    return explore(
        frozenset(start),
        lambda s, c: frozenset(x for p in s for x in moves[p][c]),
        judged,
    )


def dfa_from_finite(words) -> Dfa:
    """Trie-shaped Dfa for a finite set of binary words; None is the trap.
    The trie is walked over the sorted words, with no prefix set: q is a
    state iff the first word at or after q starts with q, so building stops
    at the automaton budget, not after reading every prefix."""
    words = sorted(words)
    end = len(words)

    def step(p, c):
        if p is not None:
            q = p + ALPHABET[c]
            i = bisect_left(words, q)
            if i < end and words[i].startswith(q):
                return q
        return None

    def is_accept(p):
        i = end if p is None else bisect_left(words, p)
        return i < end and words[i] == p

    return explore("", step, is_accept)


# --- regular expressions ----------------------------------------------------
#
# Surface syntax: literals 0 and 1, e for the empty word, (), |, juxtaposition
# for concatenation, postfix *.  Compiled through the position automaton
# (Glushkov 1961; McNaughton and Yamada 1960), which has no empty moves: each
# literal is a position, position 0 is the start, and a Dfa state is the set
# of positions that can have just been read.  The expression is read in one
# pass, left to right, with no syntax tree: a stack holds the open groups,
# and each *, juxtaposition and | updates the follow sets and the (nullable,
# first positions, last positions) triples as it is read.  _NOTHING is the
# triple of no branch, the identity of |; _EMPTY_WORD is that of e, the
# identity of juxtaposition.
_NOTHING = (False, frozenset(), frozenset())
_EMPTY_WORD = (True, frozenset(), frozenset())


def compile_regex(expr: str) -> Dfa:
    letter = [None]  # symbol index of each position, numbered in text order
    follow = [set()]  # positions that may be read right after each position
    # per open group, innermost last: the triples of the union of its
    # finished branches, of the concatenation of its current branch's
    # finished factors, and of that branch's last factor, which a * may
    # still star (None before the branch's first factor)
    groups = [[_NOTHING, _EMPTY_WORD, None]]
    for i, c in enumerate((*expr, None)):  # None: the end of the expression
        group = groups[-1]
        union, (nullable, first, last), factor = group
        if c == "*" and factor:
            for p in factor[2]:
                follow[p] |= factor[1]
            group[2] = (True, factor[1], factor[2])
            continue
        if factor:  # juxtaposition: the last factor joins its branch
            for p in last:
                follow[p] |= factor[1]
            group[1] = (nullable and factor[0], first | factor[1] if nullable else first,
                        last | factor[2] if factor[0] else factor[2])
            group[2] = None
        if c in ("0", "1"):
            letter.append(int(c))
            follow.append(set())
            group[2] = (False, {len(letter) - 1}, {len(letter) - 1})
        elif c == "e":
            group[2] = _EMPTY_WORD
        elif c == "(":
            groups.append([_NOTHING, _EMPTY_WORD, None])
        elif c not in ("|", ")", None):
            raise FormatError(f"bad regex character {c!r}", i)
        elif not factor:
            # the syntax has an explicit 'e'; an empty branch is a slip
            raise FormatError("empty regex branch (use 'e' for the empty word)", i)
        else:
            branch = group[1]
            union = (union[0] or branch[0], union[1] | branch[1], union[2] | branch[2])
            if c == "|":
                groups[-1] = [union, _EMPTY_WORD, None]
            elif c == ")" and len(groups) == 1:
                raise FormatError("unexpected ')' in regex", i)
            elif c == ")":
                groups.pop()
                groups[-1][2] = union
            elif len(groups) > 1:
                raise FormatError("unbalanced parenthesis in regex", i + 1)
    nullable, follow[0], last = union
    if nullable:
        last = last | {0}
    moves = [[[q for q in after if letter[q] == c] for c in (0, 1)] for after in follow]
    return _subsets({0}, moves, lambda s: not last.isdisjoint(s))


def count_window_dfa(zeros: int, ones: int) -> Dfa:
    """Accepts exactly the words with ``zeros`` 0s and ``ones`` 1s."""
    # (seen zeros, seen ones), with None the trap for overshoot
    def step(s, c):
        if s is None:
            return None
        i, j = s[0] + (c == 0), s[1] + (c == 1)
        return (i, j) if i <= zeros and j <= ones else None

    return explore((0, 0), step, lambda s: s == (zeros, ones))


def both_symbols_dfa() -> Dfa:
    """Accepts words containing at least one 0 and at least one 1, i.e. the
    complement of 0*+1*.  Four states: the sets of symbols seen so far."""
    return explore(frozenset(), lambda s, c: s | {c}, lambda s: len(s) == 2)
