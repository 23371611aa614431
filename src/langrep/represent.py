"""Graph-from-word evaluation, verification, bounded search, decomposition.

The central relation: given a symmetric binary language L and a word w over
a vertex alphabet, u and v are adjacent iff the pairwise projection of w
(u to 0, v to 1, everything else erased) lies in L.

Search works on the target graph's own vertex names.  A multiplicity CSP
first gives each vertex a letter count, keeping only counts that every pair
can still realize; then one DFS per surviving assignment builds the word
letter by letter, pruning on the same per-pair feasibility table.  Twins
with equal bounds are interchangeable, so their multiplicities are taken in
non-decreasing vertex order and, when equal, they start in vertex order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .errors import CapacityError
from .graphs import Graph
from .isomorphism import isomorphic
from .languages import Language, require_symmetric
from .automata import Dfa
from .grammar import Cfg
from .words import VertexWord

DEFAULT_NODE_BUDGET = 10**8

# words with counts (k, l) number C(k+l, k); pair-nonemptiness scans them
# for opaque languages, so keep an explicit ceiling, which also bounds the
# states it visits in an automaton and the count-vector sums of a grammar
ENUMERATION_BUDGET = 2 * 10**6


def evaluate(word: VertexWord, lang: Language) -> Graph:
    """The graph induced by word under lang: one membership query per
    unordered vertex pair, in the pair's ascending orientation.

    Each pair is projected through the word's position index, built on the
    first projection, so a pair costs the two letters' multiplicities and
    the whole graph O(n·|w|) projection work rather than O(n²·|w|)."""
    require_symmetric(lang)
    vs = sorted(word.alphabet())
    edges = []
    for u, v in itertools.combinations(vs, 2):
        if lang.contains(word.project(u, v)):
            edges.append((u, v))
    return Graph(vs, edges)


@dataclass(frozen=True)
class CheckReport:
    match: bool
    produced: Graph
    mapping: dict | None = None
    first_diff: tuple | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.match


def check(word: VertexWord, lang: Language, expected: Graph) -> CheckReport:
    """Verdict of isomorphic(evaluate(word, lang), expected); on mismatch
    with coinciding vertex sets, reports the first differing pair in the
    evaluated graph's own labeling.  A produced graph equal to expected
    label for label matches by the identity mapping, at any order."""
    produced = evaluate(word, lang)
    if produced == expected:
        mapping = {v: v for v in produced.vertices}
    else:
        mapping = isomorphic(produced, expected)
    if mapping is not None:
        return CheckReport(True, produced, mapping=mapping, message="match")
    if set(produced.vertices) == set(expected.vertices):
        for u, v in itertools.combinations(produced.vertices, 2):
            if produced.has_edge(u, v) != expected.has_edge(u, v):
                state = "unexpected edge" if produced.has_edge(u, v) else "missing edge"
                return CheckReport(
                    False, produced, first_diff=(u, v),
                    message=f"mismatch at pair ({u},{v}): {state}",
                )
    return CheckReport(False, produced, message="mismatch: no isomorphism")


def _normalize_bounds(g: Graph, freq_bounds) -> dict:
    if isinstance(freq_bounds, dict):
        table = {v: sorted(set(freq_bounds[v])) for v in g.vertices}
    else:
        allowed = sorted(set(freq_bounds))
        table = {v: allowed for v in g.vertices}
    for v, allowed in table.items():
        if not allowed or any(m < 1 for m in allowed):
            raise ValueError(f"invalid multiplicity bounds for {v}: {allowed}")
    return table


def _twin_predecessors(g: Graph, bounds: dict) -> list:
    """For each vertex index, the nearest earlier index interchangeable with
    it, or -1.  Interchangeable means twins (N(u) - {v} == N(v) - {u}, so
    swapping u and v is an automorphism of g) with equal bounds (so the swap
    also maps allowed multiplicities to allowed ones)."""
    last: dict = {}
    prev = []
    for i, v in enumerate(g.vertices):
        allowed = tuple(bounds[v])
        # false twins share N(v), true twins share N(v) + v
        keys = (
            (False, g.neighbors(v), allowed),
            (True, g.neighbors(v) | {v}, allowed),
        )
        prev.append(max(last.get(key, -1) for key in keys))
        for key in keys:
            last[key] = i
    return prev


def search(
    g: Graph,
    lang: Language,
    freq_bounds,
    max_len: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> VertexWord | None:
    """Bounded exhaustive search for a word w with evaluate(w, lang) equal
    to g on g's own labels, or None when the bounded space is exhausted.

    freq_bounds is a set of allowed multiplicities, or a per-vertex dict;
    max_len caps the word length.  The search has two stages, both on g's
    own vertex names:

    1. a multiplicity CSP assigns each vertex a multiplicity by
       backtracking, keeping a value only if every pair with an earlier
       vertex admits some interleaving of those counts that agrees with g;
    2. for each surviving assignment, one DFS builds words letter by letter,
       where any vertex with letters left (started or not) may come next,
       and a pair prunes the branch as soon as no completion of its
       projection can agree with g.

    Twins with equal bounds are interchangeable (swapping them is an
    automorphism of g that respects the bounds), so within such a class the
    multiplicities are non-decreasing in vertex order, and twins of equal
    multiplicity start in vertex order.

    node_budget counts CSP nodes and DFS nodes together; running out raises
    CapacityError.
    """
    require_symmetric(lang)
    bounds = _normalize_bounds(g, freq_bounds)
    vs = g.vertices
    n = len(vs)
    allowed = [bounds[v] for v in vs]
    twin_prev = _twin_predecessors(g, bounds)
    # least total length of the vertices from index i on
    least_rest = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        least_rest[i] = least_rest[i + 1] + allowed[i][0]
    # per unordered pair a < b: which entry of feasible_pair agrees with g
    agree = [[0 if g.has_edge(u, v) else 1 for v in vs] for u in vs]
    # links[c]: for each pair with c, (pair slot, c's bit, a, b, agree entry)
    links = [
        [
            (min(c, d) * n + max(c, d), "0" if c < d else "1",
             min(c, d), max(c, d), agree[c][d])
            for d in range(n) if d != c
        ]
        for c in range(n)
    ]
    spent = 0
    tried = 0
    feas_cache: dict = {}

    def tick():
        nonlocal spent
        spent += 1
        if spent > node_budget:
            raise CapacityError(
                f"search node budget exhausted after {node_budget} nodes "
                f"({tried} multiplicity assignments tried)"
            )

    def feasible_pair(prefix: str, r0: int, r1: int):
        # (can reach lang, can avoid lang) over all interleavings of the
        # remaining r0 zeros and r1 ones appended to prefix
        key = (prefix, r0, r1)
        got = feas_cache.get(key)
        if got is None:
            if r0 == 0 and r1 == 0:
                inside = lang.contains(prefix)
                got = (inside, not inside)
            else:
                can_in = can_out = False
                if r0:
                    a, b = feasible_pair(prefix + "0", r0 - 1, r1)
                    can_in |= a
                    can_out |= b
                if r1 and not (can_in and can_out):
                    a, b = feasible_pair(prefix + "1", r0, r1 - 1)
                    can_in |= a
                    can_out |= b
                got = (can_in, can_out)
            feas_cache[key] = got
        return got

    mults = [0] * n
    remaining = [0] * n
    proj = [""] * (n * n)  # slot a*n + b, a < b: a's letters as 0, b's as 1
    word: list = []

    def assign(i: int, total: int) -> bool:
        # stage 1: multiplicities of vertices i.. given those before i
        nonlocal tried
        tick()
        if i == n:
            tried += 1
            remaining[:] = mults
            return dfs(total)
        for k in allowed[i]:
            if max_len is not None and total + k + least_rest[i + 1] > max_len:
                break
            p = twin_prev[i]
            if p >= 0 and k < mults[p]:
                continue
            if all(feasible_pair("", mults[j], k)[agree[j][i]] for j in range(i)):
                mults[i] = k
                if assign(i + 1, total + k):
                    return True
        return False

    def place(c: int) -> bool:
        # append c to each pair projection with c; on failure undo and
        # report that some pair can no longer agree with g
        for m, (slot, bit, a, b, want) in enumerate(links[c]):
            bits = proj[slot] + bit
            if not feasible_pair(bits, remaining[a], remaining[b])[want]:
                unplace(links[c][:m])
                return False
            proj[slot] = bits
        return True

    def unplace(pairs):
        for slot, *_ in pairs:
            proj[slot] = proj[slot][:-1]

    def dfs(total: int) -> bool:
        # stage 2: any vertex with letters left may come next, except that
        # a twin waits for its interchangeable predecessor of equal
        # multiplicity to start
        tick()
        if len(word) == total:
            return True
        for c in range(n):
            if remaining[c] == 0:
                continue
            p = twin_prev[c]
            if (remaining[c] == mults[c] and p >= 0 and mults[p] == mults[c]
                    and remaining[p] == mults[p]):
                continue
            remaining[c] -= 1
            if place(c):
                word.append(c)
                if dfs(total):
                    return True
                word.pop()
                unplace(links[c])
            remaining[c] += 1
        return False

    if assign(0, 0):
        return VertexWord([vs[c] for c in word])
    return None


@dataclass(frozen=True)
class Decomposition:
    pairs: frozenset
    parts: dict  # (k, l) -> Graph over V_{k,l} with only the cross edges
    whole: Graph


def _in_windows(i: int, j: int, k: int, ell: int) -> bool:
    # can a word with i zeros and j ones extend to counts (k, ell) or (ell, k)?
    return (i <= k and j <= ell) or (i <= ell and j <= k)


def pair_nonempty(lang: Language, k: int, ell: int) -> bool:
    """Does lang contain a word with letter counts {k, ell} (either
    polarity)?  Decided exactly on the language's form: a Dfa is searched
    with the letter counts in its state, a Cfg yields its bounded count
    vectors, and an opaque language has its words of those counts
    enumerated.  Past ENUMERATION_BUDGET the call raises CapacityError."""
    form = lang.form
    if isinstance(form, Dfa):
        # breadth-first over (state, zeros, ones) inside the count windows
        # {k}x{ell} and {ell}x{k}, never entering a rejecting sink, so a
        # trie is searched within itself
        sinks = {q for q, (a, b) in enumerate(form.trans) if a == b == q} - form.accept
        todo = [(form.start, 0, 0)]
        seen = set(todo)
        for q, i, j in todo:
            if q in form.accept and {i, j} == {k, ell}:
                return True
            for nxt in ((form.trans[q][0], i + 1, j), (form.trans[q][1], i, j + 1)):
                if (nxt[0] not in sinks and _in_windows(nxt[1], nxt[2], k, ell)
                        and nxt not in seen):
                    seen.add(nxt)
                    todo.append(nxt)
            if len(seen) > ENUMERATION_BUDGET:
                raise CapacityError(f"pair ({k},{ell}) search exceeds budget for {lang.label}")
        return False
    if isinstance(form, Cfg):
        vecs = form.count_vectors(lambda i, j: _in_windows(i, j, k, ell), ENUMERATION_BUDGET)
        return (k, ell) in vecs or (ell, k) in vecs
    # opaque membership: enumerate all words with the two count profiles
    profiles = {(k, ell), (ell, k)}
    for zeros, ones in profiles:
        length = zeros + ones
        if comb(length, zeros) > ENUMERATION_BUDGET:
            raise CapacityError(
                f"pair ({k},{ell}) enumeration exceeds budget for {lang.label}"
            )
        for positions in itertools.combinations(range(length), zeros):
            chars = ["1"] * length
            for p in positions:
                chars[p] = "0"
            if lang.contains("".join(chars)):
                return True
    return False


def decompose(word: VertexWord, lang: Language) -> Decomposition:
    """Split the induced graph by frequentness pairs: the listed pairs are
    all (k, l) realized among the word's letter frequentnesses for which
    lang holds some word with those counts, even when the corresponding
    edge set is empty."""
    whole = evaluate(word, lang)
    freq = word.frequency_profile()
    realized = sorted(set(freq.values()))
    pairs = []
    for i, k in enumerate(realized):
        for ell in realized[i:]:
            if pair_nonempty(lang, k, ell):
                pairs.append((k, ell))
    parts = {}
    union_edges = set()
    for k, ell in pairs:
        members = [v for v in sorted(word.alphabet()) if freq[v] in (k, ell)]
        sub = evaluate(word.project_set(members), lang)
        cross = [
            (u, v) for u, v in sub.edges if {freq[u], freq[v]} == ({k, ell} if k != ell else {k})
        ]
        parts[(k, ell)] = Graph(members, cross)
        union_edges.update(tuple(sorted(e)) for e in cross)
    if union_edges != set(whole.edges):
        raise AssertionError("decomposition union identity violated")
    return Decomposition(frozenset(pairs), parts, whole)
