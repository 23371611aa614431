"""Graph-from-word evaluation, verification, bounded search, decomposition.

The central relation: given a symmetric binary language L and a word w over
a vertex alphabet, u and v are adjacent iff the pairwise projection of w
(u to 0, v to 1, everything else erased) lies in L.

Search works on the target graph's own vertex names, in two stages: a
multiplicity CSP, then one DFS per assignment that builds the word letter by
letter on the pair automaton of L.  The DFS cuts prefixes whose vertices
wait on each other in a cycle or leave a triple without a joint completion,
and skips letters by twin classes and automorphisms of g; ``search``'s
docstring gives each rule and why the first word found does not change.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .errors import CapacityError
from .graphs import Graph
from .isomorphism import ISO_ORDER_CAP, automorphisms, isomorphic
from .languages import Language, require_symmetric
from .automata import Dfa
from .grammar import Cfg
from .words import VertexWord, project_rows

DEFAULT_NODE_BUDGET = 10**8

# words with counts (k, l) number C(k+l, k); pair-nonemptiness scans them
# for opaque languages, so keep an explicit ceiling, which also bounds the
# states it visits in an automaton and the count-vector sums of a grammar
ENUMERATION_BUDGET = 2 * 10**6


# pair states evaluate's Dfa path holds at once: it takes the rows of its
# pair-state matrix in bands of at most this many cells
_PAIR_STATE_CAP = 1 << 20


def evaluate(word: VertexWord, lang: Language) -> Graph:
    """The graph induced by word under lang: one membership verdict per
    unordered vertex pair, in the pair's ascending orientation.

    When lang's form is a Dfa of at most 256 states (a finite language's
    trie, unless it is past the automaton budget), every pair's
    run is stepped at once, with no membership calls: a bytearray holds one
    state byte per pair (u, v), u < v, at u·n + v, and each letter x of the
    word steps row x on 0 and column x on 1 by two C-level ``translate``
    calls.  That costs O(n·|w|) bytes moved in C and O(|w|) Python steps
    per band of rows; a band holds at most ``_PAIR_STATE_CAP`` states, one
    pass over the word each.

    Any other language goes through the projected strings.  Pairs are
    walked row by row in ``itertools.combinations`` order, and
    ``lang.contains`` runs once per distinct projection of a row, in order
    of first occurrence, so a contains that raises does so at the first
    such pair.  ``project_rows`` builds the rows with no position index, by
    three restrictions of the word as bytes, each a C-level ``translate``:
    to groups of up to 127 vertices, one or two per string (O(|w|) map
    steps per group pair); to a band of ``words._BLOCK`` rows and a block
    of as many columns (O(127·n·|w| / _BLOCK²) bytes over all blocks); and
    to each pair (O(_BLOCK·n·|w|) bytes over all pairs, then a ``decode``).
    The cost stays O(n·|w|) bytes, about two nanoseconds each, plus
    O((n/127)²·|w|) map steps and O(n²) calls for the pairs.  Memory is one
    group's level-0 strings, about 2·|w| bytes, and one band of rows with
    their verdicts."""
    require_symmetric(lang)
    vs = tuple(sorted(word.alphabet()))
    form = lang.form
    if isinstance(form, Dfa) and len(form) <= 256 and len(vs) <= _PAIR_STATE_CAP:
        edges = _dfa_edges(word, vs, form)
    else:
        contains = lang.contains
        edges = []
        for i, row in enumerate(project_rows(word, vs)):
            verdict = {b: contains(b) for b in dict.fromkeys(row)}
            edges += [(vs[i], v) for v, b in zip(vs[i + 1:], row) if verdict[b]]
    # the word checked every token, and each pair is ascending
    return Graph._frozen(vs, edges)


def _dfa_edges(word: VertexWord, vs: tuple, dfa: Dfa) -> list:
    n = len(vs)
    where = {v: i for i, v in enumerate(vs)}
    xs = [where[t] for t in word.letters]
    # 256-byte tables, built in O(states): a Dfa has at most 256 of them
    on0 = bytes([a for a, _ in dfa.trans]).ljust(256, b"\0")
    on1 = bytes([b for _, b in dfa.trans]).ljust(256, b"\0")
    accept = bytearray(256)
    for q in dfa.accept:
        accept[q] = 1
    rows = _PAIR_STATE_CAP // n
    edges = []
    for top in range(0, n, rows):
        bottom = min(n, top + rows)
        # per letter x, its (cells, table) steps in this band: column x
        # above row x on 1, and row x right of the diagonal on 0
        steps = [()] * top
        for x in range(top, n):
            row = (x - top) * n
            steps.append(
                ((slice(x, row, n), on1), (slice(row + x + 1, row + n), on0))
                if x < bottom else ((slice(x, None, n), on1),)
            )
        cells = bytearray([dfa.start]) * ((bottom - top) * n)
        for x in xs:
            for cut, table in steps[x]:
                cells[cut] = cells[cut].translate(table)
        cells = cells.translate(accept)  # each state becomes its edge flag
        for u in range(top, bottom):
            flags = cells[(u - top) * n + u + 1:(u - top + 1) * n]
            edges += zip(itertools.repeat(vs[u]), itertools.compress(vs[u + 1:], flags))
    return edges


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


def _normalize_bounds(g: Graph, freq_bounds) -> list:
    """Each vertex's allowed multiplicities as an ascending tuple, by vertex
    index.  A set of them is checked once and shared by every vertex."""
    vs = g.vertices
    if isinstance(freq_bounds, dict):
        table = [tuple(sorted(set(freq_bounds[v]))) for v in vs]
        named = zip(vs, table)
    else:
        table = [tuple(sorted(set(freq_bounds)))] * len(vs)
        named = [(vs[0], table[0])]
    for v, allowed in named:
        if not allowed or any(m < 1 for m in allowed):
            raise ValueError(f"invalid multiplicity bounds for {v}: {list(allowed)}")
    return table


def _verdicts(g: Graph) -> list:
    """Per vertex index, the bytes row of the pair verdicts that agree with
    g (0: in L, at its neighbours; 1: not in L, elsewhere and at itself)."""
    vs = g.vertices
    index = {v: i for i, v in enumerate(vs)}
    ones, rows = bytearray(b"\1") * len(vs), []
    for v in vs:
        row = ones[:]
        for u in g.neighbors(v):
            row[index[u]] = 0
        rows.append(bytes(row))
    return rows


def _twin_predecessors(verdicts: list, bounds: list) -> list:
    """For each vertex index, the nearest earlier index interchangeable with
    it, or -1.  Interchangeable means twins (N(u) - {v} == N(v) - {u}, so
    swapping u and v is an automorphism of g) with equal bounds (so the swap
    also maps allowed multiplicities to allowed ones).  False twins have the
    same verdict row; true twins have it once their own entries are zeroed.
    A row never matches another's zeroed one: that would make u adjacent to
    v but not v to u."""
    last: dict = {}
    prev = []
    for i, (row, allowed) in enumerate(zip(verdicts, bounds)):
        false, true = (row, allowed), (row[:i] + b"\0" + row[i + 1:], allowed)
        prev.append(max(last.get(false, -1), last.get(true, -1)))
        last[false] = last[true] = i
    return prev


class _Moves(dict):
    """State id to successor on letter b, or -1 if that cannot end in verdict
    v.  Hashed and compared by identity, as part of a triple memo's key."""

    __hash__, __eq__, __ne__ = object.__hash__, object.__eq__, object.__ne__

    def __init__(self, pa, v: int, b: int):
        self.pa, self.v, self.b = pa, v, b

    def __missing__(self, s: int) -> int:
        q, r0, r1 = self.pa.keys[s]
        t = self.pa.state(self.pa.step(q, self.b), r0 - 1 + self.b, r1 - self.b)
        t = self[s] = t if self.pa.reaches(t, self.v) else -1
        return t


class _PairAutomaton:
    """The pair automaton of lang over all letter counts.  States (q, r0,
    r1), a run state q (the Dfa state, else the prefix read, answered by
    lang's membership) and the zeros and ones left, are numbered as reached;
    words with counts (k0, k1) start at state(start, k0, k1), and a Dfa sink
    is one state at any counts.  moves[v][b] is the table on letter b for
    verdict v (0: in L, 1: not in L) at every count.  starts maps (k0, k1,
    v) to that start state, or -1 when it cannot end in verdict v; triples
    is search's memo for ``joint``, keyed by these states.  A state past
    limit of them raises CapacityError."""

    def __init__(self, lang: Language):
        form = lang.form
        if isinstance(form, Dfa):
            self.step, self.accepts = (lambda q, b: form.trans[q][b]), form.accept.__contains__
            self.sinks = {q for q, (x, y) in enumerate(form.trans) if x == y == q}
            self.start = form.start
        else:
            self.step, self.accepts = (lambda q, b: q + "01"[b]), (lambda q: lang.contains(q))
            self.sinks, self.start = (), ""
        self.keys, self.ids, self.live, self.starts, self.triples = [], {}, ({}, {}), {}, {}
        self.limit = ENUMERATION_BUDGET
        self.moves = tuple(tuple(_Moves(self, v, b) for b in (0, 1)) for v in (0, 1))

    @staticmethod
    def of(lang: Language) -> "_PairAutomaton":
        # lang's automaton, search's and pair_nonempty's, new when it has
        # none or its states, starts or memo pass the budget; the caller may
        # add ENUMERATION_BUDGET states, so they stay under twice that
        pa = lang.pair_automaton
        if pa is None or max(len(pa.keys), len(pa.starts), len(pa.triples)) > ENUMERATION_BUDGET:
            pa = lang.pair_automaton = _PairAutomaton(lang)
        pa.limit = len(pa.keys) + ENUMERATION_BUDGET
        return pa

    def begin(self, k0: int, k1: int, v: int) -> int:
        # find and store the starts entry at (k0, k1, v)
        s = self.state(self.start, k0, k1)
        s = self.starts[k0, k1, v] = s if self.reaches(s, v) else -1
        return s

    def state(self, q, r0: int, r1: int) -> int:
        key = (q, 0, 0) if q in self.sinks else (q, r0, r1)
        s = self.ids.get(key)
        if s is None:
            if len(self.keys) >= self.limit:
                raise CapacityError(f"over {ENUMERATION_BUDGET} pair automaton states")
            s = self.ids[key] = len(self.keys)
            self.keys.append(key)
        return s

    def reaches(self, s: int, v: int) -> bool:
        """Can state s still end with verdict v?  An iterative, memoized DFS."""
        live = self.live[v]
        todo = [s]
        while todo:
            x = todo[-1]
            if x in live:
                todo.pop()
                continue
            q, r0, r1 = self.keys[x]
            if q in self.sinks or r0 == r1 == 0:
                live[x] = self.accepts(q) == (v == 0)
                continue
            kids = [self.state(self.step(q, b), r0 - 1 + b, r1 - b)
                    for b, r in ((0, r0), (1, r1)) if r]
            if any(live.get(t) for t in kids):
                live[x] = True
            elif all(t in live for t in kids):
                live[x] = False
            else:
                todo.append(next(t for t in kids if t not in live))
        return live[s]


def search(g: Graph, lang: Language, freq_bounds,
           node_budget: int = DEFAULT_NODE_BUDGET) -> VertexWord | None:
    """Bounded exhaustive search for a word w with evaluate(w, lang) equal
    to g on g's own labels, or None when the bounded space is exhausted.

    freq_bounds is a set of allowed multiplicities, or a per-vertex dict.
    The search has two stages, both on g's own vertex names:

    1. a multiplicity CSP assigns each vertex a multiplicity by
       backtracking, keeping a value only if every pair with an earlier
       vertex has, at those counts, a start state live for g's verdict;
    2. for each surviving assignment, one DFS builds words letter by letter,
       where any vertex with letters left (started or not) may come next;
       each pair with that letter takes one move, and a -1 move prunes.

    The DFS also cuts a prefix whose vertices wait on each other in a cycle.
    Vertex v waits on x when pair (v, x)'s move on v's next letter is -1.
    Only a letter of v or of x changes that pair's state, so the wait lasts
    until x places a letter.  Around a cycle of waits, each vertex needs
    the next one to move first, so none of them ever moves again, yet each
    has letters left: the prefix has no completion.  The cut thus removes
    only subtrees without a word, so the surviving nodes are visited in the
    same order and the same first word is returned.  Every state on the DFS
    is live, and a live state allows the letter of v once x is done and one
    of the two letters otherwise; so only vertices with letters left are
    waited on, and a cycle has at least three vertices.  Placing c changes
    only the pairs (c, x), so a cycle the prefix did not have passes through
    c; the DFS looks for one only when c waits after its placement, walking
    back from c through the vertices that wait on it, directly or not.

    The DFS also cuts a prefix when three vertices have no joint
    completion.  Every language-representable class is hereditary: a word
    for g restricted to a vertex set A is a word for g[A].  So a completion
    of the prefix, restricted to c, x and y, gives each of their three pairs
    a word from its current state that uses the letters the three have
    left; when no interleaving of those letters keeps all three pair states
    live to the end, the prefix has no completion, and the cut too removes
    only subtrees without a word.  The check looks, after placing c when c
    waits on some x, at each third vertex y with letters left, except that
    x and y are not both unstarted (no such triple was cut on a class-table
    row up to order 7, and they are most triples).  A triple with a settled
    pair (a Dfa sink) always finishes, and three single letters finish
    unless their waits form a cycle, which is the walk's to find; ``joint``
    decides the others over the pairs' move tables, memoized in the pair
    automaton's triples.

    Both cuts are sound at any point, so their order moves only work, never
    the word.  After a placement where c waits, the cut that has cut more
    prefixes in this call runs first: the triple check and then the walk
    while triple cuts lead, the walk and then the triple check on a tie (so
    from the first letter on), and the walk alone once cycle cuts lead,
    which then holds for the rest of the call.  Rows differ in which cut
    does the work: on the order-7 class-table rows every cut under <0110>
    is a triple's and every cut under <0101> is the walk's.

    Twins with equal bounds are interchangeable (swapping them is an
    automorphism of g that respects the bounds), so within such a class the
    multiplicities are non-decreasing in vertex order, and twins of equal
    multiplicity start in vertex order.

    Other automorphisms prune the DFS too.  An unstarted candidate letter c
    is skipped when some automorphism sigma of g keeps the assignment
    (mults[sigma(x)] == mults[x] for every x), fixes every vertex with a
    letter in the prefix, and has sigma(c) < c.  Any set of automorphisms
    may be used.  Let w* be the least valid word of the assignment, compared
    by vertex indices.  Applying sigma to w* gives a valid word of the same
    assignment: sigma maps pair (u, v) to (sigma(u), sigma(v)) with the same
    projection, and lang is symmetric, so the word evaluates to sigma(g) = g.
    Were sigma to skip c after a prefix of w* whose next letter is c, that
    word would keep the prefix and go on with sigma(c) < c, so it would be
    smaller than w*.  So w* passes this rule at every prefix, and, by the
    same argument, the twin rule.  The DFS tries letters in ascending order
    and both cuts remove only subtrees without a word, so the DFS still
    returns w* first, as it does without either rule.

    The automorphisms come from ``isomorphism.automorphisms``, for g up to
    order ISO_ORDER_CAP, the first time a DFS returns to the root, so a word
    found under the first letter costs nothing extra.  Each assignment keeps
    those that keep its multiplicities, and its skip masks are memoized by
    the set of started vertices.

    node_budget counts CSP nodes and DFS nodes, cut ones included; below 1
    it raises ValueError, and running out raises CapacityError, which also
    counts the prefixes each cut removed and the candidate letters an
    automorphism skipped.  lang keeps its pair automaton, with the start
    state of each pair's counts and verdict (stage 1's table, which stage 2
    seeds its pair states from) and the triple memo in it.  A language
    without a form, a finite one past its trie budget included, runs on
    prefix states answered by its membership.  A call that builds over
    ENUMERATION_BUDGET states raises CapacityError naming the
    multiplicities and the pair or triple; it adds at most as many memo
    entries and then stops checking triples.  It first drops an automaton
    with more states, starts or memo entries, so its states and memo stay
    under twice ENUMERATION_BUDGET.
    """
    run = _Search(g, lang, freq_bounds, node_budget)
    return VertexWord([run.vs[c] for c, _ in run.trail]) if run.assign() else None


def joint(memo: dict, root: tuple, c0, c1, x0, x1, y0, y1, room: int) -> bool:
    """Can the pairs (c, x), (c, y), (x, y) of a triple, from the states in
    root, and its three vertices' letters left still finish together?

    root is (p, q, r, i, j, k): the states of the three pairs, each live for
    its verdict, and the letters left of c, x and y.  c0, c1 are c's moves in its two pairs, x0,
    x1 x's in (c, x) and (x, y), y0, y1 y's in (c, y) and (x, y); a move is
    -1 where the pair could no longer end in its verdict.  The kind (c0, c1,
    x1) fixes all six.  An iterative DFS over (pair states, counts) keeps
    its verdicts in memo under kind + state.  It adds at most room of them,
    and answers True, cutting nothing, when it would need more."""
    kind, size, todo = (c0, c1, x1), len(memo), [root]
    while todo:
        t = todo[-1]
        if kind + t in memo:
            todo.pop()
            continue
        if len(memo) - size >= room:
            return True
        p, q, r, i, j, k = t
        kids = []
        if i and (u := c0[p]) >= 0 and (v := c1[q]) >= 0:
            kids.append((u, v, r, i - 1, j, k))
        if j and (u := x0[p]) >= 0 and (v := x1[r]) >= 0:
            kids.append((u, q, v, i, j - 1, k))
        if k and (u := y0[q]) >= 0 and (v := y1[r]) >= 0:
            kids.append((p, u, v, i, j, k - 1))
        if not (i or j or k) or any(memo.get(kind + u) for u in kids):
            memo[kind + t] = True
        elif all(kind + u in memo for u in kids):
            memo[kind + t] = False
        else:
            todo.append(next(u for u in kids if kind + u not in memo))
    return memo[kind + root]


class _Search:
    """The state of one search call: its inputs, the multiplicity
    assignment, the word so far and the counts a budget error reports.
    assign is stage 1, and dfs stage 2 with its cuts waits_in_cycle and stuck."""

    __slots__ = ("g", "vs", "n", "allowed", "node_budget", "agree", "twin_prev", "pa", "room",
                 "mults", "remaining", "trail", "links", "autos", "spent", "tried", "cuts",
                 "triple_cuts", "skips")

    def __init__(self, g: Graph, lang: Language, freq_bounds, node_budget: int):
        if node_budget < 1:
            raise ValueError(f"search node budget must be at least 1, not {node_budget}")
        require_symmetric(lang)
        self.allowed = allowed = _normalize_bounds(g, freq_bounds)
        self.g, self.node_budget = g, node_budget
        self.vs = g.vertices
        self.n = n = len(self.vs)
        # per pair: the verdict that agrees with g (0: in L, 1: not in L)
        self.agree = _verdicts(g)
        self.twin_prev = _twin_predecessors(self.agree, allowed)
        self.pa = _PairAutomaton.of(lang)
        self.room = ENUMERATION_BUDGET  # triple states this call may still add to pa.triples
        self.mults, self.remaining = [0] * n, [0] * n
        self.trail = []  # (letter, its pairs' states before it) per letter placed
        self.autos = None  # g's automorphisms on indices, found on a first return to the root
        self.spent = self.tried = self.cuts = self.triple_cuts = self.skips = 0

    def tick(self):
        self.spent += 1
        if self.spent > self.node_budget:
            raise CapacityError(
                f"search node budget exhausted after {self.node_budget} nodes "
                f"({self.tried} multiplicity assignments tried, {self.cuts} prefixes cut "
                f"on a cycle of waits, {self.triple_cuts} on a triple without a joint "
                f"completion, {self.skips} candidate letters skipped by an automorphism)"
            )

    def at_pair(self, e: CapacityError, s: int) -> CapacityError:
        # e, raised on the pair in slot s (a * n + b for a < b), naming it
        a, b = divmod(s, self.n)
        return CapacityError(f"{e} at multiplicities ({self.mults[a]}, {self.mults[b]}), "
                             f"vertex pair ({self.vs[a]},{self.vs[b]})")

    def assign(self) -> bool:
        # stage 1: multiplicities vertex by vertex, backtracking on an
        # explicit stack; level i tries allowed[i] from choice[i] on
        n, allowed, agree, pa, mults = self.n, self.allowed, self.agree, self.pa, self.mults
        twin_prev, starts = self.twin_prev, pa.starts
        choice = [0] * (n + 1)
        i = 0
        self.tick()
        while i >= 0:
            if i == n:
                self.tried += 1
                self.remaining[:] = mults
                if self.dfs(sum(mults)):
                    return True
                i -= 1
                continue
            options = allowed[i]
            while choice[i] < len(options):
                k = options[choice[i]]
                choice[i] += 1
                p = twin_prev[i]
                if p >= 0 and k < mults[p]:
                    continue
                mults[i] = k
                for j in range(i):
                    # pair j < i's start state, j's letters as 0
                    key = (mults[j], k, agree[j][i])
                    s = starts.get(key)
                    if s is None:
                        try:
                            s = pa.begin(*key)
                        except CapacityError as e:
                            raise self.at_pair(e, j * n + i) from None
                    if s < 0:
                        break
                else:
                    i += 1
                    choice[i] = 0
                    self.tick()
                    break
            else:
                i -= 1
        return False

    def waits_in_cycle(self, c: int, on: list, state: list) -> bool:
        # c waits on the vertices in on: walk back from c through the
        # vertices that wait on it, directly or not, until one of them is in
        # on.  Every vertex on the walk has letters left
        links, remaining = self.links, self.remaining
        seen, todo = {c}, [c]
        try:
            while todo:
                y = todo.pop()
                for s, _, move, d in links[y]:
                    if d not in seen and remaining[d] and move[state[s]] < 0:
                        if d in on:
                            return True
                        seen.add(d)
                        todo.append(d)
        except CapacityError as e:
            raise self.at_pair(e, s) from None
        return False

    def stuck(self, c: int, on: list, state: list, started: int) -> bool:
        # has c, some x in on (c waits on them) and a third vertex y with
        # letters left no joint completion?  search's docstring names the
        # triples passed over; a settled pair (a Dfa sink, which any letter
        # keeps) allows every order, so the other two pairs' words merge on
        # their shared vertex's letters.  joint decides the rest, its
        # verdicts kept in memo under the move tables of c in its two pairs
        # and of x in (x, y), the pair states and the counts
        n, links, remaining, memo = self.n, self.links, self.remaining, self.pa.triples
        lc, rc = links[c], remaining[c]
        begun = None  # the started vertices other than c with letters left
        try:
            for x in on:
                s, c0, x0, _ = lc[x - (x > c)]
                p, lx, rx = state[s], links[x], remaining[x]
                if started >> x & 1:
                    ys = range(n)
                elif begun is None:
                    ys = begun = [y for y in range(n) if started >> y & 1 and remaining[y] and y != c]
                else:
                    ys = begun
                for y in ys:
                    if y == x or y == c or not remaining[y]:
                        continue
                    s, c1, y0, _ = lc[y - (y > c)]
                    q = state[s]
                    if c1[q] == q:
                        continue
                    s, x1, y1, _ = lx[y - (y > x)]
                    r = state[s]
                    ry = remaining[y]
                    if x1[r] == r or rc == rx == ry == 1:
                        continue
                    verdict = memo.get((c0, c1, x1, p, q, r, rc, rx, ry))
                    if verdict is None:
                        size = len(memo)
                        root = (p, q, r, rc, rx, ry)
                        verdict = joint(memo, root, c0, c1, x0, x1, y0, y1, self.room)
                        self.room -= len(memo) - size
                    if not verdict:
                        return True
        except CapacityError as e:
            vs, m = self.vs, self.mults
            raise CapacityError(f"{e} at multiplicities ({m[c]}, {m[x]}, {m[y]}), "
                                f"vertex triple ({vs[c]},{vs[x]},{vs[y]})") from None
        return False

    def dfs(self, total: int) -> bool:
        # stage 2, with the twin and automorphism rules; state[a * n + b] is
        # pair a < b's state, and bit c of started is set once c has a letter
        n, mults, remaining, trail = self.n, self.mults, self.remaining, self.trail
        twin_prev, starts, agree, moves = self.twin_prev, self.pa.starts, self.agree, self.pa.moves
        links = self.links = [[] for _ in range(n)]  # per c, (slot, move on c, move on d, d)
        state, first, started = [0] * (n * n), 0, 0
        for a in range(n):
            for b in range(a + 1, n):
                state[a * n + b] = starts[mults[a], mults[b], agree[a][b]]
                m0, m1 = moves[agree[a][b]]
                links[a].append((a * n + b, m0, m1, b))
                links[b].append((a * n + b, m1, m0, a))
        kept = None  # per automorphism keeping mults: (moved vertices, c with sigma(c) < c)
        skip_masks = {}  # started to the vertices a kept automorphism fixing it maps lower
        skip = 0
        self.tick()
        while len(trail) < total:
            if kept:
                skip = skip_masks.get(started)
                if skip is None:
                    skip = 0
                    for moved, lower in kept:
                        if not moved & started:
                            skip |= lower
                    skip_masks[started] = skip
            try:
                for c in range(first, n):
                    p = twin_prev[c]
                    if remaining[c] == 0 or (remaining[c] == mults[c] and p >= 0
                                             and mults[p] == mults[c] and remaining[p] == mults[p]):
                        continue
                    if skip >> c & 1:
                        self.skips += 1
                        continue
                    for s, move, _, _ in links[c]:
                        if move[state[s]] < 0:
                            break
                    else:
                        break
                else:
                    c = -1
                if c >= 0:
                    started |= 1 << c
                    remaining[c] -= 1
                    more, on, old = remaining[c] > 0, [], []
                    for s, move, _, d in links[c]:
                        q = state[s]
                        old.append(q)
                        state[s] = q = move[q]
                        if more and move[q] < 0:
                            on.append(d)  # c waits on d
            except CapacityError as e:
                raise self.at_pair(e, s) from None
            if c >= 0:
                trail.append((c, old))
                self.tick()
                # the cut that has cut more prefixes in this call goes first;
                # the walk goes first on a tie and alone while it leads
                lead = self.triple_cuts - self.cuts
                if on and lead > 0 and self.room > 0 and self.stuck(c, on, state, started):
                    self.triple_cuts += 1
                elif on and self.waits_in_cycle(c, on, state):
                    self.cuts += 1
                elif on and lead == 0 and self.room > 0 and self.stuck(c, on, state, started):
                    self.triple_cuts += 1
                else:
                    first = 0
                    continue
            # no letter fits, or the last one closed a cycle of waits or left
            # a triple without a joint completion: take it back
            if not trail:
                return False
            c, old = trail.pop()
            for (s, _, _, _), q in zip(links[c], old):
                state[s] = q
            remaining[c] += 1
            if remaining[c] == mults[c]:
                started &= ~(1 << c)
            first = c + 1
            if not trail and kept is None:
                if self.autos is None:
                    self.autos = automorphisms(self.g) if n <= ISO_ORDER_CAP else []
                kept = [(sum(1 << x for x in range(n) if sigma[x] != x),
                         sum(1 << x for x in range(n) if sigma[x] < x))
                        for sigma in self.autos
                        if all(mults[sigma[x]] == mults[x] for x in range(n))]
        return True


@dataclass(frozen=True)
class Decomposition:
    pairs: frozenset
    parts: dict  # (k, l) -> Graph over V_{k,l} with only the cross edges
    whole: Graph


def pair_nonempty(lang: Language, k: int, ell: int) -> bool:
    """Does lang contain a word with letter counts {k, ell} (either
    polarity)?  Decided exactly on the language's form: a Dfa by the start
    states of lang's pair automaton (the one search keeps) at (k, ell) and
    (ell, k), a Cfg yields its bounded count vectors, a finite language past
    its trie budget scans its words once for the counts, and any other
    language without a form has its words of those counts enumerated.  Past
    ENUMERATION_BUDGET new automaton states or enumerated words the call
    raises CapacityError."""
    form = lang.form
    if isinstance(form, Dfa):
        # a sink is one pair automaton state, so a trie is searched within itself
        pa = _PairAutomaton.of(lang)
        try:
            return any(pa.begin(a, b, 0) >= 0 for a, b in {(k, ell), (ell, k)})
        except CapacityError as e:
            raise CapacityError(f"{e} at multiplicities {(k, ell)}") from None
    if isinstance(form, Cfg):
        vecs = form.count_vectors(lambda i, j: (i <= k and j <= ell) or (i <= ell and j <= k),
                                  ENUMERATION_BUDGET)
        return (k, ell) in vecs or (ell, k) in vecs
    if lang.words is not None:
        counts = {(k, ell), (ell, k)}
        return any((w.count("0"), w.count("1")) in counts for w in lang.words)
    # opaque membership: enumerate all words with the two count profiles
    for zeros, ones in {(k, ell), (ell, k)}:
        length = zeros + ones
        if comb(length, zeros) > ENUMERATION_BUDGET:
            raise CapacityError(f"pair ({k},{ell}) enumeration exceeds budget for {lang.label}")
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
    pairs = [(k, ell) for i, k in enumerate(realized) for ell in realized[i:]
             if pair_nonempty(lang, k, ell)]
    # by heredity, the word restricted to a pair's members induces whole's
    # subgraph on them, so each part's edges are read off whole
    parts = {}
    union_edges = set()
    for k, ell in pairs:
        members = [v for v in sorted(word.alphabet()) if freq[v] in (k, ell)]
        cross = [(u, v) for u, v in whole.edges if {freq[u], freq[v]} == {k, ell}]
        parts[(k, ell)] = Graph(members, cross)
        union_edges.update(tuple(sorted(e)) for e in cross)
    if union_edges != set(whole.edges):
        raise AssertionError("decomposition union identity violated")
    return Decomposition(frozenset(pairs), parts, whole)
