"""Context-free grammars over the terminal alphabet {0, 1}.

Provides the textual rule format, Earley membership, the trimmed product with
a Dfa, bounded letter-count vectors, and one Knuth worklist for least values
of derivations: on lengths it gives emptiness, the shortest length and the
nullable nonterminals; on (length, word) pairs, the witness of ``decide``.
"""

from __future__ import annotations

import heapq

from .automata import Dfa
from .errors import CapacityError, FormatError

TERMINALS = ("0", "1")

# bodies a grammar-automaton product built for and(grammar, automaton) or for
# decide may hold; past it the conjunction stays opaque and decide refuses
PRODUCT_BUDGET = 2 * 10**5


class Cfg:
    """Productions map a nonterminal to a tuple of bodies; a body is a tuple
    of symbols, each either a terminal '0'/'1' or a nonterminal name."""

    __slots__ = ("start", "productions", "_nullable")

    def __init__(self, start, productions):
        # bodies deduplicated in order
        prods = {
            head: tuple(dict.fromkeys(tuple(body) for body in bodies))
            for head, bodies in productions.items()
        }
        self.start = start
        self.productions = prods
        self._nullable = None  # the nonterminals that derive the empty word
        if start not in prods:
            raise ValueError(f"start symbol {start!r} has no production entry")
        for head, bodies in prods.items():
            for body in bodies:
                for sym in body:
                    if sym not in TERMINALS and sym not in prods:
                        raise ValueError(f"undefined nonterminal {sym!r} in {head!r}")

    @staticmethod
    def parse(text: str) -> "Cfg":
        """One rule per line: ``S -> 1 S 0 S | eps``.  The first head is the
        start symbol; ``eps`` denotes the empty body."""
        prods: dict = {}
        start = None
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "->" not in line:
                raise FormatError(f"line {lineno}: missing '->'")
            head, rhs = line.split("->", 1)
            head = head.strip()
            if not head or head in TERMINALS or any(c.isspace() for c in head):
                raise FormatError(f"line {lineno}: bad head {head!r}")
            if start is None:
                start = head
            bodies = prods.setdefault(head, [])
            for alt in rhs.split("|"):
                toks = alt.split()
                if not toks:
                    raise FormatError(f"line {lineno}: empty alternative (use 'eps')")
                if toks == ["eps"]:
                    bodies.append(())
                else:
                    if "eps" in toks:
                        raise FormatError(f"line {lineno}: 'eps' must stand alone")
                    bodies.append(tuple(toks))
        if start is None:
            raise FormatError("no rules found")
        mentioned = {s for bs in prods.values() for b in bs for s in b if s not in TERMINALS}
        undefined = sorted(mentioned - set(prods))
        if undefined:
            raise FormatError(f"undefined nonterminal(s): {', '.join(undefined)}")
        return Cfg(start, prods)

    # -- membership ---------------------------------------------------------

    def contains(self, b: str) -> bool:
        """Earley chart parse; a completion advances the items waiting on its
        nonterminal, and a nullable one is stepped over where it is predicted
        (Aycock & Horspool, "Practical Earley Parsing", 2002)."""
        if self._nullable is None:
            self._nullable = {h for h, n in self._least(lambda c: 1, sum).items() if n == 0}
        n = len(b)
        charts = [set() for _ in range(n + 1)]
        charts[0] = {(self.start, body, 0, 0) for body in self.productions[self.start]}
        waiting = [{} for _ in range(n + 1)]  # nonterminal -> items with the dot before it
        for i in range(n + 1):
            queue = list(charts[i])
            while queue:
                item = queue.pop()
                head, body, dot, origin = item
                if dot == len(body):
                    new = [(h2, b2, d2 + 1, o2)
                           for h2, b2, d2, o2 in waiting[origin].get(head, ())]
                elif body[dot] in TERMINALS:
                    if i < n and b[i] == body[dot]:
                        charts[i + 1].add((head, body, dot + 1, origin))
                    continue
                else:
                    sym = body[dot]
                    waiting[i].setdefault(sym, []).append(item)
                    new = [(sym, sub, 0, i) for sub in self.productions[sym]]
                    if sym in self._nullable:
                        new.append((head, body, dot + 1, origin))
                for item in new:
                    if item not in charts[i]:
                        charts[i].add(item)
                        queue.append(item)
        return any((self.start, body, len(body), 0) in charts[n]
                   for body in self.productions[self.start])

    # -- structure ----------------------------------------------------------

    def swap01(self) -> "Cfg":
        m = {"0": "1", "1": "0"}
        prods = {
            h: [tuple(m.get(s, s) for s in body) for body in bodies]
            for h, bodies in self.productions.items()
        }
        return Cfg(self.start, prods)

    def reverse(self) -> "Cfg":
        prods = {
            h: [tuple(reversed(body)) for body in bodies]
            for h, bodies in self.productions.items()
        }
        return Cfg(self.start, prods)

    def union(self, other: "Cfg") -> "Cfg":
        """Fresh-start union; both operand grammars are renamed apart."""
        def rename(g, tag):
            table = {nt: f"{tag}:{nt}" for nt in g.productions}
            prods = {
                table[h]: [tuple(table.get(s, s) for s in body) for body in bodies]
                for h, bodies in g.productions.items()
            }
            return table[g.start], prods

        s1, p1 = rename(self, "L")
        s2, p2 = rename(other, "R")
        prods = {"S%union": [(s1,), (s2,)]}
        prods.update(p1)
        prods.update(p2)
        return Cfg("S%union", prods)

    def count_vectors(self, fits, budget: int) -> set:
        """The letter counts (zeros, ones) of the generated words that
        satisfy ``fits(zeros, ones)``, a test that holds below every vector
        it holds of, as a count window does.  A semi-naive least fixpoint
        over the binarized grammar: each round sums only combinations that
        take some symbol's gain of the round before, so a pair of vectors is
        summed at most twice.  Raises CapacityError once it has formed more
        than ``budget`` sums of count vectors."""
        prods = _binarize_map(self.productions)
        vecs = {"0": {(1, 0)}, "1": {(0, 1)}}
        for head, bodies in prods.items():
            vecs[head] = {(0, 0)} if () in bodies else set()
        # what each symbol gained in the last round; the first round takes
        # the letters and the empty bodies as new
        fresh = {s: set(v) for s, v in vecs.items()}
        work = 0
        while any(fresh.values()):
            gained = {h: set() for h in prods}
            for head, bodies in prods.items():
                for body in bodies:
                    for i, pivot in enumerate(body):
                        if not fresh[pivot]:
                            continue
                        acc = {(0, 0)}
                        for m, sym in enumerate(body):
                            step = fresh[sym] if m == i else vecs[sym]
                            work += len(acc) * len(step)
                            if work > budget:
                                raise CapacityError(
                                    f"count-vector fixpoint exceeds its budget of {budget} sums"
                                )
                            acc = {(a + c, b + d) for a, b in acc for c, d in step
                                   if fits(a + c, b + d)}
                        gained[head] |= acc
            fresh = {s: gained.get(s, set()) - v for s, v in vecs.items()}
            for s, new in fresh.items():
                vecs[s] |= new
        return vecs[self.start]

    def _least(self, letter, join, stop=None) -> dict:
        """The least value each nonterminal derives, by Knuth's "A
        generalization of Dijkstra's algorithm" (IPL 1977).  A terminal c is
        worth ``letter(c)``, a body ``join`` of its symbols' values, at least
        each and monotone in each.  A body is joined once, when its last
        nonterminal is final; the run ends when ``stop`` is final.  A
        nonterminal that derives nothing is absent."""
        bodies, pending, waiting, heap = [], [], {}, []
        for head, alts in self.productions.items():
            for body in alts:
                inner = [s for s in body if s not in TERMINALS]
                for s in inner:
                    waiting.setdefault(s, []).append(len(bodies))
                if not inner:
                    heap.append((join([letter(c) for c in body]), head))
                bodies.append((head, body))
                pending.append(len(inner))
        heapq.heapify(heap)
        final: dict = {}
        while heap:
            value, head = heapq.heappop(heap)
            if head in final:
                continue
            final[head] = value
            if head == stop:
                break
            for k in waiting.get(head, ()):
                pending[k] -= 1
                h, body = bodies[k]
                if pending[k] == 0 and h not in final:
                    parts = [letter(s) if s in TERMINALS else final[s] for s in body]
                    heapq.heappush(heap, (join(parts), h))
        return final

    def shortest_length(self):
        """The length of a shortest generated word, or None when the language
        is empty; cheap even where that word would be huge."""
        return self._least(lambda c: 1, sum, self.start).get(self.start)

    def shortest_word(self):
        """The length-lexicographically least generated word, or None when
        the language is empty."""
        least = self._least(
            lambda c: (1, c),
            lambda parts: (sum(n for n, _ in parts), "".join(w for _, w in parts)),
            self.start,
        )
        return least[self.start][1] if self.start in least else None


def _binarize_map(productions):
    # an equivalent production map with bodies of length at most 2
    prods = {h: [] for h in productions}
    for head, bodies in productions.items():
        for body in bodies:
            cur_head, cur_body = head, tuple(body)
            while len(cur_body) > 2:
                nxt = f"{head}%{len(prods)}"
                while nxt in prods:  # a name the grammar already uses
                    nxt += "%"
                prods[nxt] = []
                prods[cur_head].append((cur_body[0], nxt))
                cur_head, cur_body = nxt, cur_body[1:]
            prods[cur_head].append(cur_body)
    return prods


def intersect_regular(g: Cfg, d: Dfa, budget=PRODUCT_BUDGET) -> Cfg:
    """Product grammar for L(g) intersected with L(d): the (state, symbol,
    state) triples of Bar-Hillel, Perles and Shamir (1961) over the binarized
    grammar, built bottom-up from the automaton's moves (a terminal stands
    for its own move), so only triples that generate a word get bodies, then
    trimmed to what the start reaches.  Two triples are joined once, when
    the later is reached.  CapacityError is raised once more than ``budget``
    bodies, by default PRODUCT_BUDGET, have been built."""
    prods = _binarize_map(g.productions)
    uses: dict = {}  # symbol -> (head, body, position) of each occurrence
    for head, bodies in prods.items():
        for body in bodies:
            for i, sym in enumerate(body):
                uses.setdefault(sym, []).append((head, body, i))

    def tname(p, sym, q):
        return sym if sym in TERMINALS else f"[{p},{sym},{q}]"

    built: dict = {}  # triple name -> its product bodies
    queue = [(p, c, d.trans[p][i]) for p in range(len(d)) for i, c in enumerate(TERMINALS)]
    size = 0

    def add(p, head, q, body):
        nonlocal size
        name = tname(p, head, q)
        if name not in built:
            built[name] = []
            queue.append((p, head, q))
        built[name].append(body)
        size += 1
        if size > budget:
            raise CapacityError(
                f"grammar-automaton product exceeds the budget of {budget} bodies"
            )

    for head, bodies in prods.items():
        if () in bodies:
            for p in range(len(d)):
                add(p, head, p, ())
    ends: dict = {}  # (symbol, p) -> each q of a reached triple (p, symbol, q)
    starts: dict = {}  # (symbol, q) -> each p of a reached triple (p, symbol, q)
    while queue:
        p, x, q = queue.pop()
        t = tname(p, x, q)
        ends.setdefault((x, p), []).append(q)
        for head, body, i in uses.get(x, ()):
            if len(body) == 1:
                add(p, head, q, (t,))
            elif i == 0:
                for r in ends.get((body[1], q), ()):
                    add(p, head, r, (t, tname(q, body[1], r)))
            else:
                for o in starts.get((body[0], p), ()):
                    add(o, head, q, (tname(o, body[0], p), t))
        # registered last, so a body x x joins t with itself only once
        starts.setdefault((x, q), []).append(p)
    roots = [r for r in (tname(d.start, g.start, f) for f in d.accept) if r in built]
    trimmed = {"S%product": [(r,) for r in roots]}
    while roots:
        name = roots.pop()
        if name not in trimmed:
            trimmed[name] = built[name]
            roots.extend(s for body in built[name] for s in body if s not in TERMINALS)
    return Cfg("S%product", trimmed)
