"""Context-free grammars over the terminal alphabet {0, 1}.

Provides the textual rule format, chart-based membership (complete for
lambda-productions), the state-symbol-state product with a Dfa, emptiness by
the generating-nonterminal fixpoint, bounded letter-count vectors, and
shortest-word extraction for witness reporting.
"""

from __future__ import annotations

from .automata import Dfa
from .errors import CapacityError, FormatError

TERMINALS = ("0", "1")


class Cfg:
    """Productions map a nonterminal to a tuple of bodies; a body is a tuple
    of symbols, each either a terminal '0'/'1' or a nonterminal name."""

    __slots__ = ("start", "productions")

    def __init__(self, start, productions):
        # bodies deduplicated in order
        prods = {
            head: tuple(dict.fromkeys(tuple(body) for body in bodies))
            for head, bodies in productions.items()
        }
        self.start = start
        self.productions = prods
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
        """Earley chart parse, iterated to fixpoint per chart position so
        nullable completions are not lost."""
        n = len(b)
        charts = [set() for _ in range(n + 1)]
        for body in self.productions[self.start]:
            charts[0].add((self.start, body, 0, 0))
        for i in range(n + 1):
            queue = list(charts[i])
            while queue:
                item = queue.pop()
                head, body, dot, origin = item
                if dot < len(body):
                    sym = body[dot]
                    if sym in TERMINALS:
                        if i < n and b[i] == sym:
                            charts[i + 1].add((head, body, dot + 1, origin))
                    else:
                        for sub in self.productions[sym]:
                            cand = (sym, sub, 0, i)
                            if cand not in charts[i]:
                                charts[i].add(cand)
                                queue.append(cand)
                        # a nullable sym may already be complete in this set
                        for done in [it for it in charts[i]
                                     if it[0] == sym and it[2] == len(it[1]) and it[3] == i]:
                            cand = (head, body, dot + 1, origin)
                            if cand not in charts[i]:
                                charts[i].add(cand)
                                queue.append(cand)
                else:
                    for it in list(charts[origin]):
                        h2, b2, d2, o2 = it
                        if d2 < len(b2) and b2[d2] == head:
                            cand = (h2, b2, d2 + 1, o2)
                            if cand not in charts[i]:
                                charts[i].add(cand)
                                queue.append(cand)
        return any(
            head == self.start and dot == len(body) and origin == 0
            for head, body, dot, origin in charts[n]
        )

    # -- structure ----------------------------------------------------------

    def binarized(self) -> "Cfg":
        """Equivalent grammar with bodies of length at most 2."""
        return Cfg(self.start, _binarize_map(self.productions, self.start))

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

    def is_empty(self) -> bool:
        """True when the start symbol generates no word at all."""
        return self.shortest_length() is None

    def count_vectors(self, fits, budget: int) -> set:
        """The letter counts (zeros, ones) of the generated words that
        satisfy ``fits(zeros, ones)``, a test that holds below every vector
        it holds of, as a count window does.  A semi-naive least fixpoint
        over the binarized grammar: each round sums only combinations that
        take some symbol's gain of the round before, so a pair of vectors is
        summed at most twice.  Raises CapacityError once it has formed more
        than ``budget`` sums of count vectors."""
        g = self.binarized()
        vecs = {"0": {(1, 0)}, "1": {(0, 1)}}
        for head, bodies in g.productions.items():
            vecs[head] = {(0, 0)} if () in bodies else set()
        # what each symbol gained in the last round; the first round takes
        # the letters and the empty bodies as new
        fresh = {s: set(v) for s, v in vecs.items()}
        work = 0
        while any(fresh.values()):
            gained = {h: set() for h in g.productions}
            for head, bodies in g.productions.items():
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
        return vecs[g.start]

    def _min_lengths(self) -> dict:
        # least generated length per nonterminal, inf when it generates nothing
        INF = float("inf")
        best_len = {h: INF for h in self.productions}
        changed = True
        while changed:
            changed = False
            for head, bodies in self.productions.items():
                for body in bodies:
                    total = 0
                    for s in body:
                        total += 1 if s in TERMINALS else best_len[s]
                    if total < best_len[head]:
                        best_len[head] = total
                        changed = True
        return best_len

    def shortest_length(self):
        """The length of a shortest generated word, or None when the language
        is empty; cheap even where that word would be huge."""
        length = self._min_lengths()[self.start]
        return None if length == float("inf") else length

    def shortest_word(self):
        """A minimum-length generated word (lexicographically least among the
        minimum-length ones), or None when the language is empty."""
        best_len = self._min_lengths()
        if best_len[self.start] == float("inf"):
            return None

        cache: dict = {}

        def expand(nt):
            if nt in cache:
                return cache[nt]
            options = []
            for body in self.productions[nt]:
                total = sum(1 if s in TERMINALS else best_len[s] for s in body)
                if total == best_len[nt]:
                    options.append(body)
            words = []
            for body in options:
                parts = [s if s in TERMINALS else expand(s) for s in body]
                words.append("".join(parts))
            cache[nt] = min(words)
            return cache[nt]

        return expand(self.start)


def _binarize_map(productions, start):
    prods = {h: [] for h in productions}
    counter = [0]

    def aux_name(head):
        counter[0] += 1
        return f"{head}%{counter[0]}"

    for head, bodies in productions.items():
        for body in bodies:
            cur_head, cur_body = head, tuple(body)
            while len(cur_body) > 2:
                nxt = aux_name(head)
                prods.setdefault(nxt, [])
                prods[cur_head].append((cur_body[0], nxt))
                cur_head, cur_body = nxt, cur_body[1:]
            prods[cur_head].append(cur_body)
    return prods


def intersect_regular(g: Cfg, d: Dfa, budget=None) -> Cfg:
    """Product grammar for L(g) intersected with L(d), by the classic
    (state, symbol, state) triple construction on the binarized grammar.

    A binarized body with m nonterminals yields |Q|^(1+m) product bodies.
    When ``budget`` is given and their total exceeds it, CapacityError is
    raised before any body is built."""
    g = Cfg(g.start, _binarize_map(g.productions, g.start))
    states = range(len(d))
    if budget is not None:
        size = sum(
            len(d) ** (1 + sum(s not in TERMINALS for s in body))
            for bodies in g.productions.values()
            for body in bodies
        )
        if size > budget:
            raise CapacityError(
                f"grammar-automaton product of {size} bodies exceeds the budget {budget}"
            )

    def tname(p, sym, q):
        return f"[{p},{sym},{q}]"

    def targets(p, sym):
        # the states where a derivation of sym started in p may end
        return (d.trans[p][TERMINALS.index(sym)],) if sym in TERMINALS else states

    prods: dict = {}

    def entry(name):
        return prods.setdefault(name, [])

    # terminal bridges follow the automaton's moves
    for p in states:
        for c in TERMINALS:
            entry(tname(p, c, targets(p, c)[0])).append((c,))
    # every nonterminal triple exists, possibly with no bodies, so bodies
    # may reference state pairs that turn out non-generating
    for nt in g.productions:
        for p in states:
            for q in states:
                entry(tname(p, nt, q))
    for head, bodies in g.productions.items():
        for body in bodies:
            if len(body) == 0:
                for p in states:
                    entry(tname(p, head, p)).append(())
            elif len(body) == 1:
                for p in states:
                    for q in targets(p, body[0]):
                        entry(tname(p, head, q)).append((tname(p, body[0], q),))
            else:
                x, y = body
                for p in states:
                    for r in targets(p, x):
                        for q in targets(r, y):
                            entry(tname(p, head, q)).append(
                                (tname(p, x, r), tname(r, y, q))
                            )
    start = "S%product"
    entry(start)
    for f in d.accept:
        name = tname(d.start, g.start, f)
        entry(name)
        prods[start].append((name,))
    return Cfg(start, prods)
