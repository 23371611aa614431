"""Graph-class oracles and structural witnesses.

Every oracle decides membership straight from a textbook characterization,
independently of the language machinery, so the two routes can
cross-validate each other.  Most run in polynomial time; two searches are
still exponential and meant for small orders (the test batteries use up to
7): ``circle_chord_word`` and ``_event_sequence`` (behind the interval and
interval bigraph models, memoized per call).  ``convex_ordering`` searches
the prefixes of one component's side and remembers each placed set that
failed, so its search is bounded by 2^|side| placed sets.

Witness variants return the structure the constructive theorems consume:
interval event sequences, chord diagrams, transitive orientations, creation
sequences, nested orderings, convex orderings and halfline models.  The
bipartite models read the one 2-coloring ``Graph.bipartition`` gives, since
whether each model exists does not depend on which side a component takes.
"""

from __future__ import annotations

import itertools

from .graphs import Graph

# --- elementary classes -----------------------------------------------------


def is_complete(g: Graph) -> bool:
    n = g.order
    return g.size == n * (n - 1) // 2


def is_cluster(g: Graph) -> bool:
    return all(is_complete(g.induced(c)) for c in g.components())


def is_cograph(g: Graph) -> bool:
    # P4-free characterization, checked over all 4-subsets
    for quad in itertools.combinations(g.vertices, 4):
        h = g.induced(quad)
        if h.size == 3 and sorted(h.degree(v) for v in quad) == [1, 1, 2, 2]:
            # 3 edges with degree sequence (1,1,2,2) is exactly a path
            return False
    return True


def is_bipartite(g: Graph) -> bool:
    return g.bipartition() is not None


def is_cobipartite(g: Graph) -> bool:
    return is_bipartite(g.complement())


def is_chordal(g: Graph) -> bool:
    """Greedy simplicial elimination; succeeds on exactly the chordal graphs."""
    remaining = set(g.vertices)
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    while remaining:
        pick = None
        for v in sorted(remaining):
            nb = adj[v]
            if all(b in adj[a] for a, b in itertools.combinations(sorted(nb), 2)):
                pick = v
                break
        if pick is None:
            return False
        for u in adj[pick]:
            adj[u].discard(pick)
        remaining.discard(pick)
        del adj[pick]
    return True


def is_split(g: Graph) -> bool:
    return is_chordal(g) and is_chordal(g.complement())


def is_threshold(g: Graph) -> bool:
    return threshold_creation_sequence(g) is not None


def threshold_creation_sequence(g: Graph):
    """Creation sequence [(vertex, kind)] with kind 'isolated' or
    'universal', listed in creation order, or None.

    Peels an isolated vertex, else a universal one, largest name first, so
    the reversed sequence creates ascending.  Each peeled vertex is
    adjacent to none or to all of those left, so every vertex left has lost
    exactly one neighbor per universal peel so far: its degree is its
    original degree minus that count.  Vertices are therefore kept in
    buckets by original degree, ascending by name, and each peel pops the
    last of one bucket."""
    n = g.order
    buckets = [[] for _ in range(n)]
    for v in g.vertices:
        buckets[g.degree(v)].append(v)
    peeled = []
    universal = 0
    for left in range(n, 0, -1):
        if buckets[universal]:
            peeled.append((buckets[universal].pop(), "isolated"))
        elif buckets[universal + left - 1]:
            peeled.append((buckets[universal + left - 1].pop(), "universal"))
            universal += 1
        else:
            return None
    return peeled[::-1]


# --- intersection models ----------------------------------------------------


def _event_sequence(g: Graph, constrains):
    """Open/close events of a distinct-endpoint interval model, or None.
    Opening v needs an edge to every open u with ``constrains(u, v)``;
    closing v is legal once every neighbor of v has been opened.  Only the
    non-isolated vertices are searched: an isolated interval can always sit
    apart, so each isolated vertex opens and closes at the end."""
    vs = [v for v in g.vertices if g.degree(v)]
    all_closed = frozenset(vs)
    seen = set()

    def rec(open_set, closed, events):
        if closed == all_closed:
            return events
        key = (open_set, closed)
        if key in seen:
            return None
        seen.add(key)
        for v in vs:
            if v in open_set or v in closed:
                continue
            if all(g.has_edge(v, u) for u in open_set if constrains(u, v)):
                got = rec(open_set | {v}, closed, events + [(v, "open")])
                if got is not None:
                    return got
        for v in sorted(open_set):
            if g.neighbors(v) <= open_set | closed:
                got = rec(open_set - {v}, closed | {v}, events + [(v, "close")])
                if got is not None:
                    return got
        return None

    events = rec(frozenset(), frozenset(), [])
    if events is None:
        return None
    return events + [(v, kind) for v in g.isolated_vertices() for kind in ("open", "close")]


def interval_event_sequence(g: Graph):
    """A distinct-endpoint interval model as a sequence of (vertex, 'open' or
    'close') events, or None: every overlap is an edge."""
    return _event_sequence(g, lambda u, v: True)


def is_interval(g: Graph) -> bool:
    return interval_event_sequence(g) is not None


def is_co_interval(g: Graph) -> bool:
    return is_interval(g.complement())


def circle_chord_word(g: Graph):
    """A chord diagram as a 2-uniform letter sequence (the circle cut open
    just before the first endpoint of the least vertex), or None.  Chords
    cross, i.e. their letters alternate, exactly on the edges."""
    vs = g.vertices
    n = len(vs)

    def rec(seq, opened, closed):
        # opened: the open chords in opening order; closed: the finished ones
        if len(seq) == 2 * n:
            return seq
        # close an open chord v: exactly those opened after it cross it
        for v in sorted(opened):
            i = opened.index(v)
            nbrs = g.neighbors(v)
            if nbrs.isdisjoint(opened[:i]) and nbrs.issuperset(opened[i + 1:]):
                got = rec(seq + [v], opened[:i] + opened[i + 1:], closed | {v})
                if got is not None:
                    return got
        # open a new chord; the cut starts at the least vertex, and a
        # finished chord can no longer cross the new one
        for v in sorted(set(vs) - set(opened) - closed) if seq else [min(vs)]:
            if g.neighbors(v).isdisjoint(closed):
                got = rec(seq + [v], opened + (v,), closed)
                if got is not None:
                    return got
        return None

    return rec([], (), frozenset())


def is_circle(g: Graph) -> bool:
    return circle_chord_word(g) is not None


def interval_bigraph_model(g: Graph):
    """(left, right, events) for an interval bigraph model with all-distinct
    endpoints, where only cross-side overlaps are constrained, or None.
    Swapping a component's sides keeps its cross pairs, and components'
    models can sit side by side, so one 2-coloring decides."""
    parts = g.bipartition()
    if parts is None:
        return None
    left, right = parts
    events = _event_sequence(g, lambda u, v: (u in left) != (v in left))
    if events is None:
        return None
    return sorted(left), sorted(right), events


def is_interval_bigraph(g: Graph) -> bool:
    return interval_bigraph_model(g) is not None


# --- order-based classes ----------------------------------------------------


def is_permutation(g: Graph) -> bool:
    """Pnueli, Lempel and Even: g is a permutation graph iff g and its
    complement are both comparability graphs."""
    return is_comparability(g) and is_cocomparability(g)


def transitive_orientation(g: Graph):
    """A transitive orientation as a set of arcs, or None.

    Golumbic's TRO algorithm (*Algorithmic Graph Theory and Perfect
    Graphs*, 1980, Algorithm 5.1).  Among the edges still left, an arc
    (a, b) forces (a, c) for every c adjacent to a but not to b, and (c, b)
    for every c adjacent to b but not to a; an arc's implication class is
    what it forces, step by step.  The first edge left in sorted order,
    oriented u -> v, grows its class, which joins the orientation and
    leaves the graph.  By the TRO theorem g is a comparability graph iff no
    class holds an arc and its reverse, and then the union of the classes
    is transitive, so no choice is ever undone.  Each arc scans the edges
    left at its two ends once: O(δ·m) for maximum degree δ and m edges."""
    left = {v: set(g.neighbors(v)) for v in g.vertices}
    arcs = set()
    for u, v in sorted(g.edges):
        if v not in left[u]:
            continue  # in an earlier class
        implied = {(u, v)}
        work = [(u, v)]
        while work:
            a, b = work.pop()
            forced = [(a, c) for c in left[a] - left[b] if c != b]
            forced += [(c, b) for c in left[b] - left[a] if c != a]
            for arc in forced:
                if arc[::-1] in implied:
                    return None
                if arc not in implied:
                    implied.add(arc)
                    work.append(arc)
        for a, b in implied:
            left[a].discard(b)
            left[b].discard(a)
        arcs |= implied
    return arcs


def is_comparability(g: Graph) -> bool:
    return transitive_orientation(g) is not None


def is_cocomparability(g: Graph) -> bool:
    return is_comparability(g.complement())


# --- bipartite shape classes ------------------------------------------------


def nested_ordering(g: Graph):
    """(A-ordering, B-ordering) realizing a bipartite chain structure:
    A sorted so neighborhoods grow, B sorted so that every N(a) is a prefix
    of B.  Returns None when g is not a bipartite chain graph.  Neighborhoods
    nest on one side iff g has no induced 2K2, whatever the coloring, so one
    2-coloring decides."""
    parts = g.bipartition()
    if parts is None:
        return None
    left, right = parts
    a_sorted = sorted(left, key=lambda v: (g.degree(v), v))
    if not all(
        g.neighbors(a_sorted[i]) <= g.neighbors(a_sorted[i + 1])
        for i in range(len(a_sorted) - 1)
    ):
        return None

    # b covered earlier (by a smaller a) must come first
    def threshold(b):
        for i, a in enumerate(a_sorted):
            if g.has_edge(a, b):
                return i
        return len(a_sorted)

    b_sorted = sorted(right, key=lambda b: (-g.degree(b), threshold(b), b))
    if any(set(b_sorted[: g.degree(a)]) != g.neighbors(a) for a in a_sorted):
        return None
    return a_sorted, b_sorted


def is_bipartite_chain(g: Graph) -> bool:
    return nested_ordering(g) is not None


def convex_ordering(g: Graph):
    """(ordered side, other side) such that every neighborhood on the other
    side is a consecutive run, or None.

    A neighborhood lies inside one component, so each non-trivial component
    picks its ordered color class and its order on its own, first class
    first, and the orders are concatenated.  Isolated vertices need no
    search: they end the ordered side, where they split no run."""
    parts = g.bipartition()
    if parts is None:
        return None
    left, _ = parts
    points, others = [], []
    for comp in g.components():
        if len(comp) == 1:
            continue
        for side in (comp & left, comp - left):
            other = comp - side
            order = _run_order(sorted(side), [frozenset(g.neighbors(y)) for y in other])
            if order is not None:
                points += order
                others += other
                break
        else:
            return None
    return points + list(g.isolated_vertices()), sorted(others)


def _run_order(side, hoods):
    """The least order of side (a sorted list) in which every set in hoods
    is consecutive, or None.  A prefix search: a neighborhood that has
    started and not finished must take the next vertex, so the placed set
    alone decides whether a prefix can be finished, and a placed set that
    failed is not tried again.  The search runs on an explicit stack: per
    placed prefix, its placed set and its untried next vertices."""

    def nexts(placed):
        open_hoods = [h for h in hoods if h & placed and not h <= placed]
        return (x for x in side if x not in placed and all(x in h for h in open_hoods))

    if not side:
        return []
    failed = set()
    order = []  # the vertices of every frame but the first
    stack = [(frozenset(), nexts(frozenset()))]
    while stack:
        placed, untried = stack[-1]
        x = next(untried, None)
        if x is None:
            failed.add(placed)
            stack.pop()
            del order[-1:]
            continue
        grown = placed | {x}
        if len(grown) == len(side):
            return order + [x]
        if grown not in failed:
            order.append(x)
            stack.append((grown, nexts(grown)))
    return None


def is_convex(g: Graph) -> bool:
    return convex_ordering(g) is not None


# --- halflines --------------------------------------------------------------


def halfline_model(g: Graph):
    """A halfline intersection model ({v: (side, value)}) with side 1 for
    rightward rays [a, inf) and side 2 for leftward rays (-inf, a], or None.
    Rays on one side always meet; a cross pair meets iff a_1 <= a_2.  The
    sides are the color classes of the complement, whose edges are the
    cross non-edges; these nest iff the complement has no induced 2K2,
    whatever its coloring, so one 2-coloring decides."""
    parts = g.complement().bipartition()
    if parts is None:
        return None
    left, right = parts
    # left and right are cliques of g; cross edges must form a staircase
    y1 = sorted(left, key=lambda v: (-len(g.neighbors(v) & right), v))
    y2 = sorted(right, key=lambda v: (len(g.neighbors(v) & left), v))
    model = {y: (2, float(j + 1)) for j, y in enumerate(y2)}
    for x in y1:
        nset = g.neighbors(x) & right
        k = len(y2) - len(nset)
        if set(y2[k:]) != nset:
            return None
        model[x] = (1, k + 0.5)
    return model


def is_halfline(g: Graph) -> bool:
    """The graphs the halfline language represents: a halfline intersection
    graph, i.e. a chordal cobipartite one (halfline_model supplies the
    witness), plus isolated vertices, which a frequentness-3 letter gives."""
    h = core(g)
    return h is None or (is_chordal(h) and is_cobipartite(h))


def is_co_circle(g: Graph) -> bool:
    """The graphs the co-circle language represents: the complement of a
    circle graph, plus isolated vertices, which a single letter gives."""
    h = core(g)
    return h is None or is_circle(h.complement())


def core(g: Graph):
    """g less its isolated vertices, or None when no vertex is left: the
    part that the halfline and co-circle recognizers and builders model,
    each isolated vertex being given its own letters."""
    kept = [v for v in g.vertices if g.degree(v)]
    return g.induced(kept) if kept else None
