"""Oracle witnesses against the searches they replaced.

The references below are the earlier routines, kept as they were:
the recursive transitive orientation, the recursive convex prefix search,
the interval event search over every vertex, and the bipartite models that
tried every 2-coloring (each component flipped both ways).  On every graph
of order at most 7 and on its complement the current oracles must give the
same verdicts, and the same models wherever the change leaves the model
alone."""

import itertools
import random
import time

import pytest

from langrep import oracles
from langrep.constructions import (
    build_comparability,
    build_convex,
    build_interval,
    build_interval_bigraph,
    build_permutation,
)
from langrep.errors import BuildError
from langrep.graphs import Graph, complete_bipartite, cycle_graph, path_graph
from langrep.isomorphism import enumerate_graphs


def _graphs_and_complements(max_order=7):
    for n in range(1, max_order + 1):
        for g in enumerate_graphs(n):
            yield g
            yield g.complement()


# --- references -------------------------------------------------------------


def _recursive_transitive_orientation(g):
    """Backtracking over the sorted edges, one recursion level per choice."""
    edges = sorted(g.edges)

    def closure(arcs, arc):
        arcs = set(arcs)
        into = {}
        out = {}
        for a, b in arcs:
            out.setdefault(a, []).append(b)
            into.setdefault(b, []).append(a)
        work = [arc]
        while work:
            a, b = work.pop()
            if (a, b) in arcs:
                continue
            if not g.has_edge(a, b) or (b, a) in arcs:
                return None
            arcs.add((a, b))
            work += [(a, d) for d in out.get(b, ())]
            work += [(c, b) for c in into.get(a, ())]
            out.setdefault(a, []).append(b)
            into.setdefault(b, []).append(a)
        return arcs

    def rec(arcs, idx):
        while idx < len(edges):
            u, v = edges[idx]
            if (u, v) in arcs or (v, u) in arcs:
                idx += 1
                continue
            for arc in ((u, v), (v, u)):
                closed = closure(arcs, arc)
                if closed is not None:
                    got = rec(closed, idx + 1)
                    if got is not None:
                        return got
            return None
        return arcs

    return rec(set(), 0)


def _event_sequence_over_all_vertices(g, constrains):
    """The interval event search with isolated vertices searched too."""
    vs = g.vertices
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

    return rec(frozenset(), frozenset(), [])


def _all_bipartitions(g):
    """Every 2-coloring (left, right) of a bipartite graph, as frozensets;
    components flip independently and each side may end up empty."""
    comps = []
    color = {}
    for root in g.vertices:
        if root in color:
            continue
        color[root] = 0
        comp = [root]
        stack = [root]
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if y not in color:
                    color[y] = 1 - color[x]
                    comp.append(y)
                    stack.append(y)
                elif color[y] == color[x]:
                    return
        comps.append(comp)
    for flips in itertools.product((0, 1), repeat=len(comps)):
        left = frozenset(v for comp, flip in zip(comps, flips) for v in comp if color[v] == flip)
        yield left, frozenset(g.vertices) - left


def _nested_ordering_over_colorings(g):
    for left, right in _all_bipartitions(g):
        a_sorted = sorted(left, key=lambda v: (g.degree(v), v))
        if not all(
            g.neighbors(a_sorted[i]) <= g.neighbors(a_sorted[i + 1])
            for i in range(len(a_sorted) - 1)
        ):
            continue

        def threshold(b):
            for i, a in enumerate(a_sorted):
                if g.has_edge(a, b):
                    return i
            return len(a_sorted)

        b_sorted = sorted(right, key=lambda b: (-g.degree(b), threshold(b), b))
        if all(set(b_sorted[: g.degree(a)]) == g.neighbors(a) for a in a_sorted):
            return a_sorted, b_sorted
    return None


def _interval_bigraph_model_over_colorings(g):
    for left, right in _all_bipartitions(g):
        events = oracles._event_sequence(g, lambda u, v: (u in left) != (v in left))
        if events is not None:
            return sorted(left), sorted(right), events
    return None


def _halfline_model_over_colorings(g):
    for left, right in _all_bipartitions(g.complement()):
        y1 = sorted(left, key=lambda v: (-len(g.neighbors(v) & right), v))
        y2 = sorted(right, key=lambda v: (len(g.neighbors(v) & left), v))
        t = {}
        for x in y1:
            nset = g.neighbors(x) & right
            k = len(y2) - len(nset)
            if set(y2[k:]) != nset:
                break
            t[x] = k
        else:
            model = {y: (2, float(j + 1)) for j, y in enumerate(y2)}
            model.update({x: (1, t[x] + 0.5) for x in y1})
            return model
    return None


def _convex_ordering_over_colorings(g):
    for left, right in _all_bipartitions(g):
        for ordered, other in ((left, right), (right, left)):
            for perm in itertools.permutations(sorted(ordered)):
                pos = {v: i for i, v in enumerate(perm)}
                if all(
                    max(spots) - min(spots) + 1 == len(spots)
                    for spots in ([pos[x] for x in g.neighbors(y)] for y in other)
                    if spots
                ):
                    return list(perm), sorted(other)
    return None


def _recursive_run_order(side, hoods):
    """The prefix search of ``oracles._run_order``, one recursion level per
    placed vertex."""
    failed = set()

    def extend(order, placed):
        if len(order) == len(side):
            return order
        if placed in failed:
            return None
        open_hoods = [h for h in hoods if h & placed and not h <= placed]
        for x in side:
            if x not in placed and all(x in h for h in open_hoods):
                got = extend(order + [x], placed | {x})
                if got is not None:
                    return got
        failed.add(placed)
        return None

    return extend([], frozenset())


# --- differential tests -----------------------------------------------------


def test_transitive_orientation_matches_the_recursive_search():
    for g in _graphs_and_complements():
        assert oracles.transitive_orientation(g) == _recursive_transitive_orientation(g)


def test_event_sequence_changes_only_where_vertices_are_isolated():
    for g in _graphs_and_complements():
        got = oracles.interval_event_sequence(g)
        ref = _event_sequence_over_all_vertices(g, lambda u, v: True)
        if g.isolated_vertices():
            assert (got is None) == (ref is None)
            if got is not None:
                build_interval(g)  # raises unless the word represents g
        else:
            assert got == ref


def test_bipartite_models_match_the_search_over_colorings():
    for g in _graphs_and_complements():
        assert oracles.nested_ordering(g) == _nested_ordering_over_colorings(g)
        model = oracles.interval_bigraph_model(g)
        assert model == _interval_bigraph_model_over_colorings(g)
        if model is not None:
            build_interval_bigraph(g)  # raises unless the word represents g
        assert oracles.halfline_model(g) == _halfline_model_over_colorings(g)


def test_convex_ordering_matches_the_search_over_colorings():
    for g in _graphs_and_complements():
        got = oracles.convex_ordering(g)
        ref = _convex_ordering_over_colorings(g)
        assert (got is None) == (ref is None)
        if len(g.components()) == 1:
            assert got == ref
        if got is not None:
            build_convex(g)  # raises unless the word represents g


def test_convex_ordering_matches_the_recursive_run_order(monkeypatch):
    bipartite = [g for g in _graphs_and_complements() if g.bipartition() is not None]
    got = [oracles.convex_ordering(g) for g in bipartite]
    monkeypatch.setattr(oracles, "_run_order", _recursive_run_order)
    assert [oracles.convex_ordering(g) for g in bipartite] == got
    # both verdicts occur, so the orderings themselves are compared
    assert None in got and sum(order is not None for order in got) > 100


def test_permutation_builder_without_pi_covers_every_permutation_graph():
    built = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            if oracles.is_permutation(g):
                build_permutation(g)  # raises unless the word represents g
                built += 1
            else:
                with pytest.raises(BuildError):
                    build_permutation(g)
    assert built == 969


# --- inputs the earlier searches could not finish ---------------------------


def _with_isolated(g, k):
    return Graph(list(g.vertices) + [f"z{i:02d}" for i in range(k)], g.edges)


def _within(seconds, fn, *args):
    t0 = time.perf_counter()
    got = fn(*args)
    assert time.perf_counter() - t0 < seconds
    return got


def _raises_within(seconds, fn, *args):
    t0 = time.perf_counter()
    with pytest.raises(BuildError):
        fn(*args)
    assert time.perf_counter() - t0 < seconds


def test_permutation_builder_rejects_c12_quickly():
    _raises_within(3.0, build_permutation, cycle_graph(12))


def test_comparability_of_k40_40_needs_no_deep_recursion():
    g = complete_bipartite(40, 40)
    assert _within(5.0, oracles.is_comparability, g)
    _within(5.0, build_comparability, g)  # raises unless the word represents g


def test_convexity_of_a_long_path_needs_no_deep_recursion():
    # the recursive prefix search raised RecursionError here
    assert _within(5.0, oracles.is_convex, path_graph(2100))


def test_bipartite_builders_reject_c6_with_ten_isolated_vertices_quickly():
    g = _with_isolated(cycle_graph(6), 10)
    _raises_within(3.0, build_convex, g)
    _raises_within(3.0, build_interval_bigraph, g)


def test_nested_ordering_rejects_2k2_with_sixteen_isolated_vertices_quickly():
    g = _with_isolated(Graph("abcd", [("a", "b"), ("c", "d")]), 16)
    assert _within(3.0, oracles.nested_ordering, g) is None


def test_permutation_builder_without_pi_at_order_80():
    g = _permutation_graph(random.Random(80), 80)
    word = _within(5.0, build_permutation, g)  # raises unless the word represents g
    assert len(word) == 160


def _k2s_and_c5(k):
    # the C5's edges sort after every K2's, so a search over the sorted
    # edges meets the odd cycle only after choosing each K2's direction
    pairs = [(f"a{i:02d}", f"b{i:02d}") for i in range(k)]
    c5 = cycle_graph(5)
    return Graph([v for e in pairs for v in e] + list(c5.vertices), pairs + list(c5.edges))


def test_twenty_k2_plus_c5_is_rejected_quickly():
    g = _k2s_and_c5(20)
    assert g.order == 45
    assert _within(2.0, oracles.transitive_orientation, g) is None
    assert _within(2.0, oracles.is_comparability, g) is False
    _raises_within(2.0, build_comparability, g)
    _raises_within(2.0, build_permutation, g)


def _random_poset(rng, n, p):
    """The comparability graph of a random order on n shuffled names: each
    pair i < j is related with probability p, then closed transitively."""
    names = [f"v{i:02d}" for i in range(n)]
    rng.shuffle(names)
    up = [set() for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if rng.random() < p:
                up[i] |= {j} | up[j]
    return Graph(names, [(names[i], names[j]) for i in range(n) for j in up[i]])


def _permutation_graph(rng, n):
    pi = list(range(n))
    rng.shuffle(pi)
    vs = [f"v{i:02d}" for i in range(n)]
    return Graph(vs, [(vs[i], vs[j]) for i, j in itertools.combinations(range(n), 2)
                      if pi[i] > pi[j]])


def test_random_poset_complement_is_rejected_quickly():
    # seed 23 gives an order-22 complement that the backtracking search ran
    # past 5 s on
    rng = random.Random(23)
    n = rng.randint(20, 24)
    g = _random_poset(rng, n, rng.choice([0.1, 0.15, 0.2])).complement()
    assert g.order == 22
    assert _within(2.0, oracles.transitive_orientation, g) is None


def test_orientations_of_seeded_comparability_graphs_are_transitive():
    rng = random.Random(2024)
    for i in range(60):
        n = rng.randint(8, 40)
        if i % 2:
            g = _random_poset(rng, n, rng.choice([0.05, 0.1, 0.2, 0.4]))
        else:
            g = _permutation_graph(rng, n)
        arcs = oracles.transitive_orientation(g)
        # each edge once, and never with its reverse
        assert len(arcs) == g.size
        assert {frozenset(arc) for arc in arcs} == {frozenset(e) for e in g.edges}
        up = {v: set() for v in g.vertices}
        for u, v in arcs:
            up[u].add(v)
        assert all(up[v] <= up[u] for u, v in arcs)
