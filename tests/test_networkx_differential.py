"""Isomorphism and three class oracles checked against networkx, an
independent implementation used only here."""

import random

import pytest

from conftest import gnp, group_order, symmetric_order_ten, twin_swaps
from langrep import oracles
from langrep.graphs import Graph
from langrep.isomorphism import automorphism_count, automorphisms, enumerate_graphs, isomorphic

nx = pytest.importorskip("networkx")


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return h


def is_isomorphism(mapping, g, h):
    return sorted(mapping.values()) == sorted(h.vertices) and all(
        h.has_edge(mapping[u], mapping[v]) == g.has_edge(u, v)
        for u in g.vertices for v in g.vertices if u != v
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_isomorphic_agrees_on_all_pairs(n):
    graphs = enumerate_graphs(n)
    for g in graphs:
        for h in graphs:
            mapping = isomorphic(g, h)
            assert (mapping is not None) == nx.is_isomorphic(to_nx(g), to_nx(h))
            assert mapping is None or is_isomorphism(mapping, g, h)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_isomorphic_agrees_on_seeded_relabelings(n):
    rng = random.Random(n)
    graphs = enumerate_graphs(n)
    for g in graphs:
        names = list(g.vertices)
        rng.shuffle(names)
        moved = g.relabel(dict(zip(g.vertices, names)))
        other = rng.choice(graphs).relabel(dict(zip(g.vertices, names)))
        for h in (moved, other):
            mapping = isomorphic(g, h)
            assert (mapping is not None) == nx.is_isomorphic(to_nx(g), to_nx(h))
            assert mapping is None or is_isomorphism(mapping, g, h)


def nx_automorphisms(g):
    h = to_nx(g)
    return sum(1 for _ in nx.vf2pp_all_isomorphisms(h, h))


def test_automorphism_count_agrees_up_to_order_6():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            assert automorphism_count(g) == nx_automorphisms(g), g


def test_automorphism_count_agrees_on_symmetric_order_ten():
    # K10 and null 10 (10! each) would take minutes to list here;
    # test_graphs pins their counts
    for name, (g, _) in symmetric_order_ten().items():
        if name not in ("K10", "null 10"):
            assert automorphism_count(g) == nx_automorphisms(g), name


def test_automorphisms_with_twin_swaps_generate_the_matcher_count():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            h = to_nx(g)
            count = sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
            assert group_order(automorphisms(g) + twin_swaps(g), n) == count, g


def swap_two_edges(g, rng):
    """g after one degree-preserving swap ab, cd -> ad, cb, or g itself
    when no sampled pair of edges admits one."""
    edges = sorted(g.edges)
    for _ in range(50 if len(edges) > 1 else 0):
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) == 4 and not g.has_edge(a, d) and not g.has_edge(c, b):
            return Graph(g.vertices, [e for e in edges if e not in ((a, b), (c, d))] + [(a, d), (c, b)])
    return g


def test_isomorphic_agrees_on_seeded_gnp_pairs():
    # 250 graphs at orders 7-10, each paired with a relabeling of itself and
    # with a relabeling of a degree-preserving rewiring of itself
    rng = random.Random(710)
    for seed in range(250):
        g = gnp(7 + seed % 4, rng.choice([0.2, 0.35, 0.5]), seed)
        names = list(g.vertices)
        rng.shuffle(names)
        relabel = dict(zip(g.vertices, names))
        moved = g.relabel(relabel)
        other = swap_two_edges(g, rng).relabel(relabel)
        mapping = isomorphic(g, moved)
        assert mapping is not None and is_isomorphism(mapping, g, moved), seed
        mapping = isomorphic(g, other)
        assert (mapping is not None) == nx.is_isomorphic(to_nx(g), to_nx(other)), seed
        assert mapping is None or is_isomorphism(mapping, g, other), seed


def _oracle_cases():
    cases = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    cases += [gnp(n, p, seed) for seed, (n, p) in enumerate([(9, 0.3), (10, 0.2), (12, 0.15)] * 4)]
    return cases


def test_is_chordal_agrees():
    for g in _oracle_cases():
        assert oracles.is_chordal(g) == nx.is_chordal(to_nx(g)), g


def test_is_bipartite_agrees():
    for g in _oracle_cases():
        assert oracles.is_bipartite(g) == nx.is_bipartite(to_nx(g)), g


def test_is_threshold_agrees():
    # every graph of order <= 6 and the seeded G(n, p), plus order 7, where
    # 64 of the 1044 classes are threshold graphs
    from networkx.algorithms.threshold import is_threshold_graph

    for g in _oracle_cases() + enumerate_graphs(7):
        assert oracles.is_threshold(g) == is_threshold_graph(to_nx(g)), g
