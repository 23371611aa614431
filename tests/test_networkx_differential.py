"""Isomorphism and two class oracles checked against networkx, an
independent implementation used only here."""

import random

import pytest

from conftest import gnp
from langrep import oracles
from langrep.isomorphism import enumerate_graphs, isomorphic

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
