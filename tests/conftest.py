"""Shared strategies and reference helpers for the test suite."""

import itertools
import random

from hypothesis import strategies as st

from langrep.graphs import Graph


def all_binary_words(max_len):
    """Every word over {0,1} up to max_len, the empty word included."""
    for n in range(max_len + 1):
        for bits in itertools.product("01", repeat=n):
            yield "".join(bits)


def graph_from_mask(n, mask):
    vs = [f"v{i}" for i in range(1, n + 1)]
    pairs = list(itertools.combinations(vs, 2))
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    return Graph(vs, edges)


def filter_project(letters, u, v):
    """The pair morphism read straight from its definition, independent of
    VertexWord.project: u -> 0, v -> 1, other letters dropped."""
    return "".join("0" if t == u else "1" for t in letters if t == u or t == v)


def gnp(n, p, seed):
    """A seeded Erdos-Renyi graph G(n, p) on zero-padded names v000..."""
    rng = random.Random(seed)
    vs = [f"v{i:03d}" for i in range(n)]
    return Graph(vs, [e for e in itertools.combinations(vs, 2) if rng.random() < p])


@st.composite
def small_graphs(draw, min_order=1, max_order=5):
    n = draw(st.integers(min_value=min_order, max_value=max_order))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    return graph_from_mask(n, mask)


@st.composite
def vertex_letter_lists(draw, alphabet="abcd", max_len=10):
    return draw(
        st.lists(st.sampled_from(alphabet), min_size=1, max_size=max_len)
    )
