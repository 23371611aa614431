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


def symmetric_order_ten():
    """Seven highly symmetric graphs of order 10 by name, each with its
    automorphism count, on names v0..v9."""
    vs = [f"v{i}" for i in range(10)]

    def on(pairs):
        return Graph(vs, [(vs[a], vs[b]) for a, b in pairs])

    ring = [(i, (i + 1) % 5) for i in range(5)]
    return {
        "K10": (on(itertools.combinations(range(10), 2)), 3628800),
        "null 10": (on([]), 3628800),
        "Petersen": (on(ring + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                        + [(i, i + 5) for i in range(5)]), 120),
        "5K2": (on([(i, i + 1) for i in range(0, 10, 2)]), 3840),
        "2C5": (on(ring + [(a + 5, b + 5) for a, b in ring]), 200),
        "K5,5": (on([(a, b) for a in range(5) for b in range(5, 10)]), 28800),
        "C10(1,3)": (on([(i, (i + s) % 10) for i in range(10) for s in (1, 3)]), 240),
    }


def crown_graph(k):
    """K(k,k) less a perfect matching, on names v0..v(2k-1)."""
    vs = [f"v{i}" for i in range(2 * k)]
    return Graph(vs, [(vs[a], vs[k + b]) for a in range(k) for b in range(k) if a != b])


def is_automorphism(g, sigma):
    """Is sigma, on indices into g.vertices, an automorphism of g?"""
    vs = g.vertices
    return sorted(sigma) == list(range(g.order)) and all(
        g.has_edge(vs[sigma[a]], vs[sigma[b]]) == g.has_edge(vs[a], vs[b])
        for a, b in itertools.combinations(range(g.order), 2)
    )


def twin_swaps(g):
    """The transpositions, on indices, of each two twins of g (equal open
    or equal closed neighbourhoods)."""
    vs = g.vertices
    swaps = []
    for a, b in itertools.combinations(range(g.order), 2):
        u, v = vs[a], vs[b]
        if g.neighbors(u) - {v} == g.neighbors(v) - {u}:
            sigma = list(range(g.order))
            sigma[a], sigma[b] = b, a
            swaps.append(tuple(sigma))
    return swaps


def group_order(generators, n):
    """The number of permutations of range(n) that generators generate."""
    identity = tuple(range(n))
    seen, todo = {identity}, [identity]
    while todo:
        x = todo.pop()
        for s in generators:
            y = tuple(s[i] for i in x)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return len(seen)


def treewidth_exact(g) -> int:
    """Exact treewidth by elimination-order dynamic programming over
    subsets; fine up to order 8."""
    vs = g.vertices
    n = len(vs)
    idx = {v: i for i, v in enumerate(vs)}

    def q(mask, v):
        # neighbors of v reachable through eliminated vertices in mask
        start = idx[v]
        seen = 1 << start
        stack = [start]
        out = 0
        while stack:
            x = stack.pop()
            for u in g.neighbors(vs[x]):
                i = idx[u]
                if seen >> i & 1:
                    continue
                seen |= 1 << i
                if mask >> i & 1:
                    stack.append(i)
                else:
                    out += 1
        return out

    dp = {0: -1}
    for mask in range(1, 1 << n):
        best = None
        for i in range(n):
            if not mask >> i & 1:
                continue
            prev = mask ^ (1 << i)
            cand = max(dp[prev], q(prev, vs[i]))
            if best is None or cand < best:
                best = cand
        dp[mask] = best
    return dp[(1 << n) - 1]


def degeneracy(g) -> int:
    """The greatest degree met when a vertex of least degree is removed
    again and again (least name first)."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    best = 0
    while adj:
        v = min(adj, key=lambda x: (len(adj[x]), x))
        best = max(best, len(adj[v]))
        for u in adj[v]:
            adj[u].discard(v)
        del adj[v]
    return best


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
