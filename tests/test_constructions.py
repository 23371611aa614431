"""Word builders: frozen small outputs, the full in-domain/out-of-domain
sweep over every graph of order at most five, explicit-witness validation,
and cograph words built on vertex sets."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import gnp
from langrep import oracles
from langrep.constructions import (
    BUILDERS,
    CANONICAL_SPECS,
    CLASSES,
    build_circle,
    build_cograph,
    build_comparability,
    build_copy,
    build_copy_complement,
    build_interval,
    build_lyndon,
    build_palindrome,
    build_permutation,
    build_threshold,
    canonical_language,
)
from langrep.errors import BuildError
from langrep.graphs import Graph, complete_graph, cycle_graph, null_graph, path_graph
from langrep.isomorphism import enumerate_graphs
from langrep.languages import parse_language
from langrep.represent import evaluate


C4 = cycle_graph(4).relabel({"v1": "1", "v2": "2", "v3": "3", "v4": "4"})
LYNDON_C4 = (
    "111222333444123412341124113234234223224343433433444444"
)


def test_registry_tables_align():
    assert set(BUILDERS) == set(CANONICAL_SPECS)


def test_class_registry_is_pinned():
    tags = [row.tag for row in CLASSES]
    assert len(tags) == len(set(tags)) == 22
    buildable = {row.tag for row in CLASSES if row.builder}
    assert set(BUILDERS) == set(CANONICAL_SPECS) == buildable == set(tags) - {"co-interval"}
    # the rows whose multiplicities the class-table criterion checks
    assert {row.tag for row in CLASSES if row.multiplicities is not None} == {
        "interval", "permutation", "circle", "co-interval", "bipartite-chain", "convex",
        "threshold", "comparability", "bipartite-lyndon-odd", "cluster", "halfline",
    }


def test_frozen_small_outputs():
    star = Graph("abc", [("a", "c"), ("b", "c")])
    assert "".join(build_threshold(star)) == "aabbc"
    assert "".join(build_threshold(Graph("ab", [("a", "b")]))) == "aab"
    p3 = Graph("abc", [("a", "b"), ("b", "c")])
    assert "".join(build_interval(p3)) == "abacbc"
    k2 = Graph("12", [("1", "2")])
    assert "".join(build_permutation(k2)) == "1221"
    assert "".join(build_comparability(Graph("ab", [("a", "b")]))) == "ababab"
    assert "".join(build_comparability(Graph("ab", []))) == "abbaab"
    assert "".join(build_palindrome(C4)) == "423121123142"
    assert "".join(build_lyndon(C4)) == LYNDON_C4


def test_builders_deterministic():
    for tag in ("palindrome", "copy", "lyndon", "split", "interval"):
        g = path_graph(4)
        first = BUILDERS[tag](g)
        second = BUILDERS[tag](g)
        assert first == second


# each builder's domain: the graphs its class's recognizer accepts
_DOMAINS = {row.tag: row.recognizer for row in CLASSES if row.builder}


def test_domain_table_covers_registry():
    assert set(_DOMAINS) == set(BUILDERS)


@pytest.mark.parametrize("tag", sorted(BUILDERS))
def test_builder_sweep_order_le_5(tag):
    lang = canonical_language(tag)
    domain = _DOMAINS[tag]
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            if domain(g):
                word = BUILDERS[tag](g)
                assert evaluate(word, lang) == g
            else:
                with pytest.raises(BuildError):
                    BUILDERS[tag](g)


def test_out_of_domain_messages():
    p4 = path_graph(4)
    with pytest.raises(BuildError, match="induced P4"):
        BUILDERS["cograph-wrep-like"](p4)
    with pytest.raises(BuildError, match="interval"):
        build_interval(cycle_graph(4))
    with pytest.raises(BuildError, match="split"):
        BUILDERS["split"](cycle_graph(4))
    with pytest.raises(BuildError, match="cluster"):
        BUILDERS["cluster"](path_graph(3))
    with pytest.raises(BuildError, match="comparability"):
        build_comparability(cycle_graph(5))


def test_convex_answers_long_paths_and_cycles_in_bounded_time():
    # C20 is bipartite but not convex: on either side its neighborhoods are
    # the ten pairs of a cycle, which no order makes all consecutive
    t0 = time.process_time()
    with pytest.raises(BuildError, match="convex"):
        BUILDERS["convex"](cycle_graph(20))
    BUILDERS["convex"](path_graph(40))  # self-verified
    assert time.process_time() - t0 < 2


# --- explicit witnesses -----------------------------------------------------


def test_permutation_witness_accepted():
    k2 = Graph("12", [("1", "2")])
    assert "".join(build_permutation(k2, pi=["2", "1"])) == "1221"


def test_permutation_witness_rejected():
    k2 = Graph("12", [("1", "2")])
    with pytest.raises(ValueError):
        build_permutation(k2, pi=["1"])
    with pytest.raises(ValueError):
        build_permutation(k2, pi=["1", "1"])
    # a valid permutation that yields the wrong graph fails verification
    with pytest.raises(BuildError):
        build_permutation(k2, pi=["1", "2"])


def test_circle_witness_accepted():
    w = build_circle(C4, chords=list("14213243"))
    assert evaluate(w, parse_language("<0101>")) == C4


def test_circle_witness_rejected():
    with pytest.raises(ValueError):
        build_circle(C4, chords=list("121324"))  # misses vertex 4
    with pytest.raises(ValueError):
        build_circle(C4, chords=list("11122434"))  # letter 1 three times
    with pytest.raises(BuildError):
        build_circle(C4, chords=list("11223344"))  # valid shape, wrong graph


def test_comparability_witness_accepted():
    chain = Graph("ab", [("a", "b")])
    assert "".join(build_comparability(chain, order=[("a", "b")])) == "ababab"


def test_comparability_witness_rejected():
    p3 = Graph("abc", [("a", "b"), ("b", "c")])
    with pytest.raises(ValueError, match="non-adjacent"):
        build_comparability(p3, order=[("a", "b"), ("b", "c"), ("a", "c")])
    with pytest.raises(ValueError, match="antisymmetric"):
        build_comparability(p3, order=[("a", "b"), ("b", "a"), ("b", "c")])
    with pytest.raises(ValueError, match="transitive"):
        build_comparability(p3, order=[("a", "b"), ("b", "c")])
    k3 = complete_graph(3)
    with pytest.raises(ValueError, match="orient every edge"):
        build_comparability(k3, order=[("v1", "v2")])


def test_comparability_witness_fault_is_named_alike_under_every_hash_seed():
    # the chain order on K6 with v1<v3 and v2<v5 reversed breaks transitivity
    # at several triples; the first in sorted arc order is named
    code = (
        "from langrep.constructions import build_comparability\n"
        "from langrep.graphs import complete_graph\n"
        "g = complete_graph(6)\n"
        "order = [(u, v) for u, v in g.edges if (u, v) not in {('v1', 'v3'), ('v2', 'v5')}]\n"
        "try:\n"
        "    build_comparability(g, order + [('v3', 'v1'), ('v5', 'v2')])\n"
        "except ValueError as e:\n"
        "    print(e)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    messages = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        messages.add(proc.stdout.strip())
    assert messages == {"order is not transitive: v1<v2<v3 but not v1<v3"}


# --- cographs on vertex sets ------------------------------------------------


def _cotree_edges(rng, names):
    """Edges of a random cotree on names: split into 2-4 consecutive parts,
    recurse, then join the parts or leave them apart."""
    if len(names) == 1:
        return []
    k = rng.randint(2, min(4, len(names)))
    cuts = [0] + sorted(rng.sample(range(1, len(names)), k - 1)) + [len(names)]
    parts = [names[a:b] for a, b in zip(cuts, cuts[1:])]
    edges = [e for p in parts for e in _cotree_edges(rng, p)]
    if rng.random() < 0.5:
        edges += [(u, v) for i, p in enumerate(parts) for q in parts[i + 1:] for u in p for v in q]
    return edges


def _seeded_cographs(count=40, top=80):
    rng = random.Random(1411)
    out = []
    for i in range(count):
        n = 1 if i == 0 else top if i == 1 else rng.randint(1, top)
        names = [f"v{j}" for j in range(n)]
        rng.shuffle(names)
        out.append(Graph(names, _cotree_edges(rng, names)))
    return out


# sha256 of the builder's words on _seeded_cographs(), both modes
COGRAPH_WORDS_SHA256 = "9fa02eb22201471c2077accb10b64e0139fdb8219657c701786cebb589af1494"


def test_cograph_words_are_pinned():
    words = [
        list(build_cograph(g, mode))
        for g in _seeded_cographs()
        for mode in ("wrep-like", "containment-like")
    ]
    assert hashlib.sha256(repr(words).encode()).hexdigest() == COGRAPH_WORDS_SHA256


@pytest.mark.parametrize("mode", ["wrep-like", "containment-like"])
def test_cograph_builds_a_cotree_deeper_than_the_recursion_limit(mode):
    # vertices join in turn isolated and universal to those before them: a
    # threshold graph whose cotree is one level deeper per vertex, which
    # the builder walks on an explicit stack.  Splitting a part costs its
    # edges, so the build is cubic in the order here; the limit is lowered
    # to keep the graph small
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        n = sys.getrecursionlimit() + 200
        names = [f"v{i:03d}" for i in range(n)]
        g = Graph(names, [(v, u) for k, v in enumerate(names) if k % 2 for u in names[:k]])
        word = build_cograph(g, mode)
    finally:
        sys.setrecursionlimit(limit)
    assert sorted(word) == sorted(names * 2)


def _seeded_threshold_graph(n, seed):
    """Each vertex, in a seeded order of seeded names, joins isolated or
    universal to those before it."""
    rng = random.Random(seed)
    names = [f"v{i:03d}" for i in range(n)]
    rng.shuffle(names)
    edges = [(v, u) for k, v in enumerate(names) if rng.random() < 0.5 for u in names[:k]]
    return Graph(names, edges)


# sha256 of the creation sequences (None off the class) of every graph of
# order <= 7, and of the sequences and builder words of seeded threshold
# graphs at n = 80 and n = 300
THRESHOLD_SEQUENCES_SHA256 = "7134a4d2fa7b4fe943475bf5109cdce7e55fcd4e5c6acdceb144a2d619c137a2"
THRESHOLD_WORDS_SHA256 = "a864ad86e6c187f79fe637682ad94d346c7f03ad6ce395b63628fef359a454da"


def test_threshold_sequences_and_words_are_pinned():
    seqs = [oracles.threshold_creation_sequence(g) for n in range(1, 8) for g in enumerate_graphs(n)]
    assert sum(s is not None for s in seqs) == 127  # 2^(n-1) classes per order
    assert hashlib.sha256(repr(seqs).encode()).hexdigest() == THRESHOLD_SEQUENCES_SHA256
    rows = []
    for n, seed in [(80, 1), (80, 2), (80, 3), (300, 4), (300, 5)]:
        g = _seeded_threshold_graph(n, seed)
        rows.append((oracles.threshold_creation_sequence(g), list(build_threshold(g))))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == THRESHOLD_WORDS_SHA256


@pytest.mark.parametrize("g", [path_graph(4), cycle_graph(5), path_graph(4).add_isolated("z")],
                         ids=["P4", "C5", "P4+K1"])
@pytest.mark.parametrize("mode", ["wrep-like", "containment-like"])
def test_cograph_rejects_an_induced_p4(g, mode):
    with pytest.raises(BuildError, match="cograph: graph contains an induced P4"):
        build_cograph(g, mode)


@pytest.mark.parametrize("p", [0, 0.3, 1])
@pytest.mark.parametrize("n", [1, 2, 5, 12, 30])
def test_universal_builders_meet_their_length_laws(n, p):
    # the paper's efficiency claim: copy-complement and not(palindrome)
    # words are as long as adjacency lists, Lyndon words as the matrix
    g = gnp(n, p, seed=2900 + n)
    m = g.size
    non_edges = n * (n - 1) // 2 - m
    assert len(build_copy(g)) == 4 * n + 2 * non_edges
    assert len(build_copy_complement(g)) == 4 * n + 2 * m
    assert len(build_palindrome(g)) == 2 * n + 2 * non_edges
    assert len(build_lyndon(g)) == (3 * n * n + 15 * n) // 2
    word = build_palindrome(g.complement())
    assert len(word) == 2 * n + 2 * m
    assert evaluate(word, parse_language("not(palindrome)")) == g


def _palindrome_by_pairs(g):
    # the nested build, one has_edge per pair and one rebuilt word per vertex
    vs = list(g.vertices)
    word = [vs[0], vs[0]]
    for i, v in enumerate(vs[1:], start=1):
        u = [x for x in vs[:i] if not g.has_edge(v, x)]
        word = [v] + u + word + [v] + list(reversed(u))
    return tuple(word)


def _lyndon_by_pairs(g):
    vs = list(g.vertices)
    word = []
    for v in vs:
        word += [v, v, v]
    for i, v in enumerate(vs):
        tail = vs[i:]
        x = [u for u in vs[i + 1:] if g.has_edge(v, u)]
        y = [u for u in vs[i + 1:] if not g.has_edge(v, u)]
        word += tail + tail + [v, v] + x + [v, v] + y
    return tuple(word)


def test_palindrome_and_lyndon_words_match_the_per_pair_builds():
    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    graphs += [gnp(n, p, seed=3500 + n) for n in (12, 30) for p in (0, 0.3, 1)]
    for g in graphs:
        assert build_palindrome(g).letters == _palindrome_by_pairs(g)
        assert build_lyndon(g).letters == _lyndon_by_pairs(g)
