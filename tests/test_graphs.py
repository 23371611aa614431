"""Graph values, text formats, enumeration, isomorphism, and the
recognition oracles cross-checked against one another and against
induced-subgraph scans."""

import copy
import hashlib
import itertools
import math
import pickle
import random
import time

import pytest
from hypothesis import given, settings

from conftest import (
    crown_graph,
    degeneracy,
    gnp,
    graph_from_mask,
    group_order,
    is_automorphism,
    small_graphs,
    symmetric_order_ten,
    treewidth_exact,
    twin_swaps,
)
from langrep import isomorphism, oracles
from langrep.codec import decode, decode_word, encode
from langrep.errors import CapacityError, FormatError
from langrep.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    graph_from_edge_list,
    graph_from_json,
    graph_to_dot,
    graph_to_edge_list,
    graph_to_json,
    null_graph,
    parse_graph,
    path_graph,
)
from langrep.isomorphism import (
    automorphism_count,
    automorphisms,
    distinct_labelings,
    enumerate_graphs,
    isomorphic,
)
from langrep.languages import parse_language
from langrep.represent import evaluate


def test_graph_basics():
    g = Graph("abc", [("a", "b")])
    assert g.order == 3 and g.size == 1
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert not g.has_edge("a", "c")
    assert g.neighbors("a") == frozenset({"b"})
    assert g.degree("c") == 0
    assert list(g.isolated_vertices()) == ["c"]


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph([], [])
    with pytest.raises(ValueError):
        Graph("ab", [("a", "a")])  # loop
    with pytest.raises(ValueError):
        Graph("ab", [("a", "z")])  # unknown endpoint
    # vertex collections are read as sets
    assert Graph(["a", "a"], []).order == 1


def test_graph_reports_its_first_bad_edge_in_input_order():
    with pytest.raises(ValueError, match="'z' not a vertex"):
        Graph("abc", [("a", "b"), ("a", "z"), ("c", "c")])
    with pytest.raises(ValueError, match="loop at 'c'"):
        Graph("abc", [("a", "b"), ("c", "c"), ("a", "z")])
    # a loop at an unknown vertex is reported as the unknown endpoint
    with pytest.raises(ValueError, match="not a vertex"):
        Graph("abc", [("z", "z")])


def test_graph_checks_every_token_before_any_edge():
    with pytest.raises(FormatError, match="invalid vertex token 'b c'"):
        Graph(["a", "b c"], [("a", "z"), ("a", "a")])
    with pytest.raises(FormatError, match="invalid vertex token ''"):
        Graph(["a", ""], [("a", "a")])


def test_graph_collapses_repeated_and_reversed_edges():
    g = Graph("abc", [("b", "a"), ("a", "b"), ("b", "a"), ("c", "b")])
    assert g.edges == frozenset({("a", "b"), ("b", "c")})
    assert g.size == 2 and g.neighbors("b") == frozenset("ac")
    assert g == Graph("cba", [("a", "b"), ("b", "c")])


def test_graph_rejects_a_non_string_vertex_with_type_error():
    with pytest.raises(TypeError):
        Graph([5])


def test_graph_equality_is_labeled():
    assert Graph("ab", [("a", "b")]) == Graph(["b", "a"], [("b", "a")])
    assert Graph("ab", []) != Graph("ac", [])
    assert Graph("ab", []) != Graph("ab", [("a", "b")])


def test_complement_induced():
    p3 = path_graph(3)
    assert p3.complement().size == 1
    assert p3.complement().complement() == p3
    sub = cycle_graph(4).induced(["v1", "v2", "v3"])
    assert sub == path_graph(3)


def _fields(g):
    return g.vertices, g.edges, g._adj, hash(g)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_complement_and_induced_equal_the_validating_constructor(n):
    rng = random.Random(n)
    for g in enumerate_graphs(n):
        vs = g.vertices
        missing = [(u, v) for u, v in itertools.combinations(vs, 2) if not g.has_edge(u, v)]
        assert _fields(g.complement()) == _fields(Graph(vs, missing))
        for keep in [vs, vs[:1]] + [rng.sample(vs, rng.randint(1, n)) for _ in range(3)]:
            kept = [(u, v) for u, v in g.edges if u in keep and v in keep]
            assert _fields(g.induced(keep)) == _fields(Graph(keep, kept))


def test_induced_rejects_unknown_and_empty_vertex_sets():
    with pytest.raises(ValueError, match="unknown vertices"):
        path_graph(3).induced(["v1", "x"])
    with pytest.raises(ValueError, match="at least one vertex"):
        path_graph(3).induced([])


def _unbuilt(g):
    """Whether g's adjacency slot is still unset."""
    try:
        Graph._adj.__get__(g)
    except AttributeError:
        return True
    return False


def _lazy_cases():
    """Each graph of order <= 5 and three seeded ones of order 30, made by
    every maker of a Graph, paired with its eager adjacency read straight
    from the edge set."""
    copy_lang = parse_language("copy")
    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    graphs += [gnp(30, p, seed) for seed, p in enumerate([0.1, 0.3, 0.6])]
    for g in graphs:
        vs, es = g.vertices, g.edges
        eager = {v: frozenset(w for w in vs if (min(v, w), max(v, w)) in es) for v in vs}
        co = [(u, v) for u, v in itertools.combinations(vs, 2) if (u, v) not in es]
        made = {
            "Graph": Graph(vs, es),
            "_frozen": Graph._frozen(vs, es),
            "decode": decode(encode(g)),
            "evaluate": evaluate(decode_word(encode(g, "dense")), copy_lang),
            "complement": Graph(vs, co).complement(),
            "induced": g.induced(vs),
        }
        yield eager, made


def test_lazy_adjacency_answers_like_an_eager_copy():
    for eager, made in _lazy_cases():
        vs = tuple(eager)
        isolated = tuple(v for v in vs if not eager[v])
        for how, h in made.items():
            assert _unbuilt(h), how
            assert h.vertices == vs, how
            for u in vs:
                for v in vs:
                    assert h.has_edge(u, v) is (v in eager[u]), how
                assert h.neighbors(u) == eager[u], how
                assert h.degree(u) == len(eager[u]), how
            assert h.isolated_vertices() == isolated, how
            assert not _unbuilt(h) and h._adj == eager, how


def test_equality_and_hash_do_not_depend_on_the_adjacency():
    g = gnp(12, 0.4, 7)
    blob = encode(g)
    fresh, built = decode(blob), decode(blob)
    built.degree(g.vertices[0])
    assert _unbuilt(fresh) and not _unbuilt(built)
    assert fresh == built == g and built == fresh
    assert hash(fresh) == hash(built) == hash(g)
    assert len({fresh, built, g}) == 1
    assert _unbuilt(fresh)


def test_vertex_tests_do_not_build_the_adjacency():
    g = decode(encode(path_graph(4)))
    sub = g.induced(["v1", "v2", "v4"])
    with pytest.raises(ValueError, match="unknown vertices"):
        g.induced(["v1", "x"])
    for add in (g.add_isolated, g.add_universal):
        with pytest.raises(ValueError, match="already present"):
            add("v2")
    assert g.add_isolated("w").degree("w") == 0
    assert g.add_universal("w").degree("w") == 4
    assert _unbuilt(g) and _unbuilt(sub)
    assert sub == Graph(["v1", "v2", "v4"], [("v1", "v2")])


def test_unknown_attributes_still_raise():
    g = decode(encode(path_graph(3)))
    for built in (False, True):
        assert _unbuilt(g) is not built and isinstance(g, Graph)
        with pytest.raises(AttributeError, match="'Graph' object has no attribute 'adj'") as err:
            g.adj
        assert err.value.name == "adj" and err.value.obj is g
        assert getattr(g, "nope", None) is None and not hasattr(g, "_adjacency")
        with pytest.raises(AttributeError, match="immutable"):
            g._adj = {}
        assert hasattr(g, "_adj") and type(g) is Graph


@pytest.mark.parametrize("built", [False, True])
def test_pickle_and_copy_keep_the_graph(built):
    g = gnp(9, 0.4, 3)
    if built:
        g.degree(g.vertices[0])
    assert _unbuilt(g) is not built
    u, v = min(g.edges)
    for copied in (
        pickle.loads(pickle.dumps(g)),
        pickle.loads(pickle.dumps(g, protocol=0)),
        copy.copy(g),
        copy.deepcopy(g),
    ):
        assert copied == g and hash(copied) == hash(g)
        with pytest.raises(AttributeError, match="immutable"):
            copied.edges = frozenset()
        assert copied.has_edge(u, v) and not copied.has_edge(u, u)
        assert copied.neighbors(u) == g.neighbors(u)


def test_relabel_and_twins():
    g = cycle_graph(3).relabel({"v1": "x", "v2": "y", "v3": "z"})
    assert set(g.vertices) == {"x", "y", "z"} and g.size == 3
    t = path_graph(2).add_twin("v1", "w", true_twin=True)
    assert t.has_edge("v1", "w") and t.has_edge("w", "v2")
    f = path_graph(2).add_twin("v1", "w", true_twin=False)
    assert not f.has_edge("v1", "w") and f.has_edge("w", "v2")
    assert path_graph(2).add_isolated("w").degree("w") == 0
    assert path_graph(2).add_universal("w").degree("w") == 2


def test_relabel_refuses_a_mapping_that_is_not_a_bijection():
    c4 = cycle_graph(4)
    with pytest.raises(ValueError, match="^relabel mapping sends 'v1' and 'v3' both to 'a'$"):
        c4.relabel({"v1": "a", "v2": "b", "v3": "a", "v4": "d"})
    with pytest.raises(ValueError, match="^relabel mapping misses vertex 'v2'$"):
        c4.relabel({"v1": "a"})
    # a permutation of the vertices, as distinct_labelings passes, is kept
    swapped = c4.relabel({"v1": "v2", "v2": "v1", "v3": "v3", "v4": "v4"})
    assert swapped.edges == {("v1", "v3"), ("v1", "v2"), ("v2", "v4"), ("v3", "v4")}


def test_families():
    assert null_graph(4).size == 0
    assert complete_graph(5).size == 10
    assert path_graph(5).size == 4
    assert cycle_graph(5).size == 5
    assert complete_bipartite(2, 3).size == 6


def test_text_formats_round_trip():
    g = Graph(["a", "b", "lonely"], [("a", "b")])
    assert graph_from_json(graph_to_json(g)) == g
    assert graph_from_edge_list(graph_to_edge_list(g)) == g
    assert parse_graph(graph_to_json(g)) == g
    assert parse_graph(graph_to_edge_list(g)) == g
    dot = graph_to_dot(g)
    assert '"a" -- "b"' in dot and '"lonely"' in dot


def test_edge_list_isolate_lines():
    text = "3 1\nv: c\na b\n"
    g = graph_from_edge_list(text)
    assert g == Graph(["a", "b", "c"], [("a", "b")])


def test_format_errors():
    with pytest.raises(FormatError):
        graph_from_edge_list("")
    with pytest.raises(FormatError):
        graph_from_edge_list("2 1\na b c\n")
    with pytest.raises(FormatError):
        graph_from_json("{\"nodes\": 3}")
    with pytest.raises(FormatError):
        parse_graph("")


# JSON whose "edges" is no list, or holds an endpoint that is no string
BAD_EDGE_JSON = [
    ('{"vertices": ["a", "b"], "edges": 5}', "^'edges' must be a list of vertex pairs$"),
    ('{"vertices": ["a", "b"], "edges": null}', "^'edges' must be a list of vertex pairs$"),
    ('{"vertices": ["a", "b"], "edges": [["a", ["b"]]]}', r"^bad edge entry \['a', \['b'\]\]$"),
    ('{"vertices": ["a", "b"], "edges": [["a", 2]]}', r"^bad edge entry \['a', 2\]$"),
]


def test_graph_json_with_malformed_edges_is_a_format_error():
    for text, message in BAD_EDGE_JSON:
        with pytest.raises(FormatError, match=message):
            parse_graph(text)


def test_a_looped_graph_is_a_format_error_in_both_text_forms():
    for text in ("1 1\na a", '{"vertices": ["a"], "edges": [["a", "a"]]}'):
        with pytest.raises(FormatError, match="^loop at 'a'$"):
            parse_graph(text)


@given(small_graphs())
@settings(max_examples=60)
def test_complement_involution(g):
    assert g.complement().complement() == g


@given(small_graphs())
@settings(max_examples=60)
def test_complement_edge_count(g):
    n = g.order
    assert g.size + g.complement().size == n * (n - 1) // 2


# --- enumeration and isomorphism --------------------------------------------


def test_enumeration_counts_small():
    assert [len(enumerate_graphs(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]


# sha256 prefixes of [(g.vertices, sorted(g.edges)) for g in enumerate_graphs(n)]
# for n = 1..7: the class-table, codec and builder tests iterate these graphs
ENUM_DIGESTS = [
    "8b37cb03e527d9c6", "e17e1d7844939417", "68b42131dfda986a", "4c779957cfc16b20",
    "38d2021d3e3425f4", "45879f6f568495f5", "f300e3629c2400cd",
]


def test_enumeration_representatives_are_pinned():
    for n, prefix in enumerate(ENUM_DIGESTS, 1):
        reps = [(g.vertices, sorted(g.edges)) for g in enumerate_graphs(n)]
        assert hashlib.sha256(repr(reps).encode()).hexdigest().startswith(prefix), n


def test_enumeration_is_pairwise_nonisomorphic():
    for n in range(1, 7):
        forms = {isomorphism._canon(isomorphism._masks(g))[0] for g in enumerate_graphs(n)}
        assert len(forms) == len(enumerate_graphs(n)), n


def test_enumeration_covers_every_labeled_graph():
    reps = enumerate_graphs(3)
    for mask in range(8):
        g = graph_from_mask(3, mask)
        assert any(isomorphic(g, r) is not None for r in reps)


def test_isomorphic_mapping_is_valid():
    g = cycle_graph(4)
    h = g.relabel({"v1": "d", "v2": "a", "v3": "b", "v4": "c"})
    mapping = isomorphic(g, h)
    assert mapping is not None
    for u, v in itertools.combinations(g.vertices, 2):
        assert g.has_edge(u, v) == h.has_edge(mapping[u], mapping[v])


def test_isomorphic_distinguishes_regular_pairs():
    c6 = cycle_graph(6)
    two_triangles = Graph(
        ["v1", "v2", "v3", "w1", "w2", "w3"],
        [("v1", "v2"), ("v2", "v3"), ("v1", "v3"), ("w1", "w2"), ("w2", "w3"), ("w1", "w3")],
    )
    # both 2-regular on six vertices
    assert isomorphic(c6, two_triangles) is None


def test_automorphism_counts():
    assert automorphism_count(cycle_graph(4)) == 8
    assert automorphism_count(complete_graph(4)) == 24
    assert automorphism_count(path_graph(3)) == 2
    assert automorphism_count(null_graph(3)) == 6
    named = symmetric_order_ten()
    for name in ("K10", "5K2", "Petersen"):
        g, count = named[name]
        assert automorphism_count(g) == count, name
    with pytest.raises(CapacityError):
        automorphism_count(path_graph(11))


def test_symmetric_order_ten_stays_fast():
    # an exponential regression in the canonical-labeling search fails here
    rng = random.Random(10)
    t0 = time.monotonic()
    for name, (g, count) in symmetric_order_ten().items():
        names = list(g.vertices)
        rng.shuffle(names)
        assert isomorphic(g, g.relabel(dict(zip(g.vertices, names)))) is not None, name
        assert automorphism_count(g) == count, name
    assert time.monotonic() - t0 < 5.0


def test_automorphisms_with_twin_swaps_generate_the_group():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            maps = automorphisms(g)
            assert all(is_automorphism(g, sigma) for sigma in maps), g
            assert group_order(maps + twin_swaps(g), n) == automorphism_count(g), g


def test_automorphisms_at_order_7():
    # in two of these graphs the canonical search meets a leaf equal to its
    # best form so far before a greater one, whose map is then dropped
    for g in enumerate_graphs(7):
        assert all(is_automorphism(g, sigma) for sigma in automorphisms(g)), g


def test_automorphisms_at_order_ten():
    graphs = {
        "C10": (cycle_graph(10), 20),
        "Petersen": symmetric_order_ten()["Petersen"],
        "crown": (crown_graph(5), 240),
    }
    for name, (g, count) in graphs.items():
        t0 = time.perf_counter()
        maps = automorphisms(g)
        assert time.perf_counter() - t0 < 1.0, name
        assert maps and all(is_automorphism(g, sigma) for sigma in maps), name
        assert group_order(maps + twin_swaps(g), 10) == count, name
    with pytest.raises(CapacityError):
        automorphisms(path_graph(11))


def test_automorphisms_skip_the_canonical_search_when_twins_suffice(monkeypatch):
    # 96 of the 156 graphs of order 6 have only twin swaps for automorphisms;
    # each is seen in its first refinement, before any canonical search
    graphs = enumerate_graphs(6)
    searched = []
    canon = isomorphism._canon
    monkeypatch.setattr(
        isomorphism, "_canon", lambda adj, cells=None: searched.append(adj) or canon(adj, cells)
    )
    empty = sum(automorphisms(g) == [] for g in graphs)
    assert (len(graphs), empty, len(searched)) == (156, 96, 60)


def _orbit_minima_mismatches(generators_of):
    """The graphs of order <= 6 whose neighbourhood masks _orbit_minima
    splits, given generators_of(g, adj), otherwise than Aut(g) does, with
    Aut(g) found by trying all n! permutations."""
    mismatches = []
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            adj = isomorphism._masks(g)
            edges = {(a, b) for a in range(n) for b in range(n) if adj[a] >> b & 1}
            group = [p for p in itertools.permutations(range(n))
                     if all((p[a], p[b]) in edges for a, b in edges)]
            minima = sorted({
                min(sum(1 << p[j] for j in range(n) if mask >> j & 1) for p in group)
                for mask in range(1 << n)
            })
            if isomorphism._orbit_minima(n, generators_of(g, adj)) != minima:
                mismatches.append(g)
    return mismatches


def _generators(g, adj):
    return automorphisms(g) + isomorphism._twin_swaps(adj)


def test_orbit_minima_are_those_of_the_automorphism_group():
    assert _orbit_minima_mismatches(_generators) == []


def test_orbit_minima_check_fails_on_a_non_automorphism():
    # swapping two vertices that are not twins is no automorphism; one such
    # generator merges orbits, which the brute-force check must see
    def with_a_wrong_swap(g, adj):
        n = len(adj)
        pairs = [(a, b) for a, b in itertools.combinations(range(n), 2)
                 if adj[a] & ~(1 << b) != adj[b] & ~(1 << a)]
        if not pairs:
            return _generators(g, adj)
        sigma = list(range(n))
        a, b = pairs[0]
        sigma[a], sigma[b] = b, a
        return _generators(g, adj) + [sigma]

    assert len(_orbit_minima_mismatches(with_a_wrong_swap)) > 0


def test_enumeration_canonicalizes_one_neighbourhood_per_orbit(monkeypatch):
    # from an empty cache: the augmentations refined at orders 5, 6 and 7,
    # then the _canon calls on n vertices and in all, counting those of
    # automorphisms on the parents.  Every neighbourhood: 176, 1088 and 9984
    # augmentations; one per orbit: 90, 544 and 5096; one per orbit whose
    # new vertex has maximum degree: the refined counts below.  Of these,
    # only those whose quotient another one shares are canonicalized.
    monkeypatch.setattr(isomorphism, "_ENUM_CACHE", {})
    canon, equitable = isomorphism._canon, isomorphism._equitable
    refined = []
    calls = []
    monkeypatch.setattr(
        isomorphism, "_equitable", lambda adj: refined.append(len(adj)) or equitable(adj)
    )
    monkeypatch.setattr(
        isomorphism, "_canon", lambda adj, cells=None: calls.append(len(adj)) or canon(adj, cells)
    )
    counts = []
    for n in (5, 6, 7):
        enumerate_graphs(n - 1)
        refined.clear()
        calls.clear()
        enumerate_graphs(n)
        counts.append((refined.count(n), calls.count(n), len(calls)))
    assert counts == [(37, 6, 9), (184, 61, 71), (1401, 677, 737)]


def test_enumeration_skips_only_augmentations_whose_form_is_kept(monkeypatch):
    # from an empty cache, up to order 6: an augmentation whose new vertex
    # is not of maximum degree is skipped before it is refined, and its form
    # must be that of a representative kept from an earlier parent
    monkeypatch.setattr(isomorphism, "_ENUM_CACHE", {})
    canon, equitable = isomorphism._canon, isomorphism._equitable
    automorphisms_of, orbit_minima = isomorphism.automorphisms, isomorphism._orbit_minima
    refined = []
    parent = []
    skipped = []

    def traced_automorphisms(g):
        parent[:] = [g]
        return automorphisms_of(g)

    def traced_orbit_minima(k, generators):
        g = parent[0]
        base = isomorphism._masks(g)
        for bits in orbit_minima(k, generators):
            before = len(refined)
            yield bits
            if len(refined) == before:
                adj = [m | (bits >> i & 1) << k for i, m in enumerate(base)] + [bits]
                skipped.append((k + 1, g, canon(adj)[0]))

    monkeypatch.setattr(
        isomorphism, "_equitable", lambda adj: refined.append(adj) or equitable(adj)
    )
    monkeypatch.setattr(isomorphism, "automorphisms", traced_automorphisms)
    monkeypatch.setattr(isomorphism, "_orbit_minima", traced_orbit_minima)
    enumerate_graphs(6)
    # each representative's parent is the representative it loses its last
    # vertex to; a skip's form must be among those kept from parents before its own
    kept = {}
    for n in range(2, 7):
        parents = enumerate_graphs(n - 1)
        kept[n] = [(parents.index(g.induced(g.vertices[:-1])), canon(isomorphism._masks(g))[0])
                   for g in enumerate_graphs(n)]
    for n, g, form in skipped:
        before = enumerate_graphs(n - 1).index(g)
        assert any(p < before and f == form for p, f in kept[n]), (n, g)
    # the skips at orders 5 and 6 are the drops of the count test above
    assert [sum(n == order for n, _, _ in skipped) for order in (5, 6)] == [90 - 37, 544 - 184]


def test_equitable_is_the_refinement_of_the_unit_partition():
    # on seeded random graphs, the refinement started from the degree cells
    # is the unit partition's.  With one vertex v individualized, before any
    # refinement ([v] and the rest) or in the degree-start refinement, the
    # two refine to the same cells, up to their order: both are the
    # coarsest equitable partition with v alone in its cell
    refine, equitable = isomorphism._refine, isomorphism._equitable
    for seed in range(300):
        n = 1 + seed % 10
        adj = isomorphism._masks(gnp(n, (seed % 7 + 1) / 8, seed))
        cells = equitable(adj)
        assert cells == refine(adj, [list(range(n))]), seed
        for v in range(n):
            before = refine(adj, [[v], [u for u in range(n) if u != v]])
            after = refine(adj, [[u for u in c if u != v] for c in cells if c != [v]] + [[v]])
            assert sorted(map(sorted, before)) == sorted(map(sorted, after)), (seed, v)


def test_quotient_is_unchanged_under_relabeling():
    rng = random.Random(34)
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            names = list(g.vertices)
            rng.shuffle(names)
            quotients = []
            for h in (g, g.relabel(dict(zip(g.vertices, names)))):
                adj = isomorphism._masks(h)
                quotients.append(isomorphism._quotient(adj, isomorphism._equitable(adj)))
            assert quotients[0] == quotients[1], g


def test_representatives_are_the_graphs_the_constructor_makes():
    # they are frozen without the constructor's checks
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            assert g == Graph(g.vertices, g.edges) and g.vertices == tuple(sorted(g.vertices)), g


def test_cold_enumeration_at_order_7_stays_fast(monkeypatch):
    # 0.07 s of CPU measured cold on a 2-core x86-64 host (0.09 s when every
    # augmentation of maximum new degree was canonicalized); the counts above
    # pin the work, this bound a blowup
    monkeypatch.setattr(isomorphism, "_ENUM_CACHE", {})
    start = time.process_time()
    assert len(enumerate_graphs(7)) == 1044
    assert time.process_time() - start < 1.0


def test_distinct_labelings_count():
    for g in enumerate_graphs(4):
        labelings = list(distinct_labelings(g))
        assert len(labelings) == math.factorial(4) // automorphism_count(g)
        seen = {tuple(sorted(h.edges)) for h, _ in labelings}
        assert len(seen) == len(labelings)


# --- recognition oracles ----------------------------------------------------


def _has_induced(g, pattern):
    for sub in itertools.combinations(g.vertices, pattern.order):
        if isomorphic(g.induced(sub), pattern) is not None:
            return True
    return False


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_forbidden_subgraph_characterizations(n):
    p3, p4 = path_graph(3), path_graph(4)
    two_k2 = Graph("abcd", [("a", "b"), ("c", "d")])
    for g in enumerate_graphs(n):
        assert oracles.is_cluster(g) == (not _has_induced(g, p3))
        assert oracles.is_cograph(g) == (not _has_induced(g, p4))
        if oracles.is_bipartite(g):
            assert oracles.is_bipartite_chain(g) == (not _has_induced(g, two_k2))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_oracle_intersection_identities(n):
    for g in enumerate_graphs(n):
        gc = g.complement()
        assert oracles.is_split(g) == (
            oracles.is_chordal(g) and oracles.is_chordal(gc)
        )
        assert oracles.is_threshold(g) == (
            oracles.is_split(g) and oracles.is_cograph(g)
        )
        assert oracles.is_permutation(g) == (_brute_force_permutation_diagram(g) is not None)
        assert oracles.is_interval(g) == (
            oracles.is_chordal(g) and oracles.is_cocomparability(g)
        )
        assert oracles.is_cobipartite(g) == oracles.is_bipartite(gc)
        assert oracles.is_co_interval(g) == oracles.is_interval(gc)
        assert oracles.is_comparability(g) == oracles.is_cocomparability(gc)


def _brute_force_permutation_diagram(g):
    """The reference: a pair of linear orders (top, bottom) whose inversions
    are exactly the edges, found by trying every top order, or None."""
    vs = g.vertices
    for top in itertools.permutations(vs):
        pos = {v: i for i, v in enumerate(top)}
        # the bottom order is forced pairwise; it exists iff the forced
        # tournament is transitive, i.e. its out-degrees are all distinct
        wins = {v: 0 for v in vs}
        for u, v in itertools.combinations(vs, 2):
            before = u if pos[u] < pos[v] else v
            after = v if before is u else u
            if g.has_edge(u, v):
                wins[after] += 1  # order flipped on the bottom line
            else:
                wins[before] += 1
        if len(set(wins.values())) == len(vs):
            bottom = sorted(vs, key=lambda v: -wins[v])
            return list(top), bottom
    return None


def _rescanning_transitive_orientation(g):
    """The reference: after each added arc the closure looks at every pair
    of arcs again."""
    edges = sorted(g.edges)

    def closure(arcs):
        arcs = set(arcs)
        changed = True
        while changed:
            changed = False
            for (a, b), (c, d) in itertools.product(list(arcs), repeat=2):
                if b == c and a != d:
                    if not g.has_edge(a, d):
                        return None
                    if (d, a) in arcs:
                        return None
                    if (a, d) not in arcs:
                        arcs.add((a, d))
                        changed = True
        return arcs

    def rec(arcs, idx):
        while idx < len(edges):
            u, v = edges[idx]
            if (u, v) in arcs or (v, u) in arcs:
                idx += 1
                continue
            for arc in ((u, v), (v, u)):
                closed = closure(arcs | {arc})
                if closed is not None:
                    got = rec(closed, idx + 1)
                    if got is not None:
                        return got
            return None
        return arcs

    return rec(set(), 0)


def test_permutation_graphs_at_order_7():
    assert sum(map(oracles.is_permutation, enumerate_graphs(7))) == 776


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_transitive_orientation_matches_the_rescanning_closure(n):
    for g in enumerate_graphs(n):
        for h in (g, g.complement()):
            got = oracles.transitive_orientation(h)
            assert got == _rescanning_transitive_orientation(h)
            if got is not None:
                assert {frozenset(arc) for arc in got} == {frozenset(e) for e in h.edges}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_halfline_matches_chordal_cobipartite(n):
    # the halfline oracle covers graphs without isolated vertices
    for g in enumerate_graphs(n):
        if any(True for _ in g.isolated_vertices()):
            continue
        assert oracles.is_halfline(g) == (
            oracles.is_chordal(g) and oracles.is_cobipartite(g)
        )


def test_named_class_spot_cases():
    assert oracles.is_interval(path_graph(4))
    assert not oracles.is_interval(cycle_graph(4))
    assert oracles.is_circle(cycle_graph(4))
    assert not oracles.is_circle(cycle_graph(5).add_universal("hub"))
    assert oracles.is_comparability(cycle_graph(6))
    assert not oracles.is_comparability(cycle_graph(5))
    assert oracles.is_threshold(Graph("abc", [("a", "c"), ("b", "c")]))
    assert not oracles.is_threshold(path_graph(4))
    assert oracles.is_convex(complete_bipartite(2, 3))
    assert oracles.is_interval_bigraph(path_graph(5))


# --- width measures ---------------------------------------------------------


def _ref_treewidth(g):
    """Minimum over all elimination orders of the maximum back-degree."""
    best = g.order - 1
    for perm in itertools.permutations(g.vertices):
        adj = {v: set(g.neighbors(v)) for v in g.vertices}
        width = 0
        for v in perm:
            nbrs = adj.pop(v)
            width = max(width, len(nbrs))
            if width >= best:
                break
            for a in nbrs:
                adj[a].discard(v)
                adj[a].update(nbrs - {a})
        best = min(best, width)
    return best


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_treewidth_against_elimination_reference(n):
    for g in enumerate_graphs(n):
        assert treewidth_exact(g) == _ref_treewidth(g)


def test_treewidth_known_values():
    assert treewidth_exact(complete_graph(5)) == 4
    assert treewidth_exact(path_graph(5)) == 1
    assert treewidth_exact(cycle_graph(5)) == 2
    assert treewidth_exact(complete_bipartite(3, 3)) == 3
    assert treewidth_exact(null_graph(3)) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_degeneracy_bounded_by_treewidth(n):
    for g in enumerate_graphs(n):
        assert degeneracy(g) <= treewidth_exact(g)


def test_degeneracy_known_values():
    assert degeneracy(complete_graph(4)) == 3
    assert degeneracy(path_graph(5)) == 1
    assert degeneracy(cycle_graph(6)) == 2
    assert degeneracy(complete_bipartite(2, 5)) == 2
