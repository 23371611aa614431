"""Evaluation, verification, bounded search, and frequentness-pair
decomposition.  Search completeness is cross-checked against a raw
enumeration of all candidate words on small instances."""

import hashlib
import itertools
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_binary_words, filter_project, gnp, graph_from_mask
from langrep import automata, languages, represent, words
from langrep.codec import copy_word
from langrep.automata import Dfa
from langrep.constructions import CANONICAL_SPECS, CLASSES, build_cograph
from langrep.errors import CapacityError, NotSymmetricError
from langrep.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    null_graph,
    path_graph,
)
from langrep.grammar import Cfg
from langrep.isomorphism import enumerate_graphs
from langrep.languages import Language, parse_language
from langrep.represent import (
    _normalize_bounds,
    _twin_predecessors,
    _verdicts,
    check,
    decompose,
    evaluate,
    pair_nonempty,
    search,
)
from langrep.words import VertexWord


FIG_WORD = VertexWord.parse("14213243")


def test_evaluate_alternating_pairs():
    g = evaluate(FIG_WORD, parse_language("<0101>"))
    assert g == Graph(
        "1234", [("1", "2"), ("1", "4"), ("2", "3"), ("3", "4")]
    )


def test_evaluate_blocks_pair():
    g = evaluate(FIG_WORD, parse_language("<0011>"))
    assert g == Graph("1234", [("1", "3")])


def test_evaluate_two_pair_union():
    g = evaluate(FIG_WORD, parse_language("<0011,0110>"))
    assert g == Graph("1234", [("1", "3"), ("2", "4")])


def test_evaluate_single_letter_word():
    g = evaluate(VertexWord(["a", "a", "a"]), parse_language("<01>"))
    assert g == Graph("a", [])


def test_evaluate_requires_symmetric():
    with pytest.raises(NotSymmetricError):
        evaluate(VertexWord.parse("ab"), parse_language("re:0*"))


def _ref_evaluate(word, lang):
    vs = sorted(set(word.letters))
    edges = [
        (u, v)
        for u, v in itertools.combinations(vs, 2)
        if lang.contains(filter_project(word.letters, u, v))
    ]
    return Graph(vs, edges)


_POOL = [
    "<01>",
    "<0011>",
    "<0101>",
    "<0101,0110>",
    "wrep",
    "palindrome",
    "dyck",
    "lyndon",
    "copy",
    "not(copy)",
    "halfline",
    "<0110>",
]


@st.composite
def words_over(draw, alphabet="abcdef", max_len=30):
    letters = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=max_len))
    return VertexWord(letters)


@given(words_over(), st.sampled_from(_POOL))
@settings(max_examples=150)
def test_evaluate_matches_reference(word, spec):
    lang = parse_language(spec)
    assert evaluate(word, lang) == _ref_evaluate(word, lang)


@pytest.mark.parametrize("length", [9, 10, 99, 100, 999, 1000])
def test_evaluate_across_tag_width_boundaries(length):
    rng = random.Random(length)
    tokens = ["a", "v1", "v10", "bb", "q"]
    word = VertexWord(tokens + [rng.choice(tokens) for _ in range(length - len(tokens))])
    for spec in _POOL:
        lang = parse_language(spec)
        assert evaluate(word, lang) == _ref_evaluate(word, lang), spec


def _row_calls(word, stop=None):
    """The membership queries of a row-by-row walk: each row's distinct
    projections in the order they first occur, up to the first stop."""
    calls = []
    vs = sorted(word.alphabet())
    for i, u in enumerate(vs):
        row = [filter_project(word.letters, u, v) for v in vs[i + 1:]]
        for b in dict.fromkeys(row):
            calls.append(b)
            if b == stop:
                return calls
    return calls


def _spied(lang, calls, stop=None):
    inner = lang.contains

    def contains(b):
        calls.append(b)
        if b == stop:
            raise RuntimeError(b)
        return inner(b)

    lang.contains = contains


_ROW_WORDS = [
    FIG_WORD,
    VertexWord.parse("abcdabcd"),
    VertexWord(copy_word(gnp(12, 0.3, 5))),
    VertexWord(random.Random(7).choices("abcdefgh", k=200)),
    build_cograph(complete_bipartite(5, 6)),  # 55 pairs, 16 distinct in their rows
]


@pytest.mark.parametrize("word", _ROW_WORDS, ids=range(len(_ROW_WORDS)))
def test_evaluate_tests_each_distinct_projection_once_per_row(word):
    lang = parse_language("copy")
    calls = []
    _spied(lang, calls)
    assert evaluate(word, lang) == _ref_evaluate(word, parse_language("copy"))
    assert calls == _row_calls(word)


@pytest.mark.parametrize("word", _ROW_WORDS, ids=range(len(_ROW_WORDS)))
def test_evaluate_raises_at_the_first_pair_whose_projection_raises(word):
    # the last pair's projection; the walk stops where it first occurs
    vs = sorted(word.alphabet())
    stop = filter_project(word.letters, vs[-2], vs[-1])
    lang = parse_language("copy")
    calls = []
    _spied(lang, calls, stop)
    with pytest.raises(RuntimeError):
        evaluate(word, lang)
    assert calls == _row_calls(word, stop)


# --- the Dfa path of evaluate -------------------------------------------------

# every spec here has a Dfa form of at most 256 states, so evaluate steps all
# pair runs at once: the Dfa-form rows of CANONICAL_SPECS, regular builtins,
# a finite trie and a regular expression
_DFA_SPECS = sorted(
    {spec for spec in CANONICAL_SPECS.values() if isinstance(parse_language(spec).form, Dfa)}
    | {"wrep", "k11(3)", "uniform(2)", "halfline", "re:((0|1)(0|1))*"}
)


def _projected(lang):
    """lang's membership with no form, so evaluate projects every pair."""
    return Language(None, f"projected {lang.label}", member=lang.contains, symmetric=True)


def _seeded_words(seed, count=40):
    """Words over 1-12 letters, some letters occurring once."""
    rng = random.Random(seed)
    words = [VertexWord(["a"]), VertexWord(["a", "b"]), VertexWord(["b", "a", "b"])]
    for _ in range(count):
        alphabet = [f"v{i}" for i in range(rng.randint(1, 12))]
        letters = [rng.choice(alphabet) for _ in range(rng.randint(1, 40))]
        words.append(VertexWord(letters + rng.sample(alphabet, rng.randint(0, len(alphabet)))))
    return words


@pytest.mark.parametrize("spec", _DFA_SPECS)
def test_evaluate_dfa_path_equals_the_projection_path(spec):
    lang = parse_language(spec)
    assert isinstance(lang.form, Dfa) and len(lang.form) <= 256
    projected = _projected(lang)
    for word in _seeded_words(len(spec)):
        assert evaluate(word, lang) == evaluate(word, projected), word


def test_evaluate_on_a_dfa_form_makes_no_membership_calls():
    lang = parse_language("<0110>")
    calls = []
    member = lang._member
    lang._member = lambda b: calls.append(b) or member(b)
    words = _seeded_words(3)
    graphs = [evaluate(w, lang) for w in words]
    assert calls == [] and any(g.size for g in graphs)
    # the formless twin goes through the same wrapped membership test
    assert [evaluate(w, _projected(lang)) for w in words] == graphs and calls


@pytest.mark.parametrize("cap", [1, 5, 24])
def test_evaluate_in_row_bands_of_a_small_cap(monkeypatch, cap):
    # a small cap splits the pair states into bands of one or a few rows,
    # and sends an order above it through the projections
    words = _seeded_words(cap)
    for spec in ("<0101>", "<01,001>", "wrep"):
        lang = parse_language(spec)
        expected = [evaluate(w, lang) for w in words]
        monkeypatch.setattr(represent, "_PAIR_STATE_CAP", cap)
        assert [evaluate(w, lang) for w in words] == expected, spec
        assert [evaluate(w, lang) for w in words] == [_ref_evaluate(w, lang) for w in words]
        monkeypatch.undo()


def test_evaluate_past_256_dfa_states_projects_the_pairs():
    lang = parse_language("k11(12)")
    assert len(lang.form) > 256
    calls = []
    _spied(lang, calls)
    for word in _seeded_words(12):
        assert evaluate(word, lang) == _ref_evaluate(word, parse_language("k11(12)"))
    assert calls


def test_evaluate_a_finite_language_past_its_trie_budget(monkeypatch):
    # evaluate needs no form: a trie over the budget leaves the projections
    monkeypatch.setattr(automata, "AUTOMATON_BUDGET", 4)
    lang = parse_language("<0101,0110>")
    assert lang.form is None
    for word in _seeded_words(4):
        assert evaluate(word, lang) == _ref_evaluate(word, lang)


def test_evaluate_a_long_null_graph_word_in_bands():
    # 1500 vertices, each twice in a row: every pair projects to 0011, no
    # word of <0110>.  The 2.25 M pair states take three bands of at most
    # 1 MiB; one band of them all would hold more than 4.5 MiB at its peak.
    g = null_graph(1500)
    word = VertexWord([v for v in g.vertices for _ in range(2)])
    produced, seconds, peak = _timed_peak(lambda: evaluate(word, parse_language("<0110>")))
    assert produced == g
    assert seconds < 2 and peak < 3.5 * 2**20


# --- the projection path of evaluate -----------------------------------------

_B = words._BLOCK


def _edge_word(n, seed):
    """A word over n tokens whose sort order is not their word order: each
    token once, in shuffled order, about n / 2 more letters, and three long
    runs of one letter, so many vertices occur once."""
    rng = random.Random(seed)
    tokens = [f"t{x}" for x in rng.sample(range(10**6), n)]
    letters = tokens + [rng.choice(tokens) for _ in range(n // 2)]
    rng.shuffle(letters)
    for _ in range(3):
        at = rng.randrange(len(letters) + 1)
        letters[at:at] = [rng.choice(tokens)] * rng.randint(20, 40)
    return letters


_EDGE_ORDERS = sorted({1, 2, _B - 1, _B, _B + 1, 126, 127, 128, 253, 254, 255, 300})


@pytest.mark.parametrize("n", _EDGE_ORDERS)
def test_project_rows_at_block_and_group_edges(n):
    # level 0 splits the sorted vertices into groups of 127 and level 1 into
    # bands and blocks of _B; rows on either side of each edge match the
    # definition, and every row matches the single-pair projection
    letters = _edge_word(n, n)
    word = VertexWord(letters)
    vs = sorted(word.alphabet())
    rows = list(words.project_rows(word, vs))
    assert [len(row) for row in rows] == list(range(n - 1, -1, -1))
    edges = {0, n - 1} | {e + d for e in (_B, 126, 127, 253, 254) for d in (-1, 0, 1)}
    for i in sorted(i for i in edges if 0 <= i < n):
        assert rows[i] == [filter_project(letters, vs[i], v) for v in vs[i + 1:]], i
    for i, u in enumerate(vs):
        assert rows[i] == [word.project(u, v) for v in vs[i + 1:]], i


@pytest.mark.parametrize("n", [n for n in _EDGE_ORDERS if n <= 128])
def test_evaluate_projection_path_at_block_and_group_edges(n):
    word = VertexWord(_edge_word(n, n))
    for spec in ("copy", "palindrome", "<0101>"):
        lang = parse_language(spec)
        assert evaluate(word, _projected(lang)) == _ref_evaluate(word, lang), spec


def test_evaluate_projection_path_across_level_0_groups():
    # two and three groups of 127: the word on group i with each later group
    for n in (253, 300):
        word = VertexWord(_edge_word(n, n))
        lang = parse_language("copy")
        assert evaluate(word, _projected(lang)) == _ref_evaluate(word, lang), n


def test_evaluate_a_long_copy_word_in_bands():
    # the 86 476-letter copy word of G(300, 0.05): all 44 850 pairs project
    # with one band of rows and one group's level-0 strings held at once;
    # a position index of all letters peaked above 7 MiB
    g = gnp(300, 0.05, 3)
    word = VertexWord(copy_word(g))
    lang = parse_language("copy")
    start = time.process_time()
    assert evaluate(word, lang) == g
    assert time.process_time() - start < 2
    produced, _, peak = _timed_peak(lambda: evaluate(word, lang))
    assert produced == g and peak < 3.5 * 2**20


# --- check ------------------------------------------------------------------


def test_check_match_reports_mapping():
    lang = parse_language("<0101>")
    target = cycle_graph(4)
    report = check(FIG_WORD, lang, target)
    assert report.match and bool(report)
    assert report.message == "match"
    for u, v in itertools.combinations(report.produced.vertices, 2):
        assert report.produced.has_edge(u, v) == target.has_edge(
            report.mapping[u], report.mapping[v]
        )


def test_check_identity_above_isomorphism_cap():
    # a label-for-label match needs no isomorphism test, at any order
    g = gnp(12, 0.5, 12)
    word = VertexWord(copy_word(g))
    report = check(word, parse_language("copy"), g)
    assert report.match
    assert report.mapping == {v: v for v in g.vertices}
    # a different labeling of the same shape still needs the capped test
    vs = list(g.vertices)
    relabeled = g.relabel(dict(zip(vs, vs[1:] + vs[:1])))
    assert relabeled != g
    with pytest.raises(CapacityError, match="capped at order"):
        check(word, parse_language("copy"), relabeled)


def test_evaluate_copy_word_of_order_200_is_fast():
    # the position index makes all pairs O(n·|w|); rescanning the word for
    # every pair took about 15 s on a 2-core x86-64 host
    g = gnp(200, 0.5, 200)
    word = VertexWord(copy_word(g))
    start = time.perf_counter()
    produced = evaluate(word, parse_language("copy"))
    assert time.perf_counter() - start < 4
    assert produced == g


def test_check_mismatch_same_labels():
    lang = parse_language("<0101>")
    wrong = Graph("1234", [("1", "2"), ("1", "4"), ("2", "3")])  # drop edge 34
    report = check(FIG_WORD, lang, wrong)
    assert not report
    assert report.first_diff == ("3", "4")
    assert "unexpected edge" in report.message
    missing = Graph(
        "1234", [("1", "2"), ("1", "4"), ("2", "3"), ("3", "4"), ("1", "3")]
    )
    report = check(FIG_WORD, lang, missing)
    assert not report and "missing edge" in report.message


def test_check_mismatch_different_shape():
    report = check(FIG_WORD, parse_language("<0101>"), path_graph(4))
    assert not report
    assert report.first_diff is None
    assert "no isomorphism" in report.message


# --- search -----------------------------------------------------------------


def _brute_force_exists(g, lang, bounds):
    """Is there any word over g's vertices, each letter appearing with a
    multiplicity drawn from its bounds (a set, or a per-vertex dict),
    evaluating to exactly g?"""
    vs = g.vertices
    per_vertex = [bounds[v] if isinstance(bounds, dict) else bounds for v in vs]
    for mults in itertools.product(*per_vertex):
        pool = [v for v, m in zip(vs, mults) for _ in range(m)]
        for arrangement in set(itertools.permutations(pool)):
            if _ref_evaluate(VertexWord(list(arrangement)), lang) == g:
                return True
    return False


def _agrees_with_brute_force(g, lang, bounds):
    found = search(g, lang, bounds)
    if found is not None:
        assert evaluate(found, lang) == g
    assert (found is not None) == _brute_force_exists(g, lang, bounds)


# two twins with different bounds: interchanging them would break the
# bounds, so they must not be treated as one class
_SPLIT_TWIN_BOUNDS = (
    {"v1": [2], "v2": [1], "v3": [1, 2]},
    {"v1": [1], "v2": [2], "v3": [1, 2]},
    {"v1": [1, 2], "v2": [2], "v3": [1]},
)


@pytest.mark.parametrize("spec", ["<01>", "<0011>", "<0101>", "<0110>", "wrep", "dyck"])
def test_search_agrees_with_brute_force(spec):
    lang = parse_language(spec)
    for n in (2, 3):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_mask(n, mask)
            _agrees_with_brute_force(g, lang, {1, 2})
            for bounds in _SPLIT_TWIN_BOUNDS:
                _agrees_with_brute_force(
                    g, lang, {v: bounds[v] for v in g.vertices}
                )


@pytest.mark.parametrize("spec", ["<0110>", "<01,001>"])
@pytest.mark.parametrize(
    "g",
    [null_graph(4), complete_graph(4), complete_bipartite(1, 3), cycle_graph(4)],
    ids=["null", "complete", "star", "C4"],
)
def test_search_agrees_with_brute_force_on_twin_classes(spec, g):
    _agrees_with_brute_force(g, parse_language(spec), {1, 2})


def test_twin_predecessors_match_their_definition():
    # every labeled graph of order at most 6, under one set of bounds and
    # under seeded per-vertex ones (equal as sets, not always as lists)
    rng = random.Random(23)
    for n in range(1, 7):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_mask(n, mask)
            vs = g.vertices
            nbrs = [g.neighbors(v) for v in vs]
            twins = [[j for j in range(i) if nbrs[i] - {vs[j]} == nbrs[j] - {vs[i]}]
                     for i in range(n)]
            verdicts = _verdicts(g)
            for freqs in ({1, 2}, {v: rng.choice(([2], [1, 2], [2, 1, 2], [2, 3])) for v in vs}):
                bounds = _normalize_bounds(g, freqs)
                allowed = [set(b) for b in bounds]
                expected = [max((j for j in twins[i] if allowed[j] == allowed[i]), default=-1)
                            for i in range(n)]
                assert _twin_predecessors(verdicts, bounds) == expected, (g.edges, freqs)


def test_search_ignores_vertex_names():
    # search works on g's own names, so a relabeled graph must be found
    # exactly when the original is
    lang = parse_language("<0110>")
    rng = random.Random(5)
    for g in enumerate_graphs(5):
        vs = list(g.vertices)
        h = g.relabel(dict(zip(vs, rng.sample(vs, len(vs)))))
        assert (search(h, lang, {2}) is None) == (search(g, lang, {2}) is None)


def test_search_returns_labeled_equality():
    w = search(cycle_graph(4), parse_language("<0101>"), {2})
    assert w is not None
    assert evaluate(w, parse_language("<0101>")) == cycle_graph(4)


def test_search_negative_cases():
    # single-occurrence letters project to length-2 words, never alternating
    # four times, so only the null graph appears at frequentness one
    assert search(cycle_graph(4), parse_language("<0101>"), {1}) is None
    assert search(null_graph(4), parse_language("<0101>"), {1}) is not None
    # under the complete language any two distinct letters form an edge
    assert search(null_graph(2), parse_language("re:(0|1)*"), {1, 2}) is None


@pytest.mark.parametrize("budget", [0, -3])
def test_search_refuses_a_node_budget_below_one(budget):
    lang = parse_language("re:0110|1001")
    with pytest.raises(ValueError, match=rf"node budget must be at least 1, not {budget}$"):
        search(cycle_graph(4), lang, {2}, node_budget=budget)
    # refused before any work: no symmetry decided, no pair automaton built
    assert lang._symmetric is None and lang.pair_automaton is None


def test_search_per_vertex_bounds():
    g = path_graph(3)
    bounds = {"v1": [2], "v2": [2], "v3": [2]}
    w = search(g, parse_language("<0101,0110>"), bounds)
    assert w is not None
    profile = w.frequency_profile()
    assert all(profile[v] == 2 for v in g.vertices)


def test_search_bad_bounds():
    with pytest.raises(ValueError):
        search(path_graph(2), parse_language("<01>"), set())
    with pytest.raises(ValueError):
        search(path_graph(2), parse_language("<01>"), {0, 1})


def test_search_budget_exhaustion():
    with pytest.raises(CapacityError):
        search(cycle_graph(4), parse_language("<0101>"), {2}, node_budget=1)


def test_search_budget_covers_all_work():
    # the budget counts every stage of the search, so a tiny budget fails
    # fast even at order 9
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=r"after 10 nodes \(1 multiplicity"):
        search(path_graph(9), parse_language("<0110>"), {2}, node_budget=10)
    assert time.perf_counter() - start < 2


# C5 plus two isolated vertices: no permutation graph
_C5_AND_TWO_ISOLATED = Graph([f"v{i}" for i in range(1, 8)], cycle_graph(5).edges)


def test_search_budget_error_counts_the_cut_prefixes():
    # the refutation takes 61 nodes, so 50 run out; the first cut is a
    # triple's, so the triple check then runs before the walk and makes
    # every cut
    with pytest.raises(CapacityError, match=r"after 50 nodes \(1 multiplicity assignments "
                                            r"tried, 0 prefixes cut on a cycle of waits, 26 on "
                                            r"a triple without a joint completion, 42 candidate "
                                            r"letters skipped by an automorphism\)"):
        search(_C5_AND_TWO_ISOLATED, parse_language("<0110>"), {2}, node_budget=50)
    # C7 under <0101> takes 117 nodes; the first cut is a walk's, and the
    # walk then runs alone
    with pytest.raises(CapacityError, match=r"after 100 nodes \(1 multiplicity assignments "
                                            r"tried, 55 prefixes cut on a cycle of waits, 0 on "
                                            r"a triple without a joint completion, 0 candidate "
                                            r"letters skipped by an automorphism\)"):
        search(cycle_graph(7), parse_language("<0101>"), {2}, node_budget=100)


def test_search_counts_on_a_finished_search():
    # the counts a budget error quotes, read from the search state itself
    lang = parse_language("<0110>")
    run = represent._Search(path_graph(10), lang, {2}, represent.DEFAULT_NODE_BUDGET)
    assert run.assign()
    assert (run.spent, run.tried, run.cuts, run.triple_cuts, run.skips) == (49, 1, 0, 17, 0)
    run = represent._Search(_C5_AND_TWO_ISOLATED, lang, {2}, represent.DEFAULT_NODE_BUDGET)
    assert not run.assign()
    assert (run.spent, run.tried, run.cuts, run.triple_cuts, run.skips) == (61, 1, 0, 32, 56)


def _completes(lang, words, left, verdicts, seen):
    """Reference for joint: can the three pair words so far, (c, x), (c, y)
    and (x, y) with the first vertex's letters as 0, be completed by some
    interleaving of the letters left of c, x and y so that each ends with
    its verdict (0: in L, 1: not in L)?  Enumerates the interleavings."""
    key = (words, left)
    if key not in seen:
        if not any(left):
            seen[key] = all(lang.contains(w) == (v == 0) for w, v in zip(words, verdicts))
        else:
            cx, cy, xy = words
            steps = ((cx + "0", cy + "0", xy), (cx + "1", cy, xy + "0"), (cx, cy + "1", xy + "1"))
            seen[key] = any(
                _completes(lang, step, tuple(n - (i == at) for i, n in enumerate(left)),
                           verdicts, seen)
                for at, step in enumerate(steps) if left[at]
            )
    return seen[key]


@pytest.mark.parametrize("spec", ["<0110>", "<0101>", "dyck"])
def test_joint_matches_brute_force_interleaving(spec):
    # every triple of live pair states and letters left that some prefix
    # reaches, at up to three letters per vertex and under each verdict
    lang = parse_language(spec)
    checked = 0
    for counts in itertools.product((1, 2, 3), repeat=3):
        kc, kx, ky = counts
        for verdicts in itertools.product((0, 1), repeat=3):
            pa = represent._PairAutomaton(lang)
            starts = tuple(pa.state(pa.start, a, b) for a, b in ((kc, kx), (kc, ky), (kx, ky)))
            if not all(pa.reaches(s, v) for s, v in zip(starts, verdicts)):
                continue
            (c0, x0), (c1, y0), (x1, y1) = (pa.moves[v] for v in verdicts)
            memo, seen = {}, {}
            # breadth first from the start, each triple with the pair words
            # of the first prefix that reaches it
            root = starts + counts
            todo, reached = [root], {root: ("", "", "")}
            for t in todo:
                p, q, r, i, j, k = t
                cx, cy, xy = reached[t]
                kids = []
                if i and c0[p] >= 0 and c1[q] >= 0:
                    kids.append(((c0[p], c1[q], r, i - 1, j, k), (cx + "0", cy + "0", xy)))
                if j and x0[p] >= 0 and x1[r] >= 0:
                    kids.append(((x0[p], q, x1[r], i, j - 1, k), (cx + "1", cy, xy + "0")))
                if k and y0[q] >= 0 and y1[r] >= 0:
                    kids.append(((p, y0[q], y1[r], i, j, k - 1), (cx, cy + "1", xy + "1")))
                for kid, words in kids:
                    if kid not in reached:
                        reached[kid] = words
                        todo.append(kid)
            for t, words in reached.items():
                expected = _completes(lang, words, t[3:], verdicts, seen)
                assert represent.joint(memo, t, c0, c1, x0, x1, y0, y1, 10**6) == expected, (
                    counts, verdicts, words)
                checked += 1
    assert checked > 100


@pytest.mark.parametrize("spec", ["<0110>", "<01,001>", "wrep", "dyck", "copy"])
def test_one_pair_automaton_serves_every_count_pair(spec):
    # one automaton is asked for the start at each count pair up to 4, in a
    # shuffled order, so a start may meet states an earlier one built; each
    # verdict's liveness must match the words with those counts
    lang = parse_language(spec)
    pa = represent._PairAutomaton(lang)
    counts = list(itertools.product(range(5), repeat=2))
    random.Random(11).shuffle(counts)
    for k0, k1 in counts:
        s = pa.state(pa.start, k0, k1)
        verdicts = {lang.contains(b) for b in all_binary_words(k0 + k1)
                    if len(b) == k0 + k1 and b.count("0") == k0}
        assert pa.reaches(s, 0) == (True in verdicts), (k0, k1)
        assert pa.reaches(s, 1) == (False in verdicts), (k0, k1)


def test_search_cuts_paths_within_a_node_budget():
    # cutting every prefix whose vertices wait on each other in a cycle or
    # leave three vertices without a joint completion, the search finds P10
    # in 49 nodes and refutes C5 plus two isolated vertices in 61; with the
    # cycle cut alone they take 9 379 and 1 116, and with neither cut
    # 294 499 and 31 381
    lang = parse_language("<0110>")
    g = path_graph(10)
    w = search(g, lang, {2}, node_budget=75)
    assert w is not None and evaluate(w, lang) == g
    assert search(_C5_AND_TWO_ISOLATED, lang, {2}, node_budget=75) is None


@pytest.mark.parametrize("n", [14, 16])
def test_search_finds_long_paths(n):
    # paths are permutation graphs; above ISO_ORDER_CAP no automorphism
    # prunes, and the cycle cut alone took 57 s at P14
    lang, g = parse_language("<0110>"), path_graph(n)
    start = time.process_time()
    w = search(g, lang, {2})
    assert time.process_time() - start < 5
    assert w is not None and evaluate(w, lang) == g


# sha256 prefixes of repr([None or list(word)]) over search on every
# enumerate_graphs(n) graph, n = 1..max order: the cuts of a prefix whose
# vertices wait in a cycle or whose triple has no joint completion remove
# only subtrees without a completion, and
# the twin and automorphism rules keep the least word of each assignment, so
# search returns these very words.  freqs is a set of multiplicities, or the
# seed of one per-vertex bound dict per graph
SEARCH_WORD_DIGESTS = [
    ("<0110>", {2}, 6, "294ed267c51e1e65"),
    # the triple cut prunes most at order 7; the digest is the one search
    # gave before that cut
    ("<0110>", {2}, 7, "f6305dcaaa54a12f"),
    ("<0101>", {2}, 5, "182aa25042c4e61e"),
    ("dyck", {2}, 5, "0446438f7376e992"),
    ("<0101>", {2}, 6, "0eea4ef76f85ddac"),
    # the cycle walk does the cutting here, and no triple is cut
    ("<0101>", {2}, 7, "5d04b5a26b98b4ba"),
    ("<01,001>", {1, 2}, 5, "dd6aef595b91d63e"),
    ("halfline", {1, 2, 3}, 5, "b04332bf741f0413"),
    ("<0011>", {2}, 6, "baea85d5f68c13cb"),
    # wrep words differ once an automorphism that moves a vertex of
    # multiplicity 1 onto one of multiplicity 2 is used
    ("wrep", {1, 2}, 5, "2e8a94b1e3af59a9"),
    # at order 6 the DFS returns to the root under non-uniform multiplicities,
    # where the automorphisms that move them apart are dropped
    ("halfline", 5, 6, "dbd77f1d6f8b43be"),
    ("<01,001>", 5, 6, "2f681ad344d0e05f"),
]


def _digest_row_id(i):
    spec, freqs, top, _ = SEARCH_WORD_DIGESTS[i]
    if all(r[0] != spec for r in SEARCH_WORD_DIGESTS[:i]):
        return spec
    return f"{spec}-{'seed' if isinstance(freqs, int) else 'order'}-{top}"


@pytest.mark.parametrize("spec, freqs, top, prefix", SEARCH_WORD_DIGESTS,
                         ids=[_digest_row_id(i) for i in range(len(SEARCH_WORD_DIGESTS))])
def test_search_words_are_pinned(spec, freqs, top, prefix):
    lang = parse_language(spec)
    graphs = [g for n in range(1, top + 1) for g in enumerate_graphs(n)]
    if isinstance(freqs, int):
        rng = random.Random(freqs)
        bounds = [{v: rng.choice(((2,), (1, 2), (2, 3), (1, 2, 3))) for v in g.vertices}
                  for g in graphs]
    else:
        bounds = [freqs] * len(graphs)
    words = [search(g, lang, b) for g, b in zip(graphs, bounds)]
    rows = [None if w is None else list(w) for w in words]
    assert hashlib.sha256(repr(rows).encode()).hexdigest().startswith(prefix)


CLASS_ROWS = {row.tag: row for row in CLASSES}


def test_search_permutation_row_at_order_7():
    # the <0110> row of the class table at order 7: 776 of the 1044 graphs
    # are permutation graphs
    row = CLASS_ROWS["permutation"]
    lang = parse_language(row.spec)
    start = time.perf_counter()
    graphs = enumerate_graphs(7)
    found = [search(g, lang, row.bounds(7)) is not None for g in graphs]
    assert time.perf_counter() - start < 120
    assert len(graphs) == 1044 and sum(found) == 776
    assert found == [row.recognizer(g) for g in graphs]


# five more rows of the class table at order 7, with their member counts
# among the 1044 graphs; <0101> (978 members) is left out, as is_circle
# alone takes 3.1-3.4 s of CPU time on them (time.process_time, Python 3.11
# on a 2-core host)
ORDER_7_ROWS = {"interval": 369, "co-interval": 369, "bipartite-chain": 36, "convex": 84,
                "threshold": 64}


def test_search_class_table_rows_at_order_7():
    graphs = enumerate_graphs(7)
    start = time.perf_counter()
    for tag, members in ORDER_7_ROWS.items():
        row = CLASS_ROWS[tag]
        lang = parse_language(row.spec)
        found = [search(g, lang, row.bounds(7)) is not None for g in graphs]
        assert sum(found) == members, tag
        assert found == [row.recognizer(g) for g in graphs], tag
    assert time.perf_counter() - start < 120


def test_search_requires_symmetric():
    with pytest.raises(NotSymmetricError):
        search(path_graph(2), parse_language("re:01"), {1, 2})


def _timed_peak(fn):
    """fn's result, this process's CPU seconds and tracemalloc peak in bytes.
    CPU time, not wall time, so a bound does not also measure how busy the
    host is."""
    tracemalloc.start()
    start = time.process_time()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, time.process_time() - start, peak


def test_search_at_large_multiplicities_stays_shallow():
    # a Dfa sink settles its verdict at once, and liveness is walked on an
    # explicit stack, so hundreds of letters per vertex raise no
    # RecursionError
    edge = complete_graph(2)
    found, seconds, _ = _timed_peak(lambda: search(edge, parse_language("<0110>"), {600}))
    assert found is None and seconds < 1
    found, seconds, peak = _timed_peak(lambda: search(edge, parse_language("wrep"), {200}))
    assert found == VertexWord(["v1", "v2"] * 200)
    assert seconds < 2 and peak < 64 * 2**20


def test_search_above_the_recursion_limit():
    # the multiplicity CSP backtracks on an explicit stack, so an order past
    # the interpreter's recursion limit is searched, not refused
    n = sys.getrecursionlimit() + 50
    g, lang = null_graph(n), parse_language("<01,001>")
    start = time.perf_counter()
    found = search(g, lang, {2})
    assert found is not None and time.perf_counter() - start < 30
    assert sorted(found) == sorted(g.vertices * 2)
    rng = random.Random(12)
    for _ in range(50):
        u, v = rng.sample(g.vertices, 2)
        assert not lang.contains(found.project(u, v))


def test_search_budget_covers_pair_automaton_states(monkeypatch):
    # a copy word with 12 zeros and 12 ones lies deep in the prefix tree;
    # the states built on the way are charged to ENUMERATION_BUDGET
    monkeypatch.setattr(represent, "ENUMERATION_BUDGET", 10**4)
    copy = parse_language("copy")

    def over_budget():
        with pytest.raises(CapacityError, match=r"multiplicities \(12, 12\), vertex pair \(v1,v2\)"):
            search(complete_graph(2), copy, {12})

    _, seconds, peak = _timed_peak(over_budget)
    assert seconds < 1 and peak < 16 * 2**20
    # a non-edge needs one non-copy word, the first leaf of its tree
    assert search(null_graph(2), copy, {12}) is not None


def test_search_budget_names_the_pair_of_a_dfs_move(monkeypatch):
    # every start state is live, so the CSP passes; the DFS then runs out
    # while placing a letter, and the message names that letter's pair
    monkeypatch.setattr(represent, "ENUMERATION_BUDGET", 50)
    with pytest.raises(CapacityError, match=r"^over 50 pair automaton states at multiplicities "
                                            r"\(4, 4\), vertex pair \(v2,v3\)$"):
        search(path_graph(3), parse_language("dyck"), {4})


def test_search_budget_names_the_triple_of_a_joint_completion(monkeypatch):
    # here the states run out while a triple's joint completion is decided
    monkeypatch.setattr(represent, "ENUMERATION_BUDGET", 100)
    with pytest.raises(CapacityError, match=r"^over 100 pair automaton states at multiplicities "
                                            r"\(6, 6, 6\), vertex triple \(v2,v1,v3\)$"):
        search(path_graph(3), parse_language("dyck"), {6})


@pytest.mark.parametrize("spec, pair", [("copy", "v1,v3"), ("<0011>", "v2,v3"),
                                        ("lyndon", "v1,v2")])
def test_search_budget_names_the_pair_of_a_cycle_walk(monkeypatch, spec, pair):
    # every walk may look up moves it finds built, but the first move it has
    # to build runs out, and the message names that move's pair
    lang, raised = parse_language(spec), []
    walk = represent._Search.waits_in_cycle

    def walk_without_room(run, c, on, state):
        pa = lang.pair_automaton
        limit, pa.limit = pa.limit, len(pa.keys)
        try:
            return walk(run, c, on, state)
        except CapacityError as e:
            raised.append(e)
            raise
        finally:
            pa.limit = limit

    monkeypatch.setattr(represent._Search, "waits_in_cycle", walk_without_room)
    with pytest.raises(CapacityError) as caught:
        search(cycle_graph(5), lang, {2})
    assert str(caught.value) == (f"over {represent.ENUMERATION_BUDGET} pair automaton states "
                                 f"at multiplicities (2, 2), vertex pair ({pair})")
    assert raised == [caught.value]


def test_search_drops_a_cache_past_the_budget(monkeypatch):
    monkeypatch.setattr(represent, "ENUMERATION_BUDGET", 40)
    lang, edge = parse_language("copy"), complete_graph(2)
    assert search(edge, lang, {2}) is not None
    for k in (3, 4):
        with pytest.raises(CapacityError):
            search(edge, lang, {k})
        assert len(lang.pair_automaton.keys) <= 2 * 40
    # the call at {4} found 10 + 40 states cached and started afresh: every
    # state left has a prefix read and letters left that make 4 + 4
    assert all(len(q) + r0 + r1 == 8 for q, r0, r1 in lang.pair_automaton.keys)


def test_search_drops_the_triple_memo_with_the_pair_automata(monkeypatch):
    monkeypatch.setattr(represent, "ENUMERATION_BUDGET", 30)
    lang = parse_language("<0110>")
    # a full memo turns the triple cut off and leaves the verdict exact
    assert search(_C5_AND_TWO_ISOLATED, lang, {2}) is None
    pa = lang.pair_automaton
    assert 0 < len(pa.triples) <= 30
    pa.triples.update((i, True) for i in range(31))
    assert search(path_graph(3), lang, {2}) is not None
    # the memo past the budget was dropped, and the pair automaton with it
    assert lang.pair_automaton is not pa
    assert not any(isinstance(key, int) for key in lang.pair_automaton.triples)


def test_search_decides_triples_at_high_multiplicity(monkeypatch):
    # a triple is decided on an explicit stack: here with up to 42 letters
    # left in its three vertices
    lang, g = parse_language("dyck"), Graph(["v1", "v2", "v3"], [("v1", "v3")])
    start = time.process_time()
    w = search(g, lang, {40})
    assert time.process_time() - start < 5 and evaluate(w, lang) == g
    # a memo key ends in the triple's three counts
    assert max(sum(key[6:]) for key in lang.pair_automaton.triples) == 42
    # three vertices at multiplicity 12 stop at the state budget
    monkeypatch.setattr(represent, "ENUMERATION_BUDGET", 10**4)
    with pytest.raises(CapacityError, match=r"multiplicities \(12, 12\)"):
        search(complete_graph(3), parse_language("copy"), {12})


# class-sweep rows and multiplicities; wrep is not a row and takes {1, 2}
_DIFFERENTIAL_ROWS = (
    ("<0110>", {2}), ("<01,001>", {1, 2}), ("re:0110|1001", {2}),
    ("halfline", {1, 2, 3}), ("wrep", {1, 2}),
)


@pytest.mark.parametrize("spec, freqs", _DIFFERENTIAL_ROWS, ids=[r[0] for r in _DIFFERENTIAL_ROWS])
def test_search_on_dfa_states_matches_the_prefix_path(spec, freqs):
    # the same language as an opaque predicate runs on prefixes and
    # membership calls; both paths must return the very same word
    lang = parse_language(spec)
    twin = Language(None, f"opaque {spec}", member=lang.contains, symmetric=True)
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            assert search(g, lang, freqs) == search(g, twin, freqs), (spec, g.edges)


def test_search_on_a_dfa_form_makes_no_membership_calls():
    lang = parse_language("<0110>")
    calls = []
    member = lang._member
    lang._member = lambda b: calls.append(b) or member(b)
    graphs = enumerate_graphs(4)
    words = [search(g, lang, {2}) for g in graphs]
    assert calls == [] and any(words)
    built = len(lang.pair_automaton.keys)
    assert [search(g, lang, {2}) for g in graphs] == words
    assert len(lang.pair_automaton.keys) == built
    # the opaque twin goes through the same wrapped membership test
    twin = Language(None, "opaque <0110>", member=lang.contains, symmetric=True)
    assert [search(g, twin, {2}) for g in graphs] == words and calls


# --- decomposition ----------------------------------------------------------


def test_pair_nonempty_finite():
    lang = parse_language("<0101>")
    assert pair_nonempty(lang, 2, 2)
    assert not pair_nonempty(lang, 1, 2)
    mixed = parse_language("<01,001>")
    assert pair_nonempty(mixed, 1, 1)
    assert pair_nonempty(mixed, 1, 2)
    assert pair_nonempty(mixed, 2, 1)
    assert not pair_nonempty(mixed, 2, 2)


def test_pair_nonempty_regular():
    wrep = parse_language("wrep")
    assert pair_nonempty(wrep, 2, 2)
    assert pair_nonempty(wrep, 2, 3)
    assert not pair_nonempty(wrep, 1, 3)


def test_pair_nonempty_grammar():
    cfg = Cfg.parse("S -> 0 S 1 | 1 S 0 | eps")
    lang = Language(cfg, "cfg", symmetric=True)
    assert pair_nonempty(lang, 3, 3)
    assert not pair_nonempty(lang, 2, 3)


def test_pair_nonempty_context_free_builtins_beyond_enumeration():
    # C(50, 25) words per profile: past the enumeration budget, while the
    # grammar's count vectors answer at once
    assert pair_nonempty(parse_language("dyck"), 25, 25)
    assert not pair_nonempty(parse_language("dyck"), 24, 25)
    assert not pair_nonempty(parse_language("palindrome"), 25, 25)
    assert pair_nonempty(parse_language("palindrome"), 25, 24)


@pytest.mark.parametrize(
    "spec",
    ["<01>", "<01,001>", "halfline", "not(<01>)", "wrep", "re:0*1*", "re:0*1", "even-counts",
     "uniform(2)", "k11(1)", "no-kk(3)", "and(<0101>,re:(0|1)*)", "dyck", "palindrome"],
)
def test_pair_nonempty_matches_enumeration(spec):
    lang = parse_language(spec)
    for k in range(6):
        for ell in range(6):
            expected = any(
                lang.contains(b) for b in all_binary_words(k + ell)
                if len(b) == k + ell and sorted((b.count("0"), b.count("1"))) == sorted((k, ell))
            )
            assert pair_nonempty(lang, k, ell) == expected, (spec, k, ell)


def test_pair_nonempty_finite_at_large_multiplicity_stays_in_the_trie():
    tracemalloc.start()
    try:
        assert not pair_nonempty(parse_language("<01>"), 3000, 3000)
        assert pair_nonempty(parse_language("<01>"), 1, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_pair_nonempty_regular_combinations_beyond_enumeration():
    assert pair_nonempty(parse_language("not(<01>)"), 12, 12)
    assert not pair_nonempty(parse_language("and(<0101>,re:(0|1)*)"), 12, 12)
    assert pair_nonempty(parse_language("and(<0101>,re:(0|1)*)"), 2, 2)


def _pair_by_enumeration(lang, k, ell):
    # every word with counts (k, ell) or (ell, k), tried one by one
    for zeros, ones in {(k, ell), (ell, k)}:
        for positions in itertools.combinations(range(zeros + ones), zeros):
            chars = ["1"] * (zeros + ones)
            for p in positions:
                chars[p] = "0"
            if lang.contains("".join(chars)):
                return True
    return False


def test_pair_nonempty_skewed_counts_search_only_the_two_windows():
    # a square (1501 x 1501) count bound would pass the search budget
    assert not pair_nonempty(parse_language("even-counts"), 1, 1500)
    assert pair_nonempty(parse_language("even-counts"), 2, 1500)
    assert pair_nonempty(parse_language("hull(re:0*1*)"), 3, 1000)
    assert pair_nonempty(parse_language("hull(re:0*10*)"), 1, 1000)
    assert not pair_nonempty(parse_language("hull(re:0*10*)"), 2, 1000)


def test_pair_nonempty_budget_names_its_counts(monkeypatch):
    # even-counts has no word with 41 zeros, so the search on the Dfa must
    # exhaust its about 42 * 41 states, past a budget of 100
    monkeypatch.setattr(represent, "ENUMERATION_BUDGET", 100)
    with pytest.raises(CapacityError, match=r"^over 100 pair automaton states at multiplicities "
                                            r"\(41, 40\)$"):
        pair_nonempty(parse_language("even-counts"), 41, 40)


@pytest.mark.parametrize("spec", ["palindrome", "balanced", "dyck", "0n1n"])
@pytest.mark.parametrize("k, ell", [(1, 200), (2, 199), (0, 200)])
def test_pair_nonempty_skewed_grammar_counts_match_enumeration(spec, k, ell):
    lang = parse_language(spec)
    assert pair_nonempty(lang, k, ell) == _pair_by_enumeration(lang, k, ell)


def test_pair_nonempty_opaque():
    copy = parse_language("copy")
    assert pair_nonempty(copy, 2, 2)
    assert not pair_nonempty(copy, 1, 2)
    with pytest.raises(CapacityError):
        pair_nonempty(copy, 25, 25)


def test_decompose_star_example():
    dec = decompose(VertexWord.parse("aabbc"), parse_language("<01,001>"))
    assert dec.pairs == frozenset({(1, 1), (1, 2)})
    assert dec.whole == Graph("abc", [("a", "c"), ("b", "c")])
    assert dec.parts[(1, 1)] == Graph("c", [])
    assert dec.parts[(1, 2)] == Graph("abc", [("a", "c"), ("b", "c")])


def test_decompose_uniform_word():
    dec = decompose(FIG_WORD, parse_language("<0101>"))
    assert dec.pairs == frozenset({(2, 2)})
    assert dec.whole == cycle_graph(4).relabel(
        {"v1": "1", "v2": "2", "v3": "3", "v4": "4"}
    )
    assert dec.parts[(2, 2)] == dec.whole


def test_decompose_lists_empty_pairs():
    # both letters appear twice and the language holds (2,2) words, so the
    # pair is listed even though this particular word induces no edge
    dec = decompose(VertexWord.parse("aabb"), parse_language("<0101>"))
    assert dec.pairs == frozenset({(2, 2)})
    assert dec.parts[(2, 2)].size == 0


def test_decompose_union_identity():
    for text in ("abcabc", "aabcbc", "abacbc", "aabbcc"):
        dec = decompose(VertexWord.parse(text), parse_language("<0101,0110>"))
        rebuilt = set()
        for part in dec.parts.values():
            rebuilt.update(part.edges)
        assert rebuilt == set(dec.whole.edges)


# --- a finite language past its trie budget ----------------------------------
#
# Such a language has no form: search runs on prefix states answered by its
# word set, pair_nonempty enumerates, and a combinator over it is opaque.
# Every answer must be the one the language gives with its trie.

_PAST_TRIE_ROWS = (("<0101,0110>", {2}), ("<01,001>", {1, 2}))


@pytest.mark.parametrize("spec, freqs", _PAST_TRIE_ROWS, ids=[r[0] for r in _PAST_TRIE_ROWS])
def test_search_past_the_trie_budget_finds_the_default_words(monkeypatch, spec, freqs):
    graphs = [g for n in range(1, 5) for g in enumerate_graphs(n)]
    lang = parse_language(spec)
    expected = [search(g, lang, freqs) for g in graphs]
    assert isinstance(lang.form, Dfa) and any(expected)
    monkeypatch.setattr(automata, "AUTOMATON_BUDGET", 4)
    lang = parse_language(spec)
    assert lang.form is None
    assert [search(g, lang, freqs) for g in graphs] == expected


@pytest.mark.parametrize("spec", [r[0] for r in _PAST_TRIE_ROWS])
def test_pair_nonempty_and_decompose_past_the_trie_budget(monkeypatch, spec):
    counts = list(itertools.product(range(4), repeat=2))
    texts = ("aabbc", "abcabc", "aabcbc", "abacbc", "14213243")

    def answers():
        lang = parse_language(spec)
        return ([pair_nonempty(lang, k, ell) for k, ell in counts],
                [decompose(VertexWord.parse(t), lang) for t in texts])

    expected = answers()
    assert any(expected[0]) and not all(expected[0])
    monkeypatch.setattr(automata, "AUTOMATON_BUDGET", 4)
    assert parse_language(spec).form is None
    assert answers() == expected


def test_pair_nonempty_scans_the_words_of_a_formless_finite_language(monkeypatch):
    # past its trie budget the word set is scanned once for the counts; the
    # C(26, 13) words of counts (13, 13) are never enumerated
    monkeypatch.setattr(automata, "AUTOMATON_BUDGET", 20)
    lang = parse_language("<" + "0" * 13 + "1" * 13 + ">")
    assert lang.form is None
    assert pair_nonempty(lang, 13, 13)
    assert not pair_nonempty(lang, 13, 12)


def test_pair_nonempty_at_a_small_trie_budget_answers_as_at_the_default(monkeypatch):
    specs = ("<0110>", "<0101,0110>", "<01,001>", "halfline", "<" + "0" * 6 + "1" * 6 + ">")
    counts = list(itertools.product(range(7), repeat=2))

    def answers():
        langs = [parse_language(spec) for spec in specs]
        return [[pair_nonempty(lang, k, ell) for k, ell in counts] for lang in langs]

    expected = answers()
    assert all(any(row) and not all(row) for row in expected)
    monkeypatch.setattr(automata, "AUTOMATON_BUDGET", 5)
    assert all(parse_language(spec).form is None for spec in specs)
    assert answers() == expected


def test_a_finite_language_past_its_trie_budget_answers_as_with_it(monkeypatch):
    spec = "<0110,0101,0011>"

    def answers():
        lang = parse_language(spec)
        return (search(path_graph(3), lang, {2}), search(path_graph(3), lang, {1, 2}),
                pair_nonempty(lang, 2, 2), pair_nonempty(lang, 1, 2),
                sorted(filter(parse_language(f"and({spec},wrep)").contains, all_binary_words(6))))

    expected = answers()
    monkeypatch.setattr(automata, "AUTOMATON_BUDGET", 5)
    assert answers() == expected


@pytest.mark.parametrize("spec", ["not(<0110>)", "and(<0110,0101,0011>,wrep)"])
def test_a_combinator_over_a_formless_finite_language_is_opaque(monkeypatch, spec):
    expected = parse_language(spec)
    # wrep's own automaton is built within 5 states
    monkeypatch.setattr(automata, "AUTOMATON_BUDGET", 5)
    lang = parse_language(spec)
    assert lang.form is None and lang.symmetric
    assert all(lang.contains(b) == expected.contains(b) for b in all_binary_words(8))


@pytest.mark.parametrize("budget", [4, automata.AUTOMATON_BUDGET])
def test_a_finite_language_builds_its_trie_once(monkeypatch, budget):
    # whether the trie fits or not, it is tried once, on the first form read
    calls = []
    build = languages.dfa_from_finite
    monkeypatch.setattr(languages, "dfa_from_finite", lambda ws: calls.append(1) or build(ws))
    monkeypatch.setattr(automata, "AUTOMATON_BUDGET", budget)
    lang = parse_language("<0101,0110>")
    assert calls == []
    forms = [lang.form for _ in range(3)]
    assert forms[0] is forms[1] is forms[2] and (forms[0] is None) == (budget == 4)
    word = VertexWord.parse("14213243")
    assert [evaluate(word, lang) for _ in range(3)] == [_ref_evaluate(word, lang)] * 3
    assert calls == [1]


def test_pair_nonempty_reads_the_search_automaton(monkeypatch):
    monkeypatch.setattr(represent, "ENUMERATION_BUDGET", 50)
    lang = parse_language("<0110>")
    assert pair_nonempty(lang, 2, 2) and not pair_nonempty(lang, 1, 3)
    pa = lang.pair_automaton
    assert {(2, 2, 0), (1, 3, 0), (3, 1, 0)} <= pa.starts.keys()
    assert search(path_graph(3), lang, {2}) is not None
    assert lang.pair_automaton is pa and pa.starts[2, 2, 0] >= 0
    # start entries past the budget drop the automaton, as states do
    pa.starts.update(((i, i, 0), -1) for i in range(10, 60))
    assert pair_nonempty(lang, 2, 2)
    assert lang.pair_automaton is not pa and len(lang.pair_automaton.starts) == 1
