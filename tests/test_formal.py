"""Automata and grammar machinery: regex compilation, DFA algebra,
minimization, Earley membership, emptiness, shortest words, and the
regular product."""

import hashlib
import itertools
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import assume, given, strategies as st

from conftest import all_binary_words
from langrep import automata
from langrep.automata import (
    AUTOMATON_BUDGET,
    SUBSET_BUDGET,
    Dfa,
    both_symbols_dfa,
    compile_regex,
    count_window_dfa,
    dfa_from_finite,
    explore,
)
from langrep.decide import decide
from langrep.errors import CapacityError, FormatError
from langrep.grammar import Cfg, intersect_regular
from langrep.languages import finite_language, parse_language

WORDS7 = list(all_binary_words(7))

ANBN = "S -> 0 S 1 | eps"
DYCK = """
# one-sided balanced strings, 0 opening
S -> 0 S 1 S | eps
"""


@pytest.mark.parametrize(
    "ours, pattern",
    [
        ("(0|1)*", "[01]*"),
        ("0*1*", "0*1*"),
        ("(1|e)(01)*(0|e)", "1?(01)*0?"),
        ("0(0|1)*1", "0[01]*1"),
        ("(0|1)(0|1)(0|1)", "[01]{3}"),
        ("e", ""),
        ("(((1|(1|1))|((1|1)|(1|1))))*", "1*"),
    ],
)
def test_compile_regex_against_re(ours, pattern):
    dfa = compile_regex(ours)
    for b in WORDS7:
        assert dfa.accepts(b) == (re.fullmatch(pattern, b) is not None), (ours, b)


def _regex_answer(expr):
    # the raw automaton, or the FormatError's message and offset
    try:
        d = compile_regex(expr)
    except FormatError as exc:
        return str(exc), exc.offset
    return d.trans, d.start, sorted(d.accept)


# one slip of each kind, with the message and offset it gets
REGEX_SLIPS = {
    "": ("empty regex branch (use 'e' for the empty word) (at offset 0)", 0),
    "2": ("bad regex character '2' (at offset 0)", 0),
    "0 1": ("bad regex character ' ' (at offset 1)", 1),
    "*0": ("bad regex character '*' (at offset 0)", 0),
    "0|*1": ("bad regex character '*' (at offset 2)", 2),
    "(*0)": ("bad regex character '*' (at offset 1)", 1),
    "()": ("empty regex branch (use 'e' for the empty word) (at offset 1)", 1),
    "0()": ("empty regex branch (use 'e' for the empty word) (at offset 2)", 2),
    "0(|1)": ("empty regex branch (use 'e' for the empty word) (at offset 2)", 2),
    "|": ("empty regex branch (use 'e' for the empty word) (at offset 0)", 0),
    "|0": ("empty regex branch (use 'e' for the empty word) (at offset 0)", 0),
    "0|": ("empty regex branch (use 'e' for the empty word) (at offset 2)", 2),
    "(0|)": ("empty regex branch (use 'e' for the empty word) (at offset 3)", 3),
    "(01": ("unbalanced parenthesis in regex (at offset 4)", 4),
    "((0)": ("unbalanced parenthesis in regex (at offset 5)", 5),
    "(0|1": ("unbalanced parenthesis in regex (at offset 5)", 5),
    "0)": ("unexpected ')' in regex (at offset 1)", 1),
    "(0)*)": ("unexpected ')' in regex (at offset 4)", 4),
}


def test_compile_regex_errors():
    for bad in REGEX_SLIPS:
        assert _regex_answer(bad) == REGEX_SLIPS[bad], bad


def test_dfa_boolean_algebra():
    a = compile_regex("0*1*")
    b = compile_regex("(01)*")
    for word in WORDS7:
        assert a.complement().accepts(word) == (not a.accepts(word))
        assert a.intersect(b).accepts(word) == (a.accepts(word) and b.accepts(word))
        assert a.union(b).accepts(word) == (a.accepts(word) or b.accepts(word))


def test_dfa_swap_and_reverse():
    a = compile_regex("0(0|1)*1")
    flip = str.maketrans("01", "10")
    for word in WORDS7:
        assert a.swap01().accepts(word) == a.accepts(word.translate(flip))
        assert a.reverse().accepts(word) == a.accepts(word[::-1])


def test_dfa_emptiness_and_shortest():
    assert compile_regex("0").intersect(compile_regex("1")).is_empty()
    assert not compile_regex("0*").is_empty()
    # lexicographically least among the shortest accepted words
    assert compile_regex("(0|1)(0|1)").shortest_accepted() == "00"
    assert compile_regex("1|01").shortest_accepted() == "1"
    assert compile_regex("e|0").shortest_accepted() == ""
    assert compile_regex("0").intersect(compile_regex("1")).shortest_accepted() is None


def test_dfa_equivalence():
    assert compile_regex("0*").equivalent(compile_regex("0*0*"))
    assert not compile_regex("0*").equivalent(compile_regex("0*1"))


# random expressions over the regex surface syntax
REGEXES = st.recursive(
    st.sampled_from(["0", "1", "e"]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: f"({p[0]}|{p[1]})"),
        st.tuples(inner, inner).map(lambda p: p[0] + p[1]),
        inner.map(lambda r: f"({r})*"),
    ),
    max_leaves=10,
)
# star-free parts whose alternations have branches that start with
# different symbols, neither nullable: a star over one is matched by re
# without backtracking through the ways a stretch could match
_STAR_BODIES = st.recursive(
    st.sampled_from(["0", "1", "e"]),
    lambda inner: st.one_of(
        st.tuples(inner, inner, st.booleans()).map(
            lambda p: f"(0{p[0]}|1{p[1]})" if p[2] else f"(1{p[0]}|0{p[1]})"
        ),
        st.tuples(inner, inner).map(lambda p: p[0] + p[1]),
    ),
    max_leaves=5,
)
# random expressions whose starred groups are all such parts
RE_REGEXES = st.recursive(
    st.sampled_from(["0", "1", "e"]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: f"({p[0]}|{p[1]})"),
        st.tuples(inner, inner).map(lambda p: p[0] + p[1]),
        _STAR_BODIES.map(lambda r: f"({r})*"),
    ),
    max_leaves=10,
)
WORDS8 = list(all_binary_words(8))


def _backtracks_in_re(expr):
    """Whether a starred group holds a star, or an alternation with a branch
    that matches the empty word or two branches that can start with one
    symbol: each lets a stretch of the word match in many ways, which
    Python's re backtracks through one by one."""
    close = {}
    opens = []
    for i, c in enumerate(expr):
        if c == "(":
            opens.append(i)
        elif c == ")":
            close[opens.pop()] = i
    pos = 0
    found = False

    # each parser returns (nullable, first symbols) of what it read
    def alternation(starred):
        nonlocal pos, found
        nullable, first = concatenation(starred)
        while expr[pos : pos + 1] == "|":
            pos += 1
            n, f = concatenation(starred)
            found = found or (starred and (nullable or n or bool(first & f)))
            nullable, first = nullable or n, first | f
        return nullable, first

    def concatenation(starred):
        nullable, first = True, set()
        while pos < len(expr) and expr[pos] not in "|)":
            n, f = factor(starred)
            if nullable:
                first |= f
            nullable = nullable and n
        return nullable, first

    def factor(starred):
        nonlocal pos, found
        c = expr[pos]
        if c != "(":
            pos += 1
            return c == "e", set() if c == "e" else {c}
        end = close[pos]
        if expr[end + 1 : end + 2] == "*":
            found = found or "*" in expr[pos:end]
            starred = True
        pos += 1
        nullable, first = alternation(starred)
        pos += 1  # the closing parenthesis
        while expr[pos : pos + 1] == "*":
            pos += 1
            nullable = True
        return nullable, first

    alternation(False)
    return found


@given(RE_REGEXES)
def test_compile_regex_against_re_on_random_expressions(expr):
    # a star inside a star, as in ((((0)*)*)*)*, or a starred alternation
    # such as (((1|(1|1))|((1|1)|(1|1))))* or ((0|e)(0|e)(0|e)(0|e)(0|e))*
    # takes re from a quarter second to minutes on the 511 words; such
    # expressions are pinned by test_compile_regex_automata_are_pinned instead
    assume(not _backtracks_in_re(expr))
    dfa = compile_regex(expr)
    pattern = expr.replace("e", "")  # Python's re writes the empty word as nothing
    for b in WORDS8:
        assert dfa.accepts(b) == (re.fullmatch(pattern, b) is not None), (expr, b)


def _random_regex(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice("01e")
    a = _random_regex(rng, depth - 1)
    kind = rng.randrange(3)
    if kind == 2:
        return f"({a})*"
    b = _random_regex(rng, depth - 1)
    return f"({a}|{b})" if kind == 0 else a + b


def test_compile_regex_automata_are_pinned():
    # the raw (unminimized) automata, state for state, over a fixed corpus:
    # the regexes the package and its tests use, a few nested stars, a starred
    # alternation of overlapping branches, and 2000 seeded random ones of
    # depth at most 7 (8696 states in all)
    rng = random.Random(20241105)
    corpus = [
        "e", "0", "1", "0*", "0*1*", "0*|1*", "(0|1)*", "(0|1)*1", "0(0|1)*1", "01",
        "0110|1001", "(01)*", "0*10*", "(1|e)(01)*(0|e)", "(0|1)(0|1)", "(0|1)*(0|e)(1|e)",
        "(0|1)*0(0|1)*1(0|1)*|(0|1)*1(0|1)*0(0|1)*", "((e)*)*", "(e|0*)*1",
        "(0|1)*0(0|1)(0|1)(0|1)", "(((1|(1|1))|((1|1)|(1|1))))*",
    ] + [_random_regex(rng, rng.randrange(1, 8)) for _ in range(2000)]
    rows = [(d.trans, d.start, sorted(d.accept)) for d in map(compile_regex, corpus)]
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == "7e87c73e4860e399"


def _slipped(rng, expr):
    """expr with one seeded slip: a stray 2 or space, a * opening a branch,
    an empty group, an unbalanced parenthesis or a | (an empty branch, or a
    well-formed split of a concatenation)."""
    slip = rng.choice(["2", " ", "*", "()", "(", ")", "|"])
    if slip == "*":
        i = rng.choice([0] + [i + 1 for i, c in enumerate(expr) if c in "(|"])
    else:
        i = rng.randrange(len(expr) + 1)
    return expr[:i] + slip + expr[i:]


def test_compile_regex_answers_are_pinned_on_slipped_expressions():
    # 1000 seeded well-formed expressions, then 1500 with one or two slips
    # each: the automaton of each, state for state, or its error and offset
    rng = random.Random(20261020)
    corpus = [_random_regex(rng, rng.randrange(1, 7)) for _ in range(1000)]
    for _ in range(1500):
        expr = _random_regex(rng, rng.randrange(1, 7))
        for _ in range(rng.randint(1, 2)):
            expr = _slipped(rng, expr)
        corpus.append(expr)
    rows = [_regex_answer(expr) for expr in corpus]
    assert sum(len(row) == 2 for row in rows) == 1483
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == "ef650ad23a3479c3"


def test_compile_regex_reads_deep_nesting():
    # one left-to-right pass with an explicit stack of open groups: the
    # nesting depth costs no Python frames
    n = 10_000
    start = time.process_time()
    dfa = compile_regex("(" * n + "0" + ")*" * n)
    assert time.process_time() - start < 1
    assert [b for b in WORDS7 if dfa.accepts(b)] == ["", "0", "00", "000", "0000", "00000",
                                                     "000000", "0000000"]
    with pytest.raises(FormatError, match=f"unbalanced parenthesis in regex .at offset {n + 2}"):
        compile_regex("(" * n + "0")


@given(REGEXES)
def test_minimize_preserves_language_and_is_minimal(expr):
    dfa = compile_regex(expr)
    small = dfa.minimize()
    assert len(small) <= len(dfa)
    for b in WORDS8:
        assert small.accepts(b) == dfa.accepts(b), (expr, b)
    assert len(small.minimize()) == len(small)
    # minimal: every two states are told apart by some word
    for p, q in itertools.combinations(range(len(small)), 2):
        assert not Dfa(small.trans, p, small.accept).equivalent(
            Dfa(small.trans, q, small.accept)
        ), (expr, p, q)


def test_minimize_split_regex_to_four_states():
    # words with both a 0 and a 1: nothing, only 0s, only 1s, both
    dfa = compile_regex("(0|1)*0(0|1)*1(0|1)*|(0|1)*1(0|1)*0(0|1)*")
    assert len(dfa) == 13
    small = dfa.minimize()
    assert len(small) == 4
    assert small.equivalent(both_symbols_dfa())


def test_minimize_drops_unreachable_states():
    dfa = Dfa([(0, 0), (1, 1), (2, 0)], 0, {0, 2})
    assert len(dfa.minimize()) == 1


def test_explore_stops_at_the_automaton_budget():
    last = AUTOMATON_BUDGET - 1
    chain = explore(0, lambda q, c: min(q + 1, last), lambda q: q == last)
    assert len(chain) == AUTOMATON_BUDGET and chain.accepts("0" * last)
    with pytest.raises(CapacityError, match=f"budget of {AUTOMATON_BUDGET} states"):
        explore(0, lambda q, c: q + 1, lambda q: False)


@pytest.mark.parametrize(
    "spec",
    [
        # the minimal Dfa has 2^17 states, one per content of the last 17 symbols
        "re:(0|1)*0" + "(0|1)" * 16,
        "or(k11(64),no-kk(64))",
        "and(uniform(64),k11(64))",
    ],
)
def test_automaton_constructions_refuse_past_the_budget(spec):
    t0 = time.perf_counter()
    with pytest.raises(CapacityError, match="budget"):
        parse_language(spec)
    assert time.perf_counter() - t0 < 10


def test_subset_construction_refuses_past_its_budget():
    # the reversal of k11(64) keeps thousands of subsets of thousands of
    # states each; summed subset sizes bound it, not the state count
    t0 = time.perf_counter()
    with pytest.raises(CapacityError, match=f"budget of {SUBSET_BUDGET} kept items"):
        parse_language("rev(k11(64))")
    assert time.perf_counter() - t0 < 2
    assert parse_language("rev(k11(20))").contains("0011")


def test_dfa_from_finite():
    words = {"", "01", "0110"}
    dfa = dfa_from_finite(words)
    for b in WORDS7:
        assert dfa.accepts(b) == (b in words)


def _prefix_set_trie(words):
    # the reference construction: every prefix of every word, collected
    # before the automaton is explored
    words = set(words)
    prefixes = {w[:i] for w in words for i in range(len(w) + 1)}

    def step(p, c):
        q = None if p is None else p + "01"[c]
        return q if q in prefixes else None

    return explore("", step, lambda p: p in words)


def test_dfa_from_finite_walks_the_prefix_set_trie():
    rng = random.Random(2901)
    for _ in range(300):
        words = {"".join(rng.choice("01") for _ in range(rng.randint(0, 10)))
                 for _ in range(rng.randint(0, 40))}
        ref = _prefix_set_trie(words)
        for given_as in (words, frozenset(words), sorted(words) * 2):
            dfa = dfa_from_finite(given_as)
            assert (dfa.trans, dfa.start, dfa.accept) == (ref.trans, ref.start, ref.accept)


def test_a_trie_past_the_budget_is_refused_in_small_memory(monkeypatch):
    # 48 620 words of 18 letters: their prefix set alone outweighs the bound
    words = []
    for zeros in itertools.combinations(range(18), 9):
        chars = ["1"] * 18
        for p in zeros:
            chars[p] = "0"
        words.append("".join(chars))
    lang = finite_language(words)
    monkeypatch.setattr(automata, "AUTOMATON_BUDGET", 2000)
    tracemalloc.start()
    try:
        assert lang.form is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_count_window_dfa():
    win = count_window_dfa(2, 1)
    for b in WORDS7:
        assert win.accepts(b) == (b.count("0") == 2 and b.count("1") == 1)


def test_both_symbols_dfa():
    dfa = both_symbols_dfa()
    for b in WORDS7:
        assert dfa.accepts(b) == ("0" in b and "1" in b)


# --- grammars ---------------------------------------------------------------


def test_cfg_parse_and_membership():
    cfg = Cfg.parse(ANBN)
    for b in WORDS7:
        k = len(b) // 2
        assert cfg.contains(b) == (b == "0" * k + "1" * k and len(b) % 2 == 0)


def test_cfg_dyck_membership():
    cfg = Cfg.parse(DYCK)

    def ref(b):
        depth = 0
        for c in b:
            depth += 1 if c == "0" else -1
            if depth < 0:
                return False
        return depth == 0

    for b in WORDS7:
        assert cfg.contains(b) == ref(b)


def test_cfg_parse_errors():
    with pytest.raises(FormatError):
        Cfg.parse("S -> 0 T 1")  # T never defined
    with pytest.raises(FormatError):
        Cfg.parse("")
    with pytest.raises(FormatError):
        Cfg.parse("S 0 1")
    with pytest.raises(FormatError):
        Cfg.parse("S -> 0 | ")  # empty alternative
    with pytest.raises(ValueError):
        Cfg("S", {"S": [("T",)]})  # constructor-level validation


def test_cfg_emptiness():
    assert Cfg.parse("S -> S").shortest_length() is None
    assert Cfg.parse("S -> 0 S | S 1").shortest_length() is None  # no terminating rule
    assert Cfg.parse(ANBN).shortest_length() == 0


def test_cfg_shortest_word():
    assert Cfg.parse(ANBN).shortest_word() == ""
    assert Cfg.parse("S -> 0 S 1 | 0 1").shortest_word() == "01"
    assert Cfg.parse("S -> 1 | 0").shortest_word() == "0"
    assert Cfg.parse("S -> S").shortest_word() is None


def test_cfg_shortest_word_without_recursion():
    # a unit cycle at equal length, and a derivation 1501 steps deep
    assert Cfg.parse("S -> A\nA -> S | 0 1").shortest_word() == "01"
    lines = [f"N{i} -> 0 N{i + 1}" for i in range(1500)] + ["N1500 -> 1"]
    assert Cfg.parse("\n".join(lines)).shortest_word() == "0" * 1500 + "1"


def test_cfg_swap_union_reverse():
    anbn = Cfg.parse(ANBN)
    swapped = anbn.swap01()
    hulled = anbn.union(swapped)
    zk1 = Cfg.parse("S -> 0 S | 1")  # words 0^k 1
    for b in WORDS7:
        k = len(b) // 2
        is_anbn = len(b) % 2 == 0 and b == "0" * k + "1" * k
        is_bnan = len(b) % 2 == 0 and b == "1" * k + "0" * k
        assert swapped.contains(b) == is_bnan
        assert hulled.contains(b) == (is_anbn or is_bnan)
        assert zk1.reverse().contains(b) == (b != "" and b[0] == "1" and "1" not in b[1:])


def test_intersect_regular_products():
    anbn = Cfg.parse(ANBN)
    with_both = intersect_regular(anbn, both_symbols_dfa())
    assert with_both.shortest_length() == 2
    assert with_both.shortest_word() == "01"
    exact22 = intersect_regular(anbn, count_window_dfa(2, 2))
    for b in WORDS7:
        assert exact22.contains(b) == (b == "0011")
    assert intersect_regular(anbn, count_window_dfa(1, 0)).shortest_length() is None


def test_intersect_regular_pointwise():
    dyck = Cfg.parse(DYCK)
    window = compile_regex("0*1*")
    prod = intersect_regular(dyck, window)
    for b in WORDS7:
        assert prod.contains(b) == (dyck.contains(b) and window.accepts(b))


def test_intersect_regular_refuses_a_product_past_its_budget():
    # S -> S S joins every two reached triples that meet in a state of the
    # 442-state window; the Dyck grammar's product there stays far smaller
    with pytest.raises(CapacityError, match="budget"):
        intersect_regular(Cfg.parse("S -> S S | 0 | 1"), count_window_dfa(20, 20), 2 * 10**5)
    # the default budget, PRODUCT_BUDGET, holds the Dyck product
    assert intersect_regular(Cfg.parse(DYCK), count_window_dfa(2, 2)).shortest_length() == 4


def test_intersect_regular_budget_charges_what_the_product_builds():
    # a word of length 12 binarizes to 11 two-symbol bodies, each with at
    # most one nonterminal.  Bottom-up from the automaton's moves, such a
    # body is built once per state it starts in: from p the first symbol
    # leads to one state, where the rest has, by induction, one triple.  So
    # 11 |Q| bodies per word are built, not 10 |Q|^2 + |Q| as in the full
    # triple product.
    words = [format(i, "012b") for i in range(1, 401)]
    cfg = Cfg.parse("S -> " + " | ".join(" ".join(w) for w in words))
    d = both_symbols_dfa()
    size = len(words) * 11 * len(d)
    assert intersect_regular(cfg, d, size).shortest_length() is not None
    with pytest.raises(CapacityError, match=f"budget of {size - 1} bodies"):
        intersect_regular(cfg, d, size - 1)


@pytest.mark.parametrize("rules", ["S -> 0 0 1 | 1 S%1\nS%1 -> 1", "S -> 0 0 1 | 1 S%2\nS%2 -> 1"])
def test_binarizing_keeps_nonterminals_named_like_its_helpers(rules):
    # the language is {001, 11}; binarizing 0 0 1 adds a helper named S%k
    cfg = Cfg.parse(rules)
    prod = intersect_regular(cfg, both_symbols_dfa())
    assert [b for b in WORDS7 if prod.contains(b)] == ["001"]
    assert cfg.count_vectors(lambda i, j: i <= 4 and j <= 4, 10**5) == {(2, 1), (0, 2)}


@pytest.mark.parametrize(
    "rules", [ANBN, DYCK, "S -> S S | 0 | 1", "S -> 0 S 0 | 1 S 1 | 0 | 1 | eps", "S -> S"]
)
def test_count_vectors_match_the_generated_words(rules):
    cfg = Cfg.parse(rules)
    expected = {
        (b.count("0"), b.count("1"))
        for b in all_binary_words(8)
        if b.count("0") <= 4 and b.count("1") <= 4 and cfg.contains(b)
    }
    assert cfg.count_vectors(lambda i, j: i <= 4 and j <= 4, 10**6) == expected


def test_count_vectors_keep_only_what_fits():
    cfg = Cfg.parse(DYCK)
    assert cfg.count_vectors(lambda i, j: i + j <= 6, 10**6) == {(0, 0), (1, 1), (2, 2), (3, 3)}
    assert cfg.count_vectors(lambda i, j: i <= 1 and j <= 200, 10**6) == {(0, 0), (1, 1)}


def test_count_vectors_sum_each_pair_a_bounded_number_of_times():
    # about 150 rounds of the fixpoint, 900 vectors in the window: a naive
    # fixpoint re-sums every vector every round (some 5*10^5 sums), the
    # semi-naive one sums each vector once per body
    cfg = Cfg.parse("S -> 0 S 0 | 1 S 1 | 0 | 1 | 0 0 | 1 1")
    vecs = cfg.count_vectors(lambda i, j: (i <= 1 and j <= 300) or (i <= 300 and j <= 1), 10**4)
    assert (1, 300) in vecs and (0, 300) in vecs and (1, 299) not in vecs


def test_count_vectors_budget():
    cfg = Cfg.parse("S -> S S | 0 | 1")
    with pytest.raises(CapacityError, match="budget"):
        cfg.count_vectors(lambda i, j: i <= 60 and j <= 60, 10**5)


def _random_cfg(rng):
    heads = [f"N{i}" for i in range(rng.randint(1, 3))]
    symbols = heads + ["0", "1"]
    prods = {
        h: [tuple(rng.choice(symbols) for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(1, 3))]
        for h in heads
    }
    return Cfg(heads[0], prods)


def _random_dfa(rng):
    n = rng.randint(1, 4)
    trans = [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
    return Dfa(trans, 0, [q for q in range(n) if rng.random() < 0.5])


def _generated_up_to(cfg, n):
    # every generated word of length at most n, by a least fixpoint on sets
    words = {h: set() for h in cfg.productions}
    changed = True
    while changed:
        changed = False
        for head, bodies in cfg.productions.items():
            for body in bodies:
                acc = {""}
                for sym in body:
                    parts = {sym} if sym in "01" else words[sym]
                    acc = {a + w for a in acc for w in parts if len(a) + len(w) <= n}
                if not acc <= words[head]:
                    words[head] |= acc
                    changed = True
    return words[cfg.start]


def _check_least(cfg, words):
    # shortest_word is the length-lexicographically least word, or else
    # lies beyond the enumerated lengths
    got = cfg.shortest_word()
    if words:
        assert got == min(words, key=lambda b: (len(b), b))
    else:
        assert got is None or len(got) > 7 and cfg.contains(got)


def test_grammar_core_against_brute_force():
    rng = random.Random(2024)
    for _ in range(100):
        g, d = _random_cfg(rng), _random_dfa(rng)
        in_g = _generated_up_to(g, 7)
        in_both = {b for b in in_g if d.accepts(b)}
        prod = intersect_regular(g, d)
        for b in WORDS7:
            assert g.contains(b) == (b in in_g), (g.productions, b)
            assert prod.contains(b) == (b in in_both), (g.productions, d.trans, b)
        _check_least(g, in_g)
        _check_least(prod, in_both)
        verdict = decide(g)
        mixed = {b for b in in_g if "0" in b and "1" in b}
        if mixed:
            assert verdict.witness == min(mixed, key=lambda b: (len(b), b))
        else:
            assert verdict.answer or len(verdict.witness) > 7
