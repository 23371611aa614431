"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Every expected value here is either a small exact artifact kept in this
file or recomputed on the spot by an independent oracle (the recognizers
and the brute-force listings), never by the code path under test.
"""

import itertools
import math
import random
import time

from langrep import oracles
from langrep.codec import adjacent, decode, decode_word, encode
from langrep.constructions import (
    CLASSES,
    build_copy,
    build_copy_complement,
    build_lyndon,
    build_palindrome,
)
from langrep.decide import decide
from langrep.graphs import Graph, complete_graph, cycle_graph, null_graph
from langrep.grammar import Cfg
from langrep.isomorphism import enumerate_graphs, isomorphic
from langrep.languages import (
    conjoin,
    disjoin,
    negate,
    parse_language,
    reverse_language,
)
from langrep.represent import check, evaluate, search
from langrep.words import VertexWord


def _report(num, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} ({name}): {status} [{elapsed:.2f}s of {budget:.0f}s]")


def _c4():
    return Graph("1234", [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")])


# --- 1: figure vectors ------------------------------------------------------

_FIGURE_VECTORS = [
    ("palindrome", "423121123142"),
    ("copy", "121324123142"),
    ("lyndon", "111222333444123412341124113234234223224343433433444444"),
    ("<0101>", "14213243"),
    ("wrep", "14213243"),
]


def test_criterion_01_figure_vectors():
    t0 = time.monotonic()
    failures = []
    for spec, text in _FIGURE_VECTORS:
        report = check(VertexWord.parse(text), parse_language(spec), _c4())
        if not report.match:
            failures.append(f"{spec}: {report.message}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 1.0
    _report(1, "figure vectors", ok, elapsed, 1.0)
    assert not failures, failures
    assert elapsed < 1.0


# --- 2: small-language families ---------------------------------------------


def _clique_plus_isolates(g):
    core = [v for v in g.vertices if g.degree(v) > 0]
    return all(g.has_edge(u, v) for u, v in itertools.combinations(core, 2))


def _complete_bipartite_plus_isolates(g):
    core = [v for v in g.vertices if g.degree(v) > 0]
    if not core:
        return True
    sub = g.induced(core)
    parts = sub.bipartition()
    if parts is None:
        return False
    left, right = parts
    return all(sub.has_edge(u, v) for u in left for v in right)


def test_criterion_02_explained_examples():
    t0 = time.monotonic()
    failures = []
    word = VertexWord.parse("14213243")
    k2n2 = Graph("abcd", [("a", "b")])
    if isomorphic(evaluate(word, parse_language("<0011>")), k2n2) is None:
        failures.append("blocks language on the figure word")
    two_k2 = Graph("abcd", [("a", "b"), ("c", "d")])
    if isomorphic(evaluate(word, parse_language("<0011,0110>")), two_k2) is None:
        failures.append("blocks-or-nesting language on the figure word")

    families = [
        ("{}", {1}, lambda g: g.size == 0),
        ("re:(0|1)*", {1}, lambda g: g.size == g.order * (g.order - 1) // 2),
        ("<01>", {1, 2}, _clique_plus_isolates),
        ("<001,010,011>", {1, 2, 3}, _complete_bipartite_plus_isolates),
    ]
    for spec, freqs, predicate in families:
        lang = parse_language(spec)
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                got = search(g, lang, freqs) is not None
                if got != predicate(g):
                    failures.append(
                        f"{spec} n={n} edges={sorted(g.edges)}: "
                        f"search={got} predicate={predicate(g)}"
                    )
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 5.0
    _report(2, "small-language families", ok, elapsed, 5.0)
    assert not failures, failures[:5]
    assert elapsed < 5.0


# --- 3: universal builders --------------------------------------------------


def test_criterion_03_universal_builders():
    t0 = time.monotonic()
    failures = []
    builders = [
        ("palindrome", build_palindrome, "palindrome"),
        ("copy", build_copy, "copy"),
        ("copy-complement", build_copy_complement, "not(copy)"),
        ("lyndon", build_lyndon, "lyndon"),
    ]
    total = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            total += 1
            for name, builder, spec in builders:
                report = check(builder(g), parse_language(spec), g)
                if not report.match:
                    failures.append(f"{name} n={n} edges={sorted(g.edges)}")
    if total != 208:
        failures.append(f"expected 208 graphs of order <= 6, saw {total}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    _report(3, "universal builders", ok, elapsed, 120.0)
    assert not failures, failures[:5]
    assert elapsed < 120.0


# --- 4: class table ---------------------------------------------------------


# the class-table rows with multiplicities, each checked on every graph up
# to order 6, or up to order 5 for the tags in _ORDER_5
_TABLE_ROWS = [row for row in CLASSES if row.multiplicities is not None]
_ORDER_5 = {"comparability", "bipartite-lyndon-odd", "cluster"}


def test_criterion_04_class_table():
    t0 = time.monotonic()
    failures = []
    for row in _TABLE_ROWS:
        lang = parse_language(row.spec)
        for n in range(1, (5 if row.tag in _ORDER_5 else 6) + 1):
            for g in enumerate_graphs(n):
                got = search(g, lang, row.bounds(n)) is not None
                want = row.recognizer(g)
                if got != want:
                    failures.append(
                        f"{row.spec} n={n} edges={sorted(g.edges)}: "
                        f"search={got} oracle={want}"
                    )
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 600.0
    _report(4, "class table", ok, elapsed, 600.0)
    assert not failures, failures[:5]
    assert elapsed < 600.0


# --- 5: negative witness ----------------------------------------------------


def test_criterion_05_negative_witness():
    t0 = time.monotonic()
    failures = []
    c5k1 = Graph(
        "abcdef",
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
    )
    lang = parse_language("<0011,0110>")
    if search(c5k1, lang, {2}) is not None:
        failures.append("2-uniform search unexpectedly found a word")
    report = check(VertexWord.parse("eacdabdebcf"), lang, c5k1)
    if not report.match:
        failures.append(f"mixed-frequentness witness: {report.message}")
    elapsed = time.monotonic() - t0
    ok = not failures
    _report(5, "negative witness", ok, elapsed, 60.0)
    assert not failures, failures


# --- 6: randomized structural properties ------------------------------------

_CASES_PER_PROPERTY = 10_000


def _random_word(rng, max_letters=5, max_len=10):
    n = rng.randint(1, max_letters)
    length = rng.randint(1, max_len)
    return VertexWord(chr(ord("a") + rng.randrange(n)) for _ in range(length))


def _property_hereditarity(rng, pool):
    lang = rng.choice(pool)
    word = _random_word(rng)
    vs = sorted(word.alphabet())
    keep = rng.sample(vs, rng.randint(1, len(vs)))
    return evaluate(word.project_set(keep), lang) == evaluate(word, lang).induced(keep)


def _property_complement(rng, pool):
    lang = rng.choice(pool)
    word = _random_word(rng)
    return evaluate(word, negate(lang)) == evaluate(word, lang).complement()


def _property_boolean(rng, pool):
    l1, l2 = rng.choice(pool), rng.choice(pool)
    word = _random_word(rng)
    e1 = set(evaluate(word, l1).edges)
    e2 = set(evaluate(word, l2).edges)
    both = set(evaluate(word, conjoin(l1, l2)).edges)
    either = set(evaluate(word, disjoin(l1, l2)).edges)
    return both == (e1 & e2) and either == (e1 | e2)


def _property_reversal(rng, pool):
    lang = rng.choice(pool)
    word = _random_word(rng)
    return evaluate(word.reverse(), reverse_language(lang)) == evaluate(word, lang)


def _property_twins(rng, pool):
    lang = rng.choice(pool)
    word = _random_word(rng)
    v = rng.choice(sorted(word.alphabet()))
    fresh = "z"
    letters = []
    for tok in word:
        letters.append(tok)
        if tok == v:
            letters.append(fresh)
    freq = word.frequency_profile()[v]
    true_twin = lang.contains("01" * freq)
    expected = evaluate(word, lang).add_twin(v, fresh, true_twin=true_twin)
    return evaluate(VertexWord(letters), lang) == expected


def _property_repetition(rng, lang):
    word = _random_word(rng)
    i = rng.randrange(len(word))
    letters = list(word)
    letters.insert(i, letters[i])
    return evaluate(VertexWord(letters), lang) == evaluate(word, lang)


def _property_nearly_uniform(rng):
    k = rng.randint(1, 2)
    words = set()
    for _ in range(rng.randint(1, 3)):
        zeros, ones = (k, k + 1) if rng.random() < 0.5 else (k + 1, k)
        chars = ["0"] * zeros + ["1"] * ones
        rng.shuffle(chars)
        b = "".join(chars)
        words.add(b)
        words.add(b.translate(str.maketrans("01", "10")))
    lang = parse_language("<" + ",".join(sorted(words)) + ">")
    g = evaluate(_random_word(rng), lang)
    return oracles.is_bipartite(g)


def test_criterion_06_randomized_properties():
    t0 = time.monotonic()
    rng = random.Random(20_250_101)
    finite_pool = [
        parse_language(s)
        for s in ("<01>", "<001>", "<0011>", "<0101>", "<0110>", "<01,0011>")
    ]
    full_pool = finite_pool + [parse_language("wrep"), parse_language("dyck")]
    repetition_lang = parse_language("hull(re:0(0|1)*1)")
    suites = [
        ("hereditarity", lambda: _property_hereditarity(rng, full_pool)),
        ("complement duality", lambda: _property_complement(rng, finite_pool)),
        ("boolean compatibility", lambda: _property_boolean(rng, finite_pool)),
        ("reversal identity", lambda: _property_reversal(rng, full_pool)),
        ("twin insertion", lambda: _property_twins(rng, finite_pool)),
        ("repetition stability", lambda: _property_repetition(rng, repetition_lang)),
        ("nearly-uniform bipartiteness", lambda: _property_nearly_uniform(rng)),
    ]
    failures = []
    for name, prop in suites:
        bad = sum(1 for _ in range(_CASES_PER_PROPERTY) if not prop())
        if bad:
            failures.append(f"{name}: {bad} of {_CASES_PER_PROPERTY} cases failed")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    _report(6, "randomized properties", ok, elapsed, 120.0)
    assert not failures, failures
    assert elapsed < 120.0


# --- 7: counterexample regressions ------------------------------------------


def _class_listing(lang, freqs, max_order):
    found = []
    for n in range(1, max_order + 1):
        for g in enumerate_graphs(n):
            if search(g, lang, freqs) is not None:
                found.append(g)
    return found


def _same_listing(a, b):
    if len(a) != len(b):
        return False
    return all(
        any(isomorphic(g, h) is not None for h in b if h.order == g.order) for g in a
    )


def test_criterion_07_counterexamples():
    t0 = time.monotonic()
    failures = []

    # equal order-<=4 listings from disjoint languages
    l_single = parse_language("<01>")
    l_shuffle = parse_language("<0011,0101,0110>")
    if set(l_single.words) & set(l_shuffle.words):
        failures.append("the two clique-family languages intersect")
    if not _same_listing(
        _class_listing(l_single, {1, 2}, 4), _class_listing(l_shuffle, {1, 2}, 4)
    ):
        failures.append("clique-family listings differ at order <= 4")

    # C4 separates the alternation language from its nesting extension
    c4 = _c4()
    if search(c4, parse_language("<0101>"), {2}) is None:
        failures.append("C4 lost under the alternation language")
    if search(c4, parse_language("<0101,0110>"), {2}) is not None:
        failures.append("C4 found under the alternation-or-nesting language")

    # a strict inclusion chain where the middle language gains C4
    l1 = parse_language("<0101,0110>")
    l2 = parse_language("<0101,0110,01110,01101,01011,01100,01010,01001>")
    l3 = parse_language(
        "<0101,0110,01110,01101,01011,01100,01010,01001,"
        "010011,010101,010110,011001,011010,011100>"
    )
    sizes = (len(l1.words), len(l2.words), len(l3.words))
    if sizes != (4, 16, 28):
        failures.append(f"chain word counts {sizes} != (4, 16, 28)")
    if not (set(l1.words) < set(l2.words) < set(l3.words)):
        failures.append("chain inclusions are not strict")
    witness = VertexWord.parse("abdacbdcbd")
    produced = evaluate(witness, l2)
    wanted = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    if produced != wanted:
        failures.append(f"middle-language witness produced {sorted(produced.edges)}")
    if search(wanted, l1, {2}) is not None:
        failures.append("C4 unexpectedly representable in the smallest language")

    elapsed = time.monotonic() - t0
    ok = not failures
    _report(7, "counterexample regressions", ok, elapsed, 60.0)
    assert not failures, failures


# --- 8: decision procedure --------------------------------------------------


def test_criterion_08_decide():
    t0 = time.monotonic()
    failures = []
    cases = [
        (Cfg.parse("S -> 0 S 1 | eps"), False),
        (Cfg.parse("S -> 0 S 1 S | eps"), False),
        (parse_language("re:0*|1*"), True),
        (Cfg.parse("S -> 0 S"), True),
        (parse_language("<0101>"), False),
    ]
    for spec, want in cases:
        verdict = decide(spec, "bounded-treewidth")
        if verdict.answer is not want:
            failures.append(f"{spec!r}: answer {verdict.answer}, wanted {want}")
        if not want:
            b = verdict.witness
            if b is None or "0" not in b or "1" not in b:
                failures.append(f"{spec!r}: bad witness {b!r}")
    first = decide(Cfg.parse("S -> 0 S 1 | eps")).witness
    if first != "01":
        failures.append(f"unequal-blocks witness {first!r} != '01'")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 1.0
    _report(8, "decision procedure", ok, elapsed, 1.0)
    assert not failures, failures
    assert elapsed < 1.0


# --- 9: codec ----------------------------------------------------------------


def _payload_bytes(blob, n, wordlen):
    pos = 5
    for value in (n, wordlen):
        while blob[pos] & 0x80:
            pos += 1
        pos += 1
    return len(blob) - pos


def test_criterion_09_codec():
    t0 = time.monotonic()
    failures = []

    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for mode in ("sparse", "dense"):
                if decode(encode(g, mode)) != g:
                    failures.append(f"round trip n={n} {mode}")

    rng = random.Random(90)
    small_cases = []
    for i in range(1000):
        n = rng.randint(400, 500) if i % 20 == 0 else rng.randint(1, 60)
        p = rng.uniform(0.0, 4.0 / n) if n > 60 else rng.uniform(0.0, 0.5)
        names = [f"n{k}" for k in range(n)]
        edges = [
            (names[a], names[b])
            for a in range(n)
            for b in range(a)
            if rng.random() < p
        ]
        g = Graph(names, edges)
        blob = encode(g, "sparse", include_names=False)
        if decode(blob) != g.relabel(
            {v: w for v, w in zip(g.vertices, sorted(decode(blob).vertices))}
        ):
            failures.append(f"random round trip case {i} (n={n})")
        bits = (4 * n + 2 * g.size) * max(1, math.ceil(math.log2(n)) if n > 1 else 1)
        if _payload_bytes(blob, n, 4 * n + 2 * g.size) != (bits + 7) // 8:
            failures.append(f"payload bit-length law case {i} (n={n}, m={g.size})")
        if n <= 60:
            small_cases.append((encode(g, "sparse"), g))

    for _ in range(10_000):
        blob, g = rng.choice(small_cases)
        u, v = rng.choice(g.vertices), rng.choice(g.vertices)
        if adjacent(blob, u, v) != g.has_edge(u, v):
            failures.append(f"adjacency sample ({u},{v})")
            break

    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    _report(9, "codec", ok, elapsed, 60.0)
    assert not failures, failures[:5]
    assert elapsed < 60.0


# --- 10: enumeration ---------------------------------------------------------


def test_criterion_10_enumeration():
    t0 = time.monotonic()
    counts = [len(enumerate_graphs(n)) for n in range(1, 8)]
    ok = counts == [1, 2, 4, 11, 34, 156, 1044]
    elapsed = time.monotonic() - t0
    _report(10, "enumeration counts", ok, elapsed, 60.0)
    assert counts == [1, 2, 4, 11, 34, 156, 1044], counts
