"""Edgeless-class decision over finite, regular, and grammar specs, and
over every builtin with a regular or context-free form."""

import random
import time
import tracemalloc

import pytest

from conftest import all_binary_words, degeneracy, treewidth_exact
from langrep.automata import compile_regex, dfa_from_finite
from langrep.decide import decide
from langrep.errors import CapacityError
from langrep.grammar import Cfg
from langrep.graphs import complete_graph
from langrep.languages import finite_language, parse_language
from langrep.represent import evaluate
from langrep.words import VertexWord, complement_word


def test_unequal_blocks_grammar_is_unbounded():
    cfg = Cfg.parse("S -> 0 S 1 | eps")
    verdict = decide(cfg, "bounded-treewidth")
    assert verdict.answer is False
    assert verdict.witness == "01"


def test_dyck_grammar_is_unbounded():
    cfg = Cfg.parse("S -> 0 S 1 S | eps")
    verdict = decide(cfg, "treewidth")
    assert verdict.answer is False
    assert "0" in verdict.witness and "1" in verdict.witness
    assert cfg.contains(verdict.witness)


def test_single_symbol_regex_is_bounded():
    lang = parse_language("re:0*|1*")
    verdict = decide(lang, "bounded-degeneracy")
    assert verdict.answer is True
    assert verdict.witness is None


def test_nonterminating_grammar_is_bounded():
    cfg = Cfg.parse("S -> 0 S")
    assert decide(cfg).answer is True


def test_finite_language_spec():
    verdict = decide(parse_language("<0101>"), "degeneracy")
    assert verdict.answer is False
    assert verdict.witness == "0101"


def test_witness_is_shortest():
    # 0011 and 0101 both qualify; length ties break lexicographically
    verdict = decide(parse_language("<0101,0011>"))
    assert verdict.witness == "0011"


def test_raw_input_kinds():
    assert decide(frozenset({"000", "111"})).answer is True
    assert decide(["000", "01"]).witness == "01"
    assert decide(compile_regex("0*10*")).answer is False
    assert decide(compile_regex("1*")).answer is True


def test_property_aliases_and_errors():
    assert decide(["01"], "treewidth").property == "bounded-treewidth"
    assert decide(["01"], "degeneracy").property == "bounded-degeneracy"
    assert decide(["01"], "bounded-degeneracy").property == "bounded-degeneracy"
    with pytest.raises(ValueError):
        decide(["01"], "planarity")


def test_a_finite_word_set_is_scanned_as_its_trie_decides():
    # every subset of the 15 binary words of length <= 3, as a collection,
    # and every symmetric one as a finite language, against its trie Dfa
    short = list(all_binary_words(3))
    for mask in range(1 << len(short)):
        words = [w for i, w in enumerate(short) if mask >> i & 1]
        expected = decide(dfa_from_finite(words))
        assert decide(words) == decide(frozenset(words)) == expected, words
        if all(complement_word(w) in words for w in words):
            assert decide(finite_language(words)) == expected, words


def test_a_word_with_another_symbol_is_no_witness():
    assert decide(["0a1", "0011"]).witness == "0011"
    assert decide({"01x"}).answer is True


def test_opaque_language_rejected():
    with pytest.raises(ValueError):
        decide(parse_language("copy"))


@pytest.mark.parametrize(
    "spec",
    ["wrep", "dyck", "balanced", "palindrome", "0n1n", "even-counts", "odd-counts",
     "no-kk(2)", "k11(1)", "uniform(2)"],
)
def test_regular_and_context_free_builtins_decide(spec):
    # every one holds a word with both symbols; the witness is the
    # length-lexicographically least such word
    lang = parse_language(spec)
    least = next(
        b for b in all_binary_words(6) if "0" in b and "1" in b and lang.contains(b)
    )
    verdict = decide(lang)
    assert verdict.answer is False
    assert len(verdict.witness) == len(least) and lang.contains(verdict.witness)
    if spec not in ("dyck", "balanced", "palindrome", "0n1n"):
        assert verdict.witness == least


@pytest.mark.parametrize("spec", ["re:0*|1*", "<00,11>", "re:(00)*|(11)*", "and(wrep,re:0*|1*)"])
def test_bounded_verdicts_agree_with_the_oracles(spec):
    # every graph the language represents is edgeless: treewidth and
    # degeneracy 0 on the graphs of seeded words
    lang = parse_language(spec)
    assert decide(lang).answer is True
    rng = random.Random(spec)
    for _ in range(30):
        n = rng.randint(1, 7)
        word = VertexWord([f"x{rng.randrange(n)}" for _ in range(rng.randint(1, 3 * n))])
        g = evaluate(word, lang)
        assert treewidth_exact(g) == degeneracy(g) == 0, word


@pytest.mark.parametrize("spec", ["<0101>", "<0110>", "<01,001>", "wrep", "dyck", "halfline",
                                  "even-counts", "palindrome", "uniform(2)"])
def test_unbounded_verdicts_agree_with_the_oracles(spec):
    # the witness, read as a word over two vertices, represents K2
    lang = parse_language(spec)
    verdict = decide(lang)
    assert verdict.answer is False
    g = evaluate(VertexWord(["v1" if b == "0" else "v2" for b in verdict.witness]), lang)
    assert g == complete_graph(2)
    assert treewidth_exact(g) == degeneracy(g) == 1


@pytest.mark.parametrize("spec", ["copy", "lyndon", "lyndon-odd", "not(dyck)"])
def test_opaque_builtins_rejected(spec):
    with pytest.raises(ValueError, match="has none"):
        decide(parse_language(spec))


def test_non_language_rejected():
    with pytest.raises(ValueError, match="has none"):
        decide("dyck")


def test_bounded_builtin_combinations():
    assert decide(parse_language("and(wrep,re:0*|1*)")).answer is True
    assert decide(parse_language("and(dyck,re:0*|1*)")).answer is True
    assert decide(parse_language("no-kk(1)")).answer is True


def test_grammar_with_thousands_of_terminal_heavy_bodies():
    # 4400 binarized bodies; the product with the 4-state both-symbols
    # automaton is linear in them and is built without a budget
    words = [format(i, "012b") for i in range(1, 401)]
    cfg = Cfg.parse("S -> " + " | ".join(" ".join(w) for w in words))
    verdict = decide(cfg)
    assert verdict.answer is False and verdict.witness == "000000000001"


def test_dyck_and_k11_decides_in_under_a_second():
    t0 = time.monotonic()
    verdict = decide(parse_language("and(dyck,k11(3))"))
    assert (verdict.answer, verdict.witness) == (False, "01")
    assert time.monotonic() - t0 < 1.0
    assert isinstance(parse_language("and(dyck,k11(4))").form, Cfg)


def test_cyclic_and_deep_grammars_decide():
    # a unit cycle at equal length, and a derivation 1501 steps deep
    assert decide(Cfg.parse("S -> A\nA -> S | 0 1")).witness == "01"
    chain = Cfg.parse(
        "\n".join([f"N{i} -> 0 N{i + 1}" for i in range(1500)] + ["N1500 -> 1"])
    )
    assert decide(chain).witness == "0" * 1500 + "1"


def test_verdict_to_json():
    verdict = decide(parse_language("<01>"))
    assert verdict.to_json() == {
        "property": "bounded-treewidth",
        "answer": False,
        "witness": "01",
    }


def _doubling_grammar(levels):
    lines = [f"N{i} -> N{i + 1} N{i + 1}" for i in range(levels - 1)]
    lines.append(f"N{levels - 1} -> 0 1")
    return Cfg.parse("\n".join(lines))


def test_short_doubling_chain_decides():
    verdict = decide(_doubling_grammar(6))
    assert verdict.answer is False
    assert len(verdict.witness) == 64


def test_derivation_cap_enforced():
    with pytest.raises(CapacityError):
        decide(_doubling_grammar(10))


def test_derivation_cap_checked_before_witness_is_built():
    # the shortest witness has 2^22 symbols; the cap refuses it by length
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="derivation cap"):
            decide(_doubling_grammar(22))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("wrong", ["0", "0111"])
def test_witness_self_check_raises(monkeypatch, wrong):
    # the check is a raise, not an assert, so it also runs under python -O;
    # "0" lacks a symbol and "0111" is not a Dyck word
    monkeypatch.setattr(Cfg, "shortest_word", lambda self: wrong)
    with pytest.raises(RuntimeError, match=repr(wrong)):
        decide(parse_language("dyck"))
