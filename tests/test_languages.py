"""Language layer: builtin predicates and exact forms against independent
references, combinators, the textual spec grammar, and the symmetry guard."""

import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import all_binary_words, gnp
from langrep.automata import Dfa
from langrep.constructions import build_lyndon
from langrep.decide import decide
from langrep.errors import FormatError, NotSymmetricError
from langrep.grammar import Cfg
from langrep.graphs import Graph
from langrep.languages import (
    MAX_BUILTIN_PARAM,
    Language,
    builtin,
    conjoin,
    disjoin,
    finite_language,
    hull,
    hull_finite,
    negate,
    parse_language,
    require_symmetric,
    reverse_language,
    trash_extend,
)
from langrep.represent import evaluate
from langrep.words import VertexWord, complement_word

WORDS8 = list(all_binary_words(8))
WORDS10 = list(all_binary_words(10))


# --- reference predicates, written from the definitions ---------------------


def ref_palindrome(b):
    return b != "" and b == b[::-1]


def ref_copy(b):
    half = len(b) // 2
    return len(b) % 2 == 0 and b[:half] == b[half:]


def _lyndon_under(b, order):
    # strictly smallest among its proper rotations
    if not b:
        return False
    key = [order.index(c) for c in b]
    return all(key < key[i:] + key[:i] for i in range(1, len(b)))


def ref_lyndon(b):
    return _lyndon_under(b, "01") or _lyndon_under(b, "10")


def ref_dyck(b):
    if b.count("0") != b.count("1"):
        return False
    zero_side = all(b[:i].count("0") >= b[:i].count("1") for i in range(len(b) + 1))
    one_side = all(b[:i].count("1") >= b[:i].count("0") for i in range(len(b) + 1))
    return zero_side or one_side


def ref_wrep(b):
    return re.fullmatch("1?(01)*0?", b) is not None


def ref_0n1n(b):
    k = len(b) // 2
    return len(b) % 2 == 0 and b in ("0" * k + "1" * k, "1" * k + "0" * k)


BUILTIN_REFERENCES = [
    ("palindrome", ref_palindrome),
    ("copy", ref_copy),
    ("lyndon", ref_lyndon),
    ("lyndon-odd", lambda b: len(b) % 2 == 1 and ref_lyndon(b)),
    ("dyck", ref_dyck),
    ("wrep", ref_wrep),
    ("0n1n", ref_0n1n),
    ("balanced", lambda b: b.count("0") == b.count("1")),
    ("odd-counts", lambda b: b.count("0") % 2 == 1 and b.count("1") % 2 == 1),
    ("even-counts", lambda b: b.count("0") % 2 == 0 and b.count("1") % 2 == 0),
]


def ref_factor_count(b, f):
    return sum(1 for i in range(len(b)) if b.startswith(f, i))


# the parametrized builtins at a few parameters, and halfline
SPEC_REFERENCES = BUILTIN_REFERENCES + [
    ("uniform(0)", lambda b: b == ""),
    ("uniform(2)", lambda b: b.count("0") == 2 and b.count("1") == 2),
    ("k11(0)", lambda b: "00" not in b and "11" not in b),
    ("k11(1)", lambda b: ref_factor_count(b, "00") <= 1 and ref_factor_count(b, "11") <= 1),
    ("k11(2)", lambda b: ref_factor_count(b, "00") <= 2 and ref_factor_count(b, "11") <= 2),
    ("no-kk(0)", lambda b: False),
    ("no-kk(1)", lambda b: b == ""),
    ("no-kk(2)", lambda b: "00" not in b and "11" not in b),
    ("no-kk(3)", lambda b: "000" not in b and "111" not in b),
    ("halfline", lambda b: b in {"01", "011", "0101", "0011", "0110",
                                 "10", "100", "1010", "1100", "1001"}),
]

CONTEXT_FREE = {"palindrome", "dyck", "balanced", "0n1n"}
OPAQUE = {"copy", "lyndon", "lyndon-odd"}


def form_test(form):
    # a form's own membership test: a Dfa run or an Earley parse
    return form.accepts if isinstance(form, Dfa) else form.contains


@pytest.mark.parametrize("name, ref", BUILTIN_REFERENCES)
def test_builtin_matches_reference(name, ref):
    lang = builtin(name)
    for b in WORDS8:
        assert lang.contains(b) == ref(b), (name, b)


@pytest.mark.parametrize("spec, ref", SPEC_REFERENCES, ids=[s for s, _ in SPEC_REFERENCES])
def test_builtin_form_agrees_with_contains_and_reference(spec, ref):
    lang = parse_language(spec)
    form = lang.form
    if spec in OPAQUE:
        assert form is None
    else:
        assert isinstance(form, Cfg if spec in CONTEXT_FREE else Dfa)
    for b in WORDS10:
        expected = ref(b)
        assert lang.contains(b) == expected, (spec, b)
        assert form is None or form_test(form)(b) == expected, (spec, b)


@pytest.mark.parametrize("spec", [s for s, _ in SPEC_REFERENCES])
def test_builtin_dfa_forms_are_swap_invariant(spec):
    lang = parse_language(spec)
    assert lang.symmetric
    if isinstance(lang.form, Dfa):
        assert lang.form.equivalent(lang.form.swap01())


def test_builtin_parameter_is_capped_before_any_allocation():
    assert len(parse_language(f"no-kk({MAX_BUILTIN_PARAM})").form) == 2 * MAX_BUILTIN_PARAM
    for name in ("uniform", "k11", "no-kk"):
        with pytest.raises(FormatError):
            parse_language(f"{name}({MAX_BUILTIN_PARAM + 1})")
    tracemalloc.start()
    try:
        with pytest.raises(FormatError):
            parse_language("no-kk(100000000)")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _long_lyndon_cases():
    rng = random.Random(60)
    words = []
    for length in (60, 61, 97, 128, 200):
        for _ in range(4):
            b = "".join(rng.choice("01") for _ in range(length))
            words.append(b)
            # its least rotation under either order (Lyndon when primitive)
            words.append(min(b[i:] + b[:i] for i in range(length)))
            c = complement_word(b)
            words.append(complement_word(min(c[i:] + c[:i] for i in range(length))))
    for k in (1, 2, 30, 75, 100):
        words += ["01" * k, "0" * k + "1", "0" * k + "1" * k]
    words += [complement_word(b) for b in words]
    g = gnp(40, 0.3, 40)
    word = build_lyndon(g)
    for u, v in itertools.combinations(g.vertices, 2):
        words.append(word.project(u, v))
    return words


def _assert_lyndon_builtins_agree(words):
    # lyndon and lyndon-odd against ref_lyndon; returns the Lyndon count
    lyndon, odd = builtin("lyndon"), builtin("lyndon-odd")
    hits = 0
    for b in words:
        expected = ref_lyndon(b)
        hits += expected
        assert lyndon.contains(b) == expected, b
        assert odd.contains(b) == (len(b) % 2 == 1 and expected), b
    return hits


def test_lyndon_matches_reference_on_long_words():
    words = _long_lyndon_cases()
    assert max(map(len, words)) >= 200
    assert 0 < _assert_lyndon_builtins_agree(words) < len(words)


def test_lyndon_matches_reference_on_every_word_to_sixteen():
    assert _assert_lyndon_builtins_agree(all_binary_words(16)) == 17598


def _with_least_rotations(b):
    # b, and its least rotation under either order (Lyndon when primitive)
    c = complement_word(b)
    return [
        b,
        min(b[i:] + b[:i] for i in range(len(b))),
        complement_word(min(c[i:] + c[:i] for i in range(len(c)))),
    ]


@pytest.mark.parametrize("density", [0.1, 0.5, 0.9])
def test_lyndon_matches_reference_on_random_words(density):
    rng = random.Random(int(density * 10))
    words = []
    for length in [1, 2, 3, 299, 300] + rng.sample(range(4, 299), 35):
        b = "".join("1" if rng.random() < density else "0" for _ in range(length))
        words += _with_least_rotations(b)
    assert 0 < _assert_lyndon_builtins_agree(words) < len(words)


def test_lyndon_matches_reference_next_to_its_run_screen():
    # 0^r 1 ... with later runs of exactly r zeros, and some with one run of
    # r + 1 zeros, the length at which the screen rejects outright
    rng = random.Random(11)
    words = []
    for r in range(1, 7):
        for longer in (False, True) * 10:
            runs = [r] + [rng.choice([r, r, rng.randint(1, r)]) for _ in range(rng.randint(1, 8))]
            if longer:
                runs[rng.randrange(1, len(runs))] = r + 1
            b = "".join("0" * t + "1" * rng.randint(1, 3) for t in runs)
            assert b.startswith("0" * r + "1") and ("0" * (r + 1) in b) == longer
            words += [b, b[:-1]] + _with_least_rotations(b)[1:]
    hits = _assert_lyndon_builtins_agree(words + [complement_word(b) for b in words])
    assert 0 < hits < 2 * len(words)


def test_parametrized_builtins():
    uni = builtin("uniform", 2)
    for b in WORDS8:
        assert uni.contains(b) == (b.count("0") == 2 and b.count("1") == 2)
    k11 = builtin("k11", 1)
    assert k11.contains("0100")  # one 00 factor and no 11
    assert not k11.contains("000")  # two overlapping 00 factors
    assert not k11.contains("00100")  # two 00 factors
    nokk = builtin("no-kk", 2)
    for b in WORDS8:
        assert nokk.contains(b) == ("00" not in b and "11" not in b)


def test_halfline_builtin_is_the_ten_word_hull():
    lang = builtin("halfline")
    expected = {"01", "011", "0101", "0011", "0110",
                "10", "100", "1010", "1100", "1001"}
    assert lang.words == frozenset(expected)


def test_builtin_parameter_errors():
    with pytest.raises(FormatError):
        builtin("palindrome", 3)
    with pytest.raises(FormatError):
        builtin("uniform")
    with pytest.raises(FormatError):
        builtin("uniform", -1)
    with pytest.raises(FormatError):
        builtin("no-such-language")


def test_spot_memberships():
    dyck = builtin("dyck")
    assert dyck.contains("")
    assert dyck.contains("01") and dyck.contains("10")
    assert dyck.contains("0011") and dyck.contains("0101")
    assert not dyck.contains("0110") and not dyck.contains("1001")
    ly = builtin("lyndon")
    assert ly.contains("0011") and ly.contains("01") and ly.contains("10")
    assert not ly.contains("0101")  # not primitive
    assert not ly.contains("")
    wrep = builtin("wrep")
    assert wrep.contains("") and wrep.contains("0") and wrep.contains("10101")
    assert not wrep.contains("100")


# --- symmetry ---------------------------------------------------------------


def test_finite_language_checked_eagerly():
    with pytest.raises(NotSymmetricError) as exc:
        finite_language({"01"})
    assert exc.value.witness == "01"
    ok = finite_language({"01", "10"})
    assert ok.symmetric
    require_symmetric(ok)


def test_finite_language_witness_is_the_least_failing_word_under_any_hash_seed():
    # '0' and '001' both lack their complements; set order, which the hash
    # seed decides, must not pick the witness
    code = (
        "from langrep.errors import NotSymmetricError\n"
        "from langrep.languages import parse_language\n"
        "try:\n"
        "    parse_language('{001,0}')\n"
        "except NotSymmetricError as e:\n"
        "    print(e.witness)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    witnesses = []
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        witnesses.append(proc.stdout.strip())
    assert witnesses == ["0"] * 4
    with pytest.raises(FormatError):
        finite_language({"0a", "01", "10"})
    with pytest.raises(NotSymmetricError) as exc:
        finite_language({"0a", "01"})
    assert exc.value.witness == "01"


def test_empty_finite_language_is_symmetric():
    lang = finite_language(frozenset())
    assert lang.symmetric and not lang.contains("") and lang.label == "{}"


def test_regular_language_checked_lazily_by_automaton():
    # parsing succeeds so hull() can wrap it; the guard raises with a witness
    lang = parse_language("re:0*")
    with pytest.raises(NotSymmetricError) as exc:
        require_symmetric(lang)
    assert exc.value.witness == "0"
    assert parse_language("re:(0|1)*").symmetric
    assert hull(parse_language("re:0*")).contains("111")


def test_grammar_language_needs_attestation(tmp_path):
    path = tmp_path / "anbn.cfg"
    path.write_text("S -> 0 S 1 | eps\n")
    raw = parse_language(f"cfg:{path}")
    assert isinstance(raw.form, Cfg) and not raw.symmetric
    with pytest.raises(NotSymmetricError):
        require_symmetric(raw)
    hulled = parse_language(f"hull(cfg:{path})")
    assert hulled.symmetric
    assert hulled.contains("0011") and hulled.contains("1100")
    assert not hulled.contains("0101")


def test_language_without_a_dfa_form_needs_its_symmetry_given():
    with pytest.raises(TypeError, match="symmetric must be given"):
        Language(Cfg.parse("S -> 0 S 1 | eps"), "anbn")
    with pytest.raises(TypeError, match="symmetric must be given"):
        Language(None, "opaque", member=lambda b: True)
    assert not Language(Cfg.parse("S -> 0 S 1 | eps"), "anbn", symmetric=False).symmetric
    assert Language(Dfa([(0, 0)], 0, {0}), "all").symmetric


# --- combinators ------------------------------------------------------------


def test_hull_finite():
    assert hull_finite({"01"}).words == frozenset({"01", "10"})
    assert hull_finite({"0110"}).words == frozenset({"0110", "1001"})


def test_hull_regular():
    # words ending in 1, plus their flips: every nonempty word
    lang = hull(parse_language("re:(0|1)*1"))
    assert lang.symmetric
    for b in WORDS8:
        assert lang.contains(b) == (b != "")


def test_hull_is_identity_on_symmetric():
    base = parse_language("<0101>")
    assert hull(base).words == base.words


@given(st.sampled_from(WORDS8))
def test_negate_conjoin_disjoin_pointwise(b):
    pal, wrep = builtin("palindrome"), builtin("wrep")
    assert negate(pal).contains(b) == (not pal.contains(b))
    assert conjoin(pal, wrep).contains(b) == (pal.contains(b) and wrep.contains(b))
    assert disjoin(pal, wrep).contains(b) == (pal.contains(b) or wrep.contains(b))


@pytest.mark.parametrize(
    "spec, kind",
    [
        ("not(<01>)", Dfa),
        ("and(<0101>,re:(0|1)*)", Dfa),
        ("or(<01>,wrep)", Dfa),
        ("hull(re:0*1)", Dfa),
        ("rev(re:0*(1|e))", Dfa),
        ("and(palindrome,wrep)", Cfg),
        ("and(re:0*1*,dyck)", Cfg),
        ("or(dyck,palindrome)", Cfg),
        ("rev(palindrome)", Cfg),
        ("not(dyck)", None),
        ("or(dyck,wrep)", None),
        ("and(copy,wrep)", None),
        ("trash-ext(<0101>)", None),
    ],
)
def test_combinators_close_forms(spec, kind):
    lang = parse_language(spec)
    form = lang.form
    assert form is None if kind is None else isinstance(form, kind)
    pal, wrep, dyck = builtin("palindrome"), builtin("wrep"), builtin("dyck")
    for b in WORDS8:
        expected = _pointwise(spec, b, pal, wrep, dyck)
        assert lang.contains(b) == expected, (spec, b)
        assert form is None or form_test(form)(b) == expected, (spec, b)


def _pointwise(spec, b, pal, wrep, dyck):
    # the spec's meaning composed from its parts' memberships
    return {
        "not(<01>)": b not in ("01", "10"),
        "and(<0101>,re:(0|1)*)": b in ("0101", "1010"),
        "or(<01>,wrep)": b in ("01", "10") or wrep.contains(b),
        "hull(re:0*1)": re.fullmatch("0*1|1*0", b) is not None,
        "rev(re:0*(1|e))": re.fullmatch("1?0*", b) is not None,
        "and(palindrome,wrep)": pal.contains(b) and wrep.contains(b),
        "and(re:0*1*,dyck)": re.fullmatch("0*1*", b) is not None and dyck.contains(b),
        "or(dyck,palindrome)": dyck.contains(b) or pal.contains(b),
        "rev(palindrome)": pal.contains(b),
        "not(dyck)": not dyck.contains(b),
        "or(dyck,wrep)": dyck.contains(b) or wrep.contains(b),
        "and(copy,wrep)": ref_copy(b) and wrep.contains(b),
        "trash-ext(<0101>)": b in ("0101", "1010") or b.count("0") != 2 or b.count("1") != 2,
    }[spec]


def test_grammar_product_past_its_budget_stays_opaque():
    # about 1250 automaton states: even the trimmed product passes the budget
    lang = parse_language("and(dyck,k11(24))")
    assert lang.form is None
    dyck, k11 = builtin("dyck"), builtin("k11", 24)
    for b in WORDS8:
        assert lang.contains(b) == (dyck.contains(b) and k11.contains(b))


def test_grammar_product_within_its_budget_gets_a_grammar():
    # about 900 automaton states: the full triple product would hold ~10^9
    # bodies, the trimmed one fits in the budget
    lang = parse_language("and(dyck,k11(20))")
    assert isinstance(lang.form, Cfg)
    dyck, k11 = builtin("dyck"), builtin("k11", 20)
    for b in WORDS8:
        assert lang.form.contains(b) == (dyck.contains(b) and k11.contains(b))


def test_finite_combinations_stay_finite():
    assert parse_language("and(<01,0101>,<0101>)").words == frozenset({"0101", "1010"})
    assert parse_language("or(<01>,<0101>)").words == frozenset({"01", "10", "0101", "1010"})
    assert parse_language("rev(<001>)").words == frozenset({"100", "011"})


def test_negate_finite_and_regular():
    lang = negate(parse_language("<01>"))
    assert not lang.contains("01") and not lang.contains("10")
    assert lang.contains("") and lang.contains("0011")
    reg = negate(parse_language("re:(0|1)(0|1)"))
    for b in WORDS8:
        assert reg.contains(b) == (len(b) != 2)


def test_negate_of_a_grammar_is_opaque(tmp_path):
    # context-free languages are not closed under complement
    path = tmp_path / "g.cfg"
    path.write_text("S -> 0 S 1 | eps\n")
    hulled = parse_language(f"hull(cfg:{path})")
    lang = parse_language(f"not(hull(cfg:{path}))")
    assert lang.form is None and lang.symmetric
    for b in WORDS8:
        assert lang.contains(b) == (not hulled.contains(b))
    with pytest.raises(ValueError):
        decide(lang)


def test_reverse_language_kinds():
    fin = reverse_language(parse_language("<001>"))
    assert fin.words == frozenset({"100", "011"})
    reg = reverse_language(parse_language("re:(0|1)*(0|e)(1|e)"))
    base = parse_language("re:(0|1)*(0|e)(1|e)")
    for b in WORDS8:
        assert reg.contains(b) == base.contains(b[::-1])
    com = reverse_language(builtin("wrep"))
    for b in WORDS8:
        assert com.contains(b) == builtin("wrep").contains(b[::-1])


def test_reverse_grammar(tmp_path):
    path = tmp_path / "g.cfg"
    path.write_text("S -> 0 S | 1\n")  # words 0^k 1
    rev = reverse_language(parse_language(f"cfg:{path}"))
    assert rev.contains("100") and rev.contains("1")
    assert not rev.contains("001")


# --- frequentness and trash -------------------------------------------------


def test_freq_and_trash_finite():
    # freq(<0101>) = {2}: a word is trash when it has other than two 0s or 1s
    lhat = trash_extend(parse_language("<0101>"))
    assert lhat.contains("000111") and lhat.contains("0")
    assert lhat.contains("0101")
    assert not lhat.contains("0110") and not lhat.contains("0011")
    assert lhat.symmetric


def test_freq_ignores_words_without_zeros():
    # freq is {1}, not {0, 1}: "1" has no 0s, so it is trash
    assert trash_extend(finite_language({"", "01", "10"})).contains("1")


def test_trash_extend_requires_finite():
    with pytest.raises(ValueError):
        trash_extend(builtin("dyck"))


# --- textual specs ----------------------------------------------------------


def test_parse_hulled_and_verbatim_wordlists():
    assert parse_language("<0101>").words == frozenset({"0101", "1010"})
    assert parse_language("{0110,1001}").words == frozenset({"0110", "1001"})
    assert parse_language("<e>").words == frozenset({""})
    assert parse_language("< 001 , 010 >").words == frozenset(
        {"001", "110", "010", "101"}
    )
    with pytest.raises(NotSymmetricError):
        parse_language("{01}")


def test_parse_empty_verbatim_list():
    assert parse_language("{}").words == frozenset()


def test_parse_builtins_and_parameters():
    assert parse_language("dyck").contains("0011")
    assert parse_language("uniform(2)").contains("0101")
    assert not parse_language("uniform(2)").contains("01")


def test_parse_nested_combinators():
    lang = parse_language("or(and(palindrome,wrep),<01>)")
    assert lang.contains("01")  # from the hull list
    assert lang.contains("010")  # alternating palindrome
    assert not lang.contains("0110")  # palindrome but not alternating
    assert lang.symmetric


def test_parse_nesting_at_the_bound_evaluates_a_word():
    # a hundred nots over copy: the deepest chain the reader takes, an
    # opaque language whose membership composes a hundred predicates
    lang = parse_language("not(" * 100 + "copy" + ")" * 100)
    assert lang.contains("0101") and not lang.contains("0110")
    assert evaluate(VertexWord("abab"), lang) == Graph(["a", "b"], [("a", "b")])


def test_parse_whitespace_tolerant():
    lang = parse_language(" or( and( palindrome , wrep ) , <01> ) ")
    assert lang.contains("010") and lang.contains("10")


def test_parse_errors():
    for bad in (
        "",
        "<01",
        "{01,",
        "and(<01>)",
        "not()",
        "rev",
        "mystery(",
        "<01x>",
        "uniform(x)",
        "<01> trailing",
        "re:",
    ):
        with pytest.raises(FormatError):
            parse_language(bad)


def test_builtin_parameter_takes_ascii_digits_only():
    # str.isdigit() is also true for superscripts and other scripts' digits
    for bad in ("uniform(²)", "k11(٣)", "no-kk(１)"):
        with pytest.raises(FormatError, match="nonnegative integer"):
            parse_language(bad)


def test_parse_cfg_missing_file():
    with pytest.raises(FormatError):
        parse_language("cfg:/no/such/file.cfg")
