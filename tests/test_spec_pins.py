"""Pinned answers of the language spec reader, ``parse_language``.

For each good spec: its label, its words (None unless finite, in length-
then-lexicographic order), the kind of its form (Dfa, Cfg or None), and a
digest of its membership on every binary word of up to 8 letters.  For each
bad spec: the exception's type, message and offset.  Every good spec also
round-trips through its label.

The corpus covers the canonical builder specs, the CLI's selftest and
class rows, the bench's class-sweep rows, the specs the other tests parse,
and the separators, spacing and closers the grammar allows; the bad specs
cover empty tokens, mismatched closers, unbalanced parentheses, wrong
arity, non-ASCII digits, trash-ext of an infinite language, trailing
input and combinators nested past the bound.  Grammar-file specs read ``anbn.cfg`` from the working directory,
which the fixture writes."""

import hashlib

import pytest

from conftest import all_binary_words
from langrep.languages import parse_language

WORDS8 = list(all_binary_words(8))

GOOD = {
    # constructions.CANONICAL_SPECS
    "palindrome": ("palindrome", None, "Cfg", "2caa697c7da1ac9b"),
    "copy": ("copy", None, None, "cc200834c71862cf"),
    "not(copy)": ("not(copy)", None, None, "13c4ddea120d539b"),
    "lyndon": ("lyndon", None, None, "b3d76354363db8dd"),
    "and(palindrome,wrep)": ("and(palindrome,wrep)", None, "Cfg", "1456cea9e3be4759"),
    "lyndon-odd": ("lyndon-odd", None, None, "64b8a8d5259a27bf"),
    "dyck": ("dyck", None, "Cfg", "003bdb4a9c58a4a9"),
    "<0101,0110>": (
        "{0101,0110,1001,1010}",
        ("0101", "0110", "1001", "1010"),
        "Dfa",
        "cc163945ee27c4d4",
    ),
    "<010>": ("{010,101}", ("010", "101"), "Dfa", "76ede2c312225fd7"),
    "<01110,01101,01011,01100,01010,01001>": (
        "{01001,01010,01011,01100,01101,01110,10001,10010,10011,10100,10101,10110}",
        (
            "01001", "01010", "01011", "01100", "01101", "01110", "10001", "10010", "10011",
            "10100", "10101", "10110",
        ),
        "Dfa",
        "697de6fc75cb78fb",
    ),
    "<0110>": ("{0110,1001}", ("0110", "1001"), "Dfa", "8f4929411a5e765c"),
    "<0101>": ("{0101,1010}", ("0101", "1010"), "Dfa", "e8235d48d476fe2a"),
    "<01,001>": ("{01,10,001,110}", ("01", "10", "001", "110"), "Dfa", "126bea2aaac2c83c"),
    "<001>": ("{001,110}", ("001", "110"), "Dfa", "a7101415503b4c9d"),
    "halfline": (
        "{01,10,011,100,0011,0101,0110,1001,1010,1100}",
        ("01", "10", "011", "100", "0011", "0101", "0110", "1001", "1010", "1100"),
        "Dfa",
        "6f2fdfb482d997ac",
    ),
    "<0011,0110>": (
        "{0011,0110,1001,1100}",
        ("0011", "0110", "1001", "1100"),
        "Dfa",
        "720bbee71377b04a",
    ),
    "wrep": ("wrep", None, "Dfa", "00acd7b0d8442f59"),
    "or(and(palindrome,wrep),and(even-counts,re:(0|1)*0(0|1)*1(0|1)*|(0|1)*1(0|1)*0(0|1)*))": (
        "or(and(palindrome,wrep),and(even-counts,re:(0|1)*0(0|1)*1(0|1)*|(0|1)*1(0|1)*0(0|1)*))",
        None,
        None,
        "f4d5183deda12616",
    ),
    "or(not(palindrome),not(wrep))": (
        "or(not(palindrome),not(wrep))",
        None,
        None,
        "ef59120c80fbe66c",
    ),
    "balanced": ("balanced", None, "Cfg", "3ecce8b538e4600c"),
    # cli's class rows and selftest pool, the bench's class-sweep rows
    "<0011>": ("{0011,1100}", ("0011", "1100"), "Dfa", "3c9be24ae4bff59c"),
    "<01>": ("{01,10}", ("01", "10"), "Dfa", "74c7c51293d08611"),
    "<01,0011>": ("{01,10,0011,1100}", ("01", "10", "0011", "1100"), "Dfa", "b27e363424807af9"),
    "re:0110|1001": ("re:0110|1001", None, "Dfa", "8f4929411a5e765c"),
    # specs the other tests parse
    "re:0*|1*": ("re:0*|1*", None, "Dfa", "f4e533c2af53342f"),
    "hull(re:0(0|1)*1)": ("hull(re:0(0|1)*1)", None, "Dfa", "a9dd6cef1e755f54"),
    "<0101,0110,01110,01101,01011,01100,01010,01001>": (
        "{0101,0110,1001,1010,01001,01010,01011,01100,01101,01110,10001,10010,10011,10100,10101,10"
        "110}",
        (
            "0101", "0110", "1001", "1010", "01001", "01010", "01011", "01100", "01101", "01110",
            "10001", "10010", "10011", "10100", "10101", "10110",
        ),
        "Dfa",
        "696eea2523c39e0c",
    ),
    "not(palindrome)": ("not(palindrome)", None, None, "ba461db691a0c59c"),
    "and(wrep,re:0*|1*)": ("and(wrep,re:0*|1*)", None, "Dfa", "1d7e40a4e485a030"),
    "and(dyck,re:0*|1*)": ("and(dyck,re:0*|1*)", None, "Cfg", "95e141ba818e9e7a"),
    "and(dyck,k11(3))": ("and(dyck,k11(3))", None, "Cfg", "003bdb4a9c58a4a9"),
    "and(dyck,k11(4))": ("and(dyck,k11(4))", None, "Cfg", "003bdb4a9c58a4a9"),
    "rev(k11(20))": ("rev(k11(20))", None, "Dfa", "cbb4b44e0395bbe7"),
    "uniform(0)": ("uniform(0)", None, "Dfa", "95e141ba818e9e7a"),
    "uniform(2)": ("uniform(2)", None, "Dfa", "eb10a9cf35dba9e5"),
    "k11(0)": ("k11(0)", None, "Dfa", "00acd7b0d8442f59"),
    "k11(1)": ("k11(1)", None, "Dfa", "65846d703c4f9e7e"),
    "k11(2)": ("k11(2)", None, "Dfa", "63523311cbfeac72"),
    "no-kk(0)": ("no-kk(0)", None, "Dfa", "6b6b2b260307bdf4"),
    "no-kk(1)": ("no-kk(1)", None, "Dfa", "95e141ba818e9e7a"),
    "no-kk(2)": ("no-kk(2)", None, "Dfa", "00acd7b0d8442f59"),
    "no-kk(3)": ("no-kk(3)", None, "Dfa", "7fa3fc364a1b1f5f"),
    "no-kk(64)": ("no-kk(64)", None, "Dfa", "cbb4b44e0395bbe7"),
    "even-counts": ("even-counts", None, "Dfa", "72585ebf85865549"),
    "odd-counts": ("odd-counts", None, "Dfa", "019aef6c87abf8d9"),
    "0n1n": ("0n1n", None, "Cfg", "ec2fbf2a7c5d121f"),
    "re:0*": ("re:0*", None, "Dfa", "ed9dfc702da84fd8"),
    "re:(0|1)*": ("re:(0|1)*", None, "Dfa", "cbb4b44e0395bbe7"),
    "hull(re:(0|1)*1)": ("hull(re:(0|1)*1)", None, "Dfa", "54c568be782d6814"),
    "and(<01,0101>,<0101>)": ("{0101,1010}", ("0101", "1010"), "Dfa", "e8235d48d476fe2a"),
    "or(<01>,<0101>)": (
        "{01,10,0101,1010}",
        ("01", "10", "0101", "1010"),
        "Dfa",
        "a76265a5aab1706a",
    ),
    "rev(<001>)": ("{011,100}", ("011", "100"), "Dfa", "6e0c1f417b6c3a1e"),
    "re:(0|1)(0|1)": ("re:(0|1)(0|1)", None, "Dfa", "ce4f4b0b7823186d"),
    "not(re:(0|1)(0|1))": ("not(re:(0|1)(0|1))", None, "Dfa", "c665e1a647b2d196"),
    "re:(0|1)*(0|e)(1|e)": ("re:(0|1)*(0|e)(1|e)", None, "Dfa", "cbb4b44e0395bbe7"),
    "rev(re:(0|1)*(0|e)(1|e))": ("rev(re:(0|1)*(0|e)(1|e))", None, "Dfa", "cbb4b44e0395bbe7"),
    "{0110,1001}": ("{0110,1001}", ("0110", "1001"), "Dfa", "8f4929411a5e765c"),
    "<e>": ("{e}", ("",), "Dfa", "95e141ba818e9e7a"),
    "< 001 , 010 >": ("{001,010,101,110}", ("001", "010", "101", "110"), "Dfa", "cb8a56c1083395fa"),
    "{}": ("{}", (), "Dfa", "6b6b2b260307bdf4"),
    "or(and(palindrome,wrep),<01>)": (
        "or(and(palindrome,wrep),{01,10})",
        None,
        None,
        "68ade445e2999038",
    ),
    " or( and( palindrome , wrep ) , <01> ) ": (
        "or(and(palindrome,wrep),{01,10})",
        None,
        None,
        "68ade445e2999038",
    ),
    "trash-ext(<0101>)": ("trash-ext({0101,1010})", None, None, "709b16117acb83d1"),
    "not(<01>)": ("not({01,10})", None, "Dfa", "a8a3a6d4d4f76b4e"),
    "cfg:anbn.cfg": ("cfg:anbn.cfg", None, "Cfg", "aa030c4237e223c9"),
    "hull(cfg:anbn.cfg)": ("hull(cfg:anbn.cfg)", None, "Cfg", "ec2fbf2a7c5d121f"),
    "not(hull(cfg:anbn.cfg))": ("not(hull(cfg:anbn.cfg))", None, None, "a9519d4b012e8c46"),
    "hull(rev(cfg:anbn.cfg))": ("hull(rev(cfg:anbn.cfg))", None, "Cfg", "ec2fbf2a7c5d121f"),
    # separators, spacing and closers
    "<01,>": ("{01,10}", ("01", "10"), "Dfa", "74c7c51293d08611"),
    "< >": ("{}", (), "Dfa", "6b6b2b260307bdf4"),
    "<>": ("{}", (), "Dfa", "6b6b2b260307bdf4"),
    "{01,10,}": ("{01,10}", ("01", "10"), "Dfa", "74c7c51293d08611"),
    "<e,01>": ("{e,01,10}", ("", "01", "10"), "Dfa", "2e054afef4b0eb59"),
    "\xa0<01>\u2003": ("{01,10}", ("01", "10"), "Dfa", "74c7c51293d08611"),
    "\x1c<01>\t": ("{01,10}", ("01", "10"), "Dfa", "74c7c51293d08611"),
    "uniform( 2 )": ("uniform(2)", None, "Dfa", "eb10a9cf35dba9e5"),
    "hull (dyck)": ("dyck", None, "Cfg", "003bdb4a9c58a4a9"),
    "not( <01> )": ("not({01,10})", None, "Dfa", "a8a3a6d4d4f76b4e"),
    "and(re:(0|1)*,dyck)": ("and(re:(0|1)*,dyck)", None, "Cfg", "003bdb4a9c58a4a9"),
    "re: 0*|1* ": ("re:0*|1*", None, "Dfa", "f4e533c2af53342f"),
    "hull(re:(01)*(0|e))": ("hull(re:(01)*(0|e))", None, "Dfa", "00acd7b0d8442f59"),
    "trash-ext(and(<01,0101>,<0101>))": ("trash-ext({0101,1010})", None, None, "709b16117acb83d1"),
}

BAD = {
    # the bad specs of test_parse_errors
    "": ("FormatError", "bad language spec: empty spec (at offset 0)", 0),
    "<01": ("FormatError", "bad language spec: missing '>' (at offset 3)", 3),
    "{01,": ("FormatError", "bad language spec: missing '}' (at offset 4)", 4),
    "and(<01>)": ("FormatError", "bad language spec: and takes 2 arguments (at offset 9)", 9),
    "not()": ("FormatError", "bad language spec: unexpected character ')' (at offset 4)", 4),
    "rev": ("FormatError", "bad language spec: combinator rev needs arguments (at offset 3)", 3),
    "mystery(": ("FormatError", "bad language spec: missing ')' (at offset 8)", 8),
    "<01x>": (
        "FormatError",
        "bad language spec: bad word '01x' (use 0/1 digits or e) (at offset 4)",
        4,
    ),
    "uniform(x)": (
        "FormatError",
        "bad language spec: parameter of uniform must be a nonnegative integer (at offset 10)",
        10,
    ),
    "<01> trailing": (
        "FormatError",
        "bad language spec: trailing input 'trailing' (at offset 5)",
        5,
    ),
    "re:": ("FormatError", "bad language spec: empty regular expression (at offset 3)", 3),
    # non-ASCII digits
    "uniform(²)": (
        "FormatError",
        "bad language spec: parameter of uniform must be a nonnegative integer (at offset 10)",
        10,
    ),
    "k11(٣)": (
        "FormatError",
        "bad language spec: parameter of k11 must be a nonnegative integer (at offset 6)",
        6,
    ),
    "no-kk(１)": (
        "FormatError",
        "bad language spec: parameter of no-kk must be a nonnegative integer (at offset 8)",
        8,
    ),
    # empty tokens
    "<,>": ("FormatError", "bad language spec: bad word '' (use 0/1 digits or e) (at offset 1)", 1),
    "<01,,10>": (
        "FormatError",
        "bad language spec: bad word '' (use 0/1 digits or e) (at offset 4)",
        4,
    ),
    "{,01}": (
        "FormatError",
        "bad language spec: bad word '' (use 0/1 digits or e) (at offset 1)",
        1,
    ),
    "< ,>": (
        "FormatError",
        "bad language spec: bad word '' (use 0/1 digits or e) (at offset 2)",
        2,
    ),
    "<01, ,>": (
        "FormatError",
        "bad language spec: bad word '' (use 0/1 digits or e) (at offset 5)",
        5,
    ),
    "<01,,": (
        "FormatError",
        "bad language spec: bad word '' (use 0/1 digits or e) (at offset 4)",
        4,
    ),
    "   ": ("FormatError", "bad language spec: empty spec (at offset 3)", 3),
    "cfg:": ("FormatError", "bad language spec: empty grammar path (at offset 4)", 4),
    "cfg: ,": ("FormatError", "bad language spec: empty grammar path (at offset 5)", 5),
    "re: )": ("FormatError", "bad language spec: empty regular expression (at offset 4)", 4),
    # mismatched closers
    "<01}": (
        "FormatError",
        "bad language spec: bad word '01}' (use 0/1 digits or e) (at offset 4)",
        4,
    ),
    "{01>": (
        "FormatError",
        "bad language spec: bad word '01>' (use 0/1 digits or e) (at offset 4)",
        4,
    ),
    "<01)": (
        "FormatError",
        "bad language spec: bad word '01)' (use 0/1 digits or e) (at offset 4)",
        4,
    ),
    "and(<01>,{10)": (
        "FormatError",
        "bad language spec: bad word '10)' (use 0/1 digits or e) (at offset 13)",
        13,
    ),
    "{01,10>}": (
        "FormatError",
        "bad language spec: bad word '10>' (use 0/1 digits or e) (at offset 7)",
        7,
    ),
    # unbalanced parentheses
    "not(<01>": ("FormatError", "bad language spec: missing ')' (at offset 8)", 8),
    "and(<01>,<10>": ("FormatError", "bad language spec: missing ')' (at offset 13)", 13),
    "or(dyck,wrep))": ("FormatError", "bad language spec: trailing input ')' (at offset 13)", 13),
    "uniform(2": ("FormatError", "bad language spec: missing ')' (at offset 9)", 9),
    "not(re:(01)": ("FormatError", "bad language spec: missing ')' (at offset 11)", 11),
    "()": ("FormatError", "bad language spec: unexpected character '(' (at offset 0)", 0),
    ")": ("FormatError", "bad language spec: unexpected character ')' (at offset 0)", 0),
    "not((dyck))": ("FormatError", "bad language spec: unexpected character '(' (at offset 4)", 4),
    "and(<01>;<10>)": ("FormatError", "bad language spec: missing ')' (at offset 8)", 8),
    # wrong arity
    "not(dyck,wrep)": ("FormatError", "bad language spec: not takes 1 argument (at offset 14)", 14),
    "and(dyck)": ("FormatError", "bad language spec: and takes 2 arguments (at offset 9)", 9),
    "or(<01>,<10>,<0011>)": (
        "FormatError",
        "bad language spec: or takes 2 arguments (at offset 20)",
        20,
    ),
    "rev(dyck,dyck)": ("FormatError", "bad language spec: rev takes 1 argument (at offset 14)", 14),
    "trash-ext(<01>,<01>)": (
        "FormatError",
        "bad language spec: trash-ext takes 1 argument (at offset 20)",
        20,
    ),
    "hull(<01>,<01>)": (
        "FormatError",
        "bad language spec: hull takes 1 argument (at offset 15)",
        15,
    ),
    # trash-ext of an infinite language
    "trash-ext(dyck)": (
        "FormatError",
        "bad language spec: trash-ext applies to finite languages only (at offset 15)",
        15,
    ),
    "trash-ext(re:0*|1*)": (
        "FormatError",
        "bad language spec: trash-ext applies to finite languages only (at offset 19)",
        19,
    ),
    "trash-ext(not(<01>))": (
        "FormatError",
        "bad language spec: trash-ext applies to finite languages only (at offset 20)",
        20,
    ),
    # trailing input
    "dyck dyck": ("FormatError", "bad language spec: trailing input 'dyck' (at offset 5)", 5),
    "<01>>": ("FormatError", "bad language spec: trailing input '>' (at offset 4)", 4),
    "re:01)": ("FormatError", "bad language spec: trailing input ')' (at offset 5)", 5),
    "wrep,": ("FormatError", "bad language spec: trailing input ',' (at offset 4)", 4),
    "not(<01>) x": ("FormatError", "bad language spec: trailing input 'x' (at offset 10)", 10),
    # names, parameters, grammar files, symmetry and regular expressions
    "not": ("FormatError", "bad language spec: combinator not needs arguments (at offset 3)", 3),
    "and": ("FormatError", "bad language spec: combinator and needs arguments (at offset 3)", 3),
    "dyck(3)": ("FormatError", "builtin dyck takes no parameter", None),
    "uniform": ("FormatError", "builtin uniform requires a parameter", None),
    "uniform(65)": ("FormatError", "builtin uniform needs a parameter from 0 to 64", None),
    "mystery": ("FormatError", "unknown builtin 'mystery'", None),
    "no_kk(2)": ("FormatError", "unknown builtin 'no_kk'", None),
    "-": ("FormatError", "unknown builtin '-'", None),
    "#": ("FormatError", "bad language spec: unexpected character '#' (at offset 0)", 0),
    "é": ("FormatError", "unknown builtin 'é'", None),
    "cfg:no-such.cfg": (
        "FormatError",
        "bad language spec: cannot read grammar file 'no-such.cfg': [Errno 2] No such file or "
        "directory: 'no-such.cfg' (at offset 15)",
        15,
    ),
    "{01}": ("NotSymmetricError", "not-symmetric: witness '01'", None),
    "<0 1>": (
        "FormatError",
        "bad language spec: bad word '0 1' (use 0/1 digits or e) (at offset 4)",
        4,
    ),
    "<é>": (
        "FormatError",
        "bad language spec: bad word 'é' (use 0/1 digits or e) (at offset 2)",
        2,
    ),
    "re:2": ("FormatError", "bad regex character '2' (at offset 0)", 0),
    "re:0**(": ("FormatError", "empty regex branch (use 'e' for the empty word) (at offset 4)", 4),
    # nesting past the bound, at the combinator that crosses it
    "not(" * 101 + "wrep" + ")" * 101: (
        "FormatError",
        "bad language spec: combinators nest more than 100 deep (at offset 400)",
        400,
    ),
}


@pytest.fixture
def in_grammar_dir(tmp_path, monkeypatch):
    (tmp_path / "anbn.cfg").write_text("S -> 0 S 1 | eps\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def _digest(lang):
    bits = "".join("1" if lang.contains(b) else "0" for b in WORDS8)
    return hashlib.sha256(bits.encode()).hexdigest()[:16]


def _pin(lang):
    words = None if lang.words is None else tuple(sorted(lang.words, key=lambda w: (len(w), w)))
    kind = None if lang.form is None else type(lang.form).__name__
    return lang.label, words, kind, _digest(lang)


@pytest.mark.parametrize("spec", GOOD)
def test_good_spec_pinned(spec, in_grammar_dir):
    assert _pin(parse_language(spec)) == GOOD[spec]


@pytest.mark.parametrize("spec", BAD)
def test_bad_spec_pinned(spec, in_grammar_dir):
    with pytest.raises(Exception) as info:
        parse_language(spec)
    exc = info.value
    assert (type(exc).__name__, str(exc), getattr(exc, "offset", None)) == BAD[spec]


@pytest.mark.parametrize("spec", GOOD)
def test_label_round_trips(spec, in_grammar_dir):
    lang = parse_language(spec)
    again = parse_language(lang.label)
    assert again.label == lang.label
    assert again.words == lang.words
    assert _digest(again) == _digest(lang)
