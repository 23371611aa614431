"""0-1-symmetric binary languages and the textual spec surface.

A language value answers membership queries on binary words and knows
whether it is 0-1-symmetric.  Finite sets are checked eagerly; automata are
checked exactly by an equivalence test against their 0/1-swapped image;
grammar-backed languages are undecidable to check and must either be wrapped
in hull() or carry an explicit attestation.

The spec mini-grammar understood by parse_language:

    <w1,w2,...>     symmetric hull of a finite set
    {w1,w2,...}     finite set taken verbatim (must already be symmetric)
    builtin names   wrep, palindrome, copy, lyndon, lyndon-odd, dyck,
                    balanced, 0n1n, uniform(k), k11(k), no-kk(k),
                    odd-counts, even-counts, halfline
    not(X) and(X,Y) or(X,Y) hull(X) rev(X) trash-ext(X)
    re:EXPR         regular expression (0 1 e | * parentheses)
    cfg:PATH        grammar file, one rule per line
"""

from __future__ import annotations

import itertools

from .automata import Dfa, compile_regex
from .errors import FormatError, NotSymmetricError
from .grammar import Cfg
from .words import complement_word

HALFLINE_WORDS = ("01", "011", "0101", "0011", "0110")


class Language:
    """Base interface: ``contains`` plus a symmetry flag."""

    symmetric = False

    def contains(self, b: str) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<Language {self.describe()}>"


class FiniteLanguage(Language):
    def __init__(self, words):
        words = frozenset(words)
        for w in words:
            if any(c not in "01" for c in w):
                raise FormatError(f"not a binary word: {w!r}")
            if complement_word(w) not in words:
                raise NotSymmetricError(w)
        self.words = words
        self.symmetric = True

    def contains(self, b: str) -> bool:
        return b in self.words

    def describe(self) -> str:
        if not self.words:
            return "{}"
        return "{" + ",".join(w if w else "e" for w in sorted(self.words, key=lambda w: (len(w), w))) + "}"


class RegularLanguage(Language):
    """Symmetry is decided lazily so hull() can wrap an asymmetric base."""

    def __init__(self, dfa: Dfa, *, assume_symmetric=False, label="re:?"):
        self.dfa = dfa
        self.label = label
        self._symmetric = True if assume_symmetric else None
        self.sym_witness = None

    @property
    def symmetric(self) -> bool:
        if self._symmetric is None:
            diff = self.dfa.product(self.dfa.swap01(), lambda a, b: a != b)
            self.sym_witness = diff.shortest_accepted()
            self._symmetric = self.sym_witness is None
        return self._symmetric

    def contains(self, b: str) -> bool:
        return self.dfa.accepts(b)

    def describe(self) -> str:
        return self.label


class GrammarLanguage(Language):
    def __init__(self, cfg: Cfg, *, assume_symmetric=False, label="cfg:?"):
        self.cfg = cfg
        self.label = label
        self.symmetric = bool(assume_symmetric)

    def contains(self, b: str) -> bool:
        return self.cfg.contains(b)

    def describe(self) -> str:
        return self.label


class BuiltinLanguage(Language):
    """Named predicate languages; all of them are symmetric by definition."""

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn
        self.symmetric = True

    def contains(self, b: str) -> bool:
        return self.fn(b)

    def describe(self) -> str:
        return self.name


class ComboLanguage(Language):
    """Lazy pointwise combinator node (not/and/or/rev/hull/trash-ext)."""

    def __init__(self, op, parts, fn, symmetric, label=None):
        self.op = op
        self.parts = tuple(parts)
        self.fn = fn
        self.symmetric = symmetric
        self.label = label or f"{op}({','.join(p.describe() for p in parts)})"

    def contains(self, b: str) -> bool:
        return self.fn(b)

    def describe(self) -> str:
        return self.label


# --- builtin membership predicates -----------------------------------------


def _is_lyndon(b: str) -> bool:
    # under 0 < 1: nonempty and strictly smaller than each proper suffix
    # (Chen-Fox-Lyndon; Duval 1983)
    return b != "" and all(b < b[i:] for i in range(1, len(b)))


def _lyndon(b: str) -> bool:
    # Lyndon under either order; 1 < 0 is 0 < 1 on the complement
    return _is_lyndon(b) or _is_lyndon(complement_word(b))


def _dyck(b: str) -> bool:
    if b.count("0") != b.count("1"):
        return False
    run = lo = hi = 0
    for c in b:
        run += 1 if c == "1" else -1
        lo = min(lo, run)
        hi = max(hi, run)
    return lo >= 0 or hi <= 0


def _wrep(b: str) -> bool:
    return all(b[i] != b[i + 1] for i in range(len(b) - 1))


def _0n1n(b: str) -> bool:
    n2 = len(b)
    if n2 % 2:
        return False
    n = n2 // 2
    return b == "0" * n + "1" * n or b == "1" * n + "0" * n


def _count_factor(b: str, f: str) -> int:
    return sum(1 for i in range(len(b) - len(f) + 1) if b[i:i + len(f)] == f)


def builtin(name: str, param=None) -> Language:
    base = {
        "wrep": _wrep,
        "palindrome": lambda b: b != "" and b == b[::-1],
        "copy": lambda b: len(b) % 2 == 0 and b[: len(b) // 2] == b[len(b) // 2:],
        "lyndon": _lyndon,
        "lyndon-odd": lambda b: len(b) % 2 == 1 and _lyndon(b),
        "dyck": _dyck,
        "balanced": lambda b: b.count("0") == b.count("1"),
        "0n1n": _0n1n,
        "odd-counts": lambda b: b.count("0") % 2 == 1 and b.count("1") % 2 == 1,
        "even-counts": lambda b: b.count("0") % 2 == 0 and b.count("1") % 2 == 0,
    }
    if name in base:
        if param is not None:
            raise FormatError(f"builtin {name} takes no parameter")
        return BuiltinLanguage(name, base[name])
    if name == "halfline":
        if param is not None:
            raise FormatError("halfline takes no parameter")
        return hull_finite(HALFLINE_WORDS)
    if param is None:
        raise FormatError(f"builtin {name} requires a parameter")
    k = int(param)
    if k < 0:
        raise FormatError(f"builtin {name} needs a nonnegative parameter")
    if name == "uniform":
        return BuiltinLanguage(f"uniform({k})", lambda b: b.count("0") == k and b.count("1") == k)
    if name == "k11":
        return BuiltinLanguage(
            f"k11({k})",
            lambda b: _count_factor(b, "00") <= k and _count_factor(b, "11") <= k,
        )
    if name == "no-kk":
        return BuiltinLanguage(f"no-kk({k})", lambda b: "0" * k not in b and "1" * k not in b)
    raise FormatError(f"unknown builtin {name!r}")


BUILTIN_NAMES = (
    "wrep", "palindrome", "copy", "lyndon", "lyndon-odd", "dyck", "balanced",
    "0n1n", "uniform", "k11", "no-kk", "odd-counts", "even-counts", "halfline",
)


# --- combinators ------------------------------------------------------------


def hull_finite(words) -> FiniteLanguage:
    ws = set(words)
    ws |= {complement_word(w) for w in ws}
    return FiniteLanguage(ws)


def hull(lang: Language) -> Language:
    if isinstance(lang, FiniteLanguage):
        return hull_finite(lang.words)
    if isinstance(lang, RegularLanguage):
        return RegularLanguage(
            lang.dfa.union(lang.dfa.swap01()),
            assume_symmetric=True,
            label=f"hull({lang.describe()})",
        )
    if isinstance(lang, GrammarLanguage):
        return GrammarLanguage(
            lang.cfg.union(lang.cfg.swap01()),
            assume_symmetric=True,
            label=f"hull({lang.describe()})",
        )
    if lang.symmetric:
        return lang
    return ComboLanguage(
        "hull", [lang],
        lambda b: lang.contains(b) or lang.contains(complement_word(b)),
        True,
    )


def negate(lang: Language) -> Language:
    if isinstance(lang, GrammarLanguage):
        raise ValueError("unsupported combinator: not() on a grammar-backed language")
    if isinstance(lang, RegularLanguage):
        return RegularLanguage(
            lang.dfa.complement(),
            assume_symmetric=lang.symmetric,
            label=f"not({lang.describe()})",
        )
    return ComboLanguage("not", [lang], lambda b: not lang.contains(b), lang.symmetric)


def conjoin(a: Language, b: Language) -> Language:
    return _binary("and", a, b, lambda x, y: x and y)


def disjoin(a: Language, b: Language) -> Language:
    return _binary("or", a, b, lambda x, y: x or y)


def _binary(op, a: Language, b: Language, combine) -> Language:
    if isinstance(a, GrammarLanguage) or isinstance(b, GrammarLanguage):
        raise ValueError(f"unsupported combinator: {op}() on a grammar-backed language")
    if isinstance(a, FiniteLanguage) and isinstance(b, FiniteLanguage):
        words = a.words & b.words if op == "and" else a.words | b.words
        return FiniteLanguage(words)
    if isinstance(a, RegularLanguage) and isinstance(b, RegularLanguage):
        dfa = a.dfa.intersect(b.dfa) if op == "and" else a.dfa.union(b.dfa)
        return RegularLanguage(
            dfa,
            assume_symmetric=a.symmetric and b.symmetric,
            label=f"{op}({a.describe()},{b.describe()})",
        )
    return ComboLanguage(
        op, [a, b],
        lambda w: combine(a.contains(w), b.contains(w)),
        a.symmetric and b.symmetric,
    )


def reverse_language(lang: Language) -> Language:
    if isinstance(lang, FiniteLanguage):
        return FiniteLanguage({w[::-1] for w in lang.words})
    if isinstance(lang, RegularLanguage):
        return RegularLanguage(
            lang.dfa.reverse(),
            assume_symmetric=lang.symmetric,
            label=f"rev({lang.describe()})",
        )
    if isinstance(lang, GrammarLanguage):
        return GrammarLanguage(
            lang.cfg.reverse(),
            assume_symmetric=lang.symmetric,
            label=f"rev({lang.describe()})",
        )
    return ComboLanguage("rev", [lang], lambda b: lang.contains(b[::-1]), lang.symmetric)


def freq_and_trash(lang: Language):
    """Frequentness set, trash-membership oracle and the extended language
    L-hat for a finite language.  freq(L) = {n >= 1 : some word has n zeros};
    trash words have a frequentness count outside freq(L) on either symbol."""
    if not isinstance(lang, FiniteLanguage):
        raise ValueError("freq_and_trash requires a finite language")
    freq = frozenset(w.count("0") for w in lang.words if w.count("0") >= 1)

    def trash(b: str) -> bool:
        return b.count("0") not in freq or b.count("1") not in freq

    lhat = ComboLanguage(
        "trash-ext", [lang],
        lambda b: lang.contains(b) or trash(b),
        True,
        label=f"trash-ext({lang.describe()})",
    )
    return freq, trash, lhat


def trash_extend(lang: Language) -> Language:
    return freq_and_trash(lang)[2]


def shuffle_words(u: str, v: str):
    """All interleavings of two words (the shuffle of two singletons)."""
    out = set()

    def rec(i, j, acc):
        if i == len(u) and j == len(v):
            out.add(acc)
            return
        if i < len(u):
            rec(i + 1, j, acc + u[i])
        if j < len(v):
            rec(i, j + 1, acc + v[j])

    rec(0, 0, "")
    return out


def shuffle_finite(l1, l2):
    """Shuffle of two finite languages, given as iterables of words."""
    out = set()
    for u, v in itertools.product(set(l1), set(l2)):
        out |= shuffle_words(u, v)
    return out


# --- textual specs ----------------------------------------------------------


def parse_language(text: str) -> Language:
    parser = _SpecParser(text)
    lang = parser.parse()
    return lang


class _SpecParser:
    COMBINATORS = ("not", "and", "or", "hull", "rev", "trash-ext")

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, msg):
        raise FormatError(f"bad language spec: {msg}", self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def parse(self) -> Language:
        lang = self.parse_spec()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"trailing input {self.text[self.pos:]!r}")
        return lang

    def parse_spec(self) -> Language:
        c = self.peek()
        if c is None:
            self.error("empty spec")
        if c == "<":
            return hull_finite(self.parse_wordlist("<", ">"))
        if c == "{":
            return FiniteLanguage(self.parse_wordlist("{", "}"))
        if self.text.startswith("re:", self.pos):
            self.pos += 3
            return self.parse_regex()
        if self.text.startswith("cfg:", self.pos):
            self.pos += 4
            return self.parse_cfg_path()
        return self.parse_name()

    def parse_wordlist(self, open_c, close_c):
        self.skip_ws()
        assert self.text[self.pos] == open_c
        self.pos += 1
        words = []
        while True:
            self.skip_ws()
            if self.pos >= len(self.text):
                self.error(f"missing {close_c!r}")
            if self.text[self.pos] == close_c:
                self.pos += 1
                break
            tok = self.take_until(",", close_c)
            tok = tok.strip()
            if tok == "e":
                words.append("")
            elif tok and all(ch in "01" for ch in tok):
                words.append(tok)
            else:
                self.error(f"bad word {tok!r} (use 0/1 digits or e)")
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == ",":
                self.pos += 1
        return words

    def take_until(self, *stops):
        out = []
        while self.pos < len(self.text) and self.text[self.pos] not in stops:
            out.append(self.text[self.pos])
            self.pos += 1
        return "".join(out)

    def parse_regex(self) -> Language:
        # the expression runs to the first comma or unbalanced close paren
        depth = 0
        start = self.pos
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c == "(":
                depth += 1
            elif c == ")":
                if depth == 0:
                    break
                depth -= 1
            elif c == "," and depth == 0:
                break
            self.pos += 1
        expr = self.text[start:self.pos].strip()
        if not expr:
            self.error("empty regular expression")
        dfa = compile_regex(expr)
        return RegularLanguage(dfa, label=f"re:{expr}")

    def parse_cfg_path(self) -> Language:
        start = self.pos
        depth = 0
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c == "(":
                depth += 1
            elif c == ")":
                if depth == 0:
                    break
                depth -= 1
            elif c == "," and depth == 0:
                break
            self.pos += 1
        path = self.text[start:self.pos].strip()
        if not path:
            self.error("empty grammar path")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = Cfg.parse(fh.read())
        except OSError as exc:
            self.error(f"cannot read grammar file {path!r}: {exc}")
        return GrammarLanguage(cfg, label=f"cfg:{path}")

    def parse_name(self) -> Language:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "-_"
        ):
            self.pos += 1
        name = self.text[start:self.pos]
        if not name:
            self.error(f"unexpected character {self.text[self.pos]!r}")
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "(":
            self.pos += 1
            if name in self.COMBINATORS:
                args = [self.parse_spec()]
                self.skip_ws()
                while self.pos < len(self.text) and self.text[self.pos] == ",":
                    self.pos += 1
                    args.append(self.parse_spec())
                    self.skip_ws()
                if self.pos >= len(self.text) or self.text[self.pos] != ")":
                    self.error("missing ')'")
                self.pos += 1
                return self.apply_combinator(name, args)
            # builtin with a numeric parameter
            arg = self.take_until(")").strip()
            if self.pos >= len(self.text):
                self.error("missing ')'")
            self.pos += 1
            if not arg.isdigit():
                self.error(f"parameter of {name} must be a nonnegative integer")
            return builtin(name, int(arg))
        if name in self.COMBINATORS:
            self.error(f"combinator {name} needs arguments")
        return builtin(name)

    def apply_combinator(self, name, args) -> Language:
        def arity(k):
            if len(args) != k:
                self.error(f"{name} takes {k} argument{'s' if k > 1 else ''}")

        if name == "not":
            arity(1)
            return negate(args[0])
        if name == "and":
            arity(2)
            return conjoin(args[0], args[1])
        if name == "or":
            arity(2)
            return disjoin(args[0], args[1])
        if name == "hull":
            arity(1)
            return hull(args[0])
        if name == "rev":
            arity(1)
            return reverse_language(args[0])
        if name == "trash-ext":
            arity(1)
            if not isinstance(args[0], FiniteLanguage):
                self.error("trash-ext applies to finite languages only")
            return trash_extend(args[0])
        raise AssertionError(name)


def require_symmetric(lang: Language):
    """Guard used by evaluation; grammar specs must be hulled or attested."""
    if not lang.symmetric:
        witness = getattr(lang, "sym_witness", None)
        raise NotSymmetricError(
            witness=witness,
            message=f"language {lang.describe()} is not attested 0-1-symmetric"
            + (f"; witness {witness!r}" if witness is not None else "")
            + "; wrap it in hull() or construct it with assume_symmetric=True",
        )


def finite_from_shuffle(*parts) -> FiniteLanguage:
    """Convenience: hull of a shuffle of word lists, used in tests."""
    acc = {""}
    for p in parts:
        acc = shuffle_finite(acc, p if isinstance(p, (set, list, tuple)) else [p])
    return hull_finite(acc)
