"""Binary languages and the textual spec surface.

Every spec parses to one class, Language.  A language answers membership
queries on binary words, knows whether it is 0-1-symmetric, and carries an
exact form where one exists:

    a Dfa   finite sets (their trie), re: specs, the regular
            builtins, and boolean combinations of these;
    a Cfg   cfg: files, the context-free builtins, unions of grammars and
            intersections of a grammar with a Dfa;
    None    copy, lyndon, lyndon-odd, trash-ext, a finite set whose trie
            would pass the automaton budget, and every combination no
            closure rule covers: an opaque predicate.

Consumers that need more than membership (search, pair-nonemptiness)
branch on the form alone; the treewidth decider scans a finite language's
words instead.  A finite language also keeps its words and answers
membership by set lookup.  Symmetry is checked eagerly for finite sets and
decided lazily for a Dfa, by an equivalence test against its 0/1-swapped
image, so hull() can wrap an asymmetric base.  Otherwise it is given:
builtins are symmetric by definition, and a grammar file must be wrapped
in hull() or attested.

The spec mini-grammar understood by parse_language:

    <w1,w2,...>     symmetric hull of a finite set
    {w1,w2,...}     finite set taken verbatim (must already be symmetric)
    builtin names   wrep, palindrome, copy, lyndon, lyndon-odd, dyck,
                    balanced, 0n1n, uniform(k), k11(k), no-kk(k),
                    odd-counts, even-counts, halfline
    not(X) and(X,Y) or(X,Y) hull(X) rev(X) trash-ext(X), nested at most
                    100 deep
    re:EXPR         regular expression (0 1 e | * parentheses)
    cfg:PATH        grammar file, one rule per line
"""

from __future__ import annotations

import re

from .automata import Dfa, compile_regex, count_window_dfa, dfa_from_finite, explore
from .errors import CapacityError, FormatError, NotSymmetricError
from .grammar import Cfg, intersect_regular
from .words import check_binary, complement_word

HALFLINE_WORDS = ("01", "011", "0101", "0011", "0110")

# a builtin's parameter fixes its automaton's size: 2k states for no-kk(k),
# (k+1)^2 + 1 for uniform(k), about 2(k+1)^2 for k11(k)
MAX_BUILTIN_PARAM = 64

_TRIE = object()  # the form of a finite language whose trie is not built yet


class Language:
    """A binary language: membership, 0-1-symmetry and an exact form.

    ``form`` is a Dfa, a Cfg, or None for an opaque predicate; ``words`` is
    the frozenset of a finite language, else None.  A finite language builds
    its form, the trie, on first use; a trie that would pass
    ``AUTOMATON_BUDGET`` is given up once, and the language reads as
    formless (None) from then on, answered by its word set.  So reading
    ``form`` never raises.  Membership is a set lookup for a finite
    language, ``member`` when given, and otherwise the form's own test.
    ``symmetric`` is given, or, for a Dfa form only, left out and decided on
    first use, which leaves a shortest asymmetric word in ``sym_witness``.
    ``pair_automaton`` is this language's pair automaton over all letter
    counts, or None before its first use.  It is the one store of pair
    answers: the start state per counts and verdict, and the memo of which
    three pair states can still finish together.  Search and
    ``pair_nonempty`` share it.
    """

    def __init__(self, form, label, *, member=None, symmetric=None, words=None):
        if symmetric is None and not isinstance(form, Dfa):
            raise TypeError(f"{label}: symmetric must be given for a language without a Dfa form")
        if words is not None:
            member = words.__contains__
        elif member is None:
            member = form.accepts if isinstance(form, Dfa) else form.contains
        self._form = _TRIE if words is not None else form
        self.label = label
        self.words = words
        self._member = member
        self._symmetric = symmetric
        self.sym_witness = None
        self.pair_automaton = None

    @property
    def form(self):
        # a finite language builds its trie on first use, or records once
        # that the trie is past the automaton budget; no reader of a form
        # needs it minimal
        if self._form is _TRIE:
            try:
                self._form = dfa_from_finite(self.words)
            except CapacityError:
                self._form = None
        return self._form

    @property
    def symmetric(self) -> bool:
        if self._symmetric is None:
            diff = self.form.product(self.form.swap01(), lambda a, b: a != b)
            self.sym_witness = diff.shortest_accepted()
            self._symmetric = self.sym_witness is None
        return self._symmetric

    def contains(self, b: str) -> bool:
        return self._member(b)

    def __repr__(self):
        return f"<Language {self.label}>"


def finite_language(words) -> Language:
    """The finite language of ``words`` taken verbatim; it must already be
    0-1-symmetric.  A set that is not names its least failing word in the
    label's order (length, then word), whatever the hash seed."""
    words = frozenset(words)
    ordered = sorted(words, key=lambda w: (len(w), w))
    for w in ordered:
        if complement_word(check_binary(w)) not in words:
            raise NotSymmetricError(w)
    label = "{" + ",".join(w if w else "e" for w in ordered) + "}"
    return Language(None, label, symmetric=True, words=words)


# --- builtins ---------------------------------------------------------------


def _is_lyndon(b: str) -> bool:
    # under 0 < 1: nonempty and strictly smaller than each proper suffix
    # (Chen-Fox-Lyndon; Duval 1983).  Only a few suffixes need comparing.
    # A longer word must start with 0 (else the suffix at its first 0, or
    # its last letter when it has none, is smaller) and end with 1 (else
    # its last letter 0 is a proper prefix, hence smaller).  So b is 0^r 1 ...
    # with r >= 1, and every later run of 0s follows a 1.  A suffix starting
    # with 1 is larger than b.  A suffix starting with 0^(r+1) is smaller,
    # so b is rejected when it contains 0^(r+1); the loop below would find
    # that suffix too, so this one C scan and the first-letter test are
    # shortcuts.  Otherwise every run of 0s is at most r long and ends at a
    # 1; a suffix starting with 0^t 1 for t < r is larger at its (t+1)-th
    # letter.  What is left are the suffixes starting with a whole run of
    # exactly r 0s, each right after an occurrence of 1 0^r; the first 1 is
    # at index r, so none comes sooner.  A proper suffix is shorter than b,
    # so it is never equal to it.
    n = len(b)
    if n < 2:
        return n == 1
    if b[0] != "0" or b[-1] != "1":
        return False
    r = b.index("1")
    if "0" * (r + 1) in b:
        return False
    run = "1" + "0" * r
    i = b.find(run, r)
    while i >= 0:
        if b[i + 1:] < b:
            return False
        i = b.find(run, i + 1)
    return True


def _lyndon(b: str) -> bool:
    # Lyndon under either order; 1 < 0 is 0 < 1 on the complement.  A Lyndon
    # word of two or more letters starts with its smaller letter, so b[0]
    # picks the one order to test (a single letter is Lyndon under both)
    return _is_lyndon(complement_word(b) if b.startswith("1") else b)


def _dyck(b: str) -> bool:
    if b.count("0") != b.count("1"):
        return False
    run = lo = hi = 0
    for c in b:
        run += 1 if c == "1" else -1
        lo = min(lo, run)
        hi = max(hi, run)
    return lo >= 0 or hi <= 0


def _0n1n(b: str) -> bool:
    n = len(b) // 2
    return len(b) % 2 == 0 and b in ("0" * n + "1" * n, "1" * n + "0" * n)


def _parity_dfa(accept: int) -> Dfa:
    # state 2a + b holds the parity a of the 0s and b of the 1s
    return Dfa([(q ^ 2, q ^ 1) for q in range(4)], 0, {accept})


def _no_run_dfa(k: int) -> Dfa:
    # (last symbol, length of its run); reaching a run of k rejects for good
    def step(s, c):
        last, run = s
        return s if run >= k else (c, run + 1 if c == last else 1)

    return explore((None, 0), step, lambda s: s[1] < k).minimize()


def _factor_count_dfa(k: int) -> Dfa:
    # (last symbol, 00 factors, 11 factors); a count past k rejects for good
    def step(s, c):
        last, n00, n11 = s
        if n00 > k or n11 > k:
            return s
        return (c, n00 + (c == last == 0), n11 + (c == last == 1))

    return explore((None, 0, 0), step, lambda s: s[1] <= k and s[2] <= k).minimize()


# name -> (form factory, membership predicate).  A regular builtin's
# automaton answers membership itself; a context-free builtin keeps its
# predicate, far faster than an Earley parse; copy and the Lyndon languages
# are not context-free and stay opaque.
_FIXED_BUILTINS = {
    "wrep": (lambda: compile_regex("(1|e)(01)*(0|e)").minimize(), None),
    "even-counts": (lambda: _parity_dfa(0), None),
    "odd-counts": (lambda: _parity_dfa(3), None),
    "palindrome": (
        lambda: Cfg.parse("S -> 0 S 0 | 1 S 1 | 0 | 1 | 0 0 | 1 1"),
        lambda b: b != "" and b == b[::-1],
    ),
    "balanced": (
        lambda: Cfg.parse("S -> 0 S 1 S | 1 S 0 S | eps"),
        lambda b: b.count("0") == b.count("1"),
    ),
    "dyck": (lambda: Cfg.parse("S -> A | B\nA -> 1 A 0 A | eps\nB -> 0 B 1 B | eps"), _dyck),
    "0n1n": (lambda: Cfg.parse("S -> A | B\nA -> 0 A 1 | eps\nB -> 1 B 0 | eps"), _0n1n),
    "copy": (
        lambda: None,
        lambda b: len(b) % 2 == 0 and b[: len(b) // 2] == b[len(b) // 2:],
    ),
    "lyndon": (lambda: None, _lyndon),
    "lyndon-odd": (lambda: None, lambda b: len(b) % 2 == 1 and _lyndon(b)),
}

_PARAMETRIZED_BUILTINS = {
    "uniform": lambda k: count_window_dfa(k, k),
    "k11": _factor_count_dfa,
    "no-kk": _no_run_dfa,
}


def builtin(name: str, param=None) -> Language:
    """The named builtin language; every builtin is 0-1-symmetric."""
    if name in _PARAMETRIZED_BUILTINS:
        if param is None:
            raise FormatError(f"builtin {name} requires a parameter")
        k = int(param)
        if not 0 <= k <= MAX_BUILTIN_PARAM:
            raise FormatError(f"builtin {name} needs a parameter from 0 to {MAX_BUILTIN_PARAM}")
        return Language(_PARAMETRIZED_BUILTINS[name](k), f"{name}({k})", symmetric=True)
    if name != "halfline" and name not in _FIXED_BUILTINS:
        raise FormatError(f"unknown builtin {name!r}")
    if param is not None:
        raise FormatError(f"builtin {name} takes no parameter")
    if name == "halfline":
        return hull_finite(HALFLINE_WORDS)
    make_form, member = _FIXED_BUILTINS[name]
    return Language(make_form(), name, member=member, symmetric=True)


# --- combinators ------------------------------------------------------------
#
# A combinator closes the forms it can: a Dfa under every operation, a Cfg
# under union, reversal and intersection with a Dfa.  Any other result is
# opaque, and its membership is composed pointwise from its parts.


def _combined(op, parts, form, member, symmetric) -> Language:
    label = f"{op}({','.join(p.label for p in parts)})"
    if isinstance(form, Dfa):
        # the automaton answers membership and settles an unproven symmetry
        return Language(form, label, symmetric=symmetric or None)
    return Language(form, label, member=member, symmetric=symmetric)


def _minimized(form):
    # products and reversals of automata leave redundant states
    return form.minimize() if isinstance(form, Dfa) else form


def hull_finite(words) -> Language:
    ws = set(words)
    ws |= {complement_word(w) for w in ws}
    return finite_language(ws)


def hull(lang: Language) -> Language:
    if lang.symmetric:
        return lang
    f = lang.form
    return _combined(
        "hull", [lang], None if f is None else _minimized(f.union(f.swap01())),
        lambda b: lang.contains(b) or lang.contains(complement_word(b)),
        True,
    )


def negate(lang: Language) -> Language:
    form = lang.form.complement() if isinstance(lang.form, Dfa) else None
    return _combined("not", [lang], form, lambda b: not lang.contains(b), lang.symmetric)


def conjoin(a: Language, b: Language) -> Language:
    if a.words is not None and b.words is not None:
        return finite_language(a.words & b.words)
    f, g = a.form, b.form
    if isinstance(g, Cfg):
        f, g = g, f  # a grammar goes first
    form = None
    if isinstance(f, Dfa) and isinstance(g, Dfa):
        form = f.intersect(g).minimize()
    elif isinstance(f, Cfg) and isinstance(g, Dfa):
        try:
            form = intersect_regular(f, g)
        except CapacityError:
            pass
    return _combined(
        "and", [a, b], form,
        lambda w: a.contains(w) and b.contains(w),
        a.symmetric and b.symmetric,
    )


def disjoin(a: Language, b: Language) -> Language:
    if a.words is not None and b.words is not None:
        return finite_language(a.words | b.words)
    f, g = a.form, b.form
    form = None
    if f is not None and type(f) is type(g):
        # two Dfas give their product, two Cfgs a fresh start symbol
        form = _minimized(f.union(g))
    return _combined(
        "or", [a, b], form,
        lambda w: a.contains(w) or b.contains(w),
        a.symmetric and b.symmetric,
    )


def reverse_language(lang: Language) -> Language:
    if lang.words is not None:
        return finite_language({w[::-1] for w in lang.words})
    f = lang.form
    return _combined(
        "rev", [lang], None if f is None else _minimized(f.reverse()),
        lambda b: lang.contains(b[::-1]),
        lang.symmetric,
    )


def trash_extend(lang: Language) -> Language:
    """The trash extension L-hat of a finite language: L together with every
    trash word, one whose count of 0s or of 1s lies outside
    freq(L) = {n >= 1 : some word of L has n zeros}."""
    if lang.words is None:
        raise ValueError("trash_extend requires a finite language")
    freq = frozenset(w.count("0") for w in lang.words if w.count("0") >= 1)
    return _combined(
        "trash-ext", [lang], None,
        lambda b: lang.contains(b) or b.count("0") not in freq or b.count("1") not in freq,
        True,
    )


# --- textual specs ----------------------------------------------------------

# name -> (combinator, arity)
_COMBINATORS = {
    "not": (negate, 1),
    "and": (conjoin, 2),
    "or": (disjoin, 2),
    "hull": (hull, 1),
    "rev": (reverse_language, 1),
    "trash-ext": (trash_extend, 1),
}

_SPACE = re.compile(r"\s*")
_OPERAND_HEAD = re.compile(r"(re|cfg):")
# a name, then an optional parameter: "(", the text up to ")", and the ")"
_NAME = re.compile(r"([\w-]*)\s*(?:(\()([^)]*)(\)?))?")
_WORD = re.compile(r"[01]+|e")
# combinators one spec may nest: _spec takes a frame per level, and so does
# an opaque language's membership
_SPEC_NESTING = 100


def parse_language(text: str) -> Language:
    lang, pos = _spec(text, 0)
    pos = _SPACE.match(text, pos).end()
    if pos != len(text):
        _fail(pos, f"trailing input {text[pos:]!r}")
    return lang


def _fail(pos, message):
    raise FormatError(f"bad language spec: {message}", pos)


def _spec(text, pos, depth=0):
    """The language spelled from text[pos] on, inside depth combinators,
    and the offset just after it."""
    pos = _SPACE.match(text, pos).end()
    if pos == len(text):
        _fail(pos, "empty spec")
    if text[pos] in "<{":
        # the words run to the first closer, split on commas; a blank item
        # last is a trailing comma or an empty list
        close = ">" if text[pos] == "<" else "}"
        end = text.find(close, pos)
        items = text[pos + 1:len(text) if end < 0 else end].split(",")
        if not items[-1].strip():
            items.pop()
        words = []
        for item in items:
            pos += len(item) + 1
            word = item.strip()
            if not _WORD.fullmatch(word):
                _fail(pos, f"bad word {word!r} (use 0/1 digits or e)")
            words.append("" if word == "e" else word)
        if end < 0:
            _fail(len(text), f"missing {close!r}")
        return (hull_finite if close == ">" else finite_language)(words), end + 1
    head = _OPERAND_HEAD.match(text, pos)
    if head:
        # the operand runs to the first top-level comma or unbalanced ")"
        start = pos = head.end()
        depth = 0
        while pos < len(text) and not (depth == 0 and text[pos] in ",)"):
            depth += {"(": 1, ")": -1}.get(text[pos], 0)
            pos += 1
        operand = text[start:pos].strip()
        if not operand:
            _fail(pos, "empty regular expression" if head[1] == "re" else "empty grammar path")
        if head[1] == "re":
            return Language(compile_regex(operand).minimize(), f"re:{operand}"), pos
        try:
            with open(operand, "r", encoding="utf-8") as fh:
                cfg = Cfg.parse(fh.read())
        except OSError as exc:
            _fail(pos, f"cannot read grammar file {operand!r}: {exc}")
        return Language(cfg, f"cfg:{operand}", symmetric=False), pos
    m = _NAME.match(text, pos)
    name = m[1]
    if not name:
        _fail(pos, f"unexpected character {text[pos]!r}")
    if name not in _COMBINATORS:
        if not m[2]:
            return builtin(name), m.end()
        if not m[4]:
            _fail(m.end(), "missing ')'")
        arg = m[3].strip()
        if not (arg.isascii() and arg.isdigit()):
            _fail(m.end(), f"parameter of {name} must be a nonnegative integer")
        return builtin(name, int(arg)), m.end()
    if depth == _SPEC_NESTING:
        _fail(pos, f"combinators nest more than {_SPEC_NESTING} deep")
    if not m[2]:
        _fail(m.end(), f"combinator {name} needs arguments")
    # each argument follows the "(" or a comma
    pos = m.start(2)
    args = []
    while not args or text.startswith(",", pos):
        lang, pos = _spec(text, pos + 1, depth + 1)
        args.append(lang)
        pos = _SPACE.match(text, pos).end()
    if not text.startswith(")", pos):
        _fail(pos, "missing ')'")
    pos += 1
    combine, k = _COMBINATORS[name]
    if len(args) != k:
        _fail(pos, f"{name} takes {k} argument{'s' if k > 1 else ''}")
    if name == "trash-ext" and args[0].words is None:
        _fail(pos, "trash-ext applies to finite languages only")
    return combine(*args), pos


def require_symmetric(lang: Language):
    """Guard used by evaluation; grammar specs must be hulled or attested."""
    if not lang.symmetric:
        witness = lang.sym_witness
        raise NotSymmetricError(
            witness=witness,
            message=f"language {lang.label} is not attested 0-1-symmetric"
            + (f"; witness {witness!r}" if witness is not None else "")
            + "; wrap it in hull() or construct it with symmetric=True",
        )

