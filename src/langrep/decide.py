"""Bounded-treewidth / bounded-degeneracy decision for language specs.

Both properties of the induced graph class collapse to the same language
question: the class contains only edgeless graphs exactly when no word of
the language uses both symbols, i.e. L is a subset of 0* u 1*.  Emptiness
of L intersected with the both-symbols filter is decidable for finite,
regular, and context-free specs; a shortest word of the intersection is
the returned witness when the answer is negative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Dfa, both_symbols_dfa
from .errors import CapacityError
from .grammar import Cfg, intersect_regular
from .languages import FiniteLanguage, GrammarLanguage, Language, RegularLanguage

PROPERTIES = ("bounded-treewidth", "bounded-degeneracy")

_ALIASES = {
    "treewidth": "bounded-treewidth",
    "degeneracy": "bounded-degeneracy",
    "bounded-treewidth": "bounded-treewidth",
    "bounded-degeneracy": "bounded-degeneracy",
}


@dataclass(frozen=True)
class Verdict:
    property: str
    answer: bool
    witness: str | None = None

    def to_json(self) -> dict:
        return {"property": self.property, "answer": self.answer, "witness": self.witness}


def decide(lang, property: str = "bounded-treewidth") -> Verdict:
    """Verdict true iff every graph the language represents is edgeless.

    Accepts a Language wrapper or a bare Cfg, Dfa, or collection of binary
    words; symmetry is irrelevant here since the verdict is hull-stable.
    """
    try:
        prop = _ALIASES[property]
    except KeyError:
        raise ValueError(f"unknown property {property!r}; expected one of {PROPERTIES}")
    contains, witness = _both_symbols_witness(lang)
    if witness is not None:
        assert contains(witness) and "0" in witness and "1" in witness
        return Verdict(prop, False, witness)
    return Verdict(prop, True, None)


def _both_symbols_witness(lang):
    # (membership oracle, a shortest word of L containing both symbols or
    # None when L ⊆ 0*∪1*)
    if isinstance(lang, (FiniteLanguage, frozenset, set, list, tuple)):
        words = lang.words if isinstance(lang, FiniteLanguage) else frozenset(lang)
        hits = [b for b in words if "0" in b and "1" in b]
        best = min(hits, key=lambda b: (len(b), b)) if hits else None
        return (lambda b: b in words), best
    if isinstance(lang, (RegularLanguage, Dfa)):
        dfa = lang.dfa if isinstance(lang, RegularLanguage) else lang
        return dfa.accepts, dfa.intersect(both_symbols_dfa()).shortest_accepted()
    if isinstance(lang, (GrammarLanguage, Cfg)):
        cfg = lang.cfg if isinstance(lang, GrammarLanguage) else lang
        product = intersect_regular(cfg, both_symbols_dfa())
        length = product.shortest_length()
        if length is None:
            return cfg.contains, None
        # checked on the length, before a witness of that length is built
        cap = 2 * len(product.binarized().nonterminals) + 2
        if length > cap:
            raise CapacityError(
                f"witness of length {length} exceeds the derivation cap {cap}"
            )
        return cfg.contains, product.shortest_word()
    raise ValueError(f"decide needs a finite, regular, or grammar language; got {lang!r}")
