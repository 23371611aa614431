"""Bounded-treewidth / bounded-degeneracy decision for language specs.

Both properties of the induced graph class collapse to the same language
question: the class contains only edgeless graphs exactly when no word of
the language uses both symbols, i.e. L is a subset of 0* u 1*.  Emptiness
of L intersected with the both-symbols filter is decidable for every
language with a regular (Dfa) or context-free (Cfg) form; the
length-lexicographically least word of the intersection is the returned
witness when the answer is negative.  A finite word set needs no automaton:
its least word with both symbols is found by one scan.

For a Cfg the intersection is the trimmed product, built within
``PRODUCT_BUDGET`` bodies; each least fixpoint on it is one worklist pass,
linear in it up to a heap factor; a witness past the derivation cap is
refused by its length before it is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Dfa, both_symbols_dfa
from .errors import CapacityError
from .grammar import Cfg, intersect_regular

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

    Accepts a Language that is finite or has a regular or context-free
    form, a bare Dfa or Cfg, or a collection of binary words.  A finite
    word set, a finite Language's or a collection, is scanned for its
    length-lexicographically least word with both symbols (a word with
    another symbol is in no binary language, so none is a witness); an
    opaque language such as copy raises ValueError.  Symmetry is irrelevant
    here since the verdict is hull-stable.
    """
    try:
        prop = _ALIASES[property]
    except KeyError:
        raise ValueError(f"unknown property {property!r}; expected one of {PROPERTIES}")
    finite = isinstance(lang, (frozenset, set, list, tuple))
    words = lang if finite else getattr(lang, "words", None)
    if words is not None:
        both = [w for w in words if set(w) == {"0", "1"}]
        contains, witness = words.__contains__, min(both, key=lambda w: (len(w), w), default=None)
    else:
        form = lang if isinstance(lang, (Dfa, Cfg)) else getattr(lang, "form", None)
        if form is None:
            raise ValueError(
                f"decide needs a language with a regular or context-free form; {lang!r} has none"
            )
        contains, witness = _both_symbols_witness(form)
    if witness is not None:
        # kept under python -O: a wrong witness must not become a verdict
        if not ("0" in witness and "1" in witness and contains(witness)):
            raise RuntimeError(f"witness {witness!r} does not check against the language")
        return Verdict(prop, False, witness)
    return Verdict(prop, True, None)


def _both_symbols_witness(form):
    # (membership oracle, the least word of the form's language containing
    # both symbols or None when it lies within 0*∪1*)
    both = both_symbols_dfa()
    if isinstance(form, Dfa):
        return form.accepts, form.intersect(both).shortest_accepted()
    product = intersect_regular(form, both)
    length = product.shortest_length()
    if length is None:
        return form.contains, None
    # checked on the length, before a witness of that length is built; 2n + 2
    # for n the nonterminals of the full triple product on the binarized form
    bodies = [b for bs in form.productions.values() for b in bs]
    heads = len(form.productions) + sum(max(len(b) - 2, 0) for b in bodies)
    cap = 2 * (len(both) ** 2 * heads + 2 * len(both) + 1) + 2
    if length > cap:
        raise CapacityError(
            f"witness of length {length} exceeds the derivation cap {cap}"
        )
    return form.contains, product.shortest_word()
