"""Constructive word builders for representable graph classes.

Every builder consumes a structural witness (model, ordering, permutation,
creation sequence) from the oracles module, emits a word, and then verifies
the word against the class's canonical language before returning it.  A
failed verification raises BuildError: the constructions juggle dense index
bookkeeping, and the check turns any slip into a loud failure instead of a
silently wrong word.

Vertex enumeration order inside builders is the lexicographic token order,
so outputs are deterministic.

The universal builders meet the paper's efficiency claim with exact length
laws, for n vertices, m edges and n(n-1)/2 - m non-edges:

    copy              4n + 2(non-edges)
    copy-complement   4n + 2m         adjacency lists, O(n + m)
    palindrome        2n + 2(non-edges)
    not(palindrome)   2n + 2m         adjacency lists, O(n + m)
    Lyndon            (3n^2 + 15n)/2  the adjacency matrix, O(n^2)

The not(palindrome) word is ``build_palindrome`` of the complement graph.

``CLASSES``, at the end of the module, is the class table: one row per class
with its tag, its canonical language spec, a recognizer (an oracle, or one
that accepts every graph for the four universal builders), its
multiplicities and its builder.  The recognizer accepts exactly the graphs
the builder builds, so every graph it rejects makes the builder raise
BuildError; only co-interval has no builder.  Multiplicities are a claim
about ``search``: at those multiplicities the spec represents exactly the
graphs the recognizer accepts (the acceptance tests check every graph up to
order 5 or 6).  UP_TO_ORDER (cluster) means 1..n at order n, and None means
the row makes no such claim.  ``CANONICAL_SPECS`` and ``BUILDERS`` map each
tag that has a builder to its spec and to its builder.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

from . import oracles
from .codec import copy_word
from .errors import BuildError
from .graphs import Graph
from .languages import Language, parse_language
from .represent import evaluate
from .words import VertexWord


@lru_cache(maxsize=None)
def canonical_language(tag: str) -> Language:
    return parse_language(CANONICAL_SPECS[tag])


def _verify(letters, tag: str, g: Graph) -> VertexWord:
    word = VertexWord(letters)
    if evaluate(word, canonical_language(tag)) != g:
        raise BuildError(f"construction-verification-failed: {tag}")
    return word


def _bipartition_or_error(g: Graph, tag: str):
    parts = g.bipartition()
    if parts is None:
        raise BuildError(f"{tag}: graph is not bipartite")
    left, right = parts
    if not left and right:
        left, right = right, left
    return sorted(left), sorted(right)


# --- universal builders -----------------------------------------------------


def build_palindrome(g: Graph) -> VertexWord:
    """Nested-palindrome word: w_1 = v_1 v_1, and each later vertex wraps the
    previous word as v u w v u^R with u its earlier non-neighbors ascending."""
    vs = g.vertices
    # w_n = v_n u_n ... v_2 u_2 v_1 v_1 v_2 u_2^R ... v_n u_n^R; the right
    # part is the reverse of u_n v_n ... u_2 v_2
    left, back = [], []
    for i in range(len(vs) - 1, 0, -1):
        v = vs[i]
        hood = g.neighbors(v)
        u = [x for x in vs[:i] if x not in hood]
        left.append(v)
        left += u
        back += u
        back.append(v)
    back.reverse()
    return _verify(left + [vs[0], vs[0]] + back, "palindrome", g)


def build_copy(g: Graph) -> VertexWord:
    return _verify(copy_word(g), "copy", g)


def build_copy_complement(g: Graph) -> VertexWord:
    """Copy word of the complement graph, written from g's own adjacency
    (each block lists earlier neighbors); under the complement language it
    represents g itself, with length exactly 4n + 2m.  The other word as
    long as g's adjacency lists needs no builder of its own: by complement
    duality, ``build_palindrome(g.complement())`` represents g under
    not(palindrome), with 2n + 2m letters."""
    letters = copy_word(g, complement=True)
    if len(letters) != 4 * g.order + 2 * g.size:
        raise BuildError("copy-complement: length bookkeeping is off")
    return _verify(letters, "copy-complement", g)


def build_lyndon(g: Graph) -> VertexWord:
    """1^3 2^3 ... n^3 then per vertex i the tail block v_i v_i u_i with
    v_i = i..n and u_i = i i x_i i i y_i (x_i, y_i the later neighbors and
    later non-neighbors, ascending)."""
    vs = list(g.vertices)
    word = []
    for v in vs:
        word += [v, v, v]
    for i, v in enumerate(vs):
        tail = vs[i:]
        hood = g.neighbors(v)
        x = [u for u in tail[1:] if u in hood]
        y = [u for u in tail[1:] if u not in hood]
        word += tail + tail + [v, v] + x + [v, v] + y
    return _verify(word, "lyndon", g)


# --- bipartite-style builders ----------------------------------------------


def _alternating_word(a_side, b_side, adjacent):
    # v_0 u_1 v_1 ... u_s v_s with u_i = x_i a_i y_i; the B enumeration is
    # split around a_i into neighbors (x) and non-neighbors (y)
    word = list(a_side)
    for i, a in enumerate(a_side):
        word += [b for b in b_side if adjacent(a, b)]
        word.append(a)
        word += [b for b in b_side if not adjacent(a, b)]
        word += [c for c in a_side if c != a]
    return word


def build_bipartite_palindrome(g: Graph) -> VertexWord:
    a_side, b_side = _bipartition_or_error(g, "bipartite")
    word = _alternating_word(a_side, b_side, g.has_edge)
    return _verify(word, "bipartite", g)


def build_bipartite_lyndon_odd(g: Graph) -> VertexWord:
    """a_1^3..a_s^3 b_1^2..b_t^2 x_1..x_s b_1^2..b_t^2 with
    x_i = a_i^2 y_i y_i a_i^2, y_i enumerating N(a_i); the second B tail
    keeps every A-B edge pattern a Lyndon word."""
    a_side, b_side = _bipartition_or_error(g, "bipartite-lyndon-odd")
    word = []
    for a in a_side:
        word += [a, a, a]
    b_tail = []
    for b in b_side:
        b_tail += [b, b]
    word += b_tail
    for a in a_side:
        y = [b for b in b_side if g.has_edge(a, b)]
        word += [a, a] + y + y + [a, a]
    word += b_tail
    return _verify(word, "bipartite-lyndon-odd", g)


# --- order-based builders ---------------------------------------------------


def build_comparability(g: Graph, order=None) -> VertexWord:
    """z z_{v_1} ... z_{v_n} over a linear extension of a transitive
    orientation; z_v = y_v v x_v with x_v the strict upper set of v."""
    vs = list(g.vertices)
    if order is None:
        arcs = oracles.transitive_orientation(g)
        if arcs is None:
            raise BuildError("comparability: no transitive orientation exists")
        above = _up_sets(vs, arcs)
    else:
        arcs = {(u, v) for u, v in order}
        above = _validate_partial_order(g, arcs)
    ext = _linear_extension(vs, arcs)
    word = list(ext)
    for v in ext:
        word += [w for w in ext if w != v and w not in above[v]]
        word.append(v)
        word += [w for w in ext if w in above[v]]
    if len(word) != g.order * (g.order + 1):
        raise BuildError("comparability: length bookkeeping is off")
    return _verify(word, "comparability", g)


def _validate_partial_order(g: Graph, arcs):
    """The up-sets of ``arcs``, a strict order orienting every edge of g.
    Otherwise raises ValueError on the first fault met in sorted arc order,
    so the message does not depend on set iteration order.  Transitivity
    at u < v means up[v] is a subset of up[u]; the least x outside is
    named."""
    ordered = sorted(arcs)
    for u, v in ordered:
        if not g.has_edge(u, v):
            raise ValueError(f"order relates non-adjacent pair ({u},{v})")
        if (v, u) in arcs:
            raise ValueError(f"order is not antisymmetric on ({u},{v})")
    if len(arcs) != g.size:
        raise ValueError("order does not orient every edge")
    up = _up_sets(g.vertices, arcs)
    for u, v in ordered:
        missing = up[v] - up[u]
        if missing:
            x = min(missing)
            raise ValueError(f"order is not transitive: {u}<{v}<{x} but not {u}<{x}")
    return up


def _up_sets(vs, arcs):
    up = {v: set() for v in vs}
    for u, v in arcs:
        up[u].add(v)
    return up


def _linear_extension(vs, arcs):
    preds = {v: set() for v in vs}
    for u, v in arcs:
        preds[v].add(u)
    out = []
    left = set(vs)
    while left:
        ready = sorted(v for v in left if not (preds[v] & left))
        if not ready:
            raise ValueError("order contains a cycle")
        out.append(ready[0])
        left.discard(ready[0])
    return out


def build_permutation(g: Graph, pi=None) -> VertexWord:
    """Top-line enumeration followed by the bottom-line enumeration; edges
    are exactly the inverted pairs.  Without ``pi`` the lines come from a
    transitive orientation F of g and F' of its complement: F' + F and
    F' + F^-1 are both linear orders (Pnueli, Lempel and Even 1971), which
    agree on the non-edges and disagree on the edges."""
    if pi is None:
        arcs = oracles.transitive_orientation(g)
        co_arcs = None if arcs is None else oracles.transitive_orientation(g.complement())
        if co_arcs is None:
            raise BuildError("permutation: no diagram exists")
        top = _linear_extension(g.vertices, co_arcs | arcs)
        bottom = _linear_extension(g.vertices, co_arcs | {(v, u) for u, v in arcs})
    else:
        top = list(g.vertices)
        bottom = list(pi)
        if sorted(bottom) != top:
            raise ValueError("pi is not a permutation of the vertex set")
    return _verify(top + bottom, "permutation", g)


def build_circle(g: Graph, chords=None) -> VertexWord:
    """The chord diagram read around the circle as a 2-uniform word."""
    if chords is None:
        chords = oracles.circle_chord_word(g)
        if chords is None:
            raise BuildError("circle: no chord diagram exists")
    chords = list(chords)
    profile = {}
    for tok in chords:
        profile[tok] = profile.get(tok, 0) + 1
    if set(profile) != set(g.vertices) or set(profile.values()) - {2}:
        raise ValueError("chord sequence is not 2-uniform over the vertex set")
    return _verify(chords, "circle", g)


def build_threshold(g: Graph) -> VertexWord:
    """Creation-sequence word: vv for a vertex added isolated, v for one
    added universal."""
    seq = oracles.threshold_creation_sequence(g)
    if seq is None:
        raise BuildError("threshold: no creation sequence exists")
    word = []
    for v, kind in seq:
        word += [v] if kind == "universal" else [v, v]
    return _verify(word, "threshold", g)


def build_bipartite_chain(g: Graph) -> VertexWord:
    """First occurrences of B, then stage i places the second occurrences
    of the newly covered part of the neighborhood chain and a_i itself."""
    ordering = oracles.nested_ordering(g)
    if ordering is None:
        raise BuildError("bipartite-chain: no nested ordering exists")
    a_side, b_side = ordering
    word = list(b_side)
    doubled = set()
    for a in a_side:
        for b in b_side:
            if b in doubled or not g.has_edge(a, b):
                continue
            word.append(b)
            doubled.add(b)
        word.append(a)
    return _verify(word, "bipartite-chain", g)


# --- intersection-model builders --------------------------------------------


def build_interval(g: Graph) -> VertexWord:
    """Interval-model endpoints scanned left to right; 2-uniform."""
    events = oracles.interval_event_sequence(g)
    if events is None:
        raise BuildError("interval: no interval model exists")
    return _verify([v for v, _ in events], "interval", g)


def build_convex(g: Graph) -> VertexWord:
    """Point letters once in the convex order; each vertex of the other side
    becomes an interval whose two letters bracket its neighborhood run."""
    ordering = oracles.convex_ordering(g)
    if ordering is None:
        raise BuildError("convex: no convex ordering exists")
    points, intervals = ordering
    pos = {p: i for i, p in enumerate(points)}
    runs = {}
    for a in intervals:
        spots = sorted(pos[b] for b in g.neighbors(a))
        runs[a] = (spots[0], spots[-1]) if spots else None
    word = []
    for a in intervals:
        if runs[a] is None:
            word += [a, a]
    for k, point in enumerate(points):
        word += sorted(a for a in intervals if runs[a] and runs[a][1] == k - 1)
        word += sorted(a for a in intervals if runs[a] and runs[a][0] == k)
        word.append(point)
    word += sorted(a for a in intervals if runs[a] and runs[a][1] == len(points) - 1)
    return _verify(word, "convex", g)


def build_interval_bigraph(g: Graph) -> VertexWord:
    """Bigraph interval model scanned left to right, then the A side
    appended once each, giving frequentnesses 3 (A) and 2 (B)."""
    model = oracles.interval_bigraph_model(g)
    if model is None:
        raise BuildError("interval-bigraph: no bigraph model exists")
    left, _right, events = model
    word = [v for v, _ in events] + list(left)
    return _verify(word, "interval-bigraph", g)


def build_halfline(g: Graph) -> VertexWord:
    """Endpoint-sorted enumeration; right-bounded rays doubled by a tail;
    isolated vertices appended as vvv (frequentness 3 is a hole of the
    language, so they attach to nothing)."""
    core = oracles.core(g)
    word = []
    if core is not None:
        model = oracles.halfline_model(core)
        if model is None:
            raise BuildError("halfline: core has no halfline model")
        word += sorted(core.vertices, key=lambda v: (model[v][1], v))
        word += sorted(
            (v for v in core.vertices if model[v][0] == 2), key=lambda v: (model[v][1], v)
        )
    for v in g.isolated_vertices():
        word += [v, v, v]
    return _verify(word, "halfline", g)


def build_co_circle(g: Graph) -> VertexWord:
    """Chord diagram of the complement of the non-isolated core, then each
    isolate once; singleton letters attach to nothing here, while in the
    complement view they form a universal clique tail."""
    core = oracles.core(g)
    word = []
    if core is not None:
        chords = oracles.circle_chord_word(core.complement())
        if chords is None:
            raise BuildError("co-circle: complement core is not a circle graph")
        word += chords
    word += g.isolated_vertices()
    return _verify(word, "co-circle", g)


# --- cographs ---------------------------------------------------------------


def build_cograph(g: Graph, mode: str = "wrep-like") -> VertexWord:
    """Even decomposition: every intermediate word splits into two halves
    with each vertex once per half; x = w1 u1 w2 u2 glues parts so the cross
    pattern alternates, y = w1 u1 u2 w2 so it nests.  Which of the two means
    union and which join depends on the language family.  The cotree is
    walked depth first on an explicit stack, splitting vertex sets over g's
    adjacency into components or else co-components, each in order of its
    least vertex; it builds no subgraph."""
    if mode not in ("wrep-like", "containment-like"):
        raise ValueError(f"unknown cograph mode {mode!r}")
    tag = f"cograph-{mode}"
    alternating_joins = mode == "wrep-like"
    adj = g._adj

    def glue(parts, join: bool):
        w1, w2 = parts[0]
        for u1, u2 in parts[1:]:
            if join == alternating_joins:
                w1, w2 = w1 + u1, w2 + u2
            else:
                w1, w2 = w1 + u1, u2 + w2
        return w1, w2

    def split(part, co: bool):
        left = set(part)
        parts = []
        while left:
            comp = [min(left)]
            left.remove(comp[0])
            for x in comp:  # visits what the loop appends
                near = left - adj[x] if co else left & adj[x]
                left -= near
                comp += near
            parts.append(comp)
        return parts

    # a part on the stack is split, or is one vertex with halves [v], [v];
    # a (join, k) entry glues the halves of the k parts built last
    built = []
    todo = [list(g.vertices)]
    while todo:
        item = todo.pop()
        if isinstance(item, tuple):
            join, k = item
            built[-k:] = [glue(built[-k:], join)]
        elif len(item) == 1:
            built.append((item, item))
        else:
            for join in (False, True):
                parts = split(item, co=join)
                if len(parts) > 1:
                    todo += [(join, len(parts))] + parts[::-1]
                    break
            else:
                raise BuildError("cograph: graph contains an induced P4")
    half1, half2 = built[0]
    return _verify(half1 + half2, tag, g)


# --- split and cobipartite composites ---------------------------------------


def split_partition(g: Graph):
    """(clique, independent) split partition via the degree-sequence
    threshold test, or None."""
    vs = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in vs]
    k = 0
    for i, d in enumerate(degs, start=1):
        if d >= i - 1:
            k = i
    if sum(degs[:k]) != k * (k - 1) + sum(degs[k:]):
        return None
    clique, independent = vs[:k], vs[k:]
    for i, u in enumerate(clique):
        for v in clique[i + 1:]:
            if not g.has_edge(u, v):
                return None
    for i, u in enumerate(independent):
        for v in independent[i + 1:]:
            if g.has_edge(u, v):
                return None
    return sorted(clique), sorted(independent)


def build_split(g: Graph) -> VertexWord:
    """Alternating-palindrome word on the clique-vs-independent cross edges;
    the clique side turns into a clique through the even-even count branch.
    When the clique has even size the plain word's counts land odd, so a
    B-then-A tail bumps both sides' parities into place."""
    parts = split_partition(g)
    if parts is None:
        raise BuildError("split: no split partition exists")
    clique, independent = parts
    if not clique:
        word = list(independent)
    else:
        word = _alternating_word(clique, independent, g.has_edge)
        if len(clique) % 2 == 0:
            word += independent + clique
    return _verify(word, "split", g)


def build_cobipartite(g: Graph) -> VertexWord:
    """Alternating-palindrome word of the complement; flipping the language
    to the complement disjunction flips the represented graph back to g."""
    comp = g.complement()
    a_side, b_side = _bipartition_or_error(comp, "cobipartite")
    word = _alternating_word(a_side, b_side, comp.has_edge)
    return _verify(word, "cobipartite", g)


def build_cluster(g: Graph) -> VertexWord:
    """Component j's vertices each appear j times; equal counts inside a
    component, unequal across components."""
    comps = sorted(g.components(), key=min)
    word = []
    for j, comp in enumerate(comps, start=1):
        for u in comp:
            for v in comp:
                if u < v and not g.has_edge(u, v):
                    raise BuildError("cluster: component is not a clique")
        for v in sorted(comp):
            word += [v] * j
    return _verify(word, "cluster", g)


# --- the class table --------------------------------------------------------

# the multiplicities of a row whose claim allows 1..n at order n
UP_TO_ORDER = "1..n"


class ClassRow(NamedTuple):
    """One row of ``CLASSES``; the module docstring says what it claims."""

    tag: str
    spec: str
    recognizer: Callable[[Graph], bool]
    multiplicities: tuple | str | None
    builder: Callable[[Graph], VertexWord] | None

    def bounds(self, n: int):
        """The multiplicities the row's claim allows at order n."""
        if self.multiplicities == UP_TO_ORDER:
            return tuple(range(1, n + 1))
        return self.multiplicities


def _every_graph(g: Graph) -> bool:
    return True


CLASSES = (
    ClassRow("palindrome", "palindrome", _every_graph, None, build_palindrome),
    ClassRow("copy", "copy", _every_graph, None, build_copy),
    ClassRow("copy-complement", "not(copy)", _every_graph, None, build_copy_complement),
    ClassRow("lyndon", "lyndon", _every_graph, None, build_lyndon),
    ClassRow("bipartite", "and(palindrome,wrep)", oracles.is_bipartite, None,
             build_bipartite_palindrome),
    ClassRow("bipartite-lyndon-odd", "lyndon-odd", oracles.is_bipartite, (1, 2),
             build_bipartite_lyndon_odd),
    ClassRow("comparability", "dyck", oracles.is_comparability, (2,), build_comparability),
    ClassRow("interval", "<0101,0110>", oracles.is_interval, (2,), build_interval),
    ClassRow("convex", "<010>", oracles.is_convex, (1, 2), build_convex),
    ClassRow("interval-bigraph", "<01110,01101,01011,01100,01010,01001>",
             oracles.is_interval_bigraph, None, build_interval_bigraph),
    ClassRow("permutation", "<0110>", oracles.is_permutation, (2,), build_permutation),
    ClassRow("circle", "<0101>", oracles.is_circle, (2,), build_circle),
    ClassRow("co-interval", "<0011>", oracles.is_co_interval, (2,), None),
    ClassRow("threshold", "<01,001>", oracles.is_threshold, (1, 2), build_threshold),
    ClassRow("bipartite-chain", "<001>", oracles.is_bipartite_chain, (1, 2),
             build_bipartite_chain),
    ClassRow("halfline", "halfline", oracles.is_halfline, (1, 2, 3), build_halfline),
    ClassRow("co-circle", "<0011,0110>", oracles.is_co_circle, None, build_co_circle),
    ClassRow("cograph-wrep-like", "wrep", oracles.is_cograph, None, build_cograph),
    ClassRow("cograph-containment-like", "<0110>", oracles.is_cograph, None,
             lambda g: build_cograph(g, "containment-like")),
    ClassRow("split", "or(and(palindrome,wrep),"
             "and(even-counts,re:(0|1)*0(0|1)*1(0|1)*|(0|1)*1(0|1)*0(0|1)*))",
             oracles.is_split, None, build_split),
    ClassRow("cobipartite", "or(not(palindrome),not(wrep))", oracles.is_cobipartite, None,
             build_cobipartite),
    ClassRow("cluster", "balanced", oracles.is_cluster, UP_TO_ORDER, build_cluster),
)

CANONICAL_SPECS = {row.tag: row.spec for row in CLASSES if row.builder}
BUILDERS = {row.tag: row.builder for row in CLASSES if row.builder}
