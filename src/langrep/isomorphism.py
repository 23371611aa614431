"""Graph isomorphism, automorphism counts and small-graph enumeration, all
from one canonical labeling: individualization-refinement (McKay & Piperno,
"Practical graph isomorphism II", 2014).

Colour refinement splits the degree cells until the partition is equitable
(``_equitable``; refining the unit partition splits it by degree first, so
it starts there); the search then individualizes each vertex of the first
smallest non-singleton cell in turn.  A discrete partition is a leaf, whose
form is the relabeled adjacency; the canonical form is the greatest leaf
form.  Two facts keep this exact:

- The twin skip is sound.  A vertex whose twin (same open or same closed
  neighbourhood) in the cell was already tried is skipped: swapping twins
  is an automorphism fixing every other vertex, so its subtree is an
  isomorphic copy of the tried one, with the same leaf forms.
- The weighted best-leaf count is |Aut|.  The unpruned tree's leaves that
  reach the greatest form correspond one to one with automorphisms; the
  pruned search counts them by weighting each leaf with the product of the
  twin-class sizes along its path.

So ``_canon`` also yields the orders of all best leaves after the first, and
each gives the automorphism from the first best leaf's order to its own.
These, with the swaps of twins, generate Aut(g): an automorphism maps the
first best leaf to a best leaf of the unpruned tree, and swapping twins, one
level at a time down its path, moves that leaf into the pruned tree.
``automorphisms`` returns them, and nothing when every cell of the first
refinement is one class of twins (same open, or same closed,
neighbourhoods), since then the twin swaps generate Aut(g) alone.

Enumeration keeps the first augmentation with each canonical form (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998), and walks one
new neighbourhood per orbit of the parent's automorphism group.  An
automorphism of the parent, extended to fix the new vertex, is an
isomorphism between the augmentations by a neighbourhood and by its image,
so an orbit shares one form.  The neighbourhoods are walked in ascending
order, and each orbit's least one comes first; for each form, the first
augmentation met is the one the walk over every neighbourhood would keep,
so the representatives and their order do not depend on the orbits.  That
needs only that each generator is an automorphism: generators that miss
part of Aut(g) leave more, smaller orbits, and only cost work.
An augmentation in which some old vertex has a higher degree than the new
one is skipped.  Deleting that vertex leaves a parent with fewer edges, and
the parents are walked by size first, so that parent came earlier and its
walk kept this form already.  The kept forms, and the augmentation each
keeps, are the same as without the skip.
Refinement comes before canonical labeling.  Each augmentation not skipped
is refined once and keyed by the quotient of its equitable partition (each
cell's size and neighbour counts in every cell, in cell order).  Refinement
commutes with relabeling, so isomorphic augmentations have equal quotients.
An augmentation whose quotient no other refined one shares is the only
refined member of its class, so it is the one kept, without a canonical
form.  Only augmentations with a shared quotient are canonicalized, in walk
order, so each class keeps the same augmentation as when all are.
Nothing here uses the language machinery, so it can cross-validate it.
Sizes are capped: isomorphism and automorphisms at order 10, enumeration at
order 7.
"""

from __future__ import annotations

import itertools

from .errors import CapacityError
from .graphs import Graph

ISO_ORDER_CAP = 10
ENUM_ORDER_CAP = 7


def _masks(g: Graph) -> list:
    index = {v: i for i, v in enumerate(g.vertices)}
    return [sum(1 << index[u] for u in g.neighbors(v)) for v in g.vertices]


def _refine(adj, cells):
    """Split each cell by its vertices' neighbour counts in every cell,
    until no cell splits.  Parts are ordered by those counts."""
    while True:
        masks = [sum([1 << v for v in cell]) for cell in cells]
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            parts: dict = {}
            for v in cell:
                a = adj[v]
                parts.setdefault(tuple([(a & m).bit_count() for m in masks]), []).append(v)
            out += [parts[key] for key in sorted(parts)]
        if len(out) == len(cells):
            return cells
        cells = out


def _equitable(adj):
    """The refinement of the unit partition, ``_refine(adj, [all vertices])``.
    That call's first round splits the vertices by degree, in ascending
    order, so this starts from those cells and skips the round."""
    cells: dict = {}
    for v, m in enumerate(adj):
        cells.setdefault(m.bit_count(), []).append(v)
    return _refine(adj, [cells[d] for d in sorted(cells)])


def _quotient(adj, cells) -> tuple:
    """The quotient of the equitable partition cells: each cell's size and
    its vertices' neighbour counts in every cell, in cell order.  Refinement
    commutes with relabeling, so isomorphic graphs have equal quotients."""
    masks = [sum([1 << v for v in cell]) for cell in cells]
    return tuple((len(c), tuple([(adj[c[0]] & m).bit_count() for m in masks])) for c in cells)


def _canon(adj, cells=None):
    """(canonical form, a vertex order giving it, |Aut|, the orders of the
    later leaves with that form) of the graph with int adjacency masks adj;
    the form is adj relabeled by the first order.  cells, when given, is
    ``_equitable(adj)``, already computed by the caller."""
    closed = [m | 1 << v for v, m in enumerate(adj)]
    best = [(), None, 0, []]

    def visit(cells, weight):  # cells is equitable
        target = min((c for c in cells if len(c) > 1), key=len, default=None)
        if target is None:
            order = [c[0] for c in cells]
            form = tuple(sum(1 << k for k, u in enumerate(order) if adj[v] >> u & 1)
                         for v in order)
            if form > best[0]:
                best[:] = [form, order, weight, []]
            elif form == best[0]:
                best[2] += weight
                best[3].append(order)
            return
        i = cells.index(target)
        classes: dict = {}
        for v in target:
            rep = next((u for u in classes if adj[u] == adj[v] or closed[u] == closed[v]), v)
            classes[rep] = classes.get(rep, 0) + 1
        for v, size in classes.items():
            split = [[v], [u for u in target if u != v]]
            visit(_refine(adj, cells[:i] + split + cells[i + 1:]), weight * size)

    if cells is None:
        cells = _equitable(adj)
    visit(cells, 1)
    return tuple(best)


def isomorphic(g: Graph, h: Graph):
    """A vertex bijection turning g into h, or None: g's canonical order
    mapped position by position onto h's when the canonical forms agree."""
    if g.order != h.order or g.size != h.size:
        return None
    if g.order > ISO_ORDER_CAP:
        raise CapacityError(f"isomorphism test capped at order {ISO_ORDER_CAP}")
    gform, gorder, _, _ = _canon(_masks(g))
    hform, horder, _, _ = _canon(_masks(h))
    if gform != hform:
        return None
    return {g.vertices[a]: h.vertices[b] for a, b in zip(gorder, horder)}


def automorphism_count(g: Graph) -> int:
    if g.order > ISO_ORDER_CAP:
        raise CapacityError(f"automorphism count capped at order {ISO_ORDER_CAP}")
    return _canon(_masks(g))[2]


def automorphisms(g: Graph) -> list:
    """Automorphisms of g on vertex indices (sigma[i] is the index of the
    image of g.vertices[i]) that, with the swaps of twins, generate Aut(g):
    one per best leaf of the canonical search after the first, or none,
    before any individualization, when the twin swaps generate Aut(g)."""
    if g.order > ISO_ORDER_CAP:
        raise CapacityError(f"automorphisms capped at order {ISO_ORDER_CAP}")
    adj = _masks(g)
    cells = _equitable(adj)
    if all(len({adj[v] for v in c}) == 1 or len({adj[v] | 1 << v for v in c}) == 1
           for c in cells):
        return []
    _, first, _, leaves = _canon(adj, cells)
    return [tuple(v for _, v in sorted(zip(first, order))) for order in leaves]


def distinct_labelings(g: Graph):
    """All distinct graphs obtained by permuting g's labels (the labelled
    copies of g's isomorphism class on the same vertex set), each with one
    relabeling map realizing it."""
    seen = {}
    vs = g.vertices
    for perm in itertools.permutations(vs):
        mapping = dict(zip(vs, perm))
        img = g.relabel(mapping)
        if img.edges not in seen:
            seen[img.edges] = (img, mapping)
    return list(seen.values())


def _twin_swaps(adj) -> list:
    """The swaps of each two consecutive members of a class of twins: u and
    v with adj[u] - {v} == adj[v] - {u} (equal open or equal closed
    neighbourhoods).  Each is an automorphism."""
    classes: list = []
    swaps = []
    for v, m in enumerate(adj):
        for c in classes:
            u = c[0]
            if adj[u] & ~(1 << v) == m & ~(1 << u):
                sigma = list(range(len(adj)))
                sigma[c[-1]], sigma[v] = v, c[-1]
                swaps.append(sigma)
                c.append(v)
                break
        else:
            classes.append([v])
    return swaps


def _orbit_minima(k: int, generators) -> list:
    """The least mask of each orbit, ascending, of the group that generators
    (permutations of range(k)) generate acting on the subsets of range(k) as
    bit masks.  Each generator becomes a table over all 2^k masks, one entry
    per step: a mask's image is the image of the mask without its top bit,
    plus that bit's image."""
    tables = []
    for sigma in generators:
        table = [0]
        for image in sigma:
            bit = 1 << image
            table += [m | bit for m in table]
        tables.append(table)
    seen = bytearray(1 << k)
    minima = []
    for mask in range(1 << k):
        if seen[mask]:
            continue
        minima.append(mask)
        seen[mask] = 1
        stack = [mask]
        while stack:
            m = stack.pop()
            for table in tables:
                image = table[m]
                if not seen[image]:
                    seen[image] = 1
                    stack.append(image)
    return minima


_ENUM_CACHE: dict = {}


def enumerate_graphs(n: int):
    """One representative per isomorphism class of order n: the first
    augmentation of an (n-1)-representative, by one vertex over every
    neighborhood, with each canonical form.  Only the least neighbourhood
    of each orbit of the parent's automorphisms (``automorphisms`` and the
    twin swaps) is tried: its orbit shares its form, and it is the first
    of its orbit in the walk, so the result is the same as when every
    neighbourhood is.  That holds for any set of automorphisms as
    generators.  A neighbourhood is skipped when an old vertex then has a
    higher degree than the new one: deleting that vertex gives a parent
    with fewer edges, walked earlier, whose walk kept the form.  The rest
    are refined first and keyed by quotient; only those whose quotient
    another one shares are canonicalized.  Isomorphic augmentations have
    equal quotients, so one alone with its quotient is the only one tried
    in its class, and the one the walk keeps."""
    if n < 1:
        raise ValueError("order must be positive")
    if n > ENUM_ORDER_CAP:
        raise CapacityError(f"enumeration capped at order {ENUM_ORDER_CAP}")
    if n in _ENUM_CACHE:
        return list(_ENUM_CACHE[n])
    if n == 1:
        result = [Graph(["v1"])]
    else:
        walked: dict = {}  # quotient -> its augmentations, in walk order
        for g in enumerate_graphs(n - 1):
            base = _masks(g)
            for bits in _orbit_minima(n - 1, automorphisms(g) + _twin_swaps(base)):
                adj = [m | (bits >> i & 1) << (n - 1) for i, m in enumerate(base)]
                if max(m.bit_count() for m in adj) > bits.bit_count():
                    continue  # an earlier parent with fewer edges kept its form
                adj.append(bits)
                cells = _equitable(adj)
                walked.setdefault(_quotient(adj, cells), []).append((g, bits, adj, cells))
        kept = []
        for same in walked.values():
            if len(same) == 1:  # a quotient met once is a class of its own
                kept.append(same[0][:2])
                continue
            forms: dict = {}
            for g, bits, adj, cells in same:
                forms.setdefault(_canon(adj, cells)[0], (g, bits))
            kept += forms.values()
        new = f"v{n}"
        result = []
        for g, bits in kept:
            # the parts Graph() would make: vertices in token order, each
            # edge ascending
            added = [(v, new) if v < new else (new, v)
                     for i, v in enumerate(g.vertices) if bits >> i & 1]
            result.append(Graph._frozen(tuple(sorted(g.vertices + (new,))), list(g.edges) + added))
        # size first: the degree skip above needs each parent with fewer
        # edges walked before those with more
        result.sort(key=lambda g: (g.size, sorted(g.edges)))
    _ENUM_CACHE[n] = result
    return list(result)
