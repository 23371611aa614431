"""Finite simple graphs with string-labelled vertices.

Immutable value type plus the structural operations the representation
theorems use: complement, induced subgraphs, twin insertion, and the
textual formats (JSON object, edge list, DOT output).
"""

from __future__ import annotations

import json

from .errors import FormatError
from .words import check_token


class Graph:
    """Simple graph; vertex set nonempty, no loops, no multi-edges.

    Every graph gets its fields from one freezing step, ``_freeze``.
    ``Graph(vertices, edges)`` checks its input and then freezes it;
    ``Graph._frozen`` freezes parts that their maker has already checked,
    as ``codec.decode``, ``represent.evaluate``, ``complement`` and
    ``induced`` do.  The adjacency (``_adj``, vertex -> frozenset of
    neighbors) is built from the edges on first use, by the first
    neighbour query, and kept; a graph that is only compared, hashed or
    written out never builds it.  Until then the graph's class is the
    private ``_Unbuilt`` subclass, so Graph is not meant to be subclassed."""

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices, edges=()):
        vs = tuple(sorted(set(vertices)))
        if not vs:
            raise ValueError("graph needs at least one vertex")
        for v in vs:
            check_token(v)
        # one pass checks each edge in input order and puts it in token order
        known = set(vs)
        pairs = []
        for u, v in edges:
            if u not in known or v not in known:
                raise ValueError(f"edge endpoint {u!r}/{v!r} not a vertex")
            if u == v:
                raise ValueError(f"loop at {u!r}")
            pairs.append((u, v) if u < v else (v, u))
        self._freeze(vs, pairs)

    @classmethod
    def _frozen(cls, vs, edges) -> "Graph":
        """A graph from parts its maker has already checked, as ``_freeze``
        takes them; nothing is checked again."""
        g = object.__new__(cls)
        g._freeze(vs, edges)
        return g

    def _freeze(self, vs, edges):
        """Set the fields, once.  vs is the sorted tuple of distinct valid
        tokens; edges holds pairs (u, v) of them with u < v, repeats
        allowed.  The adjacency is left unset, and the graph is an
        ``_Unbuilt`` one, until the first neighbour query."""
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", frozenset(edges))
        object.__setattr__(self, "__class__", _Unbuilt)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the freezing step: the default
        # reduction restores the slots through __setattr__, which refuses
        return Graph._frozen, (self.vertices, self.edges)

    # -- basic queries -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.vertices)

    @property
    def size(self) -> int:
        return len(self.edges)

    def has_edge(self, u, v) -> bool:
        return u != v and v in self._adj[u]

    def neighbors(self, v) -> frozenset:
        return self._adj[v]

    def degree(self, v) -> int:
        return len(self._adj[v])

    def isolated_vertices(self):
        return tuple(v for v in self.vertices if not self._adj[v])

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph(n={self.order}, m={self.size})"

    # -- constructions -------------------------------------------------------

    def complement(self) -> "Graph":
        vs, adj = self.vertices, self._adj
        return Graph._frozen(
            vs, [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:] if v not in adj[u]]
        )

    def induced(self, keep) -> "Graph":
        keep = set(keep)
        if not keep.issubset(self.vertices):
            raise ValueError("induced set contains unknown vertices")
        if not keep:
            raise ValueError("graph needs at least one vertex")
        return Graph._frozen(
            tuple(sorted(keep)), [(u, v) for u, v in self.edges if u in keep and v in keep]
        )

    def relabel(self, mapping) -> "Graph":
        """The graph with each vertex v renamed mapping[v]; mapping must
        send the vertices to distinct names."""
        images = {}
        for v in self.vertices:
            if v not in mapping:
                raise ValueError(f"relabel mapping misses vertex {v!r}")
            image = mapping[v]
            if image in images:
                raise ValueError(
                    f"relabel mapping sends {images[image]!r} and {v!r} both to {image!r}"
                )
            images[image] = v
        return Graph(images, [(mapping[u], mapping[v]) for u, v in self.edges])

    def add_twin(self, v, new, *, true_twin: bool) -> "Graph":
        """Add ``new`` with the same neighborhood as v; a true twin is also
        adjacent to v itself."""
        if new in self.vertices:
            raise ValueError(f"vertex {new!r} already present")
        es = list(self.edges) + [(new, u) for u in self._adj[v]]
        if true_twin:
            es.append((new, v))
        return Graph(self.vertices + (new,), es)

    def add_isolated(self, new) -> "Graph":
        if new in self.vertices:
            raise ValueError(f"vertex {new!r} already present")
        return Graph(self.vertices + (new,), self.edges)

    def add_universal(self, new) -> "Graph":
        if new in self.vertices:
            raise ValueError(f"vertex {new!r} already present")
        return Graph(
            self.vertices + (new,),
            list(self.edges) + [(new, v) for v in self.vertices],
        )

    # -- traversals ----------------------------------------------------------

    def components(self):
        seen = set()
        comps = []
        for root in self.vertices:
            if root in seen:
                continue
            comp = {root}
            stack = [root]
            while stack:
                x = stack.pop()
                for y in self._adj[x]:
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def bipartition(self):
        """A 2-coloring (set, set) or None; isolated vertices go left."""
        color = {}
        for root in self.vertices:
            if root in color:
                continue
            color[root] = 0
            stack = [root]
            while stack:
                x = stack.pop()
                for y in self._adj[x]:
                    if y not in color:
                        color[y] = 1 - color[x]
                        stack.append(y)
                    elif color[y] == color[x]:
                        return None
        left = frozenset(v for v in self.vertices if color[v] == 0)
        right = frozenset(v for v in self.vertices if color[v] == 1)
        return left, right


class _Unbuilt(Graph):
    """A Graph whose adjacency slot is still unset.  Its ``__getattr__``
    builds ``_adj`` from the edges on the first read, fills the slot and
    makes the graph a plain Graph again.  The hook lives on this class
    alone because a type with ``__getattr__`` reads every attribute on a
    slower path (``has_edge`` took twice as long), while a plain Graph's
    queries pay nothing for the laziness."""

    __slots__ = ()

    def __getattr__(self, name):
        # reached only when normal lookup fails, as for the unset _adj slot
        if name != "_adj":
            raise AttributeError(f"'Graph' object has no attribute {name!r}", name=name, obj=self)
        adj = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        adj = {v: frozenset(nbrs) for v, nbrs in adj.items()}
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "__class__", Graph)
        return adj


# --- convenient families ----------------------------------------------------


def _labels(n, prefix="v"):
    return [f"{prefix}{i}" for i in range(1, n + 1)]


def null_graph(n, labels=None) -> Graph:
    return Graph(labels or _labels(n))


def complete_graph(n, labels=None) -> Graph:
    vs = labels or _labels(n)
    return Graph(vs, [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]])


def path_graph(n, labels=None) -> Graph:
    vs = labels or _labels(n)
    return Graph(vs, list(zip(vs, vs[1:])))


def cycle_graph(n, labels=None) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    vs = labels or _labels(n)
    return Graph(vs, list(zip(vs, vs[1:])) + [(vs[-1], vs[0])])


def complete_bipartite(a, b, labels=None) -> Graph:
    vs = labels or _labels(a + b)
    left, right = vs[:a], vs[a:]
    return Graph(vs, [(u, v) for u in left for v in right])


# --- text formats -----------------------------------------------------------


def graph_to_json(g: Graph) -> str:
    return json.dumps(
        {"vertices": list(g.vertices), "edges": [sorted(e) for e in sorted(g.edges)]}
    )


def graph_from_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad graph JSON: {exc}")
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise FormatError("graph JSON needs a 'vertices' field")
    vertices = obj["vertices"]
    edges = obj.get("edges", [])
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise FormatError("'vertices' must be a list of strings")
    if len(set(vertices)) != len(vertices):
        raise FormatError("duplicate vertex in graph JSON")
    if not isinstance(edges, list):
        raise FormatError("'edges' must be a list of vertex pairs")
    pairs = []
    for e in edges:
        if not isinstance(e, list) or len(e) != 2 or not all(isinstance(v, str) for v in e):
            raise FormatError(f"bad edge entry {e!r}")
        pairs.append((e[0], e[1]))
    return _read_graph(vertices, pairs)


def _read_graph(vertices, edges) -> Graph:
    # the Graph a text form describes; its ValueError (a loop, say) is a FormatError
    try:
        return Graph(vertices, edges)
    except ValueError as exc:
        raise FormatError(str(exc))


def graph_to_edge_list(g: Graph) -> str:
    lines = [f"{g.order} {g.size}"]
    isolated = g.isolated_vertices()
    if isolated:
        lines.append("v: " + " ".join(isolated))
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines)


def graph_from_edge_list(text: str) -> Graph:
    """First line ``n m``; then optional ``v:`` lines naming edge-free
    vertices and one ``u v`` line per edge."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty edge list")
    head = lines[0].split()
    if len(head) != 2 or not all(t.lstrip("-").isdigit() for t in head):
        raise FormatError(f"bad header line {lines[0]!r} (want 'n m')")
    n, m = int(head[0]), int(head[1])
    vertices = []
    edges = []
    for ln in lines[1:]:
        if ln.startswith("v:"):
            vertices.extend(ln[2:].split())
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {ln!r}")
        edges.append((parts[0], parts[1]))
        vertices.extend(parts)
    g = _read_graph(set(vertices), edges)
    if g.order != n or g.size != m:
        raise FormatError(
            f"header says n={n} m={m} but body has n={g.order} m={g.size}"
        )
    return g


def graph_to_dot(g: Graph, name="G") -> str:
    lines = [f"graph {name} {{"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for u, v in sorted(g.edges):
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines)


def parse_graph(text: str) -> Graph:
    """Accept either the JSON object form or the edge-list form."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return graph_from_json(text)
    return graph_from_edge_list(text)
