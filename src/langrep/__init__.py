"""Graphs from symmetric binary languages.

A word w over a vertex alphabet and a 0-1-symmetric binary language L
together define the graph G(L, w): vertices are the letters of w, and two
letters are adjacent exactly when their pairwise projection of w lies in
L.  This package evaluates that map, verifies and searches for
representing words, builds words constructively for characterized graph
classes, decides bounded-treewidth/degeneracy of the induced class for
regular and context-free languages, and serializes graphs through
copy-language words.
"""

from .codec import adjacent, decode, decode_word, encode
from .constructions import (
    BUILDERS,
    CANONICAL_SPECS,
    CLASSES,
    build_bipartite_chain,
    build_bipartite_lyndon_odd,
    build_bipartite_palindrome,
    build_circle,
    build_co_circle,
    build_cobipartite,
    build_cograph,
    build_comparability,
    build_convex,
    build_copy,
    build_copy_complement,
    build_cluster,
    build_halfline,
    build_interval,
    build_interval_bigraph,
    build_lyndon,
    build_palindrome,
    build_permutation,
    build_split,
    build_threshold,
    canonical_language,
)
from .decide import Verdict, decide
from .errors import (
    BuildError,
    CapacityError,
    FormatError,
    LangrepError,
    NotSymmetricError,
)
from .graphs import Graph, parse_graph
from .isomorphism import enumerate_graphs, isomorphic
from .languages import Language, parse_language
from .represent import CheckReport, check, decompose, evaluate, search
from .words import VertexWord

__version__ = "0.1.0"
