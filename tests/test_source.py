"""Source guard: each module-level function and class, and each method
other than a dunder, in src/langrep/ is referred to elsewhere in src/, or
is listed below with the reason it stays without such a caller."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "langrep"

_FAMILY = "graph family the tests build their inputs from"
_ORACLE = "reference recognizer the class-table tests and the bench check search against"

ALLOWED = {
    "graphs.null_graph": _FAMILY,
    "graphs.complete_graph": _FAMILY,
    "graphs.path_graph": _FAMILY,
    "graphs.cycle_graph": _FAMILY,
    "graphs.complete_bipartite": _FAMILY,
    "graphs.Graph.add_twin": "twin insertion, which the criterion tests apply to evaluated graphs",
    "graphs.Graph.add_isolated": "vertex insertion beside add_twin; tests build inputs with it",
    "graphs.Graph.add_universal": "vertex insertion beside add_twin; tests build inputs with it",
    "isomorphism.automorphism_count": "test reference: distinct_labelings is counted against it",
    "isomorphism.distinct_labelings": "bench/workloads.py imports it",
    "oracles.treewidth_exact": "test reference: decide's treewidth verdicts are checked against it",
    "oracles.degeneracy": "test reference: decide's degeneracy verdicts are checked against it",
    "oracles.is_cluster": _ORACLE,
    "oracles.is_cograph": _ORACLE,
    "oracles.is_split": _ORACLE,
    "oracles.is_threshold": _ORACLE,
    "oracles.is_interval_bigraph": _ORACLE,
    "oracles.is_bipartite_chain": _ORACLE,
    "oracles.is_convex": _ORACLE,
    "oracles.is_halfline": _ORACLE,
    "automata.Dfa.equivalent": "test reference: tests compare automata by language with it",
    "codec.decode_word": "the bench's codec-mix workload reads stored words with it",
    "words.VertexWord.project": "the bench's build-verify workload projects single pairs with it",
}


def _dunder(name):
    return name[:2] == name[-2:] == "__"


def uncalled_names(src=SRC):
    """Qualified names (module.name, module.Class.method) defined in src and
    referred to nowhere else in it.  A reference is a name or an attribute
    in code, read through import aliases; an import alone, a string or a
    docstring is not one, nor is a function's use of its own name."""
    defined = {}
    used = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        renamed = {
            a.asname: a.name for a in ast.walk(tree) if isinstance(a, ast.alias) and a.asname
        }
        for node in tree.body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = node.name
                defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                # dunders are called by the language, not by name
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                        defined[f"{path.stem}.{node.name}.{item.name}"] = item.name
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                name = renamed.get(name, name)
                if name != owner:
                    used.add(name)
    return {qual for qual, name in defined.items() if name not in used}


def test_no_test_only_code_in_src():
    assert sorted(uncalled_names() - ALLOWED.keys()) == []


def test_allowlist_names_only_uncalled_code():
    assert sorted(ALLOWED.keys() - uncalled_names()) == []
