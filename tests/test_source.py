"""Source guards.  Each module-level function, class and constant, and each
method other than a dunder, in src/langrep/ is referred to elsewhere in
src/, or is listed below with the reason it stays without such a reader.  And
whether a language has an automaton is decided in one place, its ``form``
property, which never raises: no other module catches a CapacityError
around a ``.form`` read.  And no function in src/ calls itself, directly
or through other functions of its module, unless it is listed below with
the bound on its depth, or with the input that passes the recursion limit
and the change that will remove it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "langrep"

_FAMILY = "graph family the tests build their inputs from"

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
    "automata.Dfa.equivalent": "test reference: tests compare automata by language with it",
    "codec.decode_word": "the bench's codec-mix workload reads stored words with it",
    "words.VertexWord.project":
        "the bench's build-verify workload projects single pairs with it, through project_rows",
    "__init__.__version__": "the package version",
}


def _dunder(name):
    return name[:2] == name[-2:] == "__"


def uncalled_names(src=SRC):
    """Qualified names (module.name, module.Class.method) defined in src and
    referred to nowhere else in it.  A module-level name is a function, a
    class, or a constant bound by assignment.  A reference is a name or an
    attribute in code, read through import aliases; an import alone, a
    string or a docstring is not one, nor is a definition's use of its own
    name, an assignment's targets included."""
    defined = {}
    used = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        renamed = {
            a.asname: a.name for a in ast.walk(tree) if isinstance(a, ast.alias) and a.asname
        }
        for node in tree.body:
            owners = set()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owners = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                owners = {t.id for target in targets for t in ast.walk(target)
                          if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)}
            for name in owners:
                defined[f"{path.stem}.{name}"] = name
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
                if name not in owners:
                    used.add(name)
    return {qual for qual, name in defined.items() if name not in used}


def test_no_test_only_code_in_src():
    assert sorted(uncalled_names() - ALLOWED.keys()) == []


def test_allowlist_names_only_uncalled_code():
    assert sorted(ALLOWED.keys() - uncalled_names()) == []


def test_the_dead_code_guard_sees_an_unread_constant(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from .other import EXPORTED, SHARED\n"
        "_UNREAD = 1\n"
        "_READ, _PAIRED = 2, 3\n"
        "LIMIT: int = 4\n"
        "def f():\n"
        "    return _READ + LIMIT + SHARED\n",
        encoding="utf-8",
    )
    (tmp_path / "other.py").write_text("SHARED = 5\nEXPORTED = 6\n", encoding="utf-8")
    assert uncalled_names(tmp_path) == {"mod._UNREAD", "mod._PAIRED", "mod.f", "other.EXPORTED"}


def _names(node):
    # the names an except clause catches, bare or qualified
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def form_reads_caught_for_capacity(src=SRC):
    """(module, line) of each try outside languages.py whose body reads an
    attribute ``form`` and that has a handler catching CapacityError (or
    catching everything)."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "languages":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.Try):
                continue
            reads = any(isinstance(n, ast.Attribute) and n.attr == "form"
                        for stmt in node.body for n in ast.walk(stmt))
            caught = any(h.type is None or "CapacityError" in _names(h.type)
                         for h in node.handlers)
            if reads and caught:
                found.append((path.stem, node.lineno))
    return found


def test_no_capacity_handler_around_a_form_read():
    assert form_reads_caught_for_capacity() == []


def test_the_form_guard_sees_a_handler_around_a_form_read(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from .errors import CapacityError\n"
        "def f(lang):\n"
        "    try:\n"
        "        return len(lang.form)\n"
        "    except (ValueError, CapacityError):\n"
        "        return None\n"
        "def g(lang):\n"
        "    try:\n"
        "        return lang.form\n"
        "    except KeyError:\n"
        "        return None\n",
        encoding="utf-8",
    )
    assert form_reads_caught_for_capacity(tmp_path) == [("mod", 3)]


SELF_CALLING = {
    "languages._spec": "one frame per combinator, at most _SPEC_NESTING deep",
    "isomorphism._canon.visit": "one frame per individualized vertex, at most ISO_ORDER_CAP deep",
    "isomorphism.enumerate_graphs": "one frame per order, at most ENUM_ORDER_CAP deep",
    # the exponential oracle searches go one frame deeper per step
    "oracles._event_sequence.rec":
        "is_interval(path_graph(600)) raises RecursionError; the polynomial interval "
        "test of the ROADMAP (Gilmore and Hoffman) replaces it",
    "oracles.circle_chord_word.rec":
        "is_circle(null_graph(600)) raises RecursionError; the polynomial circle "
        "routine of the ROADMAP replaces it",
}


def _references(tree):
    """Each function of a module by qualified name (f, f.inner, Class.method),
    with the functions of the module it refers to.  A bare name it reads
    resolves as in Python, through the enclosing functions to the module (a
    class body is no scope for its methods); ``self.name`` resolves to a
    method of the enclosing class.  A nested function's references are its
    own, a lambda's are its definer's."""
    defs = {}  # qualified name -> (node, scopes for a bare name, innermost first, class)
    todo = [(tree, "", [""], None)]
    while todo:
        node, prefix, scopes, cls = todo.pop()
        if isinstance(node, ast.ClassDef):
            prefix, cls = prefix + node.name + ".", prefix + node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[prefix + node.name] = (node, [prefix + node.name + "."] + scopes, cls)
            prefix, scopes = prefix + node.name + ".", [prefix + node.name + "."] + scopes
        todo += [(child, prefix, scopes, cls) for child in ast.iter_child_nodes(node)]
    refs = {}
    for qual, (node, scopes, cls) in defs.items():
        refs[qual] = set()
        body = list(ast.iter_child_nodes(node))
        while body:
            sub = body.pop()
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            body += ast.iter_child_nodes(sub)
            name = None
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                name = next((s + sub.id for s in scopes if s + sub.id in defs), None)
            elif isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) == "self":
                name = f"{cls}.{sub.attr}"
            if name in defs:
                refs[qual].add(name)
    return refs


def self_calling_functions(src=SRC):
    """Qualified names (module.f, module.f.inner, module.Class.method) of the
    functions in src that call themselves, directly or through other
    functions of their module: those that reach themselves along
    ``_references``."""
    found = set()
    for path in sorted(src.glob("*.py")):
        refs = _references(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        for qual in refs:
            seen, todo = set(), list(refs[qual])
            while todo:
                callee = todo.pop()
                if callee not in seen:
                    seen.add(callee)
                    todo += refs[callee]
            if qual in seen:
                found.add(f"{path.stem}.{qual}")
    return found


def test_no_function_calls_itself_unbounded():
    assert sorted(self_calling_functions() - SELF_CALLING.keys()) == []


def test_self_calling_allowlist_names_only_self_calling_code():
    assert sorted(SELF_CALLING.keys() - self_calling_functions()) == []


def test_the_recursion_guard_sees_self_calls(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def direct(n):\n"
        "    return direct(n - 1) if n else 0\n"
        "def ping(n):\n"
        "    return pong(n)\n"
        "def pong(n):\n"
        "    return ping(n - 1) if n else 0\n"
        "def walk_all(xs):\n"
        "    return list(map(walk_all, xs))\n"
        "def caller():\n"
        "    return direct(3) + (lambda: direct(2))()\n"
        "def outer(tree):\n"
        "    def walk(x):\n"
        "        return [walk(y) for y in x]\n"
        "    return walk(tree)\n"
        "def run(box):\n"
        "    return box.depth(2)\n"
        "class Tree:\n"
        "    def depth(self, n):\n"
        "        return self.depth(n - 1) if n else 0\n"
        "    def size(self):\n"
        "        return 1 + sum(kid.size() for kid in self.kids)\n"
        "    def run(self):\n"
        "        return run(self)\n",
        encoding="utf-8",
    )
    assert self_calling_functions(tmp_path) == {
        "mod.direct", "mod.ping", "mod.pong", "mod.walk_all", "mod.outer.walk", "mod.Tree.depth",
    }
