"""Command-line surface.

Exit code contract: 0 on success, 1 on negative verdicts (check mismatch,
search exhausted, decide false, adjacency false, failed selftest, builder
rejection, capacity), 2 on usage or format errors.  Every command prints a
single JSON object instead of its plain-text form when --json is passed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import constructions
from .codec import adjacent as codec_adjacent, decode, encode
from .decide import decide as run_decide
from .errors import BuildError, CapacityError, FormatError, LangrepError
from .graphs import (
    Graph,
    graph_to_dot,
    graph_to_edge_list,
    graph_to_json,
    parse_graph,
)
from .grammar import Cfg
from .isomorphism import ENUM_ORDER_CAP, enumerate_graphs
from .languages import parse_language
from .represent import check, decompose, evaluate, search
from .words import VertexWord


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _graph_arg(path: str) -> Graph:
    return parse_graph(_read_text(path))


def _emit(args, payload: dict, lines) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _graph_obj(g: Graph) -> dict:
    return {"vertices": list(g.vertices), "edges": [sorted(e) for e in sorted(g.edges)]}


def _render_graph(g: Graph, out: str) -> str:
    if out == "json":
        return graph_to_json(g)
    if out == "dot":
        return graph_to_dot(g)
    return graph_to_edge_list(g)


def _parse_freq(text: str):
    try:
        vals = {int(t) for t in text.replace(",", " ").split()}
    except ValueError:
        raise FormatError(f"bad frequentness set {text!r} (want e.g. '2' or '1,2')")
    if not vals or min(vals) < 1:
        raise FormatError(f"frequentness set must be positive integers, got {text!r}")
    return vals


# --- commands ---------------------------------------------------------------


def cmd_eval(args) -> int:
    lang = parse_language(args.lang)
    word = VertexWord.parse(args.word)
    g = evaluate(word, lang)
    out = "json" if args.json else args.out
    _emit(args, _graph_obj(g), [_render_graph(g, out)])
    return 0


def cmd_check(args) -> int:
    lang = parse_language(args.lang)
    word = VertexWord.parse(args.word)
    expected = _graph_arg(args.graph)
    report = check(word, lang, expected)
    payload = {
        "match": report.match,
        "message": report.message,
        "mapping": report.mapping,
        "first_diff": list(report.first_diff) if report.first_diff else None,
    }
    _emit(args, payload, [report.message])
    return 0 if report.match else 1


def cmd_search(args) -> int:
    lang = parse_language(args.lang)
    g = _graph_arg(args.graph)
    if args.uniform is not None:
        freqs = {args.uniform}
    elif args.freq is not None:
        freqs = _parse_freq(args.freq)
    else:
        freqs = {1, 2}
    kwargs = {}
    if args.budget is not None:
        kwargs["node_budget"] = args.budget
    word = search(g, lang, freqs, **kwargs)
    found = word is not None
    payload = {"found": found, "word": word.text() if found else None}
    _emit(args, payload, [word.text() if found else "none"])
    return 0 if found else 1


def cmd_build(args) -> int:
    tag = args.cls
    if tag == "cograph":
        tag = "cograph-wrep-like"
    try:
        builder = constructions.BUILDERS[tag]
    except KeyError:
        known = ", ".join(constructions.BUILDERS) + ", and cograph for cograph-wrep-like"
        raise FormatError(f"unknown class tag {tag!r}; known tags: {known}")
    g = _graph_arg(args.graph)
    word = builder(g)
    spec = constructions.CANONICAL_SPECS[tag]
    if args.emit_cert:
        payload = {"class": tag, "word": word.text(), "language": spec, "verdict": "match"}
        _emit(args, payload, [json.dumps(payload, sort_keys=True)])
    else:
        _emit(args, {"word": word.text()}, [word.text()])
    return 0


def cmd_decompose(args) -> int:
    lang = parse_language(args.lang)
    word = VertexWord.parse(args.word)
    dec = decompose(word, lang)
    parts = [
        {"freqs": list(pair), "edges": [sorted(e) for e in sorted(part.edges)]}
        for pair, part in sorted(dec.parts.items())
    ]
    payload = {
        "pairs": [list(p) for p in sorted(dec.pairs)],
        "parts": parts,
        "whole": _graph_obj(dec.whole),
    }
    lines = [f"pairs: {sorted(dec.pairs)}"]
    for entry in parts:
        lines.append(f"  {tuple(entry['freqs'])}: {entry['edges']}")
    _emit(args, payload, lines)
    return 0


def cmd_decide(args) -> int:
    if args.cfg is not None:
        spec = Cfg.parse(_read_text(args.cfg))
    else:
        spec = parse_language(args.lang)
    verdict = run_decide(spec, args.property)
    payload = verdict.to_json()
    _emit(args, payload, [json.dumps(payload, sort_keys=True)])
    return 0 if verdict.answer else 1


def cmd_encode(args) -> int:
    g = _graph_arg(args.graph)
    blob = encode(g, mode=args.mode, include_names=not args.no_names)
    if args.output == "-":
        sys.stdout.buffer.write(blob)
    else:
        with open(args.output, "wb") as fh:
            fh.write(blob)
    return 0


def cmd_decode(args) -> int:
    g = decode(_read_bytes(args.input))
    out = "json" if args.json else args.out
    _emit(args, _graph_obj(g), [_render_graph(g, out)])
    return 0


def cmd_adjacent(args) -> int:
    answer = codec_adjacent(_read_bytes(args.input), args.u, args.v)
    _emit(args, {"adjacent": answer}, ["true" if answer else "false"])
    return 0 if answer else 1


def cmd_classes(args) -> int:
    if args.order > 6:
        raise FormatError("classes is capped at order 6")
    lang = parse_language(args.lang)
    freqs = _parse_freq(args.freq) if args.freq is not None else {1, 2}
    found = []
    for g in enumerate_graphs(args.order):
        word = search(g, lang, freqs)
        if word is not None:
            found.append((g, word))
    payload = {
        "order": args.order,
        "language": args.lang,
        "frequentnesses": sorted(freqs),
        "graphs": [
            {"graph": _graph_obj(g), "word": w.text()} for g, w in found
        ],
    }
    lines = [f"{len(found)} of {len(enumerate_graphs(args.order))} classes represented"]
    for g, w in found:
        lines.append(f"  {[sorted(e) for e in sorted(g.edges)]}  word {w.text()}")
    _emit(args, payload, lines)
    return 0


# --- selftest ---------------------------------------------------------------

_FIGURE_VECTORS = [
    ("palindrome", "423121123142"),
    ("copy", "121324123142"),
    ("lyndon", "111222333444123412341124113234234223224343433433444444"),
    ("<0101>", "14213243"),
    ("wrep", "14213243"),
]


def _c4() -> Graph:
    return Graph("1234", [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")])


def _suite_figures() -> dict:
    failures = []
    for spec, text in _FIGURE_VECTORS:
        report = check(VertexWord.parse(text), parse_language(spec), _c4())
        if not report.match:
            failures.append(f"{spec}: {report.message}")
    c5k1 = Graph(
        "abcdef",
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
    )
    report = check(
        VertexWord.parse("eacdabdebcf"), parse_language("<0011,0110>"), c5k1
    )
    if not report.match:
        failures.append(f"negative-vector word: {report.message}")
    return {"name": "figure-vectors", "failures": failures}


# the class-table rows the characterization suite checks at their multiplicities
_N5_ROWS = [row for tag in ("interval", "permutation", "circle", "co-interval")
            for row in constructions.CLASSES if row.tag == tag]


def _suite_characterizations(max_order: int = 5) -> dict:
    failures = []
    for row in _N5_ROWS:
        lang = parse_language(row.spec)
        for n in range(1, max_order + 1):
            for g in enumerate_graphs(n):
                expected = row.recognizer(g)
                got = search(g, lang, row.bounds(n)) is not None
                if expected != got:
                    failures.append(
                        f"{row.tag} n={n} edges={sorted(g.edges)}: "
                        f"oracle={expected} search={got}"
                    )
    return {"name": "characterizations-n5", "failures": failures}


def _suite_properties(seed: int) -> dict:
    from .languages import negate, reverse_language

    rng = random.Random(seed)
    pool = [
        parse_language(s)
        for s in ("<01>", "<001>", "<0011>", "<0101>", "<0110>", "<01,0011>", "wrep")
    ]
    failures = []
    for case in range(120):
        lang = rng.choice(pool)
        n = rng.randint(2, 5)
        word = VertexWord(
            chr(ord("a") + rng.randrange(n)) for _ in range(rng.randint(2, 10))
        )
        g = evaluate(word, lang)
        vs = sorted(word.alphabet())
        keep = rng.sample(vs, rng.randint(1, len(vs)))
        sub = evaluate(word.project_set(keep), lang)
        if sub != g.induced(keep):
            failures.append(f"case {case}: hereditarity")
        if evaluate(word, negate(lang)) != g.complement():
            failures.append(f"case {case}: complement duality")
        if evaluate(word.reverse(), reverse_language(lang)) != g:
            failures.append(f"case {case}: reversal identity")
    return {"name": "properties", "failures": failures}


def _negative_control() -> dict:
    from .errors import NotSymmetricError
    from .languages import finite_language

    try:
        evaluate(VertexWord.parse("abab"), finite_language(["01"]))
    except NotSymmetricError:
        return {"invariant": "0-1-symmetry", "detected": True}
    return {"invariant": "0-1-symmetry", "detected": False}


def cmd_selftest(args) -> int:
    if not 1 <= args.order_cap <= ENUM_ORDER_CAP:
        raise FormatError(f"--order-cap must be between 1 and {ENUM_ORDER_CAP}")
    budget = 600.0
    started = time.monotonic()
    suites = []
    for run in (
        _suite_figures,
        lambda: _suite_characterizations(args.order_cap),
        lambda: _suite_properties(args.seed),
    ):
        t0 = time.monotonic()
        result = run()
        result["elapsed_seconds"] = round(time.monotonic() - t0, 3)
        result["pass"] = not result["failures"]
        suites.append(result)
    control = _negative_control()
    elapsed = time.monotonic() - started
    ok = all(s["pass"] for s in suites) and control["detected"]
    payload = {
        "suites": suites,
        "negative_control": control,
        "budget_seconds": budget,
        "elapsed_seconds": round(elapsed, 3),
        "budget_respected": elapsed <= budget,
        "pass": ok,
    }
    lines = []
    for s in suites:
        status = "pass" if s["pass"] else "FAIL"
        lines.append(f"{s['name']}: {status} ({s['elapsed_seconds']}s)")
        lines.extend(f"  {f}" for f in s["failures"][:5])
    lines.append(
        f"negative control ({control['invariant']}): "
        + ("detected" if control["detected"] else "MISSED")
    )
    lines.append(f"total {elapsed:.1f}s of {budget:.0f}s budget")
    _emit(args, payload, lines)
    return 0 if ok else 1


# --- wiring -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--seed", type=int, default=0, help="seed for sampled suites")

    top = argparse.ArgumentParser(prog="langrep", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate a word under a language")
    p.add_argument("--lang", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--out", choices=("edges", "json", "dot"), default="edges")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check", parents=[common], help="compare evaluation to a graph")
    p.add_argument("--lang", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("search", parents=[common], help="bounded representation search")
    p.add_argument("--lang", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--freq", help="allowed letter frequentnesses, e.g. '1,2'")
    p.add_argument("--uniform", type=int, help="shorthand for --freq k")
    p.add_argument("--budget", type=int, help="node budget (multiplicity assignments plus DFS nodes)")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("build", parents=[common], help="constructive class builders")
    p.add_argument("--class", dest="cls", required=True, metavar="TAG")
    p.add_argument("--graph", required=True)
    p.add_argument("--emit-cert", action="store_true", help="print word + language + verdict")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("decompose", parents=[common], help="frequentness-pair split")
    p.add_argument("--lang", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("decide", parents=[common], help="bounded treewidth/degeneracy")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--cfg", help="grammar file")
    src.add_argument("--lang", help="regular or context-free language spec")
    p.add_argument(
        "--property",
        choices=("treewidth", "degeneracy", "bounded-treewidth", "bounded-degeneracy"),
        default="treewidth",
    )
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("encode", parents=[common], help="serialize a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", choices=("sparse", "dense"), default="sparse")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--no-names", action="store_true")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", parents=[common], help="deserialize a graph")
    p.add_argument("input")
    p.add_argument("--out", choices=("edges", "json", "dot"), default="edges")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("adjacent", parents=[common], help="pair query on an encoding")
    p.add_argument("input")
    p.add_argument("u")
    p.add_argument("v")
    p.set_defaults(fn=cmd_adjacent)

    p = sub.add_parser("classes", parents=[common], help="order-n members of the class")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--lang", required=True)
    p.add_argument("--freq", help="allowed letter frequentnesses (default '1,2')")
    p.set_defaults(fn=cmd_classes)

    p = sub.add_parser("selftest", parents=[common], help="built-in acceptance suites")
    p.add_argument("--order-cap", type=int, default=5, help="characterization suite cap")
    p.set_defaults(fn=cmd_selftest)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (BuildError, CapacityError) as exc:
        # before LangrepError, which both are
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LangrepError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
