"""The benchmark's workloads: seeded inputs, timed calls and answer checks.

Each workload is a closed loop with one caller in one thread: the next call
starts only after the previous one returns.  Inputs come from the
workload's own seeded generators.  Every answer is checked after the timed
region against a reference that does not go through the code path under
test: the class recognizers in ``langrep.oracles``, graphs the harness
builds itself from a model, and the harness's own pair projection and
LGR1 header reading.

A workload hands the harness batches of jobs.  The harness runs whole batches
only, so every run sees the same mix of inputs whatever its length.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from langrep import oracles
from langrep.codec import MAGIC, adjacent, decode, decode_word, encode
from langrep.constructions import (
    CANONICAL_SPECS,
    build_circle,
    build_cograph,
    build_copy,
    build_copy_complement,
    build_lyndon,
    build_palindrome,
    build_permutation,
    build_threshold,
    canonical_language,
)
from langrep.errors import FormatError
from langrep.graphs import Graph
from langrep.isomorphism import distinct_labelings, enumerate_graphs
from langrep.languages import parse_language
from langrep.represent import evaluate, search
from tracing import percentile_ms


def project(letters, u, v) -> str:
    """The pair projection, written independently of VertexWord.project."""
    return "".join("0" if t == u else "1" for t in letters if t == u or t == v)


def relabeled(g: Graph, rng) -> Graph:
    vs = list(g.vertices)
    return g.relabel(dict(zip(vs, rng.sample(vs, len(vs)))))


def names(prefix: str, n: int):
    # zero-padded, so that token order equals index order
    width = len(str(n - 1))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def pair_problems(letters, graph: Graph, lang, pairs):
    """Messages for the pairs whose projection disagrees with graph."""
    out = []
    for u, v in pairs:
        edge = graph.has_edge(u, v)
        if lang.contains(project(letters, u, v)) != edge:
            out.append(f"pair ({u},{v}) projects against the reference {'edge' if edge else 'non-edge'}")
    return out


# --- class-sweep --------------------------------------------------------------


def halfline_oracle(g: Graph) -> bool:
    """Halfline graphs: chordal and cobipartite once isolated vertices go."""
    core = [v for v in g.vertices if g.degree(v) > 0]
    if not core:
        return True
    sub = g.induced(core)
    return oracles.is_chordal(sub) and oracles.is_cobipartite(sub)


# A subset of the class-table rows: spec, recognizer, allowed multiplicities
# (None means {1..n}) and the highest order searched.  Orders sit at or
# below the table's own; three rows stop lower than the table so that one
# pass takes about 8 s on a 2-core machine: <01,001> costs 12 s at order 6,
# re:0110|1001 repeats <0110> through a DFA, and balanced costs 10 s at
# order 5.
CLASS_ROWS = (
    ("<0110>", oracles.is_permutation, (2,), 6),
    ("<01,001>", oracles.is_threshold, (1, 2), 5),
    ("re:0110|1001", oracles.is_permutation, (2,), 5),
    ("dyck", oracles.is_comparability, (2,), 5),
    ("balanced", oracles.is_cluster, None, 4),
    ("halfline", halfline_oracle, (1, 2, 3), 5),
)


@dataclass(frozen=True)
class SearchJob:
    row: int
    graph: Graph
    freqs: frozenset
    expected: bool  # the row's recognizer on graph


@dataclass
class SweepState:
    langs: list
    graphs: dict


class ClassSweep:
    """``search`` on every graph of each row's orders, in a seeded order and
    under a seeded relabeling; one batch is one pass over all of them."""

    name = "class-sweep"
    timed_calls = ("represent.search",)
    min_batches = 1

    def __init__(self, rows=CLASS_ROWS):
        self.rows = rows

    def setup(self, clock):
        langs = [clock.call("languages.parse_language", parse_language, r[0]) for r in self.rows]
        top = max(r[3] for r in self.rows)
        graphs = {
            n: clock.call("isomorphism.enumerate_graphs", enumerate_graphs, n)
            for n in range(1, top + 1)
        }
        return SweepState(langs, graphs)

    def languages(self, state):
        return state.langs

    def batches(self, state, rng):
        while True:
            jobs = []
            for r, (_, oracle, freqs, top) in enumerate(self.rows):
                for n in range(1, top + 1):
                    bounds = frozenset(freqs or range(1, n + 1))
                    for g in state.graphs[n]:
                        h = relabeled(g, rng)
                        jobs.append(SearchJob(r, h, bounds, oracle(h)))
            rng.shuffle(jobs)
            yield jobs

    def ops(self, job):
        return 1

    def run(self, state, job, clock):
        word = clock.call("represent.search", search, job.graph, state.langs[job.row], job.freqs)
        if clock.traced:
            # after the search: called before it, it warms the allocator
            # and the traced search runs faster than the untraced one
            labelings = clock.call("isomorphism.distinct_labelings", distinct_labelings, job.graph)
            clock.count("isomorphism.distinct_labelings.count", len(labelings))
            clock.count("represent.search.found", word is not None)
        return word

    def check(self, state, job, word):
        g = job.graph
        where = f"{self.rows[job.row][0]} n={g.order} edges={sorted(g.edges)}"
        if (word is not None) != job.expected:
            return [f"{where}: search found={word is not None}, recognizer says {job.expected}"]
        if word is None:
            return []
        counts = {}
        for t in word.letters:
            counts[t] = counts.get(t, 0) + 1
        if set(counts) != set(g.vertices) or not set(counts.values()) <= job.freqs:
            return [f"{where}: word {word.text()!r} breaks the multiplicity bounds"]
        pairs = itertools.combinations(g.vertices, 2)
        return [f"{where}: {p}" for p in pair_problems(word.letters, g, state.langs[job.row], pairs)]

    def details(self, timer, per_unit):
        s = timer.samples["represent.search"]
        return {
            "search_graphs_per_s": (len(s) / sum(s), "1/s", len(s)),
            "search_ms_p50": percentile_ms(s, 50),
            "search_ms_p90": percentile_ms(s, 90),
        }


# --- build-verify -------------------------------------------------------------


def gnp(rng, n, p, prefix="v"):
    vs = names(prefix, n)
    return Graph(vs, [(a, b) for a, b in itertools.combinations(vs, 2) if rng.random() < p])


def permutation_model(rng, n):
    """A permutation graph with its bottom line; top line is vertex order."""
    vs = names("p", n)
    pi = rng.sample(vs, n)
    at = {v: i for i, v in enumerate(pi)}
    # vs is in top-line order, so a pair is an edge iff the bottom line swaps it
    return Graph(vs, [(a, b) for a, b in itertools.combinations(vs, 2) if at[a] > at[b]]), pi


def circle_model(rng, n):
    """A circle graph with its chord word; chords cross iff they interleave."""
    vs = names("c", n)
    chords = vs + vs
    rng.shuffle(chords)
    ends = {}
    for i, v in enumerate(chords):
        ends.setdefault(v, []).append(i)
    edges = [
        (a, b) for a, b in itertools.combinations(vs, 2)
        if (ends[a][0] < ends[b][0] < ends[a][1]) != (ends[a][0] < ends[b][1] < ends[a][1])
    ]
    return Graph(vs, edges), chords


def threshold_model(rng, n):
    """A threshold graph from a random creation sequence."""
    order = rng.sample(names("t", n), n)
    edges = []
    for i, v in enumerate(order):
        if rng.random() < 0.5:
            edges.extend((v, u) for u in order[:i])
    return Graph(order, edges), None


def cograph_model(rng, n):
    """A cograph from a random cotree: split, recurse, then union or join."""
    def grow(vs):
        if len(vs) == 1:
            return []
        k = rng.randint(1, len(vs) - 1)
        left, right = vs[:k], vs[k:]
        edges = grow(left) + grow(right)
        if rng.random() < 0.5:
            edges.extend(itertools.product(left, right))
        return edges

    vs = names("k", n)
    return Graph(vs, grow(rng.sample(vs, n))), None


# tag: (builder taking (graph, model), model generator or None for G(n, p)).
# A batch runs the universal builders on two G(n, p) graphs and each
# model-given builder once, both cograph modes included.  Of those 13
# builds, the median then falls inside the cograph cluster of build times
# and p90 inside the lyndon cluster, not on the edge of a cluster, where a
# few samples more or less would move them.
BUILDS = {
    "copy": (lambda g, _: build_copy(g), None),
    "copy-complement": (lambda g, _: build_copy_complement(g), None),
    "palindrome": (lambda g, _: build_palindrome(g), None),
    "lyndon": (lambda g, _: build_lyndon(g), None),
    "permutation": (build_permutation, permutation_model),
    "circle": (build_circle, circle_model),
    "threshold": (lambda g, _: build_threshold(g), threshold_model),
    "cograph-wrep-like": (lambda g, _: build_cograph(g), cograph_model),
    "cograph-containment-like": (lambda g, _: build_cograph(g, "containment-like"), cograph_model),
}


@dataclass(frozen=True)
class BuildJob:
    tag: str
    graph: Graph
    model: object
    expected: Graph  # the graph the harness built from the model
    pairs: tuple  # the sampled pairs the check projects


class BuildVerify:
    """The universal builders on seeded G(n, p) graphs and the model-given
    builders on seeded class members."""

    name = "build-verify"
    timed_calls = ("constructions.build",)
    min_batches = 9  # 117 builds, so that p90 has ten samples beyond it

    def __init__(self, universal_n=40, p=0.3, model_n=80, sample_pairs=300):
        self.universal_n = universal_n
        self.p = p
        self.model_n = model_n
        self.sample_pairs = sample_pairs

    def setup(self, clock):
        refs = {
            tag: clock.call("languages.parse_language", parse_language, CANONICAL_SPECS[tag])
            for tag in BUILDS
        }
        for tag in BUILDS:
            clock.call("constructions.canonical_language", canonical_language, tag)
        return refs

    def languages(self, refs):
        return [canonical_language(tag) for tag in BUILDS]

    def batches(self, refs, rng):
        while True:
            inputs = [
                (tag, g, None)
                for g in (gnp(rng, self.universal_n, self.p) for _ in range(2))
                for tag, (_, model_of) in BUILDS.items()
                if model_of is None
            ]
            inputs += [
                (tag, *model_of(rng, self.model_n))
                for tag, (_, model_of) in BUILDS.items()
                if model_of is not None
            ]
            jobs = []
            for tag, graph, model in inputs:
                pairs = list(itertools.combinations(graph.vertices, 2))
                if len(pairs) > self.sample_pairs:
                    pairs = rng.sample(pairs, self.sample_pairs)
                jobs.append(BuildJob(tag, graph, model, graph, tuple(pairs)))
            yield jobs

    def ops(self, job):
        return 1

    def run(self, refs, job, clock):
        word = clock.call("constructions.build", BUILDS[job.tag][0], job.graph, job.model)
        if clock.traced:
            clock.call("represent.evaluate", evaluate, word, canonical_language(job.tag))
            for u, v in itertools.combinations(sorted(word.alphabet()), 2):
                clock.call("words.project", word.project, u, v)
            clock.count("words.symbols", len(word))
        return word

    def check(self, refs, job, word):
        exp = job.expected
        where = f"{job.tag} n={exp.order} m={exp.size}"
        if set(word.letters) != set(exp.vertices):
            return [f"{where}: word alphabet differs from the vertex set"]
        out = []
        if job.tag == "copy-complement" and len(word) != 4 * exp.order + 2 * exp.size:
            out.append(f"{where}: length {len(word)} breaks the 4n+2m law")
        out += [f"{where}: {p}" for p in pair_problems(word.letters, exp, refs[job.tag], job.pairs)]
        return out

    def details(self, timer, per_unit):
        s = timer.samples["constructions.build"]
        return {
            "build_words_per_s": (len(s) / sum(s), "1/s", len(s)),
            "build_ms_p50": percentile_ms(s, 50),
            "build_ms_p90": percentile_ms(s, 90),
        }


# --- codec-mix ------------------------------------------------------------------


def read_varint(data, pos):
    value = shift = 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def varint(value) -> bytes:
    out = bytearray()
    while True:
        out.append((value & 0x7F) | (0x80 if value > 0x7F else 0))
        value >>= 7
        if not value:
            return bytes(out)


def symbol_width(n) -> int:
    return max(1, math.ceil(math.log2(n))) if n > 1 else 1


def layout(blob):
    """(n, word length, payload start, payload end) read from an LGR1 header;
    the payload length follows the criterion-09 bit-length law."""
    n, pos = read_varint(blob, 5)
    wordlen, start = read_varint(blob, pos)
    return n, wordlen, start, start + (wordlen * symbol_width(n) + 7) // 8


def malformed(blob):
    """LGR1 streams that decode must reject with FormatError."""
    n, wordlen, start, end = layout(blob)
    width = symbol_width(n)
    truncated = blob[:end - 1]
    padding = bytearray(blob)
    padding[end - 1] |= 1
    high = bytearray(blob)  # first symbol set to 2^width - 1, which is >= n
    for b in range(width):
        high[start + b // 8] |= 0x80 >> (b % 8)
    table, pos = [], end
    while pos < len(blob):
        length, body = read_varint(blob, pos)
        table.append(blob[pos:body + length])
        pos = body + length
    duplicate = blob[:end] + table[0] + table[0] + b"".join(table[2:])
    # a header promising 10^4 vertices over an empty word and no payload
    oversized = MAGIC + bytes([0]) + varint(10_000) + varint(0)
    return {
        "truncated payload": truncated,
        "nonzero padding": bytes(padding),
        "symbol index >= n": bytes(high),
        "duplicate names": duplicate,
        "oversized header": oversized,
    }


MALFORMED_PROBES = 5


@dataclass(frozen=True)
class CodecJob:
    graph: Graph
    probes: tuple  # (u, v) pairs: half edges, half non-edges
    expected: Graph


class CodecMix:
    """Per seeded sparse graph: one ``encode`` (sparse, with names), one
    ``decode`` and a mix of ``adjacent`` probes; one batch is one graph."""

    name = "codec-mix"
    timed_calls = ("codec.encode", "codec.decode", "codec.adjacent")
    min_batches = 110  # p90 of encode and decode needs 100 graphs

    def __init__(self, n=300, probes=20):
        # m = 2n + 1 makes the word 8n + 2 symbols long, so with an odd
        # symbol width the payload ends in padding bits to corrupt
        self.n = n
        self.m = 2 * n + 1
        self.probes = probes
        width = symbol_width(n)
        if (4 * n + 2 * self.m) * width % 8 == 0 or (1 << width) - 1 < n:
            raise ValueError(f"n={n} leaves no padding bits or no out-of-range symbol")

    def setup(self, clock):
        return None

    def languages(self, state):
        return []

    def batches(self, state, rng):
        vs = names("n", self.n)
        all_pairs = list(itertools.combinations(vs, 2))
        while True:
            edges = rng.sample(all_pairs, self.m)
            g = Graph(vs, edges)
            probes = [tuple(rng.sample(e, 2)) for e in rng.sample(edges, self.probes // 2)]
            while len(probes) < self.probes:
                u, v = rng.sample(vs, 2)
                if not g.has_edge(u, v):
                    probes.append((u, v))
            rng.shuffle(probes)
            yield [CodecJob(g, tuple(probes), g)]

    def ops(self, job):
        return 2 + len(job.probes) + MALFORMED_PROBES

    def run(self, state, job, clock):
        g = job.graph
        blob = clock.call("codec.encode", encode, g, "sparse", True)
        back = clock.call("codec.decode", decode, blob)
        answers = [clock.call("codec.adjacent", adjacent, blob, u, v) for u, v in job.probes]
        if clock.traced:
            clock.call("graphs.complement", g.complement)
            clock.call("codec.decode_word", decode_word, blob)
            clock.call("graphs.construct", Graph, back.vertices, back.edges)
            _, wordlen, start, end = layout(blob)
            clock.count("codec.word_symbols", wordlen)
            clock.count("codec.payload_bytes", end - start)
        return blob, back, answers

    def check(self, state, job, output):
        blob, back, answers = output
        exp = job.expected
        out = []
        if back != exp:
            out.append(f"decode gave {back!r}, expected {exp!r}")
        for (u, v), got in zip(job.probes, answers):
            if got != exp.has_edge(u, v):
                out.append(f"adjacent({u},{v}) = {got}")
        n, wordlen, start, _ = layout(blob)
        symbols = 4 * exp.order + 2 * exp.size
        names_len = sum(len(varint(len(v.encode()))) + len(v.encode()) for v in exp.vertices)
        payload = len(blob) - start - names_len
        if (n, wordlen) != (exp.order, symbols) or payload != (symbols * symbol_width(n) + 7) // 8:
            out.append(f"header n={n}, {wordlen} symbols, {payload} payload bytes break the length laws")
        for label, bad in malformed(blob).items():
            try:
                decode(bad)
            except FormatError:
                continue
            except Exception as exc:  # any other error type is a wrong answer
                out.append(f"malformed probe ({label}) raised {exc!r}")
                continue
            out.append(f"malformed probe ({label}) was accepted")
        return out

    def details(self, timer, per_unit):
        return {
            "encode_ms_p50": percentile_ms(timer.samples["codec.encode"], 50),
            "encode_ms_p90": percentile_ms(timer.samples["codec.encode"], 90),
            "decode_ms_p50": percentile_ms(timer.samples["codec.decode"], 50),
            "decode_ms_p90": percentile_ms(timer.samples["codec.decode"], 90),
            "adjacent_ms_p50": percentile_ms(timer.samples["codec.adjacent"], 50),
            "adjacent_ms_p99": percentile_ms(timer.samples["codec.adjacent"], 99),
            "malformed_probes": (MALFORMED_PROBES * len(per_unit), "count", len(per_unit)),
        }


WORKLOADS = {w.name: w for w in (ClassSweep(), BuildVerify(), CodecMix())}
