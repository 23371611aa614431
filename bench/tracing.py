"""Timing from outside the langrep package: call samples and traced spans.

A workload calls into a layer through ``clock.call(name, fn, *args)``.  The
untraced ``Timer`` keeps one duration sample per call; the ``Tracer`` keeps
a span (name, start, end, parent) per call instead, in flat arrays so that
hundreds of thousands of spans stay small in memory.  Spans nest through a
stack: a call made while another span is open becomes its child, which is
how membership calls made inside ``search`` or a builder are attributed.
Both clocks scale durations to a reference host speed, measured by
``host_kernel`` around each job.
"""

from __future__ import annotations

import gzip
import json
import random
import statistics
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Timer:
    """Untraced clock: duration samples per call name.

    A job's calls are held back until ``settle`` scales them, by the host
    speed measured around the job."""

    traced = False

    def __init__(self):
        self.samples = defaultdict(list)
        self._pending = []

    def call(self, name, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        self._pending.append((name, perf_counter() - t0))
        return out

    def settle(self, scale):
        """File the job's calls, scaled by ``scale``."""
        for name, dt in self._pending:
            self.samples[name].append(dt * scale)
        self._pending.clear()


class Tracer:
    """Traced clock: spans in memory, written out once at the end.

    ``settle`` gives the spans recorded since the last call a host-speed
    scale; totals use scaled durations, so per-layer seconds compare across
    runs the way the end-to-end times do."""

    traced = True

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.scales = array("d")
        self._stack = []
        self.counts = Counter()

    def call(self, name, fn, *args):
        i = len(self.starts)
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        try:
            return fn(*args)
        finally:
            self.ends[i] = perf_counter()
            self._stack.pop()

    def count(self, name, k=1):
        self.counts[name] += k

    def settle(self, scale):
        self.scales.extend([scale] * (len(self.starts) - len(self.scales)))

    def _seconds(self, i):
        return (self.ends[i] - self.starts[i]) * self.scales[i]

    def totals(self):
        """Per span name: (calls, total seconds, self seconds).  Self time
        is a span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.starts)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self._seconds(i)
        calls = Counter()
        total = defaultdict(float)
        own = defaultdict(float)
        for i, nid in enumerate(self.name_ids):
            name = self.names[nid]
            dur = self._seconds(i)
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child[i]
        return {n: (calls[n], total[n], own[n]) for n in calls}

    def root_seconds(self, names):
        """Summed duration of the top-level spans with the given names."""
        wanted = {self._ids[n] for n in names if n in self._ids}
        return sum(
            self._seconds(i)
            for i, nid in enumerate(self.name_ids)
            if nid in wanted and self.parents[i] < 0
        )

    def write(self, path):
        """Gzipped JSON columns: span i has name names[name[i]], parent index
        parent[i] (-1 at top level), start/end in perf_counter seconds and the
        host-speed scale of its job."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name_ids.tolist(),
                    "parent": self.parents.tolist(),
                    "start": self.starts.tolist(),
                    "end": self.ends.tolist(),
                    "scale": self.scales.tolist(),
                },
                fh,
            )


@contextmanager
def traced_membership(clock, languages):
    """Route each language instance's bound ``contains`` through the clock.

    The wrapper is an instance attribute, so the object keeps its class and
    every caller holding the instance (search, a builder's self-check) is
    seen; deleting the attribute restores the class method."""
    wrapped = []
    try:
        for lang in languages:
            inner = lang.contains
            lang.contains = lambda b, inner=inner: clock.call("languages.contains", inner, b)
            wrapped.append(lang)
        yield
    finally:
        for lang in wrapped:
            del lang.contains


def percentile_ms(seconds, p):
    """(value in ms, unit, sample count); the value is None unless at least
    ten samples lie beyond the percentile."""
    if len(seconds) < 2:
        return None, "ms", len(seconds)
    q = statistics.quantiles(seconds, n=100, method="inclusive")[p - 1]
    if sum(1 for s in seconds if s > q) < 10:
        return None, "ms", len(seconds)
    return q * 1000, "ms", len(seconds)


# The host kernel: fixed pure-Python work of the kinds langrep does (string
# tokens in dicts and sets, sorting, small adjacency sets, 0/1 strings).  On
# a shared machine the same code runs up to 1.7x slower for seconds to
# minutes at a time while other tenants load the host.  The kernel, timed
# right before and after each job, measures that speed, and the job's times
# are scaled to the speed at which the kernel takes REFERENCE_KERNEL_S: about
# its time on an unloaded core of the 2-core x86-64 machine the benchmark
# was tuned on, so scaled times read as milliseconds there.
REFERENCE_KERNEL_S = 0.0018


def host_kernel():
    items = [(f"v{i:04d}", i) for i in range(1500)]
    random.Random(5).shuffle(items)
    table = dict(items)
    kept = {k for k, v in items if v % 3}
    ordered = sorted(table.items(), key=lambda kv: kv[1])
    adj = {}
    for i in range(40):
        for j in range(i):
            if (i * 31 + j * 17) % 7 == 0:
                adj.setdefault(i, set()).add(j)
                adj.setdefault(j, set()).add(i)
    bits = ["".join("0" if x % 2 else "1" for x in sorted(adj.get(i, ()))) for i in range(40)]
    return sum(1 for k, _ in ordered if k in kept) + len("".join(bits))


def host_kernel_seconds():
    t0 = perf_counter()
    host_kernel()
    return perf_counter() - t0


def speed_scale(before, after):
    """Factor taking a duration measured between two kernel runs to the
    reference host speed."""
    return REFERENCE_KERNEL_S / ((before + after) / 2)
