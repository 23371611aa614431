#!/usr/bin/env python3
"""langrep benchmark: closed-loop workloads timed from outside the package.

    python3 bench/run.py                      # every workload, seed 1
    python3 bench/run.py --workload class-sweep --seed 7 --seconds 20 --trace 0

Run it from anywhere inside a source checkout; it imports ``langrep`` from
the checkout's ``src/`` and nothing else.  A single-workload run prints a
table of metrics (value, unit, sample count) and, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a fixed
amount of traced work and reports the per-layer metrics instead.  Full
records, and the spans of traced runs, go to ``.bench_out/`` in the
checkout.  The exit code is 0 only when every answer was right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import (
    Timer,
    Tracer,
    host_kernel_seconds,
    percentile_ms,
    speed_scale,
    traced_membership,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 170


def use_checkout_source():
    """Put the checkout's src/ first on sys.path; refuse to run without it,
    so that an installed copy of langrep is never measured."""
    src = ROOT / "src"
    if not (src / "langrep" / "__init__.py").is_file():
        raise SystemExit(f"bench: no langrep sources under {src}")
    sys.path.insert(0, str(src))


def drive(workload, state, batches, clock, seconds, min_batches, max_batches=None):
    """Run whole batches until ``seconds`` of wall time and ``min_batches``
    are done, yielding (job, output or raised exception, seconds, kernel
    seconds) per job.  The host kernel runs after every job, and the job's
    times are scaled to the reference host speed.  What the caller does
    between yields is not timed."""
    spent = last = 0.0
    kernel_before = host_kernel_seconds()
    for count, batch in enumerate(batches):
        if count >= min_batches and (
            (max_batches is not None and count >= max_batches) or spent + last > seconds
        ):
            return
        start = perf_counter()
        for job in batch:
            t0 = perf_counter()
            try:
                out = workload.run(state, job, clock)
            except Exception as exc:  # a raised error is a failed operation, not a crash
                out = exc
            dt = perf_counter() - t0
            kernel_after = host_kernel_seconds()
            scale = speed_scale(kernel_before, kernel_after)
            kernel_before = kernel_after
            clock.settle(scale)
            yield job, out, dt * scale, kernel_after
        last = perf_counter() - start
        spent += last


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.messages = []

    def add(self, workload, state, job, out):
        ops = workload.ops(job)
        self.attempted += ops
        if isinstance(out, Exception):
            problems = [f"raised {out!r}"] * ops
        else:
            problems = workload.check(state, job, out)
        self.failed += min(len(problems), ops)
        self.messages.extend(problems[:20 - len(self.messages)])


def setup_seconds(name):
    """Set-up time of a fresh interpreter, once per repeat, at the
    reference host speed."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def end_to_end(name, workload, seed, seconds):
    setups = setup_seconds(name)
    state = workload.setup(Timer())
    timer = Timer()
    # each answer is checked as soon as its call returns, so that the
    # process holds one job's outputs at a time and peak RSS is the program's
    tally = Tally()
    walls = []
    kernels = []
    batches = workload.batches(state, random.Random(seed))
    for job, out, dt, kernel in drive(
        workload, state, batches, timer, seconds, workload.min_batches
    ):
        walls.append(dt)
        kernels.append(kernel)
        tally.add(workload, state, job, out)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "graphs_per_s": (len(walls) / sum(walls), "1/s", len(walls)),
        "graph_ms_p50": percentile_ms(walls, 50),
        "graph_ms_p90": percentile_ms(walls, 90),
    }
    metrics.update(workload.details(timer, walls))
    metrics["host_kernel_ms"] = (statistics.median(kernels) * 1000, "ms", len(kernels))
    metrics["failed_ratio"] = (tally.failed / tally.attempted, "ratio", tally.attempted)
    return metrics, tally, None


def layer_metrics(tracer, overhead):
    totals = tracer.totals()
    counts = tracer.counts

    def calls(n):
        return totals.get(n, (0, 0.0, 0.0))[0]

    def secs(n):
        return totals.get(n, (0, 0.0, 0.0))[1]

    def timed(n):
        return secs(n), "s", calls(n)

    searches = calls("represent.search")
    builds = calls("constructions.build")
    m = {
        "isomorphism.distinct_labelings.s": timed("isomorphism.distinct_labelings"),
        "isomorphism.distinct_labelings.count": (
            counts["isomorphism.distinct_labelings.count"], "count",
            calls("isomorphism.distinct_labelings"),
        ),
        "represent.search.calls": (searches, "count", searches),
        "represent.search.found_ratio": (
            counts["represent.search.found"] / searches if searches else 0.0, "ratio", searches,
        ),
        "represent.search.self_s": (totals.get("represent.search", (0, 0.0, 0.0))[2], "s", searches),
        "languages.contains.calls": (calls("languages.contains"), "count", calls("languages.contains")),
        "languages.contains.s": timed("languages.contains"),
        "represent.evaluate.s": timed("represent.evaluate"),
        "words.project.calls": (calls("words.project"), "count", calls("words.project")),
        "words.project.s": timed("words.project"),
        "words.symbols": (counts["words.symbols"], "count", builds),
        # the builder's own self-check is one evaluate of the same word under
        # the same language, so the harness's re-evaluation stands in for it
        "constructions.word_s": (
            secs("constructions.build") - secs("represent.evaluate"), "s", builds,
        ),
        "graphs.complement.s": timed("graphs.complement"),
        "codec.encode.s": timed("codec.encode"),
        "codec.decode.s": timed("codec.decode"),
        "codec.decode_word.s": timed("codec.decode_word"),
        "graphs.construct.s": timed("graphs.construct"),
        "codec.adjacent.s": timed("codec.adjacent"),
        "codec.word_symbols": (counts["codec.word_symbols"], "count", calls("codec.encode")),
        "codec.payload_bytes": (counts["codec.payload_bytes"], "count", calls("codec.encode")),
        "isomorphism.enumerate_graphs.s": timed("isomorphism.enumerate_graphs"),
        "languages.parse_language.s": timed("languages.parse_language"),
        "trace.overhead_ratio": overhead,
    }
    return m


def traced(name, workload, seed):
    """A fixed amount of traced work (the workload's minimum batches), then
    the same jobs again untraced for the overhead ratio."""
    tracer = Tracer()
    before = host_kernel_seconds()
    state = workload.setup(tracer)
    tracer.settle(speed_scale(before, host_kernel_seconds()))
    batches = workload.batches(state, random.Random(seed))
    n = workload.min_batches
    with traced_membership(tracer, workload.languages(state)):
        done = [
            (job, out)
            for job, out, _, _ in drive(workload, state, batches, tracer, 0.0, n, n)
        ]
    # checked only now, so that the checks' own membership calls are not traced
    tally = Tally()
    for job, out in done:
        tally.add(workload, state, job, out)
    timer = Timer()
    for _ in drive(workload, state, [[job for job, _ in done]], timer, 0.0, 1, 1):
        pass
    plain = sum(sum(timer.samples[call]) for call in workload.timed_calls)
    ratio = tracer.root_seconds(workload.timed_calls) / plain
    return layer_metrics(tracer, (ratio, "ratio", len(done))), tally, tracer


def run_one(name, workload, seed, seconds, trace):
    measure = traced if trace else end_to_end
    args = (name, workload, seed) if trace else (name, workload, seed, seconds)
    metrics, tally, tracer = measure(*args)
    attempted, failed = tally.attempted, tally.failed
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "attempted": attempted,
        "failed": failed,
        "failures": tally.messages,
        "metrics": {
            k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json.gz")

    print(f"{name}  seed={seed}  python={record['python']}  nproc={record['nproc']}  "
          f"trace={int(trace)}  attempted={attempted}  failed={failed}")
    for k, (v, u, n) in metrics.items():
        shown = "n/a (fewer than 10 samples beyond)" if v is None else f"{v:.6g}"
        print(f"  {k:<38} {shown:>14} {u:<6} samples={n}")
    for msg in tally.messages[:5]:
        print(f"  FAILED: {msg}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": u}
            for k, (v, u, n) in metrics.items()
            if k in reported(trace)
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def reported(trace):
    """The metric names BENCHMARK.json lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_all(names, seed, seconds, trace):
    """Each workload in a fresh interpreter, so peak RSS is its own."""
    status = 0
    summary = []
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.splitlines() or ["{}"]
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines[-1].startswith("{") else {}
        summary.append(f"  {name:<14} attempted={result.get('attempted')} "
                       f"failed={result.get('failed')} exit={proc.returncode}")
        status = status or proc.returncode
    print("summary:")
    print("\n".join(summary))
    return status


def main(argv=None, workloads=None):
    """Entry point; ``workloads`` replaces the registry (the benchmark's own
    tests use it to run tiny or deliberately broken workloads)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_source()
    import workloads as catalog

    registry = workloads or catalog.WORKLOADS
    if args.workload == "all":
        return run_all(list(registry), args.seed, args.seconds, args.trace)
    if args.workload not in registry:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(registry)}")
    return run_one(args.workload, registry[args.workload], args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
