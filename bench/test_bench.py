"""The benchmark's own checks, at tiny sizes: ``python3 -m pytest bench``.

The negative control hands each workload a deliberately wrong reference
(a flipped recognizer verdict, or one edge dropped from the expected
graph); the harness must then count a failure and exit non-zero.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.use_checkout_source()

import workloads  # noqa: E402
from langrep.graphs import Graph  # noqa: E402


def tiny():
    return {
        "class-sweep": workloads.ClassSweep(rows=workloads.CLASS_ROWS[1:3] + (
            ("balanced", workloads.oracles.is_cluster, None, 3),
        )),
        "build-verify": workloads.BuildVerify(universal_n=6, model_n=7),
        "codec-mix": workloads.CodecMix(n=6, probes=4),
    }


def corrupt(job):
    if isinstance(job.expected, bool):
        return dataclasses.replace(job, expected=not job.expected)
    g = job.expected
    return dataclasses.replace(job, expected=Graph(g.vertices, sorted(g.edges)[1:]))


class WrongReference:
    """A workload whose first job with an edge (or a verdict) has a wrong
    expected answer; everything else is delegated unchanged."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def batches(self, state, rng):
        done = False
        for batch in self.inner.batches(state, rng):
            for i, job in enumerate(batch):
                if not done and (isinstance(job.expected, bool) or job.expected.size):
                    batch = batch[:i] + [corrupt(job)] + batch[i + 1:]
                    done = True
            yield batch


def run_tiny(capsys, name, registry, trace=0):
    code = run.main(
        ["--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        workloads=registry,
    )
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    record = json.loads((run.OUT / f"{name}-seed3-trace{trace}.json").read_text())
    return code, last, record


def metric_names(kind):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("name", ["class-sweep", "build-verify", "codec-mix"])
def test_tiny_run_is_correct_and_reports_every_metric(capsys, name):
    code, last, record = run_tiny(capsys, name, tiny())
    assert code == 0 and last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == metric_names("end_to_end")
    assert record["metrics"]["failed_ratio"]["value"] == 0
    for m in record["metrics"].values():
        assert m["unit"] and m["samples"] >= 1


@pytest.mark.parametrize("name", ["class-sweep", "build-verify", "codec-mix"])
def test_wrong_reference_is_reported_as_failure(capsys, name):
    registry = {k: WrongReference(w) for k, w in tiny().items()}
    code, last, record = run_tiny(capsys, name, registry)
    assert code != 0
    assert not last["correct"] and last["failed"] > 0
    assert record["metrics"]["failed_ratio"]["value"] > 0


@pytest.mark.parametrize("name", ["class-sweep", "build-verify", "codec-mix"])
def test_traced_run_reports_every_layer_metric(capsys, name):
    code, last, _ = run_tiny(capsys, name, tiny(), trace=1)
    assert code == 0 and last["correct"]
    assert set(last["metrics"]) == metric_names("per_layer")
    assert last["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "codec-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
