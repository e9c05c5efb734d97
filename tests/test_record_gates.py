"""Record gates: the benchmark's item digests and the demos' outputs.

The first ITEMS items of each benchmark workload, at seeds 1 and 1001, are
run in-process with ``bench/workloads.py`` and digested with
``bench/worker.py::digest``; the digests must equal the first ITEMS entries
of ``bench/reference.json`` itself, not a copy.  This test imports those two
files and reads the reference read-only: it writes nothing under ``bench/``.

Each demo runs as a subprocess, and the sha256 of its stdout must equal the
entry of ``tests/data/demo_golden.json``.  So a change that is meant to keep
every record fails here if it moves one byte.  A change that does mean to
change records regenerates the benchmark reference with
``bench/make_reference.py`` and the demo digests with

    PYTHONPATH=src python tests/test_record_gates.py

and names the records it changes.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
DEMOS = os.path.join(ROOT, "demos")
GOLDEN = os.path.join(ROOT, "tests", "data", "demo_golden.json")
SEEDS = (1, 1001)
ITEMS = 20


def _bench_module(name):
    """A module of ``bench/``, loaded from its file under a private name."""
    spec = importlib.util.spec_from_file_location(
        f"_record_gates_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _demo_digest(name):
    """The sha256 of the stdout of one demo, run with the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, os.path.join(DEMOS, name)], env=env,
                         capture_output=True, check=True, timeout=120).stdout
    return hashlib.sha256(out).hexdigest()


def _demo_names():
    return sorted(f for f in os.listdir(DEMOS) if f.endswith(".py"))


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(BENCH, "reference.json")) as fh:
        reference = json.load(fh)
    return _bench_module("workloads"), _bench_module("worker"), reference


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", ["walk", "northsouth", "barycenter", "mass"])
def test_bench_items_match_the_reference_digests(bench, workload, seed):
    workloads, worker, reference = bench
    assert workload in workloads.WORKLOADS
    work = workloads.WORKLOADS[workload](seed)
    digests = []
    for i in range(ITEMS):
        record, ok = work.item(i)
        assert ok, (workload, seed, i)
        digests.append(worker.digest(record))
    assert digests == reference[workload][str(seed)][:ITEMS]


def test_every_demo_has_a_golden_digest():
    with open(GOLDEN) as fh:
        assert sorted(json.load(fh)) == _demo_names()


@pytest.mark.parametrize("name", _demo_names())
def test_demo_output_matches_the_golden_digest(name):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert _demo_digest(name) == golden[name]


if __name__ == "__main__":
    table = {name: _demo_digest(name) for name in _demo_names()}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
