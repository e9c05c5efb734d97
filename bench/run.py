"""Benchmark of the sl3building experiments: one workload per run.

    python3 bench/run.py --workload walk --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up is sampled in
SETUP_SAMPLES fresh interpreters, then the measured one runs items in a
closed loop for ``--seconds``; set-ups and items are timed in reference
units (``hostspeed.py``).  ``--trace 1`` runs items for
half of ``--seconds`` with every layer function wrapped, then replays the
same items untraced to check the records and measure the tracing overhead,
and reports the per-layer metrics.
Every item's record digest is compared with ``reference.json`` when it holds
digests for the seed.  The last line of stdout is the result:

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

The line before it holds the details (environment stamp, tail percentile,
digest checks); both go to ``.bench_out/`` as well.  The exit code is 0 when
the run is correct, 1 when it is not and 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

sys.path.insert(0, str(BENCH))
from hostspeed import REF_MS, REF_SPAWN_S, spawn_s  # noqa: E402
from spans import EXTRAS, TARGETS, span_names  # noqa: E402

WORKLOADS = ("walk", "northsouth", "barycenter", "mass")
SETUP_SAMPLES = 6
BUDGET_S = 170  # the whole run, set-up samples and replay included
# Percentile of item_ms_tail per workload: the highest that leaves at least
# ten items beyond it in a 25 s run on the reference host in its slow phase
# (about 83 walk, 210 northsouth, 53 barycenter and 220 mass items).  Fixed,
# because a percentile that followed each run's item count would move with
# the host's speed.
TAIL_PERCENTILE = {"walk": 85, "northsouth": 90, "barycenter": 75, "mass": 90}

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def per_layer_units():
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for mod in TARGETS:
        units[f"{mod}.self_s"] = "s"
    units["bench.self_s"] = "s"
    units.update(EXTRAS)
    units.update({"setup.import_s": "s", "setup.construct_s": "s",
                  "trace.run_s": "s", "trace.overhead_frac": "ratio"})
    return units


class Budget:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return max(1.0, self.end - time.monotonic())


class WorkerError(RuntimeError):
    pass


def run_worker(budget, workload, seed, *, seconds=None, items=None,
               trace=False, calibrate=False, setup_only=False, spans=None):
    """Run one worker process to its end and return its result."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"worker-{workload}-{os.getpid()}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    cmd += ["--items", str(items)] if items is not None else ["--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    if calibrate:
        cmd.append("--calibrate")
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    out.unlink(missing_ok=True)
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())],
                              cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=budget.left())
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker for {workload} passed the time budget") from exc
    if proc.returncode != 0 or not out.is_file():
        raise WorkerError(f"worker for {workload} exited with code {proc.returncode}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def check_items(workload, seed, result, replay=None):
    """Failed item ids: raised, failed a check, or a record that differs."""
    items = result["items"]
    ref = json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed), [])
    failed = {it["i"] for it in items if it["error"] or not it["ok"]}
    failed |= set(result["finish_failed"])
    mismatched = {it["i"] for it in items if it["i"] < len(ref)
                  and it["digest"] != ref[it["i"]]}
    failed |= mismatched
    if replay is not None:
        other = {it["i"]: it["digest"] for it in replay["items"]}
        failed |= {it["i"] for it in items if other.get(it["i"]) != it["digest"]}
        failed |= set(replay["finish_failed"])
    detail = {"digest_checked": sum(it["i"] < len(ref) for it in items),
              "digest_mismatched": len(mismatched),
              "errors": [it["error"] for it in items if it["error"]][:3]}
    return failed, detail


def measure(args, budget):
    setups_wall, spawns = [], [spawn_s(budget.left())]
    for _ in range(SETUP_SAMPLES):
        setups_wall.append(run_worker(budget, args.workload, args.seed,
                                      seconds=args.seconds, setup_only=True)["setup_s"])
        spawns.append(spawn_s(budget.left()))
    setups = [wall * REF_SPAWN_S * 2 / (before + after)
              for wall, before, after in zip(setups_wall, spawns, spawns[1:])]
    result = run_worker(budget, args.workload, args.seed,
                        seconds=args.seconds, items=args.items, calibrate=True)
    ref_ms = REF_MS[result["host_kernel"]]
    wall = [it["ms"] for it in result["items"]]
    ms = [it["ms"] * ref_ms / it["host_ms"] for it in result["items"]]
    pct = TAIL_PERCENTILE[args.workload]
    tail = percentile(ms, pct)
    failed, detail = check_items(args.workload, args.seed, result)
    attempted = len(ms)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": attempted / (sum(ms) / 1000),
        "item_ms_p50": statistics.median(ms),
        "item_ms_tail": tail,
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": 1 - len(failed) / attempted,
    }
    detail.update({
        "failed_frac": len(failed) / attempted,
        "tail_percentile": pct,
        "tail_items_beyond": sum(m > tail for m in ms),
        "host_kernel": result["host_kernel"],
        "host_kernel_ms_p50": statistics.median(it["host_ms"] for it in result["items"]),
        "wall": {"items_per_s": attempted / (sum(wall) / 1000),
                 "item_ms_p50": statistics.median(wall),
                 "item_ms_tail": percentile(wall, pct)},
        "setup_samples_s": setups,
        "setup_samples_wall_s": setups_wall,
        "spawn_s": spawns,
        "measured_setup_wall_s": result["setup_s"],
        "import_s": result["import_s"],
        "construct_s": result["construct_s"],
        "loop_s": result["loop_s"],
        "item_ms": ms,
        "item_wall_ms": wall,
    })
    if "deviations_sigma" in result:
        detail["mass_deviation_sigma"] = result["deviations_sigma"]
    return attempted, failed, metrics, END_TO_END, detail


def measure_traced(args, budget):
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    traced = run_worker(budget, args.workload, args.seed, seconds=args.seconds / 2,
                        items=args.items, trace=True, spans=spans)
    plain = run_worker(budget, args.workload, args.seed, items=len(traced["items"]))
    failed, detail = check_items(args.workload, args.seed, traced, replay=plain)
    attempted = len(traced["items"])
    metrics = dict(traced["layers"])
    metrics.update({
        "setup.import_s": plain["import_s"],
        "setup.construct_s": plain["construct_s"],
        "trace.overhead_frac": traced["region_s"] / plain["region_s"] - 1,
    })
    detail.update({"failed_frac": len(failed) / attempted,
                   "span_file": str(spans.relative_to(ROOT))})
    return attempted, failed, metrics, per_layer_units(), detail


def loadavg():
    return Path("/proc/loadavg").read_text().split()[:3]


def host_loop_ms():
    """Median time of a fixed integer loop: the host's speed, which on a
    shared machine can change while the load average inside it does not."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for k in range(100_000):
            acc += k * k % 7
        times.append((time.perf_counter() - t) * 1000)
    return statistics.median(times)


def environment():
    """Commit, hash of the library sources, Python, nproc, CPU model, load
    average and host speed; the last two are taken again at the end."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sl3building").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), None)
    return {"commit": commit, "src_sha256": src.hexdigest()[:16],
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "cpu_model": cpu, "loadavg_start": loadavg(),
            "host_loop_ms_start": host_loop_ms()}


def main(argv=None):
    ap = argparse.ArgumentParser(description="sl3building benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int,
                    help="run exactly this many items instead of --seconds")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sl3building" / "__init__.py").is_file():
        print(f"error: no sl3building sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    budget = Budget(BUDGET_S)
    stamp = environment()
    try:
        attempted, failed, metrics, units, detail = (
            measure_traced if args.trace else measure)(args, budget)
    except (WorkerError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stamp["loadavg_end"] = loadavg()
    stamp["host_loop_ms_end"] = host_loop_ms()
    correct = not failed and attempted >= 1
    result = {"correct": correct, "attempted": attempted, "failed": len(failed),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": stamp, **detail}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
