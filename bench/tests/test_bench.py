"""Smoke tests of the benchmark itself, at item counts that finish in seconds.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, WORKLOADS, per_layer_units  # noqa: E402


def run_bench(*args, root=ROOT):
    proc = subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return proc.returncode, None, None
    detail = json.loads(lines[-2])["detail"] if len(lines) > 1 else None
    return proc.returncode, detail, json.loads(lines[-1])


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def test_untraced_run_emits_every_end_to_end_metric_with_its_unit():
    code, detail, result = run_bench("--workload", "northsouth", "--items", "3")
    assert code == 0 and result["correct"]
    assert result["attempted"] == 3 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["digest_checked"] == 3 and detail["failed_frac"] == 0
    assert detail["host_kernel"] == "mixed" and detail["host_kernel_ms_p50"] > 0
    assert set(detail["wall"]) == {"items_per_s", "item_ms_p50", "item_ms_tail"}
    for key in ("commit", "python", "nproc", "cpu_model", "loadavg_start",
                "loadavg_end", "host_loop_ms_start", "host_loop_ms_end", "src_sha256"):
        assert key in detail["environment"]


@pytest.mark.parametrize("workload,seed,items", [
    ("walk", 1, 2), ("walk", 1001, 2), ("barycenter", 1001, 1), ("mass", 1001, 12)])
def test_records_match_the_reference_digests(workload, seed, items):
    code, detail, result = run_bench("--workload", workload, "--seed", str(seed),
                                     "--items", str(items))
    assert code == 0 and result["correct"]
    assert detail["digest_checked"] == items and detail["digest_mismatched"] == 0


def test_corrupted_reference_digest_fails_the_run(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copytree(ROOT / "src" / "sl3building", tmp_path / "src" / "sl3building",
                    ignore=shutil.ignore_patterns("__pycache__"))
    ref_path = tmp_path / "bench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["northsouth"]["1"][1] = "0" * 16
    ref_path.write_text(json.dumps(ref))
    code, detail, result = run_bench("--workload", "northsouth", "--items", "2",
                                     root=tmp_path)
    assert code != 0
    assert not result["correct"] and result["failed"] == 1
    assert detail["failed_frac"] == 0.5 and detail["digest_mismatched"] == 1
    assert result["metrics"]["ok_frac"]["value"] == 0.5


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, _, result = run_bench("--workload", "walk", "--seconds", "1",
                                root=tmp_path)
    assert code != 0 and result is None


def traced(workload, items):
    code, detail, result = run_bench("--workload", workload, "--items", str(items),
                                     "--trace", "1")
    assert code == 0 and result["correct"], detail
    assert detail["digest_checked"] == items
    return {k: v["value"] for k, v in result["metrics"].items()}, detail


def test_traced_run_emits_every_per_layer_metric_and_adds_up():
    metrics, detail = traced("northsouth", 3)
    assert set(metrics) == set(per_layer_units())
    modules = [k for k in metrics if k.endswith(".self_s") and k.count(".") == 1]
    total = sum(metrics[k] for k in modules)
    assert total == pytest.approx(metrics["trace.run_s"], rel=1e-9)
    assert metrics["dynamics.north_south_limit.calls"] == 3
    assert metrics["dynamics.north_south_limit.flag_applies_per_call"] > 0
    assert (ROOT / detail["span_file"]).is_file()


def test_traced_call_counts_repeat_exactly():
    first, _ = traced("mass", 12)
    second, _ = traced("mass", 12)
    calls = [k for k in first if k.endswith(".calls")]
    assert {k: first[k] for k in calls} == {k: second[k] for k in calls}
    assert first["stochastics.basis_set_mass_estimate.calls"] == 12


def test_every_workload_names_a_host_kernel_with_a_reference_time():
    import hostspeed
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    assert set(hostspeed.REF_MS) == set(hostspeed.KERNELS)
    for name in WORKLOADS:
        kernel = workloads.WORKLOADS[name].HOST_KERNEL
        assert kernel in hostspeed.KERNELS
        assert hostspeed.kernel_ms(kernel) > 0


def test_stored_barycenter_minimizers_are_the_computed_ones():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    work = workloads.Barycenter(1)
    computed = [workloads.barycenter(t, work.P, work.RADIUS_CAP).min_vertices
                for t in work.triples]
    assert computed == work.minimizers
