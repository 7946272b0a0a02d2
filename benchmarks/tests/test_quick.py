"""The benchmark's own tests: every workload at toy size, traced and untraced.

    python3 -m pytest benchmarks/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
sys.path.insert(0, BENCH)

import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    CONTRACT = json.load(fh)
CHECKS = {
    "fit_l1": ["objective", "reference", "l1_ordering"],
    "fit_constrained": ["objective", "reference", "dual_bound", "slow_rate"],
    "fit_group": ["objective", "reference", "heuristic"],
    "verify_mixed": ["exit_code", "no_violated", "row_count"],
}
WORKLOADS = list(CHECKS)


def test_contract_names_only_known_workloads():
    assert {w["name"] for w in CONTRACT["workloads"]} <= set(WORKLOADS)


def bench(workload, trace, seed=3, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return lines[:-1], result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    text, result = result_of(bench(workload, 0))
    expected = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = "\n".join(text)
    for name in list(expected) + ["latency_p90_ms", "fail_rate"]:
        assert f"  {name} " in printed
    assert '"blas_threads"' in printed and '"seed": 3' in printed
    checks_line = next(line for line in text if line.startswith("  checks: "))
    for check in CHECKS[workload]:
        assert f" {check} " in checks_line


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    text, result = result_of(bench(workload, 1))
    expected = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert expected == tracing.PER_LAYER
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert metrics["trex.self_s"] > 0 and metrics["trex.solve_ms_p50"] > 0
    verify = workload == "verify_mixed"
    assert (metrics["harness.cells"] > 0) == verify
    assert (metrics["bounds.compat_calls"] > 0) == verify
    assert (metrics["lasso.calls"] > 0) == verify
    assert (metrics["norms.prox_calls"] > 0) == (workload in ("fit_group", "verify_mixed"))
    if workload != "fit_group":         # only the l1 engine reports iterations today
        assert metrics["trex.iterations_sum"] > 0
    assert metrics["datagen.generate_ms_p50"] > 0
    assert any("remainder" in line for line in text)


def test_exact_counters_repeat_with_the_same_seed():
    counters = ("trex.iterations_sum", "trex.iterations_max", "lasso.sweeps_sum",
                "bounds.compat_samples_sum", "bounds.verdict.holds",
                "bounds.verdict.not_applicable", "harness.report_bytes")
    runs = [result_of(bench("verify_mixed", 1, seed=5)) for _ in range(2)]
    first, second = ({k: r["metrics"][k]["value"] for k in counters} for _, r in runs)
    assert first == second
    digests = [[line for line in text if "report_sha256" in line] for text, _ in runs]
    assert digests[0] and digests[0] == digests[1]


def test_known_crash_probe_is_reported():
    text, _ = result_of(bench("verify_mixed", 0))
    assert any(line.startswith("  known defect probe") for line in text)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("fit_l1", 0, cwd=tmp_path, script=str(tmp_path / "benchmarks" / "run.py"))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def _span(sid, parent, start, end, pid=1, leaf=None):
    return tracing.Span(sid, pid, parent, 0, sid, "x", start, end, leaf=leaf)


def test_self_time_subtracts_the_union_of_parallel_children_and_counted_calls():
    spans = [_span("root", None, 0.0, 10.0),
             _span("a", "root", 1.0, 5.0, pid=2),
             _span("b", "root", 3.0, 7.0, pid=3, leaf={"norms": [4, 1.5]}),
             _span("c", "b", 4.0, 5.0, pid=3)]
    own = tracing.self_times(spans)
    assert own == {"root": 4.0, "a": 4.0, "b": 1.5, "c": 1.0}
    assert tracing.layer_self_times(spans) == {"x": 10.5, "norms": 1.5}
