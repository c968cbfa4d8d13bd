"""Tests of the benchmark itself: checks, tracing and the workloads at a tiny size.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import metrics
import run
import tracer
import worker
import workloads
from equimorse import pipeline

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _tiny_ops(workload, path, seed=3):
    return workloads.make_ops(workload, workloads.make_params(workload, seed, tiny=True),
                              str(path))


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) \
        == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        [(name, unit) for name, (unit, _) in metrics.END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [(name, unit, better) for name, (unit, better, _) in metrics.PER_LAYER.items()]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_at_tiny_size(workload, tmp_path):
    started = time.perf_counter()
    result = worker.run_pass(_tiny_ops(workload, tmp_path))
    assert result["ops"] > 0
    assert result["failures"] == []
    assert time.perf_counter() - started < 30.0


def test_parameter_table_is_a_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_params(workload, 7) == workloads.make_params(workload, 7)
    assert workloads.make_params("verify_catalog", 1) != workloads.make_params("verify_catalog", 2)


def test_corrupted_betti_list_counts_as_failure(monkeypatch, tmp_path):
    original = pipeline.run_case

    def corrupted(*args, **kwargs):
        report = original(*args, **kwargs)
        report["betti"][0] += 1
        return report

    monkeypatch.setattr(pipeline, "run_case", corrupted)
    ops = _tiny_ops("verify_catalog", tmp_path)
    result = worker.run_pass(ops)
    assert len(result["failures"]) == len(ops) == 4
    assert all("betti" in failure for failure in result["failures"])


def test_reference_drift_beyond_tolerance_is_a_problem():
    ref = {"gap": [2.0, 0.5]}
    assert workloads.compare_floats({"gap": [2.0 * (1 + 1e-9), 0.5 + 1e-9]}, ref) == []
    assert workloads.compare_floats({"gap": [2.0 * (1 + 1e-7), 0.5]}, ref)
    assert workloads.compare_floats({"gap": [2.0]}, ref)


def test_self_times_add_up_to_the_traced_op_wall_time(tmp_path):
    ops = _tiny_ops("verify_catalog", tmp_path)[:1]
    outside = []
    for _ in range(3):
        trace = tracer.Tracer()
        with tracer.installed(trace):
            result = worker.run_pass(ops, tracer=trace)
        assert result["failures"] == []
        root = trace.spans[0]
        assert root.metric == "op" and all(s.parent is not None for s in trace.spans[1:])
        layer = tracer.layer_metrics(trace.spans)
        assert layer["cli.self_s"] > 0 and layer["spectral.eigensolve_s"] > 0
        self_sum = sum(value for name, value in layer.items()
                       if metrics.PER_LAYER[name][0] == "s")
        outside.append((root.end - root.start) - self_sum)
    assert not hasattr(pipeline.run_case, "__wrapped__")
    # Only the benchmark's own lines around the call sit outside every layer
    # span; the least of three passes drops a stray collector or scheduler
    # pause.
    assert min(outside) >= 0.0
    assert min(outside) <= 1e-3


def test_traced_pass_reports_every_layer_metric_and_the_solve_counts(tmp_path):
    result, records = worker.traced_pass(_tiny_ops("verify_catalog", tmp_path))
    assert result["failures"] == []
    assert set(result["metrics"]) == set(metrics.PER_LAYER)
    for case in ("sphere_height", "sphere_bumpy", "torus_height"):
        assert result["per_op_solves"][f"verify {case}"] == [32, 26]
    assert result["metrics"]["spectral.eigensolves"] == 3 * 32 + 8
    assert result["metrics"]["spectral.unique_solves"] == 3 * 26 + 6
    assert result["metrics"]["spectral.errors"] == 0
    assert result["metrics"]["cli.bytes_written"] > 0
    assert {"name", "start", "end", "parent", "op"} <= set(records[0])


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local_oracles",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
