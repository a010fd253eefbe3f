"""Checks of the benchmark itself.

    python3 -m pytest -q perfbench/test_bench.py

Runs every workload once at the tiny scale, untraced and traced, and
checks that every metric ``BENCHMARK.json`` names is emitted; checks the
self-time arithmetic on a hand-built span tree; and checks that the
benchmark fails, without a result, where the package source is missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import layer_metrics, self_times, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Every bound is a dyadic rational, so the arithmetic below is exact.
SPAN_TREE = [
    ("cli.main", 0.0, 8.0, -1, None),
    ("engine.fit", 1.0, 5.0, 0, None),
    ("numerics.digamma", 1.5, 2.0, 1, {"elems": 4}),
    ("numerics.digamma", 2.5, 3.25, 1, {"elems": 4}),
    ("io.save_model", 6.0, 7.5, 0, {"bytes": 100}),
]


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_self_times_are_exact_on_a_hand_built_tree():
    assert self_times(SPAN_TREE) == [2.5, 2.75, 0.5, 0.75, 1.5]
    m = layer_metrics(SPAN_TREE)
    assert m["cli.main.total_s"] == 8.0
    assert m["cli.main.self_s"] == 2.5
    assert m["numerics.digamma.calls"] == 2
    assert m["numerics.digamma.elems"] == 8
    assert m["numerics.digamma.self_s"] == 1.25
    assert m["engine.fit.p50_s"] == 4.0
    assert m["io.save_model.bytes"] == 100
    assert m["trace.coverage"] == 1.0
    assert m["projection.nnls.calls"] == 0


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert tail([float(v) for v in range(30, 0, -1)]) == (20.0, 100.0 * 20 / 30)
    assert tail([1.0, 2.0, 3.0]) == (2.0, 50.0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if trace:
        reached = {"train-image": "numerics.digamma.calls",
                   "evaluate-toy": "pipeline.knn_cosine_classify.calls",
                   "project-image": "projection.nnls.calls"}[workload]
        assert result["metrics"][reached]["value"] > 0


def test_fails_without_result_where_the_source_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
