"""Smoke test of the benchmark at 5 MUs / 2 UAVs, T=3.

    python -m pytest perfbench/tests -q

Runs every workload's code path traced and untraced, and checks the metric
names and units against BENCHMARK.json, the zero-call guard, the
cross-process fingerprint and the refusal to run without the sources.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.use_source_tree()

import bench  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return replace(bench.WORKLOADS[name], num_mus=5, num_uavs=2, episode_length=3,
                   ppo_epochs=1)


def run_tiny(name, trace, **kwargs):
    return bench.run_workload(name, 3, 0.0, trace, workload=tiny(name), setup_samples=1,
                              **kwargs)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_metric_emitted_with_its_unit(name, trace):
    result = run_tiny(name, trace)
    assert result.correct, (result.notes, result.guard)
    assert result.attempted >= 2 and result.failed == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result.metrics) == [m["name"] for m in spec]
    for m in spec:
        value, unit = result.metrics[m["name"]]
        assert unit == m["unit"]
        assert math.isfinite(value)
        if not trace:
            assert value > 0.0


@pytest.mark.parametrize("dropped,layer", [
    ("design_links", "env.radio.links"),
    ("Tensor.backward", "numerics.tensor.backward"),
])
def test_dropping_a_wrapper_trips_the_zero_call_guard(dropped, layer):
    wraps = [w for w in spans.LAYER_WRAPS if w.attr != dropped]
    assert len(wraps) == len(spans.LAYER_WRAPS) - 1
    result = run_tiny("train-25x5", True, wraps=wraps)
    assert not result.correct
    assert any(p.startswith(f"{layer}: zero calls") for p in result.guard)


def test_backward_on_an_eval_workload_trips_the_guard():
    tracer = spans.Tracer()
    tracer.layer_calls["numerics.tensor.backward"] = 1
    assert any(p.startswith("numerics.tensor.backward: 1 calls, expected none")
               for p in tracer.guard(spans.EVAL))


def test_fingerprint_reproduces_across_processes():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; run.use_source_tree();"
            "import bench, dataclasses;"
            "w = dataclasses.replace(bench.WORKLOADS['train-25x5'], num_mus=5, num_uavs=2,"
            " episode_length=3, ppo_epochs=1);"
            "print(bench.run_workload('train-25x5', 4, 0.0, False, workload=w,"
            " setup_samples=1).notes[0])")
    lines = [subprocess.run([sys.executable, "-c", code, str(BENCH_DIR)], check=True,
                            capture_output=True, text=True, timeout=120).stdout
             for _ in range(2)]
    assert lines[0] == lines[1]
    assert lines[0].endswith(" reproduced\n")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "train-25x5",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
