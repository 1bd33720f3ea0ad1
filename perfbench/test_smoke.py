"""Smoke test of the benchmark on a tiny model.

Every workload path runs a few operations, traced and untraced, and every
metric ``BENCHMARK.json`` names is emitted with its unit. Run from the
repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench  # noqa: E402
import synth  # noqa: E402

TINY = {"image_size": 16, "d_model": 8, "depth": 1, "n_heads": 2}

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_benchmark_json_names_what_the_benchmark_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        bench.per_layer_units(bench.ModelConfig().depth)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_workload_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    record = bench.run(workload, seed=1, seconds=0.05, trace=trace,
                       out_dir=str(tmp_path), overrides=TINY)
    line = record["result"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = bench.per_layer_units(TINY["depth"]) if trace else bench.END_TO_END
    assert {k: m["unit"] for k, m in line["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in line["metrics"].values())
    metrics = {k: m["value"] for k, m in line["metrics"].items()}
    if trace and not bench.WORKLOADS[workload].train:
        no_backward = [k for k in metrics if k.endswith(".bwd_ms")
                       or k.startswith(("tensor.backward.", "tensor.tape."))]
        assert no_backward and all(metrics[k] == 0.0 for k in no_backward)
    elif trace:
        assert metrics["tensor.backward.ms"] > 0 and metrics["tensor.tape.nodes"] > 0


def test_package_errors_count_as_failures_and_do_not_abort(monkeypatch, tmp_path):
    forward, calls = bench.network.forward, []

    def flaky_forward(image, model):
        calls.append(1)
        if len(calls) in (3, 8):  # one set-up and one timed operation
            raise bench.T.NumericsError("injected")
        return forward(image, model)

    monkeypatch.setattr(bench.network, "forward", flaky_forward)
    line = bench.run("infer-64-b1", 1, 0.05, False, str(tmp_path), TINY)["result"]
    assert line["failed"] == 2 and not line["correct"]
    assert line["metrics"]["ok_rate"]["value"] == \
        (line["attempted"] - line["failed"]) / line["attempted"]


def test_default_seed_inference_matches_fingerprint(tmp_path):
    record = bench.run("infer-64-b1", bench.DEFAULT_SEED, 0.05, False, str(tmp_path))
    assert record["checks"]["fingerprint"] is True


def test_inputs_repeat_for_a_seed():
    a = synth.make_batch(np.random.default_rng(7), 2, 16)
    b = synth.make_batch(np.random.default_rng(7), 2, 16)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert 0 < a[1].mean() < 1


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "train-64-b4", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
