"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

The end-to-end test runs every workload for one cycle, traced and
untraced, and takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402  (puts src/ on sys.path)
import lrgnn  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def test_benchmark_json_names_what_the_code_reports():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == spans.LAYER_METRICS
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _binding_sites() -> dict:
    sites = {}
    for mod_name, attr, _, _ in spans.FUNCTIONS:
        original = getattr(sys.modules[mod_name], attr)
        for mod in spans.binding_modules():
            for key, value in vars(mod).items():
                if value is original:
                    sites[(mod.__name__, key)] = original
    return sites


def _methods() -> dict:
    return {(c, m): getattr(sys.modules[mod], c).__dict__[m] for mod, c, m, _, _ in spans.METHODS}


def test_wrappers_cover_every_binding_and_restore_the_originals():
    sites, methods = _binding_sites(), _methods()
    # `from .mpgnn import forward` leaves a copy in trainer, cli and the package.
    assert {("lrgnn.trainer", "forward_real"), ("lrgnn.mpgnn", "scatter_max"),
            ("lrgnn.cli", "read_dataset"), ("lrgnn", "forward")} <= set(sites)

    tracer = spans.Tracer("test")
    tracer.install()
    try:
        for (mod, key), original in sites.items():
            assert getattr(sys.modules[mod], key) is not original, (mod, key)
        cfg = lrgnn.ScenarioConfig(n_pairs=3, n_tx_antennas=4, edge_threshold=1500.0)
        sample = lrgnn.generate_dataset(cfg, 1)[0]
        arch = lrgnn.MpgnnArch(n_tx_antennas=4)
        lrgnn.forward(sample.graph, lrgnn.init_params(arch, 0), arch)
    finally:
        tracer.uninstall()

    for (mod, key), original in sites.items():
        assert getattr(sys.modules[mod], key) is original, (mod, key)
    assert _methods() == methods
    names = {s[2] for s in tracer.spans}
    assert {"scenario.generate", "mpgnn.forward", "mpgnn.forward_real", "mpgnn.layer_step",
            "nn.mlp1", "nn.mlp2", "autodiff.scatter_max", "autodiff.gather_rows"} <= names
    by_id = {s[0]: s for s in tracer.spans}
    step = next(s for s in tracer.spans if s[2] == "mpgnn.layer_step")
    assert by_id[step[1]][2] == "mpgnn.forward_real"


def test_self_time_and_uncovered_share():
    rows = [
        {"id": 0, "parent": None, "name": "cli.train", "start": 0, "end": 100},
        {"id": 1, "parent": 0, "name": "trainer.train", "start": 10, "end": 90},
        {"id": 2, "parent": 1, "name": "autodiff.backward", "start": 20, "end": 50},
        {"id": 3, "parent": 1, "name": "trainer.evaluate", "start": 60, "end": 70},
    ]
    out = spans.layer_metrics(rows, [(0, 125)])
    assert out["trainer.self_s"] == pytest.approx(40e-9)
    assert out["cli.self_s"] == pytest.approx(20e-9)
    assert out["autodiff.backward_calls"] == 1
    assert out["trace.uncovered_frac"] == pytest.approx(0.2)


def _tiny_run(tmp_path):
    args = argparse.Namespace(workload="graph-train", seed=0, dir=str(tmp_path), trace=False)
    r = child.Run(args)
    cfg = lrgnn.ScenarioConfig(n_pairs=3, n_tx_antennas=8)
    r.test_set = lrgnn.generate_dataset(cfg, 4)
    arch = lrgnn.MpgnnArch(n_tx_antennas=8, kind="low_rank", rank1=16, rank2=4)
    path = str(tmp_path / "model.bin")
    lrgnn.save_model(path, arch, lrgnn.init_params(arch, 0))
    return r, path


def _error_rate(result: dict, metrics: dict) -> tuple[dict, float]:
    """The JSON result line and printed error_rate that run.py makes of `result`."""
    args = argparse.Namespace(workload="graph-train", seed=0, seconds=1, trace=0)
    lines = run.report(args, metrics, [{"versions": {}, **result}], {})
    error_rate = next(line for line in lines if line.strip().startswith("error_rate"))
    return json.loads(lines[-1]), float(error_rate.split()[1])


def test_failing_output_check_raises_error_rate(tmp_path, monkeypatch):
    r, path = _tiny_run(tmp_path)
    r.infer(path, [])
    assert r.checks.failed == 0

    monkeypatch.setattr(lrgnn, "forward", lambda graph, params, arch: np.ones(
        (graph.n_vertices, arch.n_tx_antennas), dtype=complex))
    r.infer(path, [])
    assert r.checks.failed == child.INFER_CALLS
    assert "p_max" in r.checks.failures[0]

    result = {"attempted": r.checks.attempted, "failed": r.checks.failed,
              "failures": r.checks.failures}
    last, error_rate = _error_rate(result, dict.fromkeys(run.END_TO_END, 1.0))
    assert last["correct"] is False and last["failed"] == r.checks.failed
    assert error_rate > 0


@pytest.mark.parametrize("failure", ["exit", "exception"])
def test_failing_command_raises_error_rate(tmp_path, monkeypatch, failure):
    """A command that exits nonzero, or raises, is a failed operation; the
    child still writes its result and run.py still prints one."""
    real_main = child.cli.main

    def main(argv):
        if argv[0] == "eval":
            if failure == "exception":
                raise RuntimeError("eval broke")
            return 1
        return real_main(argv)

    monkeypatch.setattr(child.cli, "main", main)
    args = argparse.Namespace(workload="graph-train", seed=0, dir=str(tmp_path), mode="run",
                              seconds=None, cycles=1, trace=False)
    result = child._run(args)
    assert result["failed"] == 1 and "eval" in result["failures"][0]
    assert result["cycles"][0]["train_s"] and "eval_s" not in result["cycles"][0]

    result["spawned"] = result["setup_done"] - 1.0
    metrics = run.end_to_end([result], result, WORKLOADS["graph-train"])
    assert metrics["train_samples_per_s"] > 0 and metrics["eval_samples_per_s"] is None
    last, error_rate = _error_rate(result, metrics)
    assert last["correct"] is False and last["failed"] == 1
    assert last["metrics"]["eval_samples_per_s"]["value"] is None
    assert error_rate > 0


def test_eval_check_catches_a_wrong_mean(tmp_path):
    r, path = _tiny_run(tmp_path)
    out = tmp_path / "eval"
    lrgnn.write_dataset(r.test_set, str(tmp_path / "test.bin"))
    assert lrgnn.cli.main(["eval", "--model", path, "--data", str(tmp_path / "test.bin"),
                           "--reference", path, "--out", str(out)]) == 0
    csv_path = out / "eval.csv"
    lines = csv_path.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("mean,"))
    lines[k] = f"mean,{float(lines[k].split(',')[1]) * (1 + 1e-9)!r}"
    csv_path.write_text("\n".join(lines) + "\n")
    r.check_eval(str(csv_path), path, path)
    assert r.checks.failed == 1 and "mean" in r.checks.failures[0]


def _result(*argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed(workload):
    for trace, listed in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        proc = _result("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        last = json.loads(lines[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert [m["name"] for m in listed] == list(last["metrics"])
        for m in listed:
            got = last["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert math.isfinite(got["value"]), m["name"]
            if trace == "0" or not m["name"].startswith("trace."):
                assert got["value"] > 0, (workload, m["name"])
        env = json.loads(lines[-2].split(" ", 1)[1])
        assert env["seed"] == 1 and env["OPENBLAS_NUM_THREADS"] == "1"
        if trace == "0":
            counts = env["sample_counts"]
            assert counts["infer_samples_beyond_p90"] >= 10
            assert counts["infer_percentile_samples"] == counts["cycles"] * child.INFER_CALLS


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _result("--workload", "graph-train", "--seed", "0", "--seconds", "1", "--trace", "0",
                   cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
