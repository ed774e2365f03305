"""Tests for the benchmark itself, on reduced inputs (``--size small``).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
from amdet import engine, harness  # noqa: E402
from amdet.model import ModelConfig  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("engine.nodes_per_step", "engine.matmul_mflops_per_step",
         "engine.tapes_per_op", "engine.grad_mbytes_per_step",
         "features.band_component_calls", "attribution.backward_passes",
         "attribution.planted_top4_hits", "data.bytes_read")


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


_runs: dict = {}


def run_once(workload: str, trace: int) -> tuple[dict, dict]:
    """(detail line, result line) of one reduced run, cached for the rest of the test run."""
    if (workload, trace) not in _runs:
        proc = bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        _runs[workload, trace] = json.loads(lines[-2]), json.loads(lines[-1])
    return _runs[workload, trace]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_run_emits_every_named_metric(workload, trace):
    detail, result = run_once(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    env = detail["env"]
    assert env["blas_threads"] == 1 and env["seed"] == 3
    assert all(v == "1" for v in env["thread_env"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_accuracy_unchanged(workload):
    untraced, _ = run_once(workload, 0)
    traced, _ = run_once(workload, 1)
    assert traced["accuracy"] == untraced["accuracy"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_between_traced_runs(workload):
    _, first = run_once(workload, 1)
    proc = bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    second = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = bench("kfold-c16", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_wraps_every_reference_and_restores_them():
    originals = {(mod, attr): getattr(tracing.MODULES[mod], attr)
                 for targets in tracing.FUNCTIONS.values()
                 for mod, attr in targets}
    functions = set(map(id, originals.values()))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in tracing.MODULES.values():
            for name, value in vars(module).items():
                assert id(value) not in functions, \
                    f"{module.__name__}.{name} escapes the tracer"
    finally:
        tracer.uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(tracing.MODULES[mod], attr) is fn


def test_every_recording_tape_method_is_traced():
    public = {name for name, value in vars(engine.Tape).items()
              if callable(value) and not name.startswith("_")}
    assert public - {"backward", "matmul_flops"} == set(tracing.OPS)


def test_step_spans_account_for_the_step():
    cfg = ModelConfig(channels=4, bands=2, frames=2, classes=2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 2, 4, 4))
    y = np.arange(8) % 2
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root("op"):
            harness.fit(x, y, cfg, engine.OptimizerConfig(batch_size=4), 1, 0)
    finally:
        tracer.uninstall()
    m = tracer.per_layer()
    assert m["engine.nodes_per_step"] == 82
    assert m["engine.tapes_per_op"] == 2
    assert 0 < m["trace.coverage"] < 1
    # two steps, so every median is a mean and the parts add up exactly
    op_bwd = sum(m[f"engine.op.{op}.bwd_ms"] for op in tracing.STEP_OPS)
    block_bwd = sum(m[f"model.{b}.bwd_ms"] for b in tracing.BLOCKS)
    assert block_bwd + m["engine.op.cross_entropy.bwd_ms"] == \
        pytest.approx(op_bwd)
    assert op_bwd + m["engine.backward_self_ms"] == \
        pytest.approx(m["engine.backward_ms.p50"])
    assert m["engine.backward_self_ms"] > 0
