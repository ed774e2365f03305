"""Hostile model fields: `count` with every model field set to each value of
VALUES, `eval` of a checkpoint whose manifest config holds each of them or
lacks the field, and `count` of models whose encoder layers together keep
too many activations. Each test runs its cases in one process whose address
space is capped at 2 GiB, so that an allocation the size caps miss fails
fast. Every case must exit 0-3 with the stderr prefix its exit code
documents, and no exception may escape `cli.main`."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

import amdet
from amdet.checkpoint import save_checkpoint
from amdet.data import write_features
from amdet.features import DEAP_BANDS, SampleTensor
from amdet.model import ModelConfig, init_params

FIELDS = [f.name for f in fields(ModelConfig)]
# as typed after --set: each is JSON, as a checkpoint manifest holds it
VALUES = ["0", "-1", "1.5", "true", "null", '"x"', "[1]", "{}", "NaN",
          "Infinity", "1e308", "100000", "1000000000000", str(2 ** 63), "64",
          "65"]
PREFIX = {0: "", 1: "usage error: ", 2: "data error: ",
          3: "numerical failure: "}
CFG = ModelConfig(channels=4, bands=2, frames=6, classes=2, mlp_ratio=4)
SHAPE = [word for field in ("channels=16", "bands=4", "frames=6", "classes=3")
         for word in ("--set", f"model.{field}")]

# reads a JSON list of argv lists on stdin and writes [exit code or the
# escaped exception, stderr] for each
RUNNER = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from amdet.cli import main
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(err):
            code = main(argv)
    except BaseException as e:
        code = f"{type(e).__name__}: {e}"
    results.append([code, err.getvalue()])
json.dump(results, sys.stdout)
"""


def _checkpoint_cases(tmp_path) -> list[list[str]]:
    """eval argv for a copy of one checkpoint per field and value, and per
    field with that field left out of the manifest's config."""
    rng = np.random.default_rng(0)
    samples = [SampleTensor(rng.normal(size=(CFG.frames, CFG.feature_dim,
                                             CFG.channels)), i % 2)
               for i in range(4)]
    write_features(tmp_path / "feat", samples, DEAP_BANDS[:CFG.bands])
    save_checkpoint(tmp_path / "m.amdw", init_params(CFG), CFG)
    manifest = json.loads((tmp_path / "m.amdw.json").read_text())
    payload = (tmp_path / "m.amdw.f32").read_bytes()
    cases = []
    for field in FIELDS:
        for value in [*VALUES, None]:
            config = dict(manifest["config"])
            if value is None:
                del config[field]
            else:
                config[field] = json.loads(value)
            path = tmp_path / f"{field}-{len(cases)}.amdw"
            Path(f"{path}.json").write_text(
                json.dumps({**manifest, "config": config}))
            Path(f"{path}.f32").write_bytes(payload)
            cases.append(["eval", "--checkpoint", str(path),
                          "--features", str(tmp_path / "feat")])
    return cases


def _run(cases: list[list[str]]) -> list[list]:
    """[exit code or escaped exception, stderr] per argv, from RUNNER."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(amdet.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", RUNNER], env=env,
                         input=json.dumps(cases), capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    results = json.loads(run.stdout)
    assert len(results) == len(cases)
    return results


def test_hostile_model_fields_exit_as_documented(tmp_path):
    cases = [["count", *SHAPE, "--set", f"model.{field}={value}"]
             for field in FIELDS for value in VALUES]
    cases += _checkpoint_cases(tmp_path)
    assert len(cases) == 11 * 16 + 11 * 17
    results = _run(cases)
    wrong = [(argv, code, err) for argv, (code, err) in zip(cases, results)
             if code not in PREFIX or not err.startswith(PREFIX[code])
             or "Traceback" in err or (code == 0) != (err == "")]
    assert wrong == []
    codes = {code for code, _ in results}
    assert codes == {0, 2}


def test_deep_encoders_are_capped_by_the_activations_all_layers_keep():
    """Every encoder layer's activations stay on the tape. Counting a model
    with 8 layers per block, each layer's largest tensor within 10**7
    values, once ended in a MemoryError under 2 GiB. The cap counts all
    layers, so that model and its 1-layer variant (2 x 10**7 values) exit 2
    and name the layer fields."""
    narrow = [word for field in (
        "channels=2", "bands=1", "frames=100000", "classes=2", "mlp_ratio=25",
        "spectral_heads=1", "spatial_heads=1") for word in (
        "--set", f"model.{field}")]
    results = _run([["count", *narrow, "--set", f"model.spectral_layers={n}",
                     "--set", f"model.spatial_layers={n}"] for n in (8, 1)])
    for (code, err), n in zip(results, (8, 1)):
        assert code == 2, err
        assert err == (f"data error: model config: encoder activations per "
                       f"sample {2 * n * 10 ** 7} is over the cap of "
                       f"{10 ** 7} (frames=100000, channels=2, bands=1, "
                       f"mlp_ratio=25, spectral_heads=1, spatial_heads=1, "
                       f"spectral_layers={n}, spatial_layers={n})\n")
