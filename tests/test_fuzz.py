"""Hostile fields. Model fields: `count` with every model field set to each
value of VALUES, `eval` of a checkpoint whose manifest config holds each of
them or lacks the field, and `count` of models whose encoder layers together
keep too many activations. Inputs: every `--set` key of `synth` and
`preprocess` set to each value, and every field of a recording (EEGR)
manifest, read by `preprocess`, and of a feature (FEAT) manifest, read by
`eval`, set to each value or left out; a list's fields are those of its
first entry. Each test runs its cases in one process whose address space is
capped at 2 GiB, so that an allocation the size caps miss fails fast. Every
case must exit 0-3 with the stderr prefix its exit code documents, and no
exception may escape `cli.main`. Every case is run: the input cases, the
largest set, take about 2 s together."""

import copy
import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

import amdet
from amdet.checkpoint import save_checkpoint
from amdet.data import (SynthSpec, default_synth_spec, synth_generate,
                        write_features, write_recording)
from amdet.features import DEAP_BANDS, SampleTensor, extract_features
from amdet.model import ModelConfig, init_params

FIELDS = [f.name for f in fields(ModelConfig)]
SYNTH_KEYS = [f.name for f in fields(SynthSpec)]
# cmd_preprocess reads these two; every other key is an extract_features
# option
PREPROCESS_KEYS = ["bands", "binarize_threshold",
                   *list(inspect.signature(extract_features).parameters)[2:]]
# as typed after --set: each is JSON, as a checkpoint manifest holds it
VALUES = ["0", "-1", "1.5", "true", "null", '"x"', "[1]", "{}", "NaN",
          "Infinity", "1e308", "100000", "1000000000000", str(2 ** 63), "64",
          "65"]
PREFIX = {0: "", 1: "usage error: ", 2: "data error: ",
          3: "numerical failure: "}
CFG = ModelConfig(channels=4, bands=2, frames=6, classes=2, mlp_ratio=4)
SHAPE = [word for field in ("channels=16", "bands=4", "frames=6", "classes=3")
         for word in ("--set", f"model.{field}")]
# a recording of 6 trials x 4 channels x (1 + 3) s, one sample per trial
SMALL_SYNTH = {"trials_per_class": 2, "trial_seconds": 3.0, "channels": 4,
               "baseline_seconds": 1.0}

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


def _model_and_features(tmp_path) -> tuple[Path, Path]:
    """A CFG checkpoint and a FEAT file of four samples it reads."""
    rng = np.random.default_rng(0)
    samples = [SampleTensor(rng.normal(size=(CFG.frames, CFG.feature_dim,
                                             CFG.channels)), i % 2)
               for i in range(4)]
    write_features(tmp_path / "feat", samples, DEAP_BANDS[:CFG.bands],
                   channels=[f"c{i}" for i in range(CFG.channels)])
    save_checkpoint(tmp_path / "m.amdw", init_params(CFG), CFG)
    return tmp_path / "m.amdw", tmp_path / "feat"


def _edited_copies(base: Path, keys: list[tuple]) -> list[Path]:
    """Copies of the pair at base, one per key path into its manifest and
    per value of VALUES, or with that field left out."""
    manifest = json.loads(Path(f"{base}.json").read_text())
    payload = Path(f"{base}.f32").read_bytes()
    copies = []
    for *parents, key in keys:
        for value in [*VALUES, None]:
            edited = copy.deepcopy(manifest)
            node = edited
            for parent in parents:
                node = node[parent]
            if value is None:
                del node[key]
            else:
                node[key] = json.loads(value)
            path = base.with_name(f"{base.name}-{len(copies)}")
            Path(f"{path}.json").write_text(json.dumps(edited))
            Path(f"{path}.f32").write_bytes(payload)
            copies.append(path)
    return copies


def _manifest_keys(base: Path) -> list[tuple]:
    """Every field of the manifest at base, and of its lists' first
    entries."""
    manifest = json.loads(Path(f"{base}.json").read_text())
    return [(key,) for key in manifest] + [
        (key, 0, field) for key, value in manifest.items()
        if isinstance(value, list) and value and isinstance(value[0], dict)
        for field in value[0]]


def _checkpoint_cases(tmp_path) -> list[list[str]]:
    """eval argv for a copy of one checkpoint per field and value, and per
    field with that field left out of the manifest's config."""
    checkpoint, feat = _model_and_features(tmp_path)
    return [["eval", "--checkpoint", str(path), "--features", str(feat)]
            for path in _edited_copies(checkpoint, [("config", field)
                                                    for field in FIELDS])]


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


def _wrong(cases: list[list[str]], results: list[list]) -> list:
    """The cases that did not exit 0-3 with their code's prefix, or that
    printed a traceback, or wrote to stderr on success."""
    return [(argv, code, err) for argv, (code, err) in zip(cases, results)
            if code not in PREFIX or not err.startswith(PREFIX[code])
            or "Traceback" in err or (code == 0) != (err == "")]


def test_hostile_model_fields_exit_as_documented(tmp_path):
    cases = [["count", *SHAPE, "--set", f"model.{field}={value}"]
             for field in FIELDS for value in VALUES]
    cases += _checkpoint_cases(tmp_path)
    assert len(cases) == 11 * 16 + 11 * 17
    results = _run(cases)
    assert _wrong(cases, results) == []
    codes = {code for code, _ in results}
    assert codes == {0, 2}


def test_hostile_inputs_exit_as_documented(tmp_path):
    """synth and preprocess options on a small recording, and recording and
    feature manifests with each field edited or left out. A synthetic
    recording's size is capped before it is allocated: 100000 channels, or
    trials, or trial seconds once ended in a MemoryError traceback."""
    small = [word for key, value in SMALL_SYNTH.items()
             for word in ("--set", f"{key}={value}")]
    deap = ["--set", 'bands="deap"']
    recording = tmp_path / "rec"
    write_recording(recording, synth_generate(default_synth_spec(
        **SMALL_SYNTH)))
    checkpoint, feat = _model_and_features(tmp_path)
    cases = [["synth", "--out", str(tmp_path / f"synth-{i}"), *small,
              "--set", f"{key}={value}"]
             for i, (key, value) in enumerate(
                 (key, value) for key in SYNTH_KEYS for value in VALUES)]
    cases += [["preprocess", "--recording", str(recording),
               "--out", str(tmp_path / f"pre-{i}"), *deap,
               "--set", f"{key}={value}"]
              for i, (key, value) in enumerate(
                  (key, value) for key in PREPROCESS_KEYS for value in VALUES)]
    cases += [["preprocess", "--recording", str(path),
               "--out", str(path.with_name(f"{path.name}-feat")), *deap]
              for path in _edited_copies(recording,
                                         _manifest_keys(recording))]
    cases += [["eval", "--checkpoint", str(checkpoint),
               "--features", str(path)]
              for path in _edited_copies(feat, _manifest_keys(feat))]
    # EEGR: 5 fields and 5 of a trial; FEAT: 5 fields, 3 of a sample and
    # 3 of a band
    assert len(cases) == (9 + 4) * 16 + (10 + 11) * 17
    results = _run(cases)
    assert _wrong(cases, results) == []
    assert {code for code, _ in results} == {0, 2}


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
