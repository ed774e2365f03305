"""Fault injection: every corruption of an EEGR, FEAT or checkpoint pair is a
DataError from its reader and exit code 2 from the command that reads it;
every writer refuses what its reader would refuse, leaving no file, and an
interrupted write leaves the previous pair as it was."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from amdet.checkpoint import load_checkpoint, save_checkpoint
from amdet.cli import main
from amdet.data import (default_synth_spec, read_features, read_recording,
                        synth_generate, write_features, write_recording)
from amdet.errors import DataError
from amdet.features import DEAP_BANDS, SampleTensor
from amdet.model import ModelConfig, init_params

CFG = ModelConfig(channels=4, bands=2, frames=6, classes=2, seed=3)


def _samples(seed=0):
    rng = np.random.default_rng(seed)
    return [SampleTensor(rng.normal(size=(
        CFG.frames, CFG.feature_dim, CFG.channels)), i % 2, {"seed": seed})
            for i in range(4)]


def _write_features(path, seed=0):
    write_features(path, _samples(seed), DEAP_BANDS[:CFG.bands])


def _recording(**overrides):
    return synth_generate(default_synth_spec(**{
        "channels": 4, "trials_per_class": 1, "trial_seconds": 3.0,
        "sample_rate_hz": 200.0, **overrides}))


# format -> (write a tiny valid pair, different for each seed, its reader,
#            the command that reads it, the manifest keys it requires)
FORMATS = {
    "eegr": (lambda p, seed=0: write_recording(p, _recording(
                 seed=seed, trials_per_class=1 + seed)),
             read_recording,
             lambda p: ["preprocess", "--recording", str(p),
                        "--out", str(p.parent / "out")],
             ("version", "sample_rate_hz", "channels", "dtype", "trials")),
    "feat": (_write_features, read_features,
             lambda p: ["count", "--features", str(p)],
             ("version", "shape", "samples")),
    "checkpoint": (lambda p, seed=3: save_checkpoint(
                       p, init_params(replace(CFG, seed=seed)),
                       replace(CFG, seed=seed)),
                   load_checkpoint,
                   lambda p: ["eval", "--checkpoint", str(p),
                              "--features", str(p.parent / "eval")],
                   ("version", "config", "params")),
}


def _truncate(n):
    return lambda manifest, payload, rng: payload.write_bytes(
        payload.read_bytes()[:-n])


def _nan_at(pick):
    def fault(manifest, payload, rng):
        values = np.fromfile(payload, dtype="<f4")
        values[pick(values.size, rng)] = np.nan
        values.tofile(payload)
    return fault


def _cut_manifest(manifest, payload, rng):
    raw = manifest.read_bytes()
    manifest.write_bytes(raw[:rng.integers(len(raw))])


def _edit_manifest(edit):
    def fault(manifest, payload, rng):
        fields = json.loads(manifest.read_text())
        edit(fields)
        manifest.write_text(json.dumps(fields))
    return fault


def _drop_key(key):
    return _edit_manifest(lambda fields: fields.pop(key))


def _to_directory(path):
    path.unlink()
    path.mkdir()


FAULTS = {
    **{f"payload_short_by_{n}": _truncate(n) for n in (1, 2, 3, 4)},
    "nan_first": _nan_at(lambda n, rng: 0),
    "nan_last": _nan_at(lambda n, rng: n - 1),
    "nan_seeded": _nan_at(lambda n, rng: rng.integers(n)),
    "payload_deleted": lambda manifest, payload, rng: payload.unlink(),
    "manifest_deleted": lambda manifest, payload, rng: manifest.unlink(),
    "manifest_is_a_directory":
        lambda manifest, payload, rng: _to_directory(manifest),
    "payload_is_a_directory":
        lambda manifest, payload, rng: _to_directory(payload),
    "manifest_cut_short": _cut_manifest,
    "version_true": _edit_manifest(lambda fields: fields.update(version=True)),
    "version_float": _edit_manifest(lambda fields: fields.update(version=1.0)),
}
CASES = [(fmt, fault) for fmt in FORMATS for fault in FAULTS] + [
    (fmt, f"no_{key}") for fmt, spec in FORMATS.items() for key in spec[3]]


def _fault(name):
    return _drop_key(name[3:]) if name.startswith("no_") else FAULTS[name]


def _valid_pair(fmt, tmp_path):
    """A valid pair of format fmt at tmp_path / "x" (and the features eval
    reads next to it): (path, reader, command)."""
    write, read, command, _ = FORMATS[fmt]
    _write_features(tmp_path / "eval")
    write(tmp_path / "x")
    return tmp_path / "x", read, command(tmp_path / "x")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_valid_pair_reads_and_exits_0(fmt, tmp_path, capsys):
    path, read, command = _valid_pair(fmt, tmp_path)
    read(path)
    assert main(command) == 0


@pytest.mark.parametrize("fmt, fault", CASES)
def test_fault_is_a_data_error_and_exits_2(fmt, fault, tmp_path, capsys):
    for seed in range(3):
        path, read, command = _valid_pair(fmt, tmp_path / f"seed{seed}")
        _fault(fault)(path.parent / "x.json", path.parent / "x.f32",
                      np.random.default_rng(seed))
        with pytest.raises(DataError):
            read(path)
        capsys.readouterr()
        assert main(command) == 2
        assert capsys.readouterr().err.startswith("data error:")


# ----------------------------------------------- bad EEGR manifest fields


def _edit_trial(key, value):
    return _edit_manifest(lambda fields: fields["trials"][0].update(
        {key: value}))


RECORDING_FAULTS = {
    "start_float": _edit_trial("start", 1.5),
    "end_bool": _edit_trial("end", True),
    "baseline_start_float": _edit_trial("baseline_start", 0.5),
    "label_string": _edit_trial("label", "x"),
    "label_bool": _edit_trial("label", True),
    "label_null": _edit_trial("label", None),
    "channels_not_strings": _edit_manifest(
        lambda fields: fields.update(channels=[1, 2, 3, 4])),
    "sample_rate_bool": _edit_manifest(
        lambda fields: fields.update(sample_rate_hz=True)),
}


@pytest.mark.parametrize("fault", sorted(RECORDING_FAULTS))
def test_bad_recording_field_names_the_file_and_exits_2(fault, tmp_path,
                                                        capsys):
    path, read, command = _valid_pair("eegr", tmp_path)
    RECORDING_FAULTS[fault](path.parent / "x.json", None, None)
    with pytest.raises(DataError, match=str(path)):
        read(path)
    capsys.readouterr()
    assert main(command) == 2
    assert capsys.readouterr().err.startswith(f"data error: {path}")


@pytest.mark.parametrize("given", ["baseline_start", "baseline_end"])
def test_half_given_baseline_names_the_trial_and_exits_2(given, tmp_path,
                                                        capsys):
    """A trial with one baseline bound but not the other is refused, not
    read as a trial without a baseline."""
    path = tmp_path / "x"
    write_recording(path, _recording(baseline_seconds=1.0))
    edit = _edit_manifest(lambda fields: [
        trial.pop("baseline_end" if given == "baseline_start"
                  else "baseline_start") for trial in fields["trials"]])
    edit(tmp_path / "x.json", None, None)
    with pytest.raises(DataError, match=f"{path}: trial 0: a baseline needs"):
        read_recording(path)
    capsys.readouterr()
    assert main(["preprocess", "--recording", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {path}")
    assert not (tmp_path / "out").exists()


# ------------------------------------------------- writers refuse, cleanly


def _features_with(label=None, meta=None, value=None, channels=None):
    samples = _samples()
    if label is not None:
        samples[1].label = label
    if meta is not None:
        samples[1].meta = meta
    if value is not None:
        samples[1].values[0, 0, 0] = value
    return lambda p: write_features(p, samples, DEAP_BANDS[:CFG.bands],
                                    channels)


def _nan_weight(path):
    params = init_params(CFG)
    params["classifier.w"][0, 0] = np.nan
    save_checkpoint(path, params, CFG)


REFUSED_WRITES = {
    "eegr_beyond_f32_range": lambda p: write_recording(
        p, _recording(noise_scale=1e39)),
    "feat_label_real": _features_with(label=1.7),
    "feat_label_integral_float": _features_with(label=1.0),
    "feat_label_bool": _features_with(label=True),
    "feat_label_negative": _features_with(label=-1),
    "feat_label_string": _features_with(label="x"),
    "feat_meta_numpy_int": _features_with(meta={"trial": np.int64(1)}),
    "feat_value_inf": _features_with(value=np.inf),
    "feat_channels_not_strings": _features_with(channels=[1, 2, 3, 4]),
    "checkpoint_nan_weight": _nan_weight,
    "checkpoint_extra_not_json": lambda p: save_checkpoint(
        p, init_params(CFG), CFG, extra={"fold": np.int64(0)}),
}


@pytest.mark.parametrize("case", sorted(REFUSED_WRITES))
def test_refused_write_is_a_data_error_and_leaves_no_file(case, tmp_path):
    with pytest.raises(DataError):
        REFUSED_WRITES[case](tmp_path / "x")
    assert list(tmp_path.iterdir()) == []


def test_synth_beyond_f32_range_exits_2_and_writes_nothing(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "rec"),
                 "--set", "noise_scale=1e39",
                 "--set", "trials_per_class=1"]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("failing_call", [0, 1], ids=["payload", "manifest"])
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_interrupted_replace_keeps_the_previous_files(fmt, failing_call,
                                                      tmp_path, monkeypatch):
    write = FORMATS[fmt][0]
    write(tmp_path / "x")
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    calls = []

    def replace_or_fail(src, dst):
        calls.append(dst)
        if len(calls) > failing_call:
            raise OSError("interrupted")
        real_replace(src, dst)
    real_replace = os.replace
    monkeypatch.setattr("amdet.data.os.replace", replace_or_fail)
    with pytest.raises(OSError, match="interrupted"):
        write(tmp_path / "x", seed=5)         # a different pair
    after = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    assert set(after) == set(before)          # no temporary file is left
    assert after["x.json"] == before["x.json"]
    # the payload goes first: only a failure after it was renamed changes it
    assert (after["x.f32"] == before["x.f32"]) == (failing_call == 0)
    monkeypatch.undo()
    write(tmp_path / "x", seed=5)             # uninterrupted, both change
    assert all((tmp_path / name).read_bytes() != before[name]
               for name in before)
