"""Fault injection: every corruption of an EEGR, FEAT or checkpoint pair is a
DataError from its reader and exit code 2 from the command that reads it."""

import json

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


def _write_features(path):
    rng = np.random.default_rng(0)
    write_features(path, [SampleTensor(rng.normal(size=(
        CFG.frames, CFG.feature_dim, CFG.channels)), i % 2) for i in range(4)],
        DEAP_BANDS[:CFG.bands])


# format -> (write a tiny valid pair, its reader, the command that reads it,
#            the manifest keys it requires)
FORMATS = {
    "eegr": (lambda p: write_recording(p, synth_generate(default_synth_spec(
                 channels=4, trials_per_class=1, trial_seconds=3.0,
                 sample_rate_hz=200.0))),
             read_recording,
             lambda p: ["preprocess", "--recording", str(p),
                        "--out", str(p.parent / "out")],
             ("version", "sample_rate_hz", "channels", "dtype", "trials")),
    "feat": (_write_features, read_features,
             lambda p: ["count", "--features", str(p)],
             ("version", "shape", "samples")),
    "checkpoint": (lambda p: save_checkpoint(p, init_params(CFG), CFG),
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


FAULTS = {
    **{f"payload_short_by_{n}": _truncate(n) for n in (1, 2, 3, 4)},
    "nan_first": _nan_at(lambda n, rng: 0),
    "nan_last": _nan_at(lambda n, rng: n - 1),
    "nan_seeded": _nan_at(lambda n, rng: rng.integers(n)),
    "payload_deleted": lambda manifest, payload, rng: payload.unlink(),
    "manifest_deleted": lambda manifest, payload, rng: manifest.unlink(),
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
        path, read, command = _valid_pair(fmt, tmp_path)
        _fault(fault)(tmp_path / "x.json", tmp_path / "x.f32",
                      np.random.default_rng(seed))
        with pytest.raises(DataError):
            read(path)
        capsys.readouterr()
        assert main(command) == 2
        assert capsys.readouterr().err.startswith("data error:")
