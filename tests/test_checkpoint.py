"""Checkpoint pairs: byte-exact round trips and manifest validation."""

import json
from dataclasses import replace

import numpy as np
import pytest

from amdet.checkpoint import load_checkpoint, save_checkpoint
from amdet.cli import main
from amdet.data import write_features
from amdet.engine import AdamW, OptimizerConfig, Tape
from amdet.errors import DataError
from amdet.features import DEAP_BANDS, SampleTensor
from amdet.harness import fit
from amdet.model import ModelConfig, forward, init_params, wrap_params

CFG = ModelConfig(channels=4, bands=2, frames=6, classes=2, seed=3,
                  mlp_ratio=4)


def test_checkpoint_save_load_save_bitwise(tmp_path):
    params = init_params(CFG)
    save_checkpoint(tmp_path / "a.amdw", params, CFG, extra={"fold": 0})
    loaded, cfg, extra = load_checkpoint(tmp_path / "a.amdw")
    save_checkpoint(tmp_path / "b.amdw", loaded, cfg, extra=extra)
    for ext in (".json", ".f32"):
        assert (tmp_path / f"a.amdw{ext}").read_bytes() == \
            (tmp_path / f"b.amdw{ext}").read_bytes()


def test_checkpoint_is_a_manifest_payload_pair(tmp_path):
    params = init_params(CFG)
    save_checkpoint(tmp_path / "m.amdw", params, CFG)
    manifest = json.loads((tmp_path / "m.amdw.json").read_text())
    assert set(manifest) == {"version", "config", "params"}
    names = [name for name, _ in manifest["params"]]
    assert names == sorted(params)
    payload = np.fromfile(tmp_path / "m.amdw.f32", dtype="<f4")
    np.testing.assert_array_equal(
        payload, np.concatenate([params[n].ravel() for n in names]))
    # a path to either file of the pair names the pair
    for ext in (".json", ".f32"):
        loaded, _, _ = load_checkpoint(tmp_path / f"m.amdw{ext}")
        assert all(np.array_equal(loaded[k], params[k]) for k in params)


def test_reloaded_model_computes_the_same_logits_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 6, 4, 4))
    params, _ = fit(x, np.arange(8) % 2, CFG, OptimizerConfig(batch_size=4),
                    epochs=2, shuffle_seed=0)
    save_checkpoint(tmp_path / "m.amdw", params, CFG)
    loaded, cfg, _ = load_checkpoint(tmp_path / "m.amdw")
    in_memory, _ = forward(Tape(), wrap_params(params), CFG, x)
    reloaded, _ = forward(Tape(), wrap_params(loaded), cfg, x)
    np.testing.assert_array_equal(reloaded.data, in_memory.data)
    assert reloaded.data.dtype == in_memory.data.dtype == np.float32


def test_checkpoint_values_round_trip_at_f32(tmp_path):
    params = init_params(CFG)
    path = tmp_path / "m.amdw"
    save_checkpoint(path, params, CFG)
    loaded, cfg, _ = load_checkpoint(path)
    assert set(loaded) == set(params)
    for name in params:
        np.testing.assert_array_equal(
            loaded[name], params[name].astype("<f4").astype(np.float64))
        assert loaded[name].shape == params[name].shape
    assert cfg == CFG


def test_checkpoint_f32_representable_values_exact(tmp_path):
    params = {k: v.astype("<f4").astype(np.float64)
              for k, v in init_params(CFG).items()}
    path = tmp_path / "m.amdw"
    save_checkpoint(path, params, CFG)
    loaded, _, _ = load_checkpoint(path)
    for name in params:
        np.testing.assert_array_equal(loaded[name], params[name])


def test_checkpoint_extra_header_fields(tmp_path):
    path = tmp_path / "m.amdw"
    save_checkpoint(path, init_params(CFG), CFG,
                    extra={"fold": 2, "ablate": "spatial"})
    _, _, extra = load_checkpoint(path)
    assert extra == {"fold": 2, "ablate": "spatial"}


def test_checkpoint_config_carries_ablate(tmp_path):
    path = tmp_path / "m.amdw"
    save_checkpoint(path, init_params(CFG), replace(CFG, ablate="spatial"))
    assert load_checkpoint(path)[1].ablate == "spatial"
    # a header written before the field existed loads as the full model
    _edit_header(path, lambda h: h["config"].pop("ablate"))
    assert load_checkpoint(path)[1] == CFG


def test_checkpoint_in_the_old_single_file_layout_is_not_found(tmp_path):
    path = tmp_path / "m.amdw"
    path.write_bytes(b"AMDW" + b"\x00" * 64)
    with pytest.raises(DataError, match="checkpoint manifest not found"):
        load_checkpoint(path)


def test_saved_payload_is_the_optimizer_buffer(tmp_path):
    params = init_params(CFG)
    optimizer = AdamW(params, OptimizerConfig())
    rng = np.random.default_rng(0)
    optimizer.step({k: rng.normal(size=v.shape) for k, v in params.items()})
    save_checkpoint(tmp_path / "m.amdw", params, CFG)
    assert (tmp_path / "m.amdw.f32").read_bytes() == \
        optimizer.theta.astype("<f4").tobytes()


def test_save_accepts_the_parameters_in_any_dict_order(tmp_path):
    params = init_params(CFG)
    save_checkpoint(tmp_path / "a.amdw", params, CFG)
    save_checkpoint(tmp_path / "b.amdw", dict(reversed(params.items())), CFG)
    for ext in (".json", ".f32"):
        assert (tmp_path / f"a.amdw{ext}").read_bytes() == \
            (tmp_path / f"b.amdw{ext}").read_bytes()


# edit of init_params(CFG) -> the parameter the refusal must name
REFUSED_DICTS = {
    "missing": (lambda p: p.pop("classifier.b"), "classifier.b"),
    "extra": (lambda p: p.update({"temporal.bias": np.zeros(1)}),
              "temporal.bias"),
    "misshaped": (lambda p: p.update(
        {"classifier.w": p["classifier.w"][:, :1]}), "classifier.w"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_DICTS))
def test_save_refuses_a_dict_load_would_refuse(case, tmp_path):
    params = init_params(CFG)
    edit, name = REFUSED_DICTS[case]
    edit(params)
    with pytest.raises(DataError, match=f"checkpoint parameter .*'{name}'"):
        save_checkpoint(tmp_path / "m.amdw", params, CFG)
    assert list(tmp_path.iterdir()) == []


def test_save_and_load_draw_no_random_numbers(tmp_path, monkeypatch):
    params = init_params(CFG)

    def no_draws(seed, name):
        raise AssertionError(f"drew random numbers for {name}")
    monkeypatch.setattr("amdet.model._rng_for", no_draws)
    save_checkpoint(tmp_path / "m.amdw", params, CFG)
    loaded, cfg, _ = load_checkpoint(tmp_path / "m.amdw")
    assert cfg == CFG
    assert all(np.array_equal(loaded[k], params[k]) for k in params)


def test_checkpoint_truncated_payload_rejected(tmp_path):
    path = tmp_path / "m.amdw"
    save_checkpoint(path, init_params(CFG), CFG)
    _cut(path, ".f32", -8)
    with pytest.raises(DataError, match="payload"):
        load_checkpoint(path)


# ------------------------------------------- malformed files: eval exits 2


def _file(path, ext):
    return path.parent / (path.name + ext)


def _edit_header(path, edit):
    manifest = json.loads(_file(path, ".json").read_text())
    edit(manifest)
    _file(path, ".json").write_text(json.dumps(manifest))


def _cut(path, ext, keep):
    _file(path, ext).write_bytes(_file(path, ext).read_bytes()[:keep])


def _entry(manifest, name):
    return next(e for e in manifest["params"] if e[0] == name)


def _nan_first_weight(path):
    raw = bytearray(_file(path, ".f32").read_bytes())
    raw[:4] = np.array([np.nan], "<f4").tobytes()
    _file(path, ".f32").write_bytes(bytes(raw))


MALFORMED = {
    "six_bytes": lambda p: _cut(p, ".json", 6),
    "no_param_index": lambda p: _edit_header(p, lambda h: h.pop("params")),
    "missing_parameter": lambda p: _edit_header(
        p, lambda h: h.update(params=[
            e for e in h["params"] if e[0] != "spectral.pos"])),
    "wrong_shape": lambda p: _edit_header(
        p, lambda h: _entry(h, "classifier.w").__setitem__(1, [2, 8])),
    "float_shape": lambda p: _edit_header(
        p, lambda h: _entry(h, "classifier.w").__setitem__(1, [16.0, 2])),
    "bool_shape": lambda p: _edit_header(
        p, lambda h: _entry(h, "temporal.score.w").__setitem__(1, [16, True])),
    "nan_weight": _nan_first_weight,
    "unknown_config_key": lambda p: _edit_header(
        p, lambda h: h["config"].update(depth=3)),
    "string_channel_count": lambda p: _edit_header(
        p, lambda h: h["config"].update(channels="4")),
    "unknown_ablated_block": lambda p: _edit_header(
        p, lambda h: h["config"].update(ablate="classifier")),
    "extra_not_an_object": lambda p: _edit_header(
        p, lambda h: h.update(extra=[1])),
}


@pytest.fixture
def eval_features(tmp_path):
    rng = np.random.default_rng(0)
    samples = [SampleTensor(rng.normal(size=(CFG.frames, CFG.feature_dim,
                                             CFG.channels)), i % 2)
               for i in range(4)]
    write_features(tmp_path / "feat", samples, DEAP_BANDS[:CFG.bands])
    return tmp_path / "feat"


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_checkpoint_eval_exits_2(case, tmp_path, eval_features,
                                           capsys):
    path = tmp_path / "m.amdw"
    save_checkpoint(path, init_params(CFG), CFG)
    assert main(["eval", "--checkpoint", str(path),
                 "--features", str(eval_features)]) == 0
    capsys.readouterr()
    MALFORMED[case](path)
    with pytest.raises(DataError):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path),
                 "--features", str(eval_features)]) == 2
    assert "data error" in capsys.readouterr().err
