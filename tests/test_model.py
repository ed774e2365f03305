"""Model forward: attention semantics, shapes, sharing, block identities."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import params64
from amdet.attribution import rank_channels
from amdet.engine import Tape, Tensor
from amdet.errors import DataError, NumericalError
from amdet.harness import evaluate
from amdet import model
from amdet.model import (ABLATABLE_BLOCKS, ModelConfig, classify,
                         encoder_activations, encoder_layer, forward,
                         init_params, mha, param_count,
                         param_shapes, predict, spatial_block,
                         spectral_block, temporal_block, wrap_params)
from amdet.model import _rng_for

TOY = ModelConfig(channels=4, bands=2, frames=6, classes=2, seed=7,
                  mlp_ratio=4)
SEED_CFG = ModelConfig(channels=62, bands=5, frames=6, classes=3, seed=1)
DEAP_CFG = ModelConfig(channels=32, bands=4, frames=6, classes=2, seed=1)


def toy_tensors(cfg=TOY):
    return wrap_params(init_params(cfg))


def toy_tensors64(cfg=TOY):
    """float64 weights, for identities checked at float64 precision."""
    return wrap_params(params64(cfg))


# ------------------------------------------------------------------- MHA


def naive_mha(x, p, prefix, heads):
    """Brute-force per-head loop, plain numpy, independent of the tape ops."""
    wq, bq = p[f"{prefix}.attn.wq.w"].data, p[f"{prefix}.attn.wq.b"].data
    wk, bk = p[f"{prefix}.attn.wk.w"].data, p[f"{prefix}.attn.wk.b"].data
    wv, bv = p[f"{prefix}.attn.wv.w"].data, p[f"{prefix}.attn.wv.b"].data
    wo, bo = p[f"{prefix}.attn.wo.w"].data, p[f"{prefix}.attn.wo.b"].data
    q, k, v = x @ wq + bq, x @ wk + bk, x @ wv + bv
    d = x.shape[-1]
    dk = d // heads
    outs = []
    for h in range(heads):
        qh = q[:, h * dk:(h + 1) * dk]
        kh = k[:, h * dk:(h + 1) * dk]
        vh = v[:, h * dk:(h + 1) * dk]
        scores = qh @ kh.T / math.sqrt(dk)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        outs.append(attn @ vh)
    return np.concatenate(outs, axis=-1) @ wo + bo


def test_mha_matches_naive_oracle(rng):
    p = toy_tensors()
    x = rng.normal(size=(4, 4))
    out, _ = mha(Tape(), p, "spectral.l0", Tensor(x), heads=2)
    expected = naive_mha(x, p, "spectral.l0", 2)
    np.testing.assert_allclose(out.data, expected, atol=1e-10)


def test_mha_spatial_dims_match_naive_oracle(rng):
    cfg = ModelConfig(channels=4, bands=5, frames=6, classes=2, seed=3,
                      mlp_ratio=4)
    p = wrap_params(init_params(cfg))
    x = rng.normal(size=(7, 10))          # 7 channel tokens, dim 2f=10
    out, _ = mha(Tape(), p, "spatial.l0", Tensor(x), heads=2)
    np.testing.assert_allclose(out.data, naive_mha(x, p, "spatial.l0", 2),
                               atol=1e-10)


def test_mha_zero_queries_keys_give_uniform_attention(rng):
    p = toy_tensors()
    for name in ("spectral.l0.attn.wq.w", "spectral.l0.attn.wq.b",
                 "spectral.l0.attn.wk.w", "spectral.l0.attn.wk.b"):
        p[name].data[...] = 0.0
    x = rng.normal(size=(5, 4))
    _, attns = mha(Tape(), p, "spectral.l0", Tensor(x), heads=2)
    for attn in attns:
        np.testing.assert_allclose(attn.data, 1.0 / 5, atol=1e-12)


def test_mha_single_token(rng):
    p = toy_tensors()
    x = rng.normal(size=(1, 4))
    out, attns = mha(Tape(), p, "spectral.l0", Tensor(x), heads=2)
    for attn in attns:
        np.testing.assert_allclose(attn.data, 1.0)
    v = x @ p["spectral.l0.attn.wv.w"].data + p["spectral.l0.attn.wv.b"].data
    expected = v @ p["spectral.l0.attn.wo.w"].data \
        + p["spectral.l0.attn.wo.b"].data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


@pytest.mark.parametrize("weight", ["spectral.l0.mlp.w2.w",
                                    "spatial.l0.mlp.w2.w", "classifier.w"])
@pytest.mark.parametrize("caller", [
    predict,
    lambda params, cfg, x: evaluate(params, cfg, x, np.zeros(len(x), int)),
    lambda params, cfg, x: rank_channels(params, cfg, x,
                                         np.zeros(len(x), int))],
    ids=["predict", "evaluate", "rank_channels"])
def test_forward_refuses_nonfinite_logits(rng, weight, caller):
    """A finite weight that overflows float32 in the spectral block, after
    the last attention layer or in the classifier: no non-finite value may
    become a prediction, an accuracy or a channel score."""
    params = init_params(TOY)
    params[weight][...] = 3e38
    x = rng.normal(size=(5, TOY.frames, TOY.feature_dim, TOY.channels))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="non-finite logits"):
            caller(params, TOY, x)


# --------------------------------------------------------- encoder layer


def test_encoder_layer_zero_weights_is_double_layernorm(rng):
    p = toy_tensors()
    for name, t in p.items():
        if name.startswith("spectral.l0") and ".ln" not in name:
            t.data[...] = 0.0
    x = rng.normal(size=(4, 4))
    out, _ = encoder_layer(Tape(), p, "spectral.l0", Tensor(x), heads=2)

    def ln(v):
        mu = v.mean(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(v.var(axis=-1, keepdims=True) + 1e-12)

    np.testing.assert_allclose(out.data, ln(ln(x)), atol=1e-9)


def test_encoder_layer_layernorm_structure(rng):
    p = toy_tensors()
    x = rng.normal(size=(4, 4)) * 3
    out, _ = encoder_layer(Tape(), p, "spectral.l0", Tensor(x), heads=2)
    gain = p["spectral.l0.ln2.g"].data
    bias = p["spectral.l0.ln2.b"].data
    # undo the affine part: remaining rows are normalized
    raw = (out.data - bias) / gain
    np.testing.assert_allclose(raw.mean(axis=-1), 0.0, atol=1e-9)
    np.testing.assert_allclose(raw.var(axis=-1), 1.0, atol=1e-6)


# ----------------------------------------------------------------- blocks


def test_spectral_block_shapes_and_sharing(rng):
    p = toy_tensors()
    x = rng.normal(size=(1, 6, 4, 4))
    x[0, 3] = x[0, 1]                     # two identical frames
    out, _ = spectral_block(Tape(), p, TOY, Tensor(x))
    assert out.data.shape == (1, 6, 4, 4)
    np.testing.assert_array_equal(out.data[0, 1], out.data[0, 3])


def test_spectral_block_weight_perturbation_touches_all_frames(rng):
    p0 = init_params(TOY)
    x = rng.normal(size=(1, 6, 4, 4))
    out0, _ = spectral_block(Tape(), wrap_params(p0), TOY, Tensor(x))
    p1 = {k: v.copy() for k, v in p0.items()}
    p1["spectral.l0.attn.wv.w"][0, 0] += 0.25
    out1, _ = spectral_block(Tape(), wrap_params(p1), TOY, Tensor(x))
    diff = np.abs(out0.data - out1.data).reshape(6, -1).max(axis=1)
    assert np.all(diff > 0)


def test_spectral_block_seed_shape():
    p = wrap_params(init_params(SEED_CFG))
    x = np.random.default_rng(0).normal(size=(1, 6, 10, 62))
    out, _ = spectral_block(Tape(), p, SEED_CFG, Tensor(x))
    assert out.data.shape == (1, 6, 10, 62)


def test_spatial_block_transposes_seed_shape():
    p = wrap_params(init_params(SEED_CFG))
    x = np.random.default_rng(0).normal(size=(1, 6, 10, 62))
    out, _ = spatial_block(Tape(), p, SEED_CFG, Tensor(x))
    assert out.data.shape == (1, 6, 62, 10)


def test_spatial_block_shares_weights_across_frames(rng):
    p = toy_tensors()
    x = rng.normal(size=(1, 6, 4, 4))
    x[0, 5] = x[0, 0]
    out, _ = spatial_block(Tape(), p, TOY, Tensor(x))
    np.testing.assert_array_equal(out.data[0, 0], out.data[0, 5])


def test_temporal_block_zero_scores_is_mean_pool(rng):
    p = toy_tensors()
    p["temporal.score.w"].data[...] = 0.0
    x = rng.normal(size=(2, 6, 4, 4))
    pooled, weights = temporal_block(Tape(), p, TOY, Tensor(x))
    np.testing.assert_allclose(weights.data, 1.0 / 6, atol=1e-15)
    expected = x.reshape(2, 6, 16).mean(axis=1)
    np.testing.assert_allclose(pooled.data, expected, atol=1e-12)


def test_temporal_block_saturates_on_dominant_frame(rng):
    # construct scores [0, 0, 1000, 0, 0, 0]: score map reads one feature
    # that is 1000 in frame 2 and 0 elsewhere
    p = toy_tensors()
    p["temporal.score.w"].data[...] = 0.0
    p["temporal.score.w"].data[0, 0] = 1.0
    p["temporal.score.b"].data[...] = 0.0
    x = rng.normal(size=(1, 6, 4, 4))
    x.reshape(1, 6, 16)[0, :, 0] = 0.0
    x.reshape(1, 6, 16)[0, 2, 0] = 1000.0
    pooled, weights = temporal_block(Tape(), p, TOY, Tensor(x))
    assert weights.data[0, 2] > 1.0 - 1e-9
    np.testing.assert_allclose(pooled.data[0], x.reshape(1, 6, 16)[0, 2],
                               atol=1e-6)


def test_temporal_weights_sum_to_one(rng):
    p = toy_tensors()
    x = rng.normal(size=(3, 6, 4, 4))
    _, weights = temporal_block(Tape(), p, TOY, Tensor(x))
    np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(weights.data > 0) and np.all(weights.data < 1)


def test_classifier_zero_weights_uniform_probabilities(rng):
    p = toy_tensors()
    p["classifier.w"].data[...] = 0.0
    p["classifier.b"].data[...] = 0.0
    tape = Tape()
    logits = classify(tape, p, Tensor(rng.normal(size=(4, 16))))
    np.testing.assert_array_equal(logits.data, 0.0)
    probs = tape.softmax(logits)
    np.testing.assert_allclose(probs.data, 0.5)


@pytest.mark.parametrize("cfg,expected_k", [
    (SEED_CFG, 3),
    (ModelConfig(channels=62, bands=5, frames=6, classes=4, seed=1), 4),
    (DEAP_CFG, 2),
])
def test_logit_lengths_per_dataset_config(cfg, expected_k):
    p = wrap_params(init_params(cfg))
    x = np.zeros((1, cfg.frames, cfg.feature_dim, cfg.channels))
    logits, _ = forward(Tape(), p, cfg, x)
    assert logits.data.shape == (1, expected_k)


# ---------------------------------------------------------------- forward


def test_forward_composition_matches_chained_blocks(rng):
    p = toy_tensors64()
    x = rng.normal(size=(2, 6, 4, 4))
    logits, _ = forward(Tape(), p, TOY, x)

    tape = Tape()
    z, _ = spectral_block(tape, p, TOY, Tensor(x))
    z, _ = spatial_block(tape, p, TOY, z)
    pooled, _ = temporal_block(tape, p, TOY, z)
    expected = classify(tape, p, pooled)
    np.testing.assert_allclose(logits.data, expected.data, atol=1e-12)


def test_forward_permutation_equivariance(rng):
    p = toy_tensors()
    x = rng.normal(size=(4, 6, 4, 4))
    logits, _ = forward(Tape(), p, TOY, x)
    perm = np.array([2, 0, 3, 1])
    logits_p, _ = forward(Tape(), p, TOY, x[perm])
    np.testing.assert_array_equal(logits_p.data, logits.data[perm])


def test_forward_deterministic(rng):
    p = toy_tensors()
    x = rng.normal(size=(2, 6, 4, 4))
    a, _ = forward(Tape(), p, TOY, x)
    b, _ = forward(Tape(), p, TOY, x)
    np.testing.assert_array_equal(a.data, b.data)


def test_forward_attention_rows_sum_to_one(rng):
    p = toy_tensors64()
    x = rng.normal(size=(2, 6, 4, 4))
    _, aux = forward(Tape(), p, TOY, x)
    for attn in aux["spectral_attention"] + aux["spatial_attention"]:
        np.testing.assert_allclose(attn.data.sum(axis=-1), 1.0, atol=1e-9)
    np.testing.assert_allclose(aux["temporal_weights"].data.sum(axis=-1),
                               1.0, atol=1e-9)


def test_float32_attention_rows_and_frame_weights_sum_to_one(rng):
    x = rng.normal(size=(2, 6, 4, 4))
    for cfg in (TOY, replace(TOY, ablate="temporal")):
        _, aux = forward(Tape(), toy_tensors(), cfg, x)
        for rows in (aux["spectral_attention"] + aux["spatial_attention"]
                     + [aux["temporal_weights"]]):
            assert rows.data.dtype == np.float32
            np.testing.assert_allclose(rows.data.sum(axis=-1), 1.0,
                                       rtol=0, atol=1e-5)


@pytest.mark.parametrize("cfg", [TOY, SEED_CFG, DEAP_CFG],
                         ids=["toy", "seed", "deap"])
def test_float32_logits_match_float64_forward(cfg, rng):
    # the same float32-rounded weights and input, computed in both dtypes
    x = rng.normal(size=(4, cfg.frames, cfg.feature_dim, cfg.channels))
    x = x.astype(np.float32)
    l32, _ = forward(Tape(), wrap_params(init_params(cfg)), cfg, x)
    l64, _ = forward(Tape(), wrap_params(params64(cfg)), cfg, x)
    assert l32.data.dtype == np.float32 and l64.data.dtype == np.float64
    assert np.max(np.abs(l32.data - l64.data)) <= \
        1e-4 * np.max(np.abs(l64.data))


def test_forward_shape_pipeline(rng):
    for cfg in (TOY, SEED_CFG, DEAP_CFG):
        p = wrap_params(init_params(cfg))
        x = rng.normal(size=(1, cfg.frames, cfg.feature_dim, cfg.channels))
        logits, aux = forward(Tape(), p, cfg, x)
        assert aux["spatial_out"].data.shape == \
            (1, cfg.frames, cfg.channels, cfg.feature_dim)
        assert logits.data.shape == (1, cfg.classes)


@pytest.mark.parametrize("ablate", [None, *ABLATABLE_BLOCKS])
def test_step_and_ranking_leave_parameters_and_input_unchanged(rng, ablate):
    """The ops that write in place overwrite only intermediates: one
    training step (forward and backward) and Grad-CAM ranking leave every
    parameter array and the float32 input, which the forward pass reads
    without a copy, byte-identical."""
    cfg = replace(TOY, ablate=ablate)
    params = init_params(cfg)
    x = rng.normal(size=(5, cfg.frames, cfg.feature_dim, cfg.channels)
                   ).astype(np.float32)
    y = np.arange(5) % cfg.classes

    def snapshot():
        return [v.tobytes() for v in params.values()], x.tobytes()

    before = snapshot()
    tape = Tape()
    logits, aux = forward(tape, wrap_params(params), cfg, x)
    assert aux["input"].data is x
    tape.backward(tape.cross_entropy(logits, y))
    rank_channels(params, cfg, x, y)
    assert snapshot() == before


def test_forward_rejects_wrong_shape(rng):
    p = toy_tensors()
    with pytest.raises(DataError):
        forward(Tape(), p, TOY, rng.normal(size=(1, 6, 4, 5)))


def test_forward_rejects_unknown_ablation(rng):
    p = toy_tensors()
    with pytest.raises(DataError):
        forward(Tape(), p, replace(TOY, ablate="classifier"),
                rng.normal(size=(1, 6, 4, 4)))


def test_remove_temporal_equals_zero_score_map(rng):
    params = init_params(TOY)
    x = rng.normal(size=(3, 6, 4, 4))
    ablated, _ = forward(Tape(), wrap_params(params),
                         replace(TOY, ablate="temporal"), x)
    zeroed = {k: v.copy() for k, v in params.items()}
    zeroed["temporal.score.w"][...] = 0.0
    full, _ = forward(Tape(), wrap_params(zeroed), TOY, x)
    assert np.max(np.abs(ablated.data - full.data)) < 1e-9


def test_remove_spectral_feeds_input_to_spatial(rng):
    p = toy_tensors64()
    x = rng.normal(size=(1, 6, 4, 4))
    logits, aux = forward(Tape(), p, replace(TOY, ablate="spectral"), x)
    # spatial block then saw the raw input: recompute directly
    tape = Tape()
    z, _ = spatial_block(tape, p, TOY, Tensor(x))
    pooled, _ = temporal_block(tape, p, TOY, z)
    expected = classify(tape, p, pooled)
    np.testing.assert_allclose(logits.data, expected.data, atol=1e-12)
    assert aux["spectral_attention"] == []


def test_remove_spatial_keeps_transpose_only(rng):
    p = toy_tensors64()
    x = rng.normal(size=(1, 6, 4, 4))
    _, aux = forward(Tape(), p, replace(TOY, ablate="spatial"), x)
    spec_out, _ = spectral_block(Tape(), p, TOY, Tensor(x))
    np.testing.assert_allclose(aux["spatial_out"].data,
                               np.swapaxes(spec_out.data, -1, -2),
                               atol=1e-12)
    assert aux["spatial_attention"] == []


# ------------------------------------------------------------ parameters


def test_weight_sharing_param_set_independent_of_frames():
    cfg_a = ModelConfig(channels=4, bands=2, frames=6, classes=2, seed=0)
    cfg_b = ModelConfig(channels=4, bands=2, frames=12, classes=2, seed=0)
    pa, pb = init_params(cfg_a), init_params(cfg_b)
    spectral_a = {k for k in pa if k.startswith("spectral")}
    spectral_b = {k for k in pb if k.startswith("spectral")}
    assert spectral_a == spectral_b
    assert param_shapes(cfg_a) == param_shapes(cfg_b)


def test_init_deterministic_and_name_keyed():
    pa = init_params(TOY)
    pb = init_params(TOY)
    for k in pa:
        np.testing.assert_array_equal(pa[k], pb[k])
    pc = init_params(ModelConfig(channels=4, bands=2, frames=6, classes=2,
                                 seed=8, mlp_ratio=4))
    assert any(not np.array_equal(pa[k], pc[k]) for k in pa)


def init_params_reference(cfg):
    """The parameters built block by block, in forward order, with the
    per-name draws written out: the oracle init_params must match."""
    def linear(p, name, fan_in, fan_out, zero_bias=False):
        bound = math.sqrt(1.0 / fan_in)
        p[f"{name}.w"] = _rng_for(cfg.seed, f"{name}.w").uniform(
            -bound, bound, (fan_in, fan_out))
        p[f"{name}.b"] = np.zeros(fan_out) if zero_bias else _rng_for(
            cfg.seed, f"{name}.b").uniform(-bound, bound, fan_out)

    def encoder(p, prefix, d, hidden):
        for proj in ("wq", "wk", "wv", "wo"):
            linear(p, f"{prefix}.attn.{proj}", d, d)
        for ln in ("ln1", "ln2"):
            p[f"{prefix}.{ln}.g"] = np.ones(d)
            p[f"{prefix}.{ln}.b"] = np.zeros(d)
        linear(p, f"{prefix}.mlp.w1", d, hidden)
        linear(p, f"{prefix}.mlp.w2", hidden, d)

    p = {}
    d2f, c = cfg.feature_dim, cfg.channels
    p["spectral.pos"] = _rng_for(cfg.seed, "spectral.pos").normal(
        0.0, 0.02, (d2f, c))
    for layer in range(cfg.spectral_layers):
        encoder(p, f"spectral.l{layer}", c, c * cfg.mlp_ratio)
    p["spatial.pos"] = _rng_for(cfg.seed, "spatial.pos").normal(
        0.0, 0.02, (c, d2f))
    for layer in range(cfg.spatial_layers):
        encoder(p, f"spatial.l{layer}", d2f, d2f * cfg.mlp_ratio)
    linear(p, "temporal.score", cfg.flat_dim, 1)
    linear(p, "classifier", cfg.flat_dim, cfg.classes, zero_bias=True)
    return {k: v.astype(np.float32) for k, v in p.items()}


LAYOUT_CFGS = [
    ModelConfig(channels=16, bands=4, frames=6, classes=3, seed=0),
    replace(SEED_CFG, seed=7),
    ModelConfig(channels=4, bands=2, frames=6, classes=2, seed=3,
                mlp_ratio=4, spectral_layers=2, spatial_layers=3),
    ModelConfig(channels=6, bands=3, frames=4, classes=5, seed=1,
                mlp_ratio=1, spectral_heads=3, spatial_heads=1,
                spatial_layers=2),
]
LAYOUT_IDS = ["c16", "c62", "layers", "odd"]


@pytest.mark.parametrize("cfg", LAYOUT_CFGS, ids=LAYOUT_IDS)
def test_init_params_matches_reference_bitwise(cfg):
    got, want = init_params(cfg), init_params_reference(cfg)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].dtype == want[name].dtype == np.float32
        assert got[name].shape == want[name].shape
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("cfg", LAYOUT_CFGS, ids=LAYOUT_IDS)
def test_param_shapes_is_sorted_and_is_the_init_layout(cfg):
    shapes = param_shapes(cfg)
    assert list(shapes) == sorted(shapes)
    assert param_count(cfg) == sum(math.prod(s) for s in shapes.values())
    params = init_params(cfg)
    assert list(params) == list(shapes)
    assert {k: v.shape for k, v in params.items()} == shapes


def test_init_layernorm_and_classifier_bias():
    p = init_params(TOY)
    np.testing.assert_array_equal(p["spectral.l0.ln1.g"], 1.0)
    np.testing.assert_array_equal(p["spectral.l0.ln1.b"], 0.0)
    np.testing.assert_array_equal(p["classifier.b"], 0.0)


def test_config_validation():
    with pytest.raises(DataError):
        ModelConfig(channels=5, bands=2, frames=6, classes=2)   # 5 % 2 != 0
    with pytest.raises(DataError):
        ModelConfig(channels=4, bands=2, frames=6, classes=2, spatial_heads=3)
    with pytest.raises(DataError):
        ModelConfig(channels=4, bands=2, frames=6, classes=1)
    with pytest.raises(DataError):
        ModelConfig(channels=4, bands=2, frames=6, classes=2,
                    spectral_layers=0)
    for heads in (0, -1):     # 0 divides by zero; -1 fails only in forward
        with pytest.raises(DataError, match="spectral_heads"):
            ModelConfig(channels=4, bands=2, frames=6, classes=2,
                        spectral_heads=heads)
        with pytest.raises(DataError, match="spatial_heads"):
            ModelConfig(channels=4, bands=2, frames=6, classes=2,
                        spatial_heads=heads)


def test_size_caps_refuse_a_config_that_is_too_large(monkeypatch):
    """The layer counts, the parameter count and the encoder activations per
    sample come from the config's fields alone; a config over any cap is a
    DataError that names the fields, at the cap it passes."""
    seed_shape = ModelConfig(channels=62, bands=5, frames=6, classes=3)
    assert param_count(seed_shape) == 274868 < model.MAX_PARAMETERS
    # two layers, each at most an MLP hidden layer of F x 2f x C x mlp_ratio
    assert encoder_activations(seed_shape) == 2 * 6 * 10 * 62 * 32 \
        < model.MAX_ACTIVATION
    for cap, size in (("MAX_PARAMETERS", param_count(seed_shape)),
                      ("MAX_ACTIVATION", encoder_activations(seed_shape))):
        monkeypatch.setattr(model, cap, size)
        ModelConfig(channels=62, bands=5, frames=6, classes=3)
        monkeypatch.setattr(model, cap, size - 1)
        with pytest.raises(DataError, match=rf"{size} is over the cap of "
                                            rf"{size - 1} \(.*mlp_ratio=32"):
            ModelConfig(channels=62, bands=5, frames=6, classes=3)
        monkeypatch.undo()
    for field in ("spectral_layers", "spatial_layers"):
        ModelConfig(channels=4, bands=2, frames=6, classes=2,
                    **{field: model.MAX_LAYERS})
        with pytest.raises(DataError, match=r"layer count 65 is over the cap "
                                            r"of 64 \(spectral_layers=\d+, "
                                            r"spatial_layers=\d+\)"):
            ModelConfig(channels=4, bands=2, frames=6, classes=2,
                        **{field: 65})
    with pytest.raises(DataError, match="layer count .*"
                                        "spectral_layers=1000000000000"):
        ModelConfig(channels=4, bands=2, frames=6, classes=2,
                    spectral_layers=10 ** 12)
    with pytest.raises(DataError, match="activations per sample .*"
                                        "frames=1000000000000"):
        ModelConfig(channels=4, bands=2, frames=10 ** 12, classes=2)
    # every layer's activations stay on the tape: 16 layers of 10**7 values
    with pytest.raises(DataError, match=r"activations per sample 160000000 "
                                        r".*spectral_layers=8, "
                                        r"spatial_layers=8\)"):
        ModelConfig(channels=2, bands=1, frames=100000, classes=2,
                    mlp_ratio=25, spectral_heads=1, spatial_heads=1,
                    spectral_layers=8, spatial_layers=8)
    # 16 x classes wraps to -2**63 + 16 in int64: the count must not
    with pytest.raises(DataError, match="parameter count .*classes="):
        ModelConfig(channels=4, bands=2, frames=6,
                    classes=np.int64(2 ** 59 + 1))
