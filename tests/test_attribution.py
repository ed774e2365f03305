"""Channel attribution: score properties, ranking rules, channel selection."""

import numpy as np
import pytest

from conftest import params64
from amdet import attribution, model
from amdet.attribution import (ChannelReport, grad_cam_channels,
                               rank_channels, read_ranking_csv,
                               select_channels, write_channel_report)
from amdet.data import FeatureSet, default_synth_spec, synth_generate
from amdet.engine import OptimizerConfig, Tape, Tensor
from amdet.errors import DataError
from amdet.features import DEAP_BANDS, extract_features
from amdet.harness import ExperimentConfig, fit
from amdet.model import (INFERENCE_BATCH, ModelConfig, forward, init_params,
                         predict, wrap_params)

CFG = ModelConfig(channels=4, bands=2, frames=6, classes=2, seed=3,
                  mlp_ratio=4)


def sample_for(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(cfg.frames, cfg.feature_dim, cfg.channels))


def batch_for(cfg, n, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, cfg.frames, cfg.feature_dim, cfg.channels)),
            rng.integers(0, cfg.classes, n))


def test_zero_classifier_gives_zero_scores():
    params = init_params(CFG)
    params["classifier.w"][...] = 0.0
    params["classifier.b"][...] = 0.0
    scores = grad_cam_channels(params, CFG, sample_for(CFG)[None],
                               target_classes=np.array([0]))
    np.testing.assert_array_equal(scores, 0.0)


def test_scores_nonnegative():
    params = init_params(CFG)
    x = np.stack([sample_for(CFG, seed) for seed in range(3)])
    scores = grad_cam_channels(params, CFG, x, np.ones(3, dtype=int))
    assert scores.shape == (3, CFG.channels)
    assert np.all(scores >= 0)


def test_bad_target_class_rejected():
    params = init_params(CFG)
    x = sample_for(CFG)[None]
    with pytest.raises(DataError):
        grad_cam_channels(params, CFG, x, target_classes=np.array([5]))
    with pytest.raises(DataError):
        grad_cam_channels(params, CFG, x, target_classes=np.array([-1]))
    with pytest.raises(DataError):
        grad_cam_channels(params, CFG, x, target_classes=np.array([0, 1]))
    # a float class used to be truncated, so 0.7 picked class 0
    with pytest.raises(DataError, match="grad_cam_channels: labels"):
        grad_cam_channels(params, CFG, x, target_classes=np.array([0.7]))


def test_single_sample_ranking_matches_its_scores():
    params = init_params(CFG)
    x = sample_for(CFG)[None]
    report = rank_channels(params, CFG, x, np.array([1]))
    expected = grad_cam_channels(params, CFG, x, np.array([1]))[0]
    np.testing.assert_allclose(report.scores, expected)
    assert report.ranking == [int(i) for i in np.argsort(-expected,
                                                         kind="stable")]


def test_rank_ties_break_by_channel_index():
    report = ChannelReport(np.array([0.5, 0.5, 0.9, 0.5]),
                           [int(i) for i in np.argsort(
                               -np.array([0.5, 0.5, 0.9, 0.5]),
                               kind="stable")], {})
    assert report.ranking == [2, 0, 1, 3]


def test_rank_channels_permutation_invariant(rng):
    # float32 rounding of a sample may depend on its row in the batch's GEMM
    params = params64(CFG)       # 1e-12 absolute is a float64 bound
    x = rng.normal(size=(6, CFG.frames, CFG.feature_dim, CFG.channels))
    y = np.array([0, 1, 0, 1, 1, 0])
    a = rank_channels(params, CFG, x, y)
    perm = rng.permutation(6)
    b = rank_channels(params, CFG, x[perm], y[perm])
    np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)
    assert a.ranking == b.ranking


def test_rank_channels_empty_rejected():
    params = init_params(CFG)
    with pytest.raises(DataError):
        rank_channels(params, CFG, np.zeros((0, 6, 4, 4)), np.zeros(0))


# ------------------------------------------------------- chunked inference

N_ACROSS_CHUNKS = INFERENCE_BATCH + 1


def test_rank_channels_matches_per_sample_oracle():
    params = params64(CFG)       # 1e-12 relative is a float64 bound
    x, y = batch_for(CFG, N_ACROSS_CHUNKS)
    oracle = np.mean([grad_cam_channels(params, CFG, x[i:i + 1], y[i:i + 1])[0]
                      for i in range(len(x))], axis=0)
    report = rank_channels(params, CFG, x, y)
    np.testing.assert_allclose(report.scores, oracle, rtol=1e-12, atol=0)
    assert report.ranking == [int(i) for i in np.argsort(-oracle,
                                                         kind="stable")]


def grad_cam_all_gradients(params, cfg, samples, classes):
    """Reference: grad_cam_channels with every parameter and the one-hot
    needing a gradient, as the backward pass computed it before parameter
    gradients could be skipped."""
    tape = Tape()
    logits, aux = forward(tape, wrap_params(params), cfg, samples)
    onehot = Tensor(np.eye(cfg.classes, dtype=logits.data.dtype)[classes])
    tape.backward(tape.sum_all(tape.mul(logits, onehot)))
    act, grad = aux["input"].data, aux["input"].grad
    relevance = np.maximum(grad.mean(axis=-2) * act.mean(axis=-2), 0.0)
    return relevance.mean(axis=1)


@pytest.mark.parametrize("cfg", [CFG, ModelConfig(
    channels=62, bands=5, frames=6, classes=3, seed=1)], ids=["toy", "c62"])
def test_grad_cam_matches_all_gradient_reference_bitwise(cfg):
    params = init_params(cfg)
    x, y = batch_for(cfg, INFERENCE_BATCH, seed=4)
    np.testing.assert_array_equal(
        grad_cam_channels(params, cfg, x, y),
        grad_cam_all_gradients(params, cfg, x.astype(np.float32), y))


def test_no_inference_forward_exceeds_the_chunk(monkeypatch):
    sizes = []

    def recording_forward(tape, p, cfg, x):
        sizes.append(len(x))
        return forward(tape, p, cfg, x)

    monkeypatch.setattr(attribution, "forward", recording_forward)
    monkeypatch.setattr(model, "forward", recording_forward)
    params = init_params(CFG)
    x, y = batch_for(CFG, N_ACROSS_CHUNKS)
    rank_channels(params, CFG, x, y)
    assert sizes == [INFERENCE_BATCH, 1]
    sizes.clear()
    predict(params, CFG, np.concatenate([x, x, x]))
    assert max(sizes) <= INFERENCE_BATCH and sum(sizes) == 3 * len(x)


def test_rank_channels_runs_one_backward_per_chunk(monkeypatch):
    calls = []
    backward = Tape.backward

    def counting_backward(self, loss):
        calls.append(loss)
        return backward(self, loss)

    monkeypatch.setattr(Tape, "backward", counting_backward)
    x, y = batch_for(CFG, N_ACROSS_CHUNKS)
    rank_channels(init_params(CFG), CFG, x, y)
    assert len(calls) == 2


def test_predict_matches_per_sample_argmax():
    params = init_params(CFG)
    x, _ = batch_for(CFG, 40, seed=4)
    per_sample = [int(np.argmax(forward(Tape(), wrap_params(params), CFG,
                                        x[i:i + 1])[0].data))
                  for i in range(len(x))]
    assert predict(params, CFG, x).tolist() == per_sample


# --------------------------------------------------------- select_channels


def test_select_all_channels_is_permutation(rng):
    x = rng.normal(size=(5, 6, 4, 4))
    ranking = [2, 0, 3, 1]
    out = select_channels(x, ranking, 4)
    np.testing.assert_array_equal(out, x[..., ranking])


def test_select_single_channel(rng):
    x = rng.normal(size=(5, 6, 4, 4))
    out = select_channels(x, [3, 1, 0, 2], 1)
    assert out.shape == (5, 6, 4, 1)
    np.testing.assert_array_equal(out[..., 0], x[..., 3])


def test_select_prefix_property(rng):
    x = rng.normal(size=(5, 6, 4, 8))
    ranking = [int(i) for i in rng.permutation(8)]
    k_then_kp = select_channels(*[x, ranking, 6])
    nested_ranking = list(range(6))       # after first select, order is 0..5
    nested = select_channels(k_then_kp, nested_ranking, 3)
    direct = select_channels(x, ranking, 3)
    np.testing.assert_array_equal(nested, direct)


def test_select_validates_ranking_and_k(rng):
    x = rng.normal(size=(2, 6, 4, 4))
    with pytest.raises(DataError):
        select_channels(x, [0, 1, 2], 2)            # not a permutation
    with pytest.raises(DataError):
        select_channels(x, [0, 1, 2, 3], 0)
    with pytest.raises(DataError):
        select_channels(x, [0, 1, 2, 3], 5)


def test_top8_of_62_channel_run_is_an_8_element_subset(rng):
    cfg = ModelConfig(channels=62, bands=5, frames=6, classes=3, seed=0)
    params = init_params(cfg)
    x = rng.normal(size=(3, 6, 10, 62))
    y = np.array([0, 1, 2])
    report = rank_channels(params, cfg, x, y)
    top8 = report.top_k(8)
    assert len(top8) == 8 and len(set(top8)) == 8
    assert all(0 <= c < 62 for c in top8)
    assert sorted(report.ranking) == list(range(62))


# ------------------------------------------------------------ planted data


def test_planted_channels_recovered(rng):
    # strong planted signal on channels 0-2 of 16: spot-check one seed here;
    # the acceptance suite repeats this over five seeds
    spec = default_synth_spec(trials_per_class=10, trial_seconds=9.0, seed=2)
    rec = synth_generate(spec)
    samples = extract_features(rec, DEAP_BANDS)
    fs = FeatureSet(np.stack([s.values for s in samples]),
                    np.array([s.label for s in samples]),
                    [s.meta for s in samples], list(DEAP_BANDS))
    exp = ExperimentConfig(out_dir="", seed=2, folds=5, epochs=15,
                           optimizer=OptimizerConfig())
    mcfg = exp.model_config(fs)
    params, _ = fit(fs.values, fs.labels, mcfg, exp.optimizer, 15, 2)
    report = rank_channels(params, mcfg, fs.values, fs.labels)
    top25pct = set(report.ranking[:4])
    assert len(top25pct & {0, 1, 2}) >= 2
    assert report.provenance["conditioning"] == "true_class"


# ------------------------------------------------------------------- files


def test_channel_report_csv_and_topk_round_trip(tmp_path):
    scores = np.array([0.3, 0.9, 0.1, 0.5])
    ranking = [int(i) for i in np.argsort(-scores, kind="stable")]
    report = ChannelReport(scores, ranking, {"n_samples": 7})
    names = ["Fz", "Cz", "Pz", "Oz"]
    write_channel_report(tmp_path, report, names, top_ks=[2])
    back = read_ranking_csv(tmp_path / "channel_scores.csv")
    assert back == ranking
    import json
    topk = json.loads((tmp_path / "topk_2.json").read_text())
    assert topk["channels"] == ["Cz", "Oz"]
    assert topk["indices"] == [1, 3]


def _ranking_file(ranks, header="channel_name,score,rank"):
    return "\n".join([header] + [f"ch{i},0.5,{r}" for i, r in
                                 enumerate(ranks)]) + "\n"


@pytest.mark.parametrize("text", [
    _ranking_file([0, 7]),
    _ranking_file([0, 1], header="channel_name,score,position"),
    _ranking_file([0, "x"]),
    _ranking_file([0, 0] + list(range(2, 16))),
], ids=["out_of_range", "no_rank_column", "not_an_integer",
        "duplicate_rank"])
def test_read_ranking_rejects_bad_rank(tmp_path, text):
    path = tmp_path / "channel_scores.csv"
    path.write_text(text)
    with pytest.raises(DataError, match="channel_scores.csv"):
        read_ranking_csv(path)
