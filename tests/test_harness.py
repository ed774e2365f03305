"""Experiment drivers: splits, training reports, ablation, counting, sweeps."""

import json
import re
import threading
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from amdet.data import (FeatureSet, SynthSpec, default_synth_spec,
                        synth_generate)
from amdet.engine import OptimizerConfig
from amdet.errors import DataError, NumericalError, build
from amdet import harness
from amdet.harness import (ExperimentConfig, default_k_grid, evaluate, fit,
                           kfold_split, reduce_channels_sweep, train)
from amdet.features import DEAP_BANDS, extract_features
from amdet.model import (ModelConfig, forward_flops, init_params,
                         param_count, predict)


def dummy_metas(n_trials, per_trial):
    return [{"trial": t, "segment": s}
            for t in range(n_trials) for s in range(per_trial)]


def tiny_featureset(seed=0, trials_per_class=4, trial_seconds=6.0):
    spec = default_synth_spec(trials_per_class=trials_per_class,
                              trial_seconds=trial_seconds, channels=8,
                              seed=seed,
                              planted=tuple(
                                  p.__class__(p.class_index, (0, 1), p.lo_hz,
                                              p.hi_hz, p.amplitude)
                                  for p in default_synth_spec().planted))
    rec = synth_generate(spec)
    samples = extract_features(rec, DEAP_BANDS)
    return FeatureSet(np.stack([s.values for s in samples]),
                      np.array([s.label for s in samples]),
                      [s.meta for s in samples], list(DEAP_BANDS))


def tiny_config(**overrides):
    base = dict(out_dir="", seed=0, folds=2, epochs=2,
                optimizer=OptimizerConfig(batch_size=8))
    base.update(overrides)
    return ExperimentConfig(**base)


# ------------------------------------------------------------ kfold_split


def test_kfold_segment_sizes():
    splits = kfold_split(100, 5, "segment", seed=0)
    assert [len(test) for _, test in splits] == [20, 20, 20, 20, 20]


def test_kfold_disjoint_cover():
    splits = kfold_split(103, 5, "segment", seed=1)
    all_test = np.concatenate([test for _, test in splits])
    assert sorted(all_test) == list(range(103))
    for train_idx, test_idx in splits:
        assert np.intersect1d(train_idx, test_idx).size == 0
        assert len(train_idx) + len(test_idx) == 103


def test_kfold_trial_mode_whole_trials():
    metas = dummy_metas(10, 20)
    splits = kfold_split(200, 5, "trial", seed=3, metas=metas)
    trial_of = np.array([m["trial"] for m in metas])
    for train_idx, test_idx in splits:
        assert len(test_idx) == 40          # 2 whole trials x 20 samples
        assert not (set(trial_of[train_idx]) & set(trial_of[test_idx]))


def test_kfold_trial_mode_needs_enough_trials():
    metas = dummy_metas(3, 5)
    with pytest.raises(DataError):
        kfold_split(15, 5, "trial", seed=0, metas=metas)


def test_kfold_deterministic():
    a = kfold_split(50, 5, "segment", seed=9)
    b = kfold_split(50, 5, "segment", seed=9)
    for (ta, sa), (tb, sb) in zip(a, b):
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(sa, sb)
    c = kfold_split(50, 5, "segment", seed=10)
    assert any(not np.array_equal(sa, sc)
               for (_, sa), (_, sc) in zip(a, c))


# ------------------------------------------------------------------ train


@pytest.fixture(scope="module")
def run_once(tmp_path_factory):
    fs = tiny_featureset()
    out = tmp_path_factory.mktemp("run")
    config = tiny_config(out_dir=str(out), epochs=3)
    report = train(config, fs)
    return fs, config, report, out


def test_report_mean_and_std(run_once):
    _, _, report, _ = run_once
    assert report.mean_accuracy == pytest.approx(
        np.mean(report.fold_accuracies), abs=1e-12)
    assert report.std_accuracy == pytest.approx(
        np.std(report.fold_accuracies), abs=1e-12)
    assert all(0.0 <= a <= 1.0 for a in report.fold_accuracies)


def test_report_confusion_consistency(run_once):
    fs, config, report, _ = run_once
    confusion = np.array(report.confusion)
    assert confusion.sum() == fs.n_samples
    # trace / total equals the fold-size-weighted mean accuracy
    splits = kfold_split(fs.n_samples, config.folds, config.split_mode,
                         config.seed, fs.metas)
    weights = [len(test) for _, test in splits]
    weighted = np.average(report.fold_accuracies, weights=weights)
    assert np.trace(confusion) / confusion.sum() == pytest.approx(
        weighted, abs=1e-12)
    # per-class rows sum to the true class counts over the whole dataset
    for cls in range(confusion.shape[0]):
        assert confusion[cls].sum() == int((fs.labels == cls).sum())


def test_report_artifacts_written(run_once):
    _, config, report, out = run_once
    assert (out / "report.json").exists()
    assert (out / "loss.csv").exists()
    for fold in range(config.folds):
        assert (out / f"fold{fold}.amdw.json").exists()
        assert (out / f"fold{fold}.amdw.f32").exists()
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk["mean_accuracy"] == report.mean_accuracy
    assert on_disk["mlp_ratio"] == 32
    assert "notes" not in on_disk
    lines = (out / "loss.csv").read_text().strip().splitlines()
    assert lines[0] == "fold,epoch,loss"
    assert len(lines) == 1 + config.folds * config.epochs


def test_train_deterministic_rerun(run_once):
    fs, config, report, _ = run_once
    rerun = train(replace(config, out_dir=""), fs)
    assert rerun.fold_accuracies == report.fold_accuracies
    assert rerun.loss_curves == report.loss_curves


def test_train_divergence_aborts_with_fold_diagnostic():
    fs = tiny_featureset()
    config = tiny_config(optimizer=OptimizerConfig(lr=1e18, batch_size=8),
                         epochs=40)
    with pytest.raises(NumericalError, match="fold 0"):
        train(config, fs)


def test_a_numerical_failure_in_evaluate_names_its_fold(monkeypatch):
    def diverged(*args):
        raise NumericalError("non-finite logits")
    monkeypatch.setattr(harness, "evaluate", diverged)
    with pytest.raises(NumericalError, match="^fold 0: non-finite logits$"):
        train(tiny_config(epochs=1), tiny_featureset())


def test_evaluate_confusion_rows():
    fs = tiny_featureset()
    config = tiny_config()
    mcfg = config.model_config(fs)
    params, _ = fit(fs.values, fs.labels, mcfg, config.optimizer, 1, 0)
    acc, confusion = evaluate(params, mcfg, fs.values, fs.labels)
    assert confusion.sum() == fs.n_samples
    assert acc == pytest.approx(np.trace(confusion) / fs.n_samples, abs=1e-12)


def untrained_model(classes=3):
    cfg = ModelConfig(channels=4, bands=2, frames=6, classes=classes, seed=1)
    return init_params(cfg), cfg


def test_evaluate_confusion_matches_per_sample_count(rng):
    params, cfg = untrained_model()
    x = rng.normal(size=(40, 6, 4, 4))
    y = rng.integers(0, 3, size=40)
    acc, confusion = evaluate(params, cfg, x, y)
    expected = np.zeros((3, 3), dtype=np.int64)
    for truth, pred in zip(y, predict(params, cfg, x)):
        expected[truth, pred] += 1
    np.testing.assert_array_equal(confusion, expected)
    assert acc == np.trace(expected) / 40


@pytest.mark.parametrize("bad", [-1, 3])
def test_evaluate_rejects_label_out_of_range(rng, bad):
    params, cfg = untrained_model()
    y = np.array([0, 1, bad, 2])
    with pytest.raises(DataError, match=r"\[0, 3\)"):
        evaluate(params, cfg, rng.normal(size=(4, 6, 4, 4)), y)


def test_evaluate_rejects_float_labels(rng):
    # a float label used to be truncated, so 0.7 counted as class 0
    params, cfg = untrained_model()
    with pytest.raises(DataError, match="evaluate: labels"):
        evaluate(params, cfg, rng.normal(size=(4, 6, 4, 4)),
                 np.array([0.7, 1.0, 2.0, 0.0]))


def test_evaluate_rejects_label_count_mismatch(rng):
    params, cfg = untrained_model()
    with pytest.raises(DataError):
        evaluate(params, cfg, rng.normal(size=(4, 6, 4, 4)), np.zeros(3, int))


# ----------------------------------------------------------------- ablate


def test_ablate_report_schema_matches_train(run_once):
    fs, _, report, _ = run_once
    ablated = train(tiny_config(model={"ablate": "temporal"}), fs)
    assert set(asdict(ablated)) == set(asdict(report))
    assert ablated.ablate == "temporal"
    # same parameters; the FLOPs are those of the forward that ran
    assert ablated.n_params == report.n_params
    assert ablated.flops_per_forward < report.flops_per_forward


def test_ablate_rejects_unknown_block():
    fs = tiny_featureset()
    with pytest.raises(DataError):
        train(tiny_config(model={"ablate": "classifier"}), fs)


def test_unknown_ablate_in_config_rejected_before_training(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fold trained before the block was checked")
    monkeypatch.setattr(harness, "fit", no_fit)
    config = build("config", ExperimentConfig,
                   {"folds": 2, "model": {"ablate": "classifier"}})
    with pytest.raises(DataError, match="classifier"):
        train(config, tiny_featureset())


# ------------------------------------------------------------------ count


def test_count_toy_hand_arithmetic():
    cfg = ModelConfig(channels=4, bands=2, frames=6, classes=2, seed=0,
                      mlp_ratio=4)
    n_params, flops = param_count(cfg), forward_flops(cfg)
    d_spec, d_spat, flat = 4, 4, 16
    def encoder(d, hidden):
        attn = 4 * (d * d + d)
        ln = 2 * 2 * d
        mlp = d * hidden + hidden + hidden * d + d
        return attn + ln + mlp
    expected = (2 * cfg.bands * cfg.channels          # spectral pos
                + encoder(d_spec, 16)
                + cfg.channels * 2 * cfg.bands        # spatial pos
                + encoder(d_spat, 16)
                + flat + 1                            # temporal score map
                + flat * 2 + 2)                       # classifier
    assert n_params == expected
    assert flops > 0


def test_count_param_scaling_with_channels():
    base = ModelConfig(channels=16, bands=5, frames=6, classes=3)
    double = ModelConfig(channels=32, bands=5, frames=6, classes=3)

    def spectral_params(cfg):
        from amdet.model import init_params
        return sum(v.size for k, v in init_params(cfg).items()
                   if k.startswith("spectral.l"))

    ratio = spectral_params(double) / spectral_params(base)
    assert 3.5 < ratio < 4.5


def test_count_decreases_with_channels():
    c62 = ModelConfig(channels=62, bands=5, frames=6, classes=3)
    c8 = ModelConfig(channels=8, bands=5, frames=6, classes=3)
    assert param_count(c8) < param_count(c62)
    assert forward_flops(c8) < forward_flops(c62)


# ------------------------------------------------------------------ sweep


def test_default_k_grid():
    assert default_k_grid(62) == list(range(62, 1, -4))
    assert default_k_grid(16) == [16, 12, 8, 4]


def test_reduce_channels_sweep_grid_and_csv(tmp_path):
    fs = tiny_featureset()
    config = tiny_config(out_dir=str(tmp_path / "sweep"))
    ranking = list(range(8))
    rows = reduce_channels_sweep(config, fs, ranking, [8, 4, 2])
    assert [r["k"] for r in rows] == [8, 4, 2]
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "k,mean,std"
    assert len(lines) == 4
    # identity ranking at k = C is the unreduced dataset: same accuracy
    baseline = train(tiny_config(), fs)
    assert rows[0]["mean"] == pytest.approx(baseline.mean_accuracy,
                                            abs=1e-12)


def test_reduce_channels_sweep_adjusts_heads_for_odd_k(tmp_path):
    fs = tiny_featureset()
    config = tiny_config()
    rows = reduce_channels_sweep(config, fs, list(range(8)), [3])
    assert rows[0]["k"] == 3     # spectral heads fall back to 1 internally


def test_reduce_channels_sweep_trains_on_the_top_k_channels(monkeypatch):
    """Each k trains on the values of the top k ranked channels under
    their own names, with the set's labels, metas and bands."""
    fs = tiny_featureset()
    ranking = [5, 2, 7, 0, 1, 3, 4, 6]
    trained = []

    def record(config, features):
        trained.append((config.model["channels"], features))
        return train(replace(config, epochs=1), features)
    monkeypatch.setattr(harness, "train", record)
    reduce_channels_sweep(tiny_config(), fs, ranking, [8, 3])
    assert [k for k, _ in trained] == [8, 3]
    for k, sub in trained:
        assert sub.channels == [f"ch{i:02d}" for i in ranking[:k]]
        np.testing.assert_array_equal(sub.values, fs.values[..., ranking[:k]])
        np.testing.assert_array_equal(sub.labels, fs.labels)
        assert sub.metas == fs.metas and sub.bands == fs.bands


# ------------------------------------------------------------------ config


def test_experiment_config_round_trip():
    config = tiny_config(split_mode="trial", epochs=7)
    again = build("config", ExperimentConfig,
                  json.loads(json.dumps(asdict(config))))
    assert again == config


def test_readme_experiment_config_example_builds():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"### Experiment config.*?```json\n(.*?)```", readme,
                      re.DOTALL).group(1)
    example = json.loads(re.sub(r"//[^\n]*", "", block))
    config = build("config", ExperimentConfig, example)
    config.model.update(channels=4, bands=2, frames=6, classes=3)
    config.model_config()       # every model key is a ModelConfig field


@pytest.mark.parametrize("cls", [ExperimentConfig, ModelConfig, SynthSpec])
@pytest.mark.parametrize("given", [[1], "x", None])
def test_config_from_a_non_mapping_is_a_data_error(cls, given):
    owner = {ExperimentConfig: "config", ModelConfig: "model config",
             SynthSpec: "synth spec"}[cls]
    with pytest.raises(DataError, match=f"{owner} must be a mapping"):
        build(owner, cls, given)


def test_experiment_config_validation():
    with pytest.raises(DataError):
        tiny_config(folds=1)
    with pytest.raises(DataError):
        tiny_config(epochs=0)
    with pytest.raises(DataError):
        tiny_config(split_mode="random")


def test_model_config_requires_dims_without_features():
    config = tiny_config()
    with pytest.raises(DataError):
        config.model_config()
    config.model = {"channels": 8, "bands": 4, "frames": 6, "classes": 3}
    assert config.model_config().channels == 8


# ---------------------------------------------------------- compute dtype


def test_one_fit_step_computes_in_float32(monkeypatch, rng):
    tapes, optimizers = [], []

    class RecordingTape(harness.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    class RecordingAdamW(harness.AdamW):
        def __init__(self, *args):
            super().__init__(*args)
            optimizers.append(self)

    monkeypatch.setattr(harness, "Tape", RecordingTape)
    monkeypatch.setattr(harness, "AdamW", RecordingAdamW)
    cfg = ModelConfig(channels=4, bands=2, frames=6, classes=2, seed=0,
                      mlp_ratio=4)
    x = rng.normal(size=(8, 6, 4, 4))           # float64 in, float32 inside
    y = np.arange(8) % 2
    params, _ = fit(x, y, cfg, OptimizerConfig(batch_size=8), epochs=1,
                    shuffle_seed=0)
    (tape,), (optimizer,) = tapes, optimizers
    produced = {id(node.out) for node in tape.nodes}
    leaves = [t for node in tape.nodes for t in node.inputs
              if id(t) not in produced]
    f32 = {np.dtype(np.float32)}
    assert {node.out.data.dtype for node in tape.nodes} == f32
    assert {t.grad.dtype for t in leaves if t.grad is not None} == f32
    assert {a.dtype for a in (optimizer.m, optimizer.v,
                              *params.values())} == f32


def test_fit_hands_forward_batches_already_in_float32(monkeypatch, rng):
    """fit casts the training set once, so no batch is cast again."""
    batch_dtypes = []
    real_forward = harness.forward

    def forward(tape, p, cfg, x):
        batch_dtypes.append(x.dtype)
        return real_forward(tape, p, cfg, x)

    cfg = ModelConfig(channels=4, bands=2, frames=6, classes=2, seed=0)
    x = rng.normal(size=(20, 6, 4, 4))
    y = np.arange(20) % 2
    opt = OptimizerConfig(batch_size=8)
    _, f32_losses = fit(x.astype(np.float32), y, cfg, opt, 2, shuffle_seed=0)
    monkeypatch.setattr(harness, "forward", forward)
    _, losses = fit(x, y, cfg, opt, 2, shuffle_seed=0)
    assert batch_dtypes == [np.dtype(np.float32)] * 6
    assert losses == f32_losses


def test_fit_leaves_no_package_thread_running(rng):
    """Training runs on the calling thread: after a fit, no thread whose
    name starts with the package's is alive."""
    cfg = ModelConfig(channels=4, bands=2, frames=6, classes=2, seed=0,
                      mlp_ratio=4)
    fit(rng.normal(size=(8, 6, 4, 4)), np.arange(8) % 2, cfg,
        OptimizerConfig(batch_size=8), epochs=1, shuffle_seed=0)
    assert [t.name for t in threading.enumerate()
            if t.name.startswith("amdet")] == []
