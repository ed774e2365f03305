"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `criterion N PASS/FAIL` line (visible with `pytest -s`
or in captured output). Budget-heavy criteria share module-scoped datasets.

Run: pytest tests/test_acceptance.py -s -v
"""

import time
from dataclasses import replace

import numpy as np

from amdet.attribution import rank_channels, select_channels
from amdet.checkpoint import load_checkpoint, save_checkpoint
from amdet.data import FeatureSet, default_synth_spec, synth_generate
from amdet.engine import OptimizerConfig, Tape
from amdet.features import (BandSpec, DEAP_BANDS, band_component, de,
                            extract_features, psd, zscore)
from amdet.harness import ExperimentConfig, count_params_flops, fit, train
from amdet.model import (ModelConfig, forward, init_params, wrap_params)

from conftest import params64
from test_gradcheck import TOY as GRAD_TOY, max_rel_error_per_tensor

PLANTED = {0, 1, 2}


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


def build_featureset(spec) -> FeatureSet:
    rec = synth_generate(spec)
    samples = extract_features(rec, DEAP_BANDS)
    return FeatureSet(np.stack([s.values for s in samples]),
                      np.array([s.label for s in samples]),
                      [s.meta for s in samples], list(DEAP_BANDS))


def experiment(seed, folds, epochs, batch_size=16):
    return ExperimentConfig(
        out_dir="", seed=seed, folds=folds, epochs=epochs,
        optimizer=OptimizerConfig(lr=1e-3, weight_decay=1e-6,
                                  batch_size=batch_size))


# ---------------------------------------------------------------------- 1


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst = max_rel_error_per_tensor(GRAD_TOY, n_coords=20, h=1e-4)
    elapsed = time.perf_counter() - started
    worst_overall = max(worst.values())
    ok = worst_overall < 1e-4 and elapsed < 60.0
    report(1, ok, f"max rel err {worst_overall:.2e} over "
                  f"{len(worst)} tensors, {elapsed:.1f}s")
    assert worst_overall < 1e-4
    assert elapsed < 60.0


# ---------------------------------------------------------------------- 2


def test_criterion_2_closed_form_features():
    rng = np.random.default_rng(123)
    x = rng.normal(size=100_000)
    x = (x - x.mean()) / x.std()            # population sigma exactly 1
    de_val = de(x)
    de_ok = abs(de_val - 1.418939) < 1e-3

    psd_val = psd(np.array([3.0, 4.0]))
    psd_ok = psd_val == 12.5

    fs = 200.0
    t = np.arange(100) / fs
    sine = np.sin(2 * np.pi * 10.0 * t)
    alpha_out = band_component(sine, BandSpec("alpha", 8.0, 14.0), fs)
    theta_out = band_component(sine, BandSpec("theta", 4.0, 8.0), fs)
    pass_err = np.linalg.norm(alpha_out - sine) / np.linalg.norm(sine)
    stop_ratio = np.linalg.norm(theta_out) / np.linalg.norm(sine)
    band_ok = pass_err < 1e-6 and stop_ratio < 1e-6

    ok = de_ok and psd_ok and band_ok
    report(2, ok, f"de={de_val:.6f}, psd={psd_val}, band pass err "
                  f"{pass_err:.1e}, stop ratio {stop_ratio:.1e}")
    assert de_ok and psd_ok and band_ok


# ---------------------------------------------------------------------- 3


def test_criterion_3_shape_and_invariant_suite(tmp_path):
    rng = np.random.default_rng(5)
    cfg = ModelConfig(channels=8, bands=4, frames=6, classes=3, seed=9)
    params = params64(cfg)       # the 1e-9 identities hold in float64
    x = rng.normal(size=(2, 6, 8, 8))
    _, aux = forward(Tape(), wrap_params(params), cfg, x)
    rows_ok = all(
        np.max(np.abs(a.data.sum(axis=-1) - 1.0)) < 1e-9
        for a in aux["spectral_attention"] + aux["spatial_attention"]
        + [aux["temporal_weights"]])

    z = zscore(rng.normal(size=(6, 8, 8)) * 3 + 2)
    z_ok = abs(z.mean()) < 1e-5 and abs(z.std() - 1) < 1e-5

    cfg_long = ModelConfig(channels=8, bands=4, frames=12, classes=3, seed=9)
    share_ok = set(init_params(cfg_long)) == set(params)

    ablated, _ = forward(Tape(), wrap_params(params),
                         replace(cfg, ablate="temporal"), x)
    zeroed = {k: v.copy() for k, v in params.items()}
    zeroed["temporal.score.w"][...] = 0.0
    full, _ = forward(Tape(), wrap_params(zeroed), cfg, x)
    temporal_ok = np.max(np.abs(ablated.data - full.data)) < 1e-9

    save_checkpoint(tmp_path / "a.amdw", params, cfg)
    loaded, loaded_cfg, _ = load_checkpoint(tmp_path / "a.amdw")
    save_checkpoint(tmp_path / "b.amdw", loaded, loaded_cfg)
    ckpt_ok = all((tmp_path / f"a.amdw{ext}").read_bytes()
                  == (tmp_path / f"b.amdw{ext}").read_bytes()
                  for ext in (".json", ".f32"))

    ok = rows_ok and z_ok and share_ok and temporal_ok and ckpt_ok
    report(3, ok, f"attention rows {rows_ok}, zscore {z_ok}, sharing "
                  f"{share_ok}, temporal identity {temporal_ok}, "
                  f"checkpoint {ckpt_ok}")
    assert rows_ok and z_ok and share_ok and temporal_ok and ckpt_ok


# ---------------------------------------------------------------------- 4


def test_criterion_4_overfit_sanity():
    started = time.perf_counter()
    # 32 trials of 6 s -> 64 samples, two classes, moderate signal
    spec = default_synth_spec(
        n_classes=2, channels=8, trials_per_class=16, trial_seconds=6.0,
        seed=21, planted=tuple(
            p.__class__(p.class_index, (0, 1, 2), p.lo_hz, p.hi_hz, 1.0)
            for p in default_synth_spec().planted[:2]))
    fs = build_featureset(spec)
    assert fs.n_samples == 64
    cfg = experiment(seed=21, folds=2, epochs=1)
    mcfg = cfg.model_config(fs, seed=21)

    from amdet.engine import AdamW
    from amdet.model import predict
    params = init_params(mcfg)
    optimizer = AdamW(params, cfg.optimizer)
    rng = np.random.default_rng(21)
    reached = None
    for epoch in range(200):
        order = rng.permutation(fs.n_samples)
        for lo in range(0, fs.n_samples, cfg.optimizer.batch_size):
            idx = order[lo:lo + cfg.optimizer.batch_size]
            tape = Tape()
            tensors = wrap_params(params)
            logits, _ = forward(tape, tensors, mcfg, fs.values[idx])
            loss = tape.cross_entropy(logits, fs.labels[idx])
            tape.backward(loss)
            optimizer.step({k: t.grad for k, t in tensors.items()})
        acc = float((predict(params, mcfg, fs.values) == fs.labels).mean())
        if acc == 1.0:
            reached = epoch + 1
            break
    elapsed = time.perf_counter() - started
    ok = reached is not None and elapsed < 600.0
    report(4, ok, f"100% train accuracy after "
                  f"{reached if reached else '>200'} epochs, {elapsed:.0f}s")
    assert reached is not None, "did not reach 100% train accuracy"
    assert elapsed < 600.0


# ---------------------------------------------------------------------- 5


def test_criterion_5_synthetic_generalization():
    started = time.perf_counter()
    planted_fs = build_featureset(default_synth_spec(seed=1))   # K=3, C=16
    cfg = experiment(seed=0, folds=5, epochs=30)
    planted_report = train(cfg, planted_fs)

    # same dataset shape and training protocol, signal amplitude zeroed
    chance_spec = default_synth_spec(
        seed=1, planted=tuple(
            p.__class__(p.class_index, p.channels, p.lo_hz, p.hi_hz, 0.0)
            for p in default_synth_spec().planted))
    chance_fs = build_featureset(chance_spec)
    chance_report = train(cfg, chance_fs)
    elapsed = time.perf_counter() - started

    planted_ok = planted_report.mean_accuracy >= 0.90
    chance_ok = abs(chance_report.mean_accuracy - 1.0 / 3) <= 0.10
    ok = planted_ok and chance_ok and elapsed < 1800.0
    report(5, ok, f"planted {planted_report.mean_accuracy:.3f} (>=0.90), "
                  f"chance {chance_report.mean_accuracy:.3f} "
                  f"(1/3 +/- 0.10), {elapsed:.0f}s")
    assert planted_ok, f"planted accuracy {planted_report.mean_accuracy}"
    assert chance_ok, f"chance accuracy {chance_report.mean_accuracy}"
    assert elapsed < 1800.0


# ---------------------------------------------------------------------- 6


def band_planted_spec(seed, amplitude=0.8, trials_per_class=15):
    base = default_synth_spec()
    return default_synth_spec(
        trials_per_class=trials_per_class, seed=seed,
        planted=tuple(
            p.__class__(p.class_index, p.channels, p.lo_hz, p.hi_hz,
                        amplitude) for p in base.planted))


def test_criterion_6_ablation_ordering():
    seeds = [1, 2, 3, 4, 5]
    spectral_largest = 0
    full_accs, nospec_accs = [], []
    details = []
    for seed in seeds:
        fs = build_featureset(band_planted_spec(seed))
        cfg = experiment(seed=seed, folds=2, epochs=20)
        accs = {"full": train(cfg, fs).mean_accuracy}
        for remove in ("spectral", "spatial", "temporal"):
            accs[remove] = train(replace(cfg, model={"ablate": remove}),
                                 fs).mean_accuracy
        drops = {k: accs["full"] - v for k, v in accs.items() if k != "full"}
        largest = max(drops, key=drops.get)
        spectral_largest += largest == "spectral"
        full_accs.append(accs["full"])
        nospec_accs.append(accs["spectral"])
        details.append(f"seed {seed}: full {accs['full']:.3f} "
                       f"drops {drops['spectral']:+.3f}/"
                       f"{drops['spatial']:+.3f}/{drops['temporal']:+.3f}")
    mean_ok = np.mean(full_accs) >= np.mean(nospec_accs)
    order_ok = spectral_largest >= 4
    ok = mean_ok and order_ok
    report(6, ok, f"full mean {np.mean(full_accs):.3f} vs no-spectral "
                  f"{np.mean(nospec_accs):.3f}; spectral largest drop in "
                  f"{spectral_largest}/5 seeds")
    for line in details:
        print("  " + line)
    assert mean_ok
    assert order_ok


# ---------------------------------------------------------------------- 7


def test_criterion_7_attribution_recovery():
    seeds = [1, 2, 3, 4, 5]
    jaccards, top4_hits = [], []
    rankings = {}
    for seed in seeds:
        fs = build_featureset(default_synth_spec(trials_per_class=15,
                                                 seed=seed))
        cfg = experiment(seed=seed, folds=5, epochs=15)
        mcfg = cfg.model_config(fs, seed=seed)
        params, _ = fit(fs.values, fs.labels, mcfg, cfg.optimizer, 15, seed)
        ranked = rank_channels(params, mcfg, fs.values, fs.labels)
        rankings[seed] = ranked.ranking
        top4 = set(ranked.ranking[:4])
        top3 = set(ranked.ranking[:3])
        top4_hits.append(len(top4 & PLANTED))
        jaccards.append(len(top3 & PLANTED) / len(top3 | PLANTED))
    hits_ok = all(h >= 2 for h in top4_hits)
    jac_ok = float(np.mean(jaccards)) >= 0.5

    # retraining comparison on one fixed seed's ranking
    fs = build_featureset(default_synth_spec(trials_per_class=15, seed=1))
    cfg = experiment(seed=1, folds=5, epochs=25)
    full_acc = train(cfg, fs).mean_accuracy
    reduced_values = select_channels(fs.values, rankings[1], 4)
    reduced_fs = FeatureSet(reduced_values, fs.labels, fs.metas, fs.bands,
                            [fs.channels[i] for i in rankings[1][:4]])
    reduced_acc = train(cfg, reduced_fs).mean_accuracy
    drop = full_acc - reduced_acc
    drop_ok = drop <= 0.05

    ok = hits_ok and jac_ok and drop_ok
    report(7, ok, f"top4 planted hits {top4_hits}, mean Jaccard "
                  f"{np.mean(jaccards):.2f} (>=0.5), retrain drop "
                  f"{drop * 100:+.1f} points (<=5)")
    assert hits_ok, f"top-4 hits {top4_hits}"
    assert jac_ok, f"mean jaccard {np.mean(jaccards)}"
    assert drop_ok, f"accuracy drop {drop}"


# ---------------------------------------------------------------------- 8


def test_criterion_8_parameter_accounting():
    seed_cfg = ModelConfig(channels=62, bands=5, frames=6, classes=3)
    n62, f62 = count_params_flops(seed_cfg)
    enumerated = sum(v.size for v in init_params(seed_cfg).values())
    exact_ok = n62 == enumerated

    paper_params = 300_000
    factor = max(n62 / paper_params, paper_params / n62)
    factor_ok = factor < 3.0

    small_cfg = ModelConfig(channels=8, bands=5, frames=6, classes=3)
    n8, f8 = count_params_flops(small_cfg)
    shrink_ok = n8 < n62 and f8 < f62

    ok = exact_ok and factor_ok and shrink_ok
    report(8, ok, f"62ch: {n62} params ({n62 / 1e6:.3f}M, factor "
                  f"{factor:.2f} of 0.30M, mlp_ratio="
                  f"{seed_cfg.mlp_ratio}), {f62 / 1e9:.4f}G flops; "
                  f"8ch: {n8} params, {f8 / 1e9:.4f}G flops")
    assert exact_ok
    assert factor_ok, f"{n62} vs paper 0.30M: factor {factor:.2f}"
    assert shrink_ok
