"""Analytic gradients of the full model loss vs central finite differences."""

import numpy as np

from conftest import params64
from amdet.engine import Tape
from amdet.model import ModelConfig, forward, init_params, wrap_params

TOY = ModelConfig(channels=4, bands=2, frames=6, classes=2, seed=42,
                  spectral_layers=1, spatial_layers=1,
                  spectral_heads=2, spatial_heads=2, mlp_ratio=4)


def model_loss(params, cfg, x, y) -> float:
    tape = Tape()
    logits, _ = forward(tape, wrap_params(params), cfg, x)
    return float(tape.cross_entropy(logits, y).data)


def analytic_grads(params, cfg, x, y):
    tape = Tape()
    tensors = wrap_params(params)
    logits, _ = forward(tape, tensors, cfg, x)
    tape.backward(tape.cross_entropy(logits, y))
    return {k: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for k, t in tensors.items()}


def _coord_error(params, cfg, x, y, flat, idx, analytic, h):
    orig = flat[idx]
    flat[idx] = orig + h
    up = model_loss(params, cfg, x, y)
    flat[idx] = orig - h
    down = model_loss(params, cfg, x, y)
    flat[idx] = orig
    numeric = (up - down) / (2 * h)
    return abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6)


def max_rel_error_per_tensor(cfg, n_coords=20, h=1e-4, seed=0):
    """For every parameter tensor: worst relative error over sampled coords.

    A +-h probe can straddle a ReLU kink, where the central difference
    averages two one-sided slopes and disagrees with any subgradient. Such
    coordinates are re-verified at h/10 and h/100: a shrinking step pulls the
    probe off the kink, so the error vanishes for a correct gradient but not
    for a wrong one. The smallest observed error per coordinate is kept.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, cfg.frames, cfg.feature_dim, cfg.channels))
    y = rng.integers(0, cfg.classes, size=3)
    params = params64(cfg)       # finite differences need float64
    grads = analytic_grads(params, cfg, x, y)
    worst: dict[str, float] = {}
    for name, arr in params.items():
        flat = arr.reshape(-1)
        count = min(n_coords, flat.size)
        coords = rng.choice(flat.size, size=count, replace=False)
        err = 0.0
        for idx in coords:
            analytic = grads[name].reshape(-1)[idx]
            this = _coord_error(params, cfg, x, y, flat, idx, analytic, h)
            for refined_h in (h / 10, h / 100):
                if this < 1e-4:
                    break
                this = min(this, _coord_error(params, cfg, x, y, flat, idx,
                                              analytic, refined_h))
            err = max(err, this)
        worst[name] = err
    return worst


def test_full_model_gradients_match_finite_differences():
    worst = max_rel_error_per_tensor(TOY)
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    assert not bad, f"gradient mismatches: {bad}"


def test_gradcheck_covers_every_parameter_tensor():
    params = init_params(TOY)
    worst = max_rel_error_per_tensor(TOY, n_coords=1)
    assert set(worst) == set(params)


def test_one_small_step_never_increases_loss():
    # descent sanity at lr = 1e-5 across ten random model/data seeds
    from amdet.engine import AdamW, OptimizerConfig

    for seed in range(10):
        rng = np.random.default_rng(seed)
        cfg = ModelConfig(channels=4, bands=2, frames=6, classes=2,
                          seed=seed, mlp_ratio=4)
        x = rng.normal(size=(8, 6, 4, 4))
        y = rng.integers(0, 2, size=8)
        params = init_params(cfg)
        before = model_loss(params, cfg, x, y)
        grads = analytic_grads(params, cfg, x, y)
        opt = AdamW(params, OptimizerConfig(lr=1e-5, weight_decay=1e-6))
        opt.step(params, grads)
        after = model_loss(params, cfg, x, y)
        assert after <= before, f"seed {seed}: {before} -> {after}"


def test_training_is_bitwise_deterministic():
    from amdet.data import FeatureSet, default_synth_spec, synth_generate
    from amdet.engine import OptimizerConfig
    from amdet.features import DEAP_BANDS, extract_features
    from amdet.harness import fit

    spec = default_synth_spec(channels=8, trials_per_class=3,
                              trial_seconds=3.0, seed=2, planted=())
    rec = synth_generate(spec)
    samples = extract_features(rec, DEAP_BANDS)
    x = np.stack([s.values for s in samples])
    y = np.array([s.label for s in samples])
    cfg = ModelConfig(channels=8, bands=4, frames=6, classes=3, seed=0)
    opt = OptimizerConfig(batch_size=4)
    a, _ = fit(x, y, cfg, opt, epochs=3, shuffle_seed=1)
    b, _ = fit(x, y, cfg, opt, epochs=3, shuffle_seed=1)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])
