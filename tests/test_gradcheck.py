"""Analytic gradients of the full model loss vs central finite differences."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import params64
from amdet.engine import Tape, Tensor
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


def test_only_leaves_that_need_gradients_keep_them():
    """After backward no produced tensor holds a gradient. Marking half the
    parameters needs_grad=False gives them None and leaves every other
    parameter's float32 gradient bit for bit as when all need one."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, TOY.frames, TOY.feature_dim, TOY.channels))
    y = rng.integers(0, TOY.classes, size=3)
    params = init_params(TOY)

    def grads(frozen):
        tape = Tape()
        tensors = {k: Tensor(v, name=k, needs_grad=k not in frozen)
                   for k, v in params.items()}
        logits, _ = forward(tape, tensors, TOY, x)
        tape.backward(tape.cross_entropy(logits, y))
        assert all(node.out.grad is None for node in tape.nodes)
        return {k: t.grad for k, t in tensors.items()}

    full = grads(frozen=set())
    frozen = set(list(params)[::2])
    part = grads(frozen)
    for k in params:
        if k in frozen:
            assert part[k] is None, k
        else:
            np.testing.assert_array_equal(part[k], full[k], err_msg=k)


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
        opt.step(grads)
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


# a C=62 fit of 25 samples at batch 16: the second batch holds 9 samples, so
# the shared-weight products sum over 9*6*62 = 3348 or 9*6*10 = 540 rows,
# neither a multiple of 32; prints each parameter's bytes as hex
FIT_C62 = """
import json
import numpy as np
from amdet.engine import OptimizerConfig
from amdet.harness import fit
from amdet.model import ModelConfig
rng = np.random.default_rng(0)
x = rng.normal(size=(25, 6, 10, 62))
params, _ = fit(x, np.arange(25) % 3, ModelConfig(62, 5, 6, 3, seed=0),
                OptimizerConfig(), epochs=1, shuffle_seed=0)
print(json.dumps({k: v.tobytes().hex() for k, v in params.items()}))
"""


def test_training_is_bitwise_identical_at_one_and_two_blas_threads():
    """Every weight and bias, partial batch included, has the same bytes
    whether the BLAS runs one thread or two."""
    import amdet

    src = str(Path(amdet.__file__).resolve().parents[1])
    weights = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", FIT_C62], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        weights.append(json.loads(run.stdout))
    differ = [k for k in weights[0] if weights[0][k] != weights[1][k]]
    assert not differ, f"differ between 1 and 2 BLAS threads: {differ}"
