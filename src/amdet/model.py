"""The three-block attention classifier.

Per sample, features (F, 2f, C) flow through:

1. spectral block: each frame is a 2f-token sequence with C-dim tokens,
   run through shared transformer encoder layers (post-norm residuals),
2. spatial block: per-frame transpose to C tokens of dim 2f, then shared
   encoder layers again,
3. temporal block: frames are flattened and soft-attention pooled into a
   single vector using one learned score per frame,
4. a single fully connected classification layer.

All functions operate on a batch laid out (B, F, 2f, C) and record onto an
engine Tape so gradients are available. Parameters live in a flat name ->
array dict whose names, shapes and order `param_shapes` alone defines;
encoder weights are shared across frames by construction (the frame axis is
just a batch axis).
"""

from __future__ import annotations

import math
import numbers
import zlib
from dataclasses import dataclass, asdict

import numpy as np

from .engine import Tape, Tensor
from .errors import DataError, NumericalError, build, check_numbers

ABLATABLE_BLOCKS = ("spectral", "spatial", "temporal")
# samples per forward when not training (predict, Grad-CAM): the default
# training batch, so inference needs no more memory than a training step
INFERENCE_BATCH = 16


@dataclass(frozen=True)
class ModelConfig:
    channels: int                 # C
    bands: int                    # f  (feature axis is 2f: DE + PSD rows)
    frames: int                   # frames per sample
    classes: int
    spectral_layers: int = 1
    spatial_layers: int = 1
    spectral_heads: int = 2
    spatial_heads: int = 2
    mlp_ratio: int = 32
    seed: int = 0
    ablate: str | None = None     # block of ABLATABLE_BLOCKS to drop, or None

    def __post_init__(self):
        sizes = asdict(self)
        del sizes["ablate"]
        check_numbers("model config", numbers.Integral, **sizes)
        if self.ablate not in (None, *ABLATABLE_BLOCKS):
            raise DataError(f"model config: ablate must be one of "
                            f"{ABLATABLE_BLOCKS} or null, got {self.ablate!r}")
        if min(self.channels, self.bands, self.frames) < 1 or self.classes < 2:
            raise DataError("model dimensions must be positive (classes >= 2)")
        if self.spectral_layers < 1 or self.spatial_layers < 1:
            raise DataError("encoder layer counts must be >= 1")
        if self.spectral_heads < 1 or self.spatial_heads < 1:
            raise DataError(f"model config: spectral_heads and spatial_heads "
                            f"must be >= 1, got {self.spectral_heads} and "
                            f"{self.spatial_heads}")
        if self.channels % self.spectral_heads != 0:
            raise DataError(
                f"channels={self.channels} not divisible by "
                f"spectral_heads={self.spectral_heads}")
        if self.feature_dim % self.spatial_heads != 0:
            raise DataError(
                f"feature dim {self.feature_dim} not divisible by "
                f"spatial_heads={self.spatial_heads}")
        if self.mlp_ratio < 1:
            raise DataError("mlp_ratio must be >= 1")

    @property
    def feature_dim(self) -> int:
        return 2 * self.bands

    @property
    def flat_dim(self) -> int:
        return self.feature_dim * self.channels

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return build("model config", cls, d)


def _rng_for(seed: int, name: str) -> np.random.Generator:
    # independent, name-keyed stream so adding a parameter never shifts others
    return np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF,
                                zlib.crc32(name.encode())]))


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, sorted by name: the one layout that
    init_params, AdamW's flat buffer and checkpoints share."""
    d2f, c = cfg.feature_dim, cfg.channels
    shapes = {"spectral.pos": (d2f, c), "spatial.pos": (c, d2f)}
    linears = [("temporal.score", cfg.flat_dim, 1),
               ("classifier", cfg.flat_dim, cfg.classes)]
    for block, layers, d in (("spectral", cfg.spectral_layers, c),
                             ("spatial", cfg.spatial_layers, d2f)):
        for prefix in (f"{block}.l{layer}" for layer in range(layers)):
            linears += [(f"{prefix}.attn.{proj}", d, d)
                        for proj in ("wq", "wk", "wv", "wo")]
            linears += [(f"{prefix}.mlp.w1", d, d * cfg.mlp_ratio),
                        (f"{prefix}.mlp.w2", d * cfg.mlp_ratio, d)]
            for ln in ("ln1", "ln2"):
                shapes[f"{prefix}.{ln}.g"] = shapes[f"{prefix}.{ln}.b"] = (d,)
    for name, fan_in, fan_out in linears:
        shapes[f"{name}.w"], shapes[f"{name}.b"] = (fan_in, fan_out), (fan_out,)
    return dict(sorted(shapes.items()))


def init_params(cfg: ModelConfig) -> dict[str, np.ndarray]:
    """Seeded float32 arrays in param_shapes order, each drawn in float64
    from its own name-keyed stream: positional maps N(0, 0.02), linear
    weights and biases U(+-1/sqrt(fan_in)), layer-norm gains 1, layer-norm
    biases and the classifier bias 0."""
    shapes = param_shapes(cfg)
    params = {}
    for name, shape in shapes.items():
        if name.endswith(".pos"):
            value = _rng_for(cfg.seed, name).normal(0.0, 0.02, shape)
        elif ".ln" in name or name == "classifier.b":
            value = np.full(shape, float(name.endswith(".g")))
        else:                               # fan_in is the weight's rows
            bound = math.sqrt(1.0 / shapes[name[:-1] + "w"][0])
            value = _rng_for(cfg.seed, name).uniform(-bound, bound, shape)
        params[name] = value.astype(np.float32)
    return params


def wrap_params(params: dict[str, np.ndarray], needs_grad: bool = True
                ) -> dict[str, Tensor]:
    """Fresh Tensor views over the live parameter arrays for one tape;
    training needs their gradients, attribution does not."""
    return {k: Tensor(v, name=k, needs_grad=needs_grad)
            for k, v in params.items()}


# ----------------------------------------------------------------- forward


def mha(tape: Tape, p: dict[str, Tensor], prefix: str, x: Tensor,
        heads: int) -> tuple[Tensor, list[Tensor]]:
    """Multi-head scaled dot-product self-attention over the token axis.

    x is (..., n_tokens, d) with d divisible by heads. Returns the projected
    output and the per-head attention matrices.
    """
    d = x.data.shape[-1]
    if d % heads != 0:
        raise DataError(f"token dim {d} not divisible by {heads} heads")
    if not np.all(np.isfinite(x.data)):
        raise NumericalError("non-finite attention input")
    q = tape.add(tape.matmul(x, p[f"{prefix}.attn.wq.w"]), p[f"{prefix}.attn.wq.b"])
    k = tape.add(tape.matmul(x, p[f"{prefix}.attn.wk.w"]), p[f"{prefix}.attn.wk.b"])
    v = tape.add(tape.matmul(x, p[f"{prefix}.attn.wv.w"]), p[f"{prefix}.attn.wv.b"])
    dk = d // heads
    head_outs, attns = [], []
    for h in range(heads):
        lo, hi = h * dk, (h + 1) * dk
        qh = tape.slice_last(q, lo, hi)
        kh = tape.slice_last(k, lo, hi)
        vh = tape.slice_last(v, lo, hi)
        scores = tape.scale(tape.matmul(qh, tape.transpose(kh)),
                            1.0 / math.sqrt(dk))
        attn = tape.softmax(scores)
        attns.append(attn)
        head_outs.append(tape.matmul(attn, vh))
    concat = head_outs[0] if heads == 1 else tape.concat_last(head_outs)
    out = tape.add(tape.matmul(concat, p[f"{prefix}.attn.wo.w"]),
                   p[f"{prefix}.attn.wo.b"])
    return out, attns


def encoder_layer(tape: Tape, p: dict[str, Tensor], prefix: str, x: Tensor,
                  heads: int) -> tuple[Tensor, list[Tensor]]:
    """Post-norm transformer encoder layer: LN(MHA(x)+x), then LN(MLP(h)+h)."""
    attended, attns = mha(tape, p, prefix, x, heads)
    h = tape.layer_norm(tape.add(attended, x),
                        p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
    hidden = tape.relu(tape.add(tape.matmul(h, p[f"{prefix}.mlp.w1.w"]),
                                p[f"{prefix}.mlp.w1.b"]))
    mlp_out = tape.add(tape.matmul(hidden, p[f"{prefix}.mlp.w2.w"]),
                       p[f"{prefix}.mlp.w2.b"])
    out = tape.layer_norm(tape.add(mlp_out, h),
                          p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"])
    return out, attns


def _check_input(cfg: ModelConfig, x: np.ndarray, weights) -> np.ndarray:
    x = np.asarray(x, dtype=np.result_type(*{w.dtype for w in weights}))
    if x.ndim == 3:
        x = x[None]
    if x.ndim != 4 or x.shape[1:] != (cfg.frames, cfg.feature_dim, cfg.channels):
        raise DataError(
            f"expected samples shaped ({cfg.frames}, {cfg.feature_dim}, "
            f"{cfg.channels}), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NumericalError("non-finite model input")
    return x


def spectral_block(tape: Tape, p: dict[str, Tensor], cfg: ModelConfig,
                   x: Tensor) -> tuple[Tensor, list[Tensor]]:
    """Shared encoder over each frame's 2f band-feature tokens (dim C)."""
    if cfg.ablate == "spectral":
        return x, []
    z = tape.add(x, p["spectral.pos"])
    attns: list[Tensor] = []
    for layer in range(cfg.spectral_layers):
        z, a = encoder_layer(tape, p, f"spectral.l{layer}", z,
                             cfg.spectral_heads)
        attns.extend(a)
    return z, attns


def spatial_block(tape: Tape, p: dict[str, Tensor], cfg: ModelConfig,
                  x: Tensor) -> tuple[Tensor, list[Tensor]]:
    """Per-frame transpose to channel tokens (dim 2f), then shared encoder."""
    z = tape.transpose(x)
    if cfg.ablate == "spatial":
        return z, []
    z = tape.add(z, p["spatial.pos"])
    attns: list[Tensor] = []
    for layer in range(cfg.spatial_layers):
        z, a = encoder_layer(tape, p, f"spatial.l{layer}", z,
                             cfg.spatial_heads)
        attns.extend(a)
    return z, attns


def temporal_block(tape: Tape, p: dict[str, Tensor], cfg: ModelConfig,
                   x: Tensor) -> tuple[Tensor, Tensor]:
    """Soft-attention pooling over frames.

    Flattens each frame, scores it with a single learned linear map, and
    returns the attention-weighted frame sum plus the weights. Ablated (or
    with a zero score map) this is exactly mean pooling.
    """
    b, f = x.data.shape[0], cfg.frames
    flat = tape.reshape(x, (b, f, cfg.flat_dim))
    if cfg.ablate == "temporal":
        weights = Tensor(np.full((b, f), 1.0 / f, dtype=x.data.dtype),
                         name="uniform_weights", needs_grad=False)
    else:
        scores = tape.add(tape.matmul(flat, p["temporal.score.w"]),
                          p["temporal.score.b"])
        weights = tape.softmax(tape.reshape(scores, (b, f)))
    pooled = tape.matmul(tape.reshape(weights, (b, 1, f)), flat)
    return tape.reshape(pooled, (b, cfg.flat_dim)), weights


def classify(tape: Tape, p: dict[str, Tensor], x: Tensor) -> Tensor:
    return tape.add(tape.matmul(x, p["classifier.w"]), p["classifier.b"])


def forward(tape: Tape, p: dict[str, Tensor], cfg: ModelConfig,
            x: np.ndarray) -> tuple[Tensor, dict]:
    """Full forward pass on a (B, F, 2f, C) batch; returns (logits, aux).

    The pass computes in the parameters' dtype: float32 for `init_params`
    and loaded checkpoints, float64 when a check passes float64 parameters.
    The input is cast to that dtype.

    cfg.ablate drops one block for ablation runs, with the parameters kept:
    "spectral" bypasses the spectral encoder and its positional map,
    "spatial" keeps only the transpose, "temporal" pools frames uniformly.

    aux carries the input (attribution reads its gradient), the spatial-block
    output, the frame weights and every attention matrix for inspection.
    """
    data = _check_input(cfg, x, (t.data for t in p.values()))
    inp = Tensor(data, name="input")
    z, spec_attn = spectral_block(tape, p, cfg, inp)
    z, spat_attn = spatial_block(tape, p, cfg, z)
    spatial_out = z
    pooled, weights = temporal_block(tape, p, cfg, z)
    logits = classify(tape, p, pooled)
    aux = {
        "input": inp,
        "spatial_out": spatial_out,
        "temporal_weights": weights,
        "spectral_attention": spec_attn,
        "spatial_attention": spat_attn,
    }
    return logits, aux


def predict(params: dict[str, np.ndarray], cfg: ModelConfig,
            x: np.ndarray) -> np.ndarray:
    """Argmax class predictions for (N, F, 2f, C), INFERENCE_BATCH per forward."""
    x = _check_input(cfg, x, params.values())
    out = np.empty(x.shape[0], dtype=np.int64)
    for lo in range(0, x.shape[0], INFERENCE_BATCH):
        hi = lo + INFERENCE_BATCH
        logits, _ = forward(Tape(), wrap_params(params), cfg, x[lo:hi])
        out[lo:hi] = np.argmax(logits.data, axis=-1)
    return out


def forward_flops(cfg: ModelConfig) -> int:
    """2 x multiply-adds of every matmul one single-sample forward runs."""
    tape = Tape()
    x = np.zeros((1, cfg.frames, cfg.feature_dim, cfg.channels))
    zeros = {name: np.zeros(shape) for name, shape in param_shapes(cfg).items()}
    forward(tape, wrap_params(zeros), cfg, x)
    return tape.matmul_flops()
