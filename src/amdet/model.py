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
from .errors import (DataError, NumericalError, build, check_cap,
                     check_numbers)

ABLATABLE_BLOCKS = ("spectral", "spatial", "temporal")
# samples per forward when not training (predict, Grad-CAM): the default
# training batch, so inference needs no more memory than a training step
INFERENCE_BATCH = 16
# size caps, checked on the config before any array exists; the SEED-shaped
# model (C=62, 6 frames) has one layer per block, 274,868 parameters, and
# 2 x 119,040 encoder activations per sample (two layers x an MLP hidden layer)
MAX_LAYERS = 64                 # encoder layers per block
MAX_PARAMETERS = 10 ** 7
MAX_ACTIVATION = 10 ** 7        # values per sample: 40 MB in float32


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
        del sizes["ablate"], sizes["classes"], sizes["seed"]
        check_numbers("model config", numbers.Integral, seed=self.seed)
        check_numbers("model config", numbers.Integral, ">= 2",
                      classes=self.classes)
        check_numbers("model config", numbers.Integral, ">= 1", **sizes)
        if self.ablate not in (None, *ABLATABLE_BLOCKS):
            raise DataError(f"model config: ablate must be one of "
                            f"{ABLATABLE_BLOCKS} or null, got {self.ablate!r}")
        if self.channels % self.spectral_heads != 0:
            raise DataError(
                f"model config: channels={self.channels} not divisible by "
                f"spectral_heads={self.spectral_heads}")
        if self.feature_dim % self.spatial_heads != 0:
            raise DataError(
                f"model config: 2 x bands={self.feature_dim} not divisible "
                f"by spatial_heads={self.spatial_heads}")
        # the layer cap comes first: param_count lists every layer
        check_cap("model config", self, max(self.spectral_layers,
                                            self.spatial_layers),
                  MAX_LAYERS, "layer count", "spectral_layers",
                  "spatial_layers")
        check_cap("model config", self, param_count(self), MAX_PARAMETERS,
                  "parameter count", "channels", "bands", "classes",
                  "mlp_ratio", "spectral_layers", "spatial_layers")
        check_cap("model config", self, encoder_activations(self),
                  MAX_ACTIVATION, "encoder activations per sample", "frames",
                  "channels", "bands", "mlp_ratio", "spectral_heads",
                  "spatial_heads", "spectral_layers", "spatial_layers")

    @property
    def feature_dim(self) -> int:
        return 2 * self.bands

    @property
    def flat_dim(self) -> int:
        return self.feature_dim * self.channels

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
    param_count, init_params, AdamW's flat buffer and checkpoints share. It
    loops over every encoder layer; ModelConfig caps their count first."""
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


def param_count(cfg: ModelConfig) -> int:
    """sum(prod(shape)) over param_shapes(cfg), in Python ints so that
    numpy-integer fields cannot wrap the count under its cap."""
    return sum(math.prod(map(int, shape))
               for shape in param_shapes(cfg).values())


def encoder_activations(cfg: ModelConfig) -> int:
    """A bound on the values per sample that a forward's encoder layers keep
    on its tape: the layer count times the largest tensor one layer makes,
    its MLP hidden layer (frames x 2f x C x mlp_ratio in both blocks) or its
    attention scores over all heads (frames x heads x tokens^2). The logits
    are never larger: the classifier's weight, which the parameter cap
    bounds, holds flat_dim values per class."""
    f, d2f, c = (int(n) for n in (cfg.frames, cfg.feature_dim, cfg.channels))
    layers = int(cfg.spectral_layers) + int(cfg.spatial_layers)
    return layers * max(f * d2f * c * int(cfg.mlp_ratio),
                        f * int(cfg.spectral_heads) * d2f * d2f,
                        f * int(cfg.spatial_heads) * c * c)


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


def _shared_linear(tape: Tape, p: dict[str, Tensor], name: str,
                   x: Tensor) -> Tensor:
    """x @ w + b for the shared weight ``name``; the bias is added in place
    over the product, which nothing else reads."""
    return tape.add(tape.matmul(x, p[f"{name}.w"]), p[f"{name}.b"],
                    inplace=True)


def mha(tape: Tape, p: dict[str, Tensor], prefix: str, x: Tensor,
        heads: int) -> tuple[Tensor, list[Tensor]]:
    """Multi-head scaled dot-product self-attention over the token axis.

    x is (..., n_tokens, d); ModelConfig makes d divisible by heads. Returns
    the projected output and the per-head attention matrices.
    """
    d = x.data.shape[-1]
    q, k, v = (_shared_linear(tape, p, f"{prefix}.attn.{proj}", x)
               for proj in ("wq", "wk", "wv"))
    dk = d // heads
    head_outs, attns = [], []
    for h in range(heads):
        lo, hi = h * dk, (h + 1) * dk
        qh = tape.slice_last(q, lo, hi)
        kh = tape.slice_last(k, lo, hi)
        vh = tape.slice_last(v, lo, hi)
        scores = tape.scale(tape.matmul(qh, tape.transpose(kh)),
                            1.0 / math.sqrt(dk), inplace=True)
        attn = tape.softmax(scores, inplace=True)
        attns.append(attn)
        head_outs.append(tape.matmul(attn, vh))
    concat = head_outs[0] if heads == 1 else tape.concat_last(head_outs)
    return _shared_linear(tape, p, f"{prefix}.attn.wo", concat), attns


def encoder_layer(tape: Tape, p: dict[str, Tensor], prefix: str, x: Tensor,
                  heads: int) -> tuple[Tensor, list[Tensor]]:
    """Post-norm transformer encoder layer: LN(MHA(x)+x), then LN(MLP(h)+h)."""
    attended, attns = mha(tape, p, prefix, x, heads)
    h = tape.layer_norm(tape.add(attended, x),
                        p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
    hidden = tape.relu(_shared_linear(tape, p, f"{prefix}.mlp.w1", h),
                       inplace=True)
    mlp_out = _shared_linear(tape, p, f"{prefix}.mlp.w2", hidden)
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
    The input is cast to that dtype. Finite values go in and finite logits
    come out: a non-finite input or logit is a NumericalError.

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
    if not np.all(np.isfinite(logits.data)):
        raise NumericalError("non-finite logits")
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
    """2 x multiply-adds of every matmul one single-sample forward runs; the
    count reads only shapes, so it runs on float32 zeros."""
    tape = Tape()
    x = np.zeros((1, cfg.frames, cfg.feature_dim, cfg.channels), np.float32)
    zeros = {name: np.zeros(shape, np.float32)
             for name, shape in param_shapes(cfg).items()}
    forward(tape, wrap_params(zeros), cfg, x)
    return tape.matmul_flops()
