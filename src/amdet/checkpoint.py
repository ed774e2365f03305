"""Model weight checkpoints: a manifest + payload pair like EEGR and FEAT.

A checkpoint named `fold0.amdw` is the files `fold0.amdw.json` and
`fold0.amdw.f32`, written and read only by `data._write_pair` and
`data._read_pair`. The manifest is {version, config, params: [[name, shape],
...], extra?}, with params exactly `model.param_shapes(config)`, in its
sorted-name order; the payload is every parameter's f32le values
concatenated in that order, the layout of `AdamW.theta`. Save refuses every
params dict that load would refuse, and neither draws random numbers.
Weights are stored as 32-bit floats, the dtype the model computes in, so a
reloaded model computes the logits of the saved one bit for bit, and save ->
load -> save reproduces both files byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .data import _read_pair, _write_pair
from .errors import DataError
from .model import ModelConfig, param_shapes


def _check_layout(path, index: list, config: ModelConfig) -> list[list]:
    """param_shapes(config) as [[name, shape], ...], once index equals it."""
    want = [[name, list(shape)]
            for name, shape in param_shapes(config).items()]
    # compared by repr, not ==: 2.0 == 2 and True == 1, but a shape holds ints
    mismatch = next(((got, need) for got, need in zip_longest(index, want)
                     if repr(got) != repr(need)), None)
    if mismatch:
        raise DataError(f"{path}: checkpoint parameter {mismatch[0]!r} where "
                        f"the config needs {mismatch[1]!r}")
    return want


def save_checkpoint(path: str | Path, params: dict[str, np.ndarray],
                    config: ModelConfig, extra: dict | None = None) -> None:
    layout = _check_layout(path, sorted(
        [name, list(np.shape(v))] for name, v in params.items()), config)
    manifest = {"config": asdict(config), "params": layout}
    if extra:
        manifest["extra"] = extra
    _write_pair(path, manifest, np.concatenate(
        [np.ravel(params[name]) for name, _ in layout]))


def load_checkpoint(path: str | Path
                    ) -> tuple[dict[str, np.ndarray], ModelConfig, dict]:
    """Returns (params as float32 views of one array, exactly as stored,
    config, extra manifest fields).

    The config must pass ModelConfig's caps, the layer cap before any layer
    is listed; then the params list must be `param_shapes(config)`, the
    payload must hold exactly their values, and extra (if present) must be
    an object. A config without "ablate" is a full model. Every DataError
    names path.
    """
    manifest, payload = _read_pair(path, "checkpoint", params=list)
    try:
        config = ModelConfig.from_dict(manifest.get("config"))
    except DataError as e:          # a field's type or value, or a size cap
        raise DataError(f"{path}: {e}") from e
    extra = manifest.get("extra", {})
    if not isinstance(extra, dict):
        raise DataError(f"{path}: checkpoint extra {extra!r} is not an object")
    layout = _check_layout(path, manifest["params"], config)
    sizes = [math.prod(shape) for _, shape in layout]
    if payload.size != sum(sizes):
        raise DataError(f"{path}: payload holds {payload.size} values, the "
                        f"config needs {sum(sizes)}")
    chunks = np.split(payload.astype(np.float32), np.cumsum(sizes)[:-1])
    return ({name: chunk.reshape(shape)
             for (name, shape), chunk in zip(layout, chunks)}, config, extra)
