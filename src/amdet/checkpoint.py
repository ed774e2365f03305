"""Model weight checkpoints: a manifest + payload pair like EEGR and FEAT.

A checkpoint named `fold0.amdw` is the files `fold0.amdw.json` and
`fold0.amdw.f32`, written and read only by `data._write_pair` and
`data._read_pair`. The manifest is {version, config, params: [[name, shape],
...], extra?}, with params sorted by name; the payload is every parameter's
f32le values concatenated in that order. Weights are stored as 32-bit floats,
the dtype the model computes in, so a reloaded model computes the logits of
the saved one bit for bit, and save -> load -> save reproduces both files
byte for byte.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .data import _read_pair, _write_pair
from .errors import DataError
from .model import ModelConfig, init_params


def _index(params: dict[str, np.ndarray]) -> list[list]:
    """[[name, shape], ...] sorted by name: the manifest's params list."""
    return [[name, list(np.shape(params[name]))] for name in sorted(params)]


def save_checkpoint(path: str | Path, params: dict[str, np.ndarray],
                    config: ModelConfig, extra: dict | None = None) -> None:
    index = _index(params)
    manifest = {"config": config.to_dict(), "params": index}
    if extra:
        manifest["extra"] = extra
    _write_pair(path, manifest, np.concatenate(
        [np.ravel(params[name]) for name, _ in index]))


def load_checkpoint(path: str | Path
                    ) -> tuple[dict[str, np.ndarray], ModelConfig, dict]:
    """Returns (params as float32 arrays, exactly as stored, config, extra
    manifest fields).

    The params list must name exactly the parameters, with the shapes, that
    `init_params(config)` makes, the payload must hold exactly their values,
    and extra (if present) must be an object. A config without "ablate" is a
    full model.
    """
    manifest, payload = _read_pair(path, "checkpoint", params=list)
    config = ModelConfig.from_dict(manifest.get("config"))
    extra = manifest.get("extra", {})
    if not isinstance(extra, dict):
        raise DataError(f"{path}: checkpoint extra {extra!r} is not an object")
    index = _index(init_params(config))
    # compared by repr, not ==: 2.0 == 2 and True == 1, but a shape holds ints
    mismatch = next(((got, want) for got, want in zip_longest(
        manifest["params"], index) if repr(got) != repr(want)), None)
    if mismatch:
        raise DataError(f"{path}: checkpoint parameter {mismatch[0]!r} where "
                        f"the config needs {mismatch[1]!r}")
    sizes = [math.prod(shape) for _, shape in index]
    if payload.size != sum(sizes):
        raise DataError(f"{path}: payload holds {payload.size} values, the "
                        f"config needs {sum(sizes)}")
    chunks = np.split(payload.astype(np.float32), np.cumsum(sizes)[:-1])
    return ({name: chunk.reshape(shape)
             for (name, shape), chunk in zip(index, chunks)}, config, extra)
