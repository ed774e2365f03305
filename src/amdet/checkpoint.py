"""Model weight checkpoints: a JSON header followed by a flat f32le payload.

Layout: 4-byte magic "AMDW", uint32 little-endian header length, the UTF-8
JSON header {version, config, param_index:[{name, shape, offset}]}, then the
payload. Offsets are byte positions within the payload. Weights are stored as
32-bit floats, the dtype the model computes in, so a reloaded model computes
the logits of the saved one bit for bit, and save -> load -> save reproduces
the file byte for byte.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .data import read_json_object
from .errors import DataError
from .model import ModelConfig, init_params

MAGIC = b"AMDW"
VERSION = 1


def save_checkpoint(path: str | Path, params: dict[str, np.ndarray],
                    config: ModelConfig, extra: dict | None = None) -> None:
    index = []
    offset = 0
    blobs = []
    for name, value in params.items():
        blob = np.ascontiguousarray(value, dtype="<f4").tobytes()
        index.append({"name": name, "shape": list(value.shape),
                      "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    header = {"version": VERSION, "config": config.to_dict(),
              "param_index": index}
    if extra:
        header["extra"] = extra
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path: str | Path
                    ) -> tuple[dict[str, np.ndarray], ModelConfig, dict]:
    """Returns (params as float32 arrays, exactly as stored, config, extra
    header fields).

    The parameter index must name exactly the parameters, with the shapes,
    that `init_params(config)` makes, at non-negative integer offsets inside
    the payload, every weight must be finite, and extra (if present) must be
    an object. A config without "ablate" is a full model.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise DataError(f"{path}: bad magic, not a checkpoint file")
    if len(raw) < 8:
        raise DataError(f"{path}: {len(raw)} bytes, too short for a header")
    (header_len,) = struct.unpack("<I", raw[4:8])
    if 8 + header_len > len(raw):
        raise DataError(f"{path}: header length {header_len} exceeds the "
                        f"{len(raw)}-byte file")
    header = read_json_object(path, "checkpoint header",
                              raw[8:8 + header_len])
    if header.get("version") != VERSION:
        raise DataError(
            f"{path}: unsupported checkpoint version {header.get('version')!r}")
    config = ModelConfig.from_dict(header.get("config"))
    extra = header.get("extra", {})
    if not isinstance(extra, dict):
        raise DataError(f"{path}: checkpoint extra {extra!r} is not an object")
    index = header.get("param_index")
    if not isinstance(index, list):
        raise DataError(f"{path}: checkpoint header has no param_index list")
    expected = {k: v.shape for k, v in init_params(config).items()}
    payload = raw[8 + header_len:]
    params: dict[str, np.ndarray] = {}
    for entry in index:
        if not isinstance(entry, dict):
            raise DataError(f"{path}: param_index entry {entry!r} is not an "
                            "object")
        name, lo = entry.get("name"), entry.get("offset")
        if not isinstance(name, str) or name not in expected or name in params:
            raise DataError(f"{path}: unexpected or repeated parameter "
                            f"{name!r}")
        shape = expected[name]
        if entry.get("shape") != list(shape):
            raise DataError(f"{path}: parameter {name!r} has shape "
                            f"{entry.get('shape')!r}, the config needs "
                            f"{list(shape)}")
        if isinstance(lo, bool) or not isinstance(lo, int) or lo < 0:
            raise DataError(f"{path}: parameter {name!r} has offset {lo!r}, "
                            "not a non-negative integer")
        hi = lo + 4 * math.prod(shape)
        if hi > len(payload):
            raise DataError(
                f"{path}: payload length {len(payload)} bytes, parameter "
                f"{name!r} needs {hi}")
        arr = np.frombuffer(payload[lo:hi], dtype="<f4").reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise DataError(f"{path}: parameter {name!r} has non-finite "
                            "weights")
        params[name] = arr.astype(np.float32)
    missing = sorted(expected.keys() - params.keys())
    if missing:
        raise DataError(f"{path}: checkpoint lacks parameters {missing}")
    return params, config, extra
