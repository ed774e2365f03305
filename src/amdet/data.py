"""Synthetic recordings with planted class signatures, and file formats.

Every binary artifact is a pair: a JSON manifest `name.json` next to a flat
f32le payload `name.f32`, and a path to `name`, `name.json` or `name.f32`
names the pair. `_write_pair` is the one writer and `_read_pair` the one
reader; the reader checks the manifest's version and field types, that the
payload exists and holds whole, finite f32 values, before any data is used.
Each writer refuses what its reader refuses before writing anything. Every
output file, pairs and text artifacts alike, is written by `replace_files`
through a temporary name and renamed over the old one, never overwritten in
place. Recordings ("EEGR v1", channel-major) and feature files ("FEAT v1",
sample-major) are defined here, checkpoints in `checkpoint.py`. A recording
is float32 in memory as on disk, so neither its writer nor its reader copies
the samples; `write_features` stacks its samples once, straight into
float32. `read_recording` and `read_features` return read-only views of the
bytes read. Every input file is read by `read_bytes`, which makes any
OSError a DataError, and `read_json_object` parses every JSON object:
manifests and config files.

The generator plants class-conditional sinusoids on chosen channels inside
chosen frequency bands, on top of pink-noise background. The amplitude rides
a jittered train of raised-cosine bursts, so every few-second stretch of a
trial carries signal somewhere while many individual frames stay silent.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, build, check_labels, check_numbers
from .features import (BandSpec, RawRecording, SampleTensor, Trial,
                       all_finite, check_channel_names)


# ------------------------------------------------------------- synthesis


@dataclass(frozen=True)
class PlantedSignal:
    """A sinusoid planted for one class: where, which band, how strong."""

    class_index: int
    channels: tuple[int, ...]
    lo_hz: float
    hi_hz: float
    amplitude: float

    def __post_init__(self):
        if not isinstance(self.channels, (list, tuple)) or not self.channels:
            raise DataError(f"planted: channels must be a non-empty list, got "
                            f"{self.channels!r}")
        object.__setattr__(self, "channels", tuple(self.channels))
        check_numbers("planted", numbers.Integral, ">= 0",
                      class_index=self.class_index,
                      **{f"channels[{i}]": ch
                         for i, ch in enumerate(self.channels)})
        check_numbers("planted", numbers.Real, ">= 0", lo_hz=self.lo_hz,
                      hi_hz=self.hi_hz, amplitude=self.amplitude)
        if not self.lo_hz < self.hi_hz:
            raise DataError(f"planted: need lo_hz < hi_hz, got "
                            f"[{self.lo_hz}, {self.hi_hz})")


@dataclass(frozen=True)
class SynthSpec:
    n_classes: int = 3
    channels: int = 16
    sample_rate_hz: float = 128.0
    trial_seconds: float = 9.0
    trials_per_class: int = 30
    planted: tuple[PlantedSignal, ...] = ()     # or their fields as mappings
    noise_scale: float = 1.0
    baseline_seconds: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.planted, (list, tuple)):
            raise DataError(f"synth: planted must be a list, got "
                            f"{self.planted!r}")
        object.__setattr__(self, "planted", tuple(
            sig if isinstance(sig, PlantedSignal)
            else build("planted", PlantedSignal, sig) for sig in self.planted))
        check_numbers("synth", numbers.Integral, ">= 2",
                      n_classes=self.n_classes)
        check_numbers("synth", numbers.Integral, ">= 1", channels=self.channels,
                      trials_per_class=self.trials_per_class)
        check_numbers("synth", numbers.Integral, ">= 0", seed=self.seed)
        check_numbers("synth", numbers.Real, "> 0",
                      sample_rate_hz=self.sample_rate_hz,
                      trial_seconds=self.trial_seconds,
                      noise_scale=self.noise_scale)
        check_numbers("synth", numbers.Real, ">= 0",
                      baseline_seconds=self.baseline_seconds)
        # round(x) >= 1 exactly when x > 0.5; an inf product is left to
        # synth_generate, which refuses a recording it cannot allocate
        if not self.trial_seconds * self.sample_rate_hz > 0.5:
            raise DataError(f"synth: trial_seconds={self.trial_seconds} "
                            f"holds no sample at {self.sample_rate_hz} Hz")
        nyquist = self.sample_rate_hz / 2
        for sig in self.planted:
            if sig.class_index >= self.n_classes:
                raise DataError(f"synth: planted class_index "
                                f"{sig.class_index} >= n_classes")
            if max(sig.channels) >= self.channels:
                raise DataError(f"synth: planted channels {sig.channels} "
                                f"out of range for {self.channels} channels")
            if sig.hi_hz > nyquist:
                raise DataError(
                    f"synth: planted hi_hz {sig.hi_hz} exceeds Nyquist "
                    f"{nyquist} Hz")

    @classmethod
    def from_dict(cls, d: dict) -> "SynthSpec":
        return build("synth spec", cls, d)


def default_synth_spec(**overrides) -> SynthSpec:
    """Three classes told apart by which band is active on channels 0-2;
    every other field keeps its SynthSpec default."""
    planted = (
        PlantedSignal(0, (0, 1, 2), 8.0, 14.0, 2.0),    # alpha
        PlantedSignal(1, (0, 1, 2), 14.0, 31.0, 2.0),   # beta
        PlantedSignal(2, (0, 1, 2), 4.0, 8.0, 2.0),     # theta
    )
    return SynthSpec(**{"planted": planted, **overrides})


def _pink_noise(rng: np.random.Generator, n_channels: int,
                n_samples: int, sample_rate_hz: float) -> np.ndarray:
    """1/f-amplitude-shaped noise, unit std per channel."""
    white = rng.standard_normal((n_channels, n_samples))
    spectrum = np.fft.rfft(white, axis=-1)
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / sample_rate_hz)
    shaping = np.zeros_like(freqs)
    shaping[1:] = 1.0 / np.sqrt(freqs[1:])
    x = np.fft.irfft(spectrum * shaping, n=n_samples, axis=-1)
    std = x.std(axis=-1, keepdims=True)
    std[std == 0] = 1.0
    return x / std


def _envelope(rng: np.random.Generator, n: int, fs: float) -> np.ndarray:
    """Jittered train of raised-cosine bursts over an n-point trial.

    Bursts repeat every ~1.5 s with random offsets and widths, so any
    few-second window overlaps signal somewhere, while plenty of individual
    half-second frames stay near-silent.
    """
    env = np.zeros(n)
    pitch = max(int(1.5 * fs), 8)
    start = int(rng.uniform(0.0, 0.6) * pitch)
    for center in range(start, n + pitch, pitch):
        center += int(rng.uniform(-0.2, 0.2) * pitch)
        width = max(int(rng.uniform(0.8, 1.4) * fs), 8)
        lo = max(center - width // 2, 0)
        hi = min(center + width // 2, n)
        if hi <= lo:
            continue
        t = np.arange(hi - lo)
        env[lo:hi] = np.maximum(
            env[lo:hi], 0.5 * (1.0 - np.cos(2.0 * np.pi * t / (hi - lo))))
    return env


def synth_generate(spec: SynthSpec) -> RawRecording:
    """Deterministic synthetic recording; one PRNG stream per trial. Each
    trial is drawn in float64 and rounded once into the float32 recording,
    so a value beyond the float32 range becomes inf and RawRecording refuses
    it."""
    fs = spec.sample_rate_hz
    n_trials = spec.n_classes * spec.trials_per_class
    try:    # finite durations times a finite rate can still be too many
        trial_len = int(round(spec.trial_seconds * fs))
        base_len = int(round(spec.baseline_seconds * fs))
        data = np.empty((spec.channels, n_trials * (base_len + trial_len)),
                        np.float32)
    except (OverflowError, ValueError, MemoryError):
        raise DataError(
            f"synth: sample_rate_hz={fs} gives a recording of {n_trials} "
            f"trials x {spec.baseline_seconds + spec.trial_seconds} s x "
            f"{spec.channels} channels that cannot be allocated") from None
    trials: list[Trial] = []
    cursor = 0
    for ti in range(n_trials):
        label = ti % spec.n_classes
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=spec.seed, spawn_key=(ti,)))
        span = base_len + trial_len
        noise = _pink_noise(rng, spec.channels, span, fs) * spec.noise_scale
        block = noise
        t = np.arange(trial_len) / fs
        for sig in spec.planted:
            if sig.class_index != label or sig.amplitude == 0:
                continue
            width = sig.hi_hz - sig.lo_hz
            freq = rng.uniform(sig.lo_hz + 0.1 * width, sig.hi_hz - 0.1 * width)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            env = _envelope(rng, trial_len, fs)
            wave = sig.amplitude * env * np.sin(2.0 * np.pi * freq * t + phase)
            for ch in sig.channels:
                block[ch, base_len:] += wave
        with np.errstate(over="ignore"):
            data[:, cursor:cursor + span] = block
        if base_len > 0:
            trials.append(Trial(start=cursor + base_len, end=cursor + span,
                                label=label, baseline_start=cursor,
                                baseline_end=cursor + base_len))
        else:
            trials.append(Trial(start=cursor, end=cursor + span, label=label))
        cursor += span
    channels = [f"ch{i:02d}" for i in range(spec.channels)]
    return RawRecording(fs, channels, data, trials)


# ---------------------------------------------------- manifest + payload


def read_bytes(path: str | Path, what: str) -> bytes:
    """The file's bytes; any OSError becomes a DataError naming path, what."""
    try:
        return Path(path).read_bytes()
    except OSError as e:            # missing, a directory, no permission
        why = "not found" if isinstance(e, FileNotFoundError) else "unreadable"
        raise DataError(f"{what} {why}: {path} ({e.strerror})") from e


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in the file at path; an unreadable file, bytes that are
    not JSON or a value that is not an object raise DataError naming path
    and what."""
    raw = read_bytes(path, what)
    try:
        value = json.loads(raw)
    except ValueError as e:         # JSONDecodeError or UnicodeDecodeError
        raise DataError(f"{path}: {what} is not valid JSON: {e}") from e
    if not isinstance(value, dict):
        raise DataError(f"{path}: {what} must be a JSON object, got "
                        f"{type(value).__name__}")
    return value


def _pair_paths(path: str | Path) -> tuple[Path, Path]:
    """(name.json, name.f32) for a path to name, name.json or name.f32."""
    p = Path(path)
    if p.suffix in (".json", ".f32"):
        p = p.with_suffix("")
    # append rather than with_suffix: names may contain dots
    return p.parent / (p.name + ".json"), p.parent / (p.name + ".f32")


def _check_payload(path: Path, values: np.ndarray) -> None:
    if not all_finite(values):
        raise DataError(f"{path}: payload contains non-finite values")


def replace_files(*files: tuple[Path, str | bytes | memoryview]) -> None:
    """Write each (path, content) to a temporary name beside its path, then
    rename the temporaries over their paths in the order given, so no file
    is ever half written; a str is written as UTF-8. If any write or rename
    fails, the files not yet renamed keep their old contents and no
    temporary is left."""
    temps = [path.with_name(path.name + ".tmp") for path, _ in files]
    try:
        for temp, (_, content) in zip(temps, files):
            temp.write_bytes(content.encode() if isinstance(content, str)
                             else content)
        for temp, (path, _) in zip(temps, files):
            os.replace(temp, path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def csv_text(rows) -> str:
    """Rows as CSV text, with the csv module's default CRLF line ends."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def _write_pair(path: str | Path, manifest: dict, payload: np.ndarray) -> None:
    """Write the pair only if `_read_pair` would accept it: the manifest must
    encode as JSON and the payload, cast to f32, must be finite. A float32
    payload is written from its own buffer, uncopied. The payload is renamed
    into place first and the manifest last."""
    manifest_path, payload_path = _pair_paths(path)
    try:
        text = json.dumps({"version": 1, **manifest}, indent=1)
    except (TypeError, ValueError) as e:     # e.g. np.int64, a cycle
        raise DataError(f"{manifest_path}: manifest is not JSON: {e}") from e
    with np.errstate(over="ignore"):         # overflow is inf, refused below
        values = np.ascontiguousarray(payload, "<f4")
    _check_payload(payload_path, values)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    replace_files((payload_path, values.data), (manifest_path, text))


def _read_pair(path: str | Path, what: str,
               **field_types: type) -> tuple[dict, np.ndarray]:
    """(manifest, flat payload): a JSON object at version 1 whose named fields
    have the named types, and whole, finite f32le values returned as a
    read-only view of the bytes read, uncopied."""
    manifest_path, payload_path = _pair_paths(path)
    manifest = read_json_object(manifest_path, f"{what} manifest")
    version = manifest.get("version")
    if type(version) is not int or version != 1:   # true == 1.0 == 1
        raise DataError(f"{manifest_path}: unsupported version {version!r}")
    for key, kind in field_types.items():
        value = manifest.get(key)
        if not isinstance(value, kind):
            raise DataError(f"{manifest_path}: field {key!r} must be "
                            f"{kind.__name__}, got {value!r}")
    raw = read_bytes(payload_path, f"{what} payload")
    if len(raw) % 4:
        raise DataError(f"{payload_path}: payload length {len(raw)} bytes is "
                        "not a whole number of f32 values")
    payload = np.frombuffer(raw, dtype="<f4")
    _check_payload(payload_path, payload)
    return manifest, payload


# ----------------------------------------------------------- EEGR format


def write_recording(path: str | Path, rec: RawRecording) -> None:
    _write_pair(path, {
        "sample_rate_hz": rec.sample_rate_hz,
        "channels": list(rec.channels),
        "dtype": "f32le",
        "trials": [
            {k: v for k, v in (
                ("start", t.start), ("end", t.end), ("label", t.label),
                ("baseline_start", t.baseline_start),
                ("baseline_end", t.baseline_end)) if v is not None}
            for t in rec.trials
        ],
    }, rec.data)


def read_recording(path: str | Path) -> RawRecording:
    """The EEGR pair at path; its data is a read-only float32 view of the
    payload bytes read."""
    manifest, payload = _read_pair(path, "recording", dtype=str,
                                   channels=list, trials=list)
    if manifest["dtype"] != "f32le":
        raise DataError(f"{path}: unsupported dtype {manifest['dtype']!r}")
    channels = manifest["channels"]
    if not channels or payload.size % len(channels):
        raise DataError(f"{path}: {len(channels)} channels cannot split a "
                        f"payload of {payload.size} values")
    try:
        trials = [Trial(start=t["start"], end=t["end"], label=t["label"],
                        baseline_start=t.get("baseline_start"),
                        baseline_end=t.get("baseline_end"))
                  for t in manifest["trials"]]
        data = payload.reshape(len(channels), -1)
        return RawRecording(manifest["sample_rate_hz"], channels, data, trials)
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"{path}: malformed manifest: {e!r}") from e
    except DataError as e:          # a bad trial, channel list or rate
        raise DataError(f"{path}: {e}") from e


# ----------------------------------------------------------- FEAT format


@dataclass
class FeatureSet:
    """All samples of a feature file: values (N, F, 2f, C) with N >= 1 and
    an even feature axis, plus labels/meta, and one name per channel (None
    names them ch00, ch01, ...)."""

    values: np.ndarray
    labels: np.ndarray
    metas: list[dict]
    bands: list[BandSpec]
    channels: list[str] | None = None

    def __post_init__(self):
        shape = self.values.shape
        if len(shape) != 4 or shape[0] < 1 or shape[2] % 2:
            raise DataError(f"features: values must be shaped (samples >= 1, "
                            f"frames, 2 x bands, channels), got {shape}")
        n, _, _, n_channels = shape
        # no more classes than samples: a class count is what a model and
        # its confusion matrix allocate
        self.labels = check_labels("features", self.labels, n, n)
        if self.channels is None:
            self.channels = [f"ch{i:02d}" for i in range(n_channels)]
        check_channel_names("features", self.channels, n_channels)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1


def write_features(path: str | Path, samples: list[SampleTensor],
                   bands: list[BandSpec] | tuple[BandSpec, ...],
                   channels: list[str] | None = None) -> None:
    """Write samples as a FEAT pair, refusing what read_features refuses:
    each label is checked as the reader checks it, then the samples must
    make a valid FeatureSet (labels in [0, samples), one unique name per
    channel)."""
    if not samples:
        raise DataError("cannot write an empty feature file")
    shape = samples[0].values.shape
    for i, s in enumerate(samples):
        if s.values.shape != shape:
            raise DataError(f"sample {i} shape {s.values.shape} != {shape}")
        check_numbers(f"sample {i}", numbers.Integral, label=s.label)
    with np.errstate(over="ignore"):     # overflow is inf; _write_pair refuses
        values = np.stack([s.values for s in samples], dtype=np.float32)
    fs = FeatureSet(values, np.array([s.label for s in samples]),
                    [s.meta for s in samples], list(bands), channels)
    stride = int(np.prod(shape)) * 4
    manifest = {
        "shape": list(shape),
        "bands": [{"name": b.name, "lo_hz": b.lo_hz, "hi_hz": b.hi_hz}
                  for b in bands],
        "samples": [{"offset": i * stride, "label": int(s.label),
                     "meta": s.meta} for i, s in enumerate(samples)],
    }
    if channels is not None:
        manifest["channels"] = list(channels)
    _write_pair(path, manifest, fs.values)


def read_features(path: str | Path) -> FeatureSet:
    """The FEAT pair at path; its values are a read-only float32 view of the
    payload bytes read."""
    manifest, payload = _read_pair(path, "feature", shape=list, samples=list)
    shape = manifest["shape"]
    if len(shape) != 3:
        raise DataError(f"{path}: shape {shape!r} is not [frames, 2 x bands, "
                        "channels]")
    check_numbers(f"{path}: shape", numbers.Integral, ">= 1",
                  **dict(zip(("frames", "features", "channels"), shape)))
    entries = manifest["samples"]
    stride = math.prod(shape) * 4
    expected = stride * len(entries)
    if payload.nbytes != expected:
        raise DataError(
            f"{path}: payload length mismatch, expected {expected} bytes for "
            f"{len(entries)} samples, got {payload.nbytes}")
    labels = np.empty(len(entries), dtype=np.int64)
    metas = []
    try:
        for i, entry in enumerate(entries):
            off = entry["offset"]
            if off != i * stride:
                raise DataError(f"sample {i} offset {off} != expected "
                                f"{i * stride}")
            check_numbers(f"sample {i}", numbers.Integral, label=entry["label"])
            labels[i] = entry["label"]
            metas.append(dict(entry.get("meta", {})))
        bands = [BandSpec(b["name"], b["lo_hz"], b["hi_hz"])
                 for b in manifest.get("bands", [])]
        return FeatureSet(payload.reshape((len(entries), *shape)), labels,
                          metas, bands, manifest.get("channels"))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise DataError(f"{path}: malformed manifest: {e!r}") from e
    except DataError as e:          # an offset, label, band or channel list
        raise DataError(f"{path}: {e}") from e
