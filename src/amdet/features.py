"""Raw EEG to normalized temporal-spectral-spatial feature tensors.

A recording holds float32 samples, in memory as on disk; features are
computed from them in float64. The pipeline works on one (samples, F, C, L)
array per trial: cut the trial into fixed-length samples made of short
frames, take one rfft per frame, and read every band's mean power (PSD) and
differential entropy (DE) off it by Parseval, as if each frame had been
band-limited by an ideal FFT filter.
A trial that carries a baseline range then has its per-band baseline DE
(computed once per trial) subtracted from its DE rows, and every sample is
z-scored over all of its elements. band_component is that ideal filter
written out; it is kept as the reference for the values.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, check_numbers

DE_VARIANCE_FLOOR = 1e-12
ZSCORE_STD_FLOOR = 1e-8


@dataclass(frozen=True)
class BandSpec:
    """Half-open frequency interval [lo_hz, hi_hz)."""

    name: str
    lo_hz: float
    hi_hz: float

    def __post_init__(self):
        check_numbers(f"band {self.name!r}", numbers.Real, hi_hz=self.hi_hz)
        check_numbers(f"band {self.name!r}", numbers.Real, ">= 0",
                      lo_hz=self.lo_hz)
        if not self.lo_hz < self.hi_hz:
            raise DataError(f"band {self.name!r}: need lo_hz < hi_hz, "
                            f"got [{self.lo_hz}, {self.hi_hz})")


# Band sets used throughout the experiments. The wideband caps differ because
# recordings are assumed low-pass filtered near 50 Hz (128 Hz rate) or 75 Hz
# (200 Hz rate) respectively.
DEAP_BANDS = (
    BandSpec("theta", 4.0, 8.0),
    BandSpec("alpha", 8.0, 14.0),
    BandSpec("beta", 14.0, 31.0),
    BandSpec("gamma1", 31.0, 50.0),
)
SEED_BANDS = DEAP_BANDS + (BandSpec("gamma2", 50.0, 75.0),)


def all_finite(values: np.ndarray) -> bool:
    """True if no value is NaN or infinite, read off the min and max (NaN
    propagates through both) without a bool array the size of values."""
    return values.size == 0 or bool(
        np.isfinite([values.min(), values.max()]).all())


def check_channel_names(owner: str, channels, n: int) -> None:
    """Raise DataError unless channels is a list of n unique strings."""
    if not (isinstance(channels, list) and len(channels) == n
            and all(isinstance(c, str) for c in channels)
            and len(set(channels)) == n):
        raise DataError(f"{owner}: channels must be a list of {n} unique "
                        f"names, got {channels!r}")


@dataclass(frozen=True)
class Trial:
    """Sample offsets of a trial (and of its baseline, if any) and its label:
    a class index, or a rating that binarize_labels maps onto one."""

    start: int
    end: int
    label: int | float
    baseline_start: int | None = None
    baseline_end: int | None = None

    def __post_init__(self):
        baseline = {"baseline_start": self.baseline_start,
                    "baseline_end": self.baseline_end}
        check_numbers("trial", numbers.Integral, start=self.start,
                      end=self.end, **{k: v for k, v in baseline.items()
                                       if v is not None})
        check_numbers("trial", numbers.Real, label=self.label)

    @property
    def has_baseline(self) -> bool:
        return self.baseline_start is not None and self.baseline_end is not None


@dataclass
class RawRecording:
    """Multichannel time series plus trial markers.

    data is channels x samples of float32, as EEGR files store it: other
    input is cast once (no copy when it is float32 already), and a value
    that is NaN or beyond the float32 range is a DataError. Trial indices
    are sample offsets into data.
    """

    sample_rate_hz: float
    channels: list[str]
    data: np.ndarray
    trials: list[Trial]

    def __post_init__(self):
        with np.errstate(over="ignore"):    # overflow is inf, refused below
            self.data = np.asarray(self.data, dtype=np.float32)
        check_numbers("recording", numbers.Real, "> 0",
                      sample_rate_hz=self.sample_rate_hz)
        if self.data.ndim != 2 or not self.data.shape[0]:
            raise DataError(f"data must be 2-D with at least one channel row, "
                            f"got shape {self.data.shape}")
        if not all_finite(self.data):
            raise DataError("recording: data holds non-finite values (NaN, "
                            "or beyond the float32 range)")
        check_channel_names("recording", self.channels, self.data.shape[0])
        n = self.data.shape[1]
        for i, t in enumerate(self.trials):
            if (t.baseline_start is None) != (t.baseline_end is None):
                raise DataError(f"trial {i}: a baseline needs both "
                                f"baseline_start and baseline_end")
            spans = [("trial", t.start, t.end)]
            if t.has_baseline:
                spans.append(("baseline", t.baseline_start, t.baseline_end))
            for what, s, e in spans:
                if not (0 <= s < e <= n):
                    raise DataError(
                        f"trial {i}: {what} range [{s}, {e}) outside data "
                        f"of length {n}")


@dataclass
class SampleTensor:
    """One training sample of shape (F, 2f, C): DE rows then PSD rows."""

    values: np.ndarray
    label: int
    meta: dict = field(default_factory=dict)


def _frame_counts(sample_rate_hz: float, sample_seconds: float,
                  frame_seconds: float) -> tuple[int, int]:
    """(frames per sample, points per frame); each must be a finite whole
    number >= 1 (finite durations can still divide to inf or round to 0)."""
    check_numbers("preprocess", numbers.Real, "> 0",
                  sample_seconds=sample_seconds, frame_seconds=frame_seconds)

    def whole(count: float) -> bool:
        return (count < math.inf and round(count) >= 1
                and abs(count - round(count)) <= 1e-9)

    n_frames = sample_seconds / frame_seconds
    if not whole(n_frames):
        raise DataError(
            f"sample_seconds={sample_seconds} is not a finite, positive "
            f"integer multiple of frame_seconds={frame_seconds}")
    frame_len = frame_seconds * sample_rate_hz
    if not whole(frame_len):
        raise DataError(
            f"frame_seconds={frame_seconds} is not a finite, positive whole "
            f"number of samples at {sample_rate_hz} Hz")
    return int(round(n_frames)), int(round(frame_len))


def segment(rec: RawRecording, sample_seconds: float = 3.0,
            frame_seconds: float = 0.5) -> list[np.ndarray]:
    """Cut every trial into non-overlapping samples of consecutive frames.

    Returns one (samples, F, C, frame_len) view of ``rec.data`` per trial. A
    trailing remainder shorter than one sample is discarded; a trial shorter
    than one sample is an error.
    """
    n_frames, frame_len = _frame_counts(rec.sample_rate_hz, sample_seconds,
                                        frame_seconds)
    sample_len = n_frames * frame_len
    out = []
    for ti, trial in enumerate(rec.trials):
        length = trial.end - trial.start
        if length < sample_len:
            raise DataError(
                f"trial {ti} has {length} samples, shorter than one "
                f"{sample_len}-sample window")
        n_samples = length // sample_len
        block = rec.data[:, trial.start:trial.start + n_samples * sample_len]
        frames = block.reshape(len(rec.channels), n_samples, n_frames,
                               frame_len)
        out.append(frames.transpose(1, 2, 0, 3))
    return out


def baseline_frames(rec: RawRecording, trial: Trial,
                    frame_seconds: float = 0.5) -> np.ndarray:
    """Whole frames covering a trial's baseline span, (F_b, C, frame_len)."""
    if not trial.has_baseline:
        raise DataError("trial has no baseline range")
    _, frame_len = _frame_counts(rec.sample_rate_hz, frame_seconds,
                                 frame_seconds)
    length = trial.baseline_end - trial.baseline_start
    n = length // frame_len
    if n < 1:
        raise DataError(
            f"baseline of {length} samples is shorter than one frame "
            f"({frame_len} samples)")
    block = rec.data[:, trial.baseline_start:trial.baseline_start + n * frame_len]
    frames = block.reshape(len(rec.channels), n, frame_len)
    return np.ascontiguousarray(frames.transpose(1, 0, 2))


def _band_masks(n: int, bands, sample_rate_hz: float) -> np.ndarray:
    """(bands, rfft bins): bins inside [lo, hi), so DC only when lo == 0."""
    if n < 8:
        raise DataError(f"frame of {n} points is too short to band-filter")
    if not bands:
        raise DataError("no frequency bands given")
    for band in bands:
        if band.hi_hz > sample_rate_hz / 2 + 1e-9:
            raise DataError(
                f"band {band.name!r} upper edge {band.hi_hz} Hz exceeds "
                f"Nyquist {sample_rate_hz / 2} Hz")
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate_hz)
    return np.stack([(freqs >= b.lo_hz) & (freqs < b.hi_hz) for b in bands])


def band_component(frame: np.ndarray, band: BandSpec,
                   sample_rate_hz: float) -> np.ndarray:
    """Time-domain content of ``frame`` inside [lo, hi), one row per channel.

    Ideal filter: real FFT, zero every bin outside the band, inverse FFT.
    Vectorized over leading axes. The pipeline itself uses band_features;
    this is the reference its DE and PSD values are tested against.
    """
    frame = np.asarray(frame, dtype=np.float64)
    n = frame.shape[-1]
    keep = _band_masks(n, [band], sample_rate_hz)[0]
    spectrum = np.fft.rfft(frame, axis=-1)
    spectrum[..., ~keep] = 0.0
    return np.fft.irfft(spectrum, n=n, axis=-1)


def psd(x: np.ndarray) -> float:
    """Mean squared amplitude of a signal segment."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise DataError("psd of an empty vector")
    return float(np.mean(x * x))


def de(x: np.ndarray) -> float:
    """Differential entropy under a Gaussian fit: 0.5 * ln(2*pi*e*var).

    Population variance, floored so constant signals stay finite.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise DataError("de of an empty vector")
    var = max(float(np.var(x)), DE_VARIANCE_FLOOR)
    return 0.5 * math.log(2.0 * math.pi * math.e * var)


def band_features(frames: np.ndarray,
                  bands: tuple[BandSpec, ...] | list[BandSpec],
                  sample_rate_hz: float) -> np.ndarray:
    """DE rows for each band, then PSD rows: (..., C, L) -> (..., 2f, C).

    Equals de() and psd() of band_component() per frame and channel, from
    one rfft per frame. By Parseval a band's power is sum_k w_k |X_k|^2 / L^2
    over its bins, w = 1 at DC (and at Nyquist for even L), 2 elsewhere. The
    DC bin carries exactly mean^2, so the band's variance is the same sum
    without it.
    """
    frames = np.asarray(frames, dtype=np.float64)
    n = frames.shape[-1]
    masks = _band_masks(n, bands, sample_rate_hz)
    k = np.arange(masks.shape[1])
    weights = np.where((k == 0) | (2 * k == n), 1.0, 2.0) / n ** 2
    # (2f, bins): variance rows (no DC), then power rows
    band_weights = np.concatenate([masks * (k > 0), masks]) * weights
    power = np.abs(np.fft.rfft(frames, axis=-1)) ** 2
    var, pwr = np.split(band_weights @ np.swapaxes(power, -1, -2), 2, axis=-2)
    de_vals = 0.5 * np.log(2.0 * math.pi * math.e
                           * np.maximum(var, DE_VARIANCE_FLOOR))
    values = np.concatenate([de_vals, pwr], axis=-2)
    if not np.all(np.isfinite(values)):
        raise DataError("non-finite feature values")
    return values


def baseline_subtract(values: np.ndarray, baseline: np.ndarray,
                      bands: tuple[BandSpec, ...] | list[BandSpec],
                      sample_rate_hz: float) -> np.ndarray:
    """Subtract the baseline's mean per-(band, channel) DE from the DE rows.

    ``values`` is (..., F, 2f, C) from band_features, e.g. every sample of
    one trial; ``baseline`` is raw frames (F_b, C, frame_len), featurized
    once for all of them. PSD rows are left alone.
    """
    if baseline.ndim != 3 or baseline.shape[0] < 1:
        raise DataError("baseline must be (frames, channels, points) with >= 1 frame")
    if baseline.shape[1] != values.shape[-1]:
        raise DataError(
            f"baseline has {baseline.shape[1]} channels, values have "
            f"{values.shape[-1]}")
    shift = band_features(baseline, bands, sample_rate_hz).mean(axis=0)
    shift[len(bands):] = 0.0
    return values - shift


def zscore(values: np.ndarray) -> np.ndarray:
    """Normalize each (F, 2f, C) sample to zero mean / unit std over all of
    its elements; takes one sample or a stack (N, F, 2f, C)."""
    axes = (-3, -2, -1)
    if values.ndim < 3 or math.prod(values.shape[-3:]) <= 1:
        raise DataError("zscore needs samples of more than one element")
    std = np.maximum(values.std(axis=axes, keepdims=True), ZSCORE_STD_FLOOR)
    return (values - values.mean(axis=axes, keepdims=True)) / std


def binarize_labels(rec: RawRecording, threshold: float = 5.0) -> RawRecording:
    """Map rating-style trial labels onto two classes: 1 if above threshold.

    Mirrors the usual handling of 1-9 self-assessment ratings.
    """
    check_numbers("preprocess", numbers.Real, binarize_threshold=threshold)
    return replace(rec, trials=[replace(t, label=int(t.label > threshold))
                                for t in rec.trials])


def extract_features(rec: RawRecording,
                     bands: tuple[BandSpec, ...] | list[BandSpec],
                     sample_seconds: float = 3.0,
                     frame_seconds: float = 0.5) -> list[SampleTensor]:
    """Full preprocessing for one recording, one trial array at a time.

    A trial's DE rows are baseline-corrected exactly when the trial carries
    a baseline range; every sample is then z-scored.
    """
    out = []
    fs = rec.sample_rate_hz
    for ti, (trial, frames) in enumerate(
            zip(rec.trials, segment(rec, sample_seconds, frame_seconds))):
        values = band_features(frames, bands, fs)
        if trial.has_baseline:
            values = baseline_subtract(
                values, baseline_frames(rec, trial, frame_seconds), bands, fs)
        out += [SampleTensor(v, trial.label, {"trial": ti, "segment": si})
                for si, v in enumerate(zscore(values))]
    return out
