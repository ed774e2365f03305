"""Preprocessing: segmentation, band filtering, DE/PSD, baseline, z-score."""

import math

import numpy as np
import pytest

from amdet import features
from amdet.errors import DataError
from amdet.features import (BandSpec, DEAP_BANDS, RawRecording, SEED_BANDS,
                            Trial, band_component, band_features,
                            baseline_frames, baseline_subtract, de,
                            extract_features, psd, segment, zscore)

FS = 200.0
ALPHA = BandSpec("alpha", 8.0, 14.0)
THETA = BandSpec("theta", 4.0, 8.0)


def make_recording(trial_seconds, n_channels=2, fs=FS, label=0, seed=0):
    rng = np.random.default_rng(seed)
    n = int(trial_seconds * fs)
    data = rng.normal(size=(n_channels, n))
    names = [f"ch{i}" for i in range(n_channels)]
    return RawRecording(fs, names, data, [Trial(0, n, label)])


def sine(freq, seconds=0.5, fs=FS, amp=1.0):
    t = np.arange(int(seconds * fs)) / fs
    return amp * np.sin(2 * np.pi * freq * t)


# ---------------------------------------------------------------- segment


def test_segment_60s_trial_gives_20_samples_of_6_frames():
    rec = make_recording(60.0)
    (segs,) = segment(rec, 3.0, 0.5)
    assert len(segs) == 20
    assert segs.shape[1:] == (6, 2, 100)


def test_segment_exact_fit_single_sample():
    rec = make_recording(3.0)
    (segs,) = segment(rec, 3.0, 0.5)
    assert len(segs) == 1
    assert segs[0].shape == (6, 2, 100)


def test_segment_discards_trailing_remainder():
    rec = make_recording(7.0)
    (segs,) = segment(rec, 3.0, 0.5)
    assert len(segs) == 2


def test_segment_preserves_sample_values():
    rec = make_recording(3.0)
    (segs,) = segment(rec, 3.0, 0.5)
    # frame 2 of channel 1 is samples 200:300 of that channel
    np.testing.assert_array_equal(segs[0, 2, 1], rec.data[1, 200:300])


def test_segment_one_array_per_trial():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(2, 2000))
    rec = RawRecording(FS, ["a", "b"], data,
                       [Trial(0, 700, 0), Trial(700, 2000, 1)])
    first, second = segment(rec, 1.0, 0.5)
    assert first.shape == (3, 2, 2, 100)
    assert second.shape == (6, 2, 2, 100)
    # sample 1, frame 1 of the second trial starts 300 points into it
    np.testing.assert_array_equal(second[1, 1], data[:, 1000:1100])


def test_segment_rejects_non_integral_frame_count():
    rec = make_recording(6.0)
    with pytest.raises(DataError):
        segment(rec, 3.0, 0.7)


def test_segment_rejects_short_trial():
    rec = make_recording(2.0)
    with pytest.raises(DataError):
        segment(rec, 3.0, 0.5)


def test_segment_count_property():
    rng = np.random.default_rng(7)
    for _ in range(5):
        seconds = float(rng.integers(3, 25))
        rec = make_recording(seconds, n_channels=1)
        (segs,) = segment(rec, 3.0, 0.5)
        assert len(segs) == int(seconds // 3)


# --------------------------------------------------------- band_component


def test_band_passes_in_band_sine():
    x = sine(10.0)
    out = band_component(x, ALPHA, FS)
    assert np.linalg.norm(out - x) / np.linalg.norm(x) < 1e-6


def test_band_suppresses_out_of_band_sine():
    x = sine(10.0)
    out = band_component(x, THETA, FS)
    assert np.linalg.norm(out) < 1e-6 * np.linalg.norm(x)


def test_band_zero_in_zero_out():
    out = band_component(np.zeros(100), ALPHA, FS)
    np.testing.assert_array_equal(out, 0.0)


def test_band_edges_half_open():
    # 8 Hz sits exactly on theta's upper and alpha's lower edge
    x = sine(8.0)
    assert np.linalg.norm(band_component(x, THETA, FS)) < 1e-9
    kept = band_component(x, ALPHA, FS)
    assert np.linalg.norm(kept - x) / np.linalg.norm(x) < 1e-6


def test_band_above_nyquist_rejected():
    with pytest.raises(DataError):
        band_component(np.zeros(100), BandSpec("bad", 90.0, 120.0), FS)


def test_band_short_frame_rejected():
    with pytest.raises(DataError):
        band_component(np.zeros(4), ALPHA, FS)


def test_band_components_partition_energy():
    # disjoint half-open bands: summed band power never exceeds broadband power
    rng = np.random.default_rng(3)
    frame = rng.normal(size=100)
    bands = [BandSpec("a", 0.0, 4.0), BandSpec("b", 4.0, 31.0),
             BandSpec("c", 31.0, 100.0)]
    total = sum(psd(band_component(frame, b, FS)) for b in bands)
    assert total <= psd(frame) + 1e-9


# ----------------------------------------------------------------- psd/de


def test_psd_small_example():
    assert psd(np.array([3.0, 4.0])) == 12.5


def test_psd_zeros():
    assert psd(np.zeros(10)) == 0.0


def test_psd_unit_sine_half():
    x = sine(10.0, seconds=1.0)
    assert abs(psd(x) - 0.5) < 1e-9


def test_psd_empty_rejected():
    with pytest.raises(DataError):
        psd(np.array([]))


def test_de_unit_variance():
    rng = np.random.default_rng(11)
    x = rng.normal(size=4096)
    x = (x - x.mean()) / x.std()
    assert abs(de(x) - 0.5 * math.log(2 * math.pi * math.e)) < 1e-12
    assert abs(de(x) - 1.418939) < 1e-6


def test_de_constant_vector_hits_floor():
    expected = 0.5 * math.log(2 * math.pi * math.e * 1e-12)
    assert de(np.full(64, 5.0)) == pytest.approx(expected)
    assert de(np.full(64, 5.0)) == pytest.approx(-12.3966, abs=1e-3)


def test_de_scaling_law(rng):
    x = rng.normal(size=512)
    assert abs(de(2 * x) - de(x) - math.log(2)) < 1e-9
    for alpha in (0.5, 3.0, 7.25):
        assert abs(de(alpha * x) - de(x) - math.log(alpha)) < 1e-9


def test_de_empty_rejected():
    with pytest.raises(DataError):
        de(np.array([]))


# ---------------------------------------------------------- band_features


def oracle_features(frames, bands, fs):
    """(F, 2f, C) from de()/psd() of band_component(), one frame at a time."""
    n_frames, n_channels, _ = frames.shape
    out = np.empty((n_frames, 2 * len(bands), n_channels))
    for t in range(n_frames):
        for bi, band in enumerate(bands):
            comp = band_component(frames[t], band, fs)
            for c in range(n_channels):
                out[t, bi, c] = de(comp[c])
                out[t, len(bands) + bi, c] = psd(comp[c])
    return out


def test_build_tensor_seed_shape():
    rng = np.random.default_rng(0)
    out = band_features(rng.normal(size=(6, 62, 100)), SEED_BANDS, FS)
    assert out.shape == (6, 10, 62)


def test_build_tensor_deap_shape():
    rng = np.random.default_rng(0)
    out = band_features(rng.normal(size=(6, 32, 64)), DEAP_BANDS, 128.0)
    assert out.shape == (6, 8, 32)


def test_build_tensor_toy_shape():
    rng = np.random.default_rng(0)
    out = band_features(rng.normal(size=(6, 1, 100)), [ALPHA], FS)
    assert out.shape == (6, 2, 1)


def test_band_features_stacked_leading_axes():
    rng = np.random.default_rng(4)
    frames = rng.normal(size=(3, 6, 4, 100))
    out = band_features(frames, DEAP_BANDS, FS)
    assert out.shape == (3, 6, 8, 4)
    np.testing.assert_array_equal(out[1], band_features(frames[1], DEAP_BANDS,
                                                        FS))


def test_build_tensor_layout_matches_scalar_ops():
    rng = np.random.default_rng(5)
    frames = rng.normal(size=(3, 2, 100))
    bands = [THETA, ALPHA]
    out = band_features(frames, bands, FS)
    for t in range(3):
        for bi, band in enumerate(bands):
            for c in range(2):
                comp = band_component(frames[t, c], band, FS)
                assert out[t, bi, c] == pytest.approx(de(comp))
                assert out[t, 2 + bi, c] == pytest.approx(psd(comp))


@pytest.mark.parametrize("n", [64, 65, 100])
def test_band_features_match_band_component_oracle(n):
    fs = 128.0
    rng = np.random.default_rng(n)
    frames = rng.normal(size=(4, 3, n)) * 5.0
    frames[:, 1] += 300.0            # strong offset: DC dwarfs the variance
    frames[:, 2] += 40.0 * np.sin(2 * np.pi * 0.7 * np.arange(n) / fs)
    bands = (BandSpec("dc", 0.0, 4.0),) + DEAP_BANDS + (
        BandSpec("top", 50.0, 64.0),                 # ends at Nyquist
        BandSpec("all", 0.0, 64.0 + 1e-10))          # keeps the Nyquist bin
    np.testing.assert_allclose(band_features(frames, bands, fs),
                               oracle_features(frames, bands, fs),
                               rtol=1e-12, atol=0)


def test_band_features_full_band_power_is_signal_power(rng):
    frames = rng.normal(size=(2, 3, 64)) + 7.0
    out = band_features(frames, [BandSpec("all", 0.0, 64.0 + 1e-10)], 128.0)
    np.testing.assert_allclose(out[:, 1], np.mean(frames ** 2, axis=-1),
                               rtol=1e-12)
    np.testing.assert_allclose(
        out[:, 0], 0.5 * np.log(2 * np.pi * np.e * frames.var(axis=-1)),
        rtol=1e-12)


def test_band_features_constant_frame_hits_floor():
    out = band_features(np.full((1, 1, 64), 5.0), [BandSpec("dc", 0.0, 4.0)],
                        128.0)
    assert out[0, 0, 0] == pytest.approx(0.5 * math.log(2 * math.pi * math.e
                                                        * 1e-12))
    assert out[0, 1, 0] == pytest.approx(25.0)


def test_build_tensor_finite(rng):
    out = band_features(rng.normal(size=(6, 4, 100)) * 1e6, SEED_BANDS, FS)
    assert np.all(np.isfinite(out))


def test_band_features_rejects_bad_input():
    with pytest.raises(DataError, match="too short"):
        band_features(np.zeros((1, 1, 4)), [ALPHA], FS)
    with pytest.raises(DataError, match="Nyquist"):
        band_features(np.zeros((1, 1, 100)), [BandSpec("bad", 90.0, 120.0)],
                      FS)
    with pytest.raises(DataError, match="no frequency bands"):
        band_features(np.zeros((1, 1, 100)), [], FS)


# ------------------------------------------------------ baseline_subtract


def test_baseline_identical_to_trial_zeroes_de():
    rng = np.random.default_rng(9)
    frames = rng.normal(size=(6, 3, 100))
    # every DE entry equals the mean baseline DE only if all frames match,
    # so use one frame as both sample and baseline
    one = frames[:1]
    out = baseline_subtract(band_features(one, [ALPHA], FS), one, [ALPHA], FS)
    np.testing.assert_allclose(out[:, 0, :], 0.0, atol=1e-12)


def test_baseline_subtracts_mean_de_and_keeps_psd():
    rng = np.random.default_rng(10)
    frames = rng.normal(size=(4, 2, 100))
    base = rng.normal(size=(3, 2, 100)) * 2.0
    bands = [THETA, ALPHA]
    values = band_features(frames, bands, FS)
    out = baseline_subtract(values, base, bands, FS)
    base_de = np.stack([
        [[de(band_component(base[t, c], b, FS)) for c in range(2)]
         for b in bands] for t in range(3)])
    expected_shift = base_de.mean(axis=0)
    np.testing.assert_allclose(values[:, :2, :] - out[:, :2, :],
                               np.broadcast_to(expected_shift, (4, 2, 2)),
                               atol=1e-10)
    np.testing.assert_array_equal(values[:, 2:, :], out[:, 2:, :])


def test_baseline_constant_offset_example():
    # trial DE 1.5 everywhere vs baseline DE 1.0 everywhere -> stored DE 0.5
    values = np.full((2, 2, 1), 1.5)
    rng = np.random.default_rng(2)
    base = rng.normal(size=(2, 1, 100))
    bands = [ALPHA]
    shifted = baseline_subtract(values, base, bands, FS)
    base_de = np.mean([de(band_component(base[t, 0], ALPHA, FS))
                       for t in range(2)])
    target = 1.5 - base_de
    np.testing.assert_allclose(shifted[:, 0, :], target, atol=1e-12)
    np.testing.assert_allclose(shifted[:, 1, :], 1.5)


def test_baseline_channel_mismatch_rejected():
    with pytest.raises(DataError):
        baseline_subtract(np.zeros((2, 2, 3)), np.zeros((1, 2, 100)),
                          [ALPHA], FS)


def test_baseline_empty_rejected():
    with pytest.raises(DataError):
        baseline_subtract(np.zeros((2, 2, 3)), np.zeros((0, 3, 100)),
                          [ALPHA], FS)


def test_baseline_frames_requires_range():
    rec = make_recording(3.0)
    with pytest.raises(DataError):
        baseline_frames(rec, rec.trials[0])


# ------------------------------------------------------------------ zscore


def test_zscore_normalizes(rng):
    out = zscore(rng.normal(size=(6, 10, 8)) * 7 + 3)
    assert abs(out.mean()) < 1e-6
    assert abs(out.std() - 1.0) < 1e-5


def test_zscore_constant_tensor_all_zero():
    out = zscore(np.full((2, 4, 3), 9.0))
    np.testing.assert_array_equal(out, 0.0)


def test_zscore_affine_invariance(rng):
    v = rng.normal(size=(3, 4, 2))
    a = zscore(v)
    b = zscore(2.5 * v + 11.0)
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_zscore_idempotent(rng):
    once = zscore(rng.normal(size=(4, 6, 5)))
    twice = zscore(once)
    np.testing.assert_allclose(once, twice, atol=1e-6)


def test_zscore_stack_normalizes_each_sample(rng):
    stack = rng.normal(size=(5, 3, 4, 2)) * np.arange(1, 6)[:, None, None,
                                                           None]
    stack[2] = 4.0                            # constant sample stays finite
    out = zscore(stack)
    for i in range(5):
        np.testing.assert_array_equal(out[i], zscore(stack[i]))
    np.testing.assert_array_equal(out[2], 0.0)


def test_zscore_rejects_single_element():
    with pytest.raises(DataError):
        zscore(np.ones((1, 1, 1)))


# -------------------------------------------------------------- pipeline


def test_extract_features_end_to_end():
    rec = make_recording(9.0, n_channels=3)
    out = extract_features(rec, DEAP_BANDS, sample_seconds=3.0,
                           frame_seconds=0.5)
    assert len(out) == 3
    for s in out:
        assert s.values.shape == (6, 8, 3)
        assert abs(s.values.mean()) < 1e-6
        assert abs(s.values.std() - 1.0) < 1e-5
        assert np.all(np.isfinite(s.values))


def two_trial_recording(fs=128.0, n_channels=3, seed=6,
                        second_baseline=True):
    """Trials of 2.3 s and 3.1 s with 1 s baselines before each (or before
    only the first, the second's span left unused)."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n_channels, int(8 * fs))) + 2.0
    s = lambda seconds: int(seconds * fs)
    second = (s(3.3), s(4.3)) if second_baseline else ()
    trials = [Trial(s(1.0), s(3.3), 1, 0, s(1.0)),
              Trial(s(4.3), s(7.4), 0, *second)]
    return RawRecording(fs, [f"ch{i}" for i in range(n_channels)], data,
                        trials)


@pytest.mark.parametrize("second_baseline", [True, False],
                         ids=["both_baselines", "first_baseline_only"])
def test_extract_features_matches_per_sample_oracle(second_baseline):
    rec = two_trial_recording(second_baseline=second_baseline)
    fs, bands, frame_len = rec.sample_rate_hz, DEAP_BANDS, 32
    out = extract_features(rec, bands, sample_seconds=1.0,
                           frame_seconds=0.25)
    expected = []
    for ti, trial in enumerate(rec.trials):
        shift = 0.0                 # only a trial with a baseline is shifted
        if trial.has_baseline:
            base = rec.data[:, trial.baseline_start:trial.baseline_end]
            base_frames = np.stack([
                base[:, i:i + frame_len]
                for i in range(0, base.shape[1], frame_len)])
            shift = oracle_features(base_frames, bands, fs).mean(axis=0)
            shift[len(bands):] = 0.0
        for si in range((trial.end - trial.start) // (4 * frame_len)):
            lo = trial.start + si * 4 * frame_len
            frames = np.stack([rec.data[:, lo + f * frame_len:
                                        lo + (f + 1) * frame_len]
                               for f in range(4)])
            v = oracle_features(frames, bands, fs) - shift
            v = (v - v.mean()) / max(v.std(), 1e-8)
            expected.append((v, trial.label, {"trial": ti, "segment": si}))
    assert len(out) == len(expected) == 5
    for s, (v, label, meta) in zip(out, expected):
        np.testing.assert_allclose(s.values, v, rtol=1e-12, atol=1e-12)
        assert (s.label, s.meta) == (label, meta)


def test_extract_features_featurizes_each_baseline_once(monkeypatch):
    calls = {"baseline_subtract": 0, "band_component": 0}
    for name in calls:
        original = getattr(features, name)

        def counted(*args, _name=name, _f=original, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(features, name, counted)
    out = extract_features(two_trial_recording(), DEAP_BANDS,
                           sample_seconds=1.0, frame_seconds=0.25)
    assert len(out) == 5
    assert calls == {"baseline_subtract": 2, "band_component": 0}


def test_extract_features_rejects_band_above_nyquist():
    rec = make_recording(3.0, fs=100.0)
    with pytest.raises(DataError):
        extract_features(rec, SEED_BANDS)   # gamma2 tops at 75 > 50


def test_binarize_labels_threshold_five():
    from amdet.features import binarize_labels
    n = 600
    data = np.zeros((1, n))
    trials = [Trial(i * 100, (i + 1) * 100, rating)
              for i, rating in enumerate([1, 4, 5, 6, 8, 9])]
    rec = RawRecording(200.0, ["a"], data, trials)
    out = binarize_labels(rec)
    assert [t.label for t in out.trials] == [0, 0, 0, 1, 1, 1]
    assert [t.label for t in rec.trials] == [1, 4, 5, 6, 8, 9]


def test_recording_validation():
    with pytest.raises(DataError):
        RawRecording(200.0, ["a", "a"], np.zeros((2, 10)), [])
    with pytest.raises(DataError):
        RawRecording(200.0, ["a"], np.zeros((1, 10)), [Trial(0, 20, 0)])
    with pytest.raises(DataError):
        RawRecording(-1.0, ["a"], np.zeros((1, 10)), [])
