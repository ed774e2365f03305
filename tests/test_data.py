"""Synthetic generation determinism/planting, and EEGR/FEAT round-trips."""

import json
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from amdet.data import (FeatureSet, PlantedSignal, SynthSpec,
                        default_synth_spec, read_features, read_recording,
                        synth_generate, write_features, write_recording)
from amdet.errors import DataError
from amdet.features import (DEAP_BANDS, BandSpec, RawRecording,
                            SampleTensor, band_component, de,
                            extract_features, segment)


def small_spec(**overrides):
    base = dict(n_classes=2, channels=4, sample_rate_hz=128.0,
                trial_seconds=3.0, trials_per_class=2, seed=5,
                planted=(PlantedSignal(0, (0,), 8.0, 14.0, 3.0),
                         PlantedSignal(1, (0,), 14.0, 31.0, 3.0)))
    base.update(overrides)
    return SynthSpec(**base)


# ------------------------------------------------------------------ synth


def test_synth_deterministic():
    a = synth_generate(small_spec())
    b = synth_generate(small_spec())
    np.testing.assert_array_equal(a.data, b.data)
    assert [t.label for t in a.trials] == [t.label for t in b.trials]


def test_synth_seed_changes_data():
    a = synth_generate(small_spec())
    b = synth_generate(small_spec(seed=6))
    assert not np.array_equal(a.data, b.data)


def test_synth_class_balance():
    rec = synth_generate(small_spec(trials_per_class=5))
    labels = [t.label for t in rec.trials]
    assert labels.count(0) == 5 and labels.count(1) == 5


def test_synth_trial_layout():
    spec = small_spec(baseline_seconds=1.0)
    rec = synth_generate(spec)
    for t in rec.trials:
        assert t.has_baseline
        assert t.baseline_end == t.start
        assert (t.end - t.start) == int(3.0 * 128)
        assert (t.baseline_end - t.baseline_start) == 128


def test_synth_planted_band_dominates_alpha_de():
    # strong 10 Hz on channels 0-2: their alpha DE beats clean channels
    spec = SynthSpec(
        n_classes=2, channels=8, sample_rate_hz=128.0, trial_seconds=6.0,
        trials_per_class=4, seed=3, noise_scale=1.0,
        planted=(PlantedSignal(0, (0, 1, 2), 9.5, 10.5, 8.0),
                 PlantedSignal(1, (0, 1, 2), 20.0, 21.0, 8.0)))
    rec = synth_generate(spec)
    alpha = BandSpec("alpha", 8.0, 14.0)
    wins = total = 0
    for trial, samples in zip(rec.trials, segment(rec, 3.0, 0.5)):
        if trial.label != 0:
            continue
        for frames in samples:               # (F, C, L)
            for frame in frames:             # (C, L)
                comp = band_component(frame, alpha, 128.0)
                des = [de(comp[c]) for c in range(8)]
                planted_mean = np.mean(des[:3])
                clean_max = np.max(des[3:])
                total += 1
                wins += planted_mean > clean_max
    # envelope leaves some frames signal-free; over signal-bearing frames the
    # planted channels dominate, so demand a clear majority overall
    assert total > 0
    assert wins / total > 0.5


def test_synth_planted_dominates_during_envelope():
    # measured only where the envelope is active, dominance is near-total
    spec = SynthSpec(
        n_classes=2, channels=6, sample_rate_hz=128.0, trial_seconds=6.0,
        trials_per_class=3, seed=11, noise_scale=0.5,
        planted=(PlantedSignal(0, (0, 1), 9.5, 10.5, 12.0),
                 PlantedSignal(1, (0, 1), 20.0, 21.0, 12.0)))
    rec = synth_generate(spec)
    alpha = BandSpec("alpha", 8.0, 14.0)
    wins = total = 0
    for ti, trial in enumerate(rec.trials):
        if trial.label != 0:
            continue
        data = rec.data[:, trial.start:trial.end]
        power = (data[0] ** 2).reshape(-1, 64).mean(axis=1)
        active = power > 2 * np.median(power)
        # frame f covers samples [64f, 64(f+1))
        n_frames = data.shape[1] // 64
        for f in range(n_frames):
            if not active[f]:
                continue
            block = data[:, f * 64:(f + 1) * 64]
            comp = band_component(block, alpha, 128.0)
            des = [de(comp[c]) for c in range(6)]
            total += 1
            wins += min(des[0], des[1]) > max(des[2:])
    assert total > 0
    assert wins / total > 0.95


def test_synth_amplitude_zero_plants_nothing():
    spec = small_spec(planted=(PlantedSignal(0, (0,), 8.0, 14.0, 0.0),))
    rec = synth_generate(spec)
    spec_none = small_spec(planted=())
    rec_none = synth_generate(spec_none)
    np.testing.assert_array_equal(rec.data, rec_none.data)


def test_synth_spec_validation():
    with pytest.raises(DataError):
        small_spec(planted=(PlantedSignal(0, (9,), 8.0, 14.0, 1.0),))
    with pytest.raises(DataError):
        small_spec(planted=(PlantedSignal(0, (0,), 8.0, 80.0, 1.0),))
    with pytest.raises(DataError):
        small_spec(planted=(PlantedSignal(5, (0,), 8.0, 14.0, 1.0),))
    with pytest.raises(DataError):
        small_spec(n_classes=1)
    with pytest.raises(DataError):
        small_spec(noise_scale=0.0)


def test_synth_spec_json_round_trip():
    spec = default_synth_spec(seed=9)
    again = SynthSpec.from_dict(json.loads(json.dumps(asdict(spec))))
    assert again == spec


# ----------------------------------------------------------- EEGR format


def test_recording_round_trip(tmp_path):
    rec = synth_generate(small_spec(baseline_seconds=0.5))
    base = tmp_path / "rec"
    write_recording(base, rec)
    back = read_recording(base)
    # float32 in memory as in the payload: the round trip is exact
    np.testing.assert_array_equal(back.data, rec.data, strict=True)
    assert back.channels == rec.channels
    assert back.sample_rate_hz == rec.sample_rate_hz
    assert [t.label for t in back.trials] == [t.label for t in rec.trials]
    assert back.trials[0].baseline_start == rec.trials[0].baseline_start


def test_recording_second_round_trip_bitwise(tmp_path):
    rec = synth_generate(small_spec())
    write_recording(tmp_path / "a", rec)
    back = read_recording(tmp_path / "a")
    write_recording(tmp_path / "b", back)
    assert (tmp_path / "a.f32").read_bytes() == (tmp_path / "b.f32").read_bytes()
    assert json.loads((tmp_path / "a.json").read_text()) == \
        json.loads((tmp_path / "b.json").read_text())


def test_recording_truncated_payload_rejected(tmp_path):
    rec = synth_generate(small_spec())
    write_recording(tmp_path / "rec", rec)
    payload = (tmp_path / "rec.f32").read_bytes()
    (tmp_path / "rec.f32").write_bytes(payload[:-10])
    with pytest.raises(DataError, match="payload"):
        read_recording(tmp_path / "rec")


def test_recording_version_mismatch_rejected(tmp_path):
    rec = synth_generate(small_spec())
    write_recording(tmp_path / "rec", rec)
    manifest = json.loads((tmp_path / "rec.json").read_text())
    manifest["version"] = 2
    (tmp_path / "rec.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="version"):
        read_recording(tmp_path / "rec")


def test_recording_nan_payload_rejected(tmp_path):
    rec = synth_generate(small_spec())
    write_recording(tmp_path / "rec", rec)
    good = (tmp_path / "rec.f32").read_bytes()
    rec.data[0, 0] = np.nan
    with pytest.raises(DataError, match="non-finite"):   # the writer refuses
        write_recording(tmp_path / "bad", rec)
    assert not list(tmp_path.glob("bad*"))
    (tmp_path / "rec.f32").write_bytes(
        np.array([np.nan], "<f4").tobytes() + good[4:])
    with pytest.raises(DataError, match="non-finite"):   # so does the reader
        read_recording(tmp_path / "rec")


def test_in_memory_features_equal_the_eegr_round_trip_bitwise(tmp_path):
    # the recording is float32 in memory as in the file, so writing and
    # reading it back changes no feature bit, baselines included
    rec = synth_generate(small_spec(baseline_seconds=1.0))
    write_recording(tmp_path / "rec", rec)
    back = read_recording(tmp_path / "rec")
    np.testing.assert_array_equal(
        *(np.stack([s.values for s in extract_features(r, DEAP_BANDS)])
          for r in (rec, back)))
    assert back.data.dtype == rec.data.dtype == np.float32
    assert not back.data.flags.writeable      # a view of the bytes read


def test_recording_with_no_samples_round_trips(tmp_path):
    # the finiteness check reads a min and a max, which an empty payload
    # does not have
    write_recording(tmp_path / "rec",
                    RawRecording(128.0, ["a", "b"], np.zeros((2, 0)), []))
    assert read_recording(tmp_path / "rec").data.shape == (2, 0)


def _traced_peak(fn, *args):
    """(fn's result, the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_recording_io_and_synthesis_allocation_peaks(tmp_path):
    """Peaks as multiples of the float32 payload's bytes, on the default
    spec (90 trials). Reading holds the bytes read and nothing more,
    writing copies nothing, and synthesis holds the recording plus one
    trial's float64 working arrays (about 0.26 of it here); a float64 copy
    of the recording anywhere would add 2.0."""
    rec, synth_peak = _traced_peak(synth_generate, default_synth_spec())
    payload = rec.data.size * 4
    _, write_peak = _traced_peak(write_recording, tmp_path / "rec", rec)
    _, read_peak = _traced_peak(read_recording, tmp_path / "rec")
    assert read_peak <= 1.1 * payload
    assert write_peak <= 0.3 * payload
    assert synth_peak <= 1.6 * payload


def test_recording_bad_trial_bounds_rejected(tmp_path):
    rec = synth_generate(small_spec())
    write_recording(tmp_path / "rec", rec)
    manifest = json.loads((tmp_path / "rec.json").read_text())
    manifest["trials"][0]["end"] = 10 ** 9
    (tmp_path / "rec.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="trial"):
        read_recording(tmp_path / "rec")


def test_recording_missing_manifest(tmp_path):
    with pytest.raises(DataError, match="not found"):
        read_recording(tmp_path / "nope")


# ----------------------------------------------------------- FEAT format


def feature_fixture():
    rec = synth_generate(small_spec())
    bands = [BandSpec("theta", 4.0, 8.0), BandSpec("alpha", 8.0, 14.0)]
    samples = extract_features(rec, bands)
    return samples, bands, rec.channels


def test_features_round_trip(tmp_path):
    samples, bands, channels = feature_fixture()
    write_features(tmp_path / "feat", samples, bands, channels)
    fs = read_features(tmp_path / "feat")
    assert fs.n_samples == len(samples)
    np.testing.assert_array_equal(
        fs.values,
        np.stack([s.values for s in samples]).astype("<f4").astype(np.float64))
    assert list(fs.labels) == [s.label for s in samples]
    assert fs.metas[0]["trial"] == samples[0].meta["trial"]
    assert [b.name for b in fs.bands] == ["theta", "alpha"]
    assert fs.channels == channels


def test_features_second_round_trip_bitwise(tmp_path):
    samples, bands, channels = feature_fixture()
    write_features(tmp_path / "a", samples, bands, channels)
    fs = read_features(tmp_path / "a")
    again = [SampleTensor(v, int(y), m)
             for v, y, m in zip(fs.values, fs.labels, fs.metas)]
    write_features(tmp_path / "b", again, fs.bands, fs.channels)
    assert (tmp_path / "a.f32").read_bytes() == (tmp_path / "b.f32").read_bytes()


def test_features_truncated_payload_names_byte_counts(tmp_path):
    samples, bands, channels = feature_fixture()
    write_features(tmp_path / "feat", samples, bands, channels)
    raw = (tmp_path / "feat.f32").read_bytes()
    (tmp_path / "feat.f32").write_bytes(raw[:-4])
    with pytest.raises(DataError) as err:
        read_features(tmp_path / "feat")
    assert str(len(raw)) in str(err.value)          # expected byte count
    assert str(len(raw) - 4) in str(err.value)      # actual byte count


def test_features_version_mismatch(tmp_path):
    samples, bands, channels = feature_fixture()
    write_features(tmp_path / "feat", samples, bands, channels)
    manifest = json.loads((tmp_path / "feat.json").read_text())
    manifest["version"] = 99
    (tmp_path / "feat.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="version"):
        read_features(tmp_path / "feat")


def test_feature_io_allocation_peaks(tmp_path):
    """Peaks as multiples of the float32 payload's bytes, on the default
    spec at seed 3 with the DEAP bands. Writing stacks the samples once,
    straight into float32, and reading holds the bytes read plus the parsed
    manifest; a float64 stack would add 2.0, a float32 copy 1.0."""
    rec = synth_generate(default_synth_spec(seed=3))
    samples = extract_features(rec, DEAP_BANDS)
    payload = len(samples) * samples[0].values.size * 4
    _, write_peak = _traced_peak(write_features, tmp_path / "feat", samples,
                                 DEAP_BANDS, rec.channels)
    fs, read_peak = _traced_peak(read_features, tmp_path / "feat")
    assert fs.values.dtype == np.float32 and not fs.values.flags.writeable
    assert read_peak <= 1.3 * payload
    assert write_peak <= 1.7 * payload


def test_features_nan_payload_rejected(tmp_path):
    samples, bands, channels = feature_fixture()
    write_features(tmp_path / "feat", samples, bands, channels)
    good = (tmp_path / "feat.f32").read_bytes()
    samples[0].values[0, 0, 0] = np.nan
    with pytest.raises(DataError, match="non-finite"):   # the writer refuses
        write_features(tmp_path / "bad", samples, bands, channels)
    assert not list(tmp_path.glob("bad*"))
    (tmp_path / "feat.f32").write_bytes(
        np.array([np.nan], "<f4").tobytes() + good[4:])
    with pytest.raises(DataError, match="non-finite"):   # so does the reader
        read_features(tmp_path / "feat")


def test_features_write_rejects_repeated_channel_names(tmp_path):
    samples, bands, channels = feature_fixture()
    with pytest.raises(DataError, match="unique"):
        write_features(tmp_path / "feat", samples, bands,
                       [channels[0]] * len(channels))
    assert not (tmp_path / "feat.json").exists()


def test_features_empty_write_rejected(tmp_path):
    with pytest.raises(DataError):
        write_features(tmp_path / "feat", [], [], None)


def test_features_seedlike_channel_count(tmp_path):
    # 62-channel manifest parses back to C = 62
    rng = np.random.default_rng(0)
    samples = [SampleTensor(rng.normal(size=(6, 10, 62)), label=i % 3,
                            meta={"trial": i}) for i in range(4)]
    bands = [BandSpec(f"b{i}", 4.0 + i, 5.0 + i) for i in range(5)]
    write_features(tmp_path / "feat", samples, bands)
    fs = read_features(tmp_path / "feat")
    assert fs.values.shape == (4, 6, 10, 62)
    assert len(fs.channels) == 62


def test_features_offset_off_stride_names_sample(tmp_path):
    samples, bands, channels = feature_fixture()
    write_features(tmp_path / "feat", samples, bands, channels)
    manifest = json.loads((tmp_path / "feat.json").read_text())
    manifest["samples"][2]["offset"] += 4
    (tmp_path / "feat.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError, match=r"sample 2 offset \d+ != expected"):
        read_features(tmp_path / "feat")


def test_features_negative_label_rejected(tmp_path):
    samples, bands, channels = feature_fixture()
    write_features(tmp_path / "feat", samples, bands, channels)
    manifest = json.loads((tmp_path / "feat.json").read_text())
    manifest["samples"][1]["label"] = -1
    (tmp_path / "feat.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="non-negative"):
        read_features(tmp_path / "feat")


@pytest.mark.parametrize("labels", [
    np.array([0, -1, 1, 0]),                  # negative
    np.array([0, 1, 1]),                      # wrong length
    np.array([[0, 1], [1, 0]]),               # not 1-D
    np.array([0.0, 1.0, 1.0, 0.0]),           # not integers
])
def test_featureset_rejects_bad_labels(labels):
    with pytest.raises(DataError, match="labels"):
        FeatureSet(np.zeros((4, 6, 4, 3)), labels, [{}] * 4, [])


@pytest.mark.parametrize("shape", [(0, 6, 4, 3), (4, 6, 5, 3), (4, 6, 4)])
def test_featureset_rejects_values_no_model_reads(shape):
    # no samples, an odd feature axis (not 2 x bands), no channel axis
    with pytest.raises(DataError, match=r"features: values must be shaped "
                                        r"\(samples >= 1, .* got "
                                        + re.escape(str(shape))):
        FeatureSet(np.zeros(shape), np.zeros(shape[0], int),
                   [{}] * shape[0], [])


@pytest.mark.parametrize("channels", [5, "abc", ["a"], ["a", "b", 3],
                                      ["a", "b", "a"]])
def test_featureset_rejects_bad_channel_names(channels):
    with pytest.raises(DataError, match="channels"):
        FeatureSet(np.zeros((4, 6, 4, 3)), np.zeros(4, int), [{}] * 4, [],
                   channels)


def test_featureset_helpers():
    samples, bands, channels = feature_fixture()
    fs = FeatureSet(np.stack([s.values for s in samples]),
                    np.array([s.label for s in samples]),
                    [s.meta for s in samples], bands, channels)
    assert fs.n_classes == 2
