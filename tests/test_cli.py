"""CLI: full pipeline end to end on a tiny dataset, plus exit-code contract."""

import json
import os
import re
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from amdet.cli import build_parser, main
from amdet.data import (default_synth_spec, read_features, synth_generate,
                        write_features, write_recording)
from amdet.features import DEAP_BANDS, SampleTensor
from amdet.harness import kfold_split


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def pipeline(workdir):
    """synth -> preprocess -> train once; later tests reuse the artifacts."""
    rec = workdir / "rec"
    feat = workdir / "feat"
    run = workdir / "run"
    assert main(["synth", "--out", str(rec),
                 "--set", "trials_per_class=4",
                 "--set", "trial_seconds=6.0",
                 "--set", "channels=8",
                 "--set", 'planted=[{"class_index":0,"channels":[0,1],"lo_hz":8,"hi_hz":14,"amplitude":2.0},'
                          '{"class_index":1,"channels":[0,1],"lo_hz":14,"hi_hz":31,"amplitude":2.0},'
                          '{"class_index":2,"channels":[0,1],"lo_hz":4,"hi_hz":8,"amplitude":2.0}]',
                 "--set", "seed=4"]) == 0
    assert main(["preprocess", "--recording", str(rec), "--out", str(feat),
                 "--set", 'bands="deap"']) == 0
    assert main(["train", "--features", str(feat), "--out", str(run),
                 "--set", "folds=2", "--set", "epochs=3",
                 "--set", "optimizer.batch_size=8"]) == 0
    return workdir


def test_synth_and_preprocess_artifacts(pipeline):
    assert (pipeline / "rec.json").exists()
    assert (pipeline / "rec.f32").exists()
    manifest = json.loads((pipeline / "feat.json").read_text())
    assert manifest["version"] == 1
    assert manifest["shape"] == [6, 8, 8]
    assert len(manifest["channels"]) == 8


def test_train_artifacts(pipeline):
    report = json.loads((pipeline / "run" / "report.json").read_text())
    assert len(report["fold_accuracies"]) == 2
    assert (pipeline / "run" / "fold0.amdw.json").exists()
    assert (pipeline / "run" / "fold0.amdw.f32").exists()
    assert (pipeline / "run" / "loss.csv").exists()


def test_eval_prints_accuracy(pipeline, capsys):
    code = main(["eval", "--checkpoint", str(pipeline / "run" / "fold0.amdw"),
                 "--features", str(pipeline / "feat")])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 <= out["accuracy"] <= 1.0
    assert len(out["confusion"]) == 3


def test_attribute_and_reduce_channels(pipeline, capsys):
    attrib = pipeline / "attrib"
    code = main(["attribute", "--checkpoint",
                 str(pipeline / "run" / "fold0.amdw"),
                 "--features", str(pipeline / "feat"),
                 "--out", str(attrib), "--topk", "2,4"])
    assert code == 0
    assert (attrib / "channel_scores.csv").exists()
    assert (attrib / "topk_2.json").exists()
    assert (attrib / "topk_4.json").exists()
    capsys.readouterr()

    sweep = pipeline / "sweep"
    code = main(["reduce-channels", "--features", str(pipeline / "feat"),
                 "--scores", str(attrib / "channel_scores.csv"),
                 "--out", str(sweep), "--ks", "8,4",
                 "--set", "folds=2", "--set", "epochs=2",
                 "--set", "optimizer.batch_size=8"])
    assert code == 0
    lines = (sweep / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "k,mean,std"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [8, 4]


def test_reduce_channels_malformed_scores_exit_code_2(pipeline, capsys):
    """Rank 0 twice and no rank 1 is no ranking, though the rows left over
    would still form a permutation."""
    scores = pipeline / "dup_rank.csv"
    scores.write_text("channel_name,score,rank\n" + "".join(
        f"ch{i},0.5,{r}\n" for i, r in enumerate([0, 0, 2, 3, 4, 5, 6, 7])))
    capsys.readouterr()
    assert main(["reduce-channels", "--features", str(pipeline / "feat"),
                 "--scores", str(scores), "--out", str(pipeline / "dup"),
                 "--ks", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "dup_rank.csv" in err, err


def test_count_with_features(pipeline, capsys):
    assert main(["count", "--features", str(pipeline / "feat")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["params"] > 0
    assert out["flops_per_forward"] > 0
    assert out["mlp_ratio"] == 32


def test_count_with_explicit_dims(capsys):
    assert main(["count", "--set", "model.channels=62",
                 "--set", "model.bands=5", "--set", "model.frames=6",
                 "--set", "model.classes=3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["params"] == 274868


def test_usage_error_exit_code_1(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["train", "--features", "x"]) == 1      # missing --out
    assert main(["synth", "--out", "/tmp/x", "--set", "oops"]) == 1


def test_numerical_failure_exit_code_3(pipeline, capsys):
    code = main(["train", "--features", str(pipeline / "feat"),
                 "--out", str(pipeline / "diverge"),
                 "--set", "folds=2", "--set", "epochs=40",
                 "--set", "optimizer.lr=1e18",
                 "--set", "optimizer.batch_size=8"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_data_error_exit_code_2(workdir, capsys):
    assert main(["train", "--features", str(workdir / "missing"),
                 "--out", str(workdir / "nope")]) == 2
    assert main(["eval", "--checkpoint", str(workdir / "missing.amdw"),
                 "--features", str(workdir / "feat")]) == 2
    bad = workdir / "bad.json"
    bad.write_text("{not json")
    assert main(["synth", "--out", str(workdir / "x"),
                 "--config", str(bad)]) == 2
    # a FEAT manifest shape that is not three positive integers
    write_features(workdir / "shape", [SampleTensor(np.zeros((6, 8, 4)), 0),
                                       SampleTensor(np.ones((6, 8, 4)), 1)],
                   DEAP_BANDS)
    manifest = json.loads((workdir / "shape.json").read_text())
    cases = [(dict(manifest, shape=shape), "shape") for shape in
             (5, ["a"], [6.0, 8, 16], [6.0, 8, 4], [48, 4])]
    # not an object, and channel names that do not name the 4 channels
    cases += [(5, "JSON object"), (dict(manifest, samples=5), "samples")]
    cases += [(dict(manifest, channels=names), "channels")
              for names in (5, "abcd", ["a"], ["a"] * 4)]
    # a label that is not an integer, or too large for int64
    cases += [(dict(manifest, samples=[dict(manifest["samples"][0],
                                            label=label),
                                       manifest["samples"][1]]), named)
              for label, named in ((1.7, "label"), (True, "label"),
                                   ("1", "label"),
                                   (10 ** 30, "malformed manifest"))]
    for bad, named in cases:
        (workdir / "shape.json").write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["count", "--features", str(workdir / "shape")]) == 2, \
            bad
        err = capsys.readouterr().err
        assert err.startswith("data error:") and named in err, err
    # EEGR manifests: not an object, channels not a list, no channels, a
    # sample rate that is not a positive finite number
    write_recording(workdir / "badrec", synth_generate(default_synth_spec(
        channels=4, trials_per_class=1, trial_seconds=2.0)))
    manifest = json.loads((workdir / "badrec.json").read_text())
    for bad in (5, dict(manifest, channels=5), dict(manifest, channels=[]),
                dict(manifest, sample_rate_hz=float("nan")),
                dict(manifest, sample_rate_hz=float("inf"))):
        (workdir / "badrec.json").write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["preprocess", "--recording", str(workdir / "badrec"),
                     "--out", str(workdir / "badfeat")]) == 2, bad
        assert capsys.readouterr().err.startswith("data error:")
    assert not (workdir / "badfeat.json").exists()


def test_unusable_paths_exit_code_2(pipeline, capsys):
    """A config or scores path that is a directory, an --out that is a file
    and an output manifest that is a directory are one-line data errors."""
    afile, adir = pipeline / "afile", pipeline / "adir"
    afile.write_text("")
    adir.mkdir()
    (pipeline / "outdir.json").mkdir()
    feat = str(pipeline / "feat")
    checkpoint = str(pipeline / "run" / "fold0.amdw")
    for argv in (
            ["train", "--features", feat, "--out", str(pipeline / "cfgdir"),
             "--config", str(adir)],
            ["reduce-channels", "--features", feat, "--scores", str(adir),
             "--out", str(pipeline / "scoresdir")],
            ["train", "--features", feat, "--out", str(afile),
             "--set", "folds=2", "--set", "epochs=1"],
            ["attribute", "--checkpoint", checkpoint, "--features", feat,
             "--out", str(afile)],
            ["synth", "--out", str(pipeline / "outdir")]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1, err
    assert not (pipeline / "cfgdir").exists()
    assert not (pipeline / "scoresdir").exists()


def test_eval_negative_label_exit_code_2(pipeline, capsys):
    import shutil
    for ext in (".json", ".f32"):
        shutil.copy(pipeline / f"feat{ext}", pipeline / f"neg{ext}")
    manifest = json.loads((pipeline / "neg.json").read_text())
    manifest["samples"][0]["label"] = -1
    (pipeline / "neg.json").write_text(json.dumps(manifest))
    assert main(["eval", "--checkpoint", str(pipeline / "run" / "fold0.amdw"),
                 "--features", str(pipeline / "neg")]) == 2
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    pytest.param(lambda m: m.update(samples=[]), id="no-samples"),
    pytest.param(lambda m: m.update(shape=[16, 3, 8]), id="odd-feature-axis")])
def test_eval_feature_file_without_samples_or_bands_exit_code_2(
        pipeline, tmp_path, edit, capsys):
    # a FEAT file holds (N >= 1, F, 2f, C) values: zero samples once printed
    # accuracy 0.0 and exited 0
    manifest = json.loads((pipeline / "feat.json").read_text())
    edit(manifest)
    (tmp_path / "bad.json").write_text(json.dumps(manifest))
    (tmp_path / "bad.f32").write_bytes(
        (pipeline / "feat.f32").read_bytes() if manifest["samples"] else b"")
    assert main(["eval", "--checkpoint", str(pipeline / "run" / "fold0.amdw"),
                 "--features", str(tmp_path / "bad")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {tmp_path / 'bad'}: features: "), err


def test_train_label_beyond_sample_count_exit_code_2(pipeline, capsys):
    # classes would be max label + 1: a 10**12 label must not size an array
    import shutil
    for ext in (".json", ".f32"):
        shutil.copy(pipeline / f"feat{ext}", pipeline / f"huge{ext}")
    manifest = json.loads((pipeline / "huge.json").read_text())
    manifest["samples"][0]["label"] = 10 ** 12
    (pipeline / "huge.json").write_text(json.dumps(manifest))
    assert main(["train", "--features", str(pipeline / "huge"),
                 "--out", str(pipeline / "hugerun")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {pipeline / 'huge'}: ") and \
        "labels" in err, err
    assert not (pipeline / "hugerun").exists()


@pytest.mark.parametrize("trial", ["x", None, [1], 1.5, True],
                         ids=["string", "null", "list", "float", "bool"])
def test_bad_trial_id_exit_code_2(pipeline, trial, capsys):
    # trial folds read every sample's meta.trial; true must not join trial 1
    import shutil
    for ext in (".json", ".f32"):
        shutil.copy(pipeline / f"feat{ext}", pipeline / f"trialid{ext}")
    manifest = json.loads((pipeline / "trialid.json").read_text())
    manifest["samples"][1]["meta"]["trial"] = trial
    (pipeline / "trialid.json").write_text(json.dumps(manifest))
    assert main(["train", "--features", str(pipeline / "trialid"),
                 "--out", str(pipeline / "trialrun"),
                 "--set", 'split_mode="trial"', "--set", "folds=2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: trial mode: sample 1 meta.trial "
                          "must be"), err
    assert not (pipeline / "trialrun").exists()


def test_config_file_with_set_override(workdir, capsys):
    config = workdir / "synth.json"
    config.write_text(json.dumps({"trials_per_class": 2, "channels": 4,
                                  "n_classes": 2, "trial_seconds": 3.0,
                                  "planted": [], "seed": 1}))
    out = workdir / "cfgrec"
    assert main(["synth", "--out", str(out), "--config", str(config),
                 "--set", "channels=6"]) == 0
    manifest = json.loads((out.with_suffix(".json")).read_text())
    assert len(manifest["channels"]) == 6                # override applied
    assert len(manifest["trials"]) == 4                  # file value kept


@pytest.mark.parametrize("override, named", [
    ('epochs="x"', "epochs"),
    ("folds=2.5", "folds"),
    ("optimizer.batch_size=0", "batch_size"),
    ('optimizer.lr_schedule="step"', "lr_schedule"),
    ('optimizer.lr="fast"', "lr"),
    ("optimizer=3", "optimizer"),
    ('model.channels="4"', "channels"),
    ('model.ablate="classifier"', "ablate"),
    ('ablate="spatial"', "ablate"),
    ("optimizer.grad_clip=1.0", "grad_clip"),
    ("optimizer.beta1=0.9", "beta1"),
    ("optimizer.beta2=0.999", "beta2"),
    ("optimizer.eps=1e-8", "eps"),
    ('features="x"', "features"),
    ("model.seed=5", "model.seed"),
    ("seed=-1", "seed"),
    ("optimizer.lr=-1", "lr"),
    ("optimizer.weight_decay=-5", "weight_decay"),
    ("optimizer.lr=1e400", "lr"),           # JSON for inf
    ("model.spectral_heads=0", "spectral_heads"),
    ("model.spatial_heads=-1", "spatial_heads"),
    ("model.bands=0", "bands"),
    ("model.frames=0", "frames"),
    ("model.spectral_layers=0", "spectral_layers"),
    ("model.classes=1", "classes"),
    ("epochs=0", "epochs"),
    ("folds=1", "folds"),
])
def test_bad_config_field_exit_code_2(pipeline, override, named, capsys):
    assert main(["train", "--features", str(pipeline / "feat"),
                 "--out", str(pipeline / "badcfg"), "--set", override]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and named in err
    assert not (pipeline / "badcfg").exists()


@pytest.mark.parametrize("command", ["train", "reduce-channels", "count"])
@pytest.mark.parametrize("source", ["set", "config"])
def test_out_dir_key_exits_2_and_writes_nothing(pipeline, command, source,
                                                capsys):
    """--out alone says where a run writes, so an out_dir key is refused
    before anything is read or written; count, which has no --out, too."""
    out = pipeline / f"outdir-{command}-{source}"
    if source == "set":
        given = ["--set", f'out_dir="{out}"']
    else:
        config = pipeline / f"outdir-{command}.json"
        config.write_text(json.dumps({"out_dir": str(out)}))
        given = ["--config", str(config)]
    scores = pipeline / "scores_outdir.csv"
    scores.write_text("channel_name,score,rank\n" + "".join(
        f"ch{c:02d},{8 - c},{c}\n" for c in range(8)))
    argv = {"train": ["--features", str(pipeline / "feat"), "--out",
                      str(out)],
            "reduce-channels": ["--features", str(pipeline / "feat"),
                                "--scores", str(scores), "--out", str(out),
                                "--ks", "4"],
            "count": ["--features", str(pipeline / "feat")]}[command]
    capsys.readouterr()
    assert main([command, *argv, *given, "--set", "folds=2",
                 "--set", "epochs=1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "out_dir" in err, err
    assert not out.exists()


def test_config_file_must_be_an_object(workdir, capsys):
    config = workdir / "list.json"
    config.write_text("[1, 2]")
    assert main(["train", "--features", str(workdir / "feat"),
                 "--out", str(workdir / "x"), "--config", str(config)]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("override, named", [
    ("sample_second=2.0", "sample_second"),
    ('sample_seconds="x"', "sample_seconds"),
    ('binarize_threshold="x"', "binarize_threshold"),
    ("frame_seconds=0", "frame_seconds"),
    ('bands=[{"name": "a"}]', "bands"),
    ('bands=[{"name": "a", "lo_hz": "x", "hi_hz": 8}]', "lo_hz"),
    ('normalize="no"', "normalize"),
    ("subtract_baseline=false", "subtract_baseline"),
    ("baseline_psd=true", "baseline_psd"),
    ("bands=5", "bands"),
    ("sample_seconds=NaN", "sample_seconds"),
    ("frame_seconds=1e400", "frame_seconds"),
    ("frame_seconds=5e-324", "frame_seconds"),
    ("sample_seconds=1e-12", "sample_seconds"),
    ("frame_seconds=1e-12", "frame_seconds"),
])
def test_bad_preprocess_config_exit_code_2(pipeline, override, named, capsys):
    out = pipeline / "badprep"
    assert main(["preprocess", "--recording", str(pipeline / "rec"),
                 "--out", str(out), "--set", override]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and named in err
    assert not out.with_suffix(".json").exists()


def test_eval_rejects_config_keys(pipeline, capsys):
    # eval takes everything from the checkpoint: --set is not an option
    assert main(["eval", "--checkpoint", str(pipeline / "run" / "fold0.amdw"),
                 "--features", str(pipeline / "feat"),
                 "--set", 'remove="spatial"']) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "usage error" in captured.err
    assert "--set" in captured.err


def test_ablated_checkpoint_evaluates_as_trained(pipeline, capsys):
    run = pipeline / "nospatial"
    assert main(["train", "--features", str(pipeline / "feat"),
                 "--out", str(run), "--set", 'model.ablate="spatial"',
                 "--set", "folds=2", "--set", "epochs=1",
                 "--set", "optimizer.batch_size=8"]) == 0
    report = json.loads((run / "report.json").read_text())
    assert report["ablate"] == "spatial"
    # fold 0's test samples, as train split them (seed 0, segment mode)
    fs = read_features(pipeline / "feat")
    _, test = kfold_split(fs.n_samples, 2, "segment", 0)[0]
    write_features(pipeline / "fold0_test",
                   [SampleTensor(fs.values[i], int(fs.labels[i]))
                    for i in test], fs.bands)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "fold0.amdw"),
                 "--features", str(pipeline / "fold0_test")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["accuracy"] == report["fold_accuracies"][0]
    assert main(["attribute", "--checkpoint", str(run / "fold0.amdw"),
                 "--features", str(pipeline / "feat"),
                 "--out", str(pipeline / "attrib_ablated")]) == 2
    assert "spatial" in capsys.readouterr().err
    assert not (pipeline / "attrib_ablated").exists()


def test_attribute_rejects_config_keys(pipeline, capsys):
    assert main(["attribute", "--checkpoint",
                 str(pipeline / "run" / "fold0.amdw"),
                 "--features", str(pipeline / "feat"),
                 "--out", str(pipeline / "attrib_cfg"),
                 "--set", 'target_layer="spatial"']) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--set" in err
    assert not (pipeline / "attrib_cfg").exists()


def test_synth_set_keeps_default_planted_signatures(tmp_path):
    # the README's walkthrough command: --set overrides one field of the
    # default spec, it does not drop the default planted signatures
    assert main(["synth", "--out", str(tmp_path / "cli"),
                 "--set", "seed=7"]) == 0
    write_recording(tmp_path / "lib", synth_generate(default_synth_spec(seed=7)))
    for ext in (".json", ".f32"):
        assert (tmp_path / f"cli{ext}").read_bytes() == \
            (tmp_path / f"lib{ext}").read_bytes()


def test_rating_labels_need_binarize_threshold(tmp_path, capsys):
    rec = synth_generate(default_synth_spec(
        channels=4, trials_per_class=2, trial_seconds=3.0))
    write_recording(tmp_path / "rec", rec)
    manifest = json.loads((tmp_path / "rec.json").read_text())
    for trial, rating in zip(manifest["trials"], [1.5, 7.0, 3.2, 8.8, 5.5, 2]):
        trial["label"] = rating
    (tmp_path / "rec.json").write_text(json.dumps(manifest))
    command = ["preprocess", "--recording", str(tmp_path / "rec"),
               "--out", str(tmp_path / "feat"), "--set", 'bands="deap"']
    assert main(command) == 2
    assert "binarize_threshold" in capsys.readouterr().err
    assert not list(tmp_path.glob("feat*"))
    assert main(command + ["--set", "binarize_threshold=5"]) == 0
    assert sorted(set(read_features(tmp_path / "feat").labels)) == [0, 1]


PLANTED = '{"class_index":0,"channels":[0],"lo_hz":8,"hi_hz":14,"amplitude":2.0'


@pytest.mark.parametrize("override, named", [
    ("channels=16.5", "channels"),
    ("trials_per_class=2.5", "trials_per_class"),
    ("n_classes=2.0", "n_classes"),
    ('seed="x"', "seed"),
    ("seed=-1", "seed"),
    ("baseline_seconds=-1", "baseline_seconds"),
    ("sample_rate_hz=1e400", "sample_rate_hz"),
    ("trial_seconds=NaN", "trial_seconds"),
    ("noise_scale=NaN", "noise_scale"),
    ("baseline_seconds=1e400", "baseline_seconds"),
    ("sample_rate_hz=1e300", "sample_rate_hz"),
    ("trial_seconds=1e-300", "trial_seconds"),
    ("planted=[" + PLANTED.replace("[0]", "[1.5]") + "}]", "channels"),
    ("planted=[" + PLANTED.replace("[0]", "5") + "}]", "channels"),
    ("planted=[" + PLANTED.replace(":0,", ":0.5,") + "}]", "class_index"),
    ("planted=[" + PLANTED + ',"colour":1}]', "colour"),
    ("planted=[" + PLANTED.replace(',"amplitude":2.0', "") + "}]",
     "amplitude"),
    ("planted=5", "planted"),
    ("planted=[1]", "planted"),
])
def test_bad_synth_config_exit_code_2(tmp_path, override, named, capsys):
    assert main(["synth", "--out", str(tmp_path / "rec"),
                 "--set", override]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and named in err
    assert not (tmp_path / "rec.json").exists()


def test_synth_with_too_many_trials_exits_2_before_synthesis(
        tmp_path, monkeypatch, capsys):
    """3 x 10**7 one-sample trials pass both value caps but not the trial
    cap, which refuses them before a trial is made."""
    def never(spec):
        raise AssertionError("synthesis began")
    monkeypatch.setattr("amdet.data.synth_generate", never)
    assert main(["synth", "--out", str(tmp_path / "rec"),
                 *[word for field in ("channels=1", "trial_seconds=0.01",
                                      "trials_per_class=10000000",
                                      "planted=[]")
                   for word in ("--set", field)]]) == 2
    assert capsys.readouterr().err == (
        "data error: synth: trials 30000000 is over the cap of 100000 "
        "(n_classes=3, trials_per_class=10000000)\n")


@pytest.mark.parametrize("argv", [
    ["attribute", "--checkpoint", "m.amdw", "--features", "f", "--out", "a",
     "--topk", "x"],
    ["attribute", "--checkpoint", "m.amdw", "--features", "f", "--out", "a",
     "--topk", "4,0"],
    ["reduce-channels", "--features", "f", "--scores", "s.csv", "--out", "a",
     "--ks", "a"],
    ["reduce-channels", "--features", "f", "--scores", "s.csv", "--out", "a",
     "--ks", "8,-4"],
])
def test_bad_k_list_is_a_usage_error_before_any_work(argv, monkeypatch,
                                                     capsys):
    def never(*args, **kwargs):
        raise AssertionError("ran before the arguments were checked")
    monkeypatch.setattr("amdet.attribution.rank_channels", never)
    monkeypatch.setattr("amdet.data.read_features", never)
    assert main(argv) == 1
    assert "integers >= 1" in capsys.readouterr().err


def _never(*args, **kwargs):
    raise AssertionError("ran before k was checked against the channels")


def test_attribute_k_above_channel_count_fails_before_scoring(
        pipeline, monkeypatch, capsys):
    monkeypatch.setattr("amdet.attribution.rank_channels", _never)
    out = pipeline / "attrib_k99"
    assert main(["attribute", "--checkpoint",
                 str(pipeline / "run" / "fold0.amdw"),
                 "--features", str(pipeline / "feat"), "--out", str(out),
                 "--topk", "4,99"]) == 2
    assert "k=99 out of range 1..8" in capsys.readouterr().err
    assert not out.exists()


def test_checkpoint_that_does_not_fit_the_features_names_both_files(
        tmp_path, monkeypatch, capsys):
    """A SEED-shaped 62-channel checkpoint against a 16-channel feature
    file: eval and attribute refuse the pair once both are read, before any
    label check or forward, naming both files and both sample shapes."""
    from amdet.checkpoint import save_checkpoint
    from amdet.model import ModelConfig, init_params

    monkeypatch.setattr("amdet.harness.evaluate", _never)
    monkeypatch.setattr("amdet.attribution.rank_channels", _never)
    cfg = ModelConfig(channels=62, bands=5, frames=6, classes=3)
    checkpoint, feat = tmp_path / "c62.amdw", tmp_path / "c16"
    save_checkpoint(checkpoint, init_params(cfg), cfg)
    rng = np.random.default_rng(0)
    write_features(feat, [SampleTensor(rng.normal(size=(6, 8, 16)), i % 3)
                          for i in range(4)], DEAP_BANDS)
    for argv in (["eval"], ["attribute", "--out", str(tmp_path / "a")]):
        assert main([*argv, "--checkpoint", str(checkpoint),
                     "--features", str(feat)]) == 2
        assert capsys.readouterr().err == (
            f"data error: checkpoint {checkpoint} reads samples shaped "
            f"(6, 10, 62), feature file {feat} holds (6, 8, 16)\n")
    assert not (tmp_path / "a").exists()


def test_reduce_channels_k_above_channel_count_fails_before_training(
        pipeline, monkeypatch, capsys):
    monkeypatch.setattr("amdet.harness.fit", _never)
    scores = pipeline / "scores_k99.csv"
    scores.write_text("channel_name,score,rank\n" + "".join(
        f"ch{c:02d},{8 - c},{c}\n" for c in range(8)))
    out = pipeline / "sweep_k99"
    assert main(["reduce-channels", "--features", str(pipeline / "feat"),
                 "--scores", str(scores), "--out", str(out),
                 "--ks", "8,99"]) == 2
    assert "k=99 out of range 1..8" in capsys.readouterr().err
    assert not out.exists()


def test_reduce_channels_short_ranking_fails_before_training(
        pipeline, monkeypatch, capsys):
    """A scores file ranking 7 of the features' 8 channels is not a
    permutation of them; read_ranking_csv refuses it before any fold
    fits."""
    monkeypatch.setattr("amdet.harness.fit", _never)
    scores = pipeline / "scores_short.csv"
    scores.write_text("channel_name,score,rank\n" + "".join(
        f"ch{c:02d},{8 - c},{c}\n" for c in range(7)))
    out = pipeline / "sweep_short"
    assert main(["reduce-channels", "--features", str(pipeline / "feat"),
                 "--scores", str(scores), "--out", str(out),
                 "--ks", "4"]) == 2
    assert "scores_short.csv: 7 ranks for 8 channels" in \
        capsys.readouterr().err
    assert not out.exists()


def test_reduce_channels_divergence_names_its_k_and_fold(pipeline, capsys):
    scores = pipeline / "scores_diverge.csv"
    scores.write_text("channel_name,score,rank\n" + "".join(
        f"ch{c:02d},{8 - c},{c}\n" for c in range(8)))
    capsys.readouterr()
    assert main(["reduce-channels", "--features", str(pipeline / "feat"),
                 "--scores", str(scores), "--out",
                 str(pipeline / "sweep_diverge"), "--ks", "3",
                 "--set", "folds=2", "--set", "epochs=1",
                 "--set", "optimizer.lr=1000000000000"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: k=3: fold "), err


@pytest.mark.parametrize("command, entries, edit, named", [
    ("preprocess", "trials", {"subject": 3},
     "trial: got an unexpected keyword argument 'subject'"),
    ("preprocess", "trials", {"start": None},
     "trial: missing a required argument: 'start'"),
    ("count", "bands", {"unit": "Hz"},
     "band: got an unexpected keyword argument 'unit'"),
    ("count", "bands", {"lo_hz": None},
     "band: missing a required argument: 'lo_hz'"),
], ids=["trial-unknown", "trial-missing", "band-unknown", "band-missing"])
def test_manifest_entry_key_errors_exit_2_naming_the_key(
        pipeline, capsys, command, entries, edit, named):
    """A trial or band entry with a key its record lacks, or without one
    it needs (None marks a key left out), is a data error naming the key."""
    base = {"preprocess": "rec", "count": "feat"}[command]
    manifest = json.loads((pipeline / f"{base}.json").read_text())
    entry = manifest[entries][0]
    entry.update(edit)
    manifest[entries][0] = {k: v for k, v in entry.items() if v is not None}
    edited = pipeline / f"{base}-{entries}-keys"
    edited.with_suffix(".json").write_text(json.dumps(manifest))
    edited.with_suffix(".f32").write_bytes(
        (pipeline / f"{base}.f32").read_bytes())
    argv = {"preprocess": ["--recording", str(edited), "--out",
                           str(pipeline / "keys-feat")],
            "count": ["--features", str(edited)]}[command]
    capsys.readouterr()
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {edited}: {named}"), err
    assert not (pipeline / "keys-feat.json").exists()


def test_closed_stdout_ends_count_by_sigpipe():
    """A reader that went away is no data error: count dies of SIGPIPE, as
    cat or head do, and prints nothing."""
    import amdet

    env = {**os.environ,
           "PYTHONPATH": str(Path(amdet.__file__).resolve().parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "amdet.cli", "count",
             "--set", "model.channels=62", "--set", "model.bands=5",
             "--set", "model.frames=6", "--set", "model.classes=3"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert run.stderr == b""
    assert run.returncode == -signal.SIGPIPE


def test_readme_walkthrough_commands_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## CLI walkthrough\s*```\n(.*?)```", readme,
                      re.DOTALL).group(1)
    lines = [shlex.split(line, comments=True)
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["amdet"]]
    assert len(commands) == 7
    for argv in commands:
        assert callable(build_parser().parse_args(argv).run), argv


# the CLI in a process whose address space is capped at 2 GiB, so that an
# allocation the size checks miss fails fast as a MemoryError
LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from amdet.cli import main
sys.exit(main(sys.argv[1:]))
"""
SMALL_MODEL = ["--set", "model.channels=16", "--set", "model.bands=4",
               "--set", "model.frames=6", "--set", "model.classes=3"]


OVERSIZED = ["model.mlp_ratio=1000000", "model.spectral_layers=100000",
             "model.channels=100000", "model.bands=100000",
             "model.classes=1000000000000", "model.frames=1000000000000"]
# 100,000 layers of width 2 hold 4.4M parameters, under the parameter cap;
# count then ran every layer's forward into a MemoryError after 33 s
NARROW_MODEL = [word for field in ("channels=2", "bands=1", "frames=1",
                                   "classes=2", "mlp_ratio=1",
                                   "spectral_heads=1", "spatial_heads=1")
                for word in ("--set", f"model.{field}")]


@pytest.mark.parametrize("command, widths, override", [
    *(pytest.param("count", SMALL_MODEL, o, id=f"count-{o}")
      for o in OVERSIZED),
    pytest.param("count", NARROW_MODEL, "model.spectral_layers=100000",
                 id="count-narrow-model.spectral_layers=100000"),
    pytest.param("train", None, "model.mlp_ratio=1000000",
                 id="train-model.mlp_ratio=1000000")])
def test_oversized_model_is_a_data_error(pipeline, command, widths,
                                         override):
    """Each of these made count end in a MemoryError traceback (exit 1);
    the model config's size caps refuse them first, naming the field."""
    import amdet

    out = pipeline / "oversized"
    argv = widths or ["--features", str(pipeline / "feat"), "--out", str(out)]
    env = {**os.environ,
           "PYTHONPATH": str(Path(amdet.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", LIMITED_CLI, command, *argv,
                          "--set", override], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("data error: model config: ")
    assert override.removeprefix("model.") in run.stderr
    assert "Traceback" not in run.stderr and not out.exists()
