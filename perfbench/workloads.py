"""The benchmark's workloads: set-up, one operation, and its correctness checks.

Every workload is a closed loop of identical operations on inputs that
``synth_generate`` makes from the workload seed during set-up. Calls go
through module attributes (``harness.train``, ``checkpoint.load_checkpoint``)
so that the tracer's wrappers see them.

- ``kfold-c16``: the default synthetic set (3 classes, 16 channels, DEAP
  bands). A training step is small (82 tape nodes, 41 MFLOP of forward
  matmuls at batch 16), so per-op Python and ``Tape.backward`` bookkeeping
  dominate.
- ``kfold-c62``: the SEED shape (62 channels, 200 Hz, 5 bands, 3 s
  baselines, MLP width 1984) with trial-level folds. Same node count at
  ~14.5x the matmul work, so GEMM kernels dominate.
- ``explain-c32``: a DEAP-shaped recording on disk run through read ->
  features (baseline subtraction) -> FEAT write/read -> checkpoint load ->
  evaluate -> Grad-CAM ranking. No training; the one workload where
  ``features``, ``data`` I/O and ``attribution`` do most of the work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from amdet import attribution, checkpoint, data, features, harness
from amdet.engine import OptimizerConfig
from amdet.features import DEAP_BANDS, SEED_BANDS
from amdet.model import ModelConfig

PLANTED_CHANNELS = {0, 1, 2}


def _planted(amplitude: float, classes: int) -> tuple[data.PlantedSignal, ...]:
    """The default planted signatures (channels 0-2) at another amplitude."""
    return tuple(replace(p, amplitude=amplitude)
                 for p in data.default_synth_spec().planted[:classes])


@dataclass
class OpResult:
    """What one operation produced, as the checks and metrics need it."""

    accuracy: float
    fingerprint: bytes        # equal for every operation on one seed
    planted_top4_hits: int = 0
    detail: object = None


class KFold:
    """One operation: a k-fold ``harness.train`` writing all artifacts."""

    def __init__(self, spec: data.SynthSpec, bands, folds: int, epochs: int,
                 split_mode: str, optimizer: OptimizerConfig,
                 accuracy_floor: float):
        self.spec, self.bands = spec, tuple(bands)
        self.folds, self.epochs, self.split_mode = folds, epochs, split_mode
        self.optimizer, self.accuracy_floor = optimizer, accuracy_floor

    def setup(self, seed: int, workdir: Path) -> dict:
        rec = data.synth_generate(replace(self.spec, seed=seed))
        samples = features.extract_features(rec, self.bands)
        fs = data.FeatureSet(np.stack([s.values for s in samples]),
                             np.array([s.label for s in samples]),
                             [s.meta for s in samples], list(self.bands),
                             list(rec.channels))
        return {"features": fs, "seed": seed}

    def _splits(self, state: dict):
        fs = state["features"]
        return harness.kfold_split(fs.n_samples, self.folds, self.split_mode,
                                   state["seed"], fs.metas)

    def run(self, state: dict, out_dir: Path) -> OpResult:
        config = harness.ExperimentConfig(
            out_dir=str(out_dir), seed=state["seed"], folds=self.folds,
            split_mode=self.split_mode, epochs=self.epochs,
            optimizer=self.optimizer)
        report = harness.train(config, state["features"])
        return OpResult(
            accuracy=report.mean_accuracy,
            fingerprint=json.dumps([report.fold_accuracies,
                                    report.loss_curves]).encode(),
            detail=report)

    def samples_per_op(self, state: dict) -> int:
        """Training samples one operation processes: folds x epochs x train."""
        return self.epochs * sum(len(train) for train, _ in self._splits(state))

    def check(self, state: dict, result: OpResult, out_dir: Path) -> list[str]:
        problems = []
        report = result.detail
        if not result.accuracy >= self.accuracy_floor:
            problems.append(f"mean accuracy {result.accuracy:.4f} below the "
                            f"floor {self.accuracy_floor}")
        on_disk = json.loads((out_dir / "report.json").read_text())
        if on_disk["fold_accuracies"] != report.fold_accuracies:
            problems.append("report.json disagrees with the returned report")
        rows = (out_dir / "loss.csv").read_text().splitlines()
        if len(rows) != 1 + self.folds * self.epochs:
            problems.append(f"loss.csv has {len(rows)} lines")
        fs = state["features"]
        confusion = np.zeros_like(np.asarray(report.confusion))
        for fold, (_, test) in enumerate(self._splits(state)):
            params, cfg, extra = checkpoint.load_checkpoint(
                out_dir / f"fold{fold}.amdw")
            acc, conf = harness.evaluate(params, cfg, fs.values[test],
                                         fs.labels[test])
            confusion += conf
            if acc != report.fold_accuracies[fold] or \
                    extra.get("accuracy") != report.fold_accuracies[fold]:
                problems.append(
                    f"fold {fold}: reloaded checkpoint accuracy {acc} != "
                    f"in-memory {report.fold_accuracies[fold]}")
        if confusion.tolist() != report.confusion:
            problems.append("reloaded checkpoints predict differently from "
                            "the in-memory models")
        return problems


class Explain:
    """One operation: recording on disk -> features -> FEAT file -> model
    load -> evaluate -> channel ranking over every sample."""

    def __init__(self, spec: data.SynthSpec, bands, train_epochs: int,
                 accuracy_floor: float, min_planted_hits: int):
        self.spec, self.bands = spec, tuple(bands)
        self.train_epochs = train_epochs
        self.accuracy_floor = accuracy_floor
        self.min_planted_hits = min_planted_hits

    def setup(self, seed: int, workdir: Path) -> dict:
        rec = data.synth_generate(replace(self.spec, seed=seed))
        data.write_recording(workdir / "recording", rec)
        samples = features.extract_features(rec, self.bands)
        x = np.stack([s.values for s in samples])
        y = np.array([s.label for s in samples])
        cfg = ModelConfig(channels=x.shape[3], bands=len(self.bands),
                          frames=x.shape[1], classes=self.spec.n_classes,
                          seed=seed)
        params, _ = harness.fit(x, y, cfg, OptimizerConfig(),
                                self.train_epochs, shuffle_seed=seed)
        checkpoint.save_checkpoint(workdir / "model.amdw", params, cfg)
        return {"recording": workdir / "recording",
                "model": workdir / "model.amdw", "n_samples": len(samples)}

    def samples_per_op(self, state: dict) -> int:
        return state["n_samples"]

    def run(self, state: dict, out_dir: Path) -> OpResult:
        rec = data.read_recording(state["recording"])
        samples = features.extract_features(rec, self.bands)
        data.write_features(out_dir / "features", samples, self.bands,
                            channels=rec.channels)
        fs = data.read_features(out_dir / "features")
        params, cfg, _ = checkpoint.load_checkpoint(state["model"])
        accuracy, _ = harness.evaluate(params, cfg, fs.values, fs.labels)
        ranked = attribution.rank_channels(params, cfg, fs.values, fs.labels)
        hits = len(PLANTED_CHANNELS & set(ranked.ranking[:4]))
        return OpResult(accuracy=accuracy,
                        fingerprint=ranked.scores.tobytes(),
                        planted_top4_hits=hits,
                        detail=(samples, fs, ranked))

    def check(self, state: dict, result: OpResult, out_dir: Path) -> list[str]:
        problems = []
        samples, fs, ranked = result.detail
        if not result.accuracy >= self.accuracy_floor:
            problems.append(f"accuracy {result.accuracy:.4f} below the floor "
                            f"{self.accuracy_floor}")
        if result.planted_top4_hits < self.min_planted_hits:
            problems.append(f"top 4 channels {ranked.ranking[:4]} hold "
                            f"{result.planted_top4_hits} planted channels")
        written = np.stack([s.values for s in samples]).astype("<f4")
        if not np.array_equal(fs.values, written.astype(np.float64)) or \
                fs.labels.tolist() != [s.label for s in samples]:
            problems.append("FEAT round trip changed the features")
        if not np.all(np.isfinite(ranked.scores)):
            problems.append("non-finite channel scores")
        return problems


# name -> size -> workload. "small" keeps every code path at a size the
# benchmark's own tests run in seconds; its floors are 0 because a model
# trained that briefly has learned nothing yet.
WORKLOADS = {
    "kfold-c16": {
        "full": lambda: KFold(data.default_synth_spec(), DEAP_BANDS, folds=5,
                              epochs=3, split_mode="segment",
                              optimizer=OptimizerConfig(),
                              accuracy_floor=0.8),
        "small": lambda: KFold(data.default_synth_spec(trials_per_class=4),
                               DEAP_BANDS, folds=2, epochs=1,
                               split_mode="segment",
                               optimizer=OptimizerConfig(),
                               accuracy_floor=0.0),
    },
    # amplitude 6, lr 3e-3 and 21 trials: six steps per fold must separate
    # the classes well enough that accuracy stays steady across seeds
    "kfold-c62": {
        "full": lambda: KFold(
            data.SynthSpec(n_classes=3, channels=62, sample_rate_hz=200.0,
                           trial_seconds=15.0, trials_per_class=7,
                           planted=_planted(6.0, 3), baseline_seconds=3.0),
            SEED_BANDS, folds=5, epochs=1, split_mode="trial",
            optimizer=OptimizerConfig(lr=3e-3), accuracy_floor=0.7),
        "small": lambda: KFold(
            data.SynthSpec(n_classes=3, channels=62, sample_rate_hz=200.0,
                           trial_seconds=6.0, trials_per_class=2,
                           planted=_planted(6.0, 3), baseline_seconds=3.0),
            SEED_BANDS, folds=2, epochs=1, split_mode="trial",
            optimizer=OptimizerConfig(lr=3e-3), accuracy_floor=0.0),
    },
    # amplitude 4: one training epoch then ranks all three planted channels
    # in the top 4 on every seed tried
    "explain-c32": {
        "full": lambda: Explain(
            data.SynthSpec(n_classes=2, channels=32, sample_rate_hz=128.0,
                           trial_seconds=60.0, trials_per_class=10,
                           planted=_planted(4.0, 2), baseline_seconds=3.0),
            DEAP_BANDS, train_epochs=1, accuracy_floor=0.9,
            min_planted_hits=2),
        "small": lambda: Explain(
            data.SynthSpec(n_classes=2, channels=32, sample_rate_hz=128.0,
                           trial_seconds=6.0, trials_per_class=2,
                           planted=_planted(4.0, 2), baseline_seconds=3.0),
            DEAP_BANDS, train_epochs=1, accuracy_floor=0.0,
            min_planted_hits=0),
    },
}
