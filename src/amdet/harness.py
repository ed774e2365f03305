"""Experiment drivers: k-fold training, evaluation, ablation, sweeps, reports.

Everything here is deterministic in the experiment seed: fold assignment,
per-fold weight init, and minibatch order all derive from it, so rerunning a
config reproduces the report numbers exactly.
"""

from __future__ import annotations

import json
import numbers
import time
from dataclasses import dataclass, field, asdict, replace
from math import gcd
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint
from .data import FeatureSet, csv_text, replace_files
from .engine import AdamW, OptimizerConfig, Tape
from .errors import (DataError, NumericalError, build, check_labels,
                     check_numbers)
from .model import (ModelConfig, forward, forward_flops, init_params,
                    param_count, predict, wrap_params)

SPLIT_MODES = ("segment", "trial")
K_GRID_STRIDE = 4


@dataclass
class ExperimentConfig:
    out_dir: str = ""
    seed: int = 0
    folds: int = 5
    split_mode: str = "segment"
    epochs: int = 100
    # a mapping of OptimizerConfig fields is built into one
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    model: dict = field(default_factory=dict)   # ModelConfig field overrides

    def __post_init__(self):
        check_numbers("config", numbers.Integral, ">= 0", seed=self.seed)
        check_numbers("config", numbers.Integral, ">= 2", folds=self.folds)
        check_numbers("config", numbers.Integral, ">= 1", epochs=self.epochs)
        if not isinstance(self.optimizer, OptimizerConfig):
            self.optimizer = build("optimizer", OptimizerConfig,
                                   self.optimizer)
        if not isinstance(self.model, dict):
            raise DataError(f"config: model must be a mapping, got "
                            f"{self.model!r}")
        if "seed" in self.model:
            raise DataError("config: model.seed: set the top-level seed "
                            "instead")
        if self.split_mode not in SPLIT_MODES:
            raise DataError(f"config: split_mode must be one of "
                            f"{SPLIT_MODES}, got {self.split_mode!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return build("config", cls, d)

    def model_config(self, features: FeatureSet | None = None) -> ModelConfig:
        """Resolve the model shape from the feature file plus overrides,
        seeded with the experiment seed."""
        resolved = dict(self.model, seed=self.seed)
        if features is not None:
            _, frames, feat, channels = features.values.shape
            resolved.setdefault("channels", channels)
            resolved.setdefault("bands", feat // 2)
            resolved.setdefault("frames", frames)
            resolved.setdefault("classes", features.n_classes)
        return ModelConfig.from_dict(resolved)


@dataclass
class RunReport:
    fold_accuracies: list[float]
    mean_accuracy: float
    std_accuracy: float
    confusion: list[list[int]]          # aggregated over folds, rows = truth
    macro_f1: float
    loss_curves: list[list[float]]      # per fold, per epoch mean loss
    wall_time_s: float
    n_params: int
    flops_per_forward: int
    split_mode: str
    folds: int
    epochs: int
    n_samples: int
    seed: int
    ablate: str | None = None
    mlp_ratio: int = 0


def kfold_split(n_samples: int, folds: int, mode: str, seed: int,
                metas: list[dict] | None = None
                ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Disjoint (train, test) index pairs covering all samples.

    segment mode shuffles individual samples; trial mode assigns whole trials
    to folds so no trial ever straddles the split.
    """
    if n_samples < folds:
        raise DataError(f"{n_samples} samples cannot fill {folds} folds")
    if mode not in SPLIT_MODES:
        raise DataError(f"unknown split mode {mode!r}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF01D]))
    if mode == "segment":
        perm = rng.permutation(n_samples)
        parts = np.array_split(perm, folds)
    else:
        if metas is None:
            raise DataError("trial mode needs per-sample meta with trial ids")
        trial_of = [m.get("trial") for m in metas]
        check_numbers("trial mode", numbers.Integral, ">= 0", **{
            f"sample {i} meta.trial": t for i, t in enumerate(trial_of)})
        trial_of = np.asarray(trial_of)
        trial_ids = np.unique(trial_of)
        if trial_ids.size < folds:
            raise DataError(
                f"{trial_ids.size} trials cannot fill {folds} folds in "
                "trial mode")
        trial_parts = np.array_split(rng.permutation(trial_ids), folds)
        parts = [np.flatnonzero(np.isin(trial_of, tp)) for tp in trial_parts]
    out = []
    everything = np.arange(n_samples)
    for i in range(folds):
        test = np.sort(parts[i])
        train = np.setdiff1d(everything, test)
        out.append((train, test))
    return out


def fit(x_train: np.ndarray, y_train: np.ndarray, model_cfg: ModelConfig,
        opt_cfg: OptimizerConfig, epochs: int, shuffle_seed: int
        ) -> tuple[dict[str, np.ndarray], list[float]]:
    """Train a freshly initialized model; returns (params, per-epoch losses),
    the params as views of the buffer one ``AdamW.step`` per batch updates."""
    params = init_params(model_cfg)
    x_train = np.asarray(x_train, next(iter(params.values())).dtype)
    optimizer = AdamW(params, opt_cfg)
    rng = np.random.default_rng(np.random.SeedSequence([shuffle_seed, 0x5F1E]))
    n = x_train.shape[0]
    losses = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        total, seen = 0.0, 0
        for lo in range(0, n, opt_cfg.batch_size):
            idx = order[lo:lo + opt_cfg.batch_size]
            tape = Tape()
            tensors = wrap_params(params)
            logits, _ = forward(tape, tensors, model_cfg, x_train[idx])
            loss = tape.cross_entropy(logits, y_train[idx])
            if not np.isfinite(loss.data):
                raise NumericalError(
                    f"loss diverged to {loss.data} at epoch {epoch}, "
                    f"batch starting {lo}")
            tape.backward(loss)
            optimizer.step({name: t.grad for name, t in tensors.items()})
            total += float(loss.data) * idx.size
            seen += idx.size
        losses.append(total / seen)
    return params, losses


def evaluate(params: dict[str, np.ndarray], model_cfg: ModelConfig,
             x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """(accuracy, confusion matrix with rows = true class)."""
    k = model_cfg.classes
    y = check_labels("evaluate", y, len(x), k)
    preds = predict(params, model_cfg, x)
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (y, preds), 1)
    accuracy = float(np.trace(confusion)) / max(len(y), 1)
    return accuracy, confusion


def _macro_f1(confusion: np.ndarray) -> float:
    # 2tp + fp + fn is a class's row sum plus its column sum; where that is
    # 0, so is tp, and the class scores 0
    denom = confusion.sum(axis=0) + confusion.sum(axis=1)
    return float(np.mean(2 * np.diag(confusion) / np.maximum(denom, 1)))


def train(config: ExperimentConfig, features: FeatureSet) -> RunReport:
    """Cross-validated training per the experiment config.

    Writes report.json, loss.csv, and one checkpoint per fold into
    config.out_dir; an empty out_dir writes nothing. An ablation run is one
    whose config.model sets "ablate": every fold trains, evaluates and saves
    that model, and the report's FLOPs count its forward.
    """
    started = time.perf_counter()
    x, y = features.values, features.labels
    splits = kfold_split(x.shape[0], config.folds, config.split_mode,
                         config.seed, features.metas)
    fold_accs: list[float] = []
    curves: list[list[float]] = []
    model_cfg0 = config.model_config(features)
    confusion = np.zeros((model_cfg0.classes, model_cfg0.classes),
                         dtype=np.int64)
    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for fold, (train_idx, test_idx) in enumerate(splits):
        model_cfg = replace(model_cfg0, seed=config.seed + fold)
        try:
            params, losses = fit(x[train_idx], y[train_idx], model_cfg,
                                 config.optimizer, config.epochs,
                                 shuffle_seed=config.seed + fold)
        except NumericalError as e:
            raise NumericalError(f"fold {fold}: {e}") from e
        acc, conf = evaluate(params, model_cfg, x[test_idx], y[test_idx])
        fold_accs.append(acc)
        curves.append(losses)
        confusion += conf
        if out_dir is not None:
            save_checkpoint(out_dir / f"fold{fold}.amdw", params, model_cfg,
                            extra={"fold": fold, "accuracy": acc})
    report = RunReport(
        fold_accuracies=fold_accs,
        mean_accuracy=float(np.mean(fold_accs)),
        std_accuracy=float(np.std(fold_accs)),
        confusion=confusion.tolist(),
        macro_f1=_macro_f1(confusion),
        loss_curves=curves,
        wall_time_s=time.perf_counter() - started,
        n_params=param_count(model_cfg0),
        flops_per_forward=forward_flops(model_cfg0),
        split_mode=config.split_mode,
        folds=config.folds,
        epochs=config.epochs,
        n_samples=x.shape[0],
        seed=config.seed,
        ablate=model_cfg0.ablate,
        mlp_ratio=model_cfg0.mlp_ratio,
    )
    if out_dir is not None:
        write_report(out_dir, report)
    return report


def write_report(out_dir: str | Path, report: RunReport) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    losses = [[fold, epoch, f"{loss:.10g}"]
              for fold, curve in enumerate(report.loss_curves)
              for epoch, loss in enumerate(curve)]
    replace_files(
        (out / "report.json", json.dumps(asdict(report), indent=1)),
        (out / "loss.csv", csv_text([["fold", "epoch", "loss"], *losses])))


def default_k_grid(channels: int) -> list[int]:
    """Channel counts from C downward in steps of K_GRID_STRIDE, down to 2."""
    return list(range(channels, 1, -K_GRID_STRIDE))


def _heads_for(k: int, heads: int) -> int:
    # retraining on k channels requires the head count to divide k
    return gcd(k, heads) if k % heads else heads


def reduce_channels_sweep(config: ExperimentConfig, features: FeatureSet,
                          ranking: list[int], ks: list[int]) -> list[dict]:
    """Retrain from scratch on the top-k channels for every requested k."""
    from .attribution import select_channels

    rows = []
    out_dir = Path(config.out_dir) if config.out_dir else None
    base_cfg = config.model_config(features)
    for k in ks:
        reduced = select_channels(features.values, ranking, k)
        sub = FeatureSet(reduced, features.labels, features.metas,
                         features.bands,
                         [features.channels[i] for i in ranking[:k]])
        heads = _heads_for(k, base_cfg.spectral_heads)
        sub_config = replace(
            config, out_dir=str(out_dir / f"k{k}") if out_dir else "",
            model={**config.model, "channels": k, "spectral_heads": heads})
        report = train(sub_config, sub)
        rows.append({"k": k, "mean": report.mean_accuracy,
                     "std": report.std_accuracy})
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        replace_files((out_dir / "sweep.csv", csv_text(
            [["k", "mean", "std"]]
            + [[row["k"], f"{row['mean']:.10g}", f"{row['std']:.10g}"]
               for row in rows])))
    return rows
