"""Gradient-weighted channel importance, ranking, and channel selection.

For each sample's class logit, per-channel weights are the gradient of that
logit w.r.t. the normalized input tensor, averaged over the feature axis; the
raw relevance map is the ReLU of weight times mean activation, averaged over
frames into one score per channel. The input is the target layer because its
channel axis is explicit and has not yet been mixed by any channel-to-channel
projection.

Scores come in batches: no op of the model mixes samples (layer norm and
softmax normalize within a row, matmuls act row by row), so one backward pass
of the sum of every sample's own class logit gives each sample its own input
gradient. `rank_channels` runs one such pass per `INFERENCE_BATCH` samples.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import csv_text, read_bytes, replace_files
from .engine import Tape, Tensor
from .errors import DataError, check_labels
from .model import INFERENCE_BATCH, ModelConfig, forward, wrap_params


@dataclass
class ChannelReport:
    scores: np.ndarray            # (C,), non-negative
    ranking: list[int]            # channel indices, descending score
    provenance: dict

    def top_k(self, k: int) -> list[int]:
        if not (1 <= k <= len(self.ranking)):
            raise DataError(f"k={k} out of range 1..{len(self.ranking)}")
        return self.ranking[:k]


def grad_cam_channels(params: dict[str, np.ndarray], cfg: ModelConfig,
                      samples: np.ndarray, target_classes: np.ndarray
                      ) -> np.ndarray:
    """Per-channel relevance (B, C) of samples (B, F, 2f, C), each for the
    logit of its own class in target_classes (B,), from one backward pass."""
    classes = check_labels("grad_cam_channels", target_classes, len(samples),
                           cfg.classes)
    tape = Tape()
    # only the input's gradient is read: parameters and the one-hot get none
    logits, aux = forward(tape, wrap_params(params, needs_grad=False), cfg,
                          samples)
    onehot = Tensor(np.eye(cfg.classes, dtype=logits.data.dtype)[classes],
                    name="onehot", needs_grad=False)
    tape.backward(tape.sum_all(tape.mul(logits, onehot)))
    act, grad = aux["input"].data, aux["input"].grad
    # feature-axis means: (B, F, 2f, C) -> (B, F, C)
    relevance = np.maximum(grad.mean(axis=-2) * act.mean(axis=-2), 0.0)
    return relevance.mean(axis=1)


def rank_channels(params: dict[str, np.ndarray], cfg: ModelConfig,
                  values: np.ndarray, labels: np.ndarray) -> ChannelReport:
    """Mean per-channel score over samples, each conditioned on its true class."""
    values = np.asarray(values)
    if values.ndim != 4 or values.shape[0] == 0:
        raise DataError("rank_channels needs a non-empty (N, F, 2f, C) array")
    labels = check_labels("rank_channels", labels, len(values), cfg.classes)
    total = np.zeros(cfg.channels)
    for lo in range(0, values.shape[0], INFERENCE_BATCH):
        hi = lo + INFERENCE_BATCH
        total += grad_cam_channels(params, cfg, values[lo:hi],
                                   labels[lo:hi]).sum(axis=0)
    scores = total / values.shape[0]
    # stable argsort on negated scores: ties fall back to channel index order
    ranking = [int(i) for i in np.argsort(-scores, kind="stable")]
    return ChannelReport(scores, ranking, provenance={
        "n_samples": int(values.shape[0]),
        "conditioning": "true_class",
    })


def select_channels(values: np.ndarray, ranking: list[int], k: int
                    ) -> np.ndarray:
    """The top-k ranked channels of values (channel axis length k), in
    ranking order."""
    c = values.shape[-1]
    if sorted(ranking) != list(range(c)):
        raise DataError("ranking must be a permutation of all channel indices")
    if not (1 <= k <= c):
        raise DataError(f"k={k} out of range 1..{c}")
    return values[..., ranking[:k]]


def write_channel_report(out_dir: str | Path, report: ChannelReport,
                         channel_names: list[str],
                         top_ks: list[int] = ()) -> None:
    """Emit channel_scores.csv and one topk_<k>.json per requested k."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rank_of = {ch: pos for pos, ch in enumerate(report.ranking)}
    scores = csv_text([["channel_name", "score", "rank"]] + [
        [name, f"{report.scores[ch]:.10g}", rank_of[ch]]
        for ch, name in enumerate(channel_names)])
    top = []
    for k in top_ks:
        picked = report.top_k(k)
        top.append((out / f"topk_{k}.json", json.dumps({
            "k": k,
            "indices": picked,
            "channels": [channel_names[i] for i in picked],
            "provenance": report.provenance,
        }, indent=1)))
    replace_files((out / "channel_scores.csv", scores), *top)


def read_ranking_csv(path: str | Path) -> list[int]:
    """Recover the full channel ranking from a channel_scores.csv file, whose
    rank column holds each of 0..n-1 exactly once."""
    text = read_bytes(path, "ranking file").decode("utf-8", "replace")
    ranks = [row.get("rank") for row in csv.DictReader(text.splitlines(True))]
    if not ranks:
        raise DataError(f"{path}: empty ranking file")
    try:
        ranks = [int(rank) for rank in ranks]
    except (TypeError, ValueError):
        raise DataError(f"{path}: every row needs an integer rank") from None
    if sorted(ranks) != list(range(len(ranks))):
        raise DataError(f"{path}: ranks are not each of 0..{len(ranks) - 1} "
                        f"exactly once")
    return np.argsort(ranks).tolist()          # the channel at each rank
