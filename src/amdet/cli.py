"""Command-line entry point.

Subcommands: synth, preprocess, train, eval, attribute, reduce-channels,
count. All but eval and attribute accept --config <json file> plus repeated
--set key=value overrides (dotted keys reach into nested fields; values are
parsed as JSON when possible, else kept as strings); an ablation is a train
run with --set 'model.ablate="<block>"'. eval and attribute take everything
from the checkpoint, so they have no config options.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure; a
stdout whose reader has gone away ends the process by SIGPIPE, as in cat.
"""

from __future__ import annotations

import argparse
import json
import numbers
import signal
import sys
from dataclasses import asdict

from . import attribution, data, features as feat, harness
from .checkpoint import load_checkpoint
from .errors import DataError, NumericalError, UsageError, build
from .model import forward_flops, param_count


class _Parser(argparse.ArgumentParser):
    def error(self, message):                    # usage errors -> exit code 1
        raise UsageError(message)


def _set_by_path(config: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = config
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise UsageError(f"--set {dotted}: {key!r} is not a mapping")
    node[keys[-1]] = value


def _load_config(args) -> dict:
    config = (data.read_json_object(args.config, "config file")
              if args.config else {})
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_by_path(config, key, value)
    return config


def _band_set(name_or_list) -> list[feat.BandSpec]:
    if name_or_list in (None, "seed"):
        return list(feat.SEED_BANDS)
    if name_or_list == "deap":
        return list(feat.DEAP_BANDS)
    if isinstance(name_or_list, list):
        return [build("bands", feat.BandSpec, b) for b in name_or_list]
    raise DataError(f"bands: unknown band set {name_or_list!r}")


def _positive_ints(text: str) -> list[int]:
    """argparse type: comma-separated integers >= 1."""
    try:
        values = [int(k) for k in text.split(",")]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers >= 1, got {text!r}")
    return values


def _check_ks(ks: list[int], channels: int) -> None:
    """Every k must name a channel count the features have."""
    for k in ks:
        if k > channels:
            raise DataError(f"k={k} out of range 1..{channels}")


def _add_common(parser, run):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config field (repeatable)")
    parser.set_defaults(run=run)


def build_parser() -> _Parser:
    parser = _Parser(prog="amdet",
                     description="EEG attention classifier toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic recording")
    p.add_argument("--out", required=True, help="output base path (EEGR v1)")
    _add_common(p, cmd_synth)

    p = sub.add_parser("preprocess", help="recording -> feature tensors")
    p.add_argument("--recording", required=True)
    p.add_argument("--out", required=True, help="output base path (FEAT v1)")
    _add_common(p, cmd_preprocess)

    p = sub.add_parser("train", help="five-fold cross-validated training")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    _add_common(p, cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a feature file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("attribute", help="channel importance scores")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--topk", type=_positive_ints,
                   help="comma-separated k values for topk_<k>.json "
                        "(default: min(8, channels))")
    p.set_defaults(run=cmd_attribute)

    p = sub.add_parser("reduce-channels",
                       help="retrain on top-k channel subsets")
    p.add_argument("--features", required=True)
    p.add_argument("--scores", required=True,
                   help="channel_scores.csv from `attribute`")
    p.add_argument("--out", required=True)
    p.add_argument("--ks", type=_positive_ints,
                   help="comma-separated channel counts (default: full grid, "
                        "stride 4)")
    _add_common(p, cmd_reduce_channels)

    p = sub.add_parser("count", help="parameter and FLOP accounting")
    p.add_argument("--features", help="derive model dims from this file")
    _add_common(p, cmd_count)
    return parser


def _experiment_config(args) -> harness.ExperimentConfig:
    return harness.ExperimentConfig.from_dict(
        dict(_load_config(args), out_dir=args.out))


def _print_report(report) -> None:
    accs = ", ".join(f"{a:.4f}" for a in report.fold_accuracies)
    print(f"folds: [{accs}]")
    print(f"accuracy: {report.mean_accuracy:.4f} +/- "
          f"{report.std_accuracy:.4f}  (macro-F1 {report.macro_f1:.4f})")
    print(f"params: {report.n_params}  flops/forward: "
          f"{report.flops_per_forward}  wall: {report.wall_time_s:.1f}s")


def cmd_synth(args) -> int:
    spec = data.SynthSpec.from_dict({**asdict(data.default_synth_spec()),
                                     **_load_config(args)})
    rec = data.synth_generate(spec)
    data.write_recording(args.out, rec)
    n = len(rec.trials)
    print(f"wrote {args.out}.json/.f32: {len(rec.channels)} channels, "
          f"{n} trials, {rec.data.shape[1]} samples at {rec.sample_rate_hz} Hz")
    return 0


def cmd_preprocess(args) -> int:
    config = _load_config(args)
    bands = _band_set(config.pop("bands", None))
    threshold = config.pop("binarize_threshold", None)
    rec = data.read_recording(args.recording)
    ratings = [t.label for t in rec.trials
               if not isinstance(t.label, numbers.Integral)]
    if threshold is not None:
        rec = feat.binarize_labels(rec, threshold)
    elif ratings:
        raise DataError(f"{args.recording}: trial label {ratings[0]!r} is not "
                        "a class index; set binarize_threshold to map "
                        "ratings onto two classes")
    # every other key is an extract_features option
    samples = build("preprocess config", feat.extract_features, config, rec,
                    bands)
    data.write_features(args.out, samples, bands, channels=rec.channels)
    shape = samples[0].values.shape
    print(f"wrote {args.out}.json/.f32: {len(samples)} samples of shape "
          f"{list(shape)}")
    return 0


def cmd_train(args) -> int:
    config = _experiment_config(args)
    fs = data.read_features(args.features)
    report = harness.train(config, fs)
    _print_report(report)
    return 0


def cmd_eval(args) -> int:
    params, model_cfg, _ = load_checkpoint(args.checkpoint)
    fs = data.read_features(args.features)
    acc, confusion = harness.evaluate(params, model_cfg, fs.values, fs.labels)
    print(json.dumps({"accuracy": acc, "confusion": confusion.tolist(),
                      "n_samples": int(fs.n_samples)}, indent=1))
    return 0


def cmd_attribute(args) -> int:
    params, model_cfg, _ = load_checkpoint(args.checkpoint)
    if model_cfg.ablate is not None:
        raise DataError(f"attribution requires a full model, this one has "
                        f"its {model_cfg.ablate} block removed")
    fs = data.read_features(args.features)
    top_ks = args.topk or [min(8, len(fs.channels))]
    _check_ks(top_ks, fs.values.shape[-1])
    report = attribution.rank_channels(params, model_cfg, fs.values,
                                       fs.labels)
    attribution.write_channel_report(args.out, report, fs.channels, top_ks)
    ranked_names = [fs.channels[i] for i in report.ranking[:8]]
    print(f"wrote {args.out}/channel_scores.csv; top channels: "
          f"{', '.join(ranked_names)}")
    return 0


def cmd_reduce_channels(args) -> int:
    config = _experiment_config(args)
    fs = data.read_features(args.features)
    ks = args.ks or harness.default_k_grid(fs.values.shape[-1])
    _check_ks(ks, fs.values.shape[-1])
    ranking = attribution.read_ranking_csv(args.scores)
    rows = harness.reduce_channels_sweep(config, fs, ranking, ks)
    for row in rows:
        print(f"k={row['k']:>3d}  accuracy {row['mean']:.4f} "
              f"+/- {row['std']:.4f}")
    return 0


def cmd_count(args) -> int:
    exp = harness.ExperimentConfig.from_dict(_load_config(args))
    fs = data.read_features(args.features) if args.features else None
    model_cfg = exp.model_config(fs)
    print(json.dumps({
        "params": param_count(model_cfg),
        "flops_per_forward": forward_flops(model_cfg),
        "mlp_ratio": model_cfg.mlp_ratio,
        "config": asdict(model_cfg),
    }, indent=1))
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:   # OSError: e.g. an --out that is a file
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


def entry() -> None:
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
