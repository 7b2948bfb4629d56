"""Command-line interface.

Subcommands: synth (generate a dataset), features (pair-feature CSV), train,
predict, eval (score a prediction file), run (full seeded experiment), stats
(scene statistics). All accept --config plus flag overrides; exit codes are
0 on success, 1 on data/config errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import errno
import logging
import os
import sys
from pathlib import Path

from .errors import ConfigError, CrowdGroupsError
from .features import build_scene
from .harness import (
    RunConfig,
    _model_settings,
    dataclass_from_flat,
    evaluate_predictions,
    load_windows,
    make_training_examples,
    open_output,
    predict_windows,
    read_config_file,
    run_experiment,
    split_training_span,
    train_model,
    write_features_csv,
    write_predictions,
    write_scene_stats,
)
from .learning import Model
from .synth import SynthSpec, synth_generate, write_dataset
from .trajectories import DESCRIPTOR_FILE, GROUNDTRUTH_FILE, TRAJECTORY_FILE

_CONFIG_FLAGS = (
    ("--window-len", "window_len", float, "window length in seconds"),
    ("--stride", "stride", float, "window stride in seconds"),
    ("--training-span", "training_span", float, "seconds of data used for training"),
    ("--seed", "seed", int, "base random seed"),
    ("--C", "C", float, "regularization trade-off"),
    ("--loss", "loss", str, "training loss: gmitre, mitre, or pairwise"),
    ("--mode", "mode", str, "training mode: batch, sequential, or online"),
    ("--runs", "runs", int, "number of seeded repetitions"),
    ("--max-iterations", "max_iterations", int, "training iteration budget"),
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="flat TOML config file")
    for flag, dest, typ, help_text in _CONFIG_FLAGS:
        parser.add_argument(flag, dest=dest, type=typ, default=None, help=help_text)


def _config_values(args: argparse.Namespace) -> dict:
    """The --config file's values, overlaid with the flags that were given."""
    config_path = getattr(args, "config", None)
    values = read_config_file(config_path) if config_path is not None else {}
    flags = {dest: getattr(args, dest, None) for _, dest, _, _ in _CONFIG_FLAGS}
    return values | {dest: value for dest, value in flags.items() if value is not None}


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig.from_dict(_config_values(args))


def _check_outputs(args: argparse.Namespace, *paths: str | None) -> None:
    """Raise, before any work, the OSError that writing a file at one of the
    paths would (a directory there, no directory to hold it, or no write
    permission), or a ConfigError when a path names a file the command reads
    (its --config, --model, --truth or --pred, or a dataset file under --data)
    or another of the paths. None and "-" are stdout."""
    reads = [getattr(args, flag, None) for flag in ("config", "model", "truth", "pred")]
    if getattr(args, "data", None) is not None:
        reads += [Path(args.data, name) for name in (TRAJECTORY_FILE, GROUNDTRUTH_FILE, DESCRIPTOR_FILE)]
    files = [path for path in paths if path is not None and path != "-"]
    for k, path in enumerate(files):
        target = Path(path)
        if target.is_dir():
            code = errno.EISDIR
        elif not target.parent.is_dir():
            code = errno.ENOENT
        elif not os.access(target if target.exists() else target.parent, os.W_OK):
            code = errno.EACCES
        else:
            code = None
        if code is not None:
            raise OSError(code, os.strerror(code), path)
        for other in [*reads, *files[:k]]:
            if other is not None and Path(other).resolve() == target.resolve():
                raise ConfigError(f"output {path} would overwrite {other}, which the command also uses")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdgroups",
        description="Detect social groups in pedestrian trajectory data.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--spec", default=None, help="TOML file of generator settings")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output dataset directory")

    p = sub.add_parser("features", help="emit the pair-feature CSV for every window")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", default="-", help="output CSV path (default: stdout)")
    _add_config_flags(p)

    p = sub.add_parser("train", help="train a model on the windows of a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--log", default=None, help="per-iteration training log CSV")
    _add_config_flags(p)

    p = sub.add_parser("predict", help="predict groups for every window of a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default="-", help="prediction JSON path (default: stdout)")
    p.add_argument("--window-len", "--window", dest="window_len", type=float, default=None,
                   help="window length (default: recorded in the model)")
    p.add_argument("--stride", type=float, default=None)

    p = sub.add_parser("eval", help="score a prediction file against ground truth")
    p.add_argument("--truth", required=True, help="ground-truth group file")
    p.add_argument("--pred", required=True, help="prediction JSON file")
    p.add_argument("--out", default="-", help="output CSV path (default: stdout)")

    p = sub.add_parser("run", help="full experiment: train, predict, score, report")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="report output directory")
    _add_config_flags(p)

    p = sub.add_parser("stats", help="scene statistics (d_in, d_out, d_io)")
    p.add_argument("--data", required=True)
    _add_config_flags(p)

    return parser


def _cmd_synth(args) -> int:
    values = read_config_file(args.spec) if args.spec else {}
    spec = dataclass_from_flat(SynthSpec, values, "synth spec")
    trajectories, labels = synth_generate(spec, seed=args.seed)
    write_dataset(args.out, trajectories, labels, fps=spec.fps, seed=args.seed)
    print(f"wrote {len(trajectories)} trajectories, {len(labels.groups)} groups to {args.out}")
    return 0


def _cmd_features(args) -> int:
    config = _resolve_config(args)
    _check_outputs(args, args.out)
    _, windows = load_windows(args.data, config.window_len, config.stride)
    write_features_csv([build_scene(w, config) for w in windows], args.out)
    return 0


def _cmd_train(args) -> int:
    values = _config_values(args)
    config = RunConfig.from_dict(values)
    if config.mode == "online":
        raise ConfigError("online mode trains during prediction; use the run command")
    for flag, path in (("--out", args.out), ("--log", args.log)):
        if path == "-":  # stdout carries the summary line
            raise ConfigError(f"train {flag} must name a file, not - (stdout)")
    _check_outputs(args, args.out, args.log)
    dataset, windows = load_windows(args.data, config.window_len, config.stride, labels_for="to train")
    if "training_span" in values:
        windows, _ = split_training_span(dataset, windows, config.training_span)
    examples = make_training_examples(windows, dataset.labels, config)
    if not examples:
        raise ConfigError("no windows with members to train on")
    model = train_model(config, examples, args.log)
    model.save(args.out)
    print(f"trained on {len(examples)} windows ({model.iterations} iterations) -> {args.out}")
    return 0


def _cmd_predict(args) -> int:
    model = Model.load(args.model)
    try:  # predict_windows checks the recorded settings too, but cannot name the file
        _model_settings(model.config_snapshot, args.window_len, args.stride)
    except ConfigError as exc:
        raise ConfigError(f"{args.model}: {exc}") from None
    _check_outputs(args, args.out)
    entries = predict_windows(args.data, model, window_len=args.window_len, stride=args.stride)
    write_predictions(args.out, model.seed, entries)
    return 0


def _cmd_eval(args) -> int:
    _check_outputs(args, args.out)
    text = evaluate_predictions(args.truth, args.pred)
    with open_output(args.out) as fh:
        fh.write(text)
    return 0


def _cmd_run(args) -> int:
    config = _resolve_config(args)
    result = run_experiment(config, args.data, args.out)
    for metric, fields in result["summary"].items():
        parts = ", ".join(
            f"{field} {stats['mean']:.4f} +/- {stats['std']:.4f}"
            for field, stats in fields.items()
        )
        print(f"{metric}: {parts}")
    print(f"reports in {result['out_dir']}")
    return 0


def _cmd_stats(args) -> int:
    config = _resolve_config(args)
    dataset, windows = load_windows(args.data, config.window_len, config.stride, labels_for="for scene stats")
    write_scene_stats("-", windows, dataset.labels)
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "features": _cmd_features,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "run": _cmd_run,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # a reader that stops early (`| head`) is no error; flushes at exit go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (CrowdGroupsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
