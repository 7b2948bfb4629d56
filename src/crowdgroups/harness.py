"""Experiment orchestration: config files, seeded runs, and report emission.

A run loads a dataset directory, tiles it into windows, trains on the windows
that end inside the training span, predicts the remaining windows, and scores
them per window; the protocol repeats over several seeds and the reports carry
mean and standard deviation per metric. Config files are flat TOML (typed
key = value lines, no tables); command-line flags override file values.
This module formats every report file but the model (`Model.save`); one writer
writes every CSV, `train_log.csv` (from iteration_hook) and the features CSV too.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import logging
import tomllib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigError, CrowdGroupsError, PositiveFloat, PositiveInt
from .features import FEATURE_NAMES, FeatureConfig, WindowedScene, build_scene
from .learning import (
    Model,
    TrainConfig,
    TrainingExample,
    TrainMode,
    bcfw_train,
    online_predict_train,
    predict,
    sequential_train,
)
from .losses import ForestScore, gmitre_score, positive_pairwise_metric
from .partitioning import Partition
from .trajectories import (
    _SPAN_EPS,
    Dataset,
    GroundTruthLabels,
    load_dataset,
    load_ground_truth,
    restrict_labels,
    scene_stats,
    slice_windows,
    window_ground_truth,
)

logger = logging.getLogger(__name__)

METRIC_NAMES = ("gmitre", "pairwise_positive")
_PER_WINDOW_HEADER = ["window", "metric", "precision", "recall", "f1"]


# ---------------------------------------------------------------------------
# Flat TOML config files

_SCALAR_TYPES = (bool, int, float, str)
# Basic-string escapes for format_config_text: TOML forbids raw control characters.
_ESCAPES = {c: f"\\u{c:04x}" for c in (*range(0x20), 0x7F)}
_ESCAPES.update({ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n", ord("\t"): "\\t"})


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse a flat TOML document: every key holds a bool, int, float, string,
    or flat array of them. Tables, dotted keys, nested arrays, arrays of
    tables and dates are rejected."""
    try:
        values = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    for key, value in values.items():
        items = value if isinstance(value, list) else [value]
        if not all(isinstance(v, _SCALAR_TYPES) for v in items):
            raise ConfigError(
                f"{source}: {key!r} must be a bool, int, float, string, or flat array of "
                "them; tables, dotted keys, nested arrays and dates are not supported"
            )
    return values


def read_config_file(path) -> dict:
    path = Path(path)
    try:
        return parse_config_text(path.read_text(encoding="utf-8"), source=str(path))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, str):
        return f'"{value.translate(_ESCAPES)}"'
    raise ConfigError(f"cannot serialize config value of type {type(value).__name__}")


def format_config_text(values: dict) -> str:
    lines = []
    for key, value in values.items():
        if isinstance(value, (list, tuple)):
            inner = ", ".join(_format_scalar(v) for v in value)
            lines.append(f"{key} = [{inner}]")
        else:
            lines.append(f"{key} = {_format_scalar(value)}")
    return "\n".join(lines) + "\n"


def write_config_file(path, values: dict) -> None:
    Path(path).write_text(format_config_text(values), encoding="utf-8")


def dataclass_from_flat(cls, values: dict, what: str):
    """Build the dataclass `cls` from flat config values. Unknown keys raise
    ConfigError; `cls` checks the values itself (types, finiteness, ranges)."""
    unknown = set(values) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return cls(**values)


# ---------------------------------------------------------------------------
# Run configuration


@dataclass(frozen=True)
class RunConfig(FeatureConfig, TrainConfig):
    """Resolved experiment settings: the feature and training settings, then
    the windowing, the training span, the training mode and the number of
    seeded runs. Every output artifact echoes these. FeatureConfig's
    __post_init__, first in the MRO, checks every field, this class's too."""

    window_len: PositiveFloat = 10.0
    stride: PositiveFloat = 10.0
    training_span: PositiveFloat = 100.0
    mode: TrainMode = "batch"
    runs: PositiveInt = 5

    def to_flat_dict(self) -> dict:
        out = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            out[field.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, values: dict) -> "RunConfig":
        return dataclass_from_flat(cls, values, "config")


# ---------------------------------------------------------------------------
# Prediction files and scoring


def prediction_entry(window_index: int, start_t: float, end_t: float, p: Partition) -> dict:
    return {"window": int(window_index), **p.to_json_obj(), "start_t": float(start_t), "end_t": float(end_t)}


def write_predictions(path_or_file, seed: int, entries: list[dict]) -> None:
    payload = json.dumps({"seed": int(seed), "windows": entries}, indent=2) + "\n"
    if hasattr(path_or_file, "write"):
        path_or_file.write(payload)
    else:
        Path(path_or_file).write_text(payload, encoding="utf-8")


def read_predictions(path) -> tuple[int, list[dict]]:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(obj, dict):
            raise TypeError("top level must be an object")
        seed = int(obj.get("seed", 0))
        windows = obj["windows"]
        if not isinstance(windows, list):
            raise TypeError("windows must be a list")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CrowdGroupsError(f"{path}: not a prediction file: {exc}") from None
    for k, entry in enumerate(windows):
        try:
            if not isinstance(entry, dict):
                raise TypeError(f"expected an object, got {entry!r}")
            members = Partition.from_json_obj(entry).members
            if not all(type(m) is int for m in members):
                raise TypeError("members must be integers")
        except (TypeError, ValueError) as exc:
            raise CrowdGroupsError(f"{path}: window entry {k}: {exc}") from None
    return seed, windows


def _score(truth: Partition, pred: Partition) -> dict[str, ForestScore]:
    """Every metric of METRIC_NAMES for one window."""
    return {
        "gmitre": gmitre_score(truth, pred),
        "pairwise_positive": positive_pairwise_metric(truth, pred),
    }


def _score_rows(label, scores: dict[str, ForestScore]) -> list[list]:
    return [[label, name, s.precision, s.recall, s.f1] for name, s in scores.items()]


def _score_entries(
    entries: list[dict], labels: GroundTruthLabels
) -> tuple[list[list], list[dict[str, ForestScore]]]:
    """Score each prediction entry with members against the ground truth
    restricted to those members; returns the per-window CSV rows and scores."""
    rows: list[list] = []
    per_window: list[dict[str, ForestScore]] = []
    for entry in entries:
        pred = Partition.from_json_obj(entry)
        if not pred.members:
            continue
        scores = _score(restrict_labels(pred.members, labels), pred)
        rows.extend(_score_rows(entry.get("window", len(per_window)), scores))
        per_window.append(scores)
    return rows, per_window


def _mean_scores(per_window: list[dict[str, ForestScore]]) -> dict[str, ForestScore]:
    """Mean of each metric over one or more windows."""
    return {
        name: ForestScore(
            recall=float(np.mean([s[name].recall for s in per_window])),
            precision=float(np.mean([s[name].precision for s in per_window])),
            f1=float(np.mean([s[name].f1 for s in per_window])),
        )
        for name in METRIC_NAMES
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


@contextmanager
def _csv_rows(path_or_file, header: list[str]):
    """Write the header to the open text file, or to the file at the path opened
    here, then yield row(values), which writes one row, each value through _fmt."""
    own = not hasattr(path_or_file, "write")
    with open(path_or_file, "w", encoding="utf-8", newline="") if own else nullcontext(path_or_file) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        yield lambda row: writer.writerow([_fmt(v) for v in row])


def _write_csv(path_or_file, header: list[str], rows: Iterable[Iterable]) -> None:
    with _csv_rows(path_or_file, header) as write_row:
        for row in rows:
            write_row(row)


def write_features_csv(scenes: Iterable[WindowedScene], out) -> None:
    """One row per pair to the open text file (or the file at the path) `out`:
    window,a,b,d_ph,d_sh,d_ca,d_he with 9 significant digits; far pairs read
    1,1,1,1. Rows become Python lists 4,096 at a time, so memory does not
    grow with the pair count."""
    _write_csv(out, ["window", "a", "b", *FEATURE_NAMES], (
        [scene.window.index, a, b, *d]
        for scene in scenes
        for lo in range(0, len(scene.pairs), 4096)
        for (a, b), d in zip(scene.pairs[lo : lo + 4096].tolist(), scene.feature_matrix[lo : lo + 4096].tolist())
    ))


def evaluate_predictions(truth_path, pred_path) -> str:
    """Score a prediction file against a ground-truth group file; returns the
    per-window CSV, plus mean rows when any window has members."""
    labels = load_ground_truth(truth_path)
    _, entries = read_predictions(pred_path)
    rows, per_window = _score_entries(entries, labels)
    if per_window:
        rows.extend(_score_rows("mean", _mean_scores(per_window)))
    buffer = io.StringIO()
    _write_csv(buffer, _PER_WINDOW_HEADER, rows)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Experiment runner


def _weights_rows(model: Model) -> list[list]:
    alpha, beta = model.alpha, model.beta
    coeff = alpha + beta
    total = float(np.sum(np.abs(coeff)))
    rows = []
    for k, name in enumerate(FEATURE_NAMES):
        share = abs(float(coeff[k])) / total if total > 0 else 0.0
        rows.append([name, float(alpha[k]), float(beta[k]), float(coeff[k]), share])
    rows.append(["constant", "", "", float(np.sum(alpha)), ""])
    return rows


def write_scene_stats(path_or_file, windows: list, labels: GroundTruthLabels) -> None:
    """The `stat,value` CSV of the windows' d_in, d_out and d_io; a statistic
    whose defining set is empty is left blank."""
    stats = scene_stats(windows, labels)
    rows = [[name, "" if value is None else value] for name, value in dataclasses.asdict(stats).items()]
    _write_csv(path_or_file, ["stat", "value"], rows)


def dataset_windows(dataset: Dataset, window_len: float, stride: float) -> list:
    """slice_windows over the dataset, which must span at least one window."""
    windows = slice_windows(dataset.trajectories, window_len, stride)
    if not windows:
        raise ConfigError("the dataset is shorter than one window")
    return windows


def split_training_span(dataset: Dataset, windows: list, training_span: float) -> tuple[list, list]:
    """The windows that end within training_span seconds of the dataset's
    first sample, and the rest."""
    t0 = min(tr.start_t for tr in dataset.trajectories)
    split = t0 + training_span + _SPAN_EPS
    return [w for w in windows if w.end_t <= split], [w for w in windows if w.end_t > split]


def make_training_examples(windows, labels, configs: FeatureConfig | None = None) -> list[TrainingExample]:
    """Featurize each non-empty window and pair it with its restricted ground truth."""
    scenes = [build_scene(w, configs) for w in windows if w.members]
    return [TrainingExample(scene, window_ground_truth(scene.window, labels)) for scene in scenes]


def train_model(config: RunConfig, examples: list[TrainingExample], log) -> Model:
    """Sequential training in sequential mode, batch BCFW otherwise (online
    mode starts predicting from the batch model); the model records the
    config's flat settings. `log` (a path, open text file or None) gets a row per update."""
    train = sequential_train if config.mode == "sequential" else bcfw_train
    if log is None:
        model = train(examples, config)
    else:
        with _csv_rows(log, ["iter", "block", "hinge", "gamma", "gap", "exact"]) as write_row:
            model = train(examples, config, iteration_hook=lambda _, info: write_row([*info[:5], int(info.exact)]))
    model.config_snapshot = config.to_flat_dict()
    return model


def run_experiment(config: RunConfig, data_dir, out_dir) -> dict:
    """Train/predict/score over config.runs seeded repetitions; emits per-run
    reports under <out>/run-<seed>/ and cross-run summaries at the top level."""
    dataset = load_dataset(data_dir)
    if dataset.labels is None:
        raise ConfigError(f"{data_dir}: ground truth is required to train")
    windows = dataset_windows(dataset, config.window_len, config.stride)
    train_windows, test_windows = split_training_span(dataset, windows, config.training_span)
    if not any(w.members for w in train_windows):
        raise ConfigError("no training windows with members inside the training span")
    if not any(w.members for w in test_windows):
        raise ConfigError("no windows with members left to predict beyond the training span")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)  # before the work, so an unusable --out fails at once

    examples = make_training_examples(train_windows, dataset.labels, config)
    train_scenes = [ex.scene for ex in examples]
    test_scenes = [build_scene(w, config) for w in test_windows]

    all_scenes = train_scenes + test_scenes
    quality_rows = [
        ["windows_total", len(windows)],
        ["windows_train", len(train_windows)],
        ["windows_test", len(test_windows)],
        ["windows_empty", sum(1 for w in windows if not w.members)],
        ["dropped_member_instances", sum(len(w.dropped) for w in windows)],
        ["granger_fallback_pairs", sum(s.granger_fallback_count for s in all_scenes)],
        ["no_overlap_pairs", sum(s.no_overlap_count for s in all_scenes)],
        ["far_pairs", sum(s.far_count for s in all_scenes)],
    ]
    _write_csv(out / "data_quality.csv", ["quantity", "value"], quality_rows)

    write_scene_stats(out / "scene_stats.csv", windows, dataset.labels)

    run_means: list[dict[str, ForestScore]] = []
    meta_runs = []
    for r in range(config.runs):
        run_seed = config.seed + r
        run_config = dataclasses.replace(config, seed=run_seed)
        rundir = out / f"run-{run_seed}"
        rundir.mkdir(parents=True, exist_ok=True)
        write_config_file(rundir / "config.resolved.toml", run_config.to_flat_dict())

        model = train_model(run_config, examples, rundir / "train_log.csv")
        if config.mode == "online":
            preds = []
            for pred, model in online_predict_train(test_scenes, model):
                preds.append(pred)
        else:
            preds = [predict(scene, model) for scene in test_scenes]
        model.save(rundir / "model.json")

        entries = [
            prediction_entry(s.window.index, s.window.start_t, s.window.end_t, pred)
            for s, pred in zip(test_scenes, preds)
        ]
        write_predictions(rundir / "predictions.json", run_seed, entries)
        per_window_rows, per_window = _score_entries(entries, dataset.labels)
        _write_csv(rundir / "per_window.csv", _PER_WINDOW_HEADER, per_window_rows)
        means = _mean_scores(per_window)
        run_means.append(means)
        _write_csv(
            rundir / "metrics.csv",
            ["metric", "precision", "recall", "f1"],
            [[name, s.precision, s.recall, s.f1] for name, s in means.items()],
        )
        _write_csv(
            rundir / "weights.csv",
            ["term", "alpha", "beta", "coefficient", "share"],
            _weights_rows(model),
        )
        meta_runs.append(
            {
                "seed": run_seed,
                "nonnegative_weights": model.nonnegative_weights,
                "iterations": model.iterations,
                "gmitre_f1": means["gmitre"].f1,
            }
        )
        logger.info(
            "run %d/%d (seed %d): gmitre f1 %.4f",
            r + 1, config.runs, run_seed, means["gmitre"].f1,
        )

    summary_rows = []
    summary: dict[str, dict[str, dict[str, float]]] = {}
    for name in METRIC_NAMES:
        summary[name] = {}
        for field in ("precision", "recall", "f1"):
            values = np.array([getattr(means[name], field) for means in run_means])
            mean = float(values.mean())
            std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
            summary_rows.append([name, field, mean, std])
            summary[name][field] = {"mean": mean, "std": std}
    _write_csv(out / "summary.csv", ["metric", "field", "mean", "std"], summary_rows)

    meta = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": config.to_flat_dict(),
        "runs": meta_runs,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    return {"out_dir": str(out), "summary": summary, "runs": meta_runs}


# ---------------------------------------------------------------------------
# Building blocks shared with the CLI


def predict_windows(dataset: Dataset, model: Model, window_len=None, stride=None) -> list[dict]:
    """Tile the dataset with the model's recorded window settings (unless
    overridden) and predict every window."""
    snapshot = model.config_snapshot
    if window_len is None:
        window_len = snapshot.get("window_len")
    if stride is None:
        stride = snapshot.get("stride", window_len)
    if window_len is None:
        raise ConfigError("window length not given and not recorded in the model")
    configs = _snapshot_feature_configs(snapshot)
    windows = dataset_windows(dataset, float(window_len), float(stride))
    entries = []
    for window in windows:
        scene = build_scene(window, configs)
        part = predict(scene, model)
        entries.append(prediction_entry(window.index, window.start_t, window.end_t, part))
    return entries


def _snapshot_feature_configs(snapshot: dict) -> FeatureConfig:
    """The run settings recorded in a model (a RunConfig is a FeatureConfig);
    every recorded setting is checked, the window settings too."""
    names = {f.name for f in dataclasses.fields(RunConfig)}
    return RunConfig.from_dict({k: v for k, v in snapshot.items() if k in names})
