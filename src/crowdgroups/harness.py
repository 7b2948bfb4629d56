"""Experiment orchestration: config files, seeded runs, and report emission.

A run loads a dataset directory, tiles it into windows, trains on the windows
that end inside the training span, predicts the remaining windows, and scores
them per window; the protocol repeats over several seeds and the reports carry
mean and standard deviation per metric. Config files are flat TOML (typed
key = scalar lines, no tables or arrays); command-line flags override file values.
This module formats every report file but the model (`Model.save`); one writer
writes every CSV, `train_log.csv` (from iteration_hook) and the features CSV too,
and one opener, open_output, decides where. Every score report reads one
(windows, metrics, precision/recall/f1) array, each mean and sd one column of it.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import logging
import sys
import tomllib
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import product, tee
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigError, CrowdGroupsError, NonNegativeInt, PositiveFloat, PositiveInt, _check_number
from .features import FEATURE_NAMES, FeatureConfig, WindowedScene, build_scene
from .learning import (
    Model,
    TrainConfig,
    TrainingExample,
    TrainMode,
    bcfw_train,
    online_predict_train,
    predict,
)
from .losses import gmitre_score, positive_pairwise_metric
from .partitioning import Partition
from .trajectories import (
    _SPAN_EPS,
    Dataset,
    load_dataset,
    load_ground_truth,
    restrict_labels,
    scene_stats,
    slice_windows,
    window_ground_truth,
)

logger = logging.getLogger(__name__)

METRIC_NAMES = ("gmitre", "pairwise_positive")
_SCORE_FIELDS = ("precision", "recall", "f1")
_PER_WINDOW_HEADER = ["window", "metric", *_SCORE_FIELDS]


# ---------------------------------------------------------------------------
# Flat TOML config files

_SCALAR_TYPES = (bool, int, float, str)
# Basic-string escapes for format_config_text: TOML forbids raw control characters.
_ESCAPES = {c: f"\\u{c:04x}" for c in (*range(0x20), 0x7F)}
_ESCAPES.update({ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n", ord("\t"): "\\t"})


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse a flat TOML document: every key holds a bool, int, float or
    string. Tables, dotted keys, arrays and dates are rejected."""
    try:
        values = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    for key, value in values.items():
        if not isinstance(value, _SCALAR_TYPES):
            raise ConfigError(f"{source}: {key!r} must be a bool, int, float or string; "
                              "tables, dotted keys, arrays and dates are not supported")
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
    return "\n".join(f"{key} = {_format_scalar(value)}" for key, value in values.items()) + "\n"


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
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, values: dict) -> "RunConfig":
        return dataclass_from_flat(cls, values, "config")


# ---------------------------------------------------------------------------
# Prediction files and scoring


def prediction_entry(window_index: int, start_t: float, end_t: float, p: Partition) -> dict:
    return {"window": int(window_index), **p.to_json_obj(), "start_t": float(start_t), "end_t": float(end_t)}


def write_predictions(out, seed: int, entries: list[dict]) -> None:
    with open_output(out) as fh:
        fh.write(json.dumps({"seed": int(seed), "windows": entries}, indent=2) + "\n")


def read_predictions(path) -> tuple[int, list[dict]]:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(obj, dict):
            raise TypeError("top level must be an object")
        seed = _check_number("seed", obj.get("seed", 0), NonNegativeInt)
        windows = obj["windows"]
        if not isinstance(windows, list):
            raise TypeError("windows must be a list")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CrowdGroupsError(f"{path}: not a prediction file: {exc}") from None
    for k, entry in enumerate(windows):
        try:
            if not isinstance(entry, dict):
                raise TypeError(f"expected an object, got {entry!r}")
            if "window" in entry:
                _check_number("window", entry["window"], NonNegativeInt)
            members = Partition.from_json_obj(entry).members
            if not all(type(m) is int for m in members):
                raise TypeError("members must be integers")
        except (TypeError, ValueError) as exc:
            raise CrowdGroupsError(f"{path}: window entry {k}: {exc}") from None
    return seed, windows


def _score_entries(entries: list[dict], labels: Partition) -> tuple[list, np.ndarray]:
    """Score each prediction entry with members against the ground truth
    restricted to those members; returns the window labels and the (windows,
    len(METRIC_NAMES), 3) array of precision, recall and f1."""
    windows, scores = [], []
    for entry in entries:
        pred = Partition.from_json_obj(entry)
        if pred.members:
            truth = restrict_labels(pred.members, labels)
            windows.append(entry.get("window", len(windows)))
            scores.append([[s.precision, s.recall, s.f1]
                           for s in (gmitre_score(truth, pred), positive_pairwise_metric(truth, pred))])
    return windows, np.array(scores, dtype=float).reshape(-1, len(METRIC_NAMES), len(_SCORE_FIELDS))


def _columns(scores: np.ndarray) -> np.ndarray:
    """The (metric, field) columns of a score array, one 1-D view per row, in
    the order of METRIC_NAMES and then of precision, recall and f1."""
    return scores.reshape(len(scores), -1).T


def _mean_row(scores: np.ndarray) -> np.ndarray:
    """The mean of each column of a non-empty score array, as one
    (len(METRIC_NAMES), 3) score row."""
    return np.array([np.mean(column) for column in _columns(scores)]).reshape(scores.shape[1:])


def _score_rows(scores: np.ndarray, *label) -> list[list]:
    """One CSV row per metric of a score row: the label if given, the metric,
    precision, recall and f1."""
    return [[*label, name, *values] for name, values in zip(METRIC_NAMES, scores.tolist())]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


@contextmanager
def open_output(out):
    """Where a writer writes: an open text file as given, stdout (left open)
    for "-", and otherwise the file at the path out, opened here."""
    if hasattr(out, "write"):
        yield out
    elif out == "-":
        yield sys.stdout
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            yield fh


@contextmanager
def _csv_rows(out, header: list[str]):
    """Write the header to out (see open_output), then yield row(values),
    which writes one row, each value through _fmt."""
    with open_output(out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        yield lambda row: writer.writerow([_fmt(v) for v in row])


def _write_csv(out, header: list[str], rows: Iterable[Iterable]) -> None:
    with _csv_rows(out, header) as write_row:
        for row in rows:
            write_row(row)


def write_features_csv(scenes: Iterable[WindowedScene], out) -> None:
    """One row per pair to out (see open_output):
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
    windows, scores = _score_entries(entries, labels)
    rows = [row for window, score in zip(windows, scores) for row in _score_rows(score, window)]
    if windows:
        rows += _score_rows(_mean_row(scores), "mean")
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


def write_scene_stats(out, windows: list, labels: Partition) -> None:
    """The `stat,value` CSV of the windows' d_in, d_out and d_io, to out (see
    open_output); a statistic whose defining set is empty is left blank."""
    stats = scene_stats(windows, labels)
    rows = [[name, "" if value is None else value] for name, value in dataclasses.asdict(stats).items()]
    _write_csv(out, ["stat", "value"], rows)


def load_windows(data_dir, window_len: float, stride: float, labels_for: str | None = None) -> tuple[Dataset, list]:
    """The dataset at data_dir and its windows; it must span at least one
    window and, when a job needs ground truth (labels_for names it, as in
    "to train"), carry labels."""
    dataset = load_dataset(data_dir)
    if labels_for is not None and dataset.labels is None:
        raise ConfigError(f"{data_dir}: ground truth is required {labels_for}")
    windows = slice_windows(dataset.trajectories, window_len, stride)
    if not windows:
        raise ConfigError("the dataset is shorter than one window")
    return dataset, windows


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
    """BCFW over the examples, one at a time in sequential mode and all at once
    otherwise (online mode predicts from the batch model); the model records
    the config's flat settings. `log` (None, or where open_output writes) gets a row per update."""
    sequential = config.mode == "sequential"
    if log is None:
        model = bcfw_train(examples, config, sequential=sequential)
    else:
        with _csv_rows(log, ["iter", "block", "hinge", "gamma", "gap", "exact"]) as write_row:
            model = bcfw_train(examples, config, sequential=sequential,
                               iteration_hook=lambda _, info: write_row([*info[:5], int(info.exact)]))
    model.config_snapshot = config.to_flat_dict()
    return model


def run_experiment(config: RunConfig, data_dir, out_dir) -> dict:
    """Train/predict/score over config.runs seeded repetitions; emits per-run
    reports under <out>/run-<seed>/ and cross-run summaries at the top level."""
    dataset, windows = load_windows(data_dir, config.window_len, config.stride, labels_for="to train")
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

    run_means = []
    meta_runs = []
    for r in range(config.runs):
        run_seed = config.seed + r
        run_config = dataclasses.replace(config, seed=run_seed)
        rundir = out / f"run-{run_seed}"
        rundir.mkdir(parents=True, exist_ok=True)
        write_config_file(rundir / "config.resolved.toml", run_config.to_flat_dict())

        model = train_model(run_config, examples, rundir / "train_log.csv")
        entries, model = predict_scenes(test_scenes, model, online=config.mode == "online")
        model.save(rundir / "model.json")
        write_predictions(rundir / "predictions.json", run_seed, entries)
        scored, scores = _score_entries(entries, dataset.labels)
        _write_csv(rundir / "per_window.csv", _PER_WINDOW_HEADER,
                   [row for window, score in zip(scored, scores) for row in _score_rows(score, window)])
        mean = _mean_row(scores)
        run_means.append(mean)
        _write_csv(rundir / "metrics.csv", ["metric", *_SCORE_FIELDS], _score_rows(mean))
        _write_csv(rundir / "weights.csv", ["term", "alpha", "beta", "coefficient", "share"], _weights_rows(model))
        meta_runs.append({"seed": run_seed, "nonnegative_weights": model.nonnegative_weights,
                          "iterations": model.iterations, "gmitre_f1": float(mean[0, 2])})
        logger.info("run %d/%d (seed %d): gmitre f1 %.4f", r + 1, config.runs, run_seed, mean[0, 2])

    summary_rows = [
        [name, field, float(np.mean(column)), float(np.std(column, ddof=1)) if config.runs > 1 else 0.0]
        for (name, field), column in zip(product(METRIC_NAMES, _SCORE_FIELDS), _columns(np.array(run_means)))
    ]
    _write_csv(out / "summary.csv", ["metric", "field", "mean", "std"], summary_rows)
    summary: dict[str, dict[str, dict[str, float]]] = {}
    for name, field, mean, std in summary_rows:
        summary.setdefault(name, {})[field] = {"mean": mean, "std": std}

    meta = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": config.to_flat_dict(),
        "runs": meta_runs,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    return {"out_dir": str(out), "summary": summary, "runs": meta_runs}


# ---------------------------------------------------------------------------
# Building blocks shared with the CLI


def predict_scenes(scenes: Iterable[WindowedScene], model: Model, online: bool = False) -> tuple[list[dict], Model]:
    """Predict each scene under the model, or, online, under the model that
    online_predict_train updates from each prediction; returns one prediction
    entry per scene and the last model. Scenes are read one at a time, so a
    generator of scenes holds one scene at a time."""
    scenes, stream = tee(scenes)
    preds = online_predict_train(stream, model) if online else ((predict(s, model), model) for s in stream)
    entries = []
    for scene, (pred, model) in zip(scenes, preds):
        entries.append(prediction_entry(scene.window.index, scene.window.start_t, scene.window.end_t, pred))
    return entries, model


def predict_windows(data_dir, model: Model, window_len=None, stride=None) -> list[dict]:
    """Tile the dataset at data_dir with the model's recorded window settings
    (unless overridden) and predict every window."""
    window_len, stride, configs = _model_settings(model.config_snapshot, window_len, stride)
    _, windows = load_windows(data_dir, window_len, stride)
    entries, _ = predict_scenes((build_scene(w, configs) for w in windows), model)
    return entries


def _model_settings(snapshot: dict, window_len=None, stride=None) -> tuple[float, float, RunConfig]:
    """The window length and stride to predict with, as given or else as
    recorded in a model's snapshot (the stride defaults to the length), and
    the run settings it records (a RunConfig is a FeatureConfig). Every
    recorded setting is checked, and keys the settings no longer have are
    ignored."""
    names = {f.name for f in dataclasses.fields(RunConfig)}
    config = RunConfig.from_dict({k: v for k, v in snapshot.items() if k in names})
    if window_len is None:
        if "window_len" not in snapshot:
            raise ConfigError("window length not given and not recorded in the model")
        window_len = config.window_len
    if stride is None:
        stride = config.stride if "stride" in snapshot else window_len
    return float(window_len), float(stride), config
