"""Experiment harness: config files, prediction files, reports, and the CLI."""

from __future__ import annotations

import dataclasses
import io
import json
import math
import shutil
from pathlib import Path
from typing import Annotated, Literal, get_args, get_origin, get_type_hints

import numpy as np
import pytest

from crowdgroups import (
    ConfigError,
    CrowdGroupsError,
    FeatureConfig,
    Model,
    Partition,
    RunConfig,
    SynthSpec,
    TrainConfig,
    evaluate_predictions,
    load_dataset,
    run_experiment,
    synth_generate,
    write_dataset,
)
from crowdgroups import build_scene, harness, learning, make_training_examples, online_predict_train, predict
from crowdgroups.cli import _build_parser, _resolve_config, main
from crowdgroups.harness import (
    dataclass_from_flat,
    format_config_text,
    load_windows,
    parse_config_text,
    predict_scenes,
    predict_windows,
    prediction_entry,
    read_config_file,
    read_predictions,
    split_training_span,
    train_model,
    write_config_file,
    write_predictions,
)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """Small labeled dataset shared by the harness and CLI tests."""
    spec = SynthSpec(
        n_groups=2, group_size_min=2, group_size_max=2, n_singletons=2,
        extent=24.0, duration=48.0, fps=2.5,
    )
    path = tmp_path_factory.mktemp("data") / "scene"
    trajs, labels = synth_generate(spec, seed=9)
    write_dataset(path, trajs, labels, fps=spec.fps, seed=9)
    return path


FAST = dict(window_len=8.0, stride=8.0, training_span=24.0, runs=2,
            max_iterations=60, seed=0)


# ---------------------------------------------------------------------------
# Flat TOML subset


def test_config_text_round_trip():
    values = {
        "window_len": 12.5,
        "runs": 3,
        "early_stop": True,
        "loss": "gmitre",
    }
    back = parse_config_text(format_config_text(values))
    assert back == values

    awkward = {
        "label": "".join(map(chr, range(0x20))) + '\x7f"\\',
        "tiny": 1e-05, "infinite": float("inf"), "large": 1e+16,
    }
    assert parse_config_text(format_config_text(awkward)) == awkward


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "config.toml"
    values = {"stride": 5.0, "mode": "batch", "early_stop": False}
    write_config_file(path, values)
    assert read_config_file(path) == values


def test_parse_config_scalars_and_comments():
    text = """
# full-line comment
window_len = 10.0   # trailing comment
loss = "gmitre # not a comment"
runs = 4
early_stop = true
label = 'single'
"""
    values = parse_config_text(text)
    assert values["window_len"] == 10.0
    assert values["loss"] == "gmitre # not a comment"
    assert values["runs"] == 4
    assert values["early_stop"] is True
    assert values["label"] == "single"


def test_parse_config_escapes():
    values = parse_config_text('s = "a\\"b\\n\\t\\\\c"')
    assert values["s"] == 'a"b\n\t\\c'


@pytest.mark.parametrize(
    "text",
    [
        "[section]\nkey = 1",
        "key = 1\nkey = 2",
        "just some words",
        "bad key! = 1",
        's = "unterminated',
        "a = [1, 2]",
        "a = [1, [2]]",
        "x = ",
    ],
)
def test_parse_config_rejects(text):
    with pytest.raises(ConfigError):
        parse_config_text(text)


def test_format_scalar_types():
    text = format_config_text({"a": True, "b": 2, "c": 0.5, "d": "s"})
    lines = dict(line.split(" = ", 1) for line in text.strip().splitlines())
    assert lines["a"] == "true"
    assert lines["b"] == "2"
    assert lines["c"] == "0.5"
    assert lines["d"] == '"s"'
    with pytest.raises(ConfigError, match="type list"):  # a setting is a scalar
        format_config_text({"e": [1, 2]})


# ---------------------------------------------------------------------------
# RunConfig


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(window_len=0.0)
    with pytest.raises(ConfigError):
        RunConfig(runs=0)
    with pytest.raises(ConfigError):
        RunConfig(mode="offline")
    with pytest.raises(ConfigError):
        RunConfig(loss="accuracy")
    with pytest.raises(ConfigError):
        RunConfig(granger_lag=0)
    for cls in (TrainConfig, RunConfig, Model):
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            cls(seed=-1)


@pytest.mark.parametrize("cls, key, value", [
    (FeatureConfig, "granger_lag", 2.5),
    (FeatureConfig, "granger_lag", math.inf),
    (FeatureConfig, "heat_cell_edge", math.inf),
    (FeatureConfig, "heat_length", math.nan),
    (FeatureConfig, "heat_k_r", math.nan),
    (TrainConfig, "C", math.nan),
    (TrainConfig, "C", math.inf),
    (TrainConfig, "max_iterations", 10.5),
    (TrainConfig, "seed", 0.5),
    (RunConfig, "max_iterations", 2.5),
    (RunConfig, "window_len", math.nan),
    (RunConfig, "runs", 1.5),
    (RunConfig, "C", math.nan),
    (RunConfig, "granger_lag", 2.5),
    (SynthSpec, "duration", math.nan),
    (SynthSpec, "extent", math.inf),
    (SynthSpec, "n_groups", 2.5),
    (SynthSpec, "lag", 1.5),
])
def test_configs_reject_non_finite_and_non_integral_values(cls, key, value):
    with pytest.raises(ConfigError, match=key):
        cls(**{key: value})


@pytest.mark.parametrize("cls, value", [
    (TrainConfig, math.nan), (TrainConfig, math.inf), (RunConfig, math.nan), (RunConfig, math.inf),
])
def test_update_budget_rejects_non_finite_values(cls, value):
    # max_iterations is the one update budget of every training mode
    with pytest.raises(ConfigError, match="max_iterations"):
        cls(max_iterations=value)


def _wrong_typed(hint) -> list:
    """Values that do not fit a field annotated `hint`; no setting is a list."""
    if hint is float:
        return [True, "1.0", math.nan, [1.0]]
    if hint is int:
        return [True, "1", 2.0, [1]]
    if get_origin(hint) is Literal:
        return [True, 1.0, "unknown", [get_args(hint)[0]]]
    return [True, 1.0, []]


_WRONG_TYPED = [
    (cls, f.name, value)
    for cls in (FeatureConfig, TrainConfig, RunConfig, SynthSpec)
    for f in dataclasses.fields(cls)
    for value in _wrong_typed(get_type_hints(cls)[f.name])
]


@pytest.mark.parametrize("cls, key, value", _WRONG_TYPED,
                         ids=[f"{c.__name__}-{k}-{v!r}" for c, k, v in _WRONG_TYPED])
def test_every_setting_rejects_a_wrong_typed_value(cls, key, value):
    # one rule for code and config files, derived from each field's annotation
    with pytest.raises(ConfigError, match=repr(key)):
        cls(**{key: value})
    with pytest.raises(ConfigError, match=repr(key)):
        dataclass_from_flat(cls, {key: value}, "settings")


def _declared_ranges(cls):
    """(key, type, (low, high, text)) of every field of `cls` whose annotation
    declares a range."""
    for key, hint in get_type_hints(cls, include_extras=True).items():
        if get_origin(hint) is Annotated:
            yield key, get_args(hint)[0], hint.__metadata__[0]


def _bounds(typ, low, high):
    """(end, the nearest value outside it) for each finite end of [low, high]."""
    for end, outward in ((low, -1), (high, 1)):
        if math.isfinite(end):
            yield end, end + outward if typ is int else math.nextafter(end, outward * math.inf)


_RANGED = [
    (cls, key, limits[2], end, past)
    for cls in (FeatureConfig, TrainConfig, RunConfig, SynthSpec, Model)
    for key, typ, limits in _declared_ranges(cls)
    for end, past in _bounds(typ, *limits[:2])
]


def test_every_number_setting_declares_its_range():
    # every int and float field has one, but the group sizes (one rule
    # checks them together)
    unranged = {"SynthSpec.group_size_min", "SynthSpec.group_size_max"}
    missing = [
        f"{cls.__name__}.{key}"
        for cls in (FeatureConfig, TrainConfig, RunConfig, SynthSpec, Model)
        for key, hint in get_type_hints(cls).items()
        if hint in (int, float) and key not in {k for k, *_ in _declared_ranges(cls)}
    ]
    assert sorted(set(missing) - unranged) == [] and unranged <= set(missing)


@pytest.mark.parametrize("cls, key, text, end, past", _RANGED,
                         ids=[f"{c.__name__}-{k}-{p!r}" for c, k, _, _, p in _RANGED])
def test_every_setting_holds_to_its_declared_range(tmp_path, capsys, cls, key, text, end, past):
    # derived from each field's annotation: the end of the range is accepted
    # (a positive number's is the least positive float), the nearest value
    # outside it is refused in code and from the file the class is read from
    # with one message that names the key and the value
    assert getattr(cls(**{key: end}), key) == end
    message = f"{key} must be {text}, got {past!r}"
    with pytest.raises(ConfigError) as info:
        cls(**{key: past})
    assert str(info.value) == message
    if cls is Model:
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**Model().to_dict(), key: past}), encoding="utf-8")
        argv = ["predict", "--model", str(path), "--data", str(tmp_path / "scene")]
    elif cls is SynthSpec:
        write_config_file(tmp_path / "spec.toml", {key: past})
        argv = ["synth", "--spec", str(tmp_path / "spec.toml"), "--out", str(tmp_path / "scene")]
    else:
        write_config_file(tmp_path / "run.toml", {key: past})
        argv = ["stats", "--data", str(tmp_path / "scene"), "--config", str(tmp_path / "run.toml")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and err[0].endswith(message), captured.err
    assert captured.out == "" and not (tmp_path / "scene").exists()


def test_run_config_from_dict_unknown_key():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"window_length": 10.0})


def test_run_config_from_dict_types():
    config = RunConfig.from_dict({"C": 10})
    assert config.C == 10 and type(config.C) is int  # an int is a valid float, kept as given
    with pytest.raises(ConfigError, match="'granger_lag'"):
        RunConfig.from_dict({"granger_lag": 2.0})
    with pytest.raises(ConfigError, match="'runs'"):
        RunConfig.from_dict({"runs": True})


def test_run_config_flat_dict_round_trip():
    # 13 keys, each a scalar a config file holds
    flat = RunConfig().to_flat_dict()
    assert len(flat) == 13 and all(isinstance(v, (bool, int, float, str)) for v in flat.values())
    assert RunConfig.from_dict(flat) == RunConfig()


def test_load_run_config_precedence(tmp_path):
    path = tmp_path / "config.toml"
    write_config_file(path, {"window_len": 4.0, "runs": 7})
    args = _build_parser().parse_args(
        ["run", "--data", "scene", "--out", "report", "--config", str(path), "--runs", "2"])
    config = _resolve_config(args)
    assert config.window_len == 4.0  # from file
    assert config.runs == 2  # flag wins
    assert config.stride == 10.0  # flag not given, default kept


# ---------------------------------------------------------------------------
# Prediction files and scoring


def test_predictions_round_trip(tmp_path):
    path = tmp_path / "predictions.json"
    p = Partition([[1, 2], [3]])
    entries = [prediction_entry(0, 0.0, 10.0, p)]
    write_predictions(path, 5, entries)
    seed, windows = read_predictions(path)
    assert seed == 5
    assert len(windows) == 1
    assert Partition.from_json_obj(windows[0]) == p
    assert windows[0]["start_t"] == 0.0
    assert windows[0]["end_t"] == 10.0


def test_read_predictions_rejects_garbage(tmp_path):
    path = tmp_path / "predictions.json"
    path.write_text("[1, 2]")
    with pytest.raises(CrowdGroupsError):
        read_predictions(path)
    path.write_text("{}")
    with pytest.raises(CrowdGroupsError):
        read_predictions(path)
    path.write_text('{"windows": [{"groups": [[1, 2]]}, {"singletons": ["3"]}]}')
    with pytest.raises(CrowdGroupsError, match="window entry 1: members must be integers"):
        read_predictions(path)


@pytest.mark.parametrize("seed, message", [
    ("2.7", "'seed' must be an integer, got 2.7"),
    ("-3", "seed must be non-negative, got -3"),
    ("true", "'seed' must be an integer, got True"),
])
def test_read_predictions_checks_seed_by_the_rule(tmp_path, seed, message):
    # the seed is checked as every NonNegativeInt setting is, not cut by int()
    path = tmp_path / "predictions.json"
    path.write_text(f'{{"seed": {seed}, "windows": []}}')
    with pytest.raises(CrowdGroupsError) as info:
        read_predictions(path)
    assert str(info.value) == f"{path}: not a prediction file: {message}"


def test_evaluate_predictions_perfect(tmp_path):
    truth_path = tmp_path / "groups.txt"
    truth_path.write_text("1 2\n")
    pred_path = tmp_path / "predictions.json"
    p = Partition([[1, 2], [3]])
    write_predictions(pred_path, 0, [prediction_entry(0, 0.0, 10.0, p)])
    text = evaluate_predictions(truth_path, pred_path)
    lines = text.strip().splitlines()
    assert lines[0] == "window,metric,precision,recall,f1"
    body = [line.split(",") for line in lines[1:]]
    window_rows = [r for r in body if r[0] == "0"]
    mean_rows = [r for r in body if r[0] == "mean"]
    assert {r[1] for r in window_rows} == {"gmitre", "pairwise_positive"}
    assert {r[1] for r in mean_rows} == {"gmitre", "pairwise_positive"}
    for r in window_rows + mean_rows:
        assert float(r[2]) == 1.0 and float(r[3]) == 1.0 and float(r[4]) == 1.0


def test_evaluate_predictions_writes_out(tmp_path, capsys):
    truth_path = tmp_path / "groups.txt"
    truth_path.write_text("1 2\n")
    pred_path = tmp_path / "predictions.json"
    write_predictions(
        pred_path, 0, [prediction_entry(0, 0.0, 5.0, Partition([[1], [2]]))]
    )
    text = evaluate_predictions(truth_path, pred_path)
    out_path = tmp_path / "scores.csv"
    assert main(["eval", "--truth", str(truth_path), "--pred", str(pred_path),
                 "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text() == text
    # missed pair: recall 0 for the truth edge
    gmitre_row = [r for r in text.splitlines() if r.startswith("0,gmitre")][0]
    assert float(gmitre_row.split(",")[3]) < 1.0


@pytest.mark.parametrize("writer", ["features", "predictions", "scene-stats", "train-log"])
def test_every_writer_gives_the_same_bytes_at_every_destination(dataset_dir, tmp_path, capsys, monkeypatch, writer):
    # the three destinations of harness.open_output: a path, an open text file
    # and "-", which is stdout and makes no file named -
    monkeypatch.chdir(tmp_path)
    dataset, windows = load_windows(dataset_dir, 8.0, 8.0)
    scenes = [build_scene(w) for w in windows]
    write = {
        "features": lambda out: harness.write_features_csv(scenes, out),
        "predictions": lambda out: write_predictions(out, 3, predict_scenes(scenes, Model(w=np.ones(8)))[0]),
        "scene-stats": lambda out: harness.write_scene_stats(out, windows, dataset.labels),
        "train-log": lambda out: train_model(RunConfig(max_iterations=30),
                                             make_training_examples(windows, dataset.labels), out),
    }[writer]
    write(tmp_path / "out.txt")
    buffer = io.StringIO()
    write(buffer)
    capsys.readouterr()
    write("-")
    stdout = capsys.readouterr().out
    assert (tmp_path / "out.txt").read_bytes() == buffer.getvalue().encode() == stdout.encode()
    assert stdout.count("\n") > 2 and not (tmp_path / "-").exists()


# ---------------------------------------------------------------------------
# Experiment runner


def test_run_experiment_outputs(dataset_dir, tmp_path):
    out = tmp_path / "report"
    config = RunConfig(**FAST)
    result = run_experiment(config, dataset_dir, out)

    quality = dict(line.split(",") for line in (out / "data_quality.csv").read_text().splitlines()[1:])
    assert list(quality)[-3:] == ["granger_fallback_pairs", "no_overlap_pairs", "far_pairs"]
    assert int(quality["far_pairs"]) > 0
    assert (out / "scene_stats.csv").is_file()
    assert (out / "summary.csv").is_file()
    assert (out / "meta.json").is_file()
    for seed in (0, 1):
        rundir = out / f"run-{seed}"
        for name in (
            "config.resolved.toml",
            "train_log.csv",
            "model.json",
            "predictions.json",
            "per_window.csv",
            "metrics.csv",
            "weights.csv",
        ):
            assert (rundir / name).is_file(), name

    # summary dict matches the CSV
    summary_lines = (out / "summary.csv").read_text().strip().splitlines()
    assert summary_lines[0] == "metric,field,mean,std"
    assert len(summary_lines) == 1 + 2 * 3
    assert set(result["summary"]) == {"gmitre", "pairwise_positive"}
    for fields in result["summary"].values():
        for stats in fields.values():
            assert 0.0 <= stats["mean"] <= 1.0
            assert stats["std"] >= 0.0

    # weights report: four feature rows plus the constant row
    wl = (out / "run-0" / "weights.csv").read_text().strip().splitlines()
    assert wl[0] == "term,alpha,beta,coefficient,share"
    assert [row.split(",")[0] for row in wl[1:]] == [
        "d_ph", "d_sh", "d_ca", "d_he", "constant",
    ]
    shares = [float(row.split(",")[4]) for row in wl[1:5]]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)

    # meta.json carries the config echo and per-run facts
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"]["window_len"] == FAST["window_len"]
    assert [r["seed"] for r in meta["runs"]] == [0, 1]
    assert "created_utc" in meta

    # resolved config echoes the per-run seed and loads as a RunConfig
    resolved = read_config_file(out / "run-1" / "config.resolved.toml")
    assert resolved["seed"] == 1
    assert RunConfig.from_dict(resolved).window_len == FAST["window_len"]


def test_run_experiment_deterministic(dataset_dir, tmp_path):
    config = RunConfig(**FAST)
    run_experiment(config, dataset_dir, tmp_path / "a")
    run_experiment(config, dataset_dir, tmp_path / "b")
    for name in ("summary.csv", "data_quality.csv", "scene_stats.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    for seed in (0, 1):
        for name in ("model.json", "predictions.json", "per_window.csv",
                     "metrics.csv", "weights.csv", "train_log.csv"):
            a = (tmp_path / "a" / f"run-{seed}" / name).read_bytes()
            b = (tmp_path / "b" / f"run-{seed}" / name).read_bytes()
            assert a == b, name


def test_runs_share_no_results(dataset_dir, tmp_path):
    # the runs of one report train on the same examples, and so share the
    # oracle's memo of merge paths; run-1 of two runs must still come out as a
    # lone run at seed 1
    flags = ["--data", str(dataset_dir), "--window-len", "8", "--stride", "8",
             "--training-span", "24", "--max-iterations", "60"]
    assert main(["run", *flags, "--out", str(tmp_path / "two"), "--runs", "2"]) == 0
    assert main(["run", *flags, "--out", str(tmp_path / "one"), "--runs", "1", "--seed", "1"]) == 0
    shared, alone = tmp_path / "two" / "run-1", tmp_path / "one" / "run-1"
    for name in ("train_log.csv", "predictions.json", "weights.csv"):
        assert (shared / name).read_bytes() == (alone / name).read_bytes(), name
    a, b = Model.load(shared / "model.json"), Model.load(alone / "model.json")
    for name in ("w", "w_avg", "block_w", "block_l", "l"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_run_experiment_predictions_replayable(dataset_dir, tmp_path):
    out = tmp_path / "report"
    config = RunConfig(**FAST)
    run_experiment(config, dataset_dir, out)
    model = Model.load(out / "run-0" / "model.json")
    replayed = predict_windows(dataset_dir, model)
    _, recorded = read_predictions(out / "run-0" / "predictions.json")
    # the run predicts only the windows beyond the training span
    tail = replayed[-len(recorded):]
    assert [Partition.from_json_obj(e) for e in tail] == [
        Partition.from_json_obj(e) for e in recorded
    ]


def test_predict_scenes_builds_each_scene_just_before_predicting_it(dataset_dir, monkeypatch):
    _, windows = load_windows(dataset_dir, 8.0, 8.0)
    model = Model(w=np.ones(8))
    events = []

    def scenes():
        for window in windows:
            events.append(("build", window.index))
            yield build_scene(window)

    monkeypatch.setattr(harness, "predict", lambda scene, m: events.append(("predict", scene.window.index))
                        or predict(scene, m))
    entries, last = predict_scenes(scenes(), model)
    assert events == [(kind, w.index) for w in windows for kind in ("build", "predict")]
    assert last is model
    assert entries == [prediction_entry(w.index, w.start_t, w.end_t, predict(build_scene(w), model))
                       for w in windows]


def test_predict_scenes_online_matches_online_predict_train(dataset_dir):
    dataset, windows = load_windows(dataset_dir, 8.0, 8.0, labels_for="to train")
    init, _ = train_model(RunConfig(**FAST), make_training_examples(windows[:3], dataset.labels), None)
    scenes = [build_scene(w) for w in windows[3:]]
    entries, last = predict_scenes(iter(scenes), init, online=True)
    streamed = list(online_predict_train(scenes, init))
    assert [Partition.from_json_obj(e) for e in entries] == [pred for pred, _ in streamed]
    assert [e["window"] for e in entries] == [s.window.index for s in scenes]
    assert last.mode == "online" and np.array_equal(last.w, streamed[-1][1].w)


@pytest.mark.parametrize("mode", ["sequential", "online"])
def test_run_experiment_other_modes(dataset_dir, tmp_path, mode):
    config = RunConfig(**{**FAST, "runs": 1, "mode": mode, "max_iterations": 30})
    result = run_experiment(config, dataset_dir, tmp_path / mode)
    model = Model.load(tmp_path / mode / "run-0" / "model.json")
    assert model.mode == mode
    assert result["runs"][0]["iterations"] == model.iterations
    # both modes spend max_iterations on the training windows; online mode
    # then spends ONLINE_STEPS on each of the three predicted windows
    assert model.iterations == 30 + (3 * learning.ONLINE_STEPS if mode == "online" else 0)


@pytest.mark.parametrize("mode", ["batch", "online", "sequential"])
def test_meta_records_each_runs_training_health(dataset_dir, tmp_path, mode):
    # per run: the final exact pass's summed duality gap, the dual
    # l - 0.5 ||w||^2 of the trained model (before any online update) and the
    # primal estimate dual + gap; null in sequential mode, which has no final
    # exact pass. The model file gains no key
    config = RunConfig(**{**FAST, "mode": mode})
    out = tmp_path / "report"
    run_experiment(config, dataset_dir, out)
    meta = json.loads((out / "meta.json").read_text())
    dataset, windows = load_windows(dataset_dir, config.window_len, config.stride, labels_for="to train")
    examples = make_training_examples(split_training_span(dataset, windows, config.training_span)[0], dataset.labels)
    for run in meta["runs"]:
        health = {key: run[key] for key in ("duality_gap", "dual", "primal_estimate")}
        assert not set(json.loads((out / f"run-{run['seed']}" / "model.json").read_text())) & set(health)
        if mode == "sequential":
            assert health == dict.fromkeys(health)
            continue
        infos = []
        model = learning.bcfw_train(examples, dataclasses.replace(config, seed=run["seed"]),
                                    iteration_hook=lambda _, info: infos.append(info))
        final = infos[-len(examples) :]
        assert [info.block for info in final] == list(range(len(examples))) and all(info.exact for info in final)
        gap, dual = sum(info.gap for info in final), model.l - 0.5 * float(model.w @ model.w)
        assert health == {"duality_gap": gap, "dual": dual, "primal_estimate": dual + gap}
        assert len(examples) > 1 and gap != 0.0 and dual > 0.0


@pytest.mark.parametrize("mode", ["batch", "sequential"])
def test_train_model_requires_examples(mode):
    with pytest.raises(ConfigError, match="at least one example"):
        train_model(RunConfig(mode=mode), [], None)


def test_run_experiment_error_paths(dataset_dir, tmp_path):
    unlabeled = tmp_path / "unlabeled"
    ds = load_dataset(dataset_dir)
    write_dataset(unlabeled, ds.trajectories, None, fps=ds.fps)
    with pytest.raises(ConfigError):
        run_experiment(RunConfig(**FAST), unlabeled, tmp_path / "x")
    # training span swallowing the whole recording leaves nothing to predict
    with pytest.raises(ConfigError):
        run_experiment(
            RunConfig(**{**FAST, "training_span": 1000.0}), dataset_dir, tmp_path / "y"
        )
    # span shorter than one window leaves nothing to train on
    with pytest.raises(ConfigError):
        run_experiment(
            RunConfig(**{**FAST, "training_span": 1.0}), dataset_dir, tmp_path / "z"
        )


# ---------------------------------------------------------------------------
# Command-line interface


def test_cli_synth_and_stats(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(["synth", "--seed", "3", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "trajectories" in captured.out
    ds = load_dataset(out)
    assert ds.labels is not None

    assert main(["stats", "--data", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "stat,value"
    assert [l.split(",")[0] for l in lines[1:]] == ["d_in", "d_out", "d_io"]


def test_cli_stats_prints_the_runs_scene_stats(dataset_dir, tmp_path, capsys):
    out = tmp_path / "report"
    run_experiment(RunConfig(**{**FAST, "runs": 1}), dataset_dir, out)
    assert main(["stats", "--data", str(dataset_dir), "--window-len", "8", "--stride", "8"]) == 0
    assert capsys.readouterr().out == (out / "scene_stats.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("name, content", [
    ("trajectories.txt", None),
    ("groups.txt", "1 2\n3 inf\n"),
])
def test_cli_rejects_ids_that_are_not_whole_numbers(dataset_dir, tmp_path, capsys, name, content):
    data = tmp_path / "scene"
    shutil.copytree(dataset_dir, data)
    if content is None:
        lines = (data / name).read_text(encoding="utf-8").splitlines()
        fields = lines[-1].split()
        lines.append(" ".join([fields[0], "inf", *fields[2:]]))
        content = "\n".join(lines) + "\n"
    (data / name).write_text(content, encoding="utf-8")
    assert main(["stats", "--data", str(data)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and name in err[0]


@pytest.mark.parametrize("descriptor, homography", [
    ("fps = nan\n", None),
    ("fps = inf\n", None),
    ("units = pixels\nhomography = H.txt\n", "1 0 0 0 1 0 0 0 inf\n"),
    ("units = pixels\nhomography = H.txt\n", "1 0 0 0 nan 0 0 0 1\n"),
])
@pytest.mark.parametrize("command", ["stats", "features", "train", "run", "predict"])
def test_cli_rejects_non_finite_frame_rate_and_homography(
    dataset_dir, tmp_path, capsys, descriptor, homography, command
):
    data = tmp_path / "scene"
    shutil.copytree(dataset_dir, data)
    (data / "descriptor.txt").write_text(descriptor, encoding="utf-8")
    if homography is not None:
        (data / "H.txt").write_text(homography, encoding="utf-8")
    model_path = tmp_path / "model.json"
    Model(config={"window_len": 8.0, "stride": 8.0}).save(model_path)
    extra = {
        "train": ["--out", str(tmp_path / "trained.json")],
        "run": ["--out", str(tmp_path / "report")],
        "predict": ["--model", str(model_path)],
    }.get(command, [])
    assert main([command, "--data", str(data), *extra]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "Traceback" not in captured.err
    at_fault = data / ("descriptor.txt" if homography is None else "H.txt")
    assert err[0].startswith(f"error: {at_fault}: ")
    assert captured.out == ""
    assert not (tmp_path / "report").exists() and not (tmp_path / "trained.json").exists()


def test_cli_synth_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "spec.toml"
    write_config_file(spec_path, {"n_groups": 1, "n_singletons": 1, "duration": 20.0})
    out = tmp_path / "ds"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    capsys.readouterr()
    ds = load_dataset(out)
    assert len(ds.trajectories) >= 3

    write_config_file(spec_path, {"n_grups": 1})
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 1
    assert "unknown synth spec keys" in capsys.readouterr().err


def test_cli_synth_spec_wrong_type(tmp_path, capsys):
    spec_path = tmp_path / "spec.toml"
    write_config_file(spec_path, {"n_groups": "4"})
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "ds")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'n_groups'" in err


def test_cli_synth_crowded_extent_fails_with_one_error_line(tmp_path, capsys):
    # 50 starts cannot be 0.25 m apart in the 0.5 m square left inside the margin
    spec_path = tmp_path / "spec.toml"
    write_config_file(spec_path, {"n_groups": 0, "n_singletons": 50, "extent": 4.5})
    out = tmp_path / "ds"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: could not place 50 starts in extent 4.5\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("key, value", [
    ("runs", 1.5), ("max_iterations", 5.5), ("runs", True),
    ("early_stop", True), ("sequential_budget", 5), ("online_budget", 5),  # removed keys
    ("heat_accumulate", "binary"), ("heat_k_s", 1e-5),
])
def test_cli_run_config_wrong_type(dataset_dir, tmp_path, capsys, key, value):
    config_path = tmp_path / "config.toml"
    write_config_file(config_path, {key: value})
    assert main(["run", "--data", str(dataset_dir), "--out", str(tmp_path / "report"),
                 "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err and len(err.splitlines()) == 1
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("config_text, flags, key", [
    ("heat_length = nan\n", [], "heat_length"),
    ("heat_cell_edge = inf\n", [], "heat_cell_edge"),
    ("C = inf\n", [], "C"),
    ("", ["--C", "nan"], "C"),
])
def test_cli_run_rejects_non_finite(dataset_dir, tmp_path, capsys, config_text, flags, key):
    config_path = tmp_path / "config.toml"
    config_path.write_text(config_text, encoding="utf-8")
    assert main(["run", "--data", str(dataset_dir), "--out", str(tmp_path / "report"),
                 "--config", str(config_path), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err and "finite" in err
    assert not (tmp_path / "report").exists()


def test_cli_features(dataset_dir, capsys):
    assert main(["features", "--data", str(dataset_dir), "--window-len", "8",
                 "--stride", "8"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "window,a,b,d_ph,d_sh,d_ca,d_he"
    assert len(lines) > 1
    for line in lines[1:]:
        values = [float(v) for v in line.split(",")[3:]]
        assert all(0.0 <= v <= 1.0 for v in values)


def test_cli_train_predict_eval(dataset_dir, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    log_path = tmp_path / "log.csv"
    code = main([
        "train", "--data", str(dataset_dir), "--out", str(model_path),
        "--log", str(log_path), "--window-len", "8", "--stride", "8",
        "--max-iterations", "40",
    ])
    assert code == 0
    assert "trained on" in capsys.readouterr().out
    assert model_path.is_file()
    assert log_path.read_text().splitlines()[0] == "iter,block,hinge,gamma,gap,exact"

    pred_path = tmp_path / "predictions.json"
    assert main(["predict", "--model", str(model_path), "--data", str(dataset_dir),
                 "--out", str(pred_path)]) == 0
    capsys.readouterr()
    _, entries = read_predictions(pred_path)
    assert entries

    scores_path = tmp_path / "scores.csv"
    assert main(["eval", "--truth", str(dataset_dir / "groups.txt"),
                 "--pred", str(pred_path), "--out", str(scores_path)]) == 0
    capsys.readouterr()
    assert scores_path.read_text().startswith("window,metric,precision,recall,f1")


@pytest.mark.parametrize("entry, reason", [
    (7, "expected an object"),
    ({"groups": [[1, 1]]}, "more than one cluster"),
], ids=["not-an-object", "repeated-member"])
def test_cli_eval_rejects_malformed_entry(dataset_dir, tmp_path, capsys, entry, reason):
    pred_path = tmp_path / "predictions.json"
    pred_path.write_text(json.dumps({"windows": [{"groups": [[1, 2]]}, entry]}))
    assert main(["eval", "--truth", str(dataset_dir / "groups.txt"),
                 "--pred", str(pred_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert f"{pred_path}: window entry 1: " in captured.err and reason in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("window, message", [
    ({"x": [1, 2]}, "'window' must be an integer, got {'x': [1, 2]}"),
    (True, "'window' must be an integer, got True"),
    (3.5, "'window' must be an integer, got 3.5"),
    (-1, "window must be non-negative, got -1"),
], ids=["dict", "bool", "3.5", "-1"])
def test_cli_eval_checks_window_labels_by_the_rule(dataset_dir, tmp_path, capsys, window, message):
    # a window label is a NonNegativeInt, checked as every setting is, not any
    # JSON value echoed into the CSV
    pred_path = tmp_path / "predictions.json"
    pred_path.write_text(json.dumps({"windows": [{"window": 0, "groups": [[1, 2]]},
                                                 {"window": window, "groups": [[1, 2]]}]}))
    assert main(["eval", "--truth", str(dataset_dir / "groups.txt"), "--pred", str(pred_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {pred_path}: window entry 1: {message}\n" and captured.out == ""


@pytest.mark.parametrize("flag", ["--window", "--stride"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_predict_rejects_non_finite_window(dataset_dir, tmp_path, capsys, flag, value):
    model_path = tmp_path / "model.json"
    Model(config={"window_len": 8.0, "stride": 8.0}).save(model_path)
    assert main(["predict", "--model", str(model_path), "--data", str(dataset_dir),
                 flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "must be a finite number" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, flags", [
    ("run", ["--out", "report", "--window-len"]),
    ("stats", ["--window-len"]),
    ("features", ["--window-len"]),
    ("train", ["--out", "model-out.json", "--window-len"]),
    ("predict", ["--model", "model.json", "--window-len"]),
    ("predict", ["--model", "model.json", "--window"]),
], ids=["run", "stats", "features", "train", "predict", "predict-window-alias"])
def test_cli_rejects_dataset_shorter_than_one_window(
    dataset_dir, tmp_path, capsys, monkeypatch, command, flags
):
    # the 48 s dataset holds no 1000 s window; every command says so alike
    monkeypatch.chdir(tmp_path)
    Model(config={"window_len": 8.0, "stride": 8.0}).save(tmp_path / "model.json")
    code = main([command, "--data", str(dataset_dir), *flags, "1000"])
    captured = capsys.readouterr()
    assert (code, captured.err, captured.out) == (
        1, "error: the dataset is shorter than one window\n", "")
    assert not (tmp_path / "report").exists() and not (tmp_path / "model-out.json").exists()


def test_cli_predict_window_len_and_its_alias_agree(dataset_dir, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    Model(w=np.ones(8), config={"window_len": 8.0, "stride": 8.0}).save(model_path)
    outputs = []
    for flag in ("--window-len", "--window"):
        assert main(["predict", "--model", str(model_path), "--data", str(dataset_dir),
                     flag, "12", "--stride", "12"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert [w["end_t"] - w["start_t"] for w in json.loads(outputs[0])["windows"]] == [12.0] * 4


@pytest.mark.parametrize("field", ["w", "block_w", "block_l", "l", "C"])
def test_cli_predict_rejects_non_finite_model(dataset_dir, tmp_path, capsys, field):
    obj = Model(w=np.ones(8), block_w=np.ones((1, 8)), block_l=[0.5], l=0.5).to_dict()
    value = np.array(obj[field], dtype=float)
    value.flat[0] = np.nan
    obj[field] = value.tolist()
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["predict", "--model", str(model_path), "--data", str(dataset_dir)]) == 1
    captured = capsys.readouterr()
    # the scalar fields l and C are checked by their annotations, the arrays by Model
    message = f"{field!r} must be a finite number" if field in ("l", "C") else f"{field} must be finite"
    assert captured.err.startswith("error: ") and f": {message}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("key, value", [
    ("seed", 1.5), ("C", "10"), ("C", True), ("mode", ["batch"]), ("loss", "accuracy"),
])
def test_cli_predict_rejects_wrong_typed_model_field(dataset_dir, tmp_path, capsys, key, value):
    obj = Model(w=np.ones(8), config={"window_len": 8.0, "stride": 8.0}).to_dict()
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({**obj, key: value}), encoding="utf-8")
    assert main(["predict", "--model", str(model_path), "--data", str(dataset_dir)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and repr(key) in err[0]
    assert captured.out == ""


@pytest.mark.parametrize("key, value, message", [
    ("C", -1, "C must be positive and at most 1e60, got -1"),
    ("iterations", -5, "iterations must be non-negative, got -5"),
    ("seed", -1, "seed must be non-negative, got -1"),
], ids=["C--1", "iterations--5", "seed--1"])
def test_cli_predict_rejects_out_of_range_model_field(dataset_dir, tmp_path, capsys, key, value, message):
    obj = Model(w=np.ones(8), config={"window_len": 8.0, "stride": 8.0}).to_dict()
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({**obj, key: value}), encoding="utf-8")
    assert main(["predict", "--model", str(model_path), "--data", str(dataset_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {model_path}: not a valid model file: {message}\n" and captured.out == ""


@pytest.mark.parametrize("key, value", [("window_len", "x"), ("stride", None), ("mode", "foo"), ("heat_length", -1.0)])
def test_cli_predict_rejects_bad_recorded_settings(dataset_dir, tmp_path, capsys, key, value):
    model_path = tmp_path / "model.json"
    Model(config={**RunConfig(**FAST).to_flat_dict(), key: value}).save(model_path)
    assert main(["predict", "--model", str(model_path), "--data", str(dataset_dir)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("config", [[["window_len", 10.0]], 0, False, "", []],
                         ids=["pairs", "0", "false", "empty-string", "empty-list"])
def test_cli_predict_refuses_a_recorded_config_that_is_not_an_object(dataset_dir, tmp_path, capsys, config):
    # a model's config is checked by its annotation before it is copied, so a
    # list of pairs is not read as a dict, nor a false value as no settings
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({**Model(w=np.ones(8)).to_dict(), "config": config}), encoding="utf-8")
    assert main(["predict", "--model", str(model_path), "--data", str(dataset_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {model_path}: not a valid model file: "
                            f"'config' must be dict | None, got {config!r}\n")
    assert captured.out == ""


def test_cli_predict_names_the_model_that_records_no_window_length(dataset_dir, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    Model(w=np.ones(8)).save(model_path)
    assert main(["predict", "--model", str(model_path), "--data", str(dataset_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {model_path}: window length not given and not recorded in the model\n"
    assert main(["predict", "--model", str(model_path), "--data", str(dataset_dir), "--window-len", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["windows"]


def test_cli_predict_with_model_recording_removed_keys(dataset_dir, tmp_path, capsys):
    # a model file written before early_stop, early_stop_tol, sequential_budget,
    # online_budget, heat_accumulate, heat_k_s, proxemic_sigmas and other keys left the settings
    # still predicts, as if they were not recorded
    saved = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "model.json").read_text())
    removed = {"early_stop", "early_stop_tol", "sequential_budget", "online_budget", "heat_accumulate", "heat_k_s",
               "proxemic_sigmas"}
    assert removed <= set(saved["config"])
    known = set(RunConfig().to_flat_dict())
    outputs = []
    for config in (saved["config"], {k: v for k, v in saved["config"].items() if k in known}):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({**saved, "config": config}), encoding="utf-8")
        assert main(["predict", "--model", str(model_path), "--data", str(dataset_dir)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and json.loads(outputs[0])["windows"]


def test_cli_train_span_only_when_requested(dataset_dir, tmp_path, capsys):
    # default: all windows train; with --training-span: only the early ones
    full = tmp_path / "full.json"
    short = tmp_path / "short.json"
    main(["train", "--data", str(dataset_dir), "--out", str(full),
          "--window-len", "8", "--stride", "8", "--max-iterations", "10"])
    main(["train", "--data", str(dataset_dir), "--out", str(short),
          "--window-len", "8", "--stride", "8", "--max-iterations", "10",
          "--training-span", "16"])
    capsys.readouterr()
    full_model = Model.load(full)
    short_model = Model.load(short)
    assert full_model.block_w.shape[0] > short_model.block_w.shape[0]


def test_cli_train_span_from_config_file(dataset_dir, tmp_path, capsys):
    config_path = tmp_path / "config.toml"
    write_config_file(config_path, {"training_span": 16.0})
    args = ["train", "--data", str(dataset_dir), "--window-len", "8", "--stride", "8",
            "--max-iterations", "10"]
    assert main([*args, "--out", str(tmp_path / "full.json")]) == 0
    assert main([*args, "--out", str(tmp_path / "short.json"), "--config", str(config_path)]) == 0
    capsys.readouterr()
    full_model = Model.load(tmp_path / "full.json")
    short_model = Model.load(tmp_path / "short.json")
    assert full_model.block_w.shape[0] > short_model.block_w.shape[0]


def test_cli_train_online_rejected(dataset_dir, tmp_path, capsys):
    code = main(["train", "--data", str(dataset_dir), "--out",
                 str(tmp_path / "m.json"), "--mode", "online"])
    assert code == 1
    assert "run command" in capsys.readouterr().err


def test_cli_run(dataset_dir, tmp_path, capsys):
    out = tmp_path / "report"
    code = main([
        "run", "--data", str(dataset_dir), "--out", str(out),
        "--window-len", "8", "--stride", "8", "--training-span", "24",
        "--runs", "1", "--max-iterations", "40",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "gmitre:" in printed
    assert "reports in" in printed
    assert (out / "summary.csv").is_file()


def test_cli_run_rejects_test_span_without_members(tmp_path, capsys):
    # two mates and a singleton fill the 100 s training span at 1 fps; the
    # only pedestrian after it is seen once per window, so no test window
    # has members to score
    scene = tmp_path / "scene"
    scene.mkdir()
    rows = [f"{f} {p} {0.1 * f:.1f} {y}" for f in range(101) for p, y in ((1, 0.0), (2, 0.8), (3, 6.0))]
    (scene / "trajectories.txt").write_text("\n".join([*rows, "101 4 0.0 3.0", "111 4 1.0 3.0"]) + "\n")
    (scene / "groups.txt").write_text("1 2\n")
    (scene / "descriptor.txt").write_text("fps = 1\n")
    code = main(["run", "--data", str(scene), "--out", str(tmp_path / "report"),
                 "--runs", "1", "--max-iterations", "20"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: no windows with members left to predict beyond the training span\n"
    assert not (tmp_path / "report").exists()


def test_cli_run_config_file(dataset_dir, tmp_path, capsys):
    config_path = tmp_path / "config.toml"
    write_config_file(config_path, {
        "window_len": 8.0, "stride": 8.0, "training_span": 24.0,
        "runs": 1, "max_iterations": 30,
    })
    out = tmp_path / "report"
    assert main(["run", "--data", str(dataset_dir), "--out", str(out),
                 "--config", str(config_path), "--max-iterations", "20"]) == 0
    capsys.readouterr()
    resolved = read_config_file(out / "run-0" / "config.resolved.toml")
    assert resolved["max_iterations"] == 20  # the flag beats the file
    assert resolved["window_len"] == 8.0  # from the file
    assert resolved["stride"] == 8.0
    assert resolved["runs"] == 1


def test_cli_run_replays_from_its_resolved_config(dataset_dir, tmp_path, capsys):
    # a report's config.resolved.toml, given back as --config, writes the same
    # bytes: every file of run-0 and the summary
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["run", "--data", str(dataset_dir), "--out", str(first), "--runs", "1", "--window-len", "8",
                 "--stride", "8", "--training-span", "24", "--max-iterations", "40"]) == 0
    assert main(["run", "--data", str(dataset_dir), "--out", str(second),
                 "--config", str(first / "run-0" / "config.resolved.toml")]) == 0
    capsys.readouterr()
    names = sorted(path.name for path in (first / "run-0").iterdir())
    assert "config.resolved.toml" in names and names == sorted(path.name for path in (second / "run-0").iterdir())
    for name in [*(f"run-0/{name}" for name in names), "summary.csv"]:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("command, out", [("run", "report"), ("train", "model.json"),
                                          ("features", "features.csv"), ("stats", None)])
def test_cli_refuses_an_old_resolved_config(dataset_dir, tmp_path, capsys, command, out):
    # every config.resolved.toml written while d_ph's zones were a setting
    # records them; every command that reads --config refuses the key, by
    # name, as every retired key is, and writes nothing
    config_path = tmp_path / "config.resolved.toml"
    config_path.write_text(format_config_text(RunConfig(**FAST).to_flat_dict())
                           + "proxemic_sigmas = [0.5, 1.2, 3.7, 7.6]\n", encoding="utf-8")
    out_flags = [] if out is None else ["--out", str(tmp_path / out)]
    assert main([command, "--data", str(dataset_dir), *out_flags, "--config", str(config_path)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {config_path}: 'proxemic_sigmas' ") and captured.out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.resolved.toml"]


def test_cli_exit_codes(tmp_path, capsys):
    assert main([]) == 2  # missing subcommand
    capsys.readouterr()
    assert main(["run", "--bogus"]) == 2  # unknown flag
    capsys.readouterr()
    assert main(["stats", "--data", str(tmp_path / "nowhere")]) == 1
    assert "error:" in capsys.readouterr().err
    bad_config = tmp_path / "bad.toml"
    bad_config.write_text("[section]\n")
    assert main(["run", "--data", str(tmp_path), "--out", str(tmp_path / "o"),
                 "--config", str(bad_config)]) == 1
    capsys.readouterr()
