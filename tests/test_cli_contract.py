"""The command-line contract: every subcommand, given bad numbers, short or
empty data, unreadable input files or unwritable outputs, either succeeds
with output or exits 1 with exactly one `error:` line; no exception escapes
`cli.main`.

Integer flags get only negative values here: argparse refuses `nan` for an
integer as a usage error (exit 2) before any subcommand runs, which
`test_harness.py::test_cli_exit_codes` covers.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crowdgroups import Model, SynthSpec, cli, harness, synth_generate, write_dataset
from crowdgroups.cli import main
from crowdgroups.harness import predict_windows, write_predictions

NOT_UTF8 = b"\xff\xfe\x00\x01\x02\x03"

# {d} is the shared input directory, {t} the case's own output directory
BASE = ["--data", "{d}/scene", "--window-len", "8", "--stride", "8", "--training-span", "24",
        "--max-iterations", "30", "--runs", "1"]
CONFIG_COMMANDS = {
    "features": ["features", *BASE, "--out", "{t}/features.csv"],
    "train": ["train", *BASE, "--out", "{t}/model.json", "--log", "{t}/log.csv"],
    "run": ["run", *BASE, "--out", "{t}/report"],
    "stats": ["stats", *BASE],
}
PREDICT = ["predict", "--model", "{d}/model.json", "--data", "{d}/scene", "--out", "{t}/pred.json"]
EVAL = ["eval", "--truth", "{d}/scene/groups.txt", "--pred", "{d}/pred.json", "--out", "{t}/scores.csv"]
SYNTH = ["synth", "--spec", "{d}/spec.toml", "--out", "{t}/synth"]
DATA_COMMANDS = {**CONFIG_COMMANDS, "predict": PREDICT}
NEED_TRUTH = ("train", "run", "stats")  # the data commands that refuse a dataset without labels
FILES = {"missing": "{d}/missing", "not-utf8": "{d}/not-utf8.bin", "not-json": "{d}/not-json.txt"}


def _with(argv: list[str], flag: str, value: str) -> list[str]:
    """argv with flag's value replaced, or the flag appended."""
    if flag in argv:
        k = argv.index(flag)
        return [*argv[:k + 1], value, *argv[k + 2:]]
    return [*argv, flag, value]


def _cases():
    yield "synth-valid", SYNTH
    yield "eval-valid", EVAL
    for name, argv in DATA_COMMANDS.items():
        yield f"{name}-valid", argv
        yield f"{name}-window-longer-than-data", _with(argv, "--window-len", "1000")
        yield f"{name}-stride-tiny", _with(argv, "--stride", "1e-300")
        yield f"{name}-data-empty", _with(argv, "--data", "{d}/empty")
        yield f"{name}-data-not-utf8", _with(argv, "--data", "{d}/not-utf8")
        yield f"{name}-data-unlabelled", _with(argv, "--data", "{d}/unlabelled")
    float_flags = ["--window-len", "--stride", "--training-span", "--C"]
    for name, argv in CONFIG_COMMANDS.items():
        for flag in float_flags:
            for value in ("nan", "inf", "-1"):
                yield f"{name}{flag}={value}", _with(argv, flag, value)
        for flag in ("--seed", "--runs", "--max-iterations"):
            yield f"{name}{flag}=-1", _with(argv, flag, "-1")
        for kind, path in FILES.items():
            yield f"{name}-config-{kind}", _with(argv, "--config", path)
    for flag in ("--window-len", "--stride"):
        for value in ("nan", "inf", "-1"):
            yield f"predict{flag}={value}", _with(PREDICT, flag, value)
    yield "synth--seed=-1", _with(SYNTH, "--seed", "-1")
    # more samples than a scene may hold; 1e300 x fps x pedestrians overflows a float
    for duration in ("1e12", "1e300"):
        yield f"synth-duration={duration}", _with(SYNTH, "--spec", f"{{d}}/duration-{duration}.toml")
    # the smallest cell edge: the scene's cell indices reach about 2e51
    yield "features-heat_cell_edge=1e-50-valid", _with(CONFIG_COMMANDS["features"], "--config", "{d}/edge.toml")
    # a coordinate past the sample bound, which would overflow the kernels, is refused
    overflow = _with(_with(CONFIG_COMMANDS["features"], "--data", "{d}/overflow"), "--window-len", "12")
    yield "features-coordinate=1e160", _with(overflow, "--stride", "12")
    # a whole-number file field past any float: the rule refuses inf, int() overflowed
    yield "predict-model-format_version=1e400", _with(PREDICT, "--model", "{d}/model-version-1e400.json")
    yield "eval-pred-seed=1e400", _with(EVAL, "--pred", "{d}/pred-seed-1e400.json")
    for kind, path in FILES.items():
        yield f"synth-spec-{kind}", _with(SYNTH, "--spec", path)
        yield f"predict-model-{kind}", _with(PREDICT, "--model", path)
        yield f"eval-pred-{kind}", _with(EVAL, "--pred", path)
        yield f"eval-truth-{kind}", _with(EVAL, "--truth", path)
    # a directory where a file is written, a file where a directory is
    for name, argv in (("features", CONFIG_COMMANDS["features"]), ("train", CONFIG_COMMANDS["train"]),
                       ("predict", PREDICT), ("eval", EVAL)):
        yield f"{name}-out-unwritable", _with(argv, "--out", "{d}/a-directory")
    yield "train-log-unwritable", _with(CONFIG_COMMANDS["train"], "--log", "{d}/a-directory")
    yield "run-out-unwritable", _with(CONFIG_COMMANDS["run"], "--out", "{d}/a-file")
    yield "synth-out-unwritable", _with(SYNTH, "--out", "{d}/a-file")


CASES = dict(_cases())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    spec = SynthSpec(n_groups=2, group_size_min=2, group_size_max=2, n_singletons=1,
                     extent=20.0, duration=32.0, fps=2.5)
    trajectories, labels = synth_generate(spec, seed=3)
    write_dataset(root / "scene", trajectories, labels, fps=spec.fps, seed=3)
    write_dataset(root / "unlabelled", trajectories, None, fps=spec.fps, seed=3)
    shutil.copytree(root / "scene", root / "not-utf8")
    (root / "not-utf8" / "trajectories.txt").write_bytes(NOT_UTF8)
    (root / "empty").mkdir()
    (root / "a-directory").mkdir()
    (root / "a-file").write_text("x\n", encoding="utf-8")
    (root / "not-utf8.bin").write_bytes(NOT_UTF8)
    (root / "not-json.txt").write_text("{not json\n", encoding="utf-8")
    (root / "spec.toml").write_text("n_groups = 1\nn_singletons = 1\nduration = 20.0\n", encoding="utf-8")
    for duration in ("1e12", "1e300"):
        (root / f"duration-{duration}.toml").write_text(f"duration = {duration}\n", encoding="utf-8")
    (root / "edge.toml").write_text("heat_cell_edge = 1e-50\n", encoding="utf-8")
    model = Model(w=np.ones(8), config={"window_len": 8.0, "stride": 8.0})
    model.save(root / "model.json")
    write_predictions(root / "pred.json", 0, predict_windows(root / "scene", model))
    for name, source, key in (("model-version-1e400.json", "model.json", "format_version"),
                              ("pred-seed-1e400.json", "pred.json", "seed")):
        obj = {**json.loads((root / source).read_text(encoding="utf-8")), key: None}
        (root / name).write_text(json.dumps(obj).replace(f'"{key}": null', f'"{key}": 1e400'), encoding="utf-8")
    obj = {**json.loads((root / "model.json").read_text(encoding="utf-8")), "w": [1.7e308] * 8}
    (root / "model-w-1.7e308.json").write_text(json.dumps(obj), encoding="utf-8")
    saved = json.loads((root / "model.json").read_text(encoding="utf-8"))
    for name, obj in (("model-no-w.json", {"format_version": 1}), ("model-w-1e200.json", {**saved, "w": [1e200] * 8}),
                      ("model-window_len--1.json", {**saved, "config": {"window_len": -1, "stride": 8.0}})):
        (root / name).write_text(json.dumps(obj), encoding="utf-8")
    # pedestrians 1 and 2 share 12 frames 0.5 apart; 1 jumps to x = 1e160 m for the
    # last 6, or in pixel files to 1e308 px, or stands at x = 6 px
    for name, x, homography in (("overflow", 1e160, None), ("pixels-1e308", 1e308, "2 0 0 0 2 0 0 0 1"),
                                ("homography-1e300", 6.0, "1e300 0 0 0 1e300 0 0 0 1")):
        (root / name).mkdir()
        rows = [f"{f} {p} {x if p == 1 and f >= 6 else float(f)!r} {0.5 * (p - 1)}" for f in range(12) for p in (1, 2)]
        (root / name / "trajectories.txt").write_text("\n".join(rows) + "\n", encoding="utf-8")
        if homography:
            (root / name / "descriptor.txt").write_text("units = pixels\nhomography = H.txt\n", encoding="utf-8")
            (root / name / "H.txt").write_text(homography + "\n", encoding="utf-8")
    return root


def _written(path) -> bool:
    return path.is_file() and path.stat().st_size > 0 or path.is_dir() and any(path.iterdir())


@pytest.mark.parametrize("case", CASES)
def test_cli_contract(inputs, tmp_path, capsys, case):
    argv = [arg.format(d=inputs, t=tmp_path) for arg in CASES[case]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 or not case.endswith("-valid"), captured.err
    if case.endswith("-data-unlabelled"):
        assert (code == 1) == case.startswith(NEED_TRUTH), captured.err
        assert code == 0 or "ground truth is required" in captured.err
    if code == 0:
        assert captured.out or any(map(_written, tmp_path.iterdir()))
    else:
        lines = captured.err.splitlines()
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error:"), captured.err


# outputs that cannot be written, checked before any window is featurized;
# the valid case shows that the count sees the calls
EARLY_FAILURES = {
    "features-out-directory": _with(CONFIG_COMMANDS["features"], "--out", "{d}/a-directory"),
    "features-out-no-parent": _with(CONFIG_COMMANDS["features"], "--out", "{d}/missing/x.csv"),
    "train-out-directory": _with(CONFIG_COMMANDS["train"], "--out", "{d}/a-directory"),
    "train-log-directory": _with(CONFIG_COMMANDS["train"], "--log", "{d}/a-directory"),
    "predict-out-directory": _with(PREDICT, "--out", "{d}/a-directory"),
    "run-out-existing-file": _with(CONFIG_COMMANDS["run"], "--out", "{d}/a-file"),
    "features-valid": CONFIG_COMMANDS["features"],
}


def _count_builds(monkeypatch) -> list:
    """The list that every build_scene call of the CLI appends to."""
    calls = []
    for module in (cli, harness):
        build = module.build_scene
        monkeypatch.setattr(module, "build_scene", lambda *args, _build=build: calls.append(1) or _build(*args))
    return calls


@pytest.mark.parametrize("case", EARLY_FAILURES)
def test_cli_checks_outputs_before_building_scenes(inputs, tmp_path, capsys, monkeypatch, case):
    calls = _count_builds(monkeypatch)
    code = main([arg.format(d=inputs, t=tmp_path) for arg in EARLY_FAILURES[case]])
    err = capsys.readouterr().err
    if case.endswith("-valid"):
        assert code == 0 and calls, err
    else:
        assert code == 1 and len(err.splitlines()) == 1 and err.startswith("error: [Errno")
        assert calls == []


# an output path that names a file the command reads, or train's other output:
# refused before any window is featurized, every file left as it was
SELF_OVERWRITES = {
    "features-out=data-file": _with(CONFIG_COMMANDS["features"], "--out", "{d}/scene/trajectories.txt"),
    "features-out=config": _with(_with(CONFIG_COMMANDS["features"], "--out", "{d}/edge.toml"),
                                 "--config", "{d}/edge.toml"),
    "train-out=log": _with(CONFIG_COMMANDS["train"], "--log", "{t}/model.json"),
    "predict-out=model": _with(PREDICT, "--out", "{d}/model.json"),
    "eval-out=pred": _with(EVAL, "--out", "{d}/pred.json"),
}


@pytest.mark.parametrize("case", SELF_OVERWRITES)
def test_cli_refuses_to_overwrite_what_it_uses(inputs, tmp_path, capsys, monkeypatch, case):
    shutil.copytree(inputs / "scene", tmp_path / "scene")
    for name in ("model.json", "pred.json", "edge.toml"):
        shutil.copy(inputs / name, tmp_path)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    calls = _count_builds(monkeypatch)
    code = main([arg.format(d=tmp_path, t=tmp_path) for arg in SELF_OVERWRITES[case]])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error: output "), lines
    assert calls == [] and {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


# train prints its summary line on stdout, so neither the model nor the log may go there
STDOUT_OUTPUTS = {"train-out=-": "--out", "train-log=-": "--log"}


@pytest.mark.parametrize("case", STDOUT_OUTPUTS)
def test_train_refuses_stdout_for_its_files(inputs, tmp_path, capsys, monkeypatch, case):
    calls = _count_builds(monkeypatch)
    monkeypatch.chdir(tmp_path)
    flag = STDOUT_OUTPUTS[case]
    code = main([arg.format(d=inputs, t=tmp_path) for arg in _with(CONFIG_COMMANDS["train"], flag, "-")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith(f"error: train {flag} "), lines
    assert calls == [] and not (tmp_path / "-").exists()


# settings whose arithmetic overflows or underflows: a training C past the
# range that keeps the Frank-Wolfe line search finite, and lengths and a rate
# outside the ranges that keep the kernels finite on samples within the bound;
# each is refused with one error line naming the key, and no numpy warning is
# raised on the way (warnings are errors here)
EXTREME_SETTINGS = {
    "heat_length": ("1e-160", "1e-300", "1e160", "1e300"),
    "heat_cell_edge": ("1e-300", "1e-308", "1e-320", "1e150"),
    "heat_k_r": ("1.7e308",),
}
EXTREMES = {
    **{f"{name}-{mode}--C=1e160": ("C", "C = 1e160", _with(CONFIG_COMMANDS[name], "--mode", mode))
       for name, modes in (("train", ("batch", "sequential")), ("run", ("batch", "sequential", "online")))
       for mode in modes},
    **{f"{name}-{key}={value}": (key, f"{key} = {value}", CONFIG_COMMANDS[name])
       for key, values in EXTREME_SETTINGS.items() for value in values for name in ("features", "run")},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", EXTREMES)
def test_cli_refuses_settings_whose_arithmetic_overflows(inputs, tmp_path, capsys, case):
    key, line, argv = EXTREMES[case]
    config = tmp_path / "extreme.toml"
    config.write_text(line + "\n", encoding="utf-8")
    code = main([arg.format(d=inputs, t=tmp_path) for arg in _with(argv, "--config", str(config))])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith(f"error: {key} "), lines


# numbers past the bound that overflowed on their way to a refusal: model
# weights, a pixel coordinate and homography entries; each is refused by the
# bound, with one error line and no numpy warning (warnings are errors here)
PAST_THE_BOUND = {
    "predict-model-w=1.7e308": (_with(PREDICT, "--model", "{d}/model-w-1.7e308.json"),
                                "{d}/model-w-1.7e308.json: not a valid model file: w must be finite and within ±1e+100"),
    "features-pixel=1e308": (_with(CONFIG_COMMANDS["features"], "--data", "{d}/pixels-1e308"),
                             "{d}/pixels-1e308/trajectories.txt:13: sample values must be finite"),
    "features-homography=1e300": (_with(CONFIG_COMMANDS["features"], "--data", "{d}/homography-1e300"),
                                  "{d}/homography-1e300/H.txt: homography entries must be finite and within"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", PAST_THE_BOUND)
def test_cli_refuses_numbers_past_the_bound_before_they_overflow(inputs, tmp_path, capsys, case):
    argv, message = PAST_THE_BOUND[case]
    code = main([arg.format(d=inputs, t=tmp_path) for arg in argv])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith(f"error: {message.format(d=inputs)}"), lines
    assert not any(tmp_path.iterdir())


# every refusal of a model file names the file: a missing field, a weight past
# the bound and a recorded setting out of its range
MODEL_FILES = {
    "no-w": "not a valid model file: 'w'",
    "w-1e200": "not a valid model file: w must be finite and within ±1e+100",
    "window_len--1": "window_len must be positive, got -1",
}


@pytest.mark.parametrize("case", MODEL_FILES)
def test_cli_names_the_model_file_it_refuses(inputs, tmp_path, capsys, case):
    model = inputs / f"model-{case}.json"
    code = main([arg.format(d=inputs, t=tmp_path) for arg in _with(PREDICT, "--model", str(model))])
    assert code == 1 and capsys.readouterr().err == f"error: {model}: {MODEL_FILES[case]}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["1e160", "nan", "-inf"])
def test_cli_names_the_file_and_line_of_a_sample_past_the_bound(inputs, tmp_path, capsys, value):
    shutil.copytree(inputs / "scene", tmp_path / "scene")
    path = tmp_path / "scene" / "trajectories.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    frame, ped, _, y = lines[1].split()
    lines[1] = f"{frame} {ped} {value} {y}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["features", "--data", str(tmp_path / "scene"), "--out", str(tmp_path / "features.csv")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith(f"error: {path}:2: sample values must be finite"), err


def test_cli_stops_quietly_when_stdout_closes_early(tmp_path):
    # `crowdgroups features --data scene | head -1`: the reader closes the pipe
    # after the header; the rest of the CSV (well past a pipe buffer) is unwanted
    trajectories, labels = synth_generate(SynthSpec(), seed=0)
    write_dataset(tmp_path / "scene", trajectories, labels, fps=SynthSpec().fps, seed=0)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "crowdgroups.cli", "features", "--data", str(tmp_path / "scene")]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        header = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert header.startswith("window,") and code == 0 and err == "", (header, code, err)
