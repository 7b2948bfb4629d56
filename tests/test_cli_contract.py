"""The command-line contract: every subcommand, given bad numbers, short or
empty data, unreadable input files or unwritable outputs, either succeeds
with output or exits 1 with exactly one `error:` line; no exception escapes
`cli.main`.

Integer flags get only negative values here: argparse refuses `nan` for an
integer as a usage error (exit 2) before any subcommand runs, which
`test_harness.py::test_cli_exit_codes` covers.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from crowdgroups import Model, SynthSpec, cli, harness, load_dataset, synth_generate, write_dataset
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
    shutil.copytree(root / "scene", root / "not-utf8")
    (root / "not-utf8" / "trajectories.txt").write_bytes(NOT_UTF8)
    (root / "empty").mkdir()
    (root / "a-directory").mkdir()
    (root / "a-file").write_text("x\n", encoding="utf-8")
    (root / "not-utf8.bin").write_bytes(NOT_UTF8)
    (root / "not-json.txt").write_text("{not json\n", encoding="utf-8")
    (root / "spec.toml").write_text("n_groups = 1\nn_singletons = 1\nduration = 20.0\n", encoding="utf-8")
    model = Model(w=np.ones(8), config_snapshot={"window_len": 8.0, "stride": 8.0})
    model.save(root / "model.json")
    write_predictions(root / "pred.json", 0, predict_windows(load_dataset(root / "scene"), model))
    return root


def _written(path) -> bool:
    return path.is_file() and path.stat().st_size > 0 or path.is_dir() and any(path.iterdir())


@pytest.mark.parametrize("case", CASES)
def test_cli_contract(inputs, tmp_path, capsys, case):
    argv = [arg.format(d=inputs, t=tmp_path) for arg in CASES[case]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 or not case.endswith("-valid"), captured.err
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


@pytest.mark.parametrize("case", EARLY_FAILURES)
def test_cli_checks_outputs_before_building_scenes(inputs, tmp_path, capsys, monkeypatch, case):
    calls = []
    for module in (cli, harness):
        build = module.build_scene
        monkeypatch.setattr(module, "build_scene", lambda *args, _build=build: calls.append(1) or _build(*args))
    code = main([arg.format(d=inputs, t=tmp_path) for arg in EARLY_FAILURES[case]])
    err = capsys.readouterr().err
    if case.endswith("-valid"):
        assert code == 0 and calls, err
    else:
        assert code == 1 and len(err.splitlines()) == 1 and err.startswith("error: [Errno")
        assert calls == []


# settings whose arithmetic overflows or underflows: a training C whose
# Frank-Wolfe line search overflows, and lengths whose square is not a normal
# float; each is refused with one error line naming the key, and no numpy
# warning is raised on the way (warnings are errors here)
EXTREME_SETTINGS = {
    "heat_length": ("1e-160", "1e-300", "1e160", "1e300"),
    "proxemic_sigmas": ("[1e-300, 1e-299]", "[1e200, 1e201]", "[1e-160, 1.0]"),
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
