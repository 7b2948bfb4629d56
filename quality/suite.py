"""crowdgroups quality suite: gmitre F1 per cell, written to QUALITY.json.

    python3 quality/suite.py                  # every cell; writes QUALITY.json at the repo root
    python3 quality/suite.py --cells dense12m --scene-seeds 0-4 --out -

Every scene is a synth scene with group sizes pinned to 3, one per scene seed.
An in-setting cell generates 100 s scenes of its setting and runs `crowdgroups
run --training-span 50 --max-iterations 300 --runs 5` on each, plus the cell's
own run flags (conv-noise-sequential: the conv-noise cell with `--mode
sequential`, recorded in its JSON): the first five 10 s windows train and the
last five are scored, once per training seed 0-4.
A cross-setting cell trains on 50 s defaults scenes instead (`crowdgroups train
--training-span 50 --max-iterations 300 --seed t`, t = 0-4) and scores each
model on three unseen scenes of its setting (seeds 100-102; `predict`, then
`eval`); a run's value is the mean of the three scenes' gmitre F1.
A cell records every run's gmitre F1 and their mean, sample sd and worst value
over scene seeds x training seeds.
Everything is seeded and offline, so a tree always writes the same file.
The package is imported from `src/` next to this directory; the suite uses
only the `synth`, `run`, `train`, `predict` and `eval` commands, so it also
runs on older trees (PYTHONPATH=<tree>/src python3 quality/suite.py).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import re
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENE = {"duration": 100.0, "group_size_min": 3, "group_size_max": 3}
CELLS = {  # name: (SynthSpec settings over SCENE, default scene seeds, run flags over RUN)
    "defaults": ({}, range(5), {}),
    "dense12m": ({"n_groups": 8, "n_singletons": 16, "extent": 12.0}, range(10), {}),
    "conv-noise": ({"behavior": "converging", "noise_std": 0.3}, range(5), {}),
    "conv-noise-sequential": ({"behavior": "converging", "noise_std": 0.3}, range(5), {"mode": "sequential"}),
}
CROSS_CELLS = {  # name: SynthSpec settings over SCENE of the unseen test scenes
    "cross-conv-noise": CELLS["conv-noise"][0] | {"duration": 50.0},
    "cross-conv100": {"n_groups": 20, "n_singletons": 40, "extent": 30.0, "behavior": "converging", "duration": 30.0},
    "cross-dense12m": CELLS["dense12m"][0] | {"duration": 50.0},
}
CROSS_TRAIN = {"duration": 50.0}  # over SCENE: the defaults scenes that cross-setting models train on
CROSS_TRAIN_SEEDS = range(5)  # their default scene seeds
CROSS_TEST_SEEDS = [100, 101, 102]
RUN = {"training-span": 50.0, "max-iterations": 300, "runs": 5}


def _seeds(text: str) -> list[int]:
    """'0-4' or '0,3,7' as a list of seeds."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _toml(values: dict) -> str:
    return "".join(f"{k} = {json.dumps(v)}\n" for k, v in values.items())


def _cli(argv: list[str]) -> None:
    """Run one crowdgroups command in-process, its stdout discarded."""
    from crowdgroups.cli import main as crowdgroups

    with contextlib.redirect_stdout(io.StringIO()):
        code = crowdgroups(argv)
    if code != 0:
        raise SystemExit(f"crowdgroups {' '.join(argv)} exited {code}")


def _summary(f1: list[list[float]]) -> dict:
    """Mean, sd and worst of the per-run values, and the values, rounded to 4 places."""
    flat = [value for row in f1 for value in row]
    sd = statistics.stdev(flat) if len(flat) > 1 else 0.0
    return {
        "mean": round(statistics.fmean(flat), 4),
        "sd": round(sd, 4),
        "worst": round(min(flat), 4),
        "f1": [[round(value, 4) for value in row] for row in f1],
    }


def _synth(settings: dict, seed: int, out: Path) -> Path:
    spec = out.with_suffix(".toml")
    spec.write_text(_toml(SCENE | settings), encoding="utf-8")
    _cli(["synth", "--spec", str(spec), "--seed", str(seed), "--out", str(out)])
    return out


def run_cell(settings: dict, scene_seeds: list[int], run: dict, cell_flags: dict, work: Path) -> dict:
    """Per-run gmitre F1 (one row per scene seed, one column per training
    seed) and their mean, sd and worst, rounded to 4 places; the cell's own
    run flags are added to `run` and recorded."""
    flags = [part for key, value in (run | cell_flags).items() for part in (f"--{key}", str(value))]
    f1 = []
    for seed in scene_seeds:
        scene, report = _synth(settings, seed, work / f"scene-{seed}"), work / f"report-{seed}"
        _cli(["run", "--data", str(scene), "--out", str(report), *flags])
        meta = json.loads((report / "meta.json").read_text(encoding="utf-8"))
        f1.append([entry["gmitre_f1"] for entry in meta["runs"]])
    return {"spec": SCENE | settings, **cell_flags, "scene_seeds": scene_seeds, **_summary(f1)}


def _mean_gmitre_f1(scores: Path) -> float:
    with open(scores, newline="", encoding="utf-8") as fh:
        rows = csv.DictReader(fh)
        return next(float(row["f1"]) for row in rows if row["window"] == "mean" and row["metric"] == "gmitre")


def run_cross_cell(settings: dict, scene_seeds: list[int], run: dict, work: Path) -> dict:
    """As run_cell, for models trained on defaults scenes (one per scene seed)
    and scored on unseen scenes of the setting: a run's value is the mean
    gmitre F1 over the test scenes."""
    tests = [_synth(settings, seed, work / f"test-{seed}") for seed in CROSS_TEST_SEEDS]
    model, pred, scores = work / "model.json", work / "pred.json", work / "scores.csv"
    flags = [part for key in ("training-span", "max-iterations") for part in (f"--{key}", str(run[key]))]
    f1 = []
    for seed in scene_seeds:
        scene = _synth(CROSS_TRAIN, seed, work / f"train-{seed}")
        row = []
        for t in range(run["runs"]):
            _cli(["train", "--data", str(scene), "--out", str(model), *flags, "--seed", str(t)])
            values = []
            for test in tests:
                _cli(["predict", "--model", str(model), "--data", str(test), "--out", str(pred)])
                _cli(["eval", "--truth", str(test / "groups.txt"), "--pred", str(pred), "--out", str(scores)])
                values.append(_mean_gmitre_f1(scores))
            row.append(statistics.fmean(values))
        f1.append(row)
    return {"train_spec": SCENE | CROSS_TRAIN, "scene_seeds": scene_seeds, "spec": SCENE | settings,
            "test_seeds": CROSS_TEST_SEEDS, **_summary(f1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", default=",".join([*CELLS, *CROSS_CELLS]),
                        help=f"comma-separated, of {', '.join([*CELLS, *CROSS_CELLS])}")
    parser.add_argument("--scene-seeds", type=_seeds, default=None,
                        help="e.g. 0-4 or 0,3 (default: each cell's own)")
    parser.add_argument("--runs", type=int, default=RUN["runs"], help="training seeds 0..runs-1")
    parser.add_argument("--max-iterations", type=int, default=RUN["max-iterations"])
    parser.add_argument("--out", default=str(ROOT / "QUALITY.json"), help="JSON path, or - for stdout")
    args = parser.parse_args(argv)
    names = args.cells.split(",")
    unknown = sorted(set(names) - set(CELLS) - set(CROSS_CELLS))
    if unknown:
        parser.error(f"unknown cells: {unknown}")
    sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, so another tree's src can be given there
    run = RUN | {"runs": args.runs, "max-iterations": args.max_iterations}
    result = {
        "command": "crowdgroups run " + " ".join(f"--{k} {v}" for k, v in run.items()),
        "cross_command": f"crowdgroups train --training-span {run['training-span']} "
                         f"--max-iterations {run['max-iterations']} --seed 0..{run['runs'] - 1}",
        "cells": {},
    }
    for name in names:
        with tempfile.TemporaryDirectory() as work:
            if name in CELLS:
                settings, seeds, cell_flags = CELLS[name]
                cell = run_cell(settings, args.scene_seeds or list(seeds), run, cell_flags, Path(work))
            else:
                cell = run_cross_cell(CROSS_CELLS[name], args.scene_seeds or list(CROSS_TRAIN_SEEDS), run, Path(work))
        result["cells"][name] = cell
        print(f"{name}: mean {cell['mean']:.3f} sd {cell['sd']:.3f} worst {cell['worst']:.3f}", file=sys.stderr)
    # innermost lists (of numbers) on one line each
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: "[" + " ".join(m[1].split()) + "]", json.dumps(result, indent=2))
    if args.out == "-":
        sys.stdout.write(text + "\n")
    else:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
