"""crowdgroups quality suite: in-setting gmitre F1 per cell, written to QUALITY.json.

    python3 quality/suite.py                  # every cell; writes QUALITY.json at the repo root
    python3 quality/suite.py --cells dense12m --scene-seeds 0-4 --out -

Each cell generates 100 s synth scenes with group sizes pinned to 3, one per
scene seed, and runs `crowdgroups run --training-span 50 --max-iterations 300
--runs 5` on each: the first five 10 s windows train and the last five are
scored, once per training seed 0-4. A cell records every run's gmitre F1 and
their mean, sample sd and worst value over scene seeds x training seeds.
Everything is seeded and offline, so a tree always writes the same file.
The package is imported from `src/` next to this directory; the suite uses
only the `synth` and `run` commands, so it also runs on older trees
(PYTHONPATH=<tree>/src python3 quality/suite.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENE = {"duration": 100.0, "group_size_min": 3, "group_size_max": 3}
CELLS = {  # name: (SynthSpec settings over SCENE, default scene seeds)
    "defaults": ({}, range(5)),
    "dense12m": ({"n_groups": 8, "n_singletons": 16, "extent": 12.0}, range(10)),
    "conv-noise": ({"behavior": "converging", "noise_std": 0.3}, range(5)),
}
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


def run_cell(settings: dict, scene_seeds: list[int], run: dict, work: Path) -> dict:
    """Per-run gmitre F1 (one row per scene seed, one column per training
    seed) and their mean, sd and worst, rounded to 4 places."""
    spec = work / "spec.toml"
    spec.write_text(_toml(SCENE | settings), encoding="utf-8")
    flags = [part for key, value in run.items() for part in (f"--{key}", str(value))]
    f1 = []
    for seed in scene_seeds:
        scene, report = work / f"scene-{seed}", work / f"report-{seed}"
        _cli(["synth", "--spec", str(spec), "--seed", str(seed), "--out", str(scene)])
        _cli(["run", "--data", str(scene), "--out", str(report), *flags])
        meta = json.loads((report / "meta.json").read_text(encoding="utf-8"))
        f1.append([entry["gmitre_f1"] for entry in meta["runs"]])
    flat = [value for row in f1 for value in row]
    sd = statistics.stdev(flat) if len(flat) > 1 else 0.0
    return {
        "spec": SCENE | settings,
        "scene_seeds": scene_seeds,
        "mean": round(statistics.fmean(flat), 4),
        "sd": round(sd, 4),
        "worst": round(min(flat), 4),
        "f1": [[round(value, 4) for value in row] for row in f1],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", default=",".join(CELLS), help=f"comma-separated, of {', '.join(CELLS)}")
    parser.add_argument("--scene-seeds", type=_seeds, default=None,
                        help="e.g. 0-4 or 0,3 (default: each cell's own)")
    parser.add_argument("--runs", type=int, default=RUN["runs"], help="training seeds 0..runs-1")
    parser.add_argument("--max-iterations", type=int, default=RUN["max-iterations"])
    parser.add_argument("--out", default=str(ROOT / "QUALITY.json"), help="JSON path, or - for stdout")
    args = parser.parse_args(argv)
    names = args.cells.split(",")
    unknown = sorted(set(names) - set(CELLS))
    if unknown:
        parser.error(f"unknown cells: {unknown}")
    sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, so another tree's src can be given there
    run = RUN | {"runs": args.runs, "max-iterations": args.max_iterations}
    result = {"command": "crowdgroups run " + " ".join(f"--{k} {v}" for k, v in run.items()), "cells": {}}
    for name in names:
        settings, seeds = CELLS[name]
        with tempfile.TemporaryDirectory() as work:
            cell = run_cell(settings, args.scene_seeds or list(seeds), run, Path(work))
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
