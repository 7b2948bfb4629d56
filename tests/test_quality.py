"""The quality suite's smoke cases (quality/suite.py): one scene seed of the
defaults cell, of the sequential cell and of a cross-setting cell, one short
training run each, written twice to the same bytes; and README's tables of
the committed values against QUALITY.json."""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUITE = ROOT / "quality" / "suite.py"


def _smoke(tmp_path, cell: str, commands: list | None = None) -> dict:
    """The suite's result for one cell at scene seed 0, one run of 30
    iterations, after checking that two writes give the same bytes; each
    crowdgroups command's argv is appended to `commands` if given."""
    spec = importlib.util.spec_from_file_location("quality_suite", SUITE)
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    if commands is not None:
        cli = suite._cli
        suite._cli = lambda argv: (commands.append(argv), cli(argv))[1]
    argv = ["--cells", cell, "--scene-seeds", "0", "--runs", "1", "--max-iterations", "30"]
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert suite.main([*argv, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    return json.loads(outs[0].read_text(encoding="utf-8"))


def test_quality_suite_smoke(tmp_path):
    result = _smoke(tmp_path, "defaults")
    assert result["command"] == "crowdgroups run --training-span 50.0 --max-iterations 30 --runs 1"
    cell = result["cells"]["defaults"]
    assert cell["scene_seeds"] == [0] and len(cell["f1"]) == 1 and len(cell["f1"][0]) == 1
    assert cell["spec"] == {"duration": 100.0, "group_size_min": 3, "group_size_max": 3}
    assert 0.0 <= cell["worst"] == cell["mean"] == cell["f1"][0][0] <= 1.0 and cell["sd"] == 0.0


def test_quality_suite_cross_setting_smoke(tmp_path):
    result = _smoke(tmp_path, "cross-dense12m")
    assert result["cross_command"] == "crowdgroups train --training-span 50.0 --max-iterations 30 --seed 0..0"
    cell = result["cells"]["cross-dense12m"]
    assert cell["train_spec"] == {"duration": 50.0, "group_size_min": 3, "group_size_max": 3}
    assert cell["spec"]["duration"] == 50.0 and cell["spec"]["n_groups"] == 8
    assert cell["scene_seeds"] == [0] and cell["test_seeds"] == [100, 101, 102]
    assert len(cell["f1"]) == 1 and len(cell["f1"][0]) == 1
    assert 0.0 <= cell["worst"] == cell["mean"] == cell["f1"][0][0] <= 1.0 and cell["sd"] == 0.0


def test_quality_suite_sequential_smoke(tmp_path):
    commands = []
    result = _smoke(tmp_path, "conv-noise-sequential", commands)
    cell = result["cells"]["conv-noise-sequential"]
    assert cell["mode"] == "sequential"
    assert cell["spec"] == {"duration": 100.0, "group_size_min": 3, "group_size_max": 3,
                            "behavior": "converging", "noise_std": 0.3}
    assert cell["scene_seeds"] == [0] and len(cell["f1"]) == 1 and len(cell["f1"][0]) == 1
    assert 0.0 <= cell["worst"] == cell["mean"] == cell["f1"][0][0] <= 1.0 and cell["sd"] == 0.0
    runs = [argv for argv in commands if argv[0] == "run"]
    assert len(runs) == 2 and all(argv[-2:] == ["--mode", "sequential"] for argv in runs)


def _readme_quality_rows() -> list[dict]:
    """The rows of the tables in README's quality-suite section, each a dict
    from column header to cell text."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Quality suite\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for table in re.findall(r"(?:^\|.*\|\n)+", section, re.MULTILINE):
        header, _, *lines = [[c.strip() for c in line.strip("|").split("|")] for line in table.splitlines()]
        rows += [dict(zip(header, line)) for line in lines]
    return rows


def test_readme_quality_tables_match_quality_json():
    # every cell's mean, sd and worst as README prints them, at the precision
    # printed, and an in-setting cell's scene seeds
    cells = json.loads((ROOT / "QUALITY.json").read_text(encoding="utf-8"))["cells"]
    rows = _readme_quality_rows()
    names = [row["cell"].split()[0] for row in rows]
    assert sorted(names) == sorted(cells)
    for name, row in zip(names, rows):
        for key in ("mean", "sd", "worst"):
            places = len(row[key].partition(".")[2])
            assert row[key] == f"{cells[name][key]:.{places}f}", (name, key)
        if "scene seeds" in row:
            seeds = cells[name]["scene_seeds"]
            assert row["scene seeds"] == f"{seeds[0]}–{seeds[-1]}" and seeds == list(range(seeds[0], seeds[-1] + 1))
