"""The quality suite's smoke cases (quality/suite.py): one scene seed of the
defaults cell and of a cross-setting cell, one short training run each,
written twice to the same bytes."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

SUITE = Path(__file__).resolve().parents[1] / "quality" / "suite.py"


def _smoke(tmp_path, cell: str) -> dict:
    """The suite's result for one cell at scene seed 0, one run of 30
    iterations, after checking that two writes give the same bytes."""
    spec = importlib.util.spec_from_file_location("quality_suite", SUITE)
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
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
