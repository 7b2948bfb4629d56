"""Every script in demos/, and README's in-memory pipeline, runs to completion
against the package in src/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_readme_pipeline_runs(capsys):
    # README's one python block, as printed there: a renamed public name fails here
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [block.split("\n```", 1)[0] for block in text.split("```python\n")[1:]]
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    scores = capsys.readouterr().out.splitlines()
    assert scores, "the pipeline printed no score"
