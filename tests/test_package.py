"""The package's export list and import footprint."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import crowdgroups


def test_all_lists_exactly_the_imported_public_names():
    tree = ast.parse(Path(crowdgroups.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert set(crowdgroups.__all__) == imported
    assert len(crowdgroups.__all__) == len(imported)
    for name in crowdgroups.__all__:
        assert getattr(crowdgroups, name) is not None


def test_importing_the_cli_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the test oracles only
    src = str(Path(crowdgroups.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, crowdgroups.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
