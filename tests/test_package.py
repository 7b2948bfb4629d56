"""The package's export list."""

from __future__ import annotations

import ast
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
