"""The lrlab names the benchmark's workload checks import exist.

`perfbench/workloads.py` imports lrlab names inside its check functions (the
chain DP against brute force of the `tfim_series` workload), so a rename in
lrlab breaks that workload only when it runs.  These tests read those
imports from the file's syntax tree, without importing or running it, and
resolve each name in lrlab.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _lrlab_imports() -> list:
    """(module, name) of every `from lrlab... import name` in the file."""
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    return sorted(
        {
            (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.level == 0
            and (node.module or "").split(".")[0] == "lrlab"
            for alias in node.names
        }
    )


IMPORTS = _lrlab_imports()


def test_the_walk_finds_the_imports_inside_functions():
    assert {name for _, name in IMPORTS} >= {
        "count_chains_bruteforce", "build_model", "noncommuting_adjacency", "region",
    }


@pytest.mark.parametrize("module,name", IMPORTS, ids=[f"{m}.{n}" for m, n in IMPORTS])
def test_imported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
