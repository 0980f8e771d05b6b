"""The benchmark's trace hooks name functions that exist.

`perfbench/tracer.py` wraps lrlab functions by module and attribute name.  A
name it cannot find only zeroes that layer's metrics, so a refactor that
drops or moves a hooked name would otherwise go unnoticed.  These checks only
look the names up; they install nothing.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()

HOOKS = sorted(
    {
        (mod, attr)
        for _, main, attr, also, _ in tracer.TARGETS
        for mod in (main,) + also
    }
    | {("lrlab.models", attr) for attr in tracer.BUILDERS}
    | {("lrlab.chains", "count_chains_dp")}
)


@pytest.mark.parametrize("module,attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_hooked_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
