"""The benchmark's trace hooks name functions that exist, and work.

`perfbench/tracer.py` wraps lrlab functions by module and attribute name.  A
name it cannot find only zeroes that layer's metrics, so a refactor that
drops or moves a hooked name would otherwise go unnoticed.  The name checks
only look the names up; they install nothing.  The worker checks run three
tiny traced jobs through `perfbench/worker.py` in a subprocess, so a span's
attribute extractor that no longer fits its function's arguments fails here
rather than in a benchmark sample.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lrlab import lattice

REPO_ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = REPO_ROOT / "perfbench" / "tracer.py"


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


# `verify` (Z observables) takes the free-fermion sweep, `verify_x` (X
# observables) the structured one.
TFIM_CONFIGS = {
    "verify": {
        "model": {"name": "tfim", "length": 6},
        "observables": {"op_site": 0, "oq_sites": [3, 4]},
        "time_grid": {"start": 0.0, "stop": 1.0, "points": 3},
        "methods": ["closed_form", "series_exact_cn"],
    },
    "verify_x": {
        "model": {"name": "tfim", "length": 6},
        "observables": {
            "op_site": 0, "op_pauli": "X", "oq_sites": [3, 4], "oq_pauli": "X",
        },
        "time_grid": {"start": 0.0, "stop": 1.0, "points": 3},
        "methods": ["closed_form"],
    },
}

# The spans of the full-space route: the full H, its sectors, the sweep.
FULL_SPACE_SPANS = {
    name
    for name, _, attr, _, _ in tracer.TARGETS
    if attr in ("full_hamiltonian", "decompose", "commutator_norm_sweep")
}


def _job(kind: str, tmp_path: Path) -> dict:
    out = str(tmp_path / "out")
    if kind in TFIM_CONFIGS:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(TFIM_CONFIGS[kind]))
        return {"kind": "cli", "argv": ["verify", "--config", str(cfg), "--out", out]}
    return {
        "kind": "script",
        "script": "scripts/run_dicke_truncation.py",
        "argv": ["--length", "3", "--truncations", "2", "3", "--out", out],
    }


@pytest.mark.parametrize(
    "kind,layers",
    [
        ("verify", {"lattice", "dynamics", "bounds"}),
        ("dicke", {"lattice", "bounds"}),
        ("verify_x", {"lattice", "dynamics", "bounds"}),
    ],
)
def test_worker_traces_a_tiny_job(tmp_path, kind, layers):
    job = _job(kind, tmp_path)
    job.update(root=str(REPO_ROOT), trace=True, result=str(tmp_path / "result.json"))
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(job))
    env = dict(os.environ, LRLAB_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "perfbench" / "worker.py"), str(job_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["rc"] == 0
    assert result["missing"] == []
    traced = {name.split(".")[0] for name, *_ in result["spans"]}
    assert layers <= traced
    metrics = tracer.layer_metrics(result["spans"])
    assert metrics["lattice.adjacency_calls"] == (2 if kind == "dicke" else 1)
    if kind == "verify":
        # A TFIM Z run builds no full H and never reaches the dense sweep.
        assert len(FULL_SPACE_SPANS) == 3
        assert not FULL_SPACE_SPANS & {name for name, *_ in result["spans"]}
    if kind == "verify_x":
        # The sweep's norms go through the hooked `dynamics.spectral_norm`.
        assert metrics["dynamics.norm_s"] > 0
    if kind == "dicke":
        # The Dicke job must reach the sparse route of the union norms, so
        # that a sparse matrix handed to a traced name fails here.
        assert metrics["lattice.union_dim_max"] > lattice.DENSE_UNION_MAX_DIM
