"""Tests of the benchmark harness itself.

Run from the root of the repository:
  python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import csv
import json
import re
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def verify_sample(tmp_path_factory):
    """One default-seed tfim_verify run, as the benchmark makes it."""
    sample = tmp_path_factory.mktemp("work") / "sample"
    env = run.child_env(run._nproc())
    job, result = run.run_sample(
        "tfim_verify", workloads.DEFAULT_SEED, False, sample, env, run.RUN_LIMIT_S)
    assert result["rc"] == 0
    return job, result


def _check(job, result):
    reference = json.loads((run.HERE / "reference.json").read_text())
    return workloads.check("tfim_verify", workloads.DEFAULT_SEED, job, result,
                           reference, {})


def test_checker_accepts_the_reference_run(verify_sample):
    assert _check(*verify_sample) == []


def test_checker_rejects_a_lowered_norm(verify_sample, tmp_path):
    job, result = verify_sample
    out = tmp_path / "out"
    out.mkdir()
    for f in Path(job["out"]).iterdir():
        (out / f.name).write_bytes(f.read_bytes())
    with open(out / "simulation.csv", newline="") as f:
        rows = list(csv.reader(f))
    rows[10][2] = repr(float(rows[10][2]) - 1e-6)
    (out / "simulation.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
    errors = _check(dict(job, out=str(out)), result)
    assert errors and all(e.startswith("norms[9]") for e in errors)


def test_checker_rejects_a_failed_verdict(verify_sample, tmp_path):
    job, result = verify_sample
    out = tmp_path / "out"
    out.mkdir()
    for f in Path(job["out"]).iterdir():
        (out / f.name).write_bytes(f.read_bytes())
    verdict = json.loads((out / "verification.json").read_text())
    verdict.update(passed=False, worst_margin=-2e-9)
    (out / "verification.json").write_text(json.dumps(verdict))
    errors = _check(dict(job, out=str(out)), result)
    assert errors == ["verify failed: worst margin -2e-09"]


def test_checker_rejects_a_chain_count_off_by_one(verify_sample):
    job, result = verify_sample
    chains = json.loads(json.dumps(result["chains"]))
    chains[2]["counts"][7] += 1
    assert _check(job, dict(result, chains=chains)) == [
        "chain counts differ from the reference"]


def test_brute_force_invariant_rejects_a_chain_count_off_by_one():
    # The check every seed gets, on a small chain.
    from lrlab.chains import count_chains_dp
    from lrlab.lattice import noncommuting_adjacency, region
    from lrlab.models import build_tfim

    config = {"model": {"name": "tfim", "length": 12, "j": 1.0, "g": 1.0}}
    model = build_tfim(12)
    adj = noncommuting_adjacency(model)
    start = len(model.family0) + 2  # Z field on site 2
    tables = []
    for site in (5, 6, 9):
        t = count_chains_dp(adj, start, region(model.graph, (site,)), 12)
        tables.append({"start": start, "target": [site], "n_max": 12,
                       "counts": [t.counts[n] for n in range(13)]})
    assert workloads._dp_matches_brute_force(config, tables, {}) == []
    tables[1]["counts"][8] += 1
    assert len(workloads._dp_matches_brute_force(config, tables, {})) == 1


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert names == run.END_TO_END_UNITS
    assert layers == run.LAYER_UNITS
    # tfim_series runs on request only; see README.md.
    assert [w["name"] for w in spec["workloads"]] == [
        w for w in workloads.WORKLOADS if w != "tfim_series"]
    for name in list(names) + list(layers) + list(workloads.WORKLOADS):
        assert NAME.fullmatch(name), name
    derived = set(tracer.layer_metrics([])) | {
        "process.cpu_s", "trace.wall_s", "trace.overhead_s"}
    assert derived == set(layers)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 9.0, 0, None],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_count_nested_and_in_sweep_spans():
    spans = [
        ["dynamics.sweep", 0.0, 10.0, -1, {"points": 2}],
        ["operators.spectral_norm", 1.0, 3.0, 0, {"n": 4}],
        ["operators.eigvalsh", 1.5, 2.5, 1, None],
        ["operators.spectral_norm", 4.0, 5.0, 0, {"n": 2}],
        ["operators.spectral_norm", 11.0, 12.0, -1, {"n": 2}],
    ]
    m = tracer.layer_metrics(spans)
    assert m["dynamics.norm_s"] == 3.0
    assert m["operators.spectral_norm_s"] == 4.0
    assert m["operators.spectral_norm_calls"] == 3
    assert m["operators.norm_work_n3"] == 64 + 8 + 8
    assert m["dynamics.rotate_self_s"] == 7.0
    assert m["dynamics.sweep_points"] == 2
